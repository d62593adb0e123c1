"""Exact rank and linear combinations by one fraction-free elimination.

`_echelon` is the package's only Gaussian elimination.  It works over any
integral domain: a row below a pivot p becomes reduce(p·row − a·pivot_row),
with a caller-supplied `reduce` that keeps entries small without changing
the row's span.  Over Q the rows are primitive integer rows, and `reduce`
divides out the gcd of the entries.  Over the fraction field of R/P (see
`ideals.generic_tangent_dimension`) the entries are polynomials, and
`reduce` takes each to its normal form modulo P.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _echelon(m, ncols: int, reduce) -> list:
    """Fraction-free row-echelon form of the rows `m` over an integral
    domain, in place, choosing pivots among the first `ncols` columns; whole
    rows are eliminated, so columns beyond them ride along.  A row with
    entry a under the pivot p becomes reduce(p·row − a·pivot_row): primitive
    integer rows over Q, normal forms modulo P over R/P.  Entries are tested
    with `!= 0`.  Returns the pivot columns; row i holds the pivot at column
    pivots[i]."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        tail = m[row][col:]
        pv = tail[0]
        for r in range(row + 1, len(m)):
            mr = m[r]
            a = mr[col]
            if a != 0:
                # entries left of col are zero in both rows
                m[r] = mr[:col] + reduce([pv * x - a * y
                                          for x, y in zip(mr[col:], tail)])
        pivots.append(col)
    return pivots


def _primitive(row: list) -> list:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row) -> list:
    """The primitive integer row spanning the same line as a row of
    rationals (ints or Fractions): one lcm of the denominators per row."""
    d = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (d // x.denominator) for x in row])


def rational_rank(rows) -> int:
    """Rank over Q of a matrix given as a list of rows of Fractions/ints."""
    m = [_integer_row(row) for row in rows]
    return len(_echelon(m, len(m[0]), _primitive)) if m else 0


def solve_combination(vectors, target):
    """Coefficients writing target as a combination of vectors, or None.

    All entries are Fractions or ints; vectors is a list of equal-length
    rows.  The coefficients are Fractions; when the vectors are dependent,
    the coefficients of the non-pivot vectors are 0.
    """
    k = len(vectors)
    # augmented transpose: unknowns are the combination coefficients
    rows = [_integer_row([v[i] for v in vectors] + [target[i]])
            for i in range(len(target))]
    pivots = _echelon(rows, k, _primitive)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for row, c in reversed(list(zip(rows, pivots))):
        coeffs[c] = Fraction(row[k] - sum(row[j] * coeffs[j] for j in range(c + 1, k)),
                             row[c])
    return coeffs
