"""Exact rank, and the package's one fraction-free elimination.

`_echelon` is the package's only Gaussian elimination: `rational_rank`,
the generic tangent dimension and the minimal polynomials of `ideals` all
read their answers off its pivot rows.  Rows are sparse
{column: value} dicts holding only nonzero entries.  It works over any
integral domain: a row meeting a pivot row p at column c becomes
reduce(p[c]·row − row[c]·p), with a caller-supplied `reduce` that keeps
entries small without changing the row's span.  Over Q the rows are
primitive integer rows, and `reduce` divides out the gcd of the entries.
Over the fraction field of R/P (see `ideals.generic_tangent_dimension`) the
entries are polynomials, and `reduce` takes each to its normal form modulo P.

Rows are eliminated one at a time, and a row only ever meets the pivot rows
at its own columns.  So the blocks of the row–column graph (for a tangent
system, at least as fine as any grading the ideal carries) are eliminated
apart from each other without being looked for.
"""

from __future__ import annotations

import math

from .poly import _integral


def _echelon(rows, reduce) -> dict:
    """Fraction-free row-echelon form over an integral domain of the dict
    rows `rows`, which hold no zero entry (entries are tested with `!= 0`).
    `reduce` must drop the entries it takes to zero.

    Shortest rows come first.  Each row is reduced at its least column by
    the pivot row there, until it finds a column with no pivot row and
    becomes that column's pivot row, or it is empty and dropped.  Returns
    {column: pivot row}; its keys are the least columns of the row space's
    nonzero vectors, the same set for every echelon form.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            p = pivots.get(col)
            if p is None:
                pivots[col] = row
                break
            pv, a = p[col], row[col]
            new = {c: pv * v for c, v in row.items() if c != col}
            for c, v in p.items():
                if c != col:
                    x = new.get(c, 0) - a * v
                    if x != 0:
                        new[c] = x
                    else:
                        new.pop(c, None)
            row = reduce(new)
    return pivots


def _primitive(row: dict) -> dict:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _integer_row(row) -> dict:
    """The primitive integer dict row spanning the same line as a row of
    rationals (ints or Fractions), given as a dict or a list: one lcm of the
    denominators per row, zero entries dropped.  A primitive dict row of
    nonzero ints is returned as it is."""
    if not isinstance(row, dict) or not all(row.values()):
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: v for c, v in pairs if v}
    if not all(type(v) is int for v in row.values()):
        row = _integral(row)[0]
    return _primitive(row)


def rational_rank(rows) -> int:
    """Rank over Q of a matrix given as rows of Fractions/ints, each a list
    or a {column: value} dict."""
    return len(_echelon(map(_integer_row, rows), _primitive))

