"""Exact linear algebra over Q used by tangent-space and rank computations.

One forward-elimination routine serves both entry points: the rank is its
pivot count, and a linear combination is solved for by eliminating the
augmented transpose and back-substituting.
"""

from __future__ import annotations

from fractions import Fraction


def _echelon(m, ncols: int) -> list:
    """Row-echelon form of the Fraction rows `m`, in place, choosing pivots
    among the first `ncols` columns; whole rows are eliminated, so columns
    beyond them ride along.  Returns the pivot columns; row i holds the
    pivot at column pivots[i]."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        mp = m[row]
        pv = mp[col]
        width = len(mp)
        for r in range(row + 1, len(m)):
            mr = m[r]
            if mr[col]:
                factor = mr[col] / pv
                for c in range(col, width):
                    mr[c] -= factor * mp[c]
        pivots.append(col)
    return pivots


def rational_rank(rows) -> int:
    """Rank of a matrix given as a list of rows of Fractions/ints."""
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_echelon(m, len(m[0]))) if m else 0


def solve_combination(vectors, target):
    """Coefficients writing target as a combination of vectors, or None.

    All entries are Fractions; vectors is a list of equal-length rows.  When
    the vectors are dependent, the coefficients of the non-pivot vectors are 0.
    """
    k = len(vectors)
    # augmented transpose: unknowns are the combination coefficients
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(target[i])]
            for i in range(len(target))]
    pivots = _echelon(rows, k)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for row, c in reversed(list(zip(rows, pivots))):
        coeffs[c] = (row[k] - sum(row[j] * coeffs[j] for j in range(c + 1, k))) / row[c]
    return coeffs
