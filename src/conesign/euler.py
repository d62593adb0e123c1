"""Rule-based local Euler obstruction at rational points.

Covered cases: points off the variety, nonsingular points, points on
integral curves (Hilbert-Samuel multiplicity), and vertices of cones over
smooth projective curves.  Anything else raises EuUnsupportedError: a wrong
value here would silently corrupt every Behrend evaluation downstream.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .errors import (
    BoundExceededError,
    DegenerateDrawError,
    EuUnsupportedError,
    PointNotOnVarietyError,
    PrimalityUndecidedError,
)
from .ideals import (
    IdealPresentation,
    _certify_prime,
    _lead_series,
    colength,
    dimension,
    is_point_on,
    jacobian,
    tangent_dimension_at_point,
)
from .poly import Polynomial

# the Hilbert-Samuel and hyperplane-section loops stop before this power of
# the maximal ideal
_CAP = 40
# hyperplanes drawn by `curve_multiplicity` before it gives up
_DRAWS = 5


class EuVerdict(namedtuple("EuVerdict", [
        "value",      # an int
        "rule",       # outside | nonsingular | curve-multiplicity |
                      # plane-cone | aluffi-cone
        "primality"])):  # certified | assumed
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"value": self.value, "rule": self.rule,
                "primality": self.primality}


def _maximal_ideal_power(rng, k: int) -> list:
    out = []
    for combo in itertools.combinations_with_replacement(range(rng.arity), k):
        mono = [0] * rng.arity
        for i in combo:
            mono[i] += 1
        out.append(Polynomial.from_monomial(rng, tuple(mono)))
    return out


def _origin_colength(I: IdealPresentation, k: int) -> int:
    return colength(I.with_extra(_maximal_ideal_power(I.ring, k)))


def _tangent_cone_degree(J0: IdealPresentation) -> int:
    """Multiplicity at the origin via stabilized Hilbert-Samuel differences.
    J0 lies in the maximal ideal m, so J0 + m = m has colength 1."""
    lengths = [0, 1]
    diffs = []
    for k in range(2, _CAP):
        lengths.append(_origin_colength(J0, k))
        diffs.append(lengths[-1] - lengths[-2])
        if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
            return diffs[-1]
    raise BoundExceededError("Hilbert-Samuel differences did not stabilize")


def _hyperplane_section_length(J0: IdealPresentation, line: Polynomial) -> int | None:
    """Colength at the origin of J0 + (line); None if it never stabilizes.
    J0 and the line lie in the maximal ideal m, so K + m = m has colength 1."""
    K = J0.with_extra((line,))
    prev = 1
    for N in range(2, _CAP):
        cur = _origin_colength(K, N)
        if cur == prev:
            return cur
        prev = cur
    return None


def curve_multiplicity(V: IdealPresentation, point, seed: int = 0) -> int:
    """Multiplicity of an integral curve at a point on it.

    Two independent computations must agree: the degree of the tangent cone
    (stabilized Hilbert-Samuel differences) and the local intersection
    length with a random hyperplane through the point.  Degenerate draws
    are retried with fresh coefficients.
    """
    if dimension(V) != 1:
        raise ValueError("curve multiplicity requested on a non-curve")
    point = tuple(V.ring.coeff(c) for c in point)
    if not is_point_on(V, point):
        raise PointNotOnVarietyError("point is not on the curve")
    J0 = V.translate(point)
    expected = _tangent_cone_degree(J0)
    rng = random.Random(seed)
    for _ in range(_DRAWS):
        coeffs = [rng.randint(-9, 9) for _ in range(V.ring.arity)]
        if all(c == 0 for c in coeffs):
            continue
        line = Polynomial(V.ring, {
            tuple(1 if j == i else 0 for j in range(V.ring.arity)):
            V.ring.coeff(c)
            for i, c in enumerate(coeffs) if c != 0})
        got = _hyperplane_section_length(J0, line)
        if got == expected:
            return expected
    raise DegenerateDrawError(
        "hyperplane sections kept disagreeing with the tangent-cone degree")


def _poly_minors(rows, size: int) -> list:
    """All size x size minors of a polynomial matrix."""

    def det(sub) -> Polynomial:
        if len(sub) == 1:
            return sub[0][0]
        total = None
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            piece = sub[0][j] * det(minor)
            if j % 2:
                piece = -piece
            total = piece if total is None else total + piece
        return total

    out = []
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for ri in itertools.combinations(range(nrows), size):
        for ci in itertools.combinations(range(ncols), size):
            sub = [[rows[r][c] for c in ci] for r in ri]
            out.append(det(sub))
    return out


def cone_over_curve_data(V: IdealPresentation, vertex):
    """(degree, genus) when V is the cone over a smooth projective curve
    with the given vertex; None otherwise.

    The cone test is homogeneity of the reduced basis after moving the
    vertex to the origin; smoothness of the projectivization is the
    Jacobian criterion (singular locus at most the vertex); the genus is
    read off the Hilbert polynomial, valid because smoothness was
    certified first.
    """
    n = V.ring.arity
    if n < 3:
        return None
    J0 = V.translate(vertex)
    gb = J0.gb()
    if not all(g.is_homogeneous() for g in gb):
        return None
    Q, D = _lead_series(J0)
    if D != 2:
        return None
    rows = jacobian(IdealPresentation(J0.ring, gb))
    if len(rows) < n - 2:
        return None
    minors = [m for m in _poly_minors(rows, n - 2) if not m.is_zero()]
    sing = J0.with_extra(minors)
    if dimension(sing) > 0:
        return None
    # the Hilbert polynomial sum_i q_i * binomial(s - i + 1, 1) of a curve is
    # degree * s + 1 - genus; at s = 0 it is sum_i q_i * (1 - i)
    return sum(Q), 1 - sum(q * (1 - i) for i, q in enumerate(Q))


def eu_point(V: IdealPresentation, point, primality: str = "check",
             seed: int = 0) -> EuVerdict:
    """Local Euler obstruction of the integral variety V at a point.

    primality: "check" certifies V prime first (input that splits, being
    empty, reducible or not reduced, is a ValueError, uncertifiable input
    raises PrimalityUndecidedError);
    "certified"/"assumed" trust the caller and are recorded in the verdict.
    """
    if primality == "check":
        verdict = _certify_prime(V)
        if verdict == ("split", []):
            raise ValueError("variety is empty (the unit ideal); Euler "
                             "obstruction needs an integral variety")
        if verdict[0] == "split":
            raise ValueError("variety is not integral (reducible or not "
                             "reduced); Euler obstruction needs an integral "
                             "variety")
        if verdict[0] != "prime":
            raise PrimalityUndecidedError(
                "could not certify the variety prime; pass an explicit "
                "assumption to proceed")
        status = "certified"
    elif primality in ("certified", "assumed"):
        status = primality
    else:
        raise ValueError(f"unknown primality mode: {primality!r}")

    point = tuple(V.ring.coeff(c) for c in point)
    if not is_point_on(V, point):
        return EuVerdict(0, "outside", status)
    d = dimension(V)
    if tangent_dimension_at_point(V, point) == d:
        return EuVerdict(1, "nonsingular", status)
    if d == 1:
        return EuVerdict(curve_multiplicity(V, point, seed=seed),
                         "curve-multiplicity", status)
    if d == 2:
        data = cone_over_curve_data(V, point)
        if data is not None:
            degree, genus = data
            if V.ring.arity == 3:
                return EuVerdict(degree * (2 - degree), "plane-cone", status)
            return EuVerdict(2 - 2 * genus - degree, "aluffi-cone", status)
    raise EuUnsupportedError(
        "no implemented Euler-obstruction rule applies at this point")
