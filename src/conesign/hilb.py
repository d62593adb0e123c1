"""Hilbert and Quot scheme of points: enumeration and tangent spaces.

Plane partitions (finite downward-closed box sets in three coordinates)
index the monomial ideals of finite colength.  The tangent space at a
finite-colength submodule K of R^r (a point of a Quot scheme) is
Hom(K, R^r/K).  One routine computes it, as the nullspace of the linear
system that a generating set of syzygies of K's reduced Groebner basis cuts
out.  It takes everything from one `groebner._Divider`, an ideal's own
division by its reduced basis or one built on a submodule's basis: the
standard terms, the syzygies and the remainders, all as
the engine's packed terms, which it treats as opaque ints whose product is
their sum.  It also checks, once for Hilb and Quot, that the quotient is
finite, the coefficients are rational and the basis has the rank asked for.
The Hilbert scheme is its rank-1 case: an ideal I enters as its own reduced
basis, packed as polynomials.  A monomial ideal of a plane partition
arrives with its minimal generators as that basis, so it needs no
Buchberger run.

The system is about 2% nonzero, so its rows are {column: value} dicts from
the start, and `linalg` eliminates them as such.  Over Q the divisors are
primitive integer term dicts: the syzygies are integer, and each term that
a row needs is divided once per computation, fraction-free, and its
remainder kept with its multiplier.  Each syzygy's equations are scaled by
the lcm of the multipliers they meet, so every row is an integer row and no
`Fraction` is built in the system.
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import itemgetter

from .errors import BoundExceededError, InfiniteColengthError
from .groebner import _Divider, _syzygies, module_buchberger
from .ideals import IdealPresentation
from .linalg import rational_rank
from .poly import Polynomial, degrevlex, ring

_DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# the largest partition size enumerated unless a bound is given
_MAX_N = 8
_AXIS_PERMUTATIONS = tuple(itemgetter(*axes) for axes in permutations(range(3)))
# the ring of every plane partition's monomial ideal
_XYZ = ring("x, y, z")
_ONE = Fraction(1)


def _closed_below(b, boxes) -> bool:
    """Whether every b − e_i with b_i > 0 is one of the boxes."""
    x, y, z = b
    return ((not x or (x - 1, y, z) in boxes)
            and (not y or (x, y - 1, z) in boxes)
            and (not z or (x, y, z - 1) in boxes))


class PlanePartition(namedtuple("PlanePartition", "boxes")):
    """Downward-closed finite set of boxes in N^3."""

    __slots__ = ()

    def __new__(cls, boxes):
        # tuples in a set, so a box read back from JSON as a list hashes, a
        # repeated box counts once and the partition hashes
        boxes = [tuple(b) if isinstance(b, (tuple, list)) else b for b in boxes]
        for b in boxes:
            if type(b) is not tuple or len(b) != 3 or any(type(c) is not int or c < 0 for c in b):
                raise ValueError(f"bad box {b!r}")
        boxes = frozenset(boxes)
        for b in boxes:
            if not _closed_below(b, boxes):
                raise ValueError(f"box set is not downward closed at {b!r}")
        return tuple.__new__(cls, (boxes,))

    @classmethod
    def _grown(cls, boxes: frozenset) -> "PlanePartition":
        """A partition from a box set that is downward closed by
        construction, so it is not checked again."""
        return tuple.__new__(cls, (boxes,))

    @property
    def size(self) -> int:
        return len(self.boxes)

    def sorted_boxes(self) -> list:
        return sorted(self.boxes)

    def to_json_dict(self) -> dict:
        return {"boxes": [list(b) for b in self.sorted_boxes()]}


def _outer_corners(boxes) -> list:
    """The boxes that can be added to a plane partition, which are the
    exponents of its monomial ideal's minimal generators: each b + e_i
    outside the boxes and closed below, or the origin when there are none."""
    if not boxes:
        return [(0, 0, 0)]
    corners = {(b[0] + d[0], b[1] + d[1], b[2] + d[2]) for b in boxes for d in _DIRECTIONS}
    return [m for m in corners if m not in boxes and _closed_below(m, boxes)]


def enumerate_plane_partitions(n: int, bound: int = _MAX_N) -> list:
    """All plane partitions of size n, sorted by their box lists."""
    if n < 1:
        raise ValueError("partition size must be positive")
    if n > bound:
        raise BoundExceededError(
            f"partition size {n} exceeds the configured bound {bound}")
    # each box set of a level with its outer corners.  Adding corner m keeps
    # the other corners, which stay outside and closed below, and can open
    # only the boxes m + e_i, the only ones whose closure below needs m
    level = {frozenset(): [(0, 0, 0)]}
    for _ in range(n):
        grown = {}
        for boxes, corners in level.items():
            for m in corners:
                bigger = boxes | {m}
                if bigger in grown:
                    continue
                grown[bigger] = [c for c in corners if c != m] + [
                    b for b in ((m[0] + d[0], m[1] + d[1], m[2] + d[2]) for d in _DIRECTIONS)
                    if _closed_below(b, bigger)]
        level = grown
    return [PlanePartition._grown(boxes) for boxes in sorted(level, key=sorted)]


def monomial_ideal_of(p: PlanePartition) -> IdealPresentation:
    """The monomial ideal of k[x, y, z] whose standard monomials are the
    partition's boxes, given with its reduced basis: its minimal generators,
    the outer corners of the partition, sorted by ascending degrevlex lead.
    The minimal generators of a monomial ideal are its reduced basis under
    every order."""
    gens = sorted(_outer_corners(p.boxes), key=degrevlex(_XYZ).key)
    return IdealPresentation.from_reduced_basis(
        _XYZ, [Polynomial(_XYZ, {m: _ONE}, normalize=False) for m in gens])


class TangentReport(namedtuple("TangentReport", "colength tangent_dim parity_holds rank")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"colength": self.colength, "tangent_dim": self.tangent_dim,
                "parity_holds": self.parity_holds, "rank": self.rank}


def tangent_dimension_hilb(I: IdealPresentation) -> TangentReport:
    """dim Hom(I, R/I) for a finite-colength ideal, with the parity check:
    the rank-1 case of `quot_tangent_dimension`, on the reduced basis."""
    return _tangent_report(I._division(), 1)


ScanRow = namedtuple("ScanRow", "partition_id n tangent_dim parity")


class ScanSummary(namedtuple("ScanSummary", "n count rows violations max_tangent")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "violations": list(self.violations),
            "max_tangent": self.max_tangent,
            "rows": [{"partition_id": r.partition_id, "n": r.n,
                      "tangent_dim": r.tangent_dim, "parity": r.parity}
                     for r in self.rows],
        }


def _scan_worker(p: PlanePartition) -> int:
    return tangent_dimension_hilb(monomial_ideal_of(p)).tangent_dim


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for `tasks` scan tasks: `jobs`, clamped to the cores and
    the tasks, so a large request never starts more processes than can run."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def parity_scan(n: int, jobs: int = 1, bound: int = _MAX_N) -> ScanSummary:
    """Tangent dimensions and parity over every monomial ideal of colength n.

    Permuting x, y and z is an automorphism of A^3, so partitions in one
    orbit under it have the same tangent dimension: it is computed once per
    orbit, at the orbit's first partition in enumeration order, and read
    back for every row.  The first partition of an orbit registers its six
    axis-permuted box sets under the orbit's number, so each later one finds
    its orbit by one lookup of its own box set.
    """
    parts = enumerate_plane_partitions(n, bound=bound)
    orbit_of = {}
    firsts = []
    orbits = []
    for p in parts:
        orbit = orbit_of.get(p.boxes)
        if orbit is None:
            orbit = len(firsts)
            firsts.append(p)
            for swap in _AXIS_PERMUTATIONS:
                orbit_of[frozenset(map(swap, p.boxes))] = orbit
        orbits.append(orbit)
    workers = _worker_count(jobs, len(firsts))
    if workers > 1:
        # imported only here, so start-up does not pay for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            orbit_dims = list(pool.map(_scan_worker, firsts))
    else:
        orbit_dims = [_scan_worker(p) for p in firsts]
    dims = [orbit_dims[orbit] for orbit in orbits]
    rows = []
    violations = []
    for i, t in enumerate(dims):
        parity = (n - t) % 2 == 0
        rows.append(ScanRow(partition_id=i, n=n, tangent_dim=t, parity=parity))
        if not parity:
            violations.append(i)
    return ScanSummary(n=n, count=len(parts), rows=tuple(rows),
                       violations=tuple(violations),
                       max_tangent=max(dims) if dims else 0)


# ---------------------------------------------------------------------------
# Quot scheme of points: rank r >= 1
# ---------------------------------------------------------------------------


def quot_tangent_dimension(vectors, rank: int) -> TangentReport:
    """dim Hom(K, R^rank/K) for a finite-colength submodule K of R^rank,
    with the parity check against rank * colength."""
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        raise InfiniteColengthError("zero submodule has infinite colength")
    order = degrevlex(vectors[0].ring)
    return _tangent_report(_Divider(module_buchberger(vectors, order), order), rank)


def _tangent_report(divide: _Divider, rank: int) -> TangentReport:
    """dim Hom(K, R^rank/K), given the division by the reduced Groebner
    basis of K; an ideal's basis stands for K in R^1.

    A homomorphism is pinned down by the images of the basis elements in
    R^rank/K, as combinations of the standard terms; each syzygy among the
    basis elements imposes one linear condition per term of the quotient.
    The tangent dimension is the nullity of these conditions.  Terms are
    the engine's packed ints, whose product is their sum.
    """
    std = divide.standard_terms()
    if divide.ring.characteristic:
        raise ValueError("tangent computation implemented over Q only")
    if (divide.pk.rank or 1) != rank:
        raise ValueError(f"vectors of rank {divide.pk.rank} given for rank {rank}")
    n, k = len(std), len(divide.lts)
    # each term is divided once: its remainder is that of a multiple lam of
    # it, an integer term dict over Q, kept with lam
    remainder = functools.cache(lambda term: divide.remainder({term: 1}))
    rows = []
    for s in _syzygies(divide):
        # one equation per quotient term, unknowns the coordinates of phi(g_j);
        # the syzygy's equations are scaled by the lcm of the multipliers
        # they meet, so every entry is an integer.  A term in K has remainder
        # 0 and meets no equation, so it makes no part and its multiplier
        # does not enter the scale
        parts = [(j * n + bi, c, rem, lam)
                 for j, a in enumerate(s) for t, c in a.items()
                 for bi, m in enumerate(std)
                 for rem, lam in (remainder(t + m),) if rem]
        scale = lcm(*{lam for *_, lam in parts})
        per_target = {}
        for col, c, rem, lam in parts:
            c *= scale // lam
            for target, d in rem.items():
                row = per_target.setdefault(target, {})
                x = row.get(col, 0) + c * d
                if x:
                    row[col] = x
                else:
                    del row[col]
        rows.extend(per_target.values())
    tangent = k * n - rational_rank(rows)
    return TangentReport(colength=n, tangent_dim=tangent,
                         parity_holds=(rank * n - tangent) % 2 == 0, rank=rank)
