"""Hilbert and Quot scheme of points: enumeration and tangent spaces.

Plane partitions (finite downward-closed box sets in three coordinates)
index the monomial ideals of finite colength; the tangent space at an
ideal I is Hom(I, R/I), computed as the nullspace of the linear system
cut out by a generating set of syzygies.  The same construction runs at
module level for Quot schemes of a free module (rank r >= 1).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BoundExceededError, InfiniteColengthError
from .groebner import (
    ModuleOrder,
    ModuleVector,
    module_buchberger,
    module_normal_form,
    normal_form,
    syzygy_basis,
    module_syzygies,
)
from .ideals import IdealPresentation, standard_monomials
from .linalg import nullity
from .poly import Polynomial, RingDescriptor, degrevlex, ring

_DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class PlanePartition:
    """Downward-closed finite set of boxes in N^3."""

    boxes: frozenset

    def __post_init__(self):
        for b in self.boxes:
            if len(b) != 3 or any(c < 0 for c in b):
                raise ValueError(f"bad box {b!r}")
            for i in range(3):
                if b[i] > 0:
                    pred = tuple(c - 1 if j == i else c
                                 for j, c in enumerate(b))
                    if pred not in self.boxes:
                        raise ValueError(
                            f"box set is not downward closed at {b!r}")

    @property
    def size(self) -> int:
        return len(self.boxes)

    def sorted_boxes(self) -> list:
        return sorted(self.boxes)

    def permuted(self, perm) -> "PlanePartition":
        return PlanePartition(frozenset(tuple(b[perm[i]] for i in range(3))
                                        for b in self.boxes))

    def to_json_dict(self) -> dict:
        return {"boxes": [list(b) for b in self.sorted_boxes()]}


def enumerate_plane_partitions(n: int, bound: int = 8) -> list:
    """All plane partitions of size n, sorted by their box lists."""
    if n < 1:
        raise ValueError("partition size must be positive")
    if n > bound:
        raise BoundExceededError(
            f"partition size {n} exceeds the configured bound {bound}")
    level = {frozenset({(0, 0, 0)})}
    for _ in range(n - 1):
        grown = set()
        for boxes in level:
            for b in boxes:
                for d in _DIRECTIONS:
                    cand = (b[0] + d[0], b[1] + d[1], b[2] + d[2])
                    if cand in boxes:
                        continue
                    ok = True
                    for i in range(3):
                        if cand[i] > 0:
                            pred = tuple(c - 1 if j == i else c
                                         for j, c in enumerate(cand))
                            if pred not in boxes:
                                ok = False
                                break
                    if ok:
                        grown.add(boxes | {cand})
        level = grown
    parts = [PlanePartition(boxes) for boxes in level]
    parts.sort(key=lambda p: p.sorted_boxes())
    return parts


def monomial_ideal_of(p: PlanePartition,
                      rng: RingDescriptor | None = None) -> IdealPresentation:
    """The monomial ideal whose standard monomials are the partition's boxes."""
    rng = rng if rng is not None else ring("x, y, z")
    if rng.arity != 3:
        raise ValueError("plane partitions live in three variables")
    caps = [max((b[i] for b in p.boxes), default=0) + 2 for i in range(3)]
    gens = []
    for m in itertools.product(*(range(c) for c in caps)):
        if m in p.boxes:
            continue
        minimal = True
        for i in range(3):
            if m[i] > 0:
                pred = tuple(c - 1 if j == i else c for j, c in enumerate(m))
                if pred not in p.boxes:
                    minimal = False
                    break
        if minimal:
            gens.append(Polynomial.from_monomial(rng, m))
    return IdealPresentation(rng, gens)


@dataclass(frozen=True)
class TangentReport:
    colength: int
    tangent_dim: int
    parity_holds: bool
    rank: int = 1

    def to_json_dict(self) -> dict:
        return {"colength": self.colength, "tangent_dim": self.tangent_dim,
                "parity_holds": self.parity_holds, "rank": self.rank}


def tangent_dimension_hilb(I: IdealPresentation) -> TangentReport:
    """dim Hom(I, R/I) for a finite-colength ideal, with the parity check.

    A homomorphism is pinned down by the images of the reduced basis
    elements in R/I; each syzygy among them imposes one linear condition
    per standard monomial.  The tangent dimension is the nullity.
    """
    if I.ring.characteristic != 0:
        raise ValueError("tangent computation implemented over Q only")
    order = degrevlex(I.ring)
    std = standard_monomials(I, order)
    n = len(std)
    gens = list(I.gb(order))
    k = len(gens)
    syzygies = syzygy_basis(gens, order)
    rows = []
    for s in syzygies:
        # one equation per standard monomial, unknowns phi(g_j) coordinates
        per_target = {}
        for j, a in enumerate(s.components):
            if a.is_zero():
                continue
            for bi, b in enumerate(std):
                prod = normal_form(a * Polynomial.from_monomial(I.ring, b),
                                   gens, order)
                for m, c in prod.terms.items():
                    row = per_target.setdefault(m, [0] * (k * n))
                    row[j * n + bi] += c
        rows.extend(per_target.values())
    tangent = nullity(rows, k * n)
    parity = (n - tangent) % 2 == 0
    return TangentReport(colength=n, tangent_dim=tangent, parity_holds=parity)


@dataclass(frozen=True)
class ScanRow:
    partition_id: int
    n: int
    tangent_dim: int
    parity: bool


@dataclass(frozen=True)
class ScanSummary:
    n: int
    count: int
    rows: tuple
    violations: tuple
    max_tangent: int

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


def _scan_worker(boxes) -> int:
    p = PlanePartition(frozenset(tuple(b) for b in boxes))
    return tangent_dimension_hilb(monomial_ideal_of(p)).tangent_dim


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size for `tasks` scan tasks: `jobs`, clamped to the cores and
    the tasks, so a large request never starts more processes than can run."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def parity_scan(n: int, jobs: int = 1, bound: int = 8) -> ScanSummary:
    """Tangent dimensions and parity over every monomial ideal of colength n."""
    parts = enumerate_plane_partitions(n, bound=bound)
    payloads = [tuple(p.sorted_boxes()) for p in parts]
    workers = _worker_count(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            dims = list(pool.map(_scan_worker, payloads))
    else:
        dims = [_scan_worker(b) for b in payloads]
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


def _module_lead(v: ModuleVector, morder: ModuleOrder):
    d = v.to_dict()
    return max(d, key=morder.key)


def standard_module_monomials(mgb, rank: int, morder: ModuleOrder) -> list:
    """Basis (position, monomial) of R^rank / K below the leading module."""
    if not mgb:
        raise InfiniteColengthError("free module has infinite colength")
    arity = mgb[0].ring.arity
    leads = {}
    for v in mgb:
        pos, m = _module_lead(v, morder)
        leads.setdefault(pos, []).append(m)
    out = []
    for pos in range(rank):
        lts = leads.get(pos, [])
        if any(sum(m) == 0 for m in lts):
            continue
        caps = [None] * arity
        for m in lts:
            sup = [i for i, e in enumerate(m) if e]
            if len(sup) == 1:
                i = sup[0]
                if caps[i] is None or m[i] < caps[i]:
                    caps[i] = m[i]
        if any(c is None for c in caps):
            raise InfiniteColengthError(
                f"quotient has infinite colength at position {pos}")
        for m in itertools.product(*(range(c) for c in caps)):
            if not any(all(l[j] <= m[j] for j in range(arity)) for l in lts):
                out.append((pos, m))
    out.sort(key=morder.key)
    return out


def quot_tangent_dimension(vectors, rank: int) -> TangentReport:
    """dim Hom(K, R^rank/K) for a finite-colength submodule K of R^rank.

    Same construction as the ideal case one level up: unknowns are the
    images of the module basis elements, constraints come from a
    generating set of module syzygies.  Parity compares against
    rank * colength.
    """
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        raise InfiniteColengthError("zero submodule has infinite colength")
    rng = vectors[0].ring
    if rng.characteristic != 0:
        raise ValueError("tangent computation implemented over Q only")
    order = degrevlex(rng)
    morder = ModuleOrder(order, "top")
    mgb = module_buchberger(vectors, morder)
    std = standard_module_monomials(mgb, rank, morder)
    n = len(std)
    k = len(mgb)
    syzygies = module_syzygies(mgb, order)
    rows = []
    zero = Polynomial.zero(rng)
    for s in syzygies:
        per_target = {}
        for j, a in enumerate(s.components):
            if a.is_zero():
                continue
            for bi, (pos, m) in enumerate(std):
                comps = [zero] * rank
                comps[pos] = a * Polynomial.from_monomial(rng, m)
                nf = module_normal_form(ModuleVector(tuple(comps)), mgb, morder)
                for target, c in nf.to_dict().items():
                    row = per_target.setdefault(target, [0] * (k * n))
                    row[j * n + bi] += c
        rows.extend(per_target.values())
    tangent = nullity(rows, k * n)
    parity = (rank * n - tangent) % 2 == 0
    return TangentReport(colength=n, tangent_dim=tangent,
                         parity_holds=parity, rank=rank)
