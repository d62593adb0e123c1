"""Tests for plane-partition enumeration and point-scheme tangent spaces."""

import itertools
import os
import pickle
import random
from fractions import Fraction

import pytest

from oracles import (
    axis_permutation_orbits,
    height_matrix_partitions,
    matrix_rank,
    module_hom_dimension,
    monomial_hom_dimension,
    staircase_generators,
)
from conesign import (
    BoundExceededError,
    IdealPresentation,
    InfiniteColengthError,
    ModuleVector,
    PlanePartition,
    Polynomial,
    buchberger,
    colength,
    enumerate_plane_partitions,
    ideal,
    monomial_ideal_of,
    parity_scan,
    quot_tangent_dimension,
    ring,
    tangent_dimension_hilb,
)
import conesign.hilb
import conesign.ideals
from conesign.groebner import _Divider
from conesign.hilb import _worker_count
from conesign.linalg import rational_rank
from conesign.poly import degrevlex

R3 = ring("x, y, z")

UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mono(e):
    return Polynomial.from_monomial(R3, e)


# ------------------------------------------------------------- enumeration


def test_partition_counts_against_independent_enumerator():
    expected = {1: 1, 2: 3, 3: 6, 4: 13, 5: 24, 6: 48, 7: 86, 8: 160}
    for n, count in expected.items():
        oracle = height_matrix_partitions(n)
        assert len(oracle) == count
        parts = enumerate_plane_partitions(n)
        assert len(parts) == count
        assert {p.boxes for p in parts} == oracle


def test_enumeration_order_is_sorted_and_stable():
    parts = enumerate_plane_partitions(3)
    keys = [p.sorted_boxes() for p in parts]
    assert keys == sorted(keys)
    again = enumerate_plane_partitions(3)
    assert [p.boxes for p in again] == [p.boxes for p in parts]


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_plane_partitions(0)
    with pytest.raises(BoundExceededError):
        enumerate_plane_partitions(9)
    with pytest.raises(BoundExceededError):
        enumerate_plane_partitions(4, bound=3)


# ---------------------------------------------------------- PlanePartition


def test_partition_rejects_gaps():
    # a gap along each axis, and a box closed below along y but not along x
    gaps = [{(0, 0, 0), (2, 0, 0)}, {(1, 0, 0)}, {(0, 0, 0), (0, 2, 0)},
            {(0, 0, 0), (0, 0, 2)}, {(0, 0, 0), (1, 0, 0), (1, 1, 0)}]
    for boxes in gaps:
        with pytest.raises(ValueError, match="not downward closed"):
            PlanePartition(frozenset(boxes))


def permuted(p: PlanePartition, perm) -> PlanePartition:
    """p with box coordinate i read from slot perm[i] of each box."""
    return PlanePartition(frozenset(tuple(b[perm[i]] for i in range(3)) for b in p.boxes))


def test_partition_rejects_bad_boxes():
    with pytest.raises(ValueError):
        PlanePartition(frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        PlanePartition(frozenset({(0, 0, -1)}))
    # a coordinate must be an int, not a bool, a float or a string, and a
    # box a sequence of three
    for box in [(0.0, 0, 0), (False, 0, 0), (0, True, 0), (0, 0, "0"), 5, (0, 0), [0, 0, -1]]:
        with pytest.raises(ValueError, match="bad box"):
            PlanePartition([box])


def test_partition_round_trips_through_its_json():
    # JSON gives each box back as a list
    for n in range(1, 7):
        for p in enumerate_plane_partitions(n):
            assert PlanePartition(p.to_json_dict()["boxes"]) == p


def test_partition_stores_its_boxes_as_one_frozenset():
    # a repeated box counts once, and a partition built from a list or a
    # set hashes like the one built from the frozenset
    twice = PlanePartition([(0, 0, 0), (0, 0, 0)])
    assert twice.size == 1
    assert twice.to_json_dict() == {"boxes": [[0, 0, 0]]}
    assert colength(monomial_ideal_of(twice)) == 1
    boxes = {(0, 0, 0), (1, 0, 0), (0, 1, 0)}
    p = PlanePartition(frozenset(boxes))
    for q in (PlanePartition(boxes), PlanePartition(sorted(boxes))):
        assert type(q.boxes) is frozenset
        assert q == p and hash(q) == hash(p)


def test_partition_permutation_and_json():
    p = PlanePartition(frozenset({(0, 0, 0), (1, 0, 0)}))
    q = permuted(p, (2, 0, 1))
    assert q.boxes == frozenset({(0, 0, 0), (0, 1, 0)})
    assert p.to_json_dict() == {"boxes": [[0, 0, 0], [1, 0, 0]]}
    assert p.sorted_boxes() == [(0, 0, 0), (1, 0, 0)]
    assert p.size == 2


def test_a_plane_partition_survives_pickling_and_stays_checked():
    # a parity scan with more than one worker pickles partitions to its
    # processes, which rebuild them through the checks
    for p in enumerate_plane_partitions(4):
        q = pickle.loads(pickle.dumps(p))
        assert type(q) is PlanePartition and q == p and hash(q) == hash(p)
    gap = tuple.__new__(PlanePartition, (frozenset({(1, 0, 0)}),))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(gap))
    with pytest.raises(AttributeError):
        PlanePartition(frozenset()).boxes = frozenset({(0, 0, 0)})


# --------------------------------------------------------- monomial ideals


def gens_of(I):
    return {g.to_text() for g in I.generators}


def test_ideal_of_the_origin_box():
    p = PlanePartition(frozenset({(0, 0, 0)}))
    assert gens_of(monomial_ideal_of(p)) == {"x", "y", "z"}


def test_ideal_of_the_first_infinitesimal_neighborhood():
    p = PlanePartition(frozenset({(0, 0, 0)}) | frozenset(UNIT))
    assert gens_of(monomial_ideal_of(p)) == {
        "x^2", "y^2", "z^2", "x*y", "x*z", "y*z",
    }


def test_ideal_of_a_column():
    p = PlanePartition(frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0)}))
    assert gens_of(monomial_ideal_of(p)) == {"x^3", "y", "z"}


def test_minimal_generators_match_staircase_oracle():
    for n in range(1, 5):
        for p in enumerate_plane_partitions(n):
            want = staircase_generators(p.boxes)
            got = sorted(next(iter(g.terms))
                         for g in monomial_ideal_of(p).generators)
            assert got == want


def test_monomial_ideals_carry_their_reduced_basis(monkeypatch):
    # the minimal generators are the reduced basis under every order: no
    # Buchberger run gives it, and it is the one a run from scratch gives,
    # in order; the empty partition gives the unit ideal
    parts = [PlanePartition(frozenset())]
    parts += [p for n in range(1, 8) for p in enumerate_plane_partitions(n)]
    ideals = [monomial_ideal_of(p) for p in parts]

    def refused(*args, **kwargs):
        raise AssertionError("a Buchberger run for a monomial ideal")

    monkeypatch.setattr(conesign.ideals, "buchberger", refused)
    carried = [I.gb() for I in ideals]
    monkeypatch.undo()
    for I, G in zip(ideals, carried):
        assert list(G) == buchberger(I.generators, degrevlex(R3))
    assert ideals[0].is_unit_ideal()


def test_colength_matches_partition_size():
    for n in range(1, 6):
        for p in enumerate_plane_partitions(n):
            assert colength(monomial_ideal_of(p)) == n


# --------------------------------------------------------- tangent spaces


def test_tangent_at_a_single_point():
    rep = tangent_dimension_hilb(ideal(R3, "x, y, z"))
    assert rep.colength == 1
    assert rep.tangent_dim == 3
    assert rep.parity_holds
    assert rep.rank == 1


def test_tangent_at_the_squared_maximal_ideal():
    rep = tangent_dimension_hilb(ideal(R3, "x^2, y^2, z^2, xy, xz, yz"))
    assert rep.colength == 4
    assert rep.tangent_dim == 18
    assert rep.parity_holds


def test_tangent_at_every_small_colength():
    for n, want in [(2, 6), (3, 9)]:
        for p in enumerate_plane_partitions(n):
            rep = tangent_dimension_hilb(monomial_ideal_of(p))
            assert rep.tangent_dim == want
            assert rep.parity_holds


def test_tangent_matches_truncation_oracle_through_colength_three():
    for n in range(1, 4):
        for p in enumerate_plane_partitions(n):
            I = monomial_ideal_of(p)
            exps = [next(iter(g.terms)) for g in I.generators]
            want = monomial_hom_dimension(exps)
            assert tangent_dimension_hilb(I).tangent_dim == want


def test_tangent_at_moved_monomial_ideals_matches_truncation_oracle():
    # permuted and translated to a point off the origin, the reduced basis
    # is no longer monomial, so the syzygies take the embedding route
    rnd = random.Random(5)
    for n in range(1, 4):
        for p in enumerate_plane_partitions(n):
            exps = [next(iter(g.terms)) for g in monomial_ideal_of(p).generators]
            want = monomial_hom_dimension(exps)
            point = [rnd.choice((-1, 1)) for _ in range(3)]
            q = permuted(p, rnd.sample(range(3), 3))
            moved = IdealPresentation(
                R3, [g.translate(point) for g in monomial_ideal_of(q).generators])
            assert any(len(g.terms) > 1 for g in moved.gb())
            rep = tangent_dimension_hilb(moved)
            assert (rep.colength, rep.tangent_dim) == (n, want)


def test_tangent_respects_coordinate_permutations():
    for n in range(1, 6):
        for p in enumerate_plane_partitions(n):
            base = tangent_dimension_hilb(monomial_ideal_of(p)).tangent_dim
            for perm in itertools.permutations(range(3)):
                q = permuted(p, perm)
                rep = tangent_dimension_hilb(monomial_ideal_of(q))
                assert rep.tangent_dim == base


def test_parity_for_all_monomial_ideals_up_to_six():
    for n in range(1, 7):
        for p in enumerate_plane_partitions(n):
            assert tangent_dimension_hilb(monomial_ideal_of(p)).parity_holds


def test_parity_for_a_homogeneous_non_monomial_ideal():
    rep = tangent_dimension_hilb(ideal(R3, "x^2 + y^2, x*y, z"))
    assert rep.colength == 4
    assert rep.tangent_dim == 12
    assert rep.parity_holds


def test_tangent_rejects_infinite_colength():
    with pytest.raises(InfiniteColengthError):
        tangent_dimension_hilb(ideal(R3, "x"))


def test_tangent_rejects_finite_characteristic():
    R7 = ring("x, y, z", 7)
    with pytest.raises(ValueError):
        tangent_dimension_hilb(ideal(R7, "x, y, z"))


def test_tangent_system_divides_each_term_once(monkeypatch):
    # one division setup per computation, which divides each term once
    built, divided = [], []
    init, remainder = _Divider.__init__, _Divider.remainder

    def counted_init(self, basis, order):
        built.append(basis)
        init(self, basis, order)

    def counted(self, packed):
        divided.extend(packed)
        return remainder(self, packed)

    monkeypatch.setattr(_Divider, "__init__", counted_init)
    monkeypatch.setattr(_Divider, "remainder", counted)
    boxes = {(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (1, 1, 0),
             (0, 0, 1), (0, 2, 0)}
    I = monomial_ideal_of(PlanePartition(frozenset(boxes)))
    rep = tangent_dimension_hilb(I)
    assert (rep.colength, rep.tangent_dim) == (8, 32)
    assert len(built) == 1
    assert divided and len(divided) == len(set(divided))
    zero = Polynomial.zero(R3)
    K = [ModuleVector((g, zero)) for g in I.generators]
    K += [ModuleVector((zero, mono(e))) for e in UNIT]
    divided.clear()
    assert quot_tangent_dimension(K, 2).colength == 9
    assert len(built) == 2
    assert divided and len(divided) == len(set(divided))


# ------------------------------------------- graded non-monomial points


def graded_point(d, forms, seed):
    """m^(d+1) + (forms seeded integer forms of degree d) in Q[x, y, z]."""
    rnd = random.Random(seed)
    degree = lambda k: [e for e in itertools.product(range(k + 1), repeat=3) if sum(e) == k]
    gens = [mono(e) for e in degree(d + 1)]
    gens += [Polynomial(R3, {e: rnd.randint(-3, 3) for e in degree(d)}) for _ in range(forms)]
    return IdealPresentation(R3, gens)


def linearly_changed(I, seed):
    """I under the substitution x_i -> sum_j A_ij x_j for a seeded invertible
    integer matrix A."""
    rnd = random.Random(seed)
    A = [[0] * 3]
    while matrix_rank(A) < 3:
        A = [[rnd.randint(-2, 2) for _ in range(3)] for _ in range(3)]
    X = [Polynomial.variable(R3, j) for j in range(3)]
    lin = [sum((a * x for a, x in zip(row, X)), Polynomial.zero(R3)) for row in A]

    def substituted(g):
        out = Polynomial.zero(R3)
        for e, c in g.terms.items():
            t = Polynomial.constant(R3, c)
            for form, k in zip(lin, e):
                t = t * form**k
            out = out + t
        return out

    return IdealPresentation(R3, [substituted(g) for g in I.generators])


# (d, number of forms, seed, colength, tangent dimension)
GRADED_POINTS = [(3, 3, 1, 17, 81), (3, 1, 2, 19, 123), (4, 9, 3, 26, 108),
                 (4, 6, 4, 29, 141)]


@pytest.mark.parametrize("d, forms, seed, n, tangent", GRADED_POINTS,
                         ids=[f"colength-{case[3]}" for case in GRADED_POINTS])
def test_tangent_at_graded_non_monomial_points(d, forms, seed, n, tangent):
    I = graded_point(d, forms, seed)
    assert any(len(g.terms) > 1 for g in I.gb())
    moved = [linearly_changed(I, seed)]
    if n < 20:
        # translated, the ideal carries no grading at all
        moved.append(IdealPresentation(R3, [g.translate((1, -2, 1)) for g in I.generators]))
    for J in [I] + moved:
        rep = tangent_dimension_hilb(J)
        assert (rep.colength, rep.tangent_dim) == (n, tangent)


def test_tangent_rows_reach_the_rank_as_integers(monkeypatch):
    # the divisors are primitive integer term dicts and each syzygy's
    # equations are scaled to clear the multipliers of its remainders, so
    # no row of a tangent system holds a Fraction
    seen = []

    def rank(rows):
        rows = list(rows)
        seen.append(rows)
        return rational_rank(rows)

    monkeypatch.setattr(conesign.hilb, "rational_rank", rank)
    boxes = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)}
    I = monomial_ideal_of(PlanePartition(frozenset(boxes)))
    x, y, z = (Polynomial.variable(R3, v) for v in "xyz")
    zero, half = Polynomial.zero(R3), Polynomial.constant(R3, Fraction(1, 2))
    K = [ModuleVector((g, zero)) for g in ideal(R3, "x^2 + 3*y^2, x*y, z").generators]
    K += [ModuleVector((zero, x - half * y)), ModuleVector((zero, y * y)),
          ModuleVector((zero, z)), ModuleVector((y, 2 * z))]
    cases = [(tangent_dimension_hilb, (I,), 5, 15),
             (tangent_dimension_hilb, (I.translate((1, -2, Fraction(1, 3))),), 5, 15),
             (tangent_dimension_hilb, (graded_point(3, 3, 1),), 17, 81),
             (quot_tangent_dimension, (K, 2), 4, 20)]
    for compute, args, n, tangent in cases:
        seen.clear()
        rep = compute(*args)
        assert (rep.colength, rep.tangent_dim) == (n, tangent)
        assert len(seen) == 1 and seen[0]
        assert all(type(v) is int for row in seen[0] for v in row.values())


# ------------------------------------------------------------ parity scan


def test_scan_at_four_points():
    summary = parity_scan(4)
    assert summary.n == 4
    assert summary.count == 13
    assert summary.violations == ()
    assert summary.max_tangent == 18
    # the maximum sits at the squared maximal ideal
    parts = enumerate_plane_partitions(4)
    square = frozenset({(0, 0, 0)} | set(UNIT))
    (idx,) = [i for i, p in enumerate(parts) if p.boxes == square]
    assert summary.rows[idx].tangent_dim == 18
    assert [r.partition_id for r in summary.rows] == list(range(13))


def test_scan_at_one_point():
    summary = parity_scan(1)
    assert summary.count == 1
    assert summary.rows[0].tangent_dim == 3


def test_scan_parallel_matches_serial():
    serial = parity_scan(3, jobs=1)
    parallel = parity_scan(3, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_scan_pool_is_clamped_to_cores_and_tasks():
    # only the size is computed; no pool is started
    cores = os.cpu_count() or 1
    assert _worker_count(1, 160) == 1
    assert _worker_count(10**6, 160) == min(cores, 160)
    assert _worker_count(10**6, 3) == min(cores, 3)
    assert _worker_count(4, 0) == 1
    for bad in (0, -2):
        with pytest.raises(ValueError):
            _worker_count(bad, 160)


def test_scan_json_row_schema():
    doc = parity_scan(2).to_json_dict()
    assert doc["count"] == 3
    assert doc["violations"] == []
    for row in doc["rows"]:
        assert set(row) == {"partition_id", "n", "tangent_dim", "parity"}


def test_scan_respects_bounds():
    with pytest.raises(BoundExceededError):
        parity_scan(4, bound=3)


def test_scan_rows_match_the_tangent_routine_through_eight():
    for n in range(1, 9):
        parts = enumerate_plane_partitions(n)
        summary = parity_scan(n)
        assert [(r.tangent_dim, r.parity) for r in summary.rows] == [
            (rep.tangent_dim, rep.parity_holds)
            for rep in (tangent_dimension_hilb(monomial_ideal_of(p)) for p in parts)]


def test_scan_rows_match_the_hom_oracle_through_four():
    for n in range(1, 5):
        parts = enumerate_plane_partitions(n)
        assert [r.tangent_dim for r in parity_scan(n).rows] == [
            monomial_hom_dimension(staircase_generators(p.boxes)) for p in parts]


def test_scan_groups_partitions_into_their_axis_permutation_orbits(monkeypatch):
    # a worker that returns its call number labels each row with the orbit
    # the scan put it in
    calls = itertools.count()
    monkeypatch.setattr(conesign.hilb, "_scan_worker", lambda p: next(calls))
    counts = []
    for n in range(1, 9):
        groups = {}
        for p, row in zip(enumerate_plane_partitions(n), parity_scan(n).rows):
            groups.setdefault(row.tangent_dim, set()).add(p.boxes)
        assert {frozenset(g) for g in groups.values()} == axis_permutation_orbits(n)
        counts.append(len(groups))
    assert counts == [1, 1, 2, 4, 6, 11, 19, 33]


def test_scan_computes_one_tangent_per_orbit(monkeypatch):
    seen = []
    work = conesign.hilb._scan_worker

    def counting(p):
        seen.append(p.boxes)
        return work(p)

    monkeypatch.setattr(conesign.hilb, "_scan_worker", counting)
    summary = parity_scan(8, jobs=1)
    assert summary.count == 160 and len(seen) == 33
    # one computation in each orbit, at its first partition in enumeration
    # order
    order = [p.boxes for p in enumerate_plane_partitions(8)]
    assert set(seen) == {min(orbit, key=order.index)
                         for orbit in axis_permutation_orbits(8)}


@pytest.mark.parametrize("n, count", [(9, 282), (10, 500)])
def test_scan_past_the_default_bound(n, count):
    summary = parity_scan(n, bound=n)
    assert summary.count == count
    assert summary.violations == ()


def test_enumeration_does_not_check_the_partitions_it_grows(monkeypatch):
    grown = {n: enumerate_plane_partitions(n) for n in range(1, 7)}

    def refuse(cls, boxes):
        raise AssertionError("a grown partition was checked again")

    # the checks run in __new__, which a grown partition bypasses
    monkeypatch.setattr(PlanePartition, "__new__", refuse)
    for n, parts in grown.items():
        assert enumerate_plane_partitions(n) == parts
    monkeypatch.undo()
    for parts in grown.values():
        for p in parts:
            assert PlanePartition(p.boxes) == p
            assert hash(PlanePartition(p.boxes)) == hash(p)


# ------------------------------------------------------------ quot spaces


def test_quot_full_maximal_ideal_in_both_slots():
    oracle = module_hom_dimension(
        [(pos, e) for pos in (0, 1) for e in UNIT], 2
    )
    assert oracle == 12
    zero = Polynomial.zero(R3)
    K = [ModuleVector((mono(e), zero)) for e in UNIT]
    K += [ModuleVector((zero, mono(e))) for e in UNIT]
    rep = quot_tangent_dimension(K, 2)
    assert rep.colength == 2
    assert rep.tangent_dim == 12
    assert rep.parity_holds
    assert rep.rank == 2


def test_quot_one_free_slot_killed():
    oracle = module_hom_dimension([(1, (0, 0, 0))] + [(0, e) for e in UNIT], 2)
    assert oracle == 4
    zero = Polynomial.zero(R3)
    one = Polynomial.one(R3)
    K = [ModuleVector((zero, one))]
    K += [ModuleVector((mono(e), zero)) for e in UNIT]
    rep = quot_tangent_dimension(K, 2)
    assert rep.colength == 1
    assert rep.tangent_dim == 4
    assert rep.parity_holds


def test_quot_rank_one_agrees_with_the_ideal_route():
    # the ideal route packs an ideal's basis at rank 0, the Quot route at
    # rank 1: monomial, permuted, translated and graded inputs meet both
    samples = [ideal(R3, "x, y, z"), ideal(R3, "x^2, y, z"),
               ideal(R3, "x^2 + y^2, x*y, z"), graded_point(3, 3, 1)]
    rnd = random.Random(7)
    for p in enumerate_plane_partitions(3):
        point = [rnd.choice((-1, 1)) for _ in range(3)]
        samples.append(monomial_ideal_of(p))
        samples.append(monomial_ideal_of(permuted(p, rnd.sample(range(3), 3))))
        samples.append(monomial_ideal_of(p).translate(point))
    for I in samples:
        direct = tangent_dimension_hilb(I)
        lifted = quot_tangent_dimension(
            [ModuleVector((g,)) for g in I.generators], 1
        )
        assert lifted.tangent_dim == direct.tangent_dim
        assert lifted.colength == direct.colength


def test_quot_of_direct_sums_matches_truncation_oracle():
    parts = [p for n in (1, 2) for p in enumerate_plane_partitions(n)]
    zero = Polynomial.zero(R3)
    for a, b in itertools.combinations_with_replacement(parts, 2):
        gens = [(pos, next(iter(g.terms)))
                for pos, p in enumerate((a, b))
                for g in monomial_ideal_of(p).generators]
        K = []
        for pos, e in gens:
            comps = [zero, zero]
            comps[pos] = mono(e)
            K.append(ModuleVector(tuple(comps)))
        rep = quot_tangent_dimension(K, 2)
        assert rep.colength == a.size + b.size
        assert rep.tangent_dim == module_hom_dimension(gens, 2)


def test_quot_rejects_infinite_colength():
    with pytest.raises(InfiniteColengthError):
        quot_tangent_dimension([ModuleVector((mono((1, 0, 0)),))], 1)
    with pytest.raises(InfiniteColengthError):
        quot_tangent_dimension([ModuleVector((Polynomial.zero(R3),))], 1)


@pytest.mark.parametrize("rank", [1, 3])
def test_quot_rejects_vectors_of_another_rank(rank):
    zero = Polynomial.zero(R3)
    K = [ModuleVector((mono(e), zero)) for e in UNIT]
    K += [ModuleVector((zero, mono(e))) for e in UNIT]
    with pytest.raises(ValueError, match=f"rank 2 given for rank {rank}"):
        quot_tangent_dimension(K, rank)


def test_quot_rejects_finite_characteristic():
    R7 = ring("x, y, z", 7)
    K = [ModuleVector((g,)) for g in ideal(R7, "x, y, z").generators]
    with pytest.raises(ValueError, match="over Q only"):
        quot_tangent_dimension(K, 1)


def test_report_json_shape():
    doc = tangent_dimension_hilb(ideal(R3, "x, y, z")).to_json_dict()
    assert doc == {
        "colength": 1, "tangent_dim": 3, "parity_holds": True, "rank": 1,
    }
