"""Acceptance suite: one test and one printed pass line per criterion.

Every check here is exact (integer or symbolic equality); the timed
criteria assert their wall-clock budgets as well.
"""

import random
import time
from fractions import Fraction

from oracles import height_matrix_partitions, monomial_hom_dimension
from conesign import (
    IdealPresentation,
    Polynomial,
    behrend_value,
    cone_components,
    constancy_falsifier,
    degrevlex,
    dimension,
    enumerate_plane_partitions,
    eu_point,
    ideal,
    monomial_ideal_of,
    parity_scan,
    ring,
    tangent_dimension_hilb,
)
from conesign.groebner import _Divider, _syzygies

R1 = ring("x")
R2 = ring("x, y")
R3 = ring("x, y, z")
R4 = ring("x, y, z, w")

SMOOTH_CORPUS = [
    # (scheme, dimension, three sampled rational points)
    (ideal(R2, "x, y"), 0, [(0, 0), (0, 0), (0, 0)]),
    (ideal(R2, "y - x^2"), 1, [(0, 0), (1, 1), (-2, 4)]),
    (ideal(R3, "z"), 2, [(0, 0, 0), (1, 2, 0), (-1, 5, 0)]),
    (ideal(R3, "x^2 + y^2 + z^2 - 1"), 2,
     [(1, 0, 0), (0, 1, 0), (Fraction(3, 5), Fraction(4, 5), 0)]),
    (ideal(R4, "w - x^2 - y^2 - z^2"), 3,
     [(0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 3)]),
]

GB_CORPUS = [
    ideal(R2, "x, y"),
    ideal(R2, "y^2, x*y"),
    ideal(R2, "y - x^2"),
    ideal(R2, "x^2 - y, x^3 - x"),
    ideal(R3, "xy, xz, yz"),
    ideal(R3, "x*z - y^2, x*z - y*z"),
    ideal(R3, "x^2 + y^2 + z^2 - 1, x - y"),
]


def test_criterion_1_embedded_point_example():
    t0 = time.perf_counter()
    J = ideal(R2, "y^2, x*y")
    assert behrend_value(J, (0, 0)).value == 1
    for p in [(1, 0), (-1, 0), (2, 0), (-3, 0), (5, 0)]:
        assert behrend_value(J, p).value == -1
    comps = cone_components(J)
    assert sorted((c.multiplicity, c.dominates) for c in comps) == [
        (1, True), (2, False),
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 1] PASS embedded-point example ({elapsed:.2f}s < 1s)")


def test_criterion_2_three_axes_example():
    t0 = time.perf_counter()
    J = ideal(R3, "xy, xz, yz")
    comps = cone_components(J)
    assert sorted(c.multiplicity for c in comps) == [1, 1, 1, 2]
    images = sorted(
        tuple(sorted(g.to_text() for g in c.image.gb())) for c in comps
    )
    assert images == [
        ("x", "y"), ("x", "y", "z"), ("x", "z"), ("y", "z"),
    ]
    assert behrend_value(J, (0, 0, 0)).value == -1
    assert behrend_value(J, (1, 0, 0)).value == -1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 2] PASS three-axes example ({elapsed:.2f}s < 5s)")


def test_criterion_3_smooth_law():
    dims = set()
    for J, d, points in SMOOTH_CORPUS:
        assert dimension(J) == d
        dims.add(d)
        assert len(points) == 3
        for p in points:
            assert behrend_value(J, p).value == (-1) ** d
    assert len(SMOOTH_CORPUS) == 5
    assert dims == {0, 1, 2, 3}
    print("[criterion 3] PASS smooth law on five schemes of dimensions 0..3")


def test_criterion_4_hilb4_tangent():
    t0 = time.perf_counter()
    rep = tangent_dimension_hilb(ideal(R3, "x^2, y^2, z^2, xy, xz, yz"))
    assert rep.colength == 4
    assert rep.tangent_dim == 18
    assert rep.parity_holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 4] PASS colength-4 tangent is 18 ({elapsed:.2f}s < 10s)")


def test_criterion_5_monomial_parity_sweep():
    t0 = time.perf_counter()
    expected_counts = {1: 1, 2: 3, 3: 6, 4: 13, 5: 24, 6: 48}
    for n, count in expected_counts.items():
        oracle = height_matrix_partitions(n)
        assert len(oracle) == count
        summary = parity_scan(n, jobs=4)
        assert summary.count == count
        assert {p.boxes for p in enumerate_plane_partitions(n)} == oracle
        assert summary.violations == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"[criterion 5] PASS parity sweep n=1..6, zero violations "
          f"({elapsed:.2f}s < 300s)")


def test_criterion_6_falsifier_contrapositives():
    refuted = constancy_falsifier(ideal(R1, "x^2"))
    assert refuted.overall == "Behrend function is NOT constant"

    mixed = constancy_falsifier(ideal(R3, "x*y, x*z"))
    assert mixed.overall == "Behrend function is NOT constant"

    axes = constancy_falsifier(ideal(R3, "xy, xz, yz"), sign=-1)
    assert axes.overall == "necessary conditions hold"

    for J, _, _ in SMOOTH_CORPUS:
        assert constancy_falsifier(J).overall == "necessary conditions hold"
    print("[criterion 6] PASS falsifier contrapositives and clean passes")


def test_criterion_7_obstruction_rule_consistency():
    for d in range(1, 7):
        g = (d - 1) * (d - 2) // 2
        assert d * (2 - d) == 2 - 2 * g - d
    verdict = eu_point(ideal(R3, "x^3 + y^3 + z^3"), (0, 0, 0))
    assert verdict.value == -3
    print("[criterion 7] PASS rule agreement d=1..6 and cubic-cone vertex -3")


def test_criterion_8_truncation_oracle_equivalence():
    checked = 0
    for n in range(1, 4):
        for p in enumerate_plane_partitions(n):
            I = monomial_ideal_of(p)
            exps = [next(iter(g.terms)) for g in I.generators]
            want = monomial_hom_dimension(exps)
            assert tangent_dimension_hilb(I).tangent_dim == want
            checked += 1
    assert checked == 10
    print("[criterion 8] PASS tangent matches the truncation oracle on all "
          "10 ideals of colength <= 3")


def test_criterion_9_property_suites():
    # reduced basis is independent of generator order
    rng = random.Random(20240819)
    for I in GB_CORPUS:
        base = [g.to_text() for g in I.gb()]
        for _ in range(20):
            shuffled = list(I.generators)
            rng.shuffle(shuffled)
            again = IdealPresentation(I.ring, shuffled)
            assert [g.to_text() for g in again.gb()] == base

    # Schreyer syzygies of the reduced basis contract to zero against the
    # divisors they are stated for
    for I in GB_CORPUS:
        divide = _Divider(I.gb(), degrevlex(I.ring))
        unpack = divide.pk.unpack
        for syz in _syzygies(divide):
            total = Polynomial.zero(I.ring)
            for a, g in zip(syz, divide.divisors):
                total = total + Polynomial(I.ring, unpack(a)) * Polynomial(I.ring, unpack(g))
            assert total.is_zero()

    # normal form is a projection
    for I in GB_CORPUS:
        divide = I._division()
        one = Polynomial.one(I.ring)
        samples = [g * g + g + one for g in I.generators]
        samples += [a * b for a in I.generators for b in I.generators]
        for f in samples:
            nf = divide(f.terms)
            assert divide(nf) == nf

    # the value is blind to redundant presentations of the same scheme
    pairs = [
        (ideal(R2, "y^2, x*y"),
         ideal(R2, "y^2, x*y, x^2*y, y^3"),
         [(0, 0), (1, 0)]),
        (ideal(R3, "xy, xz, yz"),
         ideal(R3, "xy, xz, yz, x*y*z, x^2*y + x*z^2"),
         [(0, 0, 0), (1, 0, 0)]),
        (ideal(R2, "y - x^2"),
         ideal(R2, "y - x^2, x*y - x^3"),
         [(0, 0), (2, 4)]),
    ]
    for J, padded, points in pairs:
        for p in points:
            assert behrend_value(J, p).value == behrend_value(padded, p).value
    print("[criterion 9] PASS property suites (basis uniqueness, syzygy "
          "contraction, projection, presentation invariance)")
