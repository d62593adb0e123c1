"""Tests for Behrend-function values and the constancy falsifier."""

import itertools
import random
from collections import Counter

import pytest

from test_cli_fuzz import COUNT, SEED, ideal_files

import conesign.behrend
from conesign import (
    BoundExceededError,
    ConesignError,
    DegenerateDrawError,
    EuUnsupportedError,
    IdealPresentation,
    PointNotOnVarietyError,
    PrimalityUndecidedError,
    behrend_value,
    constancy_falsifier,
    contains_ideal,
    dimension,
    dominating_cone_multiplicity,
    eu_point,
    generic_tangent_dimension,
    ideal,
    is_point_on,
    minimal_primes,
    ring,
    transplant,
)
from conesign.cli import load_ideal_file

R1 = ring("x")
R2 = ring("x, y")
R3 = ring("x, y, z")
R4 = ring("x, y, z, w")

# smooth connected schemes of dimensions 0 through 3
SMOOTH = [
    (ideal(R2, "x, y"), [(0, 0)], 0),
    (ideal(R2, "y - x^2"), [(0, 0), (2, 4), (-1, 1)], 1),
    (ideal(R3, "x^2 + y^2 + z^2 - 1"), [(1, 0, 0), (0, 0, -1)], 2),
    (ideal(R3, "z"), [(0, 0, 0), (5, -2, 0)], 2),
    (ideal(R4, "w - x^2 - y^2 - z^2"), [(0, 0, 0, 0), (1, 1, 1, 3)], 3),
]


def same_ideal(A, B):
    return contains_ideal(A, B) and contains_ideal(B, A)


# ------------------------------------------------------------ point values


def test_double_point_line_values():
    J = ideal(R2, "y^2, x*y")
    assert behrend_value(J, (0, 0)).value == 1
    for p in [(1, 0), (-1, 0), (2, 0), (5, 0), (-3, 0)]:
        assert behrend_value(J, p).value == -1


def test_three_axes_values():
    J = ideal(R3, "xy, xz, yz")
    assert behrend_value(J, (0, 0, 0)).value == -1
    assert behrend_value(J, (1, 0, 0)).value == -1
    assert behrend_value(J, (0, -2, 0)).value == -1


def test_smooth_schemes_take_dimension_parity_values():
    for J, points, d in SMOOTH:
        assert dimension(J) == d
        for p in points:
            assert behrend_value(J, p).value == (-1) ** d


def test_value_off_the_scheme_is_an_error():
    with pytest.raises(PointNotOnVarietyError):
        behrend_value(ideal(R2, "y^2, x*y"), (0, 1))


def test_uncertified_component_primality_is_an_error():
    tc = ideal(R3, "y - x^2, z - x^3")
    with pytest.raises(PrimalityUndecidedError):
        behrend_value(tc, (1, 1, 1))


# -------------------------------------------------------- split integrity


def test_split_on_double_point_line():
    J = ideal(R2, "y^2, x*y")
    ev = behrend_value(J, (0, 0))
    # irreducible support of dimension 1 with a multiplicity-1 dominating cone
    assert ev.dominant_total == (-1) ** 1 * eu_point(
        ideal(R2, "y"), (0, 0)
    ).value * 1
    assert ev.contracted_total == 2
    assert ev.value == ev.dominant_total + ev.contracted_total

    away = behrend_value(J, (1, 0))
    assert away.dominant_total == -1
    assert away.contracted_total == 0


def test_split_on_three_axes():
    # reducible scheme: no cone component maps onto the whole of it, so
    # everything lands in the contracted bucket
    ev = behrend_value(ideal(R3, "xy, xz, yz"), (0, 0, 0))
    assert ev.dominant_total == 0
    assert ev.contracted_total == -1


def test_split_covers_every_contribution():
    for J, points, _ in SMOOTH:
        for p in points:
            ev = behrend_value(J, p)
            assert ev.value == ev.dominant_total + ev.contracted_total
            assert ev.value == sum(signed for _, _, signed in ev.breakdown)


def test_evaluation_json_shape():
    doc = behrend_value(ideal(R2, "y^2, x*y"), (0, 0)).to_json_dict()
    assert doc["value"] == 1
    assert doc["split"] == {"dominant": -1, "contracted": 2}
    assert len(doc["contributions"]) == 2


# ------------------------------------------- dominating cone multiplicity


def test_dominating_multiplicity_of_smooth_components():
    assert dominating_cone_multiplicity(ideal(R2, "x, y"), ideal(R2, "x, y")) == 1
    assert dominating_cone_multiplicity(ideal(R2, "y"), ideal(R2, "y")) == 1
    sphere = ideal(R3, "x^2 + y^2 + z^2 - 1")
    assert dominating_cone_multiplicity(sphere, sphere) == 1


def test_fat_point_is_caught_upstream_not_here():
    # the cone is taken of the reduced component, so m stays 1; the
    # multiplicity-2 flag lives on the component record instead
    J = ideal(R1, "x^2")
    comp = minimal_primes(J)[0]
    assert comp.multiplicity == 2
    assert dominating_cone_multiplicity(J, comp.prime) == 1


def test_dominating_multiplicity_along_the_axis():
    assert dominating_cone_multiplicity(
        ideal(R2, "y^2, x*y"), ideal(R2, "y")
    ) == 1


def test_dominating_multiplicity_rejects_non_components():
    with pytest.raises(ValueError):
        dominating_cone_multiplicity(ideal(R2, "x*y"), ideal(R2, "x - 1"))


# ------------------------------------------------------------- falsifier


def test_falsifier_passes_three_axes_with_odd_sign():
    cert = constancy_falsifier(ideal(R3, "xy, xz, yz"), sign=-1)
    assert cert.overall == "necessary conditions hold"
    assert cert.sign == -1
    assert not cert.sign_inferred
    assert len(cert.reports) == 3
    assert all(r.verdict == "pass" for r in cert.reports)
    assert cert.witnesses == ()


def test_falsifier_catches_mixed_parity_components():
    # plane union line: dimensions 2 and 1 cannot share a sign
    cert = constancy_falsifier(ideal(R3, "x*y, x*z"))
    assert cert.overall == "Behrend function is NOT constant"
    assert [r.verdict for r in cert.reports] == ["pass", "violation"]
    assert any("parity" in w["reason"] for w in cert.witnesses)


def test_falsifier_catches_non_reduced_components():
    cert = constancy_falsifier(ideal(R1, "x^2"))
    assert cert.overall == "Behrend function is NOT constant"
    assert any("generically reduced" in w["reason"] for w in cert.witnesses)


def test_falsifier_catches_a_dominating_cone_of_multiplicity_above_1(monkeypatch):
    # a stand-in that gives every axis a double dominating cone: each report
    # carries that reason, the witnesses repeat it, and the verdict is definite
    monkeypatch.setattr(conesign.behrend, "dominating_cone_multiplicity", lambda J, P: 2)
    cert = constancy_falsifier(ideal(R3, "xy, xz, yz"))
    reason = "dominating cone multiplicity is 2, not 1"
    assert [r.reasons for r in cert.reports] == [(reason,)] * 3
    assert [w["reason"] for w in cert.witnesses] == [reason] * 3
    assert cert.overall == "Behrend function is NOT constant"


def test_falsifier_necessary_is_not_sufficient():
    # every necessary condition holds here, yet the pointwise values differ
    J = ideal(R2, "y^2, x*y")
    cert = constancy_falsifier(J)
    assert cert.overall == "necessary conditions hold"
    assert behrend_value(J, (0, 0)).value != behrend_value(J, (1, 0)).value


def test_falsifier_passes_smooth_corpus():
    for J, _, d in SMOOTH:
        cert = constancy_falsifier(J)
        assert cert.overall == "necessary conditions hold"
        assert cert.sign == (-1) ** d
        assert cert.sign_inferred


def test_falsifier_explicit_sign_mismatch_on_a_smooth_line():
    cert = constancy_falsifier(ideal(R2, "y"), sign=1)
    assert cert.overall == "Behrend function is NOT constant"
    assert cert.sign == 1


def test_falsifier_rejects_bad_signs():
    # the unit ideal has no component, and the sign is checked all the same
    for J in (ideal(R2, "y"), ideal(R2, "1")):
        for sign in (2, 0, 5):
            with pytest.raises(ValueError):
                constancy_falsifier(J, sign=sign)


def test_falsifier_inconclusive_on_uncertified_primality():
    cert = constancy_falsifier(ideal(R3, "y - x^2, z - x^3"))
    assert cert.overall == "inconclusive"
    assert cert.sign_inferred


def test_certificate_json_schema():
    doc = constancy_falsifier(ideal(R3, "xy, xz, yz"), sign=-1).to_json_dict()
    assert set(doc) == {
        "sign", "sign_inferred", "components", "overall", "witnesses",
    }
    assert doc["sign"] == -1
    assert doc["overall"] == "necessary conditions hold"
    for comp in doc["components"]:
        assert comp["verdict"] == "pass"
        assert comp["reasons"] == []
        assert comp["dominating_cone_mult"] == 1


def test_component_report_derives_its_flags_from_its_component():
    # a reduced plane, a line of the wrong parity, and a double point
    for J in (ideal(R3, "x*y, x*z"), ideal(R1, "x^2")):
        for r in constancy_falsifier(J).reports:
            c, doc = r.component, r.to_json_dict()
            assert doc["generically_reduced"] == (c.multiplicity == 1)
            assert doc["dim_Z"] == c.dimension
            assert doc["sign_dim"] == (-1) ** c.dimension
            assert doc["sign_tangent"] == (-1) ** r.generic_tangent_dim
            assert r.verdict == doc["verdict"] == ("violation" if r.reasons else "pass")
    (double,) = constancy_falsifier(ideal(R1, "x^2")).reports
    doc = double.to_json_dict()
    assert (doc["generically_reduced"], doc["dim_Z"], doc["sign_dim"]) == (False, 0, 1)


def test_certificate_witnesses_are_its_reasons_report_by_report():
    cert = constancy_falsifier(ideal(R3, "x*y, x*z"))
    expected = [{"component": list(r.component.prime.signature()), "reason": reason}
                for r in cert.reports for reason in r.reasons]
    assert len(expected) > 0
    assert list(cert.witnesses) == expected == cert.to_json_dict()["witnesses"]


# ----------------------------------------------------- generic route check


def test_two_routes_agree_at_sampled_points():
    cases = [
        (ideal(R2, "y^2, x*y"), ideal(R2, "y"), [(1, 0), (-2, 0)]),
        (ideal(R3, "xy, xz, yz"), ideal(R3, "y, z"), [(1, 0, 0), (4, 0, 0)]),
        (ideal(R2, "x*y"), ideal(R2, "x"), [(0, 1), (0, -3)]),
    ]
    for J, Z, points in cases:
        primes = [c.prime for c in minimal_primes(J)]
        assert Z in primes
        others = [P for P in primes if P != Z]
        general = (-1) ** dimension(Z) * dominating_cone_multiplicity(J, Z)
        for p in points:
            assert is_point_on(Z, p)
            # on no other minimal prime
            assert not any(is_point_on(P, p) for P in others)
            assert behrend_value(J, p).value == general


def test_two_routes_agree_on_smooth_corpus():
    for J, points, _ in SMOOTH:
        (comp,) = minimal_primes(J)
        general = (-1) ** comp.dimension * dominating_cone_multiplicity(J, comp.prime)
        for p in points:
            assert behrend_value(J, p).value == general


# -------------------------------------------------- embedding invariance


def test_value_survives_redundant_generators():
    cases = [
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
    for J, padded, points in cases:
        assert same_ideal(J, padded)
        for p in points:
            assert behrend_value(J, p).value == behrend_value(padded, p).value


def test_value_survives_an_extra_ambient_coordinate():
    R2w = ring("x, y, w")
    R3w = ring("x, y, z, w")
    cases = [
        (ideal(R2, "y^2, x*y"), ideal(R2w, "y^2, x*y, w"),
         [(0, 0), (1, 0)]),
        (ideal(R3, "xy, xz, yz"), ideal(R3w, "xy, xz, yz, w"),
         [(0, 0, 0), (1, 0, 0)]),
        # lifted cone primes must stay within the certifiable classes
        (ideal(R2, "x*y"), ideal(R2w, "x*y, w"),
         [(0, 0), (0, 1)]),
    ]
    for J, lifted, points in cases:
        for p in points:
            assert (
                behrend_value(J, p).value
                == behrend_value(lifted, p + (0,)).value
            )


# ---------------------------------------------------------- theorem ties

# the paper's ideals: axes, fat, pair, mixed, double, cubic and cusp
PAPER = [ideal(R3, "x*y, x*z, y*z"), ideal(R3, "x^2, x*y, x*z, y*z"), ideal(R2, "y^2, x*y"),
         ideal(R3, "x*y, x*z"), ideal(R1, "x^2"), ideal(R3, "x^3 + y^3 + z^3"),
         ideal(R2, "y^2 - x^3")]
# the errors with which a computation abstains
UNDECIDED = (PrimalityUndecidedError, EuUnsupportedError, BoundExceededError,
             DegenerateDrawError)


def times_a_line(J):
    """J in a ring with one more variable t, which it leaves free: Y x A^1."""
    rng = ring(", ".join(J.ring.variables + ("t",)))
    return IdealPresentation(rng, tuple(transplant(g, rng) for g in J.generators))


def test_falsifier_numbers_obey_the_theorems_that_tie_them(tmp_path):
    # For a certified prime Z of V(J):
    # (a) multiplicity 1 means J is reduced at the generic point of Z, which
    #     in characteristic 0 means smooth there, so by the Jacobian
    #     criterion the generic tangent dimension is dim Z, and otherwise
    #     larger;
    # (b) Z is generically smooth, and there its normal cone is the normal
    #     bundle, so a decided dominating cone multiplicity is 1;
    # and for every scheme Y, (c) nu on Y x A^1 at (p, t) is -nu_Y(p), as the
    # Behrend function is multiplicative and nu of A^1 is -1 (Behrend, Ann.
    # of Math. 170, 2009, section 1), wherever both sides decide
    schemes = [(J, 2) for J in PAPER]
    for i, text in enumerate(ideal_files(SEED, COUNT)):
        path = tmp_path / f"fuzz{i}.ideal"
        path.write_text(text, encoding="utf-8")
        try:
            schemes.append((load_ideal_file(str(path), 0, 16), 1))
        except (ConesignError, ValueError):
            continue  # not well formed
    rnd = random.Random(0)
    reached = Counter()
    for J, npoints in schemes:
        try:
            comps = minimal_primes(J)
        except PrimalityUndecidedError:
            comps = []
        for c in comps:
            if c.primality != "certified":
                continue
            reduced = c.multiplicity == 1
            assert reduced == (generic_tangent_dimension(J, c.prime) == c.dimension), J
            reached["a", reduced] += 1
            try:
                m = dominating_cone_multiplicity(J, c.prime)
            except PrimalityUndecidedError:
                continue
            assert m == 1, J
            reached["b"] += 1
        points = [p for p in itertools.product((0, 1, -1), repeat=J.ring.arity)
                  if is_point_on(J, p)]
        for p in points[:npoints]:
            t = rnd.randint(-2, 2)
            try:
                nu = behrend_value(J, p).value
                nu_product = behrend_value(times_a_line(J), p + (t,)).value
            except UNDECIDED:
                continue
            assert nu_product == -nu, (J, p, t)
            reached["c"] += 1
    # every tie is met, and (a) on both sides
    assert set(reached) == {("a", True), ("a", False), "b", "c"}
