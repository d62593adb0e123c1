"""Tests for the rule-based local Euler obstruction evaluator."""

from fractions import Fraction

import pytest

from conesign import (
    EuUnsupportedError,
    PointNotOnVarietyError,
    PrimalityUndecidedError,
    cone_over_curve_data,
    curve_multiplicity,
    eu_point,
    ideal,
    ring,
    tangent_dimension_at_point,
)
from conesign.ideals import _lead_series

R2 = ring("x, y")
R3 = ring("x, y, z")
R4 = ring("x, y, z, w")


def lowest_form_degree(V, point):
    """Order of vanishing of a plane curve's equation at a point.

    Independent multiplicity check for principal ideals: translate the
    point to the origin and read off the smallest total degree.
    """
    (f,) = V.generators
    g = f.translate(tuple(Fraction(c) for c in point))
    return min(sum(mono) for mono in g.terms)


# ---------------------------------------------------------------- eu_point


def test_eu_nonsingular_point_on_parabola():
    v = eu_point(ideal(R2, "y - x^2"), (1, 1))
    assert v.value == 1
    assert v.rule == "nonsingular"
    assert v.primality == "certified"


def test_eu_cone_over_smooth_plane_cubic():
    # degree-3 cone vertex: 3 * (2 - 3)
    v = eu_point(ideal(R3, "x^3 + y^3 + z^3"), (0, 0, 0))
    assert v.value == -3
    assert v.rule == "plane-cone"


def test_eu_line_at_origin():
    v = eu_point(ideal(R2, "y"), (0, 0))
    assert v.value == 1
    assert v.rule == "nonsingular"


def test_eu_cuspidal_cubic_at_origin():
    V = ideal(R2, "y^2 - x^3")
    assert lowest_form_degree(V, (0, 0)) == 2
    v = eu_point(V, (0, 0))
    assert v.value == 2
    assert v.rule == "curve-multiplicity"


def test_translated_cusp_runs_no_more_groebner_bases_from_scratch(monkeypatch):
    # moving the cusp to (1, 1) carries its degrevlex basis along, so the
    # Hilbert-Samuel and hyperplane-section loops extend known bases there
    # as at the origin
    import conesign.ideals as ideals

    fresh = []
    buchberger = ideals.buchberger

    def counted(gens, order, *args, known=(), **kwargs):
        known = list(known)
        fresh.append(not known)
        return buchberger(gens, order, *args, known=known, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", counted)
    runs = {}
    for text, point in [("y^2 - x^3", (0, 0)), ("(y - 1)^2 - (x - 1)^3", (1, 1))]:
        fresh.clear()
        assert eu_point(ideal(R2, text), point).value == 2
        runs[point] = sum(fresh)
    assert runs[(1, 1)] <= runs[(0, 0)]


def test_eu_point_off_the_variety_is_zero():
    v = eu_point(ideal(R2, "y^2 - x^3"), (1, 2))
    assert v.value == 0
    assert v.rule == "outside"


def test_eu_rejects_reducible_input():
    with pytest.raises(ValueError):
        eu_point(ideal(R2, "x*y"), (0, 0))


def test_eu_rejects_unknown_primality_mode():
    with pytest.raises(ValueError):
        eu_point(ideal(R2, "y"), (0, 0), primality="trust-me")


def test_eu_verdict_json_shape():
    v = eu_point(ideal(R2, "y - x^2"), (1, 1))
    assert v.to_json_dict() == {
        "value": 1,
        "rule": "nonsingular",
        "primality": "certified",
    }


# ----------------------------------------------------- curve_multiplicity


def test_multiplicity_nodal_cubic():
    V = ideal(R2, "y^2 - x^2 - x^3")
    assert lowest_form_degree(V, (0, 0)) == 2
    assert curve_multiplicity(V, (0, 0)) == 2


def test_multiplicity_smooth_line_anywhere():
    V = ideal(R2, "y")
    for p in [(0, 0), (3, 0), (Fraction(-5, 2), 0)]:
        assert curve_multiplicity(V, p) == 1


def test_multiplicity_higher_order_cusp():
    V = ideal(R2, "y^2 - x^5")
    assert lowest_form_degree(V, (0, 0)) == 2
    assert curve_multiplicity(V, (0, 0)) == 2


def test_multiplicity_at_smooth_point_of_singular_curve():
    assert curve_multiplicity(ideal(R2, "y^2 - x^3"), (1, 1)) == 1


def test_multiplicity_positive_and_one_iff_nonsingular():
    cases = [
        (ideal(R2, "y^2 - x^3"), (0, 0)),
        (ideal(R2, "y^2 - x^3"), (4, 8)),
        (ideal(R2, "y^2 - x^2 - x^3"), (0, 0)),
        (ideal(R2, "y - x^2"), (2, 4)),
        (ideal(R3, "y - x^2, z - x^3"), (1, 1, 1)),
    ]
    for V, p in cases:
        m = curve_multiplicity(V, p)
        assert m >= 1
        smooth = tangent_dimension_at_point(V, p) == 1
        assert (m == 1) == smooth


def test_multiplicity_rejects_non_curves():
    with pytest.raises(ValueError):
        curve_multiplicity(ideal(R2, "x, y"), (0, 0))


def test_multiplicity_rejects_points_off_the_curve():
    with pytest.raises(PointNotOnVarietyError):
        curve_multiplicity(ideal(R2, "y^2 - x^3"), (1, 2))


def test_multiplicity_deterministic_for_a_seed():
    V = ideal(R2, "y^2 - x^2 - x^3")
    assert curve_multiplicity(V, (0, 0), seed=5) == curve_multiplicity(
        V, (0, 0), seed=5
    )


# --------------------------------------------------- cone_over_curve_data


def test_cone_data_quadric_cone():
    J = ideal(R3, "x*z - y^2")
    # the Hilbert polynomial 2s + 1 of a conic, which gives the genus 0
    assert _lead_series(J) == ((1, 1), 2)
    assert cone_over_curve_data(J, (0, 0, 0)) == (2, 0)


def test_cone_data_cubic_cone():
    d, g = cone_over_curve_data(ideal(R3, "x^3 + y^3 + z^3"), (0, 0, 0))
    assert (d, g) == (3, 1)
    assert g == (d - 1) * (d - 2) // 2


def test_cone_data_rejects_inhomogeneous_input():
    assert cone_over_curve_data(ideal(R3, "x*z - y^2 + x"), (0, 0, 0)) is None
    # two ambient variables cannot hold a cone over a projective curve
    assert cone_over_curve_data(ideal(R2, "y - x^2"), (0, 0)) is None
    # the unit ideal is homogeneous, but its empty scheme is no cone
    assert cone_over_curve_data(ideal(R3, "1"), (0, 0, 0)) is None


def test_cone_data_translated_vertex():
    # (x - 1)*z - y^2 is the quadric cone moved to vertex (1, 0, 0)
    J = ideal(R3, "x*z - z - y^2")
    assert cone_over_curve_data(J, (1, 0, 0)) == (2, 0)


def test_cone_data_rejects_cone_over_singular_curve():
    nodal = ideal(R3, "y^2*z - x^3 - x^2*z")
    assert cone_over_curve_data(nodal, (0, 0, 0)) is None


def test_cone_data_space_curve_cone():
    J = ideal(R4, "x*z - y^2, y*w - z^2, x*w - y*z")
    assert cone_over_curve_data(J, (0, 0, 0, 0)) == (3, 0)


# --------------------------------------------------------- rule agreement


def test_plane_cone_rule_matches_genus_rule_through_degree_six():
    for d in range(1, 7):
        g = (d - 1) * (d - 2) // 2
        assert d * (2 - d) == 2 - 2 * g - d


def test_plane_cone_values_through_degree_six():
    expected = {1: 1, 2: 0, 3: -3, 4: -8, 5: -15, 6: -24}
    for d, want in expected.items():
        v = eu_point(ideal(R3, f"x^{d} + y^{d} + z^{d}"), (0, 0, 0))
        assert v.value == want
        assert v.rule == ("nonsingular" if d == 1 else "plane-cone")


def test_degree_one_cone_is_a_plane():
    # every applicable rule degenerates to 1 on a hyperplane
    v = eu_point(ideal(R3, "x + y + z"), (0, 0, 0))
    assert v.value == 1
    assert v.rule == "nonsingular"
    assert 1 * (2 - 1) == 1 == 2 - 2 * 0 - 1


def test_eu_is_one_at_sampled_smooth_points():
    samples = [
        (ideal(R2, "y"), (5, 0), "check"),
        (ideal(R2, "y - x^2"), (3, 9), "check"),
        (ideal(R2, "x^2 + y^2 - 1"), (1, 0), "check"),
        (ideal(R2, "x^2 + y^2 - 1"), (Fraction(3, 5), Fraction(4, 5)), "check"),
        (ideal(R3, "x^2 + y^2 + z^2 - 1"), (1, 0, 0), "check"),
        (ideal(R3, "x*z - y^2"), (1, 1, 1), "check"),
        (ideal(R3, "x*z - y^2"), (4, 2, 1), "check"),
        (ideal(R3, "z"), (1, 2, 0), "check"),
        (ideal(R3, "y - x^2, z - x^3"), (2, 4, 8), "assumed"),
    ]
    for V, p, mode in samples:
        v = eu_point(V, p, primality=mode)
        assert v.value == 1
        assert v.rule == "nonsingular"


# ------------------------------------------ eu_point on the cycles' primes


@pytest.mark.parametrize("rng, text, point, value, rule", [
    # the primes of the signed support cycles of (y^2, xy) and the three axes
    (R2, "x, y", (0, 0), 1, "nonsingular"),
    (R2, "x, y", (1, 0), 0, "outside"),
    (R2, "y", (0, 0), 1, "nonsingular"),
    (R2, "y", (1, 0), 1, "nonsingular"),
    (R3, "y, z", (0, 0, 0), 1, "nonsingular"),
    (R3, "y, z", (1, 0, 0), 1, "nonsingular"),
    (R3, "x, y", (1, 0, 0), 0, "outside"),
    (R3, "x, y, z", (1, 1, 1), 0, "outside"),
    (R2, "y - x^2", (0, 0), 1, "nonsingular"),
    (R2, "y - x^2", (1, 0), 0, "outside"),
    (R2, "y - x^2", (2, 4), 1, "nonsingular"),
    # no rule covers the umbrella at its singular point, but away from it
    # the outside rule still applies
    (R3, "x^2 - y^2*z", (1, 2, 0), 0, "outside"),
    (R3, "z", (1, 2, 0), 1, "nonsingular"),
])
def test_eu_point_on_primes_of_a_cycle(rng, text, point, value, rule):
    v = eu_point(ideal(rng, text), point)
    assert (v.value, v.rule) == (value, rule)


# ------------------------------------------------------ unsupported cases


def test_unsupported_surface_point_raises_with_its_message():
    with pytest.raises(EuUnsupportedError,
                       match="^no implemented Euler-obstruction rule applies at this point$"):
        eu_point(ideal(R3, "x^2 - y^2*z"), (0, 0, 0))


def test_unsupported_threefold_singularity():
    with pytest.raises(EuUnsupportedError):
        eu_point(ideal(R4, "x*w - y*z"), (0, 0, 0, 0))


def test_space_curve_cone_needs_an_asserted_prime():
    J = ideal(R4, "x*z - y^2, y*w - z^2, x*w - y*z")
    with pytest.raises(PrimalityUndecidedError):
        eu_point(J, (0, 0, 0, 0))
    v = eu_point(J, (0, 0, 0, 0), primality="assumed")
    assert v.value == 2 - 2 * 0 - 3 == -1
    assert v.rule == "aluffi-cone"
    assert v.primality == "assumed"
