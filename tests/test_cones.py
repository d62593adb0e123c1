import itertools
import random

import pytest

import conesign.cones
from conesign import (
    IdealPresentation,
    cone_components,
    contains_ideal,
    dimension,
    eliminate,
    ideal,
    minimal_primes,
    normal_cone_ideal,
    parse_polynomial,
    radical_contains,
    rees_ideal,
    ring,
    saturate,
    signed_support_cycle,
    transplant,
)
from conesign.cli import load_ideal_file
from conesign.errors import ConesignError
from conesign.ideals import PrimeComponent, _lead_series, _minimal_prime_list
from test_cli_fuzz import COUNT as FUZZ_COUNT
from test_cli_fuzz import ideal_files

R1 = ring("x")
R2 = ring("x, y")
R3 = ring("x, y, z")

CORPUS = [
    ideal(R1, "x"),
    ideal(R2, "x"),
    ideal(R2, "x, y"),
    ideal(R2, "y^2, x*y"),
    ideal(R2, "y - x^2"),
    ideal(R3, "xy, xz, yz"),
    ideal(R3, "x, y"),
]


def substitute_cone_vars(f, J, cone_names):
    """Evaluate a cone polynomial after e_i -> t*g_i, as a check oracle."""
    ext = f.ring
    base = J.ring
    Rt = base.extend(["t"])
    t = parse_polynomial("t", Rt)
    images = {}
    for name, g in zip(cone_names, [p for p in J.gb() if not p.is_zero()]):
        images[name] = t * transplant(g, Rt)
    from conesign.poly import Polynomial

    total = Polynomial.zero(Rt)
    for mono, coeff in f.terms.items():
        term = Polynomial.constant(Rt, coeff)
        for var, e in zip(ext.variables, mono):
            if e == 0:
                continue
            factor = images.get(var)
            if factor is None:
                factor = parse_polynomial(var, Rt)
            for _ in range(e):
                term = term * factor
        total = total + term
    return total


def test_rees_of_principal_ideal_is_zero():
    reese = rees_ideal(ideal(R1, "x"))
    assert reese.ring.variables[1:] == ("e1",)
    assert reese.gb() == ()


def test_rees_of_two_variables_is_koszul():
    J = ideal(R2, "x, y")
    reese = rees_ideal(J)
    names = reese.ring.variables[J.ring.arity:]
    gb = [g.to_text() for g in reese.gb()]
    assert len(gb) == 1
    # the lone generator is the Koszul relation between the two cone
    # coordinates; the substitution oracle must kill it
    assert substitute_cone_vars(reese.gb()[0], J, names).is_zero()
    vars_used = reese.gb()[0].support_variables()
    assert set(names) <= {reese.ring.variables[i] for i in vars_used}


def test_rees_three_axes_contains_graph_relations():
    J = ideal(R3, "xy, xz, yz")
    reese = rees_ideal(J)
    names = reese.ring.variables[J.ring.arity:]
    gens = {g.to_text() for g in J.gb()}
    assert gens == {"x*y", "x*z", "y*z"}
    order = [g.to_text() for g in J.gb()]
    e = {order[i]: names[i] for i in range(3)}
    # cross relations e_i*g_j - e_j*g_i for the generator pairs
    for a, b in [("x*y", "x*z"), ("x*y", "y*z"), ("x*z", "y*z")]:
        rel = parse_polynomial(f"{e[a]}*({b}) - {e[b]}*({a})", reese.ring)
        assert substitute_cone_vars(rel, J, names).is_zero()
        assert reese.contains(rel)
    # linear syzygy relations, e.g. z*e(xy) - y*e(xz)
    rel = parse_polynomial(f"z*{e['x*y']} - y*{e['x*z']}", reese.ring)
    assert substitute_cone_vars(rel, J, names).is_zero()
    assert reese.contains(rel)


@pytest.mark.parametrize("J", CORPUS, ids=lambda J: ",".join(g.to_text() for g in J.generators))
def test_rees_generators_vanish_under_substitution(J):
    reese = rees_ideal(J)
    names = reese.ring.variables[J.ring.arity:]
    for g in reese.generators:
        assert substitute_cone_vars(g, J, names).is_zero()


@pytest.mark.parametrize("J", CORPUS, ids=lambda J: ",".join(g.to_text() for g in J.generators))
def test_rees_needs_no_saturation_at_t(J):
    # the recipe with the saturation at t: the graph ideal's quotient is the
    # domain R[t], so saturating at t must change nothing
    reese = rees_ideal(J)
    names = reese.ring.variables[J.ring.arity:]
    big = reese.ring.extend(("t",))
    t = parse_polynomial("t", big)
    graph = [parse_polynomial(name, big) - t * transplant(g, big)
             for name, g in zip(names, J.gb())]
    expected = eliminate(saturate(IdealPresentation(big, graph), t), ["t"])
    assert expected.ring == reese.ring
    assert reese.signature() == expected.signature()


def test_normal_cone_of_smooth_hypersurface_is_a_line_bundle():
    J = ideal(R2, "x")
    cone = normal_cone_ideal(J)
    names = cone.ring.variables[J.ring.arity:]
    assert names == ("e1",)
    assert [g.to_text() for g in cone.gb()] == ["x"]


def test_normal_cone_of_zero_ideal_is_the_whole_space():
    J = ideal(R2, "0")
    cone = normal_cone_ideal(J)
    names = cone.ring.variables[J.ring.arity:]
    assert names == ()
    assert cone.gb() == ()


def test_cone_variables_skip_a_prefix_the_ring_uses():
    # e1 is a ring variable, so the two fibre coordinates are c1 and c2
    cone = normal_cone_ideal(ideal(ring("x, e1"), "x^2, e1"))
    assert cone.ring.variables == ("x", "e1", "c1", "c2")


def test_normal_cone_zero_section_pullback():
    # restricting the cone to the zero section recovers V(J), up to radical
    for J in CORPUS:
        cone = normal_cone_ideal(J)
        names = cone.ring.variables[J.ring.arity:]
        if not names:
            continue
        restricted = cone.with_extra(
            [parse_polynomial(n, cone.ring) for n in names]
        )
        shadow = eliminate(restricted, names)
        # shadow and J cut out the same set
        for g in J.generators:
            assert radical_contains(shadow, transplant(g, shadow.ring))
        for g in shadow.generators:
            assert radical_contains(J, transplant(g, J.ring))


def test_cone_components_embedded_point_pair():
    comps = cone_components(ideal(R2, "y^2, x*y"))
    assert len(comps) == 2
    data = sorted(
        (c.multiplicity, sorted(g.to_text() for g in c.image.gb()), c.image_dimension, c.dominates)
        for c in comps
    )
    assert data == [
        (1, ["y"], 1, True),
        (2, ["x", "y"], 0, False),
    ]
    for c in comps:
        assert c.primality == "certified"


def test_cone_components_three_axes():
    comps = cone_components(ideal(R3, "xy, xz, yz"))
    assert len(comps) == 4
    mults = sorted(c.multiplicity for c in comps)
    assert mults == [1, 1, 1, 2]
    images = sorted(
        (c.multiplicity, tuple(sorted(g.to_text() for g in c.image.gb())))
        for c in comps
    )
    assert images == [
        (1, ("x", "y")),
        (1, ("x", "z")),
        (1, ("y", "z")),
        (2, ("x", "y", "z")),
    ]
    dims = sorted((c.multiplicity, c.image_dimension) for c in comps)
    assert dims == [(1, 1), (1, 1), (1, 1), (2, 0)]
    assert all(not c.dominates for c in comps)


def test_cone_components_smooth_line():
    comps = cone_components(ideal(R2, "x"))
    assert len(comps) == 1
    c = comps[0]
    assert c.multiplicity == 1
    assert [g.to_text() for g in c.image.gb()] == ["x"]
    assert c.image_dimension == 1 and c.dominates


@pytest.mark.parametrize("J", CORPUS, ids=lambda J: ",".join(g.to_text() for g in J.generators))
def test_cone_is_equidimensional_of_ambient_dimension(J):
    n = J.ring.arity
    for c in cone_components(J):
        assert dimension(c.cone_prime) == n


# the ideals of the benchmark's cone workload, moved off the origin, and
# one whose unfloored cone decomposition keeps undecided candidates of
# dimension 1 beside its components of dimension 2
WORKLOAD_BASES = [(R3, "xy, xz, yz"), (R3, "x^2, x*y, x*z, y*z"), (R2, "y^2, x*y"),
                  (R3, "x*y, x*z"), (R1, "x^2"), (R2, "x^2 - 2, (y - x)*(y^2 - 2)")]


def floor_cases(tmp_path):
    """The fuzz corpus's seed-0 ideal files that load, then each of
    `WORKLOAD_BASES` translated to a seeded point of {-2..2}^N."""
    rnd = random.Random(0)
    out = []
    for i, text in enumerate(ideal_files(0, FUZZ_COUNT)):
        path = tmp_path / f"fuzz{i}.ideal"
        path.write_text(text, encoding="utf-8")
        try:
            out.append(load_ideal_file(str(path), 0, 16))
        except (ValueError, ConesignError):
            continue
    for rng, text in WORKLOAD_BASES:
        point = tuple(rnd.randint(-2, 2) for _ in range(rng.arity))
        out.append(ideal(rng, text).translate(point))
    return out


def by_text(comps):
    """PrimeComponent records, less their multiplicities, in a comparable,
    ordered form."""
    return sorted((c.prime.signature(), c.primality, c.dimension, c.degree) for c in comps)


def test_a_cone_decomposes_with_a_floor_at_its_own_dimension(tmp_path):
    # the cone of J in A^N is purely N-dimensional (Fulton, Intersection
    # Theory, B.6.6): every component has dimension N, and the floored list
    # is the unfloored one's members of dimension N
    cases = floor_cases(tmp_path)
    assert len(cases) > 30
    below = 0
    for J in cases:
        n = J.ring.arity
        C = normal_cone_ideal(J)
        floored, full = _minimal_prime_list(C, n), _minimal_prime_list(C)
        assert by_text(floored) == by_text(c for c in full if c.dimension == n)
        below += len(full) > len(floored)
        comps = cone_components(J)
        assert by_text(floored) == by_text(
            PrimeComponent(c.cone_prime, c.multiplicity, D, sum(Q), c.primality)
            for c in comps for Q, D in [_lead_series(c.cone_prime)])
        assert all(dimension(c.cone_prime) == n for c in comps)
    # the corpus reaches an unfloored list with a member below the floor
    assert below


def test_the_cone_of_the_three_axes_measures_each_candidate_once(monkeypatch):
    # an ideal keeps its lead series, so the decomposition takes one Hilbert
    # numerator per distinct candidate and one per ideal its chain saturates
    # to, although the chain of multiplicities reads the cone's own series
    # again
    C = normal_cone_ideal(ideal(R3, "xy, xz, yz"))
    numerators, candidates, saturations = [], {C.gb()}, []
    real_numerator, real_saturate = conesign.ideals.hilbert_numerator, conesign.ideals.saturate
    real_extra = IdealPresentation.with_extra

    def numerator(monos, arity):
        numerators.append(monos)
        return real_numerator(monos, arity)

    def with_extra(K, extra):
        out = real_extra(K, extra)
        candidates.add(out.gb())
        return out

    def saturated(K, f):
        saturations.append(f)
        return real_saturate(K, f)

    monkeypatch.setattr(conesign.ideals, "hilbert_numerator", numerator)
    monkeypatch.setattr(conesign.ideals, "saturate", saturated)
    monkeypatch.setattr(IdealPresentation, "with_extra", with_extra)
    comps = minimal_primes(C, 3)
    assert sorted(c.multiplicity for c in comps) == [1, 1, 1, 2]
    assert (len(candidates), len(saturations)) == (12, 3)
    assert len(numerators) == len(candidates) + len(saturations)


@pytest.mark.parametrize("J", CORPUS, ids=lambda J: ",".join(g.to_text() for g in J.generators))
def test_cone_images_contain_the_ideal_and_dominate_consistently(J):
    for c in cone_components(J):
        assert contains_ideal(c.image, J)
        is_dominant = all(radical_contains(J, g) for g in c.image.generators)
        assert c.dominates == is_dominant


def _monomial_family(seed, count):
    """`count` seeded monomial ideals of k[x, y] or k[x, y, z], each with at
    most three generators of exponents at most 2, its variables permuted and
    translated by a point of {-1, 0, 1}^n."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        rng = rnd.choice((R2, R3))
        n = rng.arity
        exponents = {tuple(rnd.randint(0, 2) for _ in range(n)) for _ in range(rnd.randint(1, 3))}
        exponents.discard((0,) * n)
        if not exponents:
            continue
        text = ", ".join("*".join(f"{v}^{e}" for v, e in zip(rng.variables, m) if e)
                         for m in sorted(exponents))
        perm = rnd.choice(list(itertools.permutations(range(n))))
        J = ideal(rng, text)
        J = IdealPresentation(rng, [g.remap(rng, perm) for g in J.generators])
        out.append(J.translate(tuple(rnd.choice((-1, 0, 1)) for _ in range(n))))
    return out


# the last member's cone has an undecided component
EQUIVALENCE_FAMILY = CORPUS + _monomial_family(0, 24) + [ideal(R3, "x^2, xy, xz, yz")]


def assert_images_and_dominance_match_elimination(J, comps):
    """Each image is the elimination of the cone variables from its
    component, and a component dominates exactly when its image lies in the
    radical of J."""
    names = normal_cone_ideal(J).ring.variables[J.ring.arity:]
    for c in comps:
        expected = eliminate(c.cone_prime, names)
        assert c.image == expected
        assert c.image.signature() == expected.signature()
        assert c.dominates == all(radical_contains(J, g) for g in c.image.generators)


@pytest.mark.parametrize("J", EQUIVALENCE_FAMILY,
                         ids=[f"family{i}" for i in range(len(EQUIVALENCE_FAMILY))])
def test_cone_images_and_dominance_match_elimination_and_radicals(J):
    assert_images_and_dominance_match_elimination(J, cone_components(J))


def test_the_equivalence_family_reaches_an_undecided_component():
    comps = cone_components(EQUIVALENCE_FAMILY[-1])
    assert [c.primality for c in comps].count("undecided") == 1


def test_dominance_over_an_undecided_component_is_decided_by_radicals(monkeypatch):
    # (y^2, xy) has the dominating component over the line y = 0 and one
    # over the origin, cut out by x and y; presenting the second by the
    # non-radical (x, y^2), as an undecided component may be, gives it the
    # image (x, y^2), which holds the first image (y) only up to radical
    J = ideal(R2, "y^2, x*y")
    cone = normal_cone_ideal(J)
    real = minimal_primes(cone)
    assert [c.prime.signature() for c in real][1] == ("y", "x")
    fat = ideal(cone.ring, "x, y^2")
    comps = [real[0], real[1]._replace(prime=fat, primality="undecided")]
    monkeypatch.setattr(conesign.cones, "minimal_primes", lambda C, floor: comps)
    out = cone_components(J)
    assert [c.image.signature() for c in out] == [("y",), ("x", "y^2")]
    assert [c.dominates for c in out] == [True, False]
    assert_images_and_dominance_match_elimination(J, out)


@pytest.mark.parametrize("text", ["xy, xz, yz", "y^2, x*y"])
def test_cone_components_eliminate_only_for_the_rees_ideal(monkeypatch, text):
    calls = {"eliminate": 0, "radical_contains": 0}
    for name in calls:
        real = getattr(conesign.cones, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(conesign.cones, name, counted)
    comps = cone_components(ideal(R3 if "z" in text else R2, text))
    assert all(c.primality == "certified" for c in comps)
    assert calls == {"eliminate": 1, "radical_contains": 0}


def test_cycle_embedded_point_pair():
    cycle = signed_support_cycle(ideal(R2, "y^2, x*y"))
    terms = sorted(
        (t.coefficient, tuple(sorted(g.to_text() for g in t.prime.gb())))
        for t in cycle.terms
    )
    assert terms == [(-1, ("y",)), (2, ("x", "y"))]


def test_cycle_three_axes():
    cycle = signed_support_cycle(ideal(R3, "xy, xz, yz"))
    terms = sorted(
        (t.coefficient, tuple(sorted(g.to_text() for g in t.prime.gb())))
        for t in cycle.terms
    )
    assert terms == [
        (-1, ("x", "y")),
        (-1, ("x", "z")),
        (-1, ("y", "z")),
        (2, ("x", "y", "z")),
    ]


def test_cycle_of_smooth_scheme_is_signed_fundamental_class():
    for J, d in [
        (ideal(R2, "x"), 1),
        (ideal(R3, "x, y"), 1),
        (ideal(R2, "y - x^2"), 1),
        (ideal(R3, "x"), 2),
    ]:
        cycle = signed_support_cycle(J)
        assert len(cycle.terms) == 1
        t = cycle.terms[0]
        assert t.coefficient == (-1) ** d
        texts = ", ".join(g.to_text() for g in J.generators)
        assert t.prime.signature() == ideal(J.ring, texts).signature()


@pytest.mark.parametrize("J", CORPUS, ids=lambda J: ",".join(g.to_text() for g in J.generators))
def test_cycle_coefficients_match_component_sums(J):
    comps = cone_components(J)
    cycle = signed_support_cycle(J)
    for t in cycle.terms:
        expected = sum(
            (-1) ** c.image_dimension * c.multiplicity
            for c in comps
            if c.image.signature() == t.prime.signature()
        )
        assert t.coefficient == expected
    # every distinct image appears exactly once
    assert len({t.prime.signature() for t in cycle.terms}) == len(cycle.terms)


def test_cycle_terms_have_nonzero_coefficients():
    for J in CORPUS:
        for t in signed_support_cycle(J).terms:
            assert t.coefficient != 0


def test_component_json_shape():
    comp = cone_components(ideal(R2, "y^2, x*y"))[0]
    d = comp.to_json_dict()
    assert set(d) == {
        "cone_prime",
        "multiplicity",
        "image",
        "image_dim",
        "dominates",
        "primality_status",
    }
    cyc = signed_support_cycle(ideal(R2, "y^2, x*y")).to_json_dict()
    assert set(cyc) == {"terms"}
    assert all(set(t) == {"prime", "coeff"} for t in cyc["terms"])
