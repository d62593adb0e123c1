import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    division_remainder,
    grevlex_key,
    hilbert_numerator_oracle,
    lex_eliminant,
    linear_prime_contains,
    linear_product_multiplicities,
    matrix_rank,
    monomial_dimension,
    monomial_hilbert_count,
    monomial_minimal_primes,
    monomial_saturation,
    s_pair,
    stickelberger_components,
    zero_dim_multiplicity,
)

import conesign.factor
import conesign.ideals
from conesign import (
    IdealPresentation,
    InfiniteColengthError,
    MonomialOrder,
    PointNotOnVarietyError,
    Polynomial,
    PrimalityUndecidedError,
    PrimeComponent,
    RingMismatchError,
    buchberger,
    colength,
    contains_ideal,
    degrevlex,
    dimension,
    eliminate,
    generic_tangent_dimension,
    ideal,
    jacobian,
    minimal_primes,
    normal_cone_ideal,
    parse_polynomial,
    radical_contains,
    ring,
    saturate,
    tangent_dimension_at_point,
    transplant,
)
from conesign.factor import factor_polynomial
from conesign.ideals import (
    _certify_prime,
    _is_linear,
    _lead_series,
    _minimal_polynomial,
    _multiplicities,
    hilbert_numerator,
)

R1 = ring("x")
R2 = ring("x, y")
R3 = ring("x, y, z")


def I(text, rng=R2):
    return ideal(rng, text)


def same_ideal(A, B):
    return A.signature() == B.signature()


def degree(J):
    """The degree of the closure of the scheme cut out by J, the projective
    closure when J is not homogeneous."""
    return sum(_lead_series(J)[0])


def multiplicities(J, primes):
    """The multiplicity of J along each of `primes`, its minimal primes."""
    return _multiplicities(J, [PrimeComponent(P, None, D, sum(Q), "certified")
                               for P in primes for Q, D in [_lead_series(P)]])


# elimination


def test_eliminate_substitutes_along_a_graph():
    out = eliminate(I("y - x^2, x"), ["x"])
    assert out.ring.variables == ("y",)
    assert [g.to_text() for g in out.gb()] == ["y"]


def test_eliminate_nothing_is_a_no_op():
    out = eliminate(I("x"), [])
    assert out.ring.variables == ("x", "y")
    assert [g.to_text() for g in out.gb()] == ["x"]


def test_eliminate_inverse_relation():
    Rt = ring("t, x, y")
    out = eliminate(ideal(Rt, "t*x - 1, t*y"), ["t"])
    assert out.ring.variables == ("x", "y")
    assert [g.to_text() for g in out.gb()] == ["y"]


def test_eliminate_refuses_unknown_and_repeated_names():
    with pytest.raises(ValueError, match="cannot eliminate t, w: not a variable"):
        eliminate(I("x"), ["w", "t", "w"])
    with pytest.raises(ValueError, match="cannot eliminate x: named more than once"):
        eliminate(I("x"), ["x", "y", "x"])


def test_transplant_moves_by_name_into_any_ring_holding_the_support():
    f = parse_polynomial("x*z - 2*z", R3)
    target = ring("z, w, x")
    assert transplant(f, target) == parse_polynomial("x*z - 2*z", target)
    with pytest.raises(ValueError):
        transplant(f, ring("x, y"))


def test_eliminate_composes():
    Rw = ring("u, v, x, y")
    J = ideal(Rw, "u - x^2, v - y^2, x*y - 1")
    once = eliminate(eliminate(J, ["u"]), ["v"])
    both = eliminate(J, ["u", "v"])
    assert once.signature() == both.signature()


# saturation


def test_saturate_principal_power():
    out = saturate(I("x^2"), parse_polynomial("x", R2))
    assert out.is_unit_ideal()


def test_saturate_strips_one_factor():
    out = saturate(I("x*y"), parse_polynomial("x", R2))
    assert [g.to_text() for g in out.gb()] == ["y"]


def test_saturate_embedded_origin():
    # (x^2, xy) : x = (x, y) and (x, y) : x = (1), so the saturation is the
    # unit ideal
    J = I("x^2, x*y")
    x = parse_polynomial("x", R2)
    assert saturate(J, x).is_unit_ideal()


def test_saturate_picks_a_fresh_variable_past_the_taken_names(monkeypatch):
    # w and w0 are ring variables, so f is inverted by 1 - w1*f
    rng = ring("x, w, w0")
    J = ideal(rng, "x*w, x*w0^2")
    J.gb()
    rings, real = [], conesign.ideals.buchberger

    def spy(gens, order, **kw):
        gens = list(gens)
        rings.append(gens[0].ring.variables)
        return real(gens, order, **kw)

    monkeypatch.setattr(conesign.ideals, "buchberger", spy)
    assert saturate(J, parse_polynomial("x", rng)).signature() == ("w", "w0^2")
    assert rings == [("x", "w", "w0", "w1")]


def test_saturate_keeps_the_transverse_component():
    # (x^2, xy) = (x) meet (x^2, y); saturating by y removes nothing
    # visible at y != 0 except the embedded point
    out = saturate(I("x^2, x*y"), parse_polynomial("y", R2))
    assert [g.to_text() for g in out.gb()] == ["x"]


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(2, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    return n, exps, draw(st.integers(0, n - 1))


@given(case=monomial_ideals())
@settings(max_examples=60, deadline=None)
def test_saturate_monomial_ideal_by_a_variable_matches_the_oracle(case):
    n, exps, var = case
    rng = (R2, R3)[n - 2]
    J = IdealPresentation(rng, [Polynomial.from_monomial(rng, e) for e in exps])
    out = saturate(J, Polynomial.variable(rng, var))
    expected = IdealPresentation(
        rng, [Polynomial.from_monomial(rng, e) for e in monomial_saturation(exps, var)])
    assert out.signature() == expected.signature()


SATURATION_CASES = [
    ("x^2", "x"),
    ("x*y", "x"),
    ("x^2, x*y", "x"),
    ("x^2, x*y", "y"),
]


def permuted(J, perm):
    return IdealPresentation(J.ring, [g.remap(J.ring, perm) for g in J.generators])


@pytest.mark.parametrize("gens,by", SATURATION_CASES)
def test_saturate_commutes_with_permuting_variables(gens, by):
    J = I(gens)
    f = parse_polynomial(by, R2)
    out = saturate(J, f)
    for perm in itertools.permutations(range(R2.arity)):
        moved = saturate(permuted(J, perm), f.remap(R2, perm))
        assert moved.signature() == permuted(out, perm).signature()


def test_radical_membership():
    J = I("x^2, x*y")
    assert radical_contains(J, parse_polynomial("x", R2))
    assert not radical_contains(J, parse_polynomial("y", R2))
    assert radical_contains(I("x^2 + y^2"), parse_polynomial("x^2 + y^2", R2))


def test_radical_membership_of_a_member_needs_no_run_over_r_w(monkeypatch):
    J = I("x^2, x*y")
    J.gb()
    calls = counted_buchberger(monkeypatch)
    assert radical_contains(J, parse_polynomial("x^2 - 3*x*y", R2))
    assert radical_contains(J, parse_polynomial("0", R2))
    assert calls == []
    # non-members still take the run over R[w], and are decided by it
    x = parse_polynomial("x", R2)
    assert radical_contains(I("x^2"), x)
    assert not radical_contains(I("x*y"), x)
    assert not radical_contains(J, parse_polynomial("y", R2))


def seeded_monomial_radical_case(seed):
    """(generators, terms, point): the exponents of 1 to 3 generators of a
    monomial ideal M of Q[x, y, z], the (coefficient, exponents) terms of f,
    and a point of {-1, 0, 1}^3.  Half of f's terms are the support of a
    generator of M times a monomial, so they lie in the radical of M."""
    rnd = random.Random(seed)
    mono = lambda: tuple(rnd.randint(0, 2) for _ in range(3))
    gens = [m for m in (mono() for _ in range(rnd.randint(1, 3))) if any(m)] or [(1, 0, 0)]
    terms = []
    for _ in range(rnd.randint(1, 3)):
        m = mono()
        if rnd.random() < 0.5:
            g = rnd.choice(gens)
            m = tuple(min(a + (b > 0), 2) for a, b in zip(m, g))
        terms.append((rnd.choice([-2, -1, 1, 3]), m))
    return gens, terms, tuple(rnd.randint(-1, 1) for _ in range(3))


def in_monomial_radical(gens, terms):
    """A monomial lies in the radical of (gens) exactly when the support of
    some generator lies inside its own, and a polynomial exactly when each of
    its terms does."""
    return all(any(all(e or not g for e, g in zip(m, gen)) for gen in gens)
               for _, m in terms)


def test_radical_membership_of_monomial_ideals_plain_and_translated():
    answers, through_saturation = set(), 0
    for seed in range(60):
        gens, terms, point = seeded_monomial_radical_case(seed)
        want = in_monomial_radical(gens, terms)
        for shift in ((0, 0, 0), point):
            # x -> x + a, written out as text, moves M and f by the same point
            var = [f"({v} + ({a}))" for v, a in zip("xyz", shift)]
            power = lambda m: "*".join(f"{v}^{e}" for v, e in zip(var, m) if e) or "1"
            M = I(", ".join(power(m) for m in gens), R3)
            f = parse_polynomial(" + ".join(f"({c})*{power(m)}" for c, m in terms), R3)
            assert radical_contains(M, f) == want
            answers.add(want)
            through_saturation += want and not M.contains(f)
    assert answers == {True, False} and through_saturation > 0


def test_membership_tests_share_one_division_per_ideal(monkeypatch):
    built = []
    init = conesign.ideals._Divider.__init__

    def counted(self, basis, order):
        built.append(basis)
        init(self, basis, order)

    monkeypatch.setattr(conesign.ideals._Divider, "__init__", counted)
    J = I("x^2 - y, x*y - 1")
    assert contains_ideal(J, I("x^3 - 1, y^2 - x, x^2 - y"))
    assert not J.contains(parse_polynomial("x - 1", R2))
    # the colength is read off the leads, with no division of its own
    assert colength(J) == 3
    with pytest.raises(RingMismatchError):
        J.contains(parse_polynomial("x", R1))
    assert built == [J.gb()]


# (ideal of k[x, y, z], f, the saturation by f, whether f lies in the radical)
CACHED_BASIS_CASES = [
    ("x^2, x*y", "y", "x", False),
    ("x*y, x*z, y*z", "x + y + z", "x*y, x*z, y*z", False),
    ("x^2 - y^3, x*y", "x", "1", True),
    ("y^2 - x^3, x*y - 1", "x", "y^2 - x^3, x*y - 1", False),
    # the z-axis goes, the monomial curve (t^3, t^4, t^5) stays
    ("x*z - y^2, y*z - x^3", "y", "x*z - y^2, y*z - x^3, x^2*y - z^2", False),
    ("x^2*y - z^2, x*y*z", "z", "1", True),
]


@pytest.mark.parametrize("gens, by, sat, in_radical", CACHED_BASIS_CASES)
def test_saturation_extends_a_cached_basis_to_the_same_answer(monkeypatch, gens, by,
                                                              sat, in_radical):
    f = parse_polynomial(by, R3)
    cold, warm = I(gens, R3), I(gens, R3)
    G = warm.gb()
    runs, real = [], conesign.ideals.buchberger

    def kept(gens, order, *args, known=(), **kwargs):
        gens, known = list(gens), list(known)
        runs.append((known, gens, real(gens, order, *args, known=known, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(conesign.ideals, "buchberger", kept)
    S, T = saturate(cold, f), saturate(warm, f)
    assert radical_contains(cold, f) == radical_contains(warm, f) == in_radical
    # the one run from scratch is cold's own basis, which every R[w] run extends
    assert known_prefixes(runs) == [0] + [len(G)] * 4
    assert S.gb() == T.gb()
    assert T == I(sat, R3)
    # checked by a division routine that shares no code with the package:
    # the saturation contains the ideal, and each basis over R[w] built from
    # the known prefix is a Groebner basis under the block order, w first
    block = lambda e: (grevlex_key(e[3:]), grevlex_key(e[:3]))
    checks = [([g.terms for g in T.gb()], G, grevlex_key)]
    checks += [([g.terms for g in basis], known + gens, block) for known, gens, basis in runs[1:]]
    for basis, gens, key in checks:
        for g in gens:
            assert division_remainder(g.terms, basis, key=key) == {}
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                assert division_remainder(s_pair(basis[a], basis[b], key=key), basis,
                                          key=key) == {}


# dimension


def test_dimension_of_three_axes():
    assert dimension(I("xy, xz, yz", R3)) == 1


def test_the_zero_ideal_contains_only_zero():
    Z = ideal(R2, "0")
    assert Z.contains(Polynomial.zero(R2))
    assert not any(Z.contains(parse_polynomial(t, R2)) for t in ("1", "x", "x*y - 1"))


def test_dimension_of_zero_ideal():
    assert dimension(ideal(R3, "0")) == 3
    assert dimension(ideal(R1, "0")) == 1


def test_dimension_of_line_with_embedded_point():
    assert dimension(I("y^2, x*y")) == 1


def test_dimension_unit_ideal_is_flagged():
    assert dimension(I("1")) == -1


def test_dimension_more_cases():
    assert dimension(I("x", R3)) == 2
    assert dimension(I("x, y", R3)) == 1
    assert dimension(I("x, y, z", R3)) == 0
    assert dimension(I("y - x^2")) == 1


# the lead series: dimension, degree and Hilbert polynomial


def test_degree_of_a_hyperplane():
    assert degree(I("x", R3)) == 1


def test_degree_of_three_lines():
    assert degree(I("xy, xz, yz", R3)) == 3


def test_degree_of_a_conic():
    assert degree(I("y*z - x^2", R3)) == 2


def test_degree_of_an_inhomogeneous_ideal():
    # the projective closure of a parabola is a conic
    assert degree(I("y - x^2")) == 2


def test_lead_series_gives_the_hilbert_polynomial():
    # series Q(t) / (1-t)^D has, in degree s, the value
    # sum_i q_i * binomial(s - i + D - 1, D - 1); against a brute-force count
    # of degree-s standard monomials, far past the numerator degree so the
    # polynomial regime applies
    def value(J, s):
        Q, D = _lead_series(J)
        return sum(q * math.comb(s - i + D - 1, D - 1) for i, q in enumerate(Q))

    J = I("xy, xz, yz", R3)
    gens = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for s in (3, 4, 7):
        assert value(J, s) == monomial_hilbert_count(gens, 3, s)
    Jc = I("y*z - x^2", R3)
    # smooth conic: values 2s + 1
    for s in (2, 5):
        assert value(Jc, s) == 2 * s + 1


def test_lead_series_shapes():
    Q, D = _lead_series(I("xy, xz, yz", R3))
    assert sum(Q) == 3 and D == 1
    Q, D = _lead_series(I("x", R3))
    assert sum(Q) == 1 and D == 2


def test_degree_is_additive_over_top_components():
    # union of a line and a conic in the plane (homogeneous in 3 vars)
    J = I("x*(y*z - x^2)", R3)
    comps = minimal_primes(J)
    assert sum(c.multiplicity * c.degree for c in comps) == degree(J)
    J2 = I("xy, xz, yz", R3)
    comps2 = minimal_primes(J2)
    assert sum(c.multiplicity * c.degree for c in comps2) == 3


# minimal primes


def test_minimal_primes_double_point():
    comps = minimal_primes(ideal(R1, "x^2"))
    assert len(comps) == 1
    c = comps[0]
    assert [g.to_text() for g in c.prime.gb()] == ["x"]
    assert c.multiplicity == 2 and c.dimension == 0 and c.degree == 1
    assert c.primality == "certified"


def test_minimal_primes_three_axes():
    comps = minimal_primes(I("xy, xz, yz", R3))
    assert len(comps) == 3
    sigs = sorted(tuple(sorted(g.to_text() for g in c.prime.gb())) for c in comps)
    assert sigs == [("x", "y"), ("x", "z"), ("y", "z")]
    assert all(c.multiplicity == 1 for c in comps)
    assert all(c.dimension == 1 and c.degree == 1 for c in comps)


def test_minimal_primes_drop_embedded_point():
    comps = minimal_primes(I("y^2, x*y"))
    assert len(comps) == 1
    c = comps[0]
    assert [g.to_text() for g in c.prime.gb()] == ["y"]
    assert c.multiplicity == 1


def test_minimal_primes_mixed_dimensions():
    comps = minimal_primes(I("x*y, x*z", R3))
    assert [c.dimension for c in comps] == [2, 1]
    sigs = [tuple(g.to_text() for g in c.prime.gb()) for c in comps]
    assert sigs == [("x",), ("z", "y")]


def test_minimal_primes_are_inclusion_minimal_and_contain_input():
    for rng, text in [
        (R2, "y^2, x*y"),
        (R3, "xy, xz, yz"),
        (R2, "x^2*y^3"),
        (R3, "x*y, x*z"),
        (R2, "(x^2 - y^2)*(x - 2)"),
    ]:
        J = ideal(rng, text)
        comps = minimal_primes(J)
        for c in comps:
            assert contains_ideal(c.prime, J)
        for a in comps:
            for b in comps:
                if a is not b:
                    assert not contains_ideal(a.prime, b.prime)


RINGS = {2: R2, 3: R3, 4: ring("x, y, z, u")}


def seeded_monomial_ideal(rnd, sizes):
    """(number of variables, generator exponents) of a random monomial ideal
    with 1 to 4 nonconstant generators."""
    n = rnd.choice(sizes)
    exps = []
    for _ in range(rnd.randint(1, 4)):
        exps.append(tuple(rnd.randint(0, 3) for _ in range(n)))
        if not any(exps[-1]):
            exps[-1] = tuple(int(i == 0) for i in range(n))
    return n, exps


def test_minimal_primes_of_monomial_ideals_match_the_oracle():
    for seed in range(60):
        n, exps = seeded_monomial_ideal(random.Random(seed), (2, 3, 4))
        rng = RINGS[n]
        comps = minimal_primes(
            IdealPresentation(rng, [Polynomial.from_monomial(rng, e) for e in exps]))
        # every prime must be a coordinate prime, read off as its variables
        assert all(g.is_term() and g.total_degree() == 1 for c in comps for g in c.prime.gb())
        got = sorted((tuple(sorted(i for g in c.prime.gb() for i in g.support_variables())),
                      c.multiplicity) for c in comps)
        assert got == monomial_minimal_primes(exps, n), seed
        assert all(c.dimension == n - len(c.prime.gb()) for c in comps)


def test_hilbert_numerator_matches_monomial_counts():
    # series(R/M) = N(t) / (1 - t)^n: the degree-d coefficient is
    # sum_i N_i * C(d - i + n - 1, n - 1), the count of standard monomials
    for seed in range(60):
        n, exps = seeded_monomial_ideal(random.Random(seed), (2, 3, 4, 5))
        N = hilbert_numerator(exps, n)
        for d in range(max(map(sum, exps)) + 3):
            got = sum(c * math.comb(d - i + n - 1, n - 1)
                      for i, c in enumerate(N) if i <= d)
            assert got == monomial_hilbert_count(exps, n, d), (seed, d)


def test_hilbert_numerator_matches_the_taylor_oracle():
    # up to 8 generators in 1 to 7 variables, some repeated, some multiples
    # of others, the constant monomial and no generator at all
    seen = set()
    for seed in range(300):
        rnd = random.Random(seed)
        n = rnd.randint(1, 7)
        exps = [tuple(rnd.randint(0, 3) for _ in range(n)) for _ in range(rnd.randint(0, 6))]
        if exps and rnd.random() < 0.3:
            exps.append(rnd.choice(exps))
        if exps and rnd.random() < 0.3:
            exps.append(tuple(e + rnd.randint(0, 1) for e in rnd.choice(exps)))
        rnd.shuffle(exps)
        assert hilbert_numerator(exps, n) == hilbert_numerator_oracle(exps, n), seed
        seen.add("empty" if not exps else "constant" if not all(map(any, exps)) else
                 "repeated" if len(set(exps)) < len(exps) else
                 "non-minimal" if any(a != b and all(map(operator.le, a, b))
                                      for a in exps for b in exps) else "minimal")
    assert seen == {"empty", "constant", "repeated", "non-minimal", "minimal"}


def unimodular(rnd, n):
    """A seeded integer matrix of determinant +-1: shears, then a permutation."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rnd.sample(range(n), 2)
        c = rnd.choice((-2, -1, 1, 2))
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    rnd.shuffle(A)
    return A


def test_coordinate_change_and_translation_keep_dimensions_and_multiplicities():
    # after x -> A*x with A unimodular and a translation, the components are
    # no longer coordinate primes, but their dimensions and multiplicities stay
    for seed in range(40):
        rnd = random.Random(seed)
        n, exps = seeded_monomial_ideal(rnd, (2, 3))
        rng = RINGS[n]
        forms = [sum((c * Polynomial.variable(rng, j) for j, c in enumerate(row)),
                     Polynomial.zero(rng)) for row in unimodular(rnd, n)]
        gens = [math.prod((f ** a for f, a in zip(forms, e)), start=Polynomial.one(rng))
                for e in exps]
        point = [rnd.randint(-2, 2) for _ in range(n)]
        moved = IdealPresentation(rng, gens).translate(point)
        got = sorted((c.dimension, c.multiplicity) for c in minimal_primes(moved))
        want = sorted((n - len(S), m) for S, m in monomial_minimal_primes(exps, n))
        assert got == want, seed


# zero-dimensional ideals whose primes have degree above 1, checked against
# Stickelberger's theorem: (deg P, mu_P) are [(2, 1), (3, 2)], [(1, 3),
# (1, 3), (6, 1)], [(1, 1), (1, 3), (3, 1)] and [(2, 2), (3, 4)]; the last
# ideal's one component, of degree 8, is undecided, and it is two of degree 4
STICKELBERGER_IDEALS = [
    "(x^3 - 2)^2*(x^2 - 3), y - x^2 - 1",
    "(x^2 - 1)^3*(x^6 + x + 1), y - x^2",
    "x^2*(x^3 - 2), y^2*(y - 2), x*y",
    "(x^2 - 2)^2*(x^3 - 3)^4, y - x^2",
    "x^4 - 10*x^2 + 1, y^2 - 2",
]


def test_zero_dimensional_decompositions_match_stickelberger():
    # each ideal as written, and under two seeded unimodular changes of
    # coordinates with a translation: where every component is certified the
    # multisets of (degree, multiplicity) agree, else their sums of
    # degree * multiplicity do
    rnd = random.Random(0)
    certified = []
    for text in STICKELBERGER_IDEALS:
        J = I(text)
        moves = [J]
        for _ in range(2):
            forms = [sum((c * Polynomial.variable(R2, j) for j, c in enumerate(row)),
                         Polynomial.zero(R2)) for row in unimodular(rnd, 2)]
            gens = [sum((c * math.prod((f ** a for f, a in zip(forms, m)), start=Polynomial.one(R2))
                         for m, c in g.terms.items()), Polynomial.zero(R2)) for g in J.generators]
            moves.append(IdealPresentation(R2, gens).translate([rnd.randint(-2, 2) for _ in range(2)]))
        for K in moves:
            comps = minimal_primes(K)
            got = sorted((c.degree, c.multiplicity) for c in comps)
            want = stickelberger_components([g.terms for g in K.generators],
                                            [g.terms for g in K.gb()], 2, rnd)
            if all(c.primality == "certified" for c in comps):
                assert got == want, K
                certified.append(got)
            else:
                assert sum(d * m for d, m in got) == sum(d * m for d, m in want), K
    # the certified cases reach three components, a multiplicity of 2 and a
    # prime of degree 3
    assert max(map(len, certified)) >= 3
    assert max(m for got in certified for _, m in got) >= 2
    assert max(d for got in certified for d, _ in got) >= 3


def test_minimal_primes_zero_dimensional_splitting():
    comps = minimal_primes(I("x^2 - 1, y - x"))
    sigs = sorted(tuple(sorted(g.to_text() for g in c.prime.gb())) for c in comps)
    assert sigs == [("x + 1", "y + 1"), ("x - 1", "y - 1")]
    assert all(c.multiplicity == 1 and c.primality == "certified" for c in comps)


def test_minimal_primes_irrational_point_pair_stays_prime():
    # x^2 - 2 does not factor over the rationals
    comps = minimal_primes(I("x^2 - 2, y"))
    assert len(comps) == 1
    c = comps[0]
    assert c.degree == 2 or colength(c.prime) == 2
    assert c.primality == "certified"


def test_minimal_primes_canonical_presentation():
    # returned primes are presented by their reduced basis, not by
    # accumulated split factors
    comps = minimal_primes(I("y^2, x*y"))
    assert [g.to_text() for g in comps[0].prime.generators] == ["y"]


# (x^2 - 2, y^2 - 2) is not prime, as (x - y)(x + y) lies in it, but no rule
# splits it; it lies in the certified (x - y, y^2 - 2) of the same dimension
UNDECIDED_INSIDE_A_PRIME = "x^2 - 2, (y - x)*(y^2 - 2)"


def test_minimality_tests_a_certified_prime_only_against_candidates_of_lower_dimension(
        monkeypatch):
    # a prime L properly inside K has dim L > dim K, so a certified L of
    # dimension at most dim K is never tested; an undecided one always is
    verdicts, pairs = {}, []
    real_certify, real_contains = _certify_prime, conesign.ideals.contains_ideal

    def certify(K, irreducible=None):
        verdicts[K.gb()] = verdict = real_certify(K, irreducible)
        return verdict

    def contains(big, small):
        pairs.append((big, small))
        return real_contains(big, small)

    monkeypatch.setattr(conesign.ideals, "_certify_prime", certify)
    monkeypatch.setattr(conesign.ideals, "contains_ideal", contains)
    # testing every ordered pair of candidates would make 6, 6, 5, 6, 2 and 10
    for J, tested in [(I("xy, xz, yz", R3), 0), (I("x*y, x*z", R3), 2),
                      (I("x^2, x*y, x*z, y*z", R3), 1), (I("(x^2 - y^2)*(x - 2)"), 0),
                      (I(UNDECIDED_INSIDE_A_PRIME), 1), (I("x*y*z, x^2*z", R3), 3)]:
        verdicts.clear()
        pairs.clear()
        conesign.ideals._minimal_prime_list(J)
        assert len(pairs) == tested
        for big, small in pairs:
            assert verdicts[small.gb()][0] != "prime" or dimension(small) > dimension(big)


def test_an_undecided_candidate_removes_a_candidate_of_its_dimension_that_contains_it():
    kept = conesign.ideals._minimal_prime_list(I(UNDECIDED_INSIDE_A_PRIME))
    assert [(sorted(g.to_text() for g in c.prime.gb()), c.primality, c.dimension)
            for c in kept] == [(["x^2 - 2", "y^2 - 2"], "undecided", 0)]


def test_an_undecided_component_that_leaves_its_multiplicity_open_abstains():
    # the kept (x^2 - 2, y^2 - 2) has degree 4, which does not divide the
    # scheme's degree: no multiplicity exists, because it is not prime
    with pytest.raises(PrimalityUndecidedError) as exc:
        minimal_primes(I(UNDECIDED_INSIDE_A_PRIME))
    assert isinstance(exc.value.__cause__, ArithmeticError)


@pytest.mark.parametrize("error", [ArithmeticError, ValueError])
def test_certified_components_whose_multiplicities_fail_still_raise(monkeypatch, error):
    # with every component certified prime the chain must close, so a
    # failure there is a fault and not an abstention
    def fail(*args):
        raise error("chain did not close")

    monkeypatch.setattr(conesign.ideals, "_multiplicities", fail)
    with pytest.raises(error, match="chain did not close"):
        minimal_primes(I("xy, xz, yz", R3))
    # and the same failure with an undecided component abstains
    with pytest.raises(PrimalityUndecidedError):
        minimal_primes(I("x^2 - 2, y^2 - 3"))


# the zero-dimensional rule: minimal polynomials of the variables on R/I

ZERO_DIMENSIONAL_VERDICTS = [
    ("x^2 - 2, y", ("prime",)),
    ("x^2 - y, y^2 - 2", ("prime",)),
    ("x^4 - 10*x^2 + 1, y - x^3", ("prime",)),
    ("x^2 + y^2 - 3, x*y - 1", ("split", ["x^2 + x - 1", "x^2 - x - 1"])),
    ("x^2*y - 1, y^2 - x", ("split", ["x - 1", "x^4 + x^3 + x^2 + x + 1"])),
    # not prime: (x - y)(x + y) lies in it, yet no minimal polynomial splits
    ("x^2 - 2, y^2 - 2", ("undecided",)),
    # a field of degree 4 that no single variable generates
    ("x^2 - 2, y^2 - 3", ("undecided",)),
]


def verdict_texts(verdict):
    if verdict[0] != "split":
        return verdict
    return ("split", sorted(f.to_text() for f in verdict[1]))


@pytest.mark.parametrize("text, want", ZERO_DIMENSIONAL_VERDICTS)
def test_zero_dimensional_rule_verdicts(text, want):
    K = I(text)
    # no basis element factors, so the minimal polynomials decide
    assert dimension(K) == 0 and len(K.gb()) > 1 and not _is_linear(K.gb())
    assert all(len(factor_polynomial(g)) == 1 for g in K.gb())
    assert verdict_texts(_certify_prime(K)) == want


def seeded_zero_dimensional(seed):
    """A zero-dimensional ideal of Q[x, y] or Q[x, y, z] drawn from `seed`,
    or None: random sparse quadrics, a finite point set with rational and
    conjugate points, or two square roots, each moved by an integer shear."""
    rnd = random.Random(seed)
    rng = R2 if seed % 2 else R3
    names = rng.variables
    if seed % 4 == 1:
        a, b = rnd.sample([2, 3, 5, -1, -2], 2)
        gens = [f"x^2 - ({a})", f"y^2 - ({b})"] + (["z - x"] if len(names) == 3 else [])
    elif seed % 4:
        gens = []
        for _ in names:
            terms = []
            for _ in range(rnd.randint(2, 4)):
                e = [0] * len(names)
                for _ in range(rnd.randint(0, 2)):
                    e[rnd.randrange(len(names))] += 1
                terms.append(f"({rnd.choice([-3, -2, -1, 1, 2, 3])})"
                             + "".join(f"*{v}^{k}" for v, k in zip(names, e) if k))
            gens.append(" + ".join(terms))
    else:
        a, b, c = (rnd.randint(-2, 2) for _ in range(3))
        root = rnd.choice(["(x^2 - 2)", "(x^2 + 1)", "(x - 1)", "(x^2 - x - 1)"])
        gens = [f"{root}*(x - ({a}))", f"y - ({b})*x - ({c})"] + (["z^2 - x"] if len(names) == 3 else [])
    shear = rnd.randint(-2, 2)
    gens = [g.replace("x", f"(x + ({shear})*y)") for g in gens]
    K = ideal(rng, ", ".join(gens))
    # colength 1 is a rational point, which the linear rule certifies
    if K.is_unit_ideal() or dimension(K) != 0 or not 1 < colength(K) <= 8:
        return None
    return K


SEEDED = [K for K in map(seeded_zero_dimensional, range(80)) if K is not None]


def monic_coefficients(f, var):
    top = max(f.terms, key=lambda m: m[var])
    return {m[var]: c / f.terms[top] for m, c in f.terms.items()}


@pytest.mark.parametrize("K", SEEDED, ids=lambda K: ", ".join(g.to_text() for g in K.gb()))
def test_minimal_polynomial_is_the_lex_eliminant(K):
    texts = [g.to_text() for g in K.generators]
    for var, name in enumerate(K.ring.variables):
        m = _minimal_polynomial(K, var)
        assert {i for mono in m.terms for i, e in enumerate(mono) if e} <= {var}
        assert monic_coefficients(m, var) == lex_eliminant(list(K.ring.variables), texts, name)


def test_seeded_corpus_reaches_every_verdict():
    kinds = {_certify_prime(K)[0] for K in SEEDED}
    assert len(SEEDED) >= 20 and kinds == {"prime", "split", "undecided"}


@pytest.mark.parametrize("K", [I(text) for text, _ in ZERO_DIMENSIONAL_VERDICTS] + SEEDED,
                         ids=lambda K: ", ".join(g.to_text() for g in K.gb()))
def test_zero_dimensional_verdict_does_not_depend_on_the_variable_order(K):
    texts = ", ".join(g.to_text() for g in K.generators)
    kind = _certify_prime(K)[0]
    for names in itertools.permutations(K.ring.variables):
        assert _certify_prime(ideal(ring(", ".join(names)), texts))[0] == kind


def test_each_minimal_polynomial_takes_one_echelon_over_colength_plus_one_remainders(monkeypatch):
    K = I("x^2 - y, y^2 - 2")
    divide = K._division()
    counts = {"echelon": 0, "remainder": 0}
    echelon, remainder = conesign.ideals._echelon, divide.remainder

    def counted_echelon(*args):
        counts["echelon"] += 1
        return echelon(*args)

    def counted_remainder(packed):
        counts["remainder"] += 1
        return remainder(packed)

    monkeypatch.setattr(conesign.ideals, "_echelon", counted_echelon)
    monkeypatch.setattr(divide, "remainder", counted_remainder)
    assert _minimal_polynomial(K, 1).to_text() == "y^2 - 2"
    assert counts == {"echelon": 1, "remainder": colength(K) + 1}


def test_the_unit_ideal_is_not_certified_prime():
    # its basis (1) is linear, but the unit ideal splits into no primes
    assert _certify_prime(I("1")) == ("split", [])
    assert _certify_prime(I("x - 1, x")) == ("split", [])


def test_irrational_point_pair_is_certified_without_sympy(monkeypatch):
    def no_sympy(*args):
        raise AssertionError("sympy factorization called")

    monkeypatch.setattr(conesign.factor, "_sympy_factor_list", no_sympy)
    assert _certify_prime(I("x^2 - 2, y")) == ("prime",)


def test_ideals_compare_and_hash_by_basis_without_rendering_it(monkeypatch):
    # x^3 = x*(x^2 - y) + x*y, so A and B present one ideal
    A = I("x^2 - y, x*y")
    B = I("x*y + x^2 - y, x*y, x^3")
    C = I("x, y")
    Z2, Z3 = IdealPresentation(R2, ()), IdealPresentation(R3, [Polynomial.zero(R3)])

    def no_text(self, order=None):
        raise AssertionError("an ideal was rendered as text")

    monkeypatch.setattr(Polynomial, "to_text", no_text)
    assert A == B and hash(A) == hash(B) and A != C
    assert B in {A} and C not in {A, Z2} and {A, C} == {B, C}
    # the zero ideals of two rings share the empty basis, not the ring
    assert Z2 != Z3 and Z2 == IdealPresentation(R2, [Polynomial.zero(R2)])
    assert len({Z2, Z3, A, B, C}) == 4


def test_from_reduced_basis_runs_no_buchberger(monkeypatch):
    K = I("x^2 - y, x*y - 1")
    G = K.gb()

    def no_run(*args, **kwargs):
        raise AssertionError("buchberger called on a reduced basis")

    monkeypatch.setattr(conesign.ideals, "buchberger", no_run)
    L = IdealPresentation.from_reduced_basis(K.ring, G)
    assert L.gb() == G
    assert [g.to_text() for g in L.generators] == ["y^2 - x", "x*y - 1", "x^2 - y"]
    assert L == K


def counted_buchberger(monkeypatch):
    """The list of the inputs (known, gens) of every Buchberger run from
    here on."""
    calls = []
    real = conesign.ideals.buchberger

    def counted(gens, order, *args, known=(), **kwargs):
        gens, known = list(gens), list(known)
        calls.append((known, gens))
        return real(gens, order, *args, known=known, **kwargs)

    monkeypatch.setattr(conesign.ideals, "buchberger", counted)
    return calls


def known_prefixes(calls):
    """The length of the known Groebner prefix of each run (0 from scratch)."""
    return [len(known) for known, *_ in calls]


def test_with_extra_extends_a_cached_basis(monkeypatch):
    K = I("x^2 - y, x*y - 1")
    f = parse_polynomial("x - 1", R2)
    calls = counted_buchberger(monkeypatch)
    first = K.with_extra((f,))  # K's basis is computed here, once
    G = K.gb()
    warm = K.with_extra((f,))
    assert warm.gb() == first.gb()
    assert known_prefixes(calls) == [0, len(G), len(G)]
    assert warm.generators == warm.gb()
    # the same answer as Buchberger from the generators
    assert warm.gb() == IdealPresentation(R2, warm.generators).gb() == I("x - 1, y - 1").gb()


def test_translate_carries_a_cached_basis_to_the_same_answer(monkeypatch):
    # the twisted-cubic-like curve moved to (1, 2, -1), twice
    point = (Fraction(1), Fraction(2), Fraction(-1))
    V = ideal(R3, "x*z - y^2 + z, y - x^2 + 3, z^2 - x*y")
    calls = counted_buchberger(monkeypatch)
    first = V.translate(point)  # V's basis is computed here, once
    G = V.gb()
    warm = V.translate(point)
    assert warm.gb() == first.gb()
    assert known_prefixes(calls) == [0, len(G), len(G)]
    assert warm.generators == warm.gb()
    # the same answer as Buchberger from the moved generators
    assert warm.gb() == IdealPresentation(R3, warm.generators).gb()
    # at the origin the ideal is its own translate
    assert V.translate((0, 0, 0)) is V


def test_a_derived_ideal_costs_one_move_per_basis_element_and_one_run(monkeypatch):
    V = ideal(R3, "x*z - y^2 + z, y - x^2 + 3, z^2 - x*y")
    G = V.gb()
    moved, real = [], Polynomial.translate

    def counted(f, point):
        moved.append(f)
        return real(f, point)

    monkeypatch.setattr(Polynomial, "translate", counted)
    calls = counted_buchberger(monkeypatch)
    V.translate((1, 2, -1))
    assert moved == list(G)
    calls.clear()
    V.with_extra((parse_polynomial("x*y*z", R3),))
    assert known_prefixes(calls) == [len(G)]


@pytest.mark.parametrize("text, floored, unfloored", [("x^2, x*y, x*z, y*z", 16, 44),
                                                      ("xy, xz, yz", 12, 16)])
def test_a_normal_cone_splits_no_candidate_below_its_dimension(
        monkeypatch, text, floored, unfloored):
    # the cone of an ideal of Q[x, y, z] has dimension 3 (Fulton B.6.6), and
    # so has each of its components; with the floor at 3 a candidate of lower
    # dimension is dropped unsplit, and each run derives a candidate
    C = normal_cone_ideal(I(text, R3))
    C.gb()
    calls = counted_buchberger(monkeypatch)
    kept = conesign.ideals._minimal_prime_list(C, 3)
    assert len(calls) == floored and all(known_prefixes(calls))
    assert [c.dimension for c in kept] == [3] * len(kept)
    calls.clear()
    assert conesign.ideals._minimal_prime_list(C) == kept
    assert len(calls) == unfloored


def test_derived_ideals_keep_their_reduced_basis(monkeypatch):
    J = I("y^2 - x^3, x*y - 1")
    J.gb()
    calls = counted_buchberger(monkeypatch)
    degree(J)
    dimension(J)
    assert calls == []
    # the one run is the elimination order's; the result keeps its w-free part
    E = eliminate(I("x - y^2, y^3 - 1"), ("y",))
    assert [g.to_text() for g in E.generators] == ["x^3 - 1"]
    E.gb()
    assert len(calls) == 1


def test_eliminate_of_a_derived_ideal_matches_a_fresh_presentation():
    # V's reduced degrevlex basis, which both derived ideals extend, is no
    # Groebner basis under the orders that eliminate a variable: elimination
    # starts from their generators
    V = ideal(R3, "x*z - y^2 + z, y - x^2 + 3, z^2 - x*y")
    for J in (V.with_extra((parse_polynomial("x*y*z", R3),)), V.translate((1, 2, -1))):
        fresh = IdealPresentation(R3, J.generators)
        for drop in ("x", "y", "z"):
            assert eliminate(J, (drop,)) == eliminate(fresh, (drop,))
    E = eliminate(V.with_extra((parse_polynomial("x*y*z", R3),)), ("y",))
    assert E == ideal(ring("x, z"), "z, x^2 - 3")


@st.composite
def small_ideals(draw):
    """(ring, generators): 1 to 3 generators of up to 3 terms over Q or
    GF(32003), in 2 or 3 variables with exponents at most 2; some rings
    already have a variable named h."""
    rng = ring(draw(st.sampled_from(["x, y", "x, y, z", "x, h", "h, x, y"])),
               characteristic=draw(st.sampled_from([0, 32003])))
    mono = st.tuples(*[st.integers(0, 2)] * rng.arity)
    terms = st.dictionaries(mono, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    polys = st.builds(lambda t: Polynomial(rng, t), terms)
    return rng, draw(st.lists(polys, min_size=1, max_size=3)), draw(polys)


@given(case=small_ideals(), shift=st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_derived_ideals_equal_the_ideals_of_their_moved_and_added_generators(case, shift):
    # a derived ideal keeps no moved generators of its parent, only the
    # basis one run extends from the parent's: the same ideal as the one
    # presented by the generators themselves
    rng, gens, f = case
    point = tuple(shift[:rng.arity])
    assume(any(point))
    V = IdealPresentation(rng, gens)
    for J, fresh in [(V.with_extra((f,)), IdealPresentation(rng, gens + [f])),
                     (V.translate(point),
                      IdealPresentation(rng, [g.translate(point) for g in gens]))]:
        assert J == fresh
        assert J.generators == J.gb()
        assert_handed_on_basis_is_reduced(J)


def assert_handed_on_basis_is_reduced(J):
    # the cached basis is the one Buchberger computes from scratch, and a
    # Groebner basis by a division routine that shares no code with the package
    G = J.gb()
    assert list(G) == buchberger(J.generators, degrevlex(J.ring))
    p = J.ring.characteristic
    basis = [g.terms for g in G]
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            assert division_remainder(s_pair(basis[a], basis[b], p), basis, p) == {}


@given(case=small_ideals(), drop=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_eliminate_and_saturate_hand_on_reduced_bases(case, drop):
    rng, gens, f = case
    J = IdealPresentation(rng, gens)
    E = eliminate(J, rng.variables[drop:drop + 1])
    assert_handed_on_basis_is_reduced(E)
    # the same elimination ideal through lex with the dropped variable first
    perm = (drop,) + tuple(i for i in range(rng.arity) if i != drop)
    column_map = [None if i == drop else i - (i > drop) for i in range(rng.arity)]
    by_lex = [g.remap(E.ring, column_map) for g in buchberger(gens, MonomialOrder("lex", perm))
              if drop not in g.support_variables()]
    assert E == IdealPresentation(E.ring, by_lex)
    assert_handed_on_basis_is_reduced(saturate(J, f))


@given(case=small_ideals())
@settings(max_examples=60, deadline=None)
def test_dimension_and_degree_agree_with_the_leads_and_the_projective_closure(case):
    rng, gens, _ = case
    J = IdealPresentation(rng, gens)
    order = degrevlex(rng)
    leads = [g.leading(order)[0] for g in J.gb()]
    assert dimension(J) == monomial_dimension(leads, rng.arity)
    if dimension(J) < 0:
        assert _lead_series(J) == ((), -1)
        return
    # the projective closure: homogenize the reduced basis with a fresh last
    # variable (no ring of small_ideals has a w)
    ext = rng.extend(("w",))
    Jh = IdealPresentation(ext, [
        Polynomial(ext, {m + (g.total_degree() - sum(m),): c for m, c in g.terms.items()})
        for g in J.gb()])
    assert degree(J) == degree(Jh)


@pytest.mark.parametrize("text, flag", [
    ("x^2 + y^2 + z^2", "certified"),
    ("x*y - z^2", "certified"),
    # rank 2: a product of two lines over C (or over Q)
    ("x^2 + y^2", "unknown"),
    ("x^2 - 2*y^2", "unknown"),
])
def test_geometric_flag_of_a_quadric_cone_follows_its_rank(text, flag):
    for perm in itertools.permutations(R3.variables):
        # the same polynomial text, read with the variables renamed
        moved = text.translate(str.maketrans(dict(zip("xyz", perm))))
        assert conesign.ideals._geometric_flag(I(moved, R3)) == flag


@pytest.mark.parametrize("text, flag", [
    ("y - x^2", "certified"),
    # a graph x_v = h in one element of a larger basis proves nothing: each
    # of these is a prime over Q but two points over C
    ("y, x^2 - 2", "unknown"),
    ("x - y^2, y^2 - 2", "unknown"),
])
def test_geometric_flag_reads_a_graph_only_in_a_principal_ideal(text, flag):
    assert conesign.ideals._geometric_flag(I(text)) == flag


# multiplicity along a component


def test_multiplicity_double_line():
    J = ideal(R1, "x^2")
    P = ideal(R1, "x")
    assert [(c.prime, c.multiplicity) for c in minimal_primes(J)] == [(P, 2)]
    assert zero_dim_multiplicity(J, P, []) == 2


def test_multiplicity_embedded_point_does_not_count():
    J = I("x^2, x*y")
    P = I("x")
    assert [(c.prime, c.multiplicity) for c in minimal_primes(J)] == [(P, 1)]
    # hand localization: slice with y = 1, where the embedded point is
    # invisible; the slice of J is (x^2, x) = (x), colength 1 over P's slice
    slice_J = ideal(R1, "x^2, x")
    slice_P = ideal(R1, "x")
    assert colength(slice_J) == colength(slice_P) == 1


def test_multiplicity_of_reduced_prime_is_one():
    for rng, text in [(R2, "y"), (R3, "x, y"), (R2, "y^2 - x^3")]:
        P = ideal(rng, text)
        assert [(c.prime, c.multiplicity) for c in minimal_primes(P)] == [(P, 1)]


def test_multiplicity_fat_components():
    J = I("x^2*y^3")
    comps = {tuple(g.to_text() for g in c.prime.generators): c.multiplicity
             for c in minimal_primes(J)}
    assert comps == {("x",): 2, ("y",): 3}


def test_a_decomposition_factors_each_irreducible_basis_element_once(monkeypatch):
    calls = []
    real = conesign.ideals.factor_polynomial

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(conesign.ideals, "factor_polynomial", counted)
    for J, factored in [(I("xy, xz, yz", R3), 6), (I("x^2, x*y, x*z, y*z", R3), 7),
                        (I("x*y, x*z", R3), 5), (I("(x^2 - y^2)*(x - 2)"), 4)]:
        calls.clear()
        conesign.ideals._minimal_prime_list(J)
        # x, y and z lie in the bases of several candidate primes, and
        # each is factored once
        assert len(calls) == factored
        assert all(sum(e for _, e in real(f)) > 1
                   for f in {f for f in calls if calls.count(f) > 1})


def linear_forms_through(point, vectors):
    """sum_j v_j * (x_j - p_j) in Q[x, y, z] for each coefficient vector v."""
    out = []
    for v in vectors:
        terms = {tuple(int(i == j) for i in range(3)): c for j, c in enumerate(v)}
        terms[(0, 0, 0)] = -sum(c * q for c, q in zip(v, point))
        out.append(Polynomial(R3, terms))
    return out


points = st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3)
directions = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@given(point=points, vectors=st.lists(directions, min_size=1, max_size=3),
       exponents=st.lists(st.integers(1, 3), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_multiplicity_of_a_product_of_hyperplanes_is_its_exponent(point, vectors, exponents):
    # distinct hyperplanes through one point: no two directions proportional
    assume(all(matrix_rank([u, v]) == 2 for u, v in itertools.combinations(vectors, 2)))
    forms = linear_forms_through(point, vectors)
    f = Polynomial.one(R3)
    for form, a in zip(forms, exponents):
        f = f * form**a
    J = IdealPresentation(R3, [f])
    primes = [IdealPresentation(R3, [form]) for form in forms]
    assert multiplicities(J, primes) == exponents[:len(primes)]


@given(point=points, line=st.lists(directions, min_size=2, max_size=2),
       other=st.lists(directions, min_size=1, max_size=2), a=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_multiplicity_along_a_power_of_a_line(point, line, other, a):
    # P is a line and Q a plane or another line, both through the point;
    # neither contains the other
    assume(matrix_rank(line) == 2 and matrix_rank(other) == len(other))
    assume(matrix_rank(line + other) == 3)
    l1, l2 = linear_forms_through(point, line)
    P = IdealPresentation(R3, [l1, l2])
    Q = IdealPresentation(R3, linear_forms_through(point, other))
    power = [l1**i * l2**(a - i) for i in range(a + 1)]
    J = IdealPresentation(R3, [p * q for p in power for q in Q.generators])
    # the length of R_P / P^a R_P counts the monomials of degree below a in
    # two variables
    assert multiplicities(J, [P, Q]) == [a * (a + 1) // 2, 1]
    assert multiplicities(J, [Q, P]) == [1, a * (a + 1) // 2]


def counting_saturations(monkeypatch):
    """The polynomials each later `saturate` call of `ideals` saturates by."""
    calls = []
    real = conesign.ideals.saturate

    def counted(J, f):
        calls.append(f)
        return real(J, f)

    monkeypatch.setattr(conesign.ideals, "saturate", counted)
    return calls


def test_a_decomposition_reads_its_multiplicities_off_one_chain_of_saturations(monkeypatch):
    calls = counting_saturations(monkeypatch)
    # deg (x^2 y) = 3 against 1 + 1 for the lines (x) and (y), so the degrees
    # leave a multiplicity open: (y) is saturated away, and what is left,
    # (x^2), has degree 2 along the line (x) of degree 1
    comps = minimal_primes(I("x^2*y"))
    assert [(c.prime.signature(), c.multiplicity) for c in comps] == [(("x",), 2), (("y",), 1)]
    assert [f.to_text() for f in calls] == ["y"]


def test_reduced_decompositions_take_no_saturation(monkeypatch):
    calls = counting_saturations(monkeypatch)
    # the degrees of the components add up to the degree of the ideal, and
    # each multiplicity is at least 1, so each is 1; the embedded origin of
    # the second ideal adds nothing to its degree
    for text, want in [("xy, xz, yz", [1, 1, 1]), ("x^2, x*y, x*z, y*z", [1, 1])]:
        assert [c.multiplicity for c in minimal_primes(I(text, R3))] == want
    assert calls == []


def test_the_first_of_three_axes_is_saturated_away_by_a_sum(monkeypatch):
    calls = counting_saturations(monkeypatch)
    # the x-axis (y, z) has multiplicity 2, so deg J = 4 leaves it open and
    # the chain saturates it away first; each of its basis elements lies on
    # one of the other two axes, which the degrees then close with no
    # saturation
    comps = minimal_primes(I("x*y^2, x*z, y*z", R3))
    assert [(c.prime.signature(), c.multiplicity) for c in comps] == [
        (("y", "x"), 1), (("z", "x"), 1), (("z", "y"), 2)]
    assert [f.to_text() for f in calls] == ["y + z"]


def test_the_chain_detects_a_missing_component_above_the_primes_it_holds():
    # the plane x = 0 of (xy, xz) is left out: J keeps it and stays of
    # dimension 2 at the line (y, z), which no saturation can remove
    with pytest.raises(ArithmeticError, match="saturation left extra components behind"):
        multiplicities(I("x*y, x*z", R3), [I("y, z", R3)])


def test_the_unit_ideal_has_no_component_and_takes_no_saturation(monkeypatch):
    calls = counting_saturations(monkeypatch)
    assert minimal_primes(I("x*y, x*y - 1")) == []
    assert minimal_primes(ideal(R3, "1")) == []
    assert calls == []


@pytest.mark.parametrize("P, others", [("x", ["x, y"]), ("x, y", ["x"]), ("x", ["x"])])
def test_nested_primes_in_a_multiplicity_raise(P, others):
    with pytest.raises(ValueError, match="nested primes"):
        multiplicities(I("x*y"), [I(P)] + [I(Q) for Q in others])


def test_a_prime_listed_twice_raises_where_the_degrees_close_the_chain(monkeypatch):
    calls = counting_saturations(monkeypatch)
    # deg (xy, xz, yz) = 3 = 1 + 1 + 1, but (y, z) twice is not three primes
    with pytest.raises(ValueError, match="nested primes"):
        multiplicities(I("xy, xz, yz", R3), [I("y, z", R3), I("x, z", R3), I("z, y", R3)])
    assert calls == []


DIRECTIONS = [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]


def seeded_linear_primes(rnd):
    """Rows (c_x, c_y, c_z, c_0) of 2 or 3 linear primes of Q[x, y, z],
    none containing another.  Their forms come from a pool of four: x + a*z,
    y + b*z and z, each shifted by a constant, and one more.  The reduced
    basis of the prime of the first two is those two forms, and each lies
    in any other prime that shares it, so such primes can reach the
    combined pick of a multiplicity, as the three axes do."""
    a, b = rnd.randint(-1, 1), rnd.randint(-1, 1)
    pool = [v + (rnd.randint(-1, 1),)
            for v in [(1, 0, a), (0, 1, b), (0, 0, 1), rnd.choice(DIRECTIONS)]]
    while True:
        primes = []
        for _ in range(rnd.choice((2, 3, 3, 3))):
            size = rnd.choice((1, 2, 2, 2, 2, 3))
            rows = rnd.sample(pool, size)
            # independent directions, so the forms have a common zero
            if matrix_rank([r[:3] for r in rows]) == size:
                primes.append(rows)
        if len(primes) > 1 and not any(linear_prime_contains(P, Q)
                                       for P, Q in itertools.permutations(primes, 2)):
            return primes


def affine_form(row):
    terms = {tuple(int(i == j) for i in range(3)): c for j, c in enumerate(row[:3])}
    terms[(0, 0, 0)] = row[3]
    return Polynomial(R3, terms)


def linear_prime_product(primes, exponents):
    """prod_j P_j^(a_j), generated by the products of one generator of
    each power."""
    powers = [[math.prod(f, start=Polynomial.one(R3))
               for f in itertools.combinations_with_replacement(map(affine_form, P), a)]
              for P, a in zip(primes, exponents)]
    return IdealPresentation(R3, [math.prod(f, start=Polynomial.one(R3))
                                  for f in itertools.product(*powers)])


def test_products_of_powers_of_linear_primes_match_the_oracle(monkeypatch):
    calls = counting_saturations(monkeypatch)
    fallbacks = 0
    for seed in range(40):
        rnd = random.Random(seed)
        rows = seeded_linear_primes(rnd)
        exponents = [rnd.randint(1, 2) for _ in rows]
        primes = [IdealPresentation(R3, map(affine_form, P)) for P in rows]
        calls.clear()
        comps = minimal_primes(linear_prime_product(rows, exponents))
        got = {c.prime.gb(): c.multiplicity for c in comps}
        want = dict(zip((P.gb() for P in primes), linear_product_multiplicities(rows, exponents)))
        assert got == want, seed
        bases = {g for P in primes for g in P.gb()}
        fallbacks += any(f not in bases for f in calls)
    # the corpus reaches the pick of a combination of basis elements
    assert fallbacks


def test_a_reduced_product_of_linear_primes_saturates_only_above_its_least_dimension(
        monkeypatch):
    # the chain stops once every remaining prime has the least dimension
    calls = counting_saturations(monkeypatch)
    equidimensional = 0
    for seed in range(40):
        rows = seeded_linear_primes(random.Random(seed))
        primes = [IdealPresentation(R3, map(affine_form, P)) for P in rows]
        calls.clear()
        comps = minimal_primes(linear_prime_product(rows, [1] * len(rows)))
        assert {c.prime.gb(): c.multiplicity for c in comps} == {P.gb(): 1 for P in primes}, seed
        least = min(c.dimension for c in comps)
        assert len(calls) == sum(c.dimension > least for c in comps), seed
        equidimensional += not calls
    assert equidimensional


def test_the_order_of_the_other_primes_does_not_change_a_multiplicity():
    for seed in range(20):
        rnd = random.Random(seed)
        rows = seeded_linear_primes(rnd)
        exponents = [rnd.randint(1, 2) for _ in rows]
        J = linear_prime_product(rows, exponents)
        primes = [IdealPresentation(R3, map(affine_form, P)) for P in rows]
        want = linear_product_multiplicities(rows, exponents)
        for P, a in zip(primes, want):
            others = [Q for Q in primes if Q is not P]
            for _ in range(2):
                rnd.shuffle(others)
                assert multiplicities(J, [P, *others])[0] == a, seed


# tangent machinery


def test_jacobian_shapes():
    assert [[e.to_text() for e in row] for row in jacobian(I("x*y"))] == [["y", "x"]]
    assert [[e.to_text() for e in row] for row in jacobian(I("x^2, y^3"))] == [
        ["2*x", "0"],
        ["0", "3*y^2"],
    ]
    assert jacobian(ideal(R2, "0")) == []


def test_tangent_dimension_at_points():
    assert tangent_dimension_at_point(I("x*y"), (0, 0)) == 2
    assert tangent_dimension_at_point(I("x*y"), (1, 0)) == 1
    assert tangent_dimension_at_point(I("y^2, x*y"), (0, 0)) == 2
    with pytest.raises(PointNotOnVarietyError):
        tangent_dimension_at_point(I("x*y"), (1, 1))


def test_tangent_dimension_accepts_fractions():
    J = I("y - x^2")
    assert tangent_dimension_at_point(J, (Fraction(1, 2), Fraction(1, 4))) == 1


def test_generic_tangent_dimension_three_axes():
    J = I("xy, xz, yz", R3)
    P = I("y, z", R3)
    assert generic_tangent_dimension(J, P) == 1


def test_generic_tangent_dimension_fat_line():
    assert generic_tangent_dimension(ideal(R1, "x^2"), ideal(R1, "x")) == 1


def test_generic_tangent_dimension_smooth_hypersurface():
    J = I("y - x^2")
    assert generic_tangent_dimension(J, J) == 1


def test_generic_tangent_dimension_dominates_dimension():
    cases = [
        (I("xy, xz, yz", R3), I("x, y", R3)),
        (I("y^2, x*y"), I("y")),
        (I("x^2, x*y"), I("x")),
        (I("y - x^2"), I("y - x^2")),
        (I("x", R3), I("x", R3)),
    ]
    for J, P in cases:
        assert generic_tangent_dimension(J, P) >= dimension(P)


def test_generic_tangent_equality_on_smooth_examples():
    for rng, text in [(R2, "y"), (R2, "y - x^2"), (R3, "x"), (R3, "x, y")]:
        J = ideal(rng, text)
        assert generic_tangent_dimension(J, J) == dimension(J)


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
cubic_exponents = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
term_dicts = st.dictionaries(cubic_exponents, small_rationals, min_size=1, max_size=5)


def value_at(terms, p):
    return sum((c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
                for e, c in terms.items()), Fraction(0))


def gradient_at(terms, p):
    row = []
    for i in range(3):
        total = Fraction(0)
        for e, c in terms.items():
            if e[i]:
                rest = [p[j] ** (e[j] - (j == i)) for j in range(3)]
                total += c * e[i] * rest[0] * rest[1] * rest[2]
        row.append(total)
    return row


@given(p=st.tuples(small_rationals, small_rationals, small_rationals),
       gens=st.lists(term_dicts, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_generic_tangent_dimension_at_a_point_matches_the_jacobian_rank(p, gens):
    # shifting each generator by its value at p puts p on the zero set
    shifted = []
    for terms in gens:
        terms = dict(terms)
        terms[0, 0, 0] = terms.get((0, 0, 0), 0) - value_at(terms, p)
        shifted.append(terms)
    J = IdealPresentation(R3, [Polynomial(R3, t) for t in shifted])
    P = ideal(R3, ", ".join(f"{v} - ({c})" for v, c in zip("xyz", p)))
    expected = 3 - matrix_rank([gradient_at(t, p) for t in shifted])
    assert generic_tangent_dimension(J, P) == expected


def test_generic_tangent_dimension_along_the_twisted_cubic():
    P = I("y - x^2, z - x^3", R3)
    for text, expected in [
        ("y - x^2, z - x^3", 1),
        ("y - x^2, (z - x^3)^2", 2),
        ("(y - x^2)*(z - x^3), x*(z - x^3)^2, (y - x^2)^3", 3),
    ]:
        assert generic_tangent_dimension(I(text, R3), P) == expected


# standard monomials and colength


def test_standard_monomials_of_fat_point():
    J = I("x^2, y^2")
    divide = J._division()
    sm = {divide.pk.fields(t) for t in divide.standard_terms()}
    assert sm == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert colength(J) == 4


def test_colength_rejects_positive_dimension():
    with pytest.raises(InfiniteColengthError):
        colength(I("x"))


def random_ideal(rnd, characteristic):
    """One to four generators of degree at most 2 in two or three
    variables: mostly finite quotients, some positive-dimensional ones and
    some unit ideals."""
    rng = ring(rnd.choice(["x, y", "x, y, z"]), characteristic=characteristic)
    monomials = [m for m in itertools.product(range(3), repeat=rng.arity) if sum(m) <= 2]
    gens = [Polynomial(rng, {rnd.choice(monomials): rnd.choice([-3, -2, -1, 1, 2, 3])
                             for _ in range(rnd.randint(1, 4))})
            for _ in range(rnd.randint(1, rng.arity + 1))]
    return IdealPresentation(rng, gens)


@pytest.mark.parametrize("characteristic", [0, 7])
def test_colength_counts_the_standard_monomials_of_the_leads(characteristic):
    # the count, degree by degree, of monomials outside the degrevlex leads,
    # by an oracle that shares no code with the package; the standard
    # monomials are closed under division, so the first empty degree ends it
    rnd = random.Random(characteristic)
    seen = set()
    for _ in range(60):
        J = random_ideal(rnd, characteristic)
        n = J.ring.arity
        leads = [g.leading(degrevlex(J.ring))[0] for g in J.gb()]
        if J.is_unit_ideal():
            assert colength(J) == 0 and dimension(J) == -1
            seen.add("unit")
        elif monomial_dimension(leads, n) > 0:
            with pytest.raises(InfiniteColengthError):
                colength(J)
            seen.add("infinite")
        else:
            counts = (monomial_hilbert_count(leads, n, d) for d in itertools.count())
            assert colength(J) == sum(itertools.takewhile(bool, counts))
            seen.add("finite")
    assert seen == {"unit", "infinite", "finite"}


def test_ideal_equality_by_signature():
    A = I("y^2 - x^3, x")
    B = I("x, y^2")
    assert same_ideal(A, B)
    assert not same_ideal(A, I("x"))
