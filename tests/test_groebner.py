import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import (
    division_remainder,
    grevlex_key,
    matrix_rank,
    module_division_remainder,
    module_s_pair,
    module_term_key,
    monomial_syzygies,
    s_pair,
    schreyer_syzygies,
)

from conesign import (
    BoundExceededError,
    ModuleVector,
    RingMismatchError,
    buchberger,
    degrevlex,
    elimination_order,
    lex,
    module_buchberger,
    parse_generators,
    parse_polynomial,
    ring,
)
from conesign import groebner
from conesign.groebner import (
    _Divider,
    _packing,
    _reduce_terms,
    _syzygies,
    _vector,
)
from conesign.poly import Polynomial

R2 = ring("x, y")
R3 = ring("x, y, z")


def gens(text, rng=R2):
    return parse_generators(text, rng)


def gb_texts(generators, order):
    return [g.to_text() for g in buchberger(generators, order)]


def normal_form(f, basis, order):
    """Remainder of f under division by `basis`, through the division builder."""
    return Polynomial(f.ring, _Divider(basis, order)(f.terms), normalize=False)


def degrevlex_spoly(f, g):
    return Polynomial(f.ring, s_pair(f.terms, g.terms))


def lex_spoly(f, g):
    """S-polynomial of f and g under lex, both leading terms made 1."""
    (lf, cf), (lg, cg) = f.leading(lex(f.ring)), g.leading(lex(f.ring))
    lcm = tuple(map(max, lf, lg))

    def cofactor(lt, c):
        return Polynomial(f.ring, {tuple(a - b for a, b in zip(lcm, lt)): 1 / c})

    return cofactor(lf, cf) * f - cofactor(lg, cg) * g


# corpus of ideals reused by the property tests below
CORPUS = [
    (R2, "x, y"),
    (R2, "y^2, x*y"),
    (R2, "x^2"),
    (R2, "y - x^2, x"),
    (R2, "y^2 - x^3"),
    (R2, "x^2 - y, x^3 - x"),
    (R3, "xy, xz, yz"),
    (R3, "x*z - y^2, x*w - y*z".replace("w", "z")),
    (R3, "x^2 + y^2 + z^2 - 1, x - y"),
    (R3, "x^2*y - z, y^2 - x"),
]


def test_normal_form_kills_multiples():
    x = parse_polynomial("x", R2)
    assert normal_form(parse_polynomial("x^2", R2), [x], degrevlex(R2)).is_zero()


def test_normal_form_division_identity():
    # x^2*y + y = x*(x*y - 1) + (x + y), so the remainder is x + y
    f = parse_polynomial("x^2*y + y", R2)
    d = parse_polynomial("x*y - 1", R2)
    quotient = parse_polynomial("x", R2)
    remainder = parse_polynomial("x + y", R2)
    assert quotient * d + remainder == f
    assert normal_form(f, [d], degrevlex(R2)) == remainder


def test_normal_form_by_a_non_monic_list_is_the_plain_division_remainder():
    # the divisors are no Groebner basis and none is monic: the remainder is
    # the exact one of plain division, in Fractions, term for term
    order = degrevlex(R3)
    divisors = gens("-3*x^2*y + 2/7*z, 5*y^2 - x*z + 1, 4/9*x*z^2 - y", R3)
    rnd = random.Random(11)
    monos = ["1", "x", "y", "z", "x*y", "y*z", "x^2", "z^2"]
    for _ in range(20):
        f = Polynomial.zero(R3)
        for _ in range(4):
            m = parse_polynomial("*".join(rnd.choice(monos) for _ in range(3)), R3)
            f = f + Polynomial.constant(R3, Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))) * m
        r = normal_form(f, divisors, order)
        assert r.terms == division_remainder(f.terms, [g.terms for g in divisors])
        assert all(isinstance(c, Fraction) for c in r.terms.values())


def test_fraction_free_reduction_records_quotients_of_a_multiple():
    # primitive integer divisors whose leads are not 1: the kernel returns the
    # remainder of a nonzero multiple c*f, and its quotients are those of c*f
    # (the kernel takes packed terms; they are unpacked for the checks)
    order = degrevlex(R3)
    pk = _packing(order)
    divisors = gens("6*x^2*y + 4*z - 1, 4*y^2 - 9*x*z, 10*x*z^2 - 3*y", R3)
    lts = [pk.pack({g.leading(order)[0]: 1}).popitem()[0] for g in divisors]
    f = parse_polynomial("7*x^3*y^3 + 5*x^2*y*z^2 - 2*x*y^2*z + 3", R3)
    terms = pk.pack({m: int(c) for m, c in f.terms.items()})
    quotients = [{} for _ in divisors]
    rem, multiplier = _reduce_terms(terms, [pk.pack({m: int(c) for m, c in g.terms.items()})
                                            for g in divisors], lts, pk, 0, quotients)
    rem = pk.unpack(rem)
    total = Polynomial(R3, rem)
    for q, g in zip(quotients, divisors):
        total = total + Polynomial(R3, pk.unpack(q)) * g
    lead, c = f.leading(order)
    multiple = total.terms[lead] / c
    assert multiple != 1 and total == f * multiple
    assert Polynomial(R3, rem) == normal_form(f, divisors, order) * multiple
    assert multiplier == multiple


@st.composite
def non_monic_divisions(draw):
    """(ring, generators, f): one or two integer generators of up to three
    terms in 2 or 3 variables, and f with Fraction coefficients."""
    rng = draw(st.sampled_from([R2, R3]))
    mono = st.tuples(*[st.integers(0, 2)] * rng.arity)
    terms = st.dictionaries(mono, st.integers(-6, 6).filter(bool), min_size=2, max_size=3)
    generators = draw(st.lists(st.builds(lambda t: Polynomial(rng, t), terms),
                               min_size=1, max_size=2))
    coeff = st.fractions(-5, 5, max_denominator=7).filter(bool)
    f = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * rng.arity), coeff,
                             min_size=1, max_size=5))
    return rng, generators, Polynomial(rng, f)


@given(case=non_monic_divisions())
@settings(max_examples=80, deadline=None)
def test_division_by_a_basis_with_non_unit_primitive_leads_matches_the_oracle(case):
    # over Q the divisors are the primitive integer multiples of the basis;
    # a basis element with a non-integral coefficient has one whose lead is
    # not 1, so the division runs fraction-free with a multiplier
    rng, generators, f = case
    order = degrevlex(rng)
    basis = buchberger(generators, order)
    assume(any(c.denominator > 1 for g in basis for c in g.terms.values()))
    r = _Divider(basis, order)(f.terms)
    assert r == division_remainder(f.terms, [g.terms for g in basis])
    assert all(isinstance(c, Fraction) for c in r.values())


def test_a_term_that_cancels_and_comes_back_is_taken_up_once():
    # x^3 falls to the first divisor, whose tail cancels x*y; y^3 falls to
    # the second, whose tail brings x*y back before it comes up, so the term
    # heap holds x*y twice and must take it up once, with y still to come
    f_text, divisor_text = "x^3 + x*y + y^3 + y", "x^3 + x*y, y^3 - 2*x*y"
    for p in (0, 32003):
        rng = ring("x, y", characteristic=p)
        f, divisors = parse_polynomial(f_text, rng), gens(divisor_text, rng)
        r = normal_form(f, divisors, degrevlex(rng))
        assert r.terms == division_remainder(f.terms, [g.terms for g in divisors], p)
        assert r == parse_polynomial("2*x*y + y", rng)


def test_exponents_from_2_to_the_15_exceed_the_engine_bound():
    order = degrevlex(R3)
    x, y, z = (Polynomial.variable(R3, v) for v in "xyz")
    top = 2 ** 15 - 1
    assert buchberger([x ** top - y], order) == [x ** top - y]
    assert normal_form(y * x ** top, [x ** top - y], order) == y * y
    big = x ** (top + 1) - y
    for run in (lambda: buchberger([big], order),
                lambda: normal_form(big, [y], order),
                lambda: normal_form(y, [big], order),
                lambda: module_buchberger([ModuleVector((big, y))], order)):
        with pytest.raises(BoundExceededError):
            run()
    # a product inside the reduction that reaches 2^15 is caught before any
    # divisibility test reads it: x*y*z^k falls to x*y - z^2, leaving z^(k+2)
    assert normal_form(x * y * z ** (top - 2), [x * y - z * z], order) == z ** top
    with pytest.raises(BoundExceededError):
        normal_form(x * y * z ** (top - 1), [x * y - z * z], order)


def test_normal_form_of_own_generator_is_zero():
    G = gens("y^2, x*y")
    for g in G:
        assert normal_form(g, G, degrevlex(R2)).is_zero()


def test_normal_form_avoids_leading_terms():
    order = degrevlex(R2)
    G = buchberger(gens("y^2, x*y"), order)
    r = normal_form(parse_polynomial("x^2*y + x^2 + y^2", R2), G, order)
    leads = [g.leading(order)[0] for g in G]
    for mono in r.terms:
        assert not any(all(a >= b for a, b in zip(mono, lt)) for lt in leads)


def test_buchberger_fixes_a_reduced_basis():
    assert sorted(gb_texts(gens("x, y"), degrevlex(R2))) == ["x", "y"]


def test_buchberger_pair_already_closed():
    # the S-polynomial of y^2 and x*y reduces to zero, so nothing is added
    order = degrevlex(R2)
    G = gens("y^2, x*y")
    assert normal_form(degrevlex_spoly(G[0], G[1]), G, order).is_zero()
    assert sorted(gb_texts(G, order)) == ["x*y", "y^2"]


def test_buchberger_lex_elimination_by_hand():
    # x*(x^2 - y) - (x^3 - x) = x - x*y, and reducing once more yields
    # y^2 - y; the lex basis must contain it
    order = lex(R2)
    f, g = gens("x^2 - y, x^3 - x")
    x = parse_polynomial("x", R2)
    step = x * f - g
    assert step == parse_polynomial("x - x*y", R2)
    basis = gb_texts([f, g], order)
    assert "y^2 - y" in basis
    for p in buchberger([f, g], order):
        for q in buchberger([f, g], order):
            s = lex_spoly(p, q)
            assert normal_form(s, buchberger([f, g], order), order).is_zero()


def test_reduced_basis_is_monic_and_interreduced():
    order = degrevlex(R3)
    G = buchberger(gens("2*x*y + z, 3*y^2 - z", R3), order)
    for g in G:
        assert g.leading(order)[1] == Fraction(1)
    leads = [g.leading(order)[0] for g in G]
    for i, g in enumerate(G):
        for mono in g.terms:
            for j, lt in enumerate(leads):
                if i != j:
                    assert not all(a >= b for a, b in zip(mono, lt))


@pytest.mark.parametrize("rng,text", CORPUS)
def test_reduced_basis_unique_under_shuffling(rng, text):
    order = degrevlex(rng)
    base = gens(text, rng)
    reference = gb_texts(base, order)
    rnd = random.Random(20240817)
    for _ in range(20):
        shuffled = list(base)
        rnd.shuffle(shuffled)
        # mix in a random combination of the originals as a redundant gen
        extra = Polynomial.zero(rng)
        for g in base:
            extra = extra + Polynomial.constant(rng, rnd.randint(-2, 2)) * g
        if not extra.is_zero():
            shuffled.append(extra)
        assert gb_texts(shuffled, order) == reference


@pytest.mark.parametrize("rng,text", CORPUS)
def test_membership_of_random_combinations(rng, text):
    order = degrevlex(rng)
    base = gens(text, rng)
    G = buchberger(base, order)
    rnd = random.Random(7)
    monos = ["1", "x", "y", "x*y", "x^2"]
    for _ in range(10):
        f = Polynomial.zero(rng)
        for g in base:
            m = parse_polynomial(rnd.choice(monos), rng)
            f = f + Polynomial.constant(rng, rnd.randint(-3, 3)) * m * g
        assert normal_form(f, G, order).is_zero()


@pytest.mark.parametrize("rng,text", CORPUS)
def test_normal_form_idempotent(rng, text):
    order = degrevlex(rng)
    G = buchberger(gens(text, rng), order)
    probe = parse_polynomial("x^3 + 2*x*y - y + 5", rng)
    r = normal_form(probe, G, order)
    assert normal_form(r, G, order) == r


@pytest.mark.parametrize("rng,text", CORPUS)
def test_all_spolynomials_of_result_reduce_to_zero(rng, text):
    order = degrevlex(rng)
    G = buchberger(gens(text, rng), order)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            s = degrevlex_spoly(G[i], G[j])
            assert normal_form(s, G, order).is_zero()


def test_cross_characteristic_leading_terms_agree():
    # probabilistic sanity check, not a proof: over a large prime the
    # leading-term ideal of integer-coefficient inputs should match Q
    p = 32003
    for rng, text in CORPUS:
        rp = ring(", ".join(rng.variables), characteristic=p)
        order_q, order_p = degrevlex(rng), degrevlex(rp)
        gq = buchberger(gens(text, rng), order_q)
        gp = buchberger(gens(text, rp), order_p)
        assert sorted(g.leading(order_q)[0] for g in gq) == sorted(
            g.leading(order_p)[0] for g in gp
        )


def test_pair_budget_binds():
    fs = gens("x^2 - y, x*y - 1")
    order = degrevlex(R2)
    assert gb_texts(fs, order) == ["y^2 - x", "x*y - 1", "x^2 - y"]
    with pytest.raises(BoundExceededError):
        buchberger(fs, order, max_pairs=1)


def katsura(n):
    """Generators of katsura-n in u0..un: u_(-i) = u_i, and u_i = 0 for i > n."""
    def u(i):
        return f"u{abs(i)}" if abs(i) <= n else None

    lines = [" + ".join(["u0"] + [f"2*u{i}" for i in range(1, n + 1)]) + " - 1"]
    for m in range(n):
        products = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        lines.append(" + ".join(products) + f" - u{m}")
    return ",".join(lines)


def test_katsura4_basis_over_q_is_exact_and_reduces_to_the_char_p_basis():
    # the engine works on integers over Q; the basis it emits is checked by
    # division routines that share no code with it, and taken mod p
    p = 32003
    names = ", ".join(f"u{i}" for i in range(5))
    rq, rp = ring(names), ring(names, characteristic=p)
    fs = gens(katsura(4), rq)
    G = buchberger(fs, degrevlex(rq))
    basis = [g.terms for g in G]
    assert len(basis) == 13
    for f in fs:
        assert division_remainder(f.terms, basis) == {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            assert division_remainder(s_pair(basis[a], basis[b]), basis) == {}
    # p divides no denominator, so p is lucky here: the image of the reduced
    # Q basis is the reduced basis mod p
    assert all(c.denominator % p for g in basis for c in g.values())
    image = [{m: c.numerator * pow(c.denominator, -1, p) % p for m, c in g.items()}
             for g in basis]
    assert image == [g.terms for g in buchberger(gens(katsura(4), rp), degrevlex(rp))]


def cyclic(n):
    """Generators of cyclic-n in u0..u(n-1)."""
    lines = [" + ".join("*".join(f"u{(i + j) % n}" for j in range(k)) for i in range(n))
             for k in range(1, n)]
    return ",".join(lines + ["*".join(f"u{i}" for i in range(n)) + " - 1"])


DENSE = {"katsura-5": (6, katsura(5)), "katsura-6": (7, katsura(6)),
         "cyclic-5": (5, cyclic(5)), "cyclic-6": (6, cyclic(6))}


def dense_ideal(name, p=0):
    nvars, text = DENSE[name]
    rng = ring(", ".join(f"u{i}" for i in range(nvars)), characteristic=p)
    return rng, gens(text, rng)


@pytest.mark.parametrize("name, most", [("katsura-5", 0), ("cyclic-5", 0), ("katsura-6", 0),
                                        ("cyclic-6", 16)])
@pytest.mark.parametrize("p", [0, 32003])
def test_signatures_leave_few_reductions_to_zero(name, most, p, monkeypatch):
    # the principal-syzygy and rewrite criteria drop what Gebauer-Moeller
    # cannot: under pair criteria alone 48 of katsura-5's 66 S-polynomials
    # and 441 of cyclic-6's 620 reduced to zero.  cyclic-6 now reduces 8 of
    # 163 to zero; the bound leaves room for another pair order, but not for
    # forgetting the signatures that reduced to zero (42)
    zero = []

    def counted(*args, **kwargs):
        rem, lam = reduce_terms(*args, **kwargs)
        zero.append(not rem)
        return rem, lam

    reduce_terms = groebner._reduce_terms
    monkeypatch.setattr(groebner, "_reduce_terms", counted)
    rng, fs = dense_ideal(name, p)
    buchberger(fs, degrevlex(rng))
    assert zero and sum(zero) <= most


def image_mod(terms, p):
    """The image mod p of a term dict over Q, or None when p divides a
    denominator."""
    if any(Fraction(c).denominator % p == 0 for c in terms.values()):
        return None
    image = {m: Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p
             for m, c in terms.items()}
    return {m: c for m, c in image.items() if c}


def lucky_image(fs, p):
    """(the image mod p of the degrevlex reduced basis of fs over Q, the
    reduced basis of the image of fs in characteristic p), as term dicts,
    or None when p is unlucky.

    p is unlucky when it divides a denominator of fs or of the Q basis G,
    or when the two bases have different leads.  Otherwise G has
    coefficients in Z localized at p, so the image of the Q ideal's integral
    part is spanned by the images of m - NF(m) for the leads m of the
    ideal, and holds the image of fs: both ideals mod p then have the leads
    of G, so they are equal and the image of G is their reduced basis.
    Lucky or not, when p divides no denominator every char-p lead is a
    multiple of a lead of G, which is asserted."""
    G = [g.terms for g in buchberger(fs, degrevlex(fs[0].ring))]
    images = [image_mod(g, p) for g in [f.terms for f in fs] + G]
    if None in images:
        return None
    rp = ring(", ".join(fs[0].ring.variables), characteristic=p)
    Gp = [g.terms for g in buchberger([Polynomial(rp, t) for t in images[:len(fs)]],
                                       degrevlex(rp))]
    leads = [max(g, key=grevlex_key) for g in G]
    leads_p = [max(g, key=grevlex_key) for g in Gp]
    assert all(any(all(a >= b for a, b in zip(m, lt)) for lt in leads) for m in leads_p)
    if sorted(leads_p) != sorted(leads):
        return None
    return images[len(fs):], Gp


@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_bases_over_q_reduce_to_their_char_p_bases(name):
    image, basis_p = lucky_image(dense_ideal(name)[1], 32003)
    assert image == basis_p


def test_a_prime_that_divides_no_denominator_can_still_be_unlucky():
    # (x + y, x + y + 3z) has the basis (x + y, z) over Q, with no
    # denominator, but mod 3 both generators are x + y
    fs = gens("x + y, x + y + 3*z", R3)
    G = buchberger(fs, degrevlex(R3))
    assert [g.to_text() for g in G] == ["z", "x + y"]
    assert lucky_image(fs, 3) is None
    assert lucky_image(fs, 5)


def small_polynomials(rng):
    """Polynomials of up to 3 terms with exponents at most 2.  Coefficients
    are rationals with numerators and denominators up to 10^6 in size, the
    numerator drawn as a magnitude and a sign; mod p, no denominator is a
    multiple of p."""
    p = rng.characteristic
    mono = st.tuples(*[st.integers(0, 2)] * rng.arity)
    coeff = st.builds(lambda sign, num, den: Fraction(sign * num, den),
                      st.sampled_from((1, -1)), st.integers(1, 10**6),
                      st.integers(1, 10**6).filter(lambda d: not p or d % p))
    return st.builds(lambda t: Polynomial(rng, t),
                     st.dictionaries(mono, coeff, min_size=1, max_size=3))


@st.composite
def small_ideals(draw, characteristics=(0, 32003)):
    """(ring, generators): up to 3 small polynomials over Q or GF(32003), in
    2 or 3 variables."""
    p = draw(st.sampled_from(characteristics))
    rng = ring(draw(st.sampled_from(["x, y", "x, y, z"])), characteristic=p)
    return rng, draw(st.lists(small_polynomials(rng), min_size=1, max_size=3))


@given(ideal=small_ideals(characteristics=(0,)),
       p=st.sampled_from([2, 3, 5, 32003]))
@settings(max_examples=60, deadline=None)
def test_a_lucky_prime_maps_the_q_basis_to_the_char_p_basis(ideal, p):
    got = lucky_image(ideal[1], p)
    if got is None:
        event(f"unlucky prime {p}")
        return
    event(f"lucky prime {p}")
    image, basis_p = got
    assert image == basis_p


def oracle_order(kind, rng):
    """(the package's order of `kind` on rng, the oracle's sort key of the
    same order, written apart from the package): degrevlex, lex, or the
    block order eliminating y, degrevlex on y and then on the others."""
    if kind == "degrevlex":
        return degrevlex(rng), grevlex_key
    if kind == "lex":
        return lex(rng), tuple
    return elimination_order(rng, ["y"]), lambda e: (grevlex_key(e[1:2]),
                                                     grevlex_key(e[:1] + e[2:]))


def assert_groebner_basis(basis, generators, p, key):
    """Every generator and every S-polynomial of `basis`, all term dicts,
    divides to zero by `basis`, by the oracle's division that shares no code
    with the package."""
    for f in generators:
        assert division_remainder(f, basis, p, key) == {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            assert division_remainder(s_pair(basis[a], basis[b], p, key), basis, p, key) == {}


def check_reduced_basis(ideal, kind, rnd):
    rng, fs = ideal
    order, key = oracle_order(kind, rng)
    G = buchberger(fs, order)
    assert_groebner_basis([g.terms for g in G], [f.terms for f in fs], rng.characteristic, key)
    # shuffled, scaled, and joined by a redundant combination: same basis
    moved = [f * rnd.choice([-1, 2, 3, Fraction(1, 2)]) for f in fs]
    rnd.shuffle(moved)
    shift = Polynomial.from_monomial(rng, [rnd.randint(0, 1) for _ in range(rng.arity)])
    moved.append(rnd.choice(fs) * shift + rnd.choice(fs))
    assert buchberger(moved, order) == G


@given(ideal=small_ideals(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_reduced_basis_is_a_groebner_basis_and_invariant(ideal, rnd):
    check_reduced_basis(ideal, "degrevlex", rnd)


@given(ideal=small_ideals(), kind=st.sampled_from(["lex", "block"]),
       rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_reduced_basis_under_lex_and_a_block_order_is_a_groebner_basis_and_invariant(
        ideal, kind, rnd):
    # the order of signatures follows the order of the run
    check_reduced_basis(ideal, kind, rnd)


@st.composite
def extended_ideals(draw):
    """(ring, generators, extra): a small ideal and 1 or 2 more polynomials."""
    rng, fs = draw(small_ideals())
    return rng, fs, draw(st.lists(small_polynomials(rng), min_size=1, max_size=2))


def check_run_from_a_known_basis(case, kind, rnd):
    rng, fs, extra = case
    order, key = oracle_order(kind, rng)
    G = buchberger(fs, order)
    known = list(G)
    if G and rnd.random() < 0.5:
        # any Groebner basis may be the known part, not only a reduced one
        shift = Polynomial.from_monomial(rng, [rnd.randint(0, 1) for _ in range(rng.arity)])
        known.insert(rnd.randint(0, len(G)), rnd.choice(G) * shift)
    got = buchberger(extra, order, known=known)
    assert got == buchberger(G + extra, order)
    # and a Groebner basis of G + extra
    assert_groebner_basis([g.terms for g in got], [f.terms for f in fs + extra],
                          rng.characteristic, key)


@given(case=extended_ideals(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_run_from_a_known_basis_equals_the_run_from_scratch(case, rnd):
    check_run_from_a_known_basis(case, "degrevlex", rnd)


@given(case=extended_ideals(), kind=st.sampled_from(["lex", "block"]),
       rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_run_from_a_known_basis_under_lex_and_a_block_order_equals_the_run_from_scratch(
        case, kind, rnd):
    check_run_from_a_known_basis(case, kind, rnd)


# syzygies


def module_contract(syz: ModuleVector, vectors) -> ModuleVector:
    total = [Polynomial.zero(vectors[0].ring)] * vectors[0].rank
    for coeff, v in zip(syz.components, vectors):
        total = [t + coeff * c for t, c in zip(total, v.components)]
    return ModuleVector(tuple(total))


def schreyer(G, order):
    """(divisors, syzygies) of a Groebner basis G of module vectors, or of
    polynomials taken as vectors of rank 1: the divider's normalized
    divisors, as ModuleVectors, and the Schreyer syzygies of `_syzygies`,
    which are stated for those divisors, each as a ModuleVector over them."""
    G = [g if isinstance(g, ModuleVector) else ModuleVector((g,)) for g in G]
    divide = _Divider(G, order)
    rng, pk = divide.ring, divide.pk

    def shifts(d):
        # a shift has no position fields, so its monomial is what is left
        return Polynomial(rng, {pk.fields(t)[pk.rank:]: c for t, c in d.items()})

    return ([_vector(rng, pk.rank, pk.unpack(d)) for d in divide.divisors],
            [ModuleVector([shifts(d) for d in syz]) for syz in _syzygies(divide)])


def test_a_module_vector_needs_components_over_one_ring():
    x, y = gens("x, y")
    assert ModuleVector([x, y]).components == (x, y)
    with pytest.raises(ValueError):
        ModuleVector(())
    with pytest.raises(RingMismatchError):
        ModuleVector((x, parse_polynomial("y", R3)))


def test_koszul_syzygy_of_two_variables():
    D, syz = schreyer(gens("x, y"), degrevlex(R2))
    assert len(syz) == 1
    assert module_contract(syz[0], D).is_zero()
    comps = [c.to_text() for c in syz[0].components]
    assert comps in (["y", "-x"], ["-y", "x"])


def test_three_axes_syzygies_generate_the_module():
    G = gens("xy, xz, yz", R3)
    order = degrevlex(R3)
    D, syz = schreyer(G, order)
    for s in syz:
        assert module_contract(s, D).is_zero()
    # the relation (z, 0, -x) must lie in the module they generate
    target = ModuleVector(
        (
            parse_polynomial("z", R3),
            Polynomial.zero(R3),
            parse_polynomial("-x", R3),
        )
    )
    assert module_contract(target, D).is_zero()
    mgb = module_buchberger(syz, order)
    assert _Divider(mgb, order)(target.to_dict()) == {}


def test_single_generator_has_no_syzygies():
    assert schreyer(gens("x^2 + y"), degrevlex(R2))[1] == []


@pytest.mark.parametrize("rng,text", CORPUS)
def test_every_syzygy_contracts_to_zero(rng, text):
    order = degrevlex(rng)
    D, syz = schreyer(buchberger(gens(text, rng), order), order)
    for s in syz:
        assert module_contract(s, D).is_zero()


def test_module_normal_form_reduces_to_zero_inside_module():
    order = degrevlex(R3)
    _, syz = schreyer(gens("xy, xz, yz", R3), order)
    remainder = _Divider(module_buchberger(syz, order), order)
    for s in syz:
        assert remainder(s.to_dict()) == {}


def test_syzygies_of_module_vectors_contract_to_zero():
    order = degrevlex(R3)
    x, y, z = (parse_polynomial(v, R3) for v in "xyz")
    zero = Polynomial.zero(R3)
    vectors = [
        ModuleVector((x, zero)),
        ModuleVector((y, zero)),
        ModuleVector((zero, x)),
        ModuleVector((y, x)),
    ]
    D, syz = schreyer(vectors, order)
    assert syz
    for rel in syz:
        assert module_contract(rel, D).is_zero()


@st.composite
def monomial_vectors(draw):
    rank = draw(st.integers(1, 2))
    coeff = st.sampled_from([2, -3, Fraction(1, 2), Fraction(-5, 3)])
    return rank, draw(st.lists(
        st.tuples(st.integers(0, rank - 1), st.tuples(*[st.integers(0, 2)] * 3), coeff),
        min_size=1, max_size=5))


@given(case=monomial_vectors())
@settings(max_examples=60, deadline=None)
def test_monomial_syzygies_match_the_pairwise_oracle(case):
    rank, terms = case
    zero = Polynomial.zero(R3)
    vectors = []
    for pos, m, c in terms:
        comps = [zero] * rank
        comps[pos] = Polynomial.from_monomial(R3, m, c)
        vectors.append(ModuleVector(tuple(comps)))
    order = degrevlex(R3)
    D, syz = schreyer(vectors, order)
    for rel in syz:
        assert module_contract(rel, D).is_zero()
    # each divisor is its vector's monomial with the coefficient 1
    oracle = []
    for rel in monomial_syzygies([(pos, m, c) for v in D for (pos, m), c in v.to_dict().items()]):
        comps = [zero] * len(terms)
        for i, (m, c) in rel.items():
            comps[i] = Polynomial.from_monomial(R3, m, c)
        oracle.append(ModuleVector(tuple(comps)))
    assert module_buchberger(syz, order) == module_buchberger(oracle, order)


def degree_monomials(d):
    return [m for m in itertools.product(range(d + 1), repeat=3) if sum(m) == d]


@st.composite
def graded_bases(draw):
    """(ring, reduced basis): a homogeneous ideal of k[x, y, z] from 2-3
    forms of degree 1-3, or a submodule of R^2 from 2-3 vectors whose two
    components are forms of one degree 1-3, over Q or GF(32003)."""
    rng = ring("x, y, z", characteristic=draw(st.sampled_from([0, 32003])))
    rank = draw(st.integers(1, 2))
    coeff = st.integers(-3, 3).filter(bool)

    def form(d):
        monos = st.sampled_from(degree_monomials(d))
        return Polynomial(rng, draw(st.dictionaries(monos, coeff, min_size=1, max_size=3)))

    vectors = []
    for _ in range(draw(st.integers(2, 3))):
        d = draw(st.integers(1, 3))
        vectors.append(ModuleVector(tuple(form(d) for _ in range(rank))))
    order = degrevlex(rng)
    if rank == 1:
        G = buchberger([v.components[0] for v in vectors], order)
        return rng, [ModuleVector((g,)) for g in G]
    return rng, module_buchberger(vectors, order)


@given(case=graded_bases())
@settings(max_examples=25, deadline=None)
def test_syzygies_generate_the_syzygy_module_in_each_degree(case):
    # in each degree d, the multiples of the syzygies span the kernel of the
    # dense multiplication map (+)_k R_{d - deg g_k} -> R^r_d
    rng, G = case
    p = rng.characteristic
    D, syz = schreyer(G, degrevlex(rng))
    basis = [g.to_dict() for g in D]
    degs = [max(sum(m) for _, m in b) for b in basis]
    for s in syz:
        assert module_contract(s, D).is_zero()
    sdegs = [max(sum(m) + degs[k] for k, comp in enumerate(s.components) for m in comp.terms)
             for s in syz]
    for d in range(max(degs) + 3):
        cols = [(k, mu) for k, e in enumerate(degs) for mu in degree_monomials(d - e)]
        if not cols:
            continue
        targets = [(pos, m) for pos in range(G[0].rank) for m in degree_monomials(d)]
        images = []
        for k, mu in cols:
            image = {(pos, tuple(a + b for a, b in zip(m, mu))): c
                     for (pos, m), c in basis[k].items()}
            images.append([image.get(t, 0) for t in targets])
        kernel = len(cols) - matrix_rank(images, p)
        index = {c: i for i, c in enumerate(cols)}
        multiples = []
        for s, e in zip(syz, sdegs):
            for alpha in degree_monomials(d - e):
                row = [0] * len(cols)
                for k, comp in enumerate(s.components):
                    for m, c in comp.terms.items():
                        row[index[(k, tuple(a + b for a, b in zip(m, alpha)))]] = c
                multiples.append(row)
        assert matrix_rank(multiples, p) == kernel


GF3 = ring("x, y, z", characteristic=32003)


@pytest.mark.parametrize("texts", [
    [("3071*x^3", "23463*y^4*z"),
     ("7056*x^2*y^2*z + 11764*y^3", "27178*y^4*z^2 + 21669*x^5"),
     ("6914*x^3*y^2 + 21961*x^2*y^2*z", "16697*x^2*y*z + 8082*x*y^2*z"),
     ("19527*y^3*z^3", "3666*x^2*y^3 + 5183*y^2*z^3")],
    [("650*x", "20545*x*y^2*z^2 + 15519*x*y*z"),
     ("23099*y^2*z^4 + 26628*x*y^2*z^2", "20525*z^3"),
     ("0", "13527*x^5*y + 11660*x^3*y^2*z"),
     ("9093*y^5*z + 15042*x^2*y*z^2", "31655*x^2*y^2*z^2")],
])
def test_syzygies_of_small_non_monomial_modules_finish(texts):
    # a Groebner basis of the embedding in R^(r+m) grew without end here
    vectors = [ModuleVector(tuple(parse_polynomial(t, GF3) for t in pair)) for pair in texts]
    order = degrevlex(GF3)
    D, syz = schreyer(module_buchberger(vectors, order), order)
    assert syz
    for s in syz:
        assert module_contract(s, D).is_zero()


def test_basis_of_the_syzygies_of_a_rank_3_module_is_groebner():
    # the 23 syzygies, in R^17, of the reduced basis of this rank-3 module
    # kept about 600 live terms per reduction step; the basis of their
    # module must pass the S-vector reductions of `_syzygies`
    rows = [("z", "0", "2*x^2*y^2*z + 2*x*z^2"),
            ("-3*x^2*y^2", "2*x*z^2", "x^2 + x*z"),
            ("-3*x^2*y*z + y", "0", "0"),
            ("1", "5*x^2*y + 5", "x^2*y*z^2 - 3*x*y^2*z")]
    order = degrevlex(GF3)
    G = module_buchberger([ModuleVector([parse_polynomial(t, GF3) for t in row])
                           for row in rows], order)
    _, syz = schreyer(G, order)
    assert (len(G), len(syz)) == (17, 23)
    S = module_buchberger(syz, order)
    assert schreyer(S, order)[1]
    divide = _Divider(S, order)
    assert all(divide(s.to_dict()) == {} for s in syz)


@pytest.mark.parametrize("rows", [
    [("3*x^2 + 2*y", "x*z"), ("5*y^2 - x", "2*z"), ("x*y", "7*y + 1")],
    [("z", "0", "2*x^2*y^2*z + 2*x*z^2"), ("-3*x^2*y^2", "2*x*z^2", "x^2 + x*z"),
     ("-3*x^2*y*z + y", "0", "0"), ("1", "5*x^2*y + 5", "x^2*y*z^2 - 3*x*y^2*z")],
], ids=["rank-2", "rank-3"])
def test_syzygies_over_q_match_the_schreyer_oracle(rows):
    # the syzygies of the divisors of a basis over Q, as given and with each
    # vector scaled by its own constant, are integer, and each a nonzero
    # multiple of the oracle's, which divides by the divisors in Fractions
    order = degrevlex(R3)
    G = module_buchberger([ModuleVector([parse_polynomial(t, R3) for t in row])
                           for row in rows], order)
    assert any(c.denominator > 1 for v in G for p in v.components for c in p.terms.values())
    scaled = [ModuleVector([Fraction(2 * k + 3, k + 2) * c for c in v.components])
              for k, v in enumerate(G)]
    for basis in (G, scaled):
        divide = _Divider(basis, order)
        pk = divide.pk
        syz = _syzygies(divide)
        oracle = schreyer_syzygies([pk.unpack(d) for d in divide.divisors], module_term_key)
        assert len(syz) == len(oracle) > 0
        for s, o in zip(syz, oracle):
            got = [{pk.fields(t)[pk.rank:]: c for t, c in d.items()} for d in s]
            k = next(k for k, d in enumerate(o) if d)
            m, v = next(iter(o[k].items()))
            mu = Fraction(got[k].get(m, 0)) / v
            assert mu != 0 and [{m: c / mu for m, c in d.items()} for d in got] == o
        assert all(type(c) is int for s in syz for d in s for c in d.values())


def test_syzygies_reject_what_is_not_a_groebner_basis():
    # the S-pair of x^2 + y and x*y leaves y^2
    with pytest.raises(ValueError, match="Groebner basis"):
        schreyer(gens("x^2 + y, x*y"), degrevlex(R2))


def vector(rng, *texts):
    return ModuleVector(tuple(parse_polynomial(t, rng) for t in texts))


# a vector over Q[x, y] of rank 2 meets one of another ring or rank
MIXED = {
    "other names": vector(ring("u, v"), "u", "v"),
    "other characteristic": vector(ring("x, y", 7), "x", "y"),
    "other arity": vector(R3, "x", "z"),
    "other rank": vector(R2, "x"),
}
ORDER = degrevlex(R2)
ENTRIES = {
    "buchberger": lambda a, b: buchberger([a, b], ORDER),
    "module_buchberger": lambda a, b: module_buchberger([a, b], ORDER),
    "division builder": lambda a, b: _Divider([a, b], ORDER),
}


@pytest.mark.parametrize("entry,mix", [(e, m) for e in ENTRIES for m in MIXED])
def test_mixed_input_is_refused(entry, mix):
    a, b = vector(R2, "x^2", "y"), MIXED[mix]
    if entry == "buchberger":
        # the polynomial entry: first components, or a vector of rank 1
        a, b = a.components[0], b if mix == "other rank" else b.components[0]
    with pytest.raises(ValueError if mix == "other rank" else RingMismatchError):
        ENTRIES[entry](a, b)


@pytest.mark.parametrize("entry", ENTRIES)
def test_input_outside_the_order_s_variables_is_refused(entry):
    # an input error, not an exponent bound: three exponents in two fields
    a = vector(R3, "x*z", "y")
    if entry == "buchberger":
        a = a.components[0]
    with pytest.raises(RingMismatchError):
        ENTRIES[entry](a, a)


def test_module_pair_budget_binds():
    x, y = (parse_polynomial(v, R2) for v in "xy")
    one = Polynomial.one(R2)
    vectors = [ModuleVector((x * x - y, x)), ModuleVector((x * y - one, y))]
    order = degrevlex(R2)
    assert len(module_buchberger(vectors, order)) > 2
    with pytest.raises(BoundExceededError):
        module_buchberger(vectors, order, max_pairs=1)


@st.composite
def small_modules(draw):
    """(ring, rank, vectors): up to 3 vectors in R^rank, rank 1 to 3, with
    components of up to 2 terms over Q or GF(32003), in 2 or 3 variables
    with exponents at most 2."""
    rng = ring(draw(st.sampled_from(["x, y", "x, y, z"])),
               characteristic=draw(st.sampled_from([0, 32003])))
    rank = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 2)] * rng.arity)
    term_dicts = st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=2)
    vector = st.lists(term_dicts, min_size=rank, max_size=rank)
    vectors = [ModuleVector(tuple(Polynomial(rng, t) for t in comps))
               for comps in draw(st.lists(vector, min_size=1, max_size=3))]
    return rng, rank, vectors


@given(module=small_modules(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_module_basis_is_a_reduced_groebner_basis_and_invariant(module, rnd):
    rng, rank, vectors = module
    p = rng.characteristic
    G = module_buchberger(vectors, degrevlex(rng))
    key = module_term_key
    basis = [g.to_dict() for g in G]
    leads = [max(b, key=key) for b in basis]
    # monic and reduced: no term of an element lies in another's lead
    for b, lead in zip(basis, leads):
        assert b[lead] == 1
        for pos, m in b:
            assert not any(lpos == pos and all(x >= y for x, y in zip(m, lm))
                           for lpos, lm in leads if (lpos, lm) != lead)
    # checked by a division routine that shares no code with the package
    for v in vectors:
        assert module_division_remainder(v.to_dict(), basis, key, p) == {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            if leads[a][0] == leads[b][0]:
                s = module_s_pair(basis[a], basis[b], key, p)
                assert module_division_remainder(s, basis, key, p) == {}
    # shuffled and scaled: same basis
    moved = []
    for v in vectors:
        scale = rnd.choice([-1, 2, 3, Fraction(1, 2)])
        moved.append(ModuleVector(tuple(c * scale for c in v.components)))
    rnd.shuffle(moved)
    assert module_buchberger(moved, degrevlex(rng)) == G


small = st.integers(-3, 3)


@st.composite
def int_polys(draw, rng=R2):
    terms = draw(
        st.lists(
            st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), small),
            min_size=1,
            max_size=4,
        )
    )
    f = Polynomial.zero(rng)
    for e, c in terms:
        f = f + Polynomial.from_monomial(rng, e) * Polynomial.constant(rng, c)
    return f


@given(fs=st.lists(int_polys(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_buchberger_output_generates_input(fs):
    fs = [f for f in fs if not f.is_zero()]
    if not fs:
        return
    order = degrevlex(R2)
    G = buchberger(fs, order)
    for f in fs:
        assert normal_form(f, G, order).is_zero()


@given(fs=st.lists(int_polys(), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_syzygies_contract_on_random_inputs(fs):
    fs = [f for f in fs if not f.is_zero()]
    if len(fs) < 2:
        return
    order = degrevlex(R2)
    D, syz = schreyer(buchberger(fs, order), order)
    for s in syz:
        assert module_contract(s, D).is_zero()
