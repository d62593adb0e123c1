import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grevlex_key, render_polynomial
from conesign import (
    MonomialOrder,
    PolynomialSyntaxError,
    RingDescriptor,
    RingMismatchError,
    UnknownVariableError,
    degrevlex,
    elimination_order,
    ideal,
    lex,
    parse_generators,
    parse_polynomial,
    ring,
)
from conesign.poly import _PRIME_TEST_BOUND, MAX_EXPONENT, MAX_POWER_TERMS, Polynomial, _is_prime

R2 = ring("x, y")
R3 = ring("x, y, z")


def P(text, rng=R2):
    return parse_polynomial(text, rng)


def test_ring_rejects_bad_specs():
    with pytest.raises(ValueError):
        ring("x, x")
    with pytest.raises(ValueError):
        ring("")
    with pytest.raises(ValueError):
        ring("x, y", characteristic=4)


def test_a_ring_is_an_immutable_dict_key():
    table = {ring("x, y"): "Q", ring("x, y", characteristic=7): "F7"}
    assert table[RingDescriptor(("x", "y"))] == "Q"
    assert table[RingDescriptor(("x", "y"), 7)] == "F7"
    R = ring("x, y")
    with pytest.raises(AttributeError):
        R.characteristic = 7
    with pytest.raises(AttributeError):
        R.name = "plane"
    assert R == RingDescriptor(("x", "y"), 0)
    with pytest.raises(ValueError):
        RingDescriptor(("x", "2y"))


def test_prime_test_agrees_with_sympy_below_100000():
    import sympy

    assert [n for n in range(10**5) if _is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n, prime", [
    # Carmichael numbers, which fool the Fermat test to every coprime base
    (561, False), (1105, False), (1729, False), (41041, False), (825265, False),
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    (3215031751, False), (3825123056546413051, False),
    (318665857834031151167461, False),
    (2**31 - 1, True), (2**61 - 1, True), (2**61 + 1, False), (2**64 - 59, True),
])
def test_prime_test_is_exact_on_pseudoprimes_and_large_primes(n, prime):
    assert _is_prime(n) is prime


def test_prime_test_refuses_what_its_bases_cannot_decide():
    # the bound itself is a strong pseudoprime to all 13 bases
    for n in (_PRIME_TEST_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            ring("x", characteristic=n)


def test_parse_cancellation_gives_zero():
    assert P("x*y - x*y").is_zero()


def test_parse_three_generator_list():
    gens = parse_generators("xy, xz, yz", R3)
    assert [g.to_text() for g in gens] == ["x*y", "x*z", "y*z"]


def test_parse_power_monomial():
    f = P("y^2")
    assert f.sorted_terms(degrevlex(R2)) == [((0, 2), Fraction(1))]


def test_parse_implicit_products_and_rationals():
    assert P("2x^2y").to_text() == "2*x^2*y"
    assert P("1/2 x - 3/4").to_text() == "1/2*x - 3/4"
    assert P("x(x + y)").to_text() == "x^2 + x*y"
    assert P("-(x - y)^2").to_text() == "-x^2 + 2*x*y - y^2"


def test_parse_errors_carry_position():
    with pytest.raises(PolynomialSyntaxError):
        P("x^^2")
    with pytest.raises(UnknownVariableError):
        P("x + t")
    with pytest.raises(PolynomialSyntaxError):
        P("x +")
    # each error names its own token: the denominator, the end where ')' is
    # missing; an all-blank text has no token at all
    for text, rng, message in [
            ("1/0*x", R2, "zero denominator (at position 2)"),
            ("x + 3/0", R2, "zero denominator (at position 6)"),
            ("x + 1/14", ring("x, y", 7),
             "denominator not invertible in this characteristic (at position 6)"),
            ("(x + y", R2, "expected ')' (at position 6)"),
            (" \t ", R2, "empty polynomial (at position 0)")]:
        with pytest.raises(PolynomialSyntaxError) as exc:
            P(text, rng)
        assert str(exc.value) == message


def test_exponents_are_bounded():
    assert P(f"x^{MAX_EXPONENT}").total_degree() == MAX_EXPONENT
    for text in (f"x^{MAX_EXPONENT + 1}", "3^99999999", "(x + 1)^99999999"):
        with pytest.raises(PolynomialSyntaxError) as exc:
            P(text)
        assert exc.value.position == text.index("^") + 1


def test_what_a_power_builds_is_bounded():
    # each exponent is allowed, but the result is too large: refused before
    # multiplying, at the first exponent that would build too much
    # ((3^1000)^1000 has about 1.6 million bits)
    for text, rng in (("x - ((3^1000)^1000)^1000", R2), ("(x + y + z)^1000", R3)):
        start = time.perf_counter()
        with pytest.raises(PolynomialSyntaxError) as exc:
            P(text, rng)
        assert time.perf_counter() - start < 1
        assert exc.value.position == text.index(")^") + 2


def test_powers_within_the_bound_are_computed():
    # exact term counts at the edge: (x + y + z)^k has (k + 1)(k + 2)/2 terms
    # (mod p, where the coefficients stay small)
    F3 = ring("x, y, z", characteristic=32003)
    k = max(j for j in range(100) if (j + 1) * (j + 2) // 2 <= MAX_POWER_TERMS)
    assert len(P(f"(x + y + z)^{k}", F3).terms) == (k + 1) * (k + 2) // 2
    with pytest.raises(PolynomialSyntaxError):
        P(f"(x + y + z)^{k + 1}", F3)
    # the bound counts the variables that occur and the degrees that occur:
    # C(20, 10) multisets of 10 terms and a box of 101^2 exponents, but only
    # 101 monomials of degree 100 in x and y
    assert len(P("((x + y)^10)^10", R3).terms) == 101
    assert P("(3^1000)^3 x").terms == {(1, 0): Fraction(3**3000)}
    assert P("(1/2 x - 1)^0") == P("1")


def test_integer_literals_too_long_to_read_are_syntax_errors():
    # Python refuses to convert more than 4300 digits; the parser says where
    digits = "1" + "0" * 5000
    for text in (f"x - {digits}", f"x + 1/{digits}", f"x^{digits}"):
        with pytest.raises(PolynomialSyntaxError, match="5001 digits") as exc:
            P(text)
        assert exc.value.position == text.index(digits)


def test_digits_that_int_cannot_read_are_unexpected_characters():
    # superscripts and circled digits are str.isdigit() but not int() digits
    for text, ch in (("x^²", "²"), ("³x", "³"), ("x + ①", "①"), ("2^¹", "¹")):
        with pytest.raises(PolynomialSyntaxError) as exc:
            P(text)
        assert str(exc.value) == f"unexpected character {ch!r} (at position {text.index(ch)})"
    # Arabic-Indic digits are decimal, so int() reads them
    assert P("x^٣") == P("x^3")
    assert P("١٢x") == P("12x")
    # inside a name a superscript is a letter-like character, not a number
    with pytest.raises(UnknownVariableError):
        P("x²")


@pytest.mark.parametrize("seed", range(8))
def test_parse_reads_back_rendered_term_dicts(seed):
    # the text comes from a renderer that shares no code with the package;
    # each seed draws 25 term dicts over Q and reads each one over Q and
    # mod 32003, where every denominator the renderer writes is invertible
    rnd = random.Random(seed)
    F3 = ring("x, y, z", characteristic=32003)
    for _ in range(25):
        want = {}
        for _ in range(rnd.randint(0, 8)):
            m = tuple(rnd.randint(0, 3) for _ in range(3))
            want[m] = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 4))
        text = render_polynomial(want, "xyz", rnd)
        assert parse_polynomial(text, R3).terms == want, text
        assert parse_polynomial(text, F3).terms == {
            m: c.numerator * pow(c.denominator, -1, 32003) % 32003 for m, c in want.items()
        }, text


def test_parse_time_is_linear_in_the_terms():
    # each term is added into one dict in place; adding polynomials term by
    # term copied the sum once per term, and 8,000 terms took seconds
    text = " + ".join(f"{i + 1}*x^{i % 20}*y^{i // 20 % 20}*z^{i // 400}" for i in range(8000))
    start = time.perf_counter()
    assert len(parse_polynomial(text, R3).terms) == 8000
    assert time.perf_counter() - start < 1


def test_large_powers_over_q_parse_quickly():
    # the product over Q multiplies integer numerators, not Fractions
    start = time.perf_counter()
    f = P("(x - 1)^1000")
    assert time.perf_counter() - start < 1
    assert len(f.terms) == 1001
    assert f.terms[(500, 0)] == math.comb(1000, 500)


def test_print_round_trip():
    for text in ("x^2*y - 2*y + 1/3", "0", "-x + 1", "x*y*z", "7"):
        f = parse_polynomial(text, R3)
        assert parse_polynomial(f.to_text(), R3) == f


def test_canonical_printing_descending_terms():
    f = P("y + x^2 + x*y")
    assert f.to_text() == "x^2 + x*y + y"
    assert P("0").to_text() == "0"


def test_arithmetic_basics():
    f, g = P("x + y"), P("x - y")
    assert (f * g).to_text() == "x^2 - y^2"
    assert (f + g).to_text() == "2*x"
    assert (f - f).is_zero()
    assert (-f + f).is_zero()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        P("x") + P("x", R3)


def test_evaluate_exact_rationals():
    f = P("x^2*y - 2*y + 1/3")
    assert f.evaluate((1, Fraction(2))) == Fraction(-5, 3)
    assert f.evaluate((Fraction(1, 2), 4)) == Fraction(1) - 8 + Fraction(1, 3)


def test_evaluate_reduces_mod_p():
    # 2^2 + 3*5 = 19 = 5 mod 7
    assert P("x^2 + 3*y", ring("x, y", 7)).evaluate((2, 5)) == 5


def test_partial_derivatives():
    f = P("x^2*y")
    assert f.partial(0).to_text() == "2*x*y"
    assert f.partial(1).to_text() == "x^2"
    assert P("5").partial(0).is_zero()


def test_homogeneity_and_degrees():
    assert P("x^2 + x*y").is_homogeneous()
    assert not P("x^2 + y").is_homogeneous()
    assert P("x^3*y + y^2").total_degree() == 4
    assert min(sum(m) for m in P("x^3*y + y^2").terms) == 2
    assert Polynomial.zero(R2).total_degree() == -1


def test_translate_shifts_the_origin():
    f = P("y^2 - x^3")
    g = f.translate((1, 1))
    assert g.evaluate((0, 0)) == 0
    assert g == parse_polynomial("(y+1)^2 - (x+1)^3", R2)


@pytest.mark.parametrize("point", [(1, 2, 3), (1,), (0, 0, 0), ()])
def test_translate_refuses_a_point_of_another_arity(point):
    # a third coordinate was dropped, and a missing one ended in an
    # IndexError; the ideal's translate moved its basis by the first two
    f = P("y^2 - x^3")
    with pytest.raises(ValueError, match="point arity mismatch"):
        f.translate(point)
    with pytest.raises(ValueError, match="point arity mismatch"):
        ideal(R2, "y^2 - x^3, x*y").translate(point)


def test_characteristic_p_reduction():
    R7 = ring("x, y", characteristic=7)
    f = parse_polynomial("7*x + y", R7)
    assert f.to_text() == "y"
    g = parse_polynomial("3*x", R7) + parse_polynomial("4*x", R7)
    assert g.is_zero()
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/7*x", R7)


# monomial order laws, checked on generated exponent triples

ORDERS = [degrevlex(R3), lex(R3), elimination_order(R3, ["y"])]


def greater(order: MonomialOrder, a, b) -> bool:
    return order.key(a) > order.key(b)


exponents = st.tuples(*(st.integers(0, 6) for _ in range(3)))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.signature())
@given(a=exponents, b=exponents, c=exponents)
@settings(max_examples=120, deadline=None)
def test_order_is_total_and_multiplicative(order: MonomialOrder, a, b, c):
    assert (a == b) or greater(order, a, b) or greater(order, b, a)
    if greater(order, a, b):
        ac = tuple(i + j for i, j in zip(a, c))
        bc = tuple(i + j for i, j in zip(b, c))
        assert greater(order, ac, bc)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.signature())
@given(a=exponents)
@settings(max_examples=60, deadline=None)
def test_order_is_a_well_ordering(order: MonomialOrder, a):
    one = (0, 0, 0)
    if a != one:
        assert greater(order, a, one)


def test_degrevlex_tie_breaking():
    o = degrevlex(R3)
    # same degree: smaller exponent on the last variable wins
    assert greater(o, (1, 1, 0), (1, 0, 1))
    assert greater(o, (0, 2, 0), (0, 0, 2))
    assert greater(o, (2, 0, 0), (0, 2, 0))


def test_degrevlex_keys_match_the_definition_and_are_memoised():
    o = degrevlex(R3)
    monos = list(itertools.product(range(3), repeat=3))
    assert sorted(monos, key=o.key) == sorted(monos, key=grevlex_key)
    assert o.key((1, 0, 2)) is o.key((1, 0, 2))


def test_standard_orders_are_shared_per_arity():
    # one order, and so one key memo, however often the order is asked for
    assert degrevlex(ring("x, y, z")) is degrevlex(3)
    assert lex(ring("a, b")) is lex(2)
    assert degrevlex(2) is not degrevlex(3)
    assert degrevlex(3) is not lex(3)


def test_lex_ignores_degree():
    o = lex(R3)
    assert greater(o, (1, 0, 0), (0, 5, 5))


def test_elimination_block_order_isolates_first_block():
    o = elimination_order(R3, ["x"])
    # anything with x beats anything without, regardless of degree
    assert greater(o, (1, 0, 0), (0, 9, 9))
    assert not greater(o, (0, 9, 9), (1, 0, 0))


coeffs = st.integers(-4, 4)
small_exp = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polynomials(draw):
    terms = draw(st.lists(st.tuples(small_exp, coeffs), max_size=5))
    f = Polynomial.zero(R2)
    for e, c in terms:
        f = f + Polynomial.from_monomial(R2, e) * Polynomial.constant(R2, Fraction(c))
    return f


@given(f=polynomials(), g=polynomials(), h=polynomials())
@settings(max_examples=80, deadline=None)
def test_ring_axioms_on_random_polynomials(f, g, h):
    assert f * g == g * f
    assert f + g == g + f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rational_polynomials(draw):
    terms = draw(st.dictionaries(small_exp, rationals.filter(bool), max_size=5))
    return Polynomial(R2, terms)


@given(f=rational_polynomials(), g=rational_polynomials())
@settings(max_examples=80, deadline=None)
def test_product_over_q_is_the_fraction_product_term_by_term(f, g):
    want = {}
    for (a, c), (b, d) in itertools.product(f.terms.items(), g.terms.items()):
        m = tuple(i + j for i, j in zip(a, b))
        want[m] = want.get(m, Fraction(0)) + c * d
    got = (f * g).terms
    assert got == {m: c for m, c in want.items() if c}
    assert all(isinstance(c, Fraction) for c in got.values())


@given(f=polynomials())
@settings(max_examples=80, deadline=None)
def test_no_zero_coefficients_stored(f):
    assert all(c != 0 for c in f.terms.values())
    assert parse_polynomial(f.to_text(), R2) == f
