from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sympy_factorization

import conesign.factor
from conesign import Polynomial, parse_polynomial, ring
from conesign.factor import factor_polynomial, gram_matrix

R2 = ring("x, y")


def P(text):
    return parse_polynomial(text, R2)


def texts(factors):
    return sorted((f.to_text(), e) for f, e in factors)


def is_irreducible(f):
    return [e for _, e in factor_polynomial(f)] == [1]


def test_difference_of_squares():
    assert texts(factor_polynomial(P("x^2 - y^2"))) == [
        ("x + y", 1),
        ("x - y", 1),
    ]


def test_repeated_factor_exponents():
    fac = factor_polynomial(P("x^2 - 2*x*y + y^2"))
    assert len(fac) == 1
    f, e = fac[0]
    assert e == 2 and f.to_text() in ("x - y", "-x + y")


def test_monomial_splits_into_variables():
    assert texts(factor_polynomial(P("x^3*y"))) == [("x", 3), ("y", 1)]


def test_constants_are_dropped():
    assert texts(factor_polynomial(P("6*x"))) == [("x", 1)]
    assert factor_polynomial(P("5")) == []


def test_product_of_factors_recovers_input_up_to_scalar():
    f = P("2*x^3 - 2*x*y^2")
    prod = P("1")
    for g, e in factor_polynomial(f):
        for _ in range(e):
            prod = prod * g
    # f / prod must be a nonzero constant
    ratio = [
        c / prod.terms[m]
        for m, c in f.terms.items()
        if m in prod.terms
    ]
    assert f.terms.keys() == prod.terms.keys()
    assert len(set(ratio)) == 1


def test_irreducibility_calls():
    assert is_irreducible(P("x^2 + y^2"))
    assert not is_irreducible(P("x^2 - y^2"))
    assert is_irreducible(P("y^2 - x^3"))


def test_characteristic_p_is_rejected():
    R7 = ring("x", characteristic=7)
    with pytest.raises(ValueError):
        factor_polynomial(parse_polynomial("x^2 + 1", R7))


# ---------------------------------------------------------------------------
# native rules against sympy

R3 = ring("x, y, z")
# the same polynomials read in a ring whose variable order is not sympy's
ZBA = ring("z, b, a")
# and in a ring where unused variables sit between x, y and z
R7 = ring("x, e1, y, e2, z, e3, e4")

coeffs = st.sampled_from([0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)])
points = st.tuples(*[st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])] * 3)


@st.composite
def linear_forms(draw):
    a, b, c = draw(st.tuples(coeffs, coeffs, coeffs).filter(any))
    d = draw(coeffs)
    return Polynomial(R3, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c, (0, 0, 0): d})


@st.composite
def quadrics(draw):
    kind = draw(st.sampled_from(["rank1", "split", "nonsplit", "generic"]))
    l1, l2 = draw(linear_forms()), draw(linear_forms())
    c = draw(coeffs.filter(bool))
    if kind == "rank1":
        return c * l1 * l1
    if kind == "split":
        return c * l1 * l2
    if kind == "nonsplit":
        d = draw(st.sampled_from([2, 3, -1, Fraction(5, 4)]))
        return c * (l1 * l1 - d * l2 * l2)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
             (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    return Polynomial(R3, {m: draw(coeffs) for m in monos}) + c * l1 * l1


@st.composite
def monomials(draw):
    m = draw(st.tuples(*[st.integers(0, 2)] * 3).filter(any))
    return Polynomial(R3, {m: draw(coeffs.filter(bool))})


@st.composite
def factor_inputs(draw):
    kind = draw(st.sampled_from(["linear", "linear2", "square", "quadric", "x2-2y2",
                                 "fermat", "cusp", "linear*quadric", "monomial*linear",
                                 "monomial*quadric", "spread"]))
    point = draw(points)
    if kind == "linear":
        return draw(linear_forms())
    if kind == "linear2":
        return draw(linear_forms()) * draw(linear_forms())
    if kind == "square":
        return (draw(linear_forms()) * draw(linear_forms())) ** 2
    if kind == "quadric":
        return draw(quadrics())
    if kind == "x2-2y2":
        return P3("x^2 - 2*y^2").translate(point)
    if kind == "fermat":
        return P3("x^3 + y^3 + z^3").translate(point)
    if kind == "cusp":
        return P3("y^2 - x^3").translate(point)
    if kind == "monomial*linear":
        return draw(monomials()) * draw(linear_forms())
    if kind == "monomial*quadric":
        return draw(monomials()) * draw(quadrics())
    if kind == "spread":
        # a monomial content, a linear form or quadric, and unused variables
        # between the used ones
        f = draw(monomials()) * draw(st.one_of(linear_forms(), quadrics()))
        return f.remap(R7, [R7.var_index(v) for v in R3.variables])
    return draw(linear_forms()) * draw(quadrics())


def P3(text):
    return parse_polynomial(text, R3)


def P7(text):
    return parse_polynomial(text, R7)


def as_items(factors):
    return sorted((tuple(sorted(f.terms.items())), e) for f, e in factors)


def up_to_sign(items):
    def unsigned(terms):
        return min(terms, tuple((m, -c) for m, c in terms))
    return sorted((unsigned(terms), e) for terms, e in items)


@given(f=factor_inputs())
@settings(max_examples=100, deadline=None)
def test_native_factorization_agrees_with_sympy(f):
    # R7 keeps the order of x, y and z, so sympy's signs are the ring's
    assert as_items(factor_polynomial(f)) == sympy_factorization(f.ring.variables, f.terms)
    if f.ring == R7:
        return
    g = Polynomial(ZBA, f.terms)
    assert up_to_sign(as_items(factor_polynomial(g))) == up_to_sign(
        sympy_factorization(ZBA.variables, g.terms))


def test_factors_are_primitive_with_a_positive_lex_leading_coefficient():
    # lex in the ring's own order: b comes before a in ring z, b, a
    f = parse_polynomial("a^2 - b^2", ZBA)
    assert texts(factor_polynomial(f)) == [("b + a", 1), ("b - a", 1)]
    for g, _ in factor_polynomial(P3("1/4*x^2 - 9*y^2 + 1/2*z - 3*y*z")):
        assert all(c.denominator == 1 for c in g.terms.values())
        assert g.terms[max(g.terms)] > 0


def test_quadric_rules():
    # rank 1, rank 2 with a zero diagonal, rank 2 not split over Q, rank 3
    assert texts(factor_polynomial(P3("4*x^2 - 4*x*y + y^2 + 4*x - 2*y + 1"))) == [
        ("2*x - y + 1", 2)]
    assert texts(factor_polynomial(P3("x*y - x - y + 1"))) == [("x - 1", 1), ("y - 1", 1)]
    assert texts(factor_polynomial(P3("x^2 - 2*y^2 + 2*x + 1"))) == [
        ("x^2 - 2*y^2 + 2*x + 1", 1)]
    assert is_irreducible(P3("x*y - z^2 + 1"))


def test_the_monomial_content_comes_out_before_the_quadric_rule(monkeypatch):
    calls = []
    real = conesign.factor._factor_quadric

    def counted(f):
        calls.append(f.to_text())
        return real(f)

    monkeypatch.setattr(conesign.factor, "_factor_quadric", counted)
    assert texts(factor_polynomial(P7("x*e1 - e1"))) == [("e1", 1), ("x - 1", 1)]
    assert texts(factor_polynomial(P7("x^2*e4^2 - e2^2*e4^2"))) == [
        ("e4", 2), ("x + e2", 1), ("x - e2", 1)]
    assert texts(factor_polynomial(P7("z*e3^3 + z*e4"))) == [("e3^3 + e4", 1), ("z", 1)]
    assert calls == ["x^2 - e2^2"]


def test_factors_come_in_ring_order_for_a_monomial_and_by_degree_then_text_otherwise():
    def ordered(text):
        return [(g.to_text(), e) for g, e in factor_polynomial(P7(text))]

    assert ordered("x*e1^2") == [("x", 1), ("e1", 2)]
    assert ordered("x*e1 - e1") == [("e1", 1), ("x - 1", 1)]
    assert ordered("x^3*z - x*y^2*z") == [("x", 1), ("x + y", 1), ("x - y", 1), ("z", 1)]
    assert ordered("e4*x^3 + e4*y^3") == [("e4", 1), ("x + y", 1), ("x^2 - x*y + y^2", 1)]


def test_the_gram_matrix_spans_the_variables_that_occur():
    support, gram = gram_matrix(P7("x*e2 - 2*e4^2 + 3*e2 + 1"))
    assert support == [0, 3, 6]
    half = Fraction(1, 2)
    assert gram == [[0, half, 0, 0], [half, 0, 0, Fraction(3, 2)], [0, 0, -2, 0],
                    [0, Fraction(3, 2), 0, 1]]


def test_cubic_certificate_and_fallback():
    # the translated cusp is certified irreducible without sympy; a
    # reducible cubic and a quartic are factored by the fallback
    assert is_irreducible(P3("(y + 1)^2 - (x - 1)^3"))
    assert texts(factor_polynomial(P3("x^3 + y^3"))) == [
        ("x + y", 1), ("x^2 - x*y + y^2", 1)]
    # mod 7 the leading coefficient vanishes and x^2 + 1 has no root, so a
    # prime dividing the leading coefficient must not certify anything
    assert texts(factor_polynomial(P3("7*x^3 + x^2 + 7*x + 1"))) == [
        ("7*x + 1", 1), ("x^2 + 1", 1)]
    assert texts(factor_polynomial(P3("x^4 - y^4"))) == [
        ("x + y", 1), ("x - y", 1), ("x^2 + y^2", 1)]
