"""Polynomial factorization over Q: exact native rules up to degree 3, with
sympy, imported on first use, only for the rest.

The monomial content comes out first: the least power of each variable
over all terms is a factor with that exponent, so a monomial splits into
its variables directly.  Only the quotient goes through the rules below,
so x*y - y = y*(x - 1) is a variable times a linear form and needs no Gram
matrix.

- Degree 1 is irreducible.
- Degree 2 is decided by the Gram matrix of the homogenized quadric, over
  the variables that occur and the homogenizing one; the variables that
  do not occur would add zero rows and columns, which change neither the
  rank nor the first nonzero principal 2x2 minor.  Rank >= 3 is
  irreducible and rank 1 is c*l^2.  Rank 2 splits over Q exactly when -det
  of a nonzero principal 2x2 minor is a rational square; the two linear
  factors are then solved for exactly.
- Degree 3 is certified irreducible when its restriction to a line through
  a small integer point, along an axis, is a cubic with no root modulo a
  small prime that does not divide its leading coefficient.  A
  factorization over Q would restrict to one with a linear factor, which
  has a root modulo every such prime.
- Everything else (degree 4 and up, and cubics without such a
  certificate) goes to `sympy.factor_list`.

Every factor, native or from sympy, is normalized the same way: primitive
integer coefficients, and a positive leading coefficient under lex in the
ring's variable order.  Only characteristic-zero input is supported; the
splitting logic that consumes these factorizations never runs over prime
fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product

from .linalg import rational_rank
from .poly import Polynomial, RingDescriptor, _integral, _primitive

# the cubic certificate restricts to the lines along each axis through the
# first _CERTIFICATE_POINTS points with these coordinates off the axis, and
# tries each of these primes; each is 1 mod 3, so not every element is a cube
_CERTIFICATE_COORDINATES = (0, 1, -1, 2, -2)
_CERTIFICATE_POINTS = 25
_CERTIFICATE_PRIMES = (7, 13, 19, 31, 37, 43)


def _normalized(rng: RingDescriptor, terms: dict) -> Polynomial:
    """The multiple of `terms` with primitive integer coefficients whose
    lex-leading coefficient is positive."""
    ints = _primitive(terms, max(terms))
    return Polynomial(rng, {m: Fraction(c) for m, c in ints.items()}, normalize=False)


def gram_matrix(q: Polynomial) -> tuple:
    """(support, G): the variables that occur in q, ascending, and the
    symmetric Gram matrix G over Q of the homogenization of q, whose total
    degree is at most 2, over them: q(x) = X^T G X at X = (x_support, 1).
    The last row and column belong to the homogenizing variable.  The
    variables left out would add only zero rows and columns."""
    support = sorted(q.support_variables())
    n = len(support)
    gram = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for m, c in q.terms.items():
        i, j = ([k for k, v in enumerate(support) for _ in range(m[v])] + [n, n])[:2]
        if i == j:
            gram[i][i] = c
        else:
            gram[i][j] = gram[j][i] = c / 2
    return support, gram


def _linear_form(rng: RingDescriptor, support, coeffs) -> Polynomial:
    """Dehomogenize coefficients over (the variables `support`, the
    homogenizing variable) into a normalized linear form of rng."""
    n = rng.arity
    units = [tuple(int(i == v) for i in range(n)) for v in support] + [(0,) * n]
    return _normalized(rng, {u: c for u, c in zip(units, coeffs) if c})


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(a, b) if a * a == q.numerator and b * b == q.denominator else None


def _factor_quadric(f: Polynomial) -> list:
    support, gram = gram_matrix(f)
    rank = rational_rank(gram)
    if rank == 1:
        return [(_linear_form(f.ring, support, next(row for row in gram if any(row))), 2)]
    if rank >= 3:
        return [(_normalized(f.ring, f.terms), 1)]
    size = len(gram)
    i, j, minor = next((i, j, gram[i][i] * gram[j][j] - gram[i][j] ** 2)
                       for i in range(size) for j in range(i + 1, size)
                       if gram[i][i] * gram[j][j] != gram[i][j] ** 2)
    s = _rational_sqrt(-minor)
    if s is None:
        return [(_normalized(f.ring, f.terms), 1)]
    if not gram[i][i]:
        i, j = j, i
    # the binary form A*X_i^2 + 2B*X_i*X_j + C*X_j^2, with B^2 - AC = s^2, as
    # (a1 X_i + b1 X_j)(a2 X_i + b2 X_j)
    A, B = gram[i][i], gram[i][j]
    if A:
        (a1, b1), (a2, b2) = (1, (B - s) / A), (A, B + s)
    else:
        (a1, b1), (a2, b2) = (1, 0), (0, 2 * B)
    l1, l2 = [Fraction(0)] * size, [Fraction(0)] * size
    l1[i], l1[j], l2[i], l2[j] = a1, b1, a2, b2
    det = a2 * b1 - a1 * b2
    for k in range(size):
        if k != i and k != j:
            # X_i X_k and X_j X_k: a2 c1 + a1 c2 = 2 g_ik, b2 c1 + b1 c2 = 2 g_jk
            ri, rj = 2 * gram[i][k], 2 * gram[j][k]
            l1[k] = (ri * b1 - a1 * rj) / det
            l2[k] = (a2 * rj - b2 * ri) / det
    return [(_linear_form(f.ring, support, l1), 1), (_linear_form(f.ring, support, l2), 1)]


def _line_cubic(terms: dict, axis: int, point) -> tuple:
    """Coefficients, constant first, of g(t) = f(point + t*e_axis) for the
    integer cubic f given by `terms`; point[axis] is 0."""
    cubic = [0, 0, 0, 0]
    for m, c in terms.items():
        for k, e in enumerate(m):
            if e and k != axis:
                c *= point[k] ** e
        cubic[m[axis]] += c
    return tuple(cubic)


def _certified_irreducible_cubic(f: Polynomial) -> bool:
    """True when some line restriction of the degree-3 f has no root mod some
    small prime; False only means that the bounded search found none.

    The point's coordinate on the axis only shifts t, so it is left at 0."""
    n = f.ring.arity
    terms, _ = _integral(f.terms)
    axes = [k for k in range(n) if tuple(3 * (i == k) for i in range(n)) in terms]
    for rest in islice(product(_CERTIFICATE_COORDINATES, repeat=n - 1), _CERTIFICATE_POINTS):
        for axis in axes:
            c0, c1, c2, c3 = _line_cubic(terms, axis, rest[:axis] + (0,) + rest[axis:])
            for ell in _CERTIFICATE_PRIMES:
                if c3 % ell and all((((c3 * t + c2) * t + c1) * t + c0) % ell
                                    for t in range(ell)):
                    return True
    return False


def _sympy_factor_list(terms: dict, nvars: int) -> list:
    """sympy's factorization of a term dict with rational coefficients, as
    [(term dict with integer coefficients, exponent)]; constants dropped."""
    import sympy

    gens = sympy.symbols(f"x:{nvars}")
    poly = sympy.Poly.from_dict(_integral(terms)[0], *gens, domain=sympy.ZZ)
    _, factors = sympy.factor_list(poly)
    return [({m: int(c) for m, c in g.terms()}, int(e))
            for g, e in factors if g.total_degree() > 0]


def factor_polynomial(f: Polynomial):
    """Irreducible factorization over Q as [(factor, exponent), ...].

    Constant factors are dropped.  Factors have primitive integer
    coefficients and a positive lex-leading coefficient; exponents are
    positive ints.  A monomial's factors are its variables in ring order;
    any other list is sorted by degree, then text.
    """
    if f.ring.characteristic != 0:
        raise ValueError("factorization implemented over Q only")
    if f.is_zero() or f.is_constant():
        return []
    # the monomial content: the least power of each variable over all terms
    content = tuple(map(min, zip(*f.terms)))
    out = [(Polynomial.variable(f.ring, i), e) for i, e in enumerate(content) if e]
    if f.is_term():
        return out
    if out:
        f = Polynomial(f.ring, {tuple(a - b for a, b in zip(m, content)): c
                                for m, c in f.terms.items()}, normalize=False)
    degree = f.total_degree()
    if degree == 1 or (degree == 3 and _certified_irreducible_cubic(f)):
        out.append((_normalized(f.ring, f.terms), 1))
    elif degree == 2:
        out += _factor_quadric(f)
    else:
        out += [(_normalized(f.ring, g), e) for g, e in _sympy_factor_list(f.terms, f.ring.arity)]
    if len(out) > 1:
        out.sort(key=lambda fe: (fe[0].total_degree(), fe[0].to_text()))
    return out
