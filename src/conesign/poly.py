"""Exact multivariate polynomial arithmetic over Q and prime fields.

Monomials are exponent tuples, polynomials are dictionaries mapping exponent
tuples to nonzero coefficients.  Coefficients are `fractions.Fraction` in
characteristic zero and plain ints reduced mod p in characteristic p.  There
is no floating point anywhere in this module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm, prod
from operator import add

from .errors import (
    PolynomialSyntaxError,
    RingMismatchError,
    UnknownVariableError,
)

Mono = tuple  # exponent tuple, one slot per ring variable

# the largest exponent the parser accepts after '^'; a larger one is refused
# as a syntax error, because computing the power (say 3^99999999) runs on for
# minutes
MAX_EXPONENT = 1000
# bounds on what one parsed power may build, checked before multiplying:
# bounded exponents still nest, as in ((3^1000)^1000)^1000, or expand, as in
# (x + y + z)^1000 with its 501,501 terms
MAX_POWER_TERMS = 2000
MAX_POWER_BITS = 100_000


# Miller-Rabin to the first 13 primes decides primality exactly below
# _PRIME_TEST_BOUND, the least strong pseudoprime to all of them; the first
# 12 are all fooled by 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from _PRIME_TEST_BOUND on."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"characteristic {n} is too large to test for primality "
                         f"(the bound is {_PRIME_TEST_BOUND})")
    if n < 2 or n in _WITNESSES:
        return n in _WITNESSES
    # with n - 1 = d * 2^s, d odd, n is a strong probable prime to base a
    # when a^d = 1 or a^(d * 2^r) = -1 mod n for some r < s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return all(x == 1 or n - 1 in (pow(x, 1 << r, n) for r in range(s))
               for x in (pow(a, (n - 1) >> s, n) for a in _WITNESSES))


class RingDescriptor(namedtuple("RingDescriptor", "variables characteristic")):
    """A polynomial ring: ordered variable names plus coefficient characteristic."""

    __slots__ = ()

    def __new__(cls, variables: tuple, characteristic: int = 0):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not v or not (v[0].isalpha() or v[0] == "_"):
                raise ValueError(f"bad variable name {v!r}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError("characteristic must be 0 or a prime")
        return tuple.__new__(cls, (variables, characteristic))

    @property
    def arity(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.variables}") from None

    def extend(self, names) -> "RingDescriptor":
        return RingDescriptor(self.variables + tuple(names), self.characteristic)

    def drop(self, names) -> "RingDescriptor":
        gone = set(names)
        kept = tuple(v for v in self.variables if v not in gone)
        return RingDescriptor(kept, self.characteristic)

    def coeff(self, value):
        """Coerce an int/Fraction/str into this ring's coefficient field."""
        if self.characteristic == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        p = self.characteristic
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return (value.numerator % p) * pow(den, p - 2, p) % p
        return int(value) % p

    def coeff_inv(self, value):
        if self.characteristic == 0:
            return Fraction(1) / value
        return pow(value, self.characteristic - 2, self.characteristic)


def ring(text: str, characteristic: int = 0) -> RingDescriptor:
    """Build a ring from a comma/space separated variable list, e.g. ring("x, y, z")."""
    names = [s for chunk in text.split(",") for s in chunk.split()]
    if not names:
        raise ValueError("a ring needs at least one variable")
    return RingDescriptor(tuple(names), characteristic)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_degree(a: Mono) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# monomial orders


class _KeyMemo(dict):
    """Sort keys of one order, each computed once; a hit is a plain dict lookup."""

    __slots__ = ("_compute",)

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, expts):
        k = self[expts] = self._compute(expts)
        return k


def _key_function(kind: str, perm: tuple, block: int):
    """Uncached sort key of an order: bigger key = bigger monomial.  Keys are
    flat tuples of ints, so a key negates entry by entry."""
    if kind == "lex":
        return lambda expts: tuple(expts[i] for i in perm)
    if kind == "degrevlex":
        rev = perm[::-1]
        return lambda expts: (sum(expts), *[-expts[i] for i in rev])
    # elimination block order: degrevlex on the leading block, then the rest
    head, tail = perm[:block][::-1], perm[block:][::-1]
    return lambda expts: (
        sum(expts[i] for i in head),
        *[-expts[i] for i in head],
        sum(expts[i] for i in tail),
        *[-expts[i] for i in tail],
    )


class MonomialOrder:
    """Total multiplicative well-order on exponent tuples.

    kind: 'degrevlex' | 'lex' | 'block'.  `perm` lists variable indices in
    priority order; `block` is the size of the leading block for elimination
    orders (compared degrevlex-first so the block's variables dominate).

    `key(expts)` is the sort key (bigger key = bigger monomial).  Keys are
    memoised per order instance, so an order kept for a whole computation
    computes each monomial's key once; `degrevlex(n)` and `lex(n)` return one
    shared instance per arity.  `_packed` holds the Groebner engine's own
    memoised keys of packed terms, one table per module rank (0 for ideals),
    which `groebner` fills.
    """

    __slots__ = ("kind", "perm", "block", "key", "_packed")

    def __init__(self, kind: str, perm: tuple, block: int = 0):
        if kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.perm = perm
        self.block = block
        self.key = _KeyMemo(_key_function(kind, tuple(perm), block)).__getitem__
        self._packed = {}

    def signature(self) -> tuple:
        return (self.kind, self.perm, self.block)

    def __repr__(self):
        return f"MonomialOrder({self.kind}, perm={self.perm}, block={self.block})"


@cache
def _standard_order(kind: str, n: int) -> MonomialOrder:
    """One order, and so one key memo, per (kind, arity) for the process."""
    return MonomialOrder(kind, tuple(range(n)))


def degrevlex(ring_or_n) -> MonomialOrder:
    n = ring_or_n if isinstance(ring_or_n, int) else ring_or_n.arity
    return _standard_order("degrevlex", n)


def lex(ring_or_n) -> MonomialOrder:
    n = ring_or_n if isinstance(ring_or_n, int) else ring_or_n.arity
    return _standard_order("lex", n)


def elimination_order(rng: RingDescriptor, first_block) -> MonomialOrder:
    """Order that eliminates the variables named in `first_block`."""
    head = [rng.var_index(v) for v in first_block]
    tail = [i for i in range(rng.arity) if i not in set(head)]
    return MonomialOrder("block", tuple(head + tail), block=len(head))


def order_from_name(name: str, rng: RingDescriptor) -> MonomialOrder:
    if name == "degrevlex":
        return degrevlex(rng)
    if name == "lex":
        return lex(rng)
    raise ValueError(f"unknown order name {name!r}")


def _integral(terms: dict):
    """(integer numerators, common denominator d) of a term dict over Q, so
    that terms[m] == numerators[m] / d."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _primitive(terms: dict, lt) -> dict:
    """The integer term dict over Q with coprime coefficients and a positive
    coefficient at the lead lt that is a multiple of `terms` (coefficients
    int or Fraction)."""
    nums, _ = _integral(terms)
    content = gcd(*nums.values())
    if nums[lt] < 0:
        content = -content
    return nums if content == 1 else {m: n // content for m, n in nums.items()}


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable-by-convention multivariate polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, rng: RingDescriptor, terms: dict, normalize: bool = True):
        self.ring = rng
        if normalize:
            clean = {}
            for m, c in terms.items():
                c = rng.coeff(c)
                if c:
                    clean[tuple(m)] = c
            self.terms = clean
        else:
            self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, rng: RingDescriptor) -> "Polynomial":
        return cls(rng, {}, normalize=False)

    @classmethod
    def constant(cls, rng: RingDescriptor, c) -> "Polynomial":
        return cls(rng, {tuple([0] * rng.arity): c})

    @classmethod
    def one(cls, rng: RingDescriptor) -> "Polynomial":
        return cls.constant(rng, 1)

    @classmethod
    def variable(cls, rng: RingDescriptor, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else rng.var_index(name_or_index)
        e = [0] * rng.arity
        e[i] = 1
        return cls(rng, {tuple(e): 1})

    @classmethod
    def from_monomial(cls, rng: RingDescriptor, mono: Mono, coeff=1) -> "Polynomial":
        return cls(rng, {tuple(mono): coeff})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def support_variables(self) -> set:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading(self, order: MonomialOrder):
        """(monomial, coefficient) of the leading term; error on zero."""
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: MonomialOrder):
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"rings differ: {self.ring.variables} vs {other.ring.variables}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        self._check(other)
        out = dict(self.terms)
        p = self.ring.characteristic
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, normalize=False)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.ring.characteristic
        if p:
            return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()}, normalize=False)
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, normalize=False)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return Polynomial.constant(self.ring, other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.coeff(other)
            if not c:
                return Polynomial.zero(self.ring)
            p = self.ring.characteristic
            if p:
                return Polynomial(
                    self.ring, {m: (v * c) % p for m, v in self.terms.items()}, normalize=False
                )
            return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()}, normalize=False)
        self._check(other)
        p = self.ring.characteristic
        # over Q each factor is cleared of denominators once, the integer
        # numerators are multiplied, and each product term is divided by the
        # product of the two denominators as it is emitted
        a, da = (self.terms, 1) if p else _integral(self.terms)
        b, db = (other.terms, 1) if p else _integral(other.terms)
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        if not p:
            den = da * db
            out = {m: Fraction(c, den) for m, c in out.items()}
        return Polynomial(self.ring, out, normalize=False)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.ring)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if self.is_zero():
            return self
        _, c = self.leading(order)
        return self * self.ring.coeff_inv(c)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero()
            return self == Polynomial.constant(self.ring, other)
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus & substitution ---------------------------------------------

    def partial(self, var) -> "Polynomial":
        i = var if isinstance(var, int) else self.ring.var_index(var)
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            e = list(m)
            coeff = c * e[i]
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + coeff
        return Polynomial(self.ring, out)

    def evaluate(self, point):
        """Evaluate at a rational point (tuple of Fractions/ints)."""
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        pt = [self.ring.coeff(v) for v in point]
        total = self.ring.coeff(0)
        p = self.ring.characteristic
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, pt):
                if e:
                    v = v * x**e
                    if p:
                        v %= p
            total = total + v
            if p:
                total %= p
        return total

    def translate(self, point) -> "Polynomial":
        """Substitute x_i -> x_i + point_i (moves `point` to the origin)."""
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        if all(self.ring.coeff(v) == 0 for v in point):
            return self
        out = Polynomial.zero(self.ring)
        shifted = [
            Polynomial.variable(self.ring, i) + Polynomial.constant(self.ring, point[i])
            for i in range(self.ring.arity)
        ]
        for m, c in self.terms.items():
            term = Polynomial.constant(self.ring, c)
            for i, e in enumerate(m):
                if e:
                    term = term * shifted[i] ** e
            out = out + term
        return out

    def remap(self, new_ring: RingDescriptor, column_map) -> "Polynomial":
        """Move into `new_ring`; column_map[i] is the new index of old var i,
        or None if the variable is dropped (its exponent must then be 0)."""
        out = {}
        for m, c in self.terms.items():
            e = [0] * new_ring.arity
            for i, exp in enumerate(m):
                if exp == 0:
                    continue
                j = column_map[i]
                if j is None:
                    raise ValueError("nonzero exponent on a dropped variable")
                e[j] = exp
            out[tuple(e)] = c
        return Polynomial(new_ring, out)

    # -- text ------------------------------------------------------------------

    def to_text(self, order: MonomialOrder | None = None) -> str:
        """Canonical rendering: descending terms, '-' folded into coefficients."""
        if self.is_zero():
            return "0"
        order = order or degrevlex(self.ring)
        parts = []
        for m, c in self.sorted_terms(order):
            if self.ring.characteristic == 0:
                neg = c < 0
                mag = -c if neg else c
            else:
                neg, mag = False, c
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if neg else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<poly {self.to_text()}>"


# ---------------------------------------------------------------------------
# parsing


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        t, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():  # exactly the digits that int() reads
                j = i
                while j < n and t[j].isdecimal():
                    j += 1
                self.tokens.append(("int", t[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("ident", t[i:j], i))
                i = j
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


def _power_size(f: Polynomial, k: int):
    """Upper bounds on the term count of f^k and, over Q, on the bits of its
    largest numerator plus those of its common denominator (0 mod p).

    The terms of f^k are at most the multisets of k terms of f, the
    exponent vectors in the box k times that of f, and the monomials in the
    variables of f whose degree lies k times within the degree range of f.
    With F = D*f for the least common denominator D, no coefficient of F^k
    exceeds the k-th power of the sum of |F|'s coefficients."""
    if f.is_zero() or k == 0:
        return 1, 0
    monos = list(f.terms)
    lo = [min(col) for col in zip(*monos)]
    hi = [max(col) for col in zip(*monos)]
    n = sum(1 for b in hi if b)
    degs = [sum(m) for m in monos]
    dlo, dhi = k * min(degs), k * max(degs)
    terms = min(
        comb(len(monos) + k - 1, k),
        prod(k * (b - a) + 1 for a, b in zip(lo, hi)),
        comb(n + dhi, n) - (comb(n + dlo - 1, n) if dlo else 0),
    )
    if f.ring.characteristic:
        return terms, 0
    den = lcm(*(c.denominator for c in f.terms.values()))
    height = sum(abs(c.numerator) * (den // c.denominator) for c in f.terms.values())
    return terms, k * (height.bit_length() + den.bit_length())


def _check_power(terms: int, bits: int, pos: int):
    if terms > MAX_POWER_TERMS or bits > MAX_POWER_BITS:
        raise PolynomialSyntaxError(
            f"power too large: up to {MAX_POWER_TERMS} terms and "
            f"{MAX_POWER_BITS} coefficient bits are allowed", pos)


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise PolynomialSyntaxError(
            f"integer literal of {len(digits)} digits is too long", pos) from None


class _Parser:
    """Recursive descent for: sums of products; '*' optional; '^' powers; a/b rationals.

    The text is read into one {exponent tuple: coefficient} dict, in time
    linear in its terms: each product is added into that dict in place.  A
    product keeps its single-term factors (literals, juxtaposed variables and
    their powers) as one coefficient and one exponent vector; only a factor of
    several terms, a parenthesized sum or a power of one, is multiplied as a
    `Polynomial`.  Coefficients stay ints and Fractions over Q, and are
    reduced as they are read mod p, until one `Polynomial(rng, terms)`
    normalizes them.
    """

    def __init__(self, text: str, rng: RingDescriptor):
        self.lx = _Lexer(text)
        self.ring = rng
        # (name, index) with the longest names first, for splitting identifiers
        self._names = sorted(((v, i) for i, v in enumerate(rng.variables)),
                             key=lambda vi: len(vi[0]), reverse=True)
        self._idents = {}

    def parse(self) -> Polynomial:
        terms = self._expr()
        kind, _, pos = self.lx.peek()
        if kind != "end":
            raise PolynomialSyntaxError("trailing input", pos)
        return Polynomial(self.ring, terms)

    def _expr(self) -> dict:
        terms = {}
        kind = self.lx.peek()[0]
        if kind in ("+", "-"):
            self.lx.next()
        while True:
            self._term(terms, -1 if kind == "-" else 1)
            kind = self.lx.peek()[0]
            if kind not in ("+", "-"):
                return terms
            self.lx.next()

    def _term(self, terms: dict, coeff) -> None:
        """Add coeff times the product of the factors that follow into terms."""
        p = self.ring.characteristic
        expts = [0] * self.ring.arity
        product = None  # of the factors that do not have exactly one term
        while True:
            kind, val, pos = self.lx.next()
            if kind == "ident":
                indices = self._variables(val, pos)
                for i in indices:
                    expts[i] += 1
                # a trailing '^' binds to the last juxtaposed variable: xy^2 = x*y^2
                k, _ = self._exponent()
                if k is not None:
                    expts[indices[-1]] += k - 1
            elif kind == "int":
                c = self._literal(val, pos)
                k, kpos = self._exponent()
                if k is not None:
                    if not p:
                        _check_power(1, k * (abs(c.numerator).bit_length()
                                             + c.denominator.bit_length()), kpos)
                    c = pow(c, k, p) if p else c ** k
                coeff = coeff * c % p if p else coeff * c
            elif kind == "(":
                f = Polynomial(self.ring, self._expr())
                kind, _, pos = self.lx.next()
                if kind != ")":
                    raise PolynomialSyntaxError("expected ')'", pos)
                k, kpos = self._exponent()
                if k is not None:
                    _check_power(*_power_size(f, k), kpos)
                    f = f ** k
                if len(f.terms) == 1:
                    [(m, c)] = f.terms.items()
                    expts = list(map(add, expts, m))
                    coeff = coeff * c % p if p else coeff * c
                else:
                    product = f if product is None else product * f
            else:
                raise PolynomialSyntaxError("expected a factor", pos)
            kind = self.lx.peek()[0]
            if kind == "*":
                self.lx.next()
            elif kind not in ("int", "ident", "("):
                break
        m = tuple(expts)
        if product is None:
            terms[m] = terms.get(m, 0) + coeff
        else:
            for m, c in (product * Polynomial(self.ring, {m: coeff})).terms.items():
                terms[m] = terms.get(m, 0) + c

    def _int(self) -> int:
        kind, val, pos = self.lx.next()
        if kind != "int":
            raise PolynomialSyntaxError("expected an integer", pos)
        return _integer(val, pos)

    def _literal(self, digits: str, pos: int):
        """The integer or a/b starting at pos: an int or a Fraction over Q,
        reduced mod p."""
        value = _integer(digits, pos)
        if self.lx.peek()[0] == "/":
            self.lx.next()
            pos = self.lx.peek()[2]  # a denominator's errors point at it
            den = self._int()
            if den == 0:
                raise PolynomialSyntaxError("zero denominator", pos)
            value = Fraction(value, den)
        if not self.ring.characteristic:
            return value
        try:
            return self.ring.coeff(value)
        except ZeroDivisionError:
            raise PolynomialSyntaxError(
                "denominator not invertible in this characteristic", pos) from None

    def _exponent(self):
        """(k, position of k) for a '^ k' that follows, else (None, None)."""
        if self.lx.peek()[0] != "^":
            return None, None
        self.lx.next()
        pos = self.lx.peek()[2]
        k = self._int()
        if k > MAX_EXPONENT:
            raise PolynomialSyntaxError(f"exponent above {MAX_EXPONENT}", pos)
        return k, pos

    def _variables(self, name: str, pos: int) -> tuple:
        """The indices of the ring variables an identifier juxtaposes, by
        greedy longest match, worked out once per identifier and parse."""
        indices = self._idents.get(name)
        if indices is None:
            found, i = [], 0
            while i < len(name):
                for v, j in self._names:
                    if name.startswith(v, i):
                        found.append(j)
                        i += len(v)
                        break
                else:
                    raise UnknownVariableError(
                        f"cannot read {name[i:]!r} as ring variables {self.ring.variables}",
                        pos + i)
            indices = self._idents[name] = tuple(found)
        return indices


def parse_polynomial(text: str, rng: RingDescriptor) -> Polynomial:
    if not text.strip():
        raise PolynomialSyntaxError("empty polynomial", 0)
    return _Parser(text, rng).parse()


def parse_generators(text: str, rng: RingDescriptor):
    """Split on commas and newlines, parse each chunk; empty chunks are skipped."""
    chunks = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        chunks.extend(line.split(","))
    return [parse_polynomial(c, rng) for c in chunks if c.strip()]
