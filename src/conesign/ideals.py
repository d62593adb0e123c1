"""Ideal-level operations: elimination, saturation, dimension and degree,
tangent spaces, minimal primes with certified primality, and their
multiplicities.

Saturation is one elimination over R[w]: I : f^infinity = (I + (1 - w*f))
meet R.

Dimension, degree, multiplicity and colength come from one series, the
Hilbert numerator of the degrevlex leads of the reduced basis.  Under a
graded order R/I and R/in(I) have the same affine Hilbert function (Cox-
Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 9 sec. 3), so the
series of the leads gives the Krull dimension, the degree of the
projective closure and, in dimension 0, the colength, without
homogenizing or dividing.  An ideal keeps its series once computed.  The
unit ideal has the empty series and dimension -1.

A decomposition holds one PrimeComponent record per component, from
candidate to report, and its multiplicities come from one chain of
saturations, `_multiplicities`, which reads each record's dimension and
degree: the primes go by descending dimension, each is saturated away by
an element in none of the later primes, and its multiplicity times its
degree is what the top-dimensional degree loses.  The chain stops once the
degrees force every remaining multiplicity to 1, so it takes at most k - 1
saturations for k primes, and none for a reduced union of primes of one
dimension.

All ideals are presented by finite generating sets over an explicit ring.
An ideal keeps one basis, its reduced degrevlex one, and division by it is
set up once, so repeated membership tests, normal forms and equality
checks against the same presentation are cheap.  Work under any other
order is one Buchberger run that nothing keeps.  An ideal built from a
reduced basis already in hand is presented by it:

- `eliminate` keeps the w-free elements of the reduced block-order basis.
  They are the reduced degrevlex basis of the elimination ideal, because the
  block order compares w-free monomials by degrevlex of the smaller ring.
  `saturate` and the Rees ideal of `cones` inherit this.  One helper,
  `_restricted`, keeps and moves such elements; the cone images of `cones`
  use it too.
- An ideal derived from another is built at once, by one Buchberger run
  that starts from the parent's reduced degrevlex basis as a known Groebner
  basis and pairs only the new elements.  One method,
  `IdealPresentation._derived`, builds every such ideal.  `with_extra` adds
  elements: the split candidates of `minimal_primes`, which keeps its
  primes as they come, and the normal cone of `cones`.  `translate` moves a
  point to the origin, and the moved basis keeps its leads, so no pair is
  queued; at the origin the ideal is its own translate.  `euler` works on
  these.

`saturate` extends I's reduced basis in the same way, under the block
order of its one run over R[w].  Radical membership is a saturation:
f lies in the radical of I exactly when I : f^infinity is the unit ideal.

Candidate primes are split or certified by one routine, `_certify_prime`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import le

from .errors import (
    InfiniteColengthError,
    PointNotOnVarietyError,
    PrimalityUndecidedError,
    RingMismatchError,
)
from .factor import factor_polynomial, gram_matrix
from .groebner import _Divider, buchberger
from .linalg import _echelon, _primitive, rational_rank
from .poly import (
    Polynomial,
    RingDescriptor,
    degrevlex,
    elimination_order,
    parse_generators,
)


class IdealPresentation:
    """An ideal of a polynomial ring, given by generators.

    Equality means equality of ideals, not of generating sets: two
    presentations are equal when they share a ring and a reduced degrevlex
    basis, which is canonical.  Hashing, like equality, goes through the
    ring and the reduced-basis tuple, whose polynomials hash and compare by
    their terms; no basis is rendered as text for either.
    """

    __slots__ = ("ring", "generators", "_basis", "_divide", "_series", "_signature")

    def __init__(self, rng: RingDescriptor, generators):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != rng:
                raise ValueError("generator ring mismatch")
        self.ring = rng
        self.generators = gens
        self._basis = None  # the reduced degrevlex basis, once computed
        self._divide = None  # division by the reduced degrevlex basis
        self._series = None  # the lead series of `_lead_series`
        self._signature = None  # the basis as texts

    @classmethod
    def from_reduced_basis(cls, rng: RingDescriptor, basis) -> "IdealPresentation":
        """The ideal generated by `basis`, which must be the reduced degrevlex
        Groebner basis as `gb()` returns it: monic, interreduced and sorted by
        ascending lead.  Nothing checks this.  The basis is cached, so no
        Buchberger run repeats it.

        Callers: `_restricted` (the part of a reduced basis in a subring's
        variables, for `eliminate` and the cone images), `_derived` (the
        basis of `with_extra` and `translate`) and `hilb.monomial_ideal_of`
        (the minimal generators of a monomial ideal)."""
        I = cls(rng, basis)
        I._basis = I.generators
        return I

    def gb(self) -> tuple:
        """The reduced degrevlex basis, computed from the generators on first
        use."""
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, degrevlex(self.ring)))
        return self._basis

    def signature(self) -> tuple:
        """The reduced degrevlex basis as a tuple of texts: the one rendering
        of an ideal that reports print and that their sorts key on, rendered
        on first use."""
        if self._signature is None:
            self._signature = tuple(g.to_text() for g in self.gb())
        return self._signature

    def _division(self) -> _Divider:
        """Division by the reduced degrevlex basis, set up on first use and
        kept for every later membership test, normal form or quotient."""
        if self._divide is None:
            self._divide = _Divider(self.gb(), degrevlex(self.ring))
        return self._divide

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("membership across rings")
        return not self._division()(f.terms)

    def is_unit_ideal(self) -> bool:
        gb = self.gb()
        return len(gb) == 1 and gb[0].is_constant()

    def _derived(self, move, extra=()) -> "IdealPresentation":
        """The ideal generated by `move(g)` for g in self's reduced degrevlex
        basis, and `extra`, presented by its own reduced basis.  `move` must
        carry self's basis to a degrevlex Groebner basis of the moved ideal,
        which one Buchberger run extends by `extra`."""
        return IdealPresentation.from_reduced_basis(self.ring, buchberger(
            extra, degrevlex(self.ring), known=map(move, self.gb())))

    def with_extra(self, extra) -> "IdealPresentation":
        """The ideal self + (extra), whose degrevlex basis extends self's."""
        return self._derived(lambda g: g, extra)

    def translate(self, point) -> "IdealPresentation":
        """The ideal {f(x + point) : f in self}, which moves `point` to the
        origin, and self itself when `point` is the origin.  Translation
        keeps each polynomial's top-degree form, so the leads under a graded
        order: self's degrevlex basis moves to a Groebner basis of the new
        ideal, which its degrevlex basis extends with no pair queued."""
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        if all(self.ring.coeff(c) == 0 for c in point):
            return self
        return self._derived(lambda g: g.translate(point))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealPresentation):
            return NotImplemented
        return self.ring == other.ring and self.gb() == other.gb()

    def __hash__(self) -> int:
        return hash((self.ring, self.gb()))

    def __repr__(self) -> str:
        body = ", ".join(g.to_text() for g in self.generators) or "0"
        return f"IdealPresentation({body})"


def ideal(rng: RingDescriptor, text: str) -> IdealPresentation:
    return IdealPresentation(rng, parse_generators(text, rng))


def transplant(f: Polynomial, target: RingDescriptor) -> Polynomial:
    """Rewrite f by name in a ring that holds every variable f uses;
    ValueError when f uses one the ring lacks."""
    held = set(target.variables)
    return f.remap(target, [target.var_index(v) if v in held else None
                            for v in f.ring.variables])


def _restricted(basis, target: RingDescriptor) -> IdealPresentation:
    """The ideal of `target` generated by the elements of `basis` that use
    only target's variables, moved there by name.  Both callers pass a
    reduced basis whose such elements are the reduced degrevlex basis of
    its intersection with `target`, so that basis comes cached."""
    held = set(target.variables)
    return IdealPresentation.from_reduced_basis(target, [
        transplant(g, target) for g in basis
        if all(g.ring.variables[i] in held for i in g.support_variables())])


def contains_ideal(big: IdealPresentation, small: IdealPresentation) -> bool:
    """True when small is a subset of big (same ambient ring)."""
    if big.ring != small.ring:
        raise ValueError("ideal comparison across different rings")
    return all(map(big.contains, small.generators))


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def eliminate(I: IdealPresentation, drop_names) -> IdealPresentation:
    """Intersect I with the subring omitting drop_names, which must be
    distinct variables of I's ring (ValueError otherwise); I itself when
    there are none."""
    drop_names = tuple(drop_names)
    unknown = sorted(set(drop_names) - set(I.ring.variables))
    if unknown:
        raise ValueError(f"cannot eliminate {', '.join(unknown)}: not a variable "
                         f"of the ring {', '.join(I.ring.variables)}")
    repeated = sorted({v for v in drop_names if drop_names.count(v) > 1})
    if repeated:
        raise ValueError(f"cannot eliminate {', '.join(repeated)}: named more than once")
    if not drop_names:
        return I
    order = elimination_order(I.ring, drop_names)
    return _restricted(buchberger(I.generators, order), I.ring.drop(drop_names))


def saturate(I: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """Saturation I : f^infinity = (I + (1 - w*f)) meet R, by one elimination
    of a fresh variable w over R[w]: f is inverted there, so the result is
    the unit ideal exactly when f lies in the radical of I."""
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    w = _fresh_name("w", I.ring.variables)
    ext = I.ring.extend((w,))
    wpoly = Polynomial.variable(ext, ext.var_index(w))
    inverse = Polynomial.one(ext) - wpoly * transplant(f, ext)
    # the block order compares w-free monomials by degrevlex of R, so I's
    # reduced basis stays a Groebner basis of I*R[w] under it
    return _restricted(buchberger((inverse,), elimination_order(ext, (w,)),
                                  known=(transplant(g, ext) for g in I.gb())), I.ring)


def radical_contains(I: IdealPresentation, f: Polynomial) -> bool:
    """Membership of f in the radical of I: f lies in I, or I : f^infinity
    is the unit ideal (Rabinowitsch)."""
    return I.contains(f) or saturate(I, f).is_unit_ideal()


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of the quotient ring; -1 for the unit ideal."""
    return _lead_series(I)[1]


def colength(I: IdealPresentation) -> int:
    """dim_k R/I, when finite: the number of standard monomials of I's
    degrevlex leads, which is Q(1) for the lead series Q(t) / (1-t)^D when
    D <= 0 (0 for the unit ideal).  Positive D raises InfiniteColengthError."""
    Q, D = _lead_series(I)
    if D > 0:
        raise InfiniteColengthError("quotient has infinite colength")
    return sum(Q)


# ---------------------------------------------------------------------------
# Hilbert series of monomial quotients, dimension and degree
# ---------------------------------------------------------------------------


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _minimalize_monomials(monos):
    monos = sorted(set(monos), key=sum)
    out = []
    for m in monos:
        if not any(all(map(le, o, m)) for o in out):
            out.append(m)
    return out


def hilbert_numerator(monos, arity: int) -> list:
    """Numerator N with series(R/M) = N(t) / (1-t)^arity, M = (monos), with
    no trailing zero; [] when M is the unit ideal.

    Splits on the most shared variable x: N(M) = N(M + (x)) + t N(M : x),
    and N(M + (x)) is (1 - t) times the numerator of the generators free of
    x.  The base cases are closed forms: no generator, one, two
    (1 - t^a - t^b + t^deg lcm), and pairwise coprime ones (the product of
    the 1 - t^deg m).  Only M : x is minimalized, and only against the
    generators free of x, the one place a divisor can arise.
    """

    def rec(ms):  # a minimal generating set without the constant monomial
        if len(ms) < 3:
            # 1, 1 - t^a, or 1 - t^a - t^b + t^deg lcm
            top = sum(map(max, *ms)) if len(ms) == 2 else sum(map(sum, ms))
            out = [1] + [0] * top
            for m in ms:
                out[sum(m)] -= 1
            if len(ms) == 2:
                out[top] += 1
            return out
        counts = [0] * arity
        for m in ms:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
        pivot = max(range(arity), key=counts.__getitem__)
        if counts[pivot] <= 1:
            # the product of the 1 - t^deg m, built in place from the top
            out = [1] + [0] * sum(map(sum, ms))
            top = 0
            for d in map(sum, ms):
                for i in range(top, -1, -1):
                    out[i + d] -= out[i]
                top += d
            return out
        rest = [m for m in ms if not m[pivot]]
        colon = [m[:pivot] + (m[pivot] - 1,) + m[pivot + 1:] for m in ms if m[pivot]]
        # a quotient free of x divides only generators free of x
        freed = [m for m in colon if not m[pivot]]
        colon += [m for m in rest if not any(all(map(le, f, m)) for f in freed)]
        N, C = rec(rest), rec(colon)
        out = [0] * (max(len(N), len(C)) + 1)
        for i, c in enumerate(N):
            out[i] += c
            out[i + 1] -= c
        for i, c in enumerate(C):
            out[i + 1] += c
        return _ptrim(out)

    ms = _minimalize_monomials(monos)
    if ms and not any(ms[0]):
        return []
    return rec(ms)


def _lead_series(I: IdealPresentation):
    """(Q, D) with series(R/in(I)) = Q(t) / (1-t)^D and Q(1) != 0, for the
    degrevlex leads in(I) of I's reduced basis.

    D is the Krull dimension of R/I and Q(1) the degree of the closure of
    the scheme cut out by I, or its colength when D = 0; for homogeneous I,
    series(R/I) is the same.  The unit ideal, whose scheme is empty, has
    ((), -1).  I keeps the series once computed; Q is a tuple, so no
    caller can change what the next one reads.
    """
    if I._series is None:
        order = degrevlex(I.ring)
        N = hilbert_numerator([g.leading(order)[0] for g in I.gb()], I.ring.arity)
        D = I.ring.arity if N else -1
        while N and sum(N) == 0:
            # divide by 1 - t: the partial sums, whose last one is N(1) = 0
            N = _ptrim(list(itertools.accumulate(N))[:-1])
            D -= 1
        I._series = (tuple(N), D)
    return I._series


# ---------------------------------------------------------------------------
# Jacobians and tangent spaces
# ---------------------------------------------------------------------------


def jacobian(I: IdealPresentation) -> list:
    return [[g.partial(i) for i in range(I.ring.arity)] for g in I.generators]


def is_point_on(I: IdealPresentation, point) -> bool:
    return all(g.evaluate(point) == 0 for g in I.generators)


def tangent_dimension_at_point(I: IdealPresentation, point) -> int:
    """Dimension of the embedded Zariski tangent space at a rational point."""
    point = tuple(I.ring.coeff(c) for c in point)
    if not is_point_on(I, point):
        raise PointNotOnVarietyError(
            "tangent space requested at a point outside the zero set")
    rows = [[e.evaluate(point) for e in row] for row in jacobian(I)]
    return I.ring.arity - rational_rank(rows)


def generic_tangent_dimension(I: IdealPresentation, P: IdealPresentation) -> int:
    """Tangent-space dimension of V(I) at the generic point of V(P).

    P must be a prime containing I; the Jacobian of I's generators is
    row-reduced over the function field of V(P) by the fraction-free
    elimination of `linalg`, keeping every entry in normal form modulo P.
    """
    if I.ring != P.ring:
        raise ValueError("ideal and prime live in different rings")
    if not contains_ideal(P, I):
        raise ValueError("the given prime does not contain the ideal")
    divide = P._division()

    def mod_p(row):
        reduced = ((c, divide(e.terms)) for c, e in row.items())
        return {c: Polynomial(P.ring, r, normalize=False) for c, r in reduced if r}

    rows = [mod_p(dict(enumerate(row))) for row in jacobian(I)]
    return I.ring.arity - len(_echelon(rows, mod_p))


# ---------------------------------------------------------------------------
# Minimal primes
# ---------------------------------------------------------------------------


class PrimeComponent(namedtuple("PrimeComponent", [
        "prime", "multiplicity", "dimension", "degree",
        "primality"])):  # "certified" or "undecided"
    """One minimal component of a decomposition, with its primality status."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.prime.signature()),
            "multiplicity": self.multiplicity,
            "dimension": self.dimension,
            "degree": self.degree,
            "primality_status": self.primality,
            "geometric_irreducibility": _geometric_flag(self.prime),
        }


def _is_linear(gb) -> bool:
    return all(g.total_degree() <= 1 for g in gb)


def _minimal_polynomial(I: IdealPresentation, var: int) -> Polynomial:
    """A constant multiple of the minimal polynomial of x_var acting on the
    finite quotient R/I: the generator of I meet Q[x_var].

    Division gives lam_k * x^k = rem_k modulo I for k = 0..n, n the
    colength.  Each row holds rem_k over the standard terms and lam_k in a
    tag column for x^k, the tags after the standard terms and higher powers
    first.  A combination of rows with no standard-term entry is a
    polynomial in x of degree at most n that lies in I, read off its tags.
    These are the multiples of the minimal polynomial, so the pivot row at
    the last pivot column, which has the lowest degree among them, is the
    minimal polynomial times a constant.
    """
    divide = I._division()
    std = divide.standard_terms()
    n = len(std)
    column = {t: c for c, t in enumerate(std)}
    unit = divide.pk.units[var]
    rows = []
    for k in range(n + 1):
        rem, lam = divide.remainder({k * unit: 1})
        row = {column[t]: c for t, c in rem.items()}
        row[2 * n - k] = lam
        rows.append(row)
    pivots = _echelon(rows, _primitive)
    tags = pivots[max(pivots)]
    return Polynomial(I.ring, divide.pk.unpack({(2 * n - c) * unit: v for c, v in tags.items()}))


def _geometric_flag(I: IdealPresentation) -> str:
    """'certified' when irreducibility over Q provably persists over C: a
    linear ideal, or a principal one whose generator is c*x_v + h with h
    free of x_v (a graph) or a quadratic form of rank at least 3."""
    gb = I.gb()
    if _is_linear(gb):
        return "certified"
    if len(gb) != 1:
        return "unknown"
    g, = gb
    for var in g.support_variables():
        # x_v itself is the only term of g that contains x_v
        if [m for m in g.terms if m[var]] == [tuple(int(i == var) for i in range(g.ring.arity))]:
            return "certified"
    if g.is_homogeneous() and g.total_degree() == 2 and rational_rank(gram_matrix(g)[1]) >= 3:
        return "certified"
    return "unknown"


def _certify_prime(I: IdealPresentation, irreducible=None):
    """('prime',) / ('split', polys) / ('undecided',).

    The reduced basis of a prime has no reducible element, so the first
    element that factors nontrivially splits I along its factors.  When
    none does, I is prime if its basis is linear or a single irreducible
    polynomial.  In dimension 0 the minimal polynomials of the variables
    on R/I decide: a reducible one splits I along its factors, and an
    irreducible one of degree equal to the colength makes R/I a field.

    The unit ideal is not prime: it splits into no factors.

    `irreducible` holds polynomials already found not to factor, which
    are not factored again; each basis element found not to factor here
    joins it.
    """
    irreducible = set() if irreducible is None else irreducible
    gb = I.gb()
    if any(g.is_constant() for g in gb):
        return ("split", [])
    for g in gb:
        if g in irreducible:
            continue
        facs = factor_polynomial(g)
        if sum(e for _, e in facs) > 1:
            return ("split", [f for f, _ in facs])
        irreducible.add(g)
    if _is_linear(gb) or len(gb) == 1:
        return ("prime",)
    Q, D = _lead_series(I)
    if D == 0:
        size = sum(Q)
        for var in range(I.ring.arity):
            m = _minimal_polynomial(I, var)
            facs = factor_polynomial(m)
            if sum(e for _, e in facs) > 1:
                return ("split", [f for f, _ in facs])
            if m.total_degree() == size:
                return ("prime",)
    return ("undecided",)


def _minimal_prime_list(I: IdealPresentation, floor: int = 0) -> list:
    """The minimal primes of I of dimension at least `floor`, presented by
    their reduced bases, as PrimeComponent records with no multiplicity and
    the primality "certified" or "undecided".

    A candidate K of dimension below `floor` is dropped as soon as its basis
    is known, neither certified nor split: every prime over K has dimension
    at most dim K.  So the list is the unfloored list's members of dimension
    at least `floor`.  The unit ideal, of dimension -1, lies below the
    floor and leaves nothing.

    A candidate K is dropped when another candidate L lies inside it.  A
    prime L properly inside K has dim L > dim K, since every proper quotient
    of an affine domain has lower dimension; so a certified L of dimension
    at most dim K is never tested.  An undecided L may not be prime and is
    tested against every K.
    """
    found = []
    seen = set()
    irreducible = set()
    work = [I]
    while work:
        K = work.pop()
        # a reduced basis is canonical, and polynomials hash by their terms
        basis = K.gb()
        if basis in seen:
            continue
        seen.add(basis)
        Q, D = _lead_series(K)
        if D < floor:
            continue
        verdict = _certify_prime(K, irreducible)
        if verdict[0] == "split":
            for f in verdict[1]:
                work.append(K.with_extra((f,)))
            continue
        status = "certified" if verdict[0] == "prime" else "undecided"
        found.append(PrimeComponent(K, None, D, sum(Q), status))

    # keep the ideals minimal under inclusion
    return [K for K in found
            if not any(L is not K and (L.primality != "certified" or L.dimension > K.dimension)
                       and contains_ideal(K.prime, L.prime) for L in found)]


def minimal_primes(I: IdealPresentation, floor: int = 0) -> list:
    """Minimal primes of I over Q of dimension at least `floor`, as
    PrimeComponent records.  `cones` sets the floor at N for the normal cone
    of a subscheme of A^N, which is purely N-dimensional (Fulton,
    Intersection Theory, B.6.6).  The multiplicities are those of the full
    decomposition, as each dropped prime lies below every kept one.

    Components whose primality cannot be certified by the implemented
    rules are still returned, flagged "undecided".  The list is sorted by
    descending dimension, then ascending degree, then basis text.

    The multiplicities come from one chain of saturations, `_multiplicities`,
    which stops once the degrees force every remaining multiplicity to 1:
    the degree of an ideal is the sum of multiplicity times degree over its
    top-dimensional primes, and each multiplicity is at least 1.  So a
    reduced union of primes of one dimension takes no saturation.

    An undecided component may not be prime, and then the chain of
    saturations need not close: the multiplicities' ArithmeticError or
    ValueError becomes PrimalityUndecidedError.
    """
    comps = _minimal_prime_list(I, floor)
    try:
        multiplicities = _multiplicities(I, comps)
    except (ArithmeticError, ValueError) as exc:
        if all(c.primality == "certified" for c in comps):
            raise
        raise PrimalityUndecidedError(
            "a component of uncertified primality leaves the multiplicities "
            "undefined") from exc
    return sorted((c._replace(multiplicity=m) for c, m in zip(comps, multiplicities)),
                  key=lambda c: (-c.dimension, c.degree, c.prime.signature()))


def _avoiding(P: IdealPresentation, later) -> Polynomial:
    """An element of the prime P that lies in none of the primes `later`.

    An element of P's reduced basis b_0..b_(s-1) when one will do, else
    the first g_c = sum_t c^t b_t, c = 1, 2, ..., that does.  For each Q
    in `later` the normal form of g_c modulo Q is a polynomial in c of
    degree at most s - 1, nonzero when P is not inside Q, so at most
    s - 1 values of c put g_c in Q and c never passes
    len(later) * (s - 1) + 1 over Q.
    """
    basis = P.gb()
    for g in basis:
        if not any(Q.contains(g) for Q in later):
            return g
    if any(all(map(Q.contains, basis)) for Q in later):
        raise ValueError("component list contains nested primes")
    for c in range(1, len(later) * (len(basis) - 1) + 2):
        g = sum((b * c**t for t, b in enumerate(basis)), Polynomial.zero(P.ring))
        if not any(Q.contains(g) for Q in later):
            return g
    raise ArithmeticError("no element avoids the later primes")


def _multiplicities(I: IdealPresentation, comps) -> list:
    """The multiplicity of I along the prime of each of `comps`, records of
    I's minimal primes with their dimensions and degrees, in their order,
    from one chain of at most len(comps) - 1 saturations.

    The primes are taken by descending dimension (a stable sort), and J
    starts at I.  deg J, from the affine series of its leads, counts only
    J's top-dimensional components, each by its multiplicity times its
    degree (Fulton, Intersection Theory, ch. 1 and B.6).  At P_i,
    dim J = dim P_i, and J is saturated by an element of P_i in none of the
    later primes: that removes P_i with every embedded component over it
    and keeps the later primes.  So m_i * deg P_i is deg J less the degree
    of the saturation when the saturation keeps dimension dim P_i, and
    deg J otherwise.

    The chain stops early when the degrees leave nothing open: when the
    remaining primes are certified, all of dimension dim J, and their
    degrees add up to deg J, each multiplicity is at least 1, so each is 1.

    A nested pair has the larger prime first, so a later prime containing
    P_i raises ValueError, and a non-integral ratio raises ArithmeticError.
    Distinct primes of one dimension cannot nest, so where the chain stops
    early only a prime listed twice raises that ValueError.  A component
    missing from `comps` raises ArithmeticError only when the chain reaches
    a prime of lower dimension, as J keeps it; one of a prime's dimension
    is silently counted into a multiplicity.  So `comps` must hold every
    minimal prime of I down to its least dimension.
    """
    if not comps:
        return []
    chain = sorted(range(len(comps)), key=lambda i: -comps[i].dimension)
    out = [0] * len(comps)
    J = I
    Q, D = _lead_series(J)
    for step, i in enumerate(chain):
        P = comps[i]
        if D != P.dimension:
            raise ArithmeticError("saturation left extra components behind")
        top = sum(Q)
        remaining = [comps[j] for j in chain[step:]]
        if top == sum(c.degree for c in remaining) and all(
                c.primality == "certified" and c.dimension == D for c in remaining):
            if len({c.prime for c in remaining}) < len(remaining):
                raise ValueError("component list contains nested primes")
            for j in chain[step:]:
                out[j] = 1
            break
        later = [c.prime for c in remaining[1:]]
        if later:
            J = saturate(J, _avoiding(P.prime, later))
            Q, D = _lead_series(J)
            if D == P.dimension:
                top -= sum(Q)
        m, rest = divmod(top, P.degree)
        if rest:
            raise ArithmeticError("degree ratio is not an integer")
        out[i] = m
    return out
