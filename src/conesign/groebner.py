"""Buchberger Groebner engine for ideals and submodules, multivariate
division, and syzygy modules.

One engine serves ideals and submodules of R^r alike.  Inside it every term
is one Python int (`_Packing`): a 16-bit field per variable, and for a
module term (pos, m) the one-hot pos in the low r fields with m above them.
The top bit of each field is a guard bit, so a product is a + b, a quotient
a - b, and a | b exactly when ((b | G) - a) & G == G for the mask G of all
guard bits; lcms and the product criterion come from the same masks, with
no unpacking.  A lead divides a module term only at its own position, and
two leads at one position share that field, so the product criterion never
fires between them; no pair is formed between leads at different positions.
Every exponent the engine handles stays below 2^15: an input exponent of
2^15 or more, or a product that reaches it, raises `BoundExceededError`.
Module terms are ordered term over position (by monomial, then the smaller
position first), and only the packing's key says so.  The public functions
pack their input and unpack their output, so `Polynomial.terms` and
`ModuleVector` keep exponent tuples and (position, monomial) terms.

Buchberger keeps the basis as packed term dicts beside their leading terms,
which the reductions, the pair pruning and the final interreduction reuse.
Over Q every basis element and every remainder is a primitive integer term
dict (coprime coefficients, positive lead), and the one division kernel
`_reduce_terms` reduces fraction-free: a term c*m falls to g as
r <- (lc g/d) * r - (c/d) * (m/lt g) * g with d = gcd(c, lc g), and the
content is removed once per reduction, when a remainder joins the basis.
The kernel takes its next term from a heap of negated order keys, pushing
each term as it comes new into the work and skipping one that has cancelled
since (lazy deletion).
Mod p the basis is monic.  Only `_reduce_groebner` makes elements monic over
`Fraction`, as it emits them; scaling changes no lead, so the pairs, their
order and the output are those of monic arithmetic.

One Buchberger loop serves ideals and submodules, signature-based
(`_by_signatures`, after F5C): the generators enter one at a time by
ascending lead, each as a level whose elements carry signatures u*e_i,
position over term.  S-pairs, formed only between leads at one position,
leave a heap by ascending signature and are reduced regularly, by
`_reduce_terms` with a signature bound: an element of an earlier level
always divides, one of the level only at a smaller multiplied signature.
For an ideal the principal syzygies f_j e_i - f_i e_j make the leads of the
earlier levels syzygy signatures, so a pair whose signature one of them
divides falls; in every run so does one that a signature reduced to zero
before divides, or that a newer element rewrites.  Under pair criteria
alone katsura-5 reduced 48 of its 66 S-polynomials to zero and cyclic-6 441
of 620; now they reduce 0 of 26 and 8 of 163.  A submodule has no principal
syzygies, so only the signatures that reduced to zero and the rewrite
criterion drop its pairs; that leaves it more reductions than
Gebauer-Moeller pruning would, on module bases that no workload builds.
The loop builds each S-polynomial from the two stored elements and the pair's
lcm, and counts every pair it forms against `max_pairs`, those a criterion
drops at once included, so the budget binds on small input too.  A run for
an ideal may start from a Groebner basis under the run's order, passed as
`buchberger`'s `known`: its elements are the level before the first
generator, and no pair among them is formed.
Reduced bases are monic, interreduced, and sorted, hence canonical for
(ideal or submodule, order).
Every public entry passes its input through one step, `_packed_input`,
which drops zeros, checks one ring and one rank, packs, finds the leads and
normalizes (monic mod p, primitive integer over Q); the loop normalizes only
the elements it adds.  All work with a given basis goes through one
builder, `_Divider`, on the divisors and leads of that step: division of
packed or plain term dicts, the standard terms below the leads, and the
Schreyer syzygies of the divisors (`_syzygies`, read off the S-pair
reductions' quotients and multipliers), which `hilb` uses packed.  Over Q
no division builds a `Fraction`: an exact remainder clears the input's
denominators once and divides by the multiplier and the denominator once at
the end."""

from __future__ import annotations

import heapq
import itertools
import struct
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

from .errors import BoundExceededError, InfiniteColengthError, RingMismatchError
from .poly import (
    MonomialOrder,
    Polynomial,
    _integral,
    _KeyMemo,
    _key_function,
    _primitive,
)

DEFAULT_MAX_PAIRS = 500_000

# a packed term has one 16-bit field per slot; the top bit of each field is a
# guard bit, so every exponent the engine handles stays below 2^15
_FIELD = 16
_GUARD_BIT = 1 << (_FIELD - 1)
_MAX_EXPONENT = _GUARD_BIT - 1


def _exponent_bound() -> BoundExceededError:
    return BoundExceededError(
        f"exponent above {_MAX_EXPONENT} in a Groebner computation")


# ---------------------------------------------------------------------------
# packed terms


class _Packing:
    """The engine's terms of R^rank under one order (rank 0: of R itself),
    each packed into one int.

    Field k holds bits 16k to 16k + 15.  A module term (pos, m) has the
    one-hot pos in its low `rank` fields and the exponents of m above them.
    With every exponent below 2^15 the top bit of each field is free: `guard`
    sets all of them.  a + b is the product, a - b the quotient (when b
    divides a), and a | b exactly when ((b | guard) - a) & guard == guard,
    since a field of b | guard keeps its guard bit after subtracting a's
    field exactly when that field is no bigger.  A product can carry into a
    guard bit; `_reduce_terms` checks every term it takes up, so no carry
    reaches a divisibility test.

    `key` is the memoised heap key of a packed term: the order key of its
    monomial negated entry by entry, then the term itself, so the smallest
    heap key is the biggest term and a heap of keys gives back its terms.
    Two module terms with one monomial differ only in their position fields,
    and the one at the smaller position is the smaller int, so the bigger
    term: the order is term over position.  A monomial with no position
    field, such as a signature, gets its key the same way."""

    __slots__ = ("rank", "units", "guard", "place", "key", "_struct", "_heads")

    def __init__(self, order: MonomialOrder, rank: int):
        fields = rank + len(order.perm)
        self.rank = rank
        self.units = [1 << _FIELD * k for k in range(fields)]  # 1 in one field
        self.guard = sum(self.units) * _GUARD_BIT
        self.place = (1 << _FIELD * rank) - 1  # the position fields
        self._struct = struct.Struct(f"<{fields}H")
        self._heads = [(0,) * pos + (1,) + (0,) * (rank - pos - 1) for pos in range(rank)]
        raw = _key_function(*order.signature())
        fields_of = self.fields

        def compute(t):
            return (*[-x for x in raw(fields_of(t)[rank:])], t)
        self.key = _KeyMemo(compute).__getitem__

    def fields(self, t: int) -> tuple:
        return self._struct.unpack(t.to_bytes(self._struct.size, "little"))

    def pack(self, terms: dict) -> dict:
        """{packed term: c} of a term dict {exponent tuple: c}, or for a
        module {(pos, m): c}; BoundExceededError on an exponent of 2^15 or
        more."""
        pack, heads = self._struct.pack, self._heads
        try:
            if heads:
                out = {int.from_bytes(pack(*heads[pos], *m), "little"): c
                       for (pos, m), c in terms.items()}
            else:
                out = {int.from_bytes(pack(*m), "little"): c for m, c in terms.items()}
        except struct.error:
            raise _exponent_bound() from None
        if reduce(or_, out, 0) & self.guard:
            raise _exponent_bound()
        return out

    def unpack(self, terms: dict) -> dict:
        """The term dict of packed terms, inverse to `pack`."""
        fields, rank = self.fields, self.rank
        if rank:
            return {(e.index(1), e[rank:]): c
                    for e, c in ((fields(t), c) for t, c in terms.items())}
        return {fields(t): c for t, c in terms.items()}


def _packing(order: MonomialOrder, rank: int = 0) -> _Packing:
    """The packing of R^rank under `order`, made once per order object."""
    pk = order._packed.get(rank)
    if pk is None:
        pk = order._packed[rank] = _Packing(order, rank)
    return pk


def _lcm(a: int, b: int, guard: int) -> int:
    """lcm of two packed terms: the field of a where it is at least b's."""
    mask = ((((a | guard) - b) & guard) >> (_FIELD - 1)) * ((1 << _FIELD) - 1)
    return b ^ ((a ^ b) & mask)


# ---------------------------------------------------------------------------
# division


def _reduce_terms(fterms: dict, basis_terms, basis_lts, pk: _Packing, char: int,
                  quotients=None, sigs=None, bound=None):
    """(remainder, multiplier) of a packed term dict against (basis_terms,
    basis_lts), comparing terms by `pk.key`.

    Each divisor is monic mod p, and over Q a primitive integer term dict,
    and then `fterms` holds integers too.  A term c*m falls to element g
    with lead coefficient lc fraction-free: with d = gcd(c, lc), the work
    becomes (lc/d) * work - (c/d) * shift * g, and the remainder already
    emitted and the quotients are scaled by lc/d with it.  So the remainder
    returned is that of multiplier * fterms, where the multiplier is the
    product of the factors lc/d applied, and 1 when every divisor is monic.
    The selection of terms and divisors does not depend on the scaling, so
    it is also multiplier times the remainder of plain division.

    The next term is the top of a heap of heap keys, one pushed for each
    term that comes new into the work; a term that has cancelled since is
    skipped when it comes up (lazy deletion, after Yan's geobuckets, J.
    Symb. Comput. 25, 1998).  A term taken up never comes back, since all it
    adds is smaller.  The remainder's terms are inserted in descending
    order, so its first key is its leading term.  With `quotients`, a list of
    one dict per basis element, each cancellation by basis element i records
    its factor at its shift in quotients[i], so that (that multiple of)
    fterms = sum of quotient * element + remainder.

    With `sigs`, one signature per basis element (a packed monomial, or None
    for an element of an earlier level), the reduction is regular for the
    signature `bound`: element i divides m only when sigs[i] is None or
    (m / lt_i) * sigs[i] is smaller than `bound`.
    """
    key, guard = pk.key, pk.guard
    top = None if bound is None else key(bound)
    lam = 1
    rem: dict = {}
    work = dict(fterms)
    heap = [key(m) for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while work:
        m = pop(heap)[-1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        if m & guard:
            raise _exponent_bound()
        mg = m | guard
        for hit, glt in enumerate(basis_lts):
            # a smaller signature has a bigger key
            if (mg - glt) & guard == guard and (
                    top is None or sigs[hit] is None or key(m - glt + sigs[hit]) > top):
                break
        else:
            rem[m] = c
            continue
        g = basis_terms[hit]
        glc = g[glt]
        if glc != 1:
            d = gcd(c, glc)
            a, c = glc // d, c // d
            if a != 1:
                lam *= a
                work = {t: v * a for t, v in work.items()}
                rem = {t: v * a for t, v in rem.items()}
                if quotients is not None:
                    quotients[:] = [{s: v * a for s, v in q.items()} for q in quotients]
        shift = m - glt
        if quotients is not None:
            # the cancelled term m falls strictly, so no shift comes twice
            quotients[hit][shift] = c
        for t in _sub_multiple(work, c, shift, g, char, skip=glt):
            push(heap, key(t))
    return rem, lam


def _sub_multiple(target: dict, factor, shift: int, terms: dict, char: int, skip=None) -> list:
    """target -= factor * shift * terms, in place, leaving out the term `skip`
    of `terms` (a lead that the caller has already cancelled); returns the
    terms that are new to `target`."""
    new = []
    get = target.get
    for m, c in terms.items():
        if m == skip:
            continue
        t = m + shift
        s = get(t)
        if s is None:
            target[t] = -factor * c % char if char else -factor * c
            new.append(t)
            continue
        s -= factor * c
        if char:
            s %= char
        if s:
            target[t] = s
        else:
            del target[t]
    return new


def _packed_input(elements, order: MonomialOrder):
    """(ring or None, packing, divisors, leads) of the nonzero polynomials, or
    module vectors, among `elements`, packed and normalized (`_normalized`):
    the input step of every entry to the engine.  They must share one ring,
    in the order's variables (RingMismatchError), and one rank (ValueError)."""
    elements = [e for e in elements if not e.is_zero()]
    rings = {e.ring for e in elements}
    ranks = {e.rank if isinstance(e, ModuleVector) else 0 for e in elements}
    if len(rings) > 1 or any(r.arity != len(order.perm) for r in rings):
        raise RingMismatchError(
            f"Groebner input over mixed rings or not in {len(order.perm)} variables")
    if len(ranks) > 1:
        raise ValueError(f"Groebner input of mixed ranks {sorted(ranks)}")
    rng = rings.pop() if rings else None
    pk = _packing(order, max(ranks, default=0))
    packed = [pk.pack(e.to_dict() if pk.rank else e.terms) for e in elements]
    leads = [min(t, key=pk.key) for t in packed]
    return rng, pk, [_normalized(t, lt, rng) for t, lt in zip(packed, leads)], leads


def _normalized(terms: dict, lt: int, rng) -> dict:
    """The divisor the kernel takes for a nonzero packed term dict with lead
    lt: monic mod p, over Q the primitive integer multiple with a positive
    lead."""
    char = rng.characteristic
    if not char:
        return _primitive(terms, lt)
    if terms[lt] == 1:
        return terms
    scale = rng.coeff_inv(terms[lt])
    return {m: c * scale % char for m, c in terms.items()}


class _Divider:
    """Division by a fixed list of polynomials or module vectors, which pass
    the input step once.  `remainder` divides a packed term dict, with
    integer coefficients over Q, and returns (remainder, multiplier) as
    `_reduce_terms` does; calling the divider divides a term dict, {m: c} or
    {(pos, m): c}, and returns its exact remainder."""

    def __init__(self, basis, order: MonomialOrder):
        self.ring, self.pk, self.divisors, self.lts = _packed_input(basis, order)

    def remainder(self, packed: dict):
        return _reduce_terms(packed, self.divisors, self.lts, self.pk, self.ring.characteristic)

    def __call__(self, terms: dict) -> dict:
        if not self.lts:
            return dict(terms)  # nothing divides
        pk = self.pk
        if self.ring.characteristic:
            return pk.unpack(self.remainder(pk.pack(terms))[0])
        # over Q the denominators are cleared once and the remainder of
        # lam * den * terms divided by lam * den once
        nums, den = _integral(terms)
        rem, lam = self.remainder(pk.pack(nums))
        den *= lam
        return {m: Fraction(c, den) for m, c in pk.unpack(rem).items()}

    def standard_terms(self):
        """The packed terms that no lead divides, in ascending order, or
        InfiniteColengthError when there are infinitely many: at each
        position, those in the box its pure-power leads cut out, finite when
        every variable has one."""
        pk, lts = self.pk, self.lts
        guard, variables = pk.guard, pk.units[pk.rank:]
        out = []
        for head in pk.units[:pk.rank] or [0]:
            at = [lt - head for lt in lts if lt & pk.place == head]
            if 0 in at:
                continue  # a constant lead leaves no term at this position
            # m is a power of the variable u when no other field of m is set
            caps = [min((m // u for m in at if m % u == 0 and m < u << _FIELD), default=0)
                    for u in variables]
            if not all(caps):
                raise InfiniteColengthError("quotient has infinite colength")
            for e in itertools.product(*map(range, caps)):
                t = head + sum(k * u for k, u in zip(e, variables))
                if not any(((t | guard) - lt) & guard == guard for lt in lts):
                    out.append(t)
        return sorted(out, key=pk.key, reverse=True)


def _spair(fi: dict, lti: int, fj: dict, ltj: int, l: int, char: int) -> dict:
    """S-polynomial of two packed term dicts with leads lti, ltj and lcm l,
    both monic or both primitive over Z: (cj/d) * (l/lti) * fi - (ci/d) *
    (l/ltj) * fj for their lead coefficients ci, cj and d = gcd(ci, cj).
    The leads cancel and are left out."""
    ci, cj = fi[lti], fj[ltj]
    if ci == cj:
        ci = cj = 1
    else:
        d = gcd(ci, cj)
        ci, cj = ci // d, cj // d
    out: dict = {}
    _sub_multiple(out, -cj, l - lti, fi, char, skip=lti)
    _sub_multiple(out, ci, l - ltj, fj, char, skip=ltj)
    return out


# ---------------------------------------------------------------------------
# Buchberger: one signature-based loop for ideals and submodules


def _pair_bound(max_pairs: int) -> BoundExceededError:
    return BoundExceededError(f"pair bound {max_pairs} exceeded")


def _by_signatures(divisors, leads, pk: _Packing, rng, max_pairs: int, known: int = 0):
    """(basis, leads) of a Groebner basis of ideal or submodule generators,
    normalized with their leads by the input step, one level per generator,
    by regular reductions in ascending signature (F5C, Eder-Perry, J. Symb.
    Comput. 45, 2010; Eder-Faugere's survey, J. Symb. Comput. 80, 2017).

    The first `known` dicts, a Groebner basis, are level 0; the others enter
    by ascending lead, each first reduced by the basis so far and dropped
    when that leaves nothing.  In level i a signature is a packed monomial u
    for u*e_i, position over term, so every element of an earlier level
    (signature None) is below all of them.  Pairs form only between leads at
    one position (`pk.place` is 0 for an ideal).  A pair's signature is its
    bigger multiplied signature, and the element that gives it is the pair's
    generator; a pair whose multiplied signatures are equal is dropped.
    Pairs leave by ascending signature, one per signature, and are dropped
    when a syzygy signature divides theirs (the leads of the earlier levels,
    from the principal syzygies, then each signature that reduced to zero)
    or when a level element newer than the generator has a signature that
    divides it (the rewrite criterion).  Between levels the elements whose
    leads another lead divides are dropped; the known prefix is taken as it
    comes, and the last level is left to `_reduce_groebner`."""
    char, key, guard, place = rng.characteristic, pk.key, pk.guard, pk.place
    bt, lts = divisors[:known], leads[:known]
    formed, grown = 0, False
    for f, _ in sorted(zip(divisors[known:], leads[known:]), key=lambda e: key(e[1]),
                       reverse=True):
        if grown:
            keep = _minimal(lts, guard)
            bt, lts, grown = [bt[i] for i in keep], [lts[i] for i in keep], False
        rem, _ = _reduce_terms(f, bt, lts, pk, char)
        if not rem:
            continue
        start, grown = len(bt), True
        sigs = [None] * start
        syz = list(lts)  # syzygy signatures
        pairs: list = []
        seq = itertools.count()

        def add(terms, sig):
            # terms: normalized, lead first
            nonlocal formed
            lt = next(iter(terms))
            t = len(bt)
            here = lt & place
            mates = [k for k in range(t) if lts[k] & place == here]
            formed += len(mates)
            if formed > max_pairs:
                raise _pair_bound(max_pairs)
            for k in mates:
                l = _lcm(lt, lts[k], guard)
                s, gen = l - lt + sig, t
                # a submodule has no principal syzygies, and these criteria
                # need no branch for it: every module lead has a position
                # field, which no signature has, and two leads at one
                # position never have their sum as their lcm
                if k < start:
                    if l == lt + lts[k]:
                        continue  # lts[k], a syzygy signature, divides s
                else:
                    sk = l - lts[k] + sigs[k]
                    if sk == s:
                        continue
                    if key(sk) < key(s):
                        s, gen = sk, k
                if s & guard:
                    raise _exponent_bound()
                sg = s | guard
                if any((sg - z) & guard == guard for z in syz):
                    continue
                # the heap key negated grows with the term: smallest first
                heapq.heappush(pairs, (tuple([-x for x in key(s)]), next(seq), s, gen,
                                       k + t - gen, l, len(syz)))
            bt.append(terms)
            lts.append(lt)
            sigs.append(sig)

        # the remainder lists its terms in descending order; equal to f, it
        # is normalized already
        add(rem if rem == f else _normalized(rem, next(iter(rem)), rng), 0)
        last = None
        while pairs:
            _, _, s, a, b, l, checked = heapq.heappop(pairs)
            if s == last:
                continue
            sg = s | guard
            if any((sg - z) & guard == guard for z in syz[checked:]) or any(
                    (sg - sigs[k]) & guard == guard for k in range(a + 1, len(bt))):
                continue
            last = s
            rem, _ = _reduce_terms(_spair(bt[a], lts[a], bt[b], lts[b], l, char), bt, lts, pk,
                                   char, sigs=sigs, bound=s)
            if rem:
                add(_normalized(rem, next(iter(rem)), rng), s)
            else:
                syz.append(s)
    return bt, lts


def _minimal(lts, guard: int) -> list:
    """Indexes of the packed leads that no other lead divides, and of equal
    leads the first."""
    keep = []
    for i, lt in enumerate(lts):
        lg = lt | guard
        for j, o in enumerate(lts):
            if (lg - o) & guard == guard and j != i and (o != lt or j < i):
                break
        else:
            keep.append(i)
    return keep


def _reduce_groebner(terms, lts, pk: _Packing, char: int) -> list:
    """Minimalize then fully interreduce a Groebner basis, given as packed
    term dicts with their leading terms, monic mod p or primitive over Z;
    canonical monic output, sorted by ascending lead."""
    keep = _minimal(lts, pk.guard)
    keep.sort(key=lambda i: pk.key(lts[i]), reverse=True)
    reduced = []
    for i in keep:
        # no other minimal lead divides lts[i], so the remainder keeps it;
        # mod p with coefficient 1, over Q with the multiple's, divided out
        others = [j for j in keep if j != i]
        rem, _ = _reduce_terms(terms[i], [terms[j] for j in others],
                               [lts[j] for j in others], pk, char)
        if not char:
            lc = rem[lts[i]]
            rem = {m: Fraction(c, lc) for m, c in rem.items()}
        reduced.append(rem)
    return reduced


def buchberger(
    gens,
    order: MonomialOrder,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    known=(),
) -> list:
    """Reduced Groebner basis (monic, interreduced, sorted by ascending lead)
    of the ideal generated by `known` and `gens`.

    The reduced basis is the canonical one for (ideal, order); generator order
    and duplicates in the input do not affect the result.  `known` must be a
    Groebner basis under `order`: the run starts from it and forms no pair
    among its elements.
    """
    known = [g for g in known if not g.is_zero()]
    rng, pk, divisors, leads = _packed_input(known + list(gens), order)
    if not divisors:
        return []
    basis = _reduce_groebner(*_by_signatures(divisors, leads, pk, rng, max_pairs, len(known)),
                             pk, rng.characteristic)
    return [Polynomial(rng, pk.unpack(t), normalize=False) for t in basis]


# ---------------------------------------------------------------------------
# free-module machinery: vectors in R^r, packed for the engine above


class ModuleVector(namedtuple("ModuleVector", "components")):
    """Element of a free module R^r, stored componentwise."""

    __slots__ = ()

    def __new__(cls, components):
        components = tuple(components)
        if not components:
            raise ValueError("rank-0 module vector")
        rng = components[0].ring
        for c in components:
            if c.ring != rng:
                raise RingMismatchError("module vector over mixed rings")
        return tuple.__new__(cls, (components,))

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def ring(self):
        return self.components[0].ring

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def to_dict(self) -> dict:
        out = {}
        for pos, c in enumerate(self.components):
            for m, v in c.terms.items():
                out[(pos, m)] = v
        return out

    def __repr__(self):
        return "(" + ", ".join(c.to_text() for c in self.components) + ")"


def _vector(rng, rank: int, terms: dict) -> ModuleVector:
    comps = [{} for _ in range(rank)]
    for (pos, m), c in terms.items():
        comps[pos][m] = c
    return ModuleVector(tuple(Polynomial(rng, d, normalize=False) for d in comps))


def module_buchberger(vectors, order: MonomialOrder, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Groebner basis of a submodule of R^r under the term-over-position
    order on `order`; S-pairs only share a position.

    Returns interreduced monic vectors sorted by descending leading term.
    """
    rng, pk, divisors, leads = _packed_input(vectors, order)
    if not divisors:
        return []
    basis = _reduce_groebner(*_by_signatures(divisors, leads, pk, rng, max_pairs),
                             pk, rng.characteristic)
    return [_vector(rng, pk.rank, pk.unpack(t)) for t in reversed(basis)]


# ---------------------------------------------------------------------------
# syzygies


def _syzygies(divide: _Divider) -> list:
    """The Schreyer syzygies of the divider's divisors, each as one packed
    dict of shifts, monomials with no position fields, per divisor.
    For each pair of leads at one position, with lcm l = m_i lt_i = m_j lt_j,
    lead coefficients c_i, c_j and d = gcd(c_i, c_j), the S-vector
    (c_i/d) m_j b_j - (c_j/d) m_i b_i is reduced with its quotients q_k, and
    its multiplier lam (see `_reduce_terms`) gives the syzygy
    lam (c_j/d) m_i e_i - lam (c_i/d) m_j e_j + sum_k q_k e_k; over Q all of
    it is integer, and a nonzero multiple of the syzygy of the monic
    divisors with coefficient 1 at m_i e_i.  A pair is
    skipped when a third lead divides its lcm and both lcms with that lead
    divide it strictly (the chain criterion).  Raises ValueError on a
    remainder, that is, when the divisors are not a Groebner basis."""
    rng, pk, bt, lts = divide.ring, divide.pk, divide.divisors, divide.lts
    char, guard, place = rng.characteristic, pk.guard, pk.place
    out = []
    for j, ltj in enumerate(lts):
        for i, lti in enumerate(lts[:j]):
            if lti & place != ltj & place:
                continue
            l = _lcm(lti, ltj, guard)
            lg = l | guard
            if any(k != i and k != j and (lg - lt) & guard == guard
                   and _lcm(lti, lt, guard) != l and _lcm(ltj, lt, guard) != l
                   for k, lt in enumerate(lts)):
                continue  # the chain criterion
            # reduce the S-vector with the sign that lets its quotients
            # enter the syzygy with their own
            syz = [{} for _ in lts]
            rem, lam = _reduce_terms(_spair(bt[j], ltj, bt[i], lti, l, char), bt, lts, pk,
                                     char, syz)
            if rem:
                raise ValueError("syzygies require a Groebner basis")
            ci, cj = bt[i][lti], bt[j][ltj]
            d = gcd(ci, cj)
            syz[i][l - lti] = lam * (cj // d)
            syz[j][l - ltj] = -lam * (ci // d) % char if char else -lam * (ci // d)
            out.append(syz)
    return out
