"""Buchberger Groebner engine for ideals and submodules, multivariate
division, and syzygy modules.

One engine serves ideals and submodules of R^r alike; it works on term
dictionaries {exponent tuple: coefficient}.  A module term (pos, m) is stored
privately as the exponent tuple onehot(pos) + m, so the monomial helpers
respect positions unchanged: a lead divides a term only at its own position,
and two leads at one position share that slot, so the product criterion never
fires between them.  The only module-specific step is that no pair is formed
between leads at different positions.  `ModuleVector`, `ModuleOrder.key` and
every public function keep (position, monomial) terms.

Buchberger keeps the basis as term dicts beside their leading monomials,
which the reductions, the pair pruning and the final interreduction reuse.
Over Q every basis element and every remainder is a primitive integer term
dict (coprime coefficients, positive lead), and the one division kernel
`_reduce_terms` reduces fraction-free: a term c*m falls to g as
r <- (lc g/d) * r - (c/d) * (m/lt g) * g with d = gcd(c, lc g), and the
content is removed once per reduction, when a remainder joins the basis.
Mod p the basis is monic.  Only `_reduce_groebner` makes elements monic over
`Fraction`, as it emits them; scaling changes no lead, so the pairs, their
order and the output are those of monic arithmetic.  Its S-pairs sit in a
heap keyed by the order key of each pair's lcm, computed once when the pair
is made, and are pruned by the Gebauer-Moeller criteria; each S-polynomial
is built from the two stored elements and the heap entry's lcm.  A run may
start from a known prefix, a Groebner basis under the run's order passed as
`_Extending(known, extra)`: the known elements join the basis with no pair
among them queued, and each extra element is paired with every earlier lead
by the same update, so only pairs with new elements are formed and pruned
(Gebauer-Moeller, J. Symb. Comput. 6, 1988).  The order's memoised keys
serve every comparison.  Reduced bases are monic, interreduced, and sorted,
hence canonical for (ideal or submodule, order).
Division against a given basis, by `normal_form`, `module_divider` and
`module_syzygies`, hands the same kernel monic divisors, found with their
leads once per basis by one setup, `_divisors`.  `module_divider` encodes a
module basis once, for many normal forms against it.  `module_syzygies`
gives the Schreyer syzygies of a Groebner basis, read off the quotients of
its own S-pair reductions."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BoundExceededError, RingMismatchError
from .poly import (
    MonomialOrder,
    Polynomial,
    _KeyMemo,
    _primitive,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_MAX_PAIRS = 500_000


# ---------------------------------------------------------------------------
# division


def _reduce_terms(fterms: dict, basis_terms, basis_lts, key, char: int, quotients=None):
    """Full normal form of a term dict against (basis_terms, basis_lts),
    comparing terms by `key`.

    Each divisor is monic, or, over Q, a primitive integer term dict, and
    then `fterms` holds integers too.  A term c*m falls to element g with
    lead coefficient lc fraction-free: with d = gcd(c, lc), the work becomes
    (lc/d) * work - (c/d) * shift * g, and the remainder already emitted and
    the quotients are scaled by lc/d with it.  So the result is the remainder
    of a nonzero multiple of `fterms`, and the multiple is 1 when every
    divisor is monic.

    The remainder's terms are inserted in descending order, so its first key
    is its leading term.  With `quotients`, a list of one dict per basis
    element, each cancellation by basis element i records its factor at its
    shift in quotients[i], so that (that multiple of) fterms = sum of
    quotient * element + remainder.
    """
    rem: dict = {}
    work = dict(fterms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = -1
        for i, lt in enumerate(basis_lts):
            if mono_divides(lt, m):
                hit = i
                break
        if hit < 0:
            rem[m] = c
            continue
        g = basis_terms[hit]
        glt = basis_lts[hit]
        glc = g[glt]
        if glc != 1:
            d = gcd(c, glc)
            a, c = glc // d, c // d
            if a != 1:
                work = {t: v * a for t, v in work.items()}
                rem = {t: v * a for t, v in rem.items()}
                if quotients is not None:
                    quotients[:] = [{s: v * a for s, v in q.items()} for q in quotients]
        shift = mono_div(m, glt)
        if quotients is not None:
            # the cancelled term m falls strictly, so no shift comes twice
            quotients[hit][shift] = c
        _sub_multiple(work, c, shift, g, char, skip=glt)
    return rem


def _sub_multiple(target: dict, factor, shift, terms: dict, char: int, skip=None):
    """target -= factor * shift * terms, in place, leaving out the term `skip`
    of `terms` (a lead that the caller has already cancelled)."""
    for m, c in terms.items():
        if m == skip:
            continue
        t = mono_mul(m, shift)
        s = target.get(t, 0) - factor * c
        if char:
            s %= char
        if s:
            target[t] = s
        else:
            target.pop(t, None)


def normal_form(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Remainder of f under multivariate division by `basis`.

    No term of the result is divisible by any leading term of the basis, and
    f minus the result lies in the ideal generated by the basis.
    """
    gs = [g for g in basis if not g.is_zero()]
    for g in gs:
        if g.ring != f.ring:
            raise RingMismatchError("normal_form across rings")
    bt, lts = _divisors([g.terms for g in gs], order.key, f.ring)
    rem = _reduce_terms(f.terms, bt, lts, order.key, f.ring.characteristic)
    return Polynomial(f.ring, rem, normalize=False)


def _spair(fi: dict, lti, fj: dict, ltj, l, char: int) -> dict:
    """S-polynomial of two term dicts with leads lti, ltj and lcm l, both
    monic or both primitive over Z: (cj/d) * (l/lti) * fi - (ci/d) * (l/ltj)
    * fj for their lead coefficients ci, cj and d = gcd(ci, cj).  The leads
    cancel and are left out."""
    ci, cj = fi[lti], fj[ltj]
    if ci == cj:
        ci = cj = 1
    else:
        d = gcd(ci, cj)
        ci, cj = ci // d, cj // d
    out: dict = {}
    _sub_multiple(out, -cj, mono_div(l, lti), fi, char, skip=lti)
    _sub_multiple(out, ci, mono_div(l, ltj), fj, char, skip=ltj)
    return out


def _scaled(terms: dict, scale, char: int) -> dict:
    """scale * terms for a nonzero field element; terms itself when scale is 1."""
    if scale == 1:
        return terms
    if char:
        return {m: c * scale % char for m, c in terms.items()}
    return {m: c * scale for m, c in terms.items()}


def _monic(terms: dict, lt, rng) -> dict:
    """terms divided by its coefficient at the lead lt; terms itself when
    that is 1 already."""
    lc = terms[lt]
    return terms if lc == 1 else _scaled(terms, rng.coeff_inv(lc), rng.characteristic)


def _divisors(dicts, key, rng):
    """(monic term dicts, their leads under `key`) of nonzero term dicts, the
    divisors `_reduce_terms` takes."""
    lts = [max(d, key=key) for d in dicts]
    return [_monic(d, lt, rng) for d, lt in zip(dicts, lts)], lts


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair elimination


def _update_pairs(lts, pairs, key, seq, positions: int = 0):
    """Gebauer-Moeller update for the newest lead lts[-1].

    `pairs` is a heap of (key(lcm), seq, i, j, lcm); `seq` counts pushes, so
    pairs with one lcm leave in the order they came.  Old pairs are pruned
    against their stored lcm; each lcm(lt_i, lt_new) is computed once.  The
    first `positions` slots of a module lead are its one-hot position, and no
    pair is made between leads at different positions.  Updates `pairs` in
    place.
    """
    t = len(lts) - 1
    lt_t = lts[t]
    lcms = [mono_lcm(lt, lt_t) for lt in lts[:t]]
    # criterion B: lt_t strictly divides the lcm of an old pair
    before = len(pairs)
    pairs[:] = [
        p for p in pairs
        if not (mono_divides(lt_t, p[4]) and lcms[p[2]] != p[4] and lcms[p[3]] != p[4])
    ]
    if len(pairs) < before:
        heapq.heapify(pairs)
    # new pairs: chain criterion M drops an lcm that another new pair's lcm
    # strictly divides; of the pairs sharing an lcm the first is kept, and
    # none when any of them is coprime (Gebauer-Moeller criterion F with the
    # product criterion)
    here = lt_t[:positions]
    new = [(i, l) for i, l in enumerate(lcms) if lts[i][:positions] == here]
    distinct = {l for _, l in new}
    done = {l for i, l in new if mono_coprime(lts[i], lt_t)}
    for i, l in new:
        if l in done:
            continue
        done.add(l)
        if any(o != l and mono_divides(o, l) for o in distinct):
            continue
        heapq.heappush(pairs, (key(l), next(seq), i, t, l))


def _groebner(polys, key, rng, positions: int, max_pairs: int, known: int = 0) -> list:
    """Reduced Groebner basis of nonzero term dicts, as monic term dicts
    sorted by ascending lead; `positions` is the rank of a module, 0 for an
    ideal.  Over Q the basis and every remainder are primitive integer term
    dicts until the reduced basis is emitted.

    The first `known` dicts must already be a Groebner basis under `key`:
    they join the basis with no pair among them queued, as if every such
    pair had been reduced to zero, and each later element is paired with
    them by the usual update."""
    char = rng.characteristic
    bt, lts = [], []
    pairs: list = []
    seq = itertools.count()

    def add(terms, lt):
        bt.append(_monic(terms, lt, rng) if char else _primitive(terms, lt))
        lts.append(lt)
        if len(lts) > known:
            _update_pairs(lts, pairs, key, seq, positions)

    for terms in polys:
        add(terms, max(terms, key=key))

    processed = 0
    while pairs:
        # normal selection: smallest lcm in the active order
        _, _, i, j, l = heapq.heappop(pairs)
        processed += 1
        if processed > max_pairs:
            raise BoundExceededError(f"pair bound {max_pairs} exceeded")
        rem = _reduce_terms(_spair(bt[i], lts[i], bt[j], lts[j], l, char), bt, lts, key, char)
        if rem:
            add(rem, next(iter(rem)))

    return _reduce_groebner(bt, lts, key, char)


def _reduce_groebner(terms, lts, key, char: int) -> list:
    """Minimalize then fully interreduce a Groebner basis, given as term
    dicts with their leading terms, monic mod p or primitive over Z;
    canonical monic output, sorted by ascending lead."""
    keep = []
    for i, lt in enumerate(lts):
        if any(
            j != i and mono_divides(lts[j], lt) and (lts[j] != lt or j < i)
            for j in range(len(lts))
        ):
            continue
        keep.append(i)
    keep.sort(key=lambda i: key(lts[i]))
    reduced = []
    for i in keep:
        # no other minimal lead divides lts[i], so the remainder keeps it;
        # mod p with coefficient 1, over Q with the multiple's, divided out
        others = [j for j in keep if j != i]
        rem = _reduce_terms(terms[i], [terms[j] for j in others],
                            [lts[j] for j in others], key, char)
        if not char:
            lc = rem[lts[i]]
            rem = {m: Fraction(c, lc) for m, c in rem.items()}
        reduced.append(rem)
    return reduced


class _Extending(tuple):
    """Generators for `buchberger` that start with a known Groebner basis:
    `_Extending(known, extra)` lists the nonzero polynomials of `known`, a
    Groebner basis under the order of the run, then `extra`.  Buchberger
    extends that basis by the extra elements instead of starting again."""

    def __new__(cls, known, extra):
        known = tuple(g for g in known if not g.is_zero())
        self = super().__new__(cls, known + tuple(extra))
        self.known = len(known)
        return self


def buchberger(
    gens,
    order: MonomialOrder,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> list:
    """Reduced Groebner basis (monic, interreduced, sorted by ascending lead).

    The reduced basis is the canonical one for (ideal, order); generator order
    and duplicates in the input do not affect the result.  Given an
    `_Extending`, the run starts from its known Groebner basis.
    """
    known = getattr(gens, "known", 0)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    rng = gens[0].ring
    for g in gens:
        if g.ring != rng:
            raise RingMismatchError("buchberger over mixed rings")
    basis = _groebner([g.terms for g in gens], order.key, rng, 0, max_pairs, known)
    return [Polynomial(rng, t, normalize=False) for t in basis]


# ---------------------------------------------------------------------------
# free-module machinery: vectors in R^r, encoded for the engine above


@dataclass
class ModuleVector:
    """Element of a free module R^r, stored componentwise."""

    components: tuple

    def __post_init__(self):
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("rank-0 module vector")
        rng = self.components[0].ring
        for c in self.components:
            if c.ring != rng:
                raise RingMismatchError("module vector over mixed rings")

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


class ModuleOrder:
    """Term-over-position order on module terms (position, monomial): compare
    monomials by `base` first, then prefer the smaller position."""

    def __init__(self, base: MonomialOrder):
        self.base = base
        # memoised key of an encoded term onehot(pos) + m, for the engine
        self._encoded_key = _KeyMemo(self._decoded_key).__getitem__

    def key(self, term):
        pos, m = term
        return (self.base.key(m), -pos)

    def _decoded_key(self, t):
        return self.key((t.index(1), t[len(t) - len(self.base.perm):]))


def _encode(rank: int, terms: dict) -> dict:
    """Term dict {(pos, m): c} of R^rank with each term as onehot(pos) + m."""
    heads = [(0,) * pos + (1,) + (0,) * (rank - pos - 1) for pos in range(rank)]
    return {heads[pos] + m: c for (pos, m), c in terms.items()}


def _decode(rank: int, terms: dict) -> dict:
    return {(t.index(1), t[rank:]): c for t, c in terms.items()}


def _vector(rng, rank: int, terms: dict) -> ModuleVector:
    comps = [{} for _ in range(rank)]
    for (pos, m), c in terms.items():
        comps[pos][m] = c
    return ModuleVector(tuple(Polynomial(rng, d, normalize=False) for d in comps))


def module_divider(basis, morder: ModuleOrder):
    """Division by a fixed basis of a submodule of R^r, as a function from a
    term dict {(pos, m): c} to its remainder's term dict.

    The basis is encoded and its leads are found once, for every call that
    follows.
    """
    basis = [b for b in basis if not b.is_zero()]
    if not basis:
        return dict  # nothing divides: the remainder is a copy of the input
    rng, rank = basis[0].ring, basis[0].rank
    char = rng.characteristic
    key = morder._encoded_key
    bd, lts = _divisors([_encode(rank, b.to_dict()) for b in basis], key, rng)

    def remainder(terms: dict) -> dict:
        return _decode(rank, _reduce_terms(_encode(rank, terms), bd, lts, key, char))

    return remainder


def module_buchberger(vectors, morder: ModuleOrder, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Groebner basis of a submodule of R^r; S-pairs only share a position.

    Returns interreduced monic vectors sorted by descending leading term.
    """
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    rng = vecs[0].ring
    rank = vecs[0].rank
    encoded = [_encode(rank, v.to_dict()) for v in vecs]
    basis = _groebner(encoded, morder._encoded_key, rng, rank, max_pairs)
    return [_vector(rng, rank, _decode(rank, t)) for t in reversed(basis)]


# ---------------------------------------------------------------------------
# syzygies


def module_syzygies(gb, order: MonomialOrder):
    """Generators of the syzygy module of a Groebner basis `gb` under
    ModuleOrder(order), by Schreyer's theorem: for each pair of leads
    at one position, m_ij e_i - m_ji e_j - sum_k q_k e_k, where m_ij lt_i is
    their lcm and the q_k are the quotients of their S-vector by `gb`.  A pair
    is skipped when a third lead divides its lcm and both lcms with that lead
    divide it strictly (the chain criterion).  Raises ValueError on a zero
    vector or on a remainder, that is, when `gb` is not a Groebner basis."""
    gb = list(gb)
    if not gb:
        return []
    if any(v.is_zero() for v in gb):
        raise ValueError("module_syzygies requires nonzero vectors")
    rng, rank = gb[0].ring, gb[0].rank
    char = rng.characteristic
    key = ModuleOrder(order)._encoded_key
    encoded = [_encode(rank, v.to_dict()) for v in gb]
    bt, lts = _divisors(encoded, key, rng)
    # component k of the monic basis's syzygies is scaled back by inv[k]
    inv = [rng.coeff_inv(d[lt]) for d, lt in zip(encoded, lts)]
    zero, one, minus_one = Polynomial.zero(rng), rng.coeff(1), rng.coeff(-1)
    out = []
    for j, ltj in enumerate(lts):
        for i, lti in enumerate(lts[:j]):
            if lti[:rank] != ltj[:rank]:
                continue
            l = mono_lcm(lti, ltj)
            if any(k != i and k != j and mono_divides(lt, l)
                   and mono_lcm(lti, lt) != l and mono_lcm(ltj, lt) != l
                   for k, lt in enumerate(lts)):
                continue  # the chain criterion
            # reduce m_ji b_j - m_ij b_i, the negated S-vector, so that its
            # quotients enter the syzygy with their own sign
            syz = [{} for _ in lts]
            if _reduce_terms(_spair(bt[j], ltj, bt[i], lti, l, char), bt, lts, key, char, syz):
                raise ValueError("module_syzygies requires a Groebner basis")
            syz[i][mono_div(l, lti)] = one
            syz[j][mono_div(l, ltj)] = minus_one
            out.append(ModuleVector([
                Polynomial(rng, {t[rank:]: c for t, c in _scaled(d, s, char).items()},
                           normalize=False) if d else zero
                for d, s in zip(syz, inv)]))
    return out
