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

Buchberger keeps the basis as monic term dicts beside their leading
monomials, which the reductions, the pair pruning and the final
interreduction reuse.  Its S-pairs sit in a heap keyed by the order key of
each pair's lcm, computed once when the pair is made, and are pruned by the
Gebauer-Moeller criteria; each S-polynomial is built from the two stored
monic leads and the heap entry's lcm.  The order's memoised keys serve every
comparison.  Reduced bases are monic, interreduced, and sorted, hence
canonical for (ideal or submodule, order).

`module_divider` encodes a module basis and finds its leads once, for many
normal forms against it; `module_normal_form` is one use of it.
`module_syzygies` gives the Schreyer syzygies of a Groebner basis, read off
the quotients of its own S-pair reductions."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import BoundExceededError, RingMismatchError
from .poly import (
    MonomialOrder,
    Polynomial,
    _KeyMemo,
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

    The remainder's terms are inserted in descending order, so its first key
    is its leading term.  With `quotients`, a list of one dict per basis
    element, each cancellation by basis element i records its factor at its
    shift in quotients[i], so that fterms = sum of quotient * element +
    remainder.
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
        if char:
            factor = c * pow(glc, char - 2, char) % char
        else:
            factor = c / glc
        shift = mono_div(m, glt)
        if quotients is not None:
            # the cancelled term m falls strictly, so no shift comes twice
            quotients[hit][shift] = factor
        _sub_multiple(work, factor, shift, g, char, skip=glt)
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
    bt = [g.terms for g in gs]
    lts = [g.leading(order)[0] for g in gs]
    rem = _reduce_terms(f.terms, bt, lts, order.key, f.ring.characteristic)
    return Polynomial(f.ring, rem, normalize=False)


def _spair(fi: dict, lti, fj: dict, ltj, l, char: int) -> dict:
    """S-polynomial of two monic term dicts with leads lti, ltj and lcm l;
    the leads cancel and are left out."""
    out: dict = {}
    _sub_multiple(out, -1, mono_div(l, lti), fi, char, skip=lti)
    _sub_multiple(out, 1, mono_div(l, ltj), fj, char, skip=ltj)
    return out


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.ring != g.ring:
        raise RingMismatchError(f"rings differ: {f.ring.variables} vs {g.ring.variables}")
    rng = f.ring
    char = rng.characteristic
    flt, flc = f.leading(order)
    glt, glc = g.leading(order)
    out = _spair(_scaled(f.terms, rng.coeff_inv(flc), char), flt,
                 _scaled(g.terms, rng.coeff_inv(glc), char), glt, mono_lcm(flt, glt), char)
    return Polynomial(rng, out, normalize=False)


def _scaled(terms: dict, scale, char: int) -> dict:
    """scale * terms for a nonzero field element; terms itself when scale is 1."""
    if scale == 1:
        return terms
    if char:
        return {m: c * scale % char for m, c in terms.items()}
    return {m: c * scale for m, c in terms.items()}


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


def _groebner(polys, key, rng, positions: int, max_pairs: int) -> list:
    """Reduced Groebner basis of nonzero term dicts, as term dicts sorted by
    ascending lead; `positions` is the rank of a module, 0 for an ideal."""
    char = rng.characteristic
    bt, lts = [], []
    pairs: list = []
    seq = itertools.count()

    def add(terms, lt):
        bt.append(_scaled(terms, rng.coeff_inv(terms[lt]), char))
        lts.append(lt)
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
    """Minimalize then fully interreduce a monic Groebner basis, given as
    term dicts with their leading terms; canonical output, sorted by
    ascending lead."""
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
        # no other minimal lead divides lts[i], so the remainder keeps it,
        # with coefficient 1: it is monic already
        others = [j for j in keep if j != i]
        reduced.append(_reduce_terms(terms[i], [terms[j] for j in others],
                                     [lts[j] for j in others], key, char))
    return reduced


def buchberger(
    gens,
    order: MonomialOrder,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> list:
    """Reduced Groebner basis (monic, interreduced, sorted by ascending lead).

    The reduced basis is the canonical one for (ideal, order); generator order
    and duplicates in the input do not affect the result.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    rng = gens[0].ring
    for g in gens:
        if g.ring != rng:
            raise RingMismatchError("buchberger over mixed rings")
    basis = _groebner([g.terms for g in gens], order.key, rng, 0, max_pairs)
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
    """Order on module terms (position, monomial).

    scheme 'top': compare monomials first (term over position), then prefer
    smaller position.  scheme 'pot': position dominates.
    """

    def __init__(self, base: MonomialOrder, scheme: str = "top"):
        if scheme not in ("top", "pot"):
            raise ValueError("scheme must be 'top' or 'pot'")
        self.base = base
        self.scheme = scheme
        # memoised key of an encoded term onehot(pos) + m, for the engine
        self._encoded_key = _KeyMemo(self._decoded_key).__getitem__

    def key(self, term):
        pos, m = term
        if self.scheme == "pot":
            return (-pos, self.base.key(m))
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
    rank, char = basis[0].rank, basis[0].ring.characteristic
    key = morder._encoded_key
    bd = [_encode(rank, b.to_dict()) for b in basis]
    lts = [max(d, key=key) for d in bd]

    def remainder(terms: dict) -> dict:
        return _decode(rank, _reduce_terms(_encode(rank, terms), bd, lts, key, char))

    return remainder


def module_normal_form(v: ModuleVector, basis, morder: ModuleOrder) -> ModuleVector:
    return _vector(v.ring, v.rank, module_divider(basis, morder)(v.to_dict()))


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
    ModuleOrder(order, "top"), by Schreyer's theorem: for each pair of leads
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
    key = ModuleOrder(order, "top")._encoded_key
    encoded = [_encode(rank, v.to_dict()) for v in gb]
    lts = [max(d, key=key) for d in encoded]
    # the monic basis; component k of its syzygies is scaled back by inv[k]
    inv = [1 if d[lt] == 1 else rng.coeff_inv(d[lt]) for d, lt in zip(encoded, lts)]
    bt = [_scaled(d, s, char) for d, s in zip(encoded, inv)]
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
