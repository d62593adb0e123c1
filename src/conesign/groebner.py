"""Buchberger Groebner engine, multivariate division, and syzygy modules.

The polynomial engine works on raw term dictionaries for speed; the module
engine works on dictionaries keyed by (position, exponent tuple).  Buchberger
keeps the basis as term dicts beside their leading monomials, which the
reductions, the pair pruning and the final interreduction reuse, and it keeps
its S-pairs in a heap keyed by the order key of each pair's lcm, computed
once when the pair is made; the order's memoised keys serve every
comparison.  The public `spolynomial`, called once per processed pair, still
finds both leads and their lcm itself.  Pairs are pruned by the
Gebauer-Moeller criteria.  Reduced bases are monic, interreduced, and sorted,
hence canonical for (ideal, order)."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import BoundExceededError, RingMismatchError
from .poly import (
    MonomialOrder,
    Polynomial,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_MAX_PAIRS = 500_000


# ---------------------------------------------------------------------------
# division


def _reduce_terms(fterms: dict, basis_terms, basis_lts, order: MonomialOrder, char: int):
    """Full normal form of a term dict against (basis_terms, basis_lts).

    The remainder's terms are inserted in descending order, so its first key
    is its leading monomial.
    """
    rem: dict = {}
    work = dict(fterms)
    key = order.key
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
        _sub_multiple(work, factor, mono_div(m, glt), g, char, skip=glt)
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
    rem = _reduce_terms(f.terms, bt, lts, order, f.ring.characteristic)
    return Polynomial(f.ring, rem, normalize=False)


def exact_divide(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """f / g when g divides f exactly; raises on nonzero remainder."""
    from .poly import degrevlex

    order = order or degrevlex(f.ring)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    char = f.ring.characteristic
    glt, glc = g.leading(order)
    work = dict(f.terms)
    quot: dict = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if not mono_divides(glt, m):
            raise ValueError("exact_divide: division leaves a remainder")
        if char:
            factor = c * pow(glc, char - 2, char) % char
        else:
            factor = c / glc
        shift = mono_div(m, glt)
        quot[shift] = quot.get(shift, 0) + factor
        _sub_multiple(work, factor, shift, g.terms, char, skip=glt)
    return Polynomial(f.ring, quot)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.ring != g.ring:
        raise RingMismatchError(f"rings differ: {f.ring.variables} vs {g.ring.variables}")
    rng = f.ring
    char = rng.characteristic
    flt, flc = f.leading(order)
    glt, glc = g.leading(order)
    l = mono_lcm(flt, glt)
    shift = mono_div(l, flt)
    out = _scaled({mono_mul(m, shift): c for m, c in f.terms.items()}, rng.coeff_inv(flc), char)
    _sub_multiple(out, rng.coeff_inv(glc), mono_div(l, glt), g.terms, char)
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


def _update_pairs(lts, pairs, key, seq):
    """Gebauer-Moeller update for the newest lead lts[-1].

    `pairs` is a heap of (key(lcm), seq, i, j, lcm); `seq` counts pushes, so
    pairs with one lcm leave in the order they came.  Old pairs are pruned
    against their stored lcm; each lcm(lt_i, lt_new) is computed once.
    Updates `pairs` in place.
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
    distinct = set(lcms)
    done = {l for lt, l in zip(lts, lcms) if mono_coprime(lt, lt_t)}
    for i, l in enumerate(lcms):
        if l in done:
            continue
        done.add(l)
        if any(o != l and mono_divides(o, l) for o in distinct):
            continue
        heapq.heappush(pairs, (key(l), next(seq), i, t, l))


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
    char = rng.characteristic
    for g in gens:
        if g.ring != rng:
            raise RingMismatchError("buchberger over mixed rings")

    key = order.key
    G, bt, lts = [], [], []
    pairs: list = []
    seq = itertools.count()

    def add(terms, lt):
        G.append(Polynomial(rng, terms, normalize=False))
        bt.append(terms)
        lts.append(lt)
        _update_pairs(lts, pairs, key, seq)

    for g in gens:
        lt = max(g.terms, key=key)
        add(_scaled(g.terms, rng.coeff_inv(g.terms[lt]), char), lt)

    processed = 0
    while pairs:
        # normal selection: smallest lcm in the active order
        _, _, i, j, _ = heapq.heappop(pairs)
        processed += 1
        if processed > max_pairs:
            raise BoundExceededError(f"pair bound {max_pairs} exceeded")
        s = spolynomial(G[i], G[j], order)
        rem = _reduce_terms(s.terms, bt, lts, order, char)
        if rem:
            lt = next(iter(rem))
            add(_scaled(rem, rng.coeff_inv(rem[lt]), char), lt)

    return _reduce_groebner(bt, lts, rng, order)


def _reduce_groebner(terms, lts, rng, order: MonomialOrder) -> list:
    """Minimalize then fully interreduce a monic Groebner basis, given as
    term dicts with their leading monomials; canonical output."""
    char = rng.characteristic
    keep = []
    for i, lt in enumerate(lts):
        if any(
            j != i and mono_divides(lts[j], lt) and (lts[j] != lt or j < i)
            for j in range(len(lts))
        ):
            continue
        keep.append(i)
    keep.sort(key=lambda i: order.key(lts[i]))
    reduced = []
    for i in keep:
        # no other minimal lead divides lts[i], so the remainder keeps it,
        # with coefficient 1: it is monic already
        others = [j for j in keep if j != i]
        rem = _reduce_terms(terms[i], [terms[j] for j in others], [lts[j] for j in others],
                            order, char)
        reduced.append(Polynomial(rng, rem, normalize=False))
    return reduced


# ---------------------------------------------------------------------------
# free-module machinery: vectors in R^r as {(pos, mono): coeff}


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

    @classmethod
    def from_dict(cls, rng, rank: int, d: dict) -> "ModuleVector":
        comps = [dict() for _ in range(rank)]
        for (pos, m), v in d.items():
            comps[pos][m] = v
        return cls(tuple(Polynomial(rng, t, normalize=False) for t in comps))

    def __repr__(self):
        return "(" + ", ".join(c.to_text() for c in self.components) + ")"


class ModuleOrder:
    """Order on module terms (position, monomial).

    scheme 'top': compare monomials first (term over position), then prefer
    smaller position.  scheme 'pot': position dominates.  `split` marks the
    start of a trailing block that every leading-block term beats; it is used
    for syzygy computations.
    """

    def __init__(self, base: MonomialOrder, scheme: str = "top", split: int | None = None):
        if scheme not in ("top", "pot"):
            raise ValueError("scheme must be 'top' or 'pot'")
        self.base = base
        self.scheme = scheme
        self.split = split

    def key(self, term):
        pos, m = term
        if self.scheme == "pot":
            inner = (-pos, self.base.key(m))
        else:
            inner = (self.base.key(m), -pos)
        if self.split is None:
            return inner
        return (1 if pos < self.split else 0, inner)


def _mod_reduce(fdict: dict, basis_dicts, basis_lts, morder: ModuleOrder, char: int):
    rem: dict = {}
    work = dict(fdict)
    key = morder.key
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        pos, m = t
        hit = -1
        for i, (lpos, lm) in enumerate(basis_lts):
            if lpos == pos and mono_divides(lm, m):
                hit = i
                break
        if hit < 0:
            rem[t] = c
            continue
        g = basis_dicts[hit]
        glt = basis_lts[hit]
        glc = g[glt]
        if char:
            factor = c * pow(glc, char - 2, char) % char
        else:
            factor = c / glc
        shift = mono_div(m, glt[1])
        for (gpos, gm), gc in g.items():
            if (gpos, gm) == glt:
                continue
            tt = (gpos, mono_mul(gm, shift))
            s = work.get(tt, 0) - factor * gc
            if char:
                s %= char
            if s:
                work[tt] = s
            else:
                work.pop(tt, None)
    return rem


def module_normal_form(v: ModuleVector, basis, morder: ModuleOrder) -> ModuleVector:
    rng = v.ring
    bd = [b.to_dict() for b in basis if not b.is_zero()]
    lts = [max(d, key=morder.key) for d in bd]
    rem = _mod_reduce(v.to_dict(), bd, lts, morder, rng.characteristic)
    return ModuleVector.from_dict(rng, v.rank, rem)


def module_buchberger(vectors, morder: ModuleOrder, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Groebner basis of a submodule of R^r; S-pairs only share a position.

    Returns interreduced monic vectors sorted by descending leading term.
    No product-criterion pruning: it is not valid for modules.
    """
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    rng = vecs[0].ring
    rank = vecs[0].rank
    char = rng.characteristic
    key = morder.key

    basis = []
    lts = []
    for v in vecs:
        d = v.to_dict()
        lt = max(d, key=key)
        basis.append(_scaled(d, rng.coeff_inv(d[lt]), char))
        lts.append(lt)

    pairs = [
        (i, j)
        for j in range(len(basis))
        for i in range(j)
        if lts[i][0] == lts[j][0]
    ]
    processed = 0
    while pairs:
        best = min(
            range(len(pairs)),
            key=lambda k: key(
                (lts[pairs[k][0]][0], mono_lcm(lts[pairs[k][0]][1], lts[pairs[k][1]][1]))
            ),
        )
        i, j = pairs.pop(best)
        processed += 1
        if processed > max_pairs:
            raise BoundExceededError(f"module pair bound {max_pairs} exceeded")
        pos = lts[i][0]
        l = mono_lcm(lts[i][1], lts[j][1])
        si = mono_div(l, lts[i][1])
        sj = mono_div(l, lts[j][1])
        s: dict = {}
        for (gpos, gm), gc in basis[i].items():
            t = (gpos, mono_mul(gm, si))
            s[t] = s.get(t, 0) + gc
        for (gpos, gm), gc in basis[j].items():
            t = (gpos, mono_mul(gm, sj))
            v = s.get(t, 0) - gc
            if char:
                v %= char
            if v:
                s[t] = v
            else:
                s.pop(t, None)
        rem = _mod_reduce(s, basis, lts, morder, char)
        if not rem:
            continue
        lt = max(rem, key=key)
        new_idx = len(basis)
        basis.append(_scaled(rem, rng.coeff_inv(rem[lt]), char))
        lts.append(lt)
        for i2 in range(new_idx):
            if lts[i2][0] == lt[0]:
                pairs.append((i2, new_idx))

    # minimalize + interreduce
    keep = []
    for i, lt in enumerate(lts):
        if any(
            j != i
            and lts[j][0] == lt[0]
            and mono_divides(lts[j][1], lt[1])
            and (lts[j] != lt or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    out = []
    for i, d in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        olts = [max(o, key=key) for o in others]
        rem = _mod_reduce(d, others, olts, morder, char)
        if rem:
            lt = max(rem, key=key)
            out.append(_scaled(rem, rng.coeff_inv(rem[lt]), char))
    out.sort(key=lambda d: key(max(d, key=key)), reverse=True)
    return [ModuleVector.from_dict(rng, rank, d) for d in out]


def module_contains(v: ModuleVector, gb, morder: ModuleOrder) -> bool:
    return module_normal_form(v, gb, morder).is_zero()


# ---------------------------------------------------------------------------
# syzygies


def module_syzygies(vectors, order: MonomialOrder):
    """Generating set of the first syzygy module of `vectors` in R^m.

    Embeds v_i as v_i (+) e_i in R^(r+m) and computes a Groebner basis under
    a block order in which the original positions dominate; basis elements
    supported in the tail block are exactly the syzygies.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    rng = vecs[0].ring
    r = vecs[0].rank
    m = len(vecs)
    zero = Polynomial.zero(rng)
    extended = []
    for i, v in enumerate(vecs):
        tail = [zero] * m
        tail[i] = Polynomial.one(rng)
        extended.append(ModuleVector(tuple(v.components) + tuple(tail)))
    morder = ModuleOrder(order, scheme="top", split=r)
    gb = module_buchberger(extended, morder)
    syz = []
    for g in gb:
        if all(c.is_zero() for c in g.components[:r]):
            syz.append(ModuleVector(g.components[r:]))
    return syz


def syzygy_basis(gens, order: MonomialOrder):
    """Generating set of the syzygy module of polynomial generators.

    For monomial generators the pairwise (Taylor) syzygies are returned
    directly; otherwise the module Groebner route is used.
    """
    gens = list(gens)
    if not gens:
        return []
    rng = gens[0].ring
    if any(g.is_zero() for g in gens):
        raise ValueError("syzygy_basis requires nonzero generators")
    if all(g.is_term() for g in gens):
        zero = Polynomial.zero(rng)
        out = []
        for j in range(len(gens)):
            for i in range(j):
                (mi, ci), = gens[i].terms.items()
                (mj, cj), = gens[j].terms.items()
                l = mono_lcm(mi, mj)
                comps = [zero] * len(gens)
                comps[i] = Polynomial.from_monomial(rng, mono_div(l, mi), rng.coeff_inv(ci))
                comps[j] = -Polynomial.from_monomial(rng, mono_div(l, mj), rng.coeff_inv(cj))
                out.append(ModuleVector(tuple(comps)))
        return out
    wrapped = [ModuleVector((g,)) for g in gens]
    return module_syzygies(wrapped, order)
