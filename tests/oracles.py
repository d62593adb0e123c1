"""Independent reference implementations used to cross-check computed values.

Everything here is deliberately dumb and dense: plain Fractions, exponent
tuples, and row reduction.  Nothing imports the package's Groebner or
syzygy machinery, so agreement between the two sides is meaningful.  The
one exception is `zero_dim_multiplicity` at the end, a cross-check built
from the package's own saturation and colength.
"""

from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# plane partitions via monotone height matrices


def height_matrix_partitions(n):
    """All downward-closed box sets of size n, as frozensets of triples.

    A downward-closed set of boxes is the same thing as a finite matrix
    h[i][j] of column heights that decreases weakly along rows and columns
    and sums to n.  Enumerate those matrices row by row.
    """

    def rows_summing(total, length, cap_row):
        # weakly decreasing rows bounded elementwise by the previous row
        if length == 0:
            if total == 0:
                yield ()
            return
        top = min(total, cap_row[0])
        for first in range(top, -1, -1):
            for rest in rows_summing(total - first, length - 1,
                                     cap_row[1:] if first else (0,) * (length - 1)):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    def matrices(remaining, prev_row):
        if remaining == 0:
            yield ()
            return
        for row in rows_summing_any(remaining, prev_row):
            used = sum(row)
            if used == 0:
                continue
            for rest in matrices(remaining - used, row):
                yield (row,) + rest

    def rows_summing_any(limit, cap_row):
        for used in range(limit, 0, -1):
            yield from rows_summing(used, len(cap_row), cap_row)

    results = set()
    for matrix in matrices(n, (n,) * n):
        boxes = set()
        for i, row in enumerate(matrix):
            for j, h in enumerate(row):
                for k in range(h):
                    boxes.add((i, j, k))
        if len(boxes) == n:
            results.add(frozenset(boxes))
    return results


def staircase_generators(boxes):
    """Minimal monomial generators (exponent triples) for a box complement."""
    box_set = set(boxes)
    cap = max((max(b) for b in box_set), default=0) + 2
    gens = []
    for e in product(range(cap), repeat=3):
        if e in box_set:
            continue
        ok = True
        for axis in range(3):
            if e[axis] > 0:
                below = list(e)
                below[axis] -= 1
                if tuple(below) not in box_set:
                    ok = False
                    break
        if ok:
            gens.append(e)
    return sorted(gens)


# ---------------------------------------------------------------------------
# dense linear algebra over Fraction


def rref(rows, p=0):
    """Reduced row echelon form over Q, or over GF(p) for a prime p; returns
    (rows, pivot column indices)."""
    rows = [[v % p for v in r] if p else list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inverse(rows[r][c], p)
        rows[r] = [v * inv % p if p else v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p if p else a - f * b
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(rows, p=0):
    if not rows:
        return 0
    return len(rref(rows, p)[0])


# ---------------------------------------------------------------------------
# truncated commuting-maps computation of dim Hom(K, R^r/K)
#
# K is a submodule of R^r generated by monomial vectors; the quotient has
# finite length.  All R-linear maps from the degree <= D slice of K to the
# quotient that commute with multiplication by each variable are solved
# for by brute force; D is one more than the generator degree bound.


def module_hom_dimension(generators, rank, nvars=3):
    """generators: list of (position, exponent tuple) monomial module gens."""
    D = max(sum(e) for _, e in generators) + 1

    def degree_monomials(limit):
        return [e for e in product(range(limit + 1), repeat=nvars)
                if sum(e) <= limit]

    window = [(pos, e) for pos in range(rank) for e in degree_monomials(D)]
    index = {coord: i for i, coord in enumerate(window)}

    # vector-space basis of the degree <= D slice of K
    span_rows = []
    for pos, g in generators:
        room = D - sum(g)
        for m in degree_monomials(room):
            e = tuple(a + b for a, b in zip(g, m))
            row = [Fraction(0)] * len(window)
            row[index[(pos, e)]] = Fraction(1)
            span_rows.append(row)
    k_basis, k_pivots = rref(span_rows)
    pivot_set = set(k_pivots)

    # quotient basis: non-pivot coordinates (finite length => all live
    # inside the window)
    q_coords = [i for i in range(len(window)) if i not in pivot_set]
    q_index = {c: i for i, c in enumerate(q_coords)}

    def project(vec):
        vec = list(vec)
        for row, piv in zip(k_basis, k_pivots):
            if vec[piv] != 0:
                f = vec[piv]
                vec = [a - f * b for a, b in zip(vec, row)]
        return [vec[c] for c in q_coords]

    def in_window(pos, e):
        return sum(e) <= D

    def multiply_coord(coord, var):
        pos, e = coord
        lifted = list(e)
        lifted[var] += 1
        return pos, tuple(lifted)

    # unknowns: image of each k_basis row, a vector in the quotient
    nb = len(k_basis)
    nq = len(q_coords)
    unknowns = nb * nq
    if unknowns == 0:
        return 0

    def express_in_basis(vec):
        # vec must lie in the span; peel off pivots
        coeffs = [Fraction(0)] * nb
        vec = list(vec)
        for i, (row, piv) in enumerate(zip(k_basis, k_pivots)):
            if vec[piv] != 0:
                coeffs[i] = vec[piv]
                f = vec[piv]
                vec = [a - f * b for a, b in zip(vec, row)]
        assert all(v == 0 for v in vec), "slice is not multiplication-closed"
        return coeffs

    constraints = []
    for bi, brow in enumerate(k_basis):
        for var in range(nvars):
            shifted = [Fraction(0)] * len(window)
            fits = True
            for ci, val in enumerate(brow):
                if val == 0:
                    continue
                tgt = multiply_coord(window[ci], var)
                if not in_window(*tgt):
                    fits = False
                    break
                shifted[index[tgt]] += val
            if not fits:
                continue
            lam = express_in_basis(shifted)
            # phi(x_v . b_i) = x_v . phi(b_i), unknown-coefficient rows
            # one constraint row per quotient coordinate
            for qc in range(nq):
                row = [Fraction(0)] * unknowns
                for bj, c in enumerate(lam):
                    if c != 0:
                        row[bj * nq + qc] -= c
                # x_v . phi(b_i): quotient basis coord qb maps to
                # project(x_v . coord(qb))
                for qb in range(nq):
                    tgt = multiply_coord(window[q_coords[qb]], var)
                    if not in_window(*tgt):
                        continue
                    unit = [Fraction(0)] * len(window)
                    unit[index[tgt]] = Fraction(1)
                    img = project(unit)
                    if img[qc] != 0:
                        row[bi * nq + qb] += img[qc]
                if any(v != 0 for v in row):
                    constraints.append(row)

    return unknowns - matrix_rank(constraints)


def monomial_hom_dimension(generator_exponents, nvars=3):
    """dim Hom(I, R/I) for a finite-colength monomial ideal, rank-1 case."""
    return module_hom_dimension([(0, e) for e in generator_exponents], 1,
                                nvars)


# ---------------------------------------------------------------------------
# saturation of a monomial ideal by a variable


def monomial_saturation(generator_exponents, var):
    """Minimal generators of I : x_var^infinity for I = (monomials).

    Dividing out x_var as often as it goes sets that exponent to 0 in every
    generator; keep the divisibility-minimal ones, sorted.
    """
    stripped = {tuple(0 if i == var else a for i, a in enumerate(e))
                for e in generator_exponents}
    return sorted(e for e in stripped
                  if not any(o != e and all(a <= b for a, b in zip(o, e))
                             for o in stripped))


# ---------------------------------------------------------------------------
# graded Hilbert function of a monomial ideal by direct counting


def monomial_hilbert_count(generator_exponents, nvars, degree):
    """Number of degree-d monomials outside the monomial ideal."""

    def divisible(e, g):
        return all(a >= b for a, b in zip(e, g))

    count = 0
    for e in compositions(degree, nvars):
        if not any(divisible(e, g) for g in generator_exponents):
            count += 1
    return count


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Groebner-basis check by plain division under degrevlex
#
# A polynomial is a dict {exponent tuple: coefficient}; coefficients are
# Fractions, or ints reduced mod p when p is nonzero.


def grevlex_key(e):
    """Sort key of degrevlex with x1 > x2 > ... > xn: bigger key, bigger monomial."""
    return (sum(e), tuple(-x for x in reversed(e)))


def _inverse(c, p):
    return pow(c, p - 2, p) if p else 1 / Fraction(c)


def _axpy(target, scale, shift, poly, p):
    """target -= scale * x^shift * poly, in place."""
    for m, c in poly.items():
        t = tuple(a + b for a, b in zip(m, shift))
        v = target.get(t, 0) - scale * c
        if p:
            v %= p
        if v:
            target[t] = v
        else:
            target.pop(t, None)


def division_remainder(f, divisors, p=0):
    """Remainder of f on division by `divisors` under degrevlex: take the
    largest remaining term, cancel it with the first divisor whose leading
    monomial divides it, or move it to the remainder."""
    work, rem = dict(f), {}
    leads = [(max(g, key=grevlex_key), g) for g in divisors if g]
    while work:
        m = max(work, key=grevlex_key)
        for lt, g in leads:
            if all(a >= b for a, b in zip(m, lt)):
                _axpy(work, work[m] * _inverse(g[lt], p),
                      tuple(a - b for a, b in zip(m, lt)), g, p)
                break
        else:
            rem[m] = work.pop(m)
    return rem


def s_pair(f, g, p=0):
    """S-polynomial of f and g under degrevlex, both leading terms made 1."""
    lf, lg = max(f, key=grevlex_key), max(g, key=grevlex_key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    _axpy(out, -_inverse(f[lf], p), tuple(a - b for a, b in zip(lcm, lf)), f, p)
    _axpy(out, _inverse(g[lg], p), tuple(a - b for a, b in zip(lcm, lg)), g, p)
    return out


# ---------------------------------------------------------------------------
# module Groebner-basis check by plain division
#
# A module vector is a dict {(position, exponent tuple): coefficient}, with
# coefficients as above.


def module_term_key(scheme):
    """Sort key of a module term (pos, m) over degrevlex.  'top' compares
    monomials first and then prefers the smaller position; 'pot' prefers the
    smaller position first."""

    def key(term):
        pos, m = term
        return (grevlex_key(m), -pos) if scheme == "top" else (-pos, grevlex_key(m))

    return key


def _module_axpy(target, scale, shift, vector, p):
    """target -= scale * x^shift * vector, in place."""
    for (pos, m), c in vector.items():
        t = (pos, tuple(a + b for a, b in zip(m, shift)))
        v = target.get(t, 0) - scale * c
        if p:
            v %= p
        if v:
            target[t] = v
        else:
            target.pop(t, None)


def module_division_remainder(v, divisors, key, p=0):
    """Remainder of v on division by `divisors` under the module term order
    `key`: take the largest remaining term, cancel it with the first divisor
    whose lead sits at the same position with a dividing monomial, or move
    it to the remainder."""
    work, rem = dict(v), {}
    leads = [(max(g, key=key), g) for g in divisors if g]
    while work:
        pos, m = t = max(work, key=key)
        for (lpos, lm), g in leads:
            if lpos == pos and all(a >= b for a, b in zip(m, lm)):
                _module_axpy(work, work[t] * _inverse(g[(lpos, lm)], p),
                             tuple(a - b for a, b in zip(m, lm)), g, p)
                break
        else:
            rem[t] = work.pop(t)
    return rem


def module_s_pair(f, g, key, p=0):
    """S-vector of f and g, whose leads sit at one position, both leading
    terms made 1."""
    (pos, lf), (_, lg) = max(f, key=key), max(g, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    _module_axpy(out, -_inverse(f[(pos, lf)], p), tuple(a - b for a, b in zip(lcm, lf)), f, p)
    _module_axpy(out, _inverse(g[(pos, lg)], p), tuple(a - b for a, b in zip(lcm, lg)), g, p)
    return out


def monomial_syzygies(terms):
    """Pairwise syzygies of monomial module vectors, each given as
    (position, exponent tuple, nonzero coefficient): for every pair i < j at
    one position, lcm/m_i / c_i e_i - lcm/m_j / c_j e_j.  A syzygy is a dict
    {vector index: (exponent tuple, coefficient)}."""
    out = []
    for j, (pj, mj, cj) in enumerate(terms):
        for i, (pi, mi, ci) in enumerate(terms[:j]):
            if pi != pj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            out.append({i: (tuple(a - b for a, b in zip(lcm, mi)), 1 / Fraction(ci)),
                        j: (tuple(a - b for a, b in zip(lcm, mj)), -1 / Fraction(cj))})
    return out


# ---------------------------------------------------------------------------
# factorization over Q by sympy, from an expression


def sympy_factorization(names, terms):
    """Irreducible factors over Q of the polynomial {exponent tuple: Fraction}
    in the variables `names`, by `sympy.factor_list` on a sympy expression:
    a sorted list of (sorted tuple of (exponent tuple, Fraction), exponent),
    constant factors dropped.  sympy normalizes each factor to primitive
    integer coefficients with a positive leading coefficient, under lex in
    its own order of the variables."""
    import sympy

    syms = [sympy.Symbol(v) for v in names]
    expr = sympy.Integer(0)
    for m, c in terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            term *= s**e
        expr += term
    _, factors = sympy.factor_list(expr)
    out = []
    for fac, e in factors:
        poly = sympy.Poly(fac, *syms)
        if poly.total_degree() == 0:
            continue
        items = []
        for mono, c in poly.terms():
            q = sympy.Rational(c)
            items.append((tuple(int(k) for k in mono), Fraction(int(q.p), int(q.q))))
        out.append((tuple(sorted(items)), int(e)))
    return sorted(out)


# ---------------------------------------------------------------------------
# multiplicity at an isolated point by colength ratio (uses the package)


def zero_dim_multiplicity(I, P, other_primes):
    """Colength-ratio multiplicity of I along the point P, after saturating
    away the other components."""
    from conesign.ideals import colength, saturate

    J = I
    for Q in other_primes:
        pick = None
        for g in Q.generators:
            if not P.contains(g):
                pick = g
                break
        if pick is None:
            raise ValueError("component list contains nested primes")
        J = saturate(J, pick)
    return colength(J) // colength(P)
