"""Independent reference implementations used to cross-check computed values.

Everything here is deliberately dumb and dense: plain Fractions, exponent
tuples, and row reduction.  Nothing imports the package's Groebner or
syzygy machinery, so agreement between the two sides is meaningful.  The
one exception is `zero_dim_multiplicity` at the end, a cross-check built
from the package's own saturation and colength.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd, lcm


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


def axis_permutation_orbits(n):
    """The plane partitions of size n grouped into their orbits under the
    permutations of the three axes: a set of orbits, each the frozenset of
    the box sets it holds."""
    return {frozenset(frozenset(tuple(b[i] for i in perm) for b in boxes)
                      for perm in permutations(range(3)))
            for boxes in height_matrix_partitions(n)}


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
    """Rank over GF(p) by `rref`; over Q by integer elimination: each row is
    scaled to integers, and a row below the pivot row becomes
    pivot * row - entry * pivot row, divided by the gcd of its entries."""
    if not rows:
        return 0
    if p:
        return len(rref(rows, p)[0])
    ints = []
    for r in rows:
        r = [Fraction(v) for v in r]
        den = lcm(*(v.denominator for v in r))
        ints.append([v.numerator * (den // v.denominator) for v in r])
    rank = 0
    for c in range(len(ints[0])):
        pivot = next((i for i in range(rank, len(ints)) if ints[i][c]), None)
        if pivot is None:
            continue
        ints[rank], ints[pivot] = ints[pivot], ints[rank]
        top = ints[rank]
        for i in range(rank + 1, len(ints)):
            a = ints[i][c]
            if a:
                row = [top[c] * x - a * y for x, y in zip(ints[i], top)]
                g = gcd(*row)
                ints[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(ints):
            break
    return rank


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


def hilbert_numerator_oracle(generator_exponents, nvars):
    """The numerator N of series(R/M) = N(t) / (1 - t)^nvars, as a list of
    coefficients without trailing zeros ([] for the unit ideal), by
    inclusion-exclusion over the subsets S of the generators (Taylor):
    N(t) = sum_S (-1)^|S| t^(deg lcm S).  A degree-d monomial lies outside
    M exactly when no generator divides it, and the subsets whose lcm
    divides it count to 1 - 1 = 0 otherwise.  Repeated, non-minimal and
    constant generators need no care; 2^(number of generators) terms."""
    coefficients = {0: 0}
    for size in range(len(generator_exponents) + 1):
        for subset in combinations(generator_exponents, size):
            d = sum(map(max, zip(*subset)))  # 0 for the empty subset
            coefficients[d] = coefficients.get(d, 0) + (-1) ** size
    out = [coefficients.get(d, 0) for d in range(max(coefficients) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_dimension(generator_exponents, nvars):
    """Krull dimension of R/M for the monomial ideal M: the size of the
    largest set of variables that contains the support of no generator, or
    -1 when no set does (a constant generator)."""
    for size in range(nvars, -1, -1):
        for chosen in combinations(range(nvars), size):
            if not any(all(e == 0 or i in chosen for i, e in enumerate(g))
                       for g in generator_exponents):
                return size
    return -1


# ---------------------------------------------------------------------------
# minimal primes of a monomial ideal, with the multiplicity along each


def monomial_minimal_primes(generator_exponents, nvars):
    """Sorted (S, m) pairs for M = (monomials): the minimal primes of M are
    the coordinate primes (x_i : i in S), S a minimal vertex cover of the
    generators' supports, and m is the length of R/M localized at one.

    Setting the variables outside S to 1 leaves a monomial ideal of k[x_S]
    with finite colength, which is that length: as S is minimal, each x_i
    of S is alone in the support of some generator there.
    """
    supports = [{i for i, a in enumerate(g) if a} for g in generator_exponents]
    if not all(supports):
        return []  # a constant generator: the unit ideal
    covers = []
    for size in range(nvars + 1):
        for S in combinations(range(nvars), size):
            if all(s & set(S) for s in supports) and not any(set(c) <= set(S) for c in covers):
                covers.append(S)
    out = []
    for S in covers:
        local = [tuple(g[i] for i in S) for g in generator_exponents]
        powers = [min(e[k] for e in local if sum(e) == e[k]) for k in range(len(S))]
        standard = [e for e in product(*map(range, powers))
                    if not any(all(a >= b for a, b in zip(e, g)) for g in local)]
        out.append((S, len(standard)))
    return sorted(out)


# ---------------------------------------------------------------------------
# products of powers of linear primes, with the multiplicity along each
#
# A linear prime is given by rows (c_1, ..., c_n, c_0), one for each affine
# form c_1*x_1 + ... + c_n*x_n + c_0 among its generators, with a common zero.


def linear_prime_contains(big, small):
    """Whether the linear prime `big` contains `small`: every row of small
    is a combination of big's rows."""
    return matrix_rank(list(big) + list(small)) == matrix_rank(big)


def linear_product_multiplicities(primes, exponents):
    """The multiplicity of I = prod_j P_j^(a_j) along each linear prime P_j,
    none containing another; those P_j are exactly I's minimal primes.

    At the generic point of P_j every other factor is the unit ideal.  In
    coordinates where P_j's forms are h_j of the variables, h_j the rank of
    its rows, the local ring there is R/P_j^(a_j) over the function field
    of the rest: its length counts the monomials of degree below a_j in
    h_j variables, C(a_j + h_j - 1, h_j).
    """
    return [comb(a + h - 1, h) for h, a in zip(map(matrix_rank, primes), exponents)]


# ---------------------------------------------------------------------------
# polynomial text in varied surface syntax
#
# `render_polynomial` writes a term dict as text for the package's parser,
# without the package's printer: a parse of the text must give the dict back


def _render_monomial(m, names, rnd):
    """m in the variables `names`, each factor written x, x^1 or x^e, joined
    by '*', a space or nothing (juxtaposed: xy^2); '' for the constant."""
    factors = [name if e == 1 and rnd.random() < 0.6 else f"{name}^{e}"
               for name, e in zip(names, m) if e]
    text = factors[0] if factors else ""
    for f in factors[1:]:
        text += rnd.choice(("*", " * ", " ", "")) + f
    return text


def _render_term(c, m, names, rnd):
    """A positive coefficient c times the monomial m."""
    coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    mono = _render_monomial(m, names, rnd)
    if not mono:
        return coeff
    if c == 1 and rnd.random() < 0.5:
        return mono
    return coeff + rnd.choice(("*", " * ", " ", "")) + mono


def _render_sum(pieces, names, rnd, depth):
    """The sum of the (monomial, Fraction) pieces, in their order.  Runs of
    up to three pieces may be written as a parenthesized sub-sum, negated or
    not, times their common monomial on either side."""
    signed = []  # (sign, text), each text a positive summand
    i = 0
    while i < len(pieces):
        size = rnd.randint(1, 3)
        group, i = pieces[i:i + size], i + size
        if len(group) > 1 and depth < 2 and rnd.random() < 0.5:
            common = tuple(map(min, *(m for m, _ in group)))
            sign = rnd.choice((1, -1))
            inner = [(tuple(a - b for a, b in zip(m, common)), sign * c) for m, c in group]
            body = "(" + _render_sum(inner, names, rnd, depth + 1) + ")"
            factor = _render_monomial(common, names, rnd)
            if factor:
                join = rnd.choice(("*", " ", ""))
                body = factor + join + body if rnd.random() < 0.5 else body + join + factor
            signed.append((sign, body))
        else:
            signed += [(1 if c > 0 else -1, _render_term(abs(c), m, names, rnd))
                       for m, c in group]
    if not signed:
        return "0"
    sign, text = signed[0]
    out = ("-" if sign < 0 else rnd.choice(("", "+", "+ "))) + text
    for sign, text in signed[1:]:
        out += rnd.choice((" {} ", "{}", "{} ", " {}")).format("-" if sign < 0 else "+") + text
    return out


def render_polynomial(terms, names, rnd):
    """Text for {exponent tuple: nonzero Fraction} over the single-letter
    variables `names`, drawn by the random.Random rnd: explicit and implicit
    '*', juxtaposed variables, a/b coefficients, '^1', spaces, a leading
    sign, parenthesized sub-sums, and like terms that cancel (some of a
    term's coefficient written apart, or a term and its negative)."""
    pieces = []
    for m, c in terms.items():
        if rnd.random() < 0.3:
            d = Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
            pieces += [(m, d), (m, c - d)]
        else:
            pieces.append((m, c))
    for _ in range(rnd.randint(0, 2)):
        m = tuple(rnd.randint(0, 2) for _ in names)
        d = Fraction(rnd.randint(1, 9), rnd.randint(1, 4))
        pieces += [(m, d), (m, -d)]
    rnd.shuffle(pieces)
    return _render_sum([(m, c) for m, c in pieces if c], names, rnd, 0)


# ---------------------------------------------------------------------------
# Groebner-basis check by plain division, under degrevlex unless a sort key
# of another order is given
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


def division_remainder(f, divisors, p=0, key=grevlex_key):
    """Remainder of f on division by `divisors` under the order of `key`
    (degrevlex unless given): take the largest remaining term, cancel it
    with the first divisor whose leading monomial divides it, or move it to
    the remainder."""
    work, rem = dict(f), {}
    leads = [(max(g, key=key), g) for g in divisors if g]
    while work:
        m = max(work, key=key)
        for lt, g in leads:
            if all(a >= b for a, b in zip(m, lt)):
                _axpy(work, work[m] * _inverse(g[lt], p),
                      tuple(a - b for a, b in zip(m, lt)), g, p)
                break
        else:
            rem[m] = work.pop(m)
    return rem


def s_pair(f, g, p=0, key=grevlex_key):
    """S-polynomial of f and g under the order of `key` (degrevlex unless
    given), both leading terms made 1."""
    lf, lg = max(f, key=key), max(g, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    _axpy(out, -_inverse(f[lf], p), tuple(a - b for a, b in zip(lcm, lf)), f, p)
    _axpy(out, _inverse(g[lg], p), tuple(a - b for a, b in zip(lcm, lg)), g, p)
    return out


# ---------------------------------------------------------------------------
# zero-dimensional decompositions by Stickelberger's theorem
#
# For J of finite colength n over Q and a linear form l, the characteristic
# polynomial of multiplication by l on R/J is the product over the points p
# of (t - l(p))^mu(p).  When l takes distinct values at the distinct points,
# it is prod_P m_P^(mu_P) over J's minimal primes P, with m_P irreducible of
# degree deg P; and l does exactly when the squarefree part of that
# polynomial has the degree of the rank of the trace form Tr(b_i * b_j),
# which counts the points (Cox-Little-O'Shea, Using Algebraic Geometry,
# ch. 2 and 4).  Polynomials are dicts as above, over Q.


def _times(f, g):
    out = {}
    for m, c in f.items():
        for e, d in g.items():
            t = tuple(a + b for a, b in zip(m, e))
            out[t] = out.get(t, 0) + c * d
    return {t: c for t, c in out.items() if c}


def _standard_monomials(leads, nvars):
    """The monomials that no lead divides, sorted by degrevlex; ValueError
    unless a pure power of every variable is among the leads."""
    if not all(any(lt[i] == sum(lt) > 0 for lt in leads) for i in range(nvars)):
        raise ValueError("the quotient is not finite")
    out, work = set(), [(0,) * nvars]
    while work:
        m = work.pop()
        if m not in out and not any(all(a >= b for a, b in zip(m, lt)) for lt in leads):
            out.add(m)
            work.extend(tuple(a + (k == i) for k, a in enumerate(m)) for i in range(nvars))
    return sorted(out, key=grevlex_key)


def _characteristic_polynomial(A):
    """Coefficients c_0, ..., c_n = 1 of det(t - A), by Faddeev-LeVerrier:
    M_k = A M_(k-1) + c_(n-k+1), c_(n-k) = -tr(A M_k) / k."""
    n = len(A)
    c = [Fraction(0)] * n + [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(A[i][l] * M[l][j] for l in range(n)) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        c[n - k] = -sum(A[i][l] * M[l][i] for i in range(n) for l in range(n)) / k
    return c


def _univariate_remainder(f, g):
    """f mod g for coefficient lists c_0, c_1, ... with g's last one nonzero."""
    f = list(f)
    while len(f) >= len(g):
        q, shift = f[-1] / g[-1], len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= q * c
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def _squarefree_degree(c):
    """deg c - deg gcd(c, c'): the number of distinct roots of c."""
    f, g = c, [k * a for k, a in enumerate(c)][1:]
    while g:
        f, g = g, _univariate_remainder(f, g)
    return len(c) - len(f)


def stickelberger_components(generators, basis, nvars, rnd):
    """The sorted (deg P, mu_P) over the minimal primes P of the ideal J of
    `generators`, of finite colength, with mu_P the multiplicity of J along
    P, from one factorization by sympy.

    `basis` is J's reduced degrevlex basis as the package computed it, a
    certificate checked here by plain division: its S-pairs reduce to 0 and
    so do the generators, so it is a Groebner basis of an ideal holding J.
    Multiplication by a linear form l with coefficients drawn from `rnd` is
    written on its standard monomials by the same division; l is taken when
    the squarefree part of its characteristic polynomial has the degree of
    the trace form's rank, and ValueError follows 20 failed draws."""
    import sympy

    for f, g in combinations(basis, 2):
        if division_remainder(s_pair(f, g), basis):
            raise ValueError("an S-pair of the basis does not reduce to 0")
    if any(division_remainder(f, basis) for f in generators):
        raise ValueError("a generator does not reduce to 0 on the basis")
    std = _standard_monomials([max(g, key=grevlex_key) for g in basis], nvars)
    n = len(std)

    def coordinates(f):
        rem = division_remainder(f, basis)
        return [rem.get(m, 0) for m in std]

    products = {(i, j): coordinates(_times({std[i]: 1}, {std[j]: 1}))
                for i in range(n) for j in range(i, n)}

    def product(i, j):
        return products[min(i, j), max(i, j)]

    traces = [sum(product(k, j)[j] for j in range(n)) for k in range(n)]
    trace_form = [[sum(a * t for a, t in zip(product(i, j), traces)) for j in range(n)]
                  for i in range(n)]
    points = matrix_rank(trace_form)
    for _ in range(20):
        form = {tuple(int(k == i) for k in range(nvars)): rnd.randint(-9, 9)
                for i in range(nvars)}
        columns = [coordinates(_times(form, {m: 1})) for m in std]
        chi = _characteristic_polynomial([list(row) for row in zip(*columns)])
        if _squarefree_degree(chi) == points:
            t = sympy.Symbol("t")
            _, factors = sympy.factor_list(sympy.Poly(
                [sympy.Rational(a.numerator, a.denominator) for a in reversed(chi)], t))
            return sorted((int(P.degree()), int(e)) for P, e in factors)
    raise ValueError("no drawn linear form separates the points")


# ---------------------------------------------------------------------------
# module Groebner-basis check by plain division
#
# A module vector is a dict {(position, exponent tuple): coefficient}, with
# coefficients as above.


def module_term_key(term):
    """Sort key of a module term (pos, m) over degrevlex, term over position:
    monomials first, then the smaller position."""
    pos, m = term
    return (grevlex_key(m), -pos)


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


def module_division_remainder(v, divisors, key, p=0, quotients=None):
    """Remainder of v on division by `divisors` under the module term order
    `key`: take the largest remaining term, cancel it with the first divisor
    whose lead sits at the same position with a dividing monomial, or move
    it to the remainder.  With `quotients`, a list of one dict per divisor,
    each cancellation adds its factor at its shift, so that v is the sum of
    quotient * divisor and the remainder."""
    work, rem = dict(v), {}
    leads = [(k, max(g, key=key), g) for k, g in enumerate(divisors) if g]
    while work:
        pos, m = t = max(work, key=key)
        for k, (lpos, lm), g in leads:
            if lpos == pos and all(a >= b for a, b in zip(m, lm)):
                scale = work[t] * _inverse(g[(lpos, lm)], p)
                shift = tuple(a - b for a, b in zip(m, lm))
                if quotients is not None:
                    q = quotients[k].get(shift, 0) + scale
                    quotients[k][shift] = q % p if p else q
                _module_axpy(work, scale, shift, g, p)
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


def schreyer_syzygies(divisors, key, p=0):
    """Schreyer's syzygies of module vectors that form a Groebner basis under
    `key`, each a list of one {exponent tuple: coefficient} dict per
    divisor.  For j = 0, 1, ... and each i < j whose leads share a position,
    with lcm l, unless a third lead divides l and its lcms with both leads
    divide l strictly: (l / lt_i) / lc_i at e_i, minus (l / lt_j) / lc_j at
    e_j, plus the quotients of their S-vector, taken with lt_j first."""
    leads = [max(g, key=key) for g in divisors]

    def lcm(a, b):
        return tuple(map(max, a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    out = []
    for j, (pj, mj) in enumerate(leads):
        for i, (pi, mi) in enumerate(leads[:j]):
            if pi != pj:
                continue
            l = lcm(mi, mj)
            if any(k not in (i, j) and pk == pi and divides(mk, l)
                   and lcm(mi, mk) != l and lcm(mj, mk) != l
                   for k, (pk, mk) in enumerate(leads)):
                continue
            syz = [{} for _ in divisors]
            rem = module_division_remainder(
                module_s_pair(divisors[j], divisors[i], key, p), divisors, key, p, syz)
            assert rem == {}, "not a Groebner basis"
            for k, sign in ((i, 1), (j, -1)):
                shift = tuple(a - b for a, b in zip(l, leads[k][1]))
                c = syz[k].get(shift, 0) + sign * _inverse(divisors[k][leads[k]], p)
                syz[k][shift] = c % p if p else c
            out.append([{m: c for m, c in d.items() if c} for d in syz])
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


# ---------------------------------------------------------------------------
# eliminants by sympy's lex Groebner basis


def lex_eliminant(names, generators, var):
    """The monic generator of I meet Q[var] for the zero-dimensional ideal I
    generated by the polynomial texts `generators` (with ^ for powers) in
    the variables `names`, as {exponent: Fraction}: the one element of
    sympy's reduced lex basis, with `var` the smallest variable, that
    involves `var` alone."""
    import sympy

    syms = [sympy.Symbol(v) for v in names]
    x = syms[names.index(var)]
    order = [s for s in syms if s != x] + [x]
    exprs = [sympy.sympify(g.replace("^", "**"), locals=dict(zip(names, syms)))
             for g in generators]
    basis = sympy.groebner(exprs, *order, order="lex", domain=sympy.QQ)
    (g,) = [g for g in basis.exprs if g.free_symbols <= {x}]
    poly = sympy.Poly(g, x).monic()
    return {int(k): Fraction(int(c.p), int(c.q)) for (k,), c in poly.terms()}


# ---------------------------------------------------------------------------
# the command line as argparse declared it


def argparse_cli_parser():
    """The argparse declaration of the `conesign` command line, whose usage
    errors raise ValueError; subparsers inherit the class.  Abbreviated
    options and the help text are argparse's own, and `cli.parse_args` has
    neither."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = Parser(prog="conesign")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--order", choices=["degrevlex", "lex"], default=None)
    parser.add_argument("--char", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--format", choices=["json", "csv", "text"], default=None)
    parser.set_defaults(has_csv=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def ideal_cmd(name):
        p = sub.add_parser(name)
        p.add_argument("--ideal", required=True)
        return p

    ideal_cmd("gb")
    ideal_cmd("eliminate").add_argument("--drop", required=True)
    ideal_cmd("saturate").add_argument("--by", required=True)
    ideal_cmd("dim")
    ideal_cmd("mincomp").set_defaults(has_csv=True)
    ideal_cmd("cone")
    ideal_cmd("cycle")

    p = sub.add_parser("eu")
    p.add_argument("--variety", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--assume-prime", action="store_true")

    bsub = sub.add_parser("behrend").add_subparsers(dest="behrend_command", required=True)
    pe = bsub.add_parser("eval")
    pe.add_argument("--ideal", required=True)
    pe.add_argument("--point", required=True)
    for p in (bsub.add_parser("falsify"), sub.add_parser("falsify")):
        p.add_argument("--ideal", required=True)
        p.add_argument("--sign", choices=["+1", "-1", "1"], default=None)

    hsub = sub.add_parser("hilb").add_subparsers(dest="hilb_command", required=True)
    pe = hsub.add_parser("enumerate")
    pe.add_argument("--n", type=int, required=True)
    pe.set_defaults(has_csv=True)
    hsub.add_parser("tangent").add_argument("--ideal", required=True)
    ps = hsub.add_parser("parity-scan")
    ps.add_argument("--n", type=int, required=True)
    # suppressed when absent, so it cannot overwrite a global --jobs
    ps.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    ps.set_defaults(has_csv=True)
    return parser
