"""Seeded job lists for the benchmark workloads, and the checks on their answers.

Every job is a seeded variant of a base ideal whose answer is fixed here,
not computed by the package: variables are permuted, the scheme is
translated together with its point, and one redundant generator is added.
Those moves leave the checked answers unchanged up to the same renaming
and translation, so the expected answer of a variant follows from its base.

Polynomials in this file are plain dicts {exponent tuple: Fraction}; the
small algebra below (product, translation, text, a parser for the
package's output) shares no code with the package under test.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

XYZ = ("x", "y", "z")
CHAR_P = 32003

# OEIS A000219: plane partitions of n (monomial ideals of colength n in 3 variables)
PLANE_PARTITION_COUNTS = {1: 1, 2: 3, 3: 6, 4: 13, 5: 24, 6: 48, 7: 86, 8: 160}

# Number of solutions with multiplicity, i.e. standard monomials of any basis
GB_COLENGTH = {"katsura5": 32, "cyclic5": 70}


# ---------------------------------------------------------------------------
# polynomial algebra on {exponent tuple: Fraction}


def monomial(e, c=1):
    return {tuple(e): Fraction(c)}


def padd(*polys):
    out = {}
    for f in polys:
        for m, c in f.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def pscale(f, c):
    return {m: v * c for m, v in f.items()} if c else {}


def variable(i, n):
    return monomial(tuple(1 if j == i else 0 for j in range(n)))


def constant(c, n):
    return monomial((0,) * n, c) if c else {}


def permute(f, perm):
    """Rename variable i to variable perm[i]."""
    out = {}
    for m, c in f.items():
        e = [0] * len(m)
        for i, k in enumerate(m):
            e[perm[i]] = k
        out[tuple(e)] = c
    return out


def translate(f, shift):
    """f(x - shift): moves the zero set of f by +shift."""
    n = len(shift)
    lin = [padd(variable(i, n), constant(-shift[i], n)) for i in range(n)]
    out = {}
    for m, c in f.items():
        term = constant(c, n)
        for i, k in enumerate(m):
            for _ in range(k):
                term = pmul(term, lin[i])
        out = padd(out, term)
    return out


def degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def lead(f):
    return max(f, key=degrevlex_key)


def to_text(f, names):
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=degrevlex_key, reverse=True):
        c = f[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


def parse_text(text, names):
    """Parse the package's rendering: terms 'c*x^2*y' joined by ' + ' / ' - '."""
    index = {n: i for i, n in enumerate(names)}
    out = {}
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    chunks = []
    for piece in text.split(" + "):
        sub = piece.split(" - ")
        chunks.append((sign, sub[0]))
        chunks.extend((-1, s) for s in sub[1:])
        sign = 1
    for s, body in chunks:
        coeff = Fraction(s)
        e = [0] * len(names)
        for factor in body.strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            e[index[name]] += int(power or 1)
        out = padd(out, {tuple(e): coeff})
    return out


def linear_rref(polys, n):
    """Canonical form of the ideal spanned by polynomials of degree <= 1."""
    rows = []
    for f in polys:
        if any(sum(m) > 1 for m in f):
            raise ValueError("not a linear ideal")
        rows.append([f.get(tuple(1 if j == i else 0 for j in range(n)), Fraction(0))
                     for i in range(n)] + [f.get((0,) * n, Fraction(0))])
    r = 0
    for col in range(n + 1):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def coordinate_prime(fixed, perm, shift):
    """Canonical form of the point-set {x_i = 0 for i in fixed}, moved."""
    n = len(shift)
    gens = [translate(variable(perm[i], n), shift) for i in fixed]
    return linear_rref(gens, n)


# ---------------------------------------------------------------------------
# monomial ideals of finite colength and their tangent dimensions


def minimal_generators(boxes):
    """Exponents of the minimal generators of the monomial ideal whose
    standard monomials are boxes: the cells outside boxes whose
    predecessors all lie in boxes, which are also the cells that can be
    added to the plane partition.  Sorted."""
    return sorted({
        c for b in boxes for d in range(3)
        for c in [tuple(v + (i == d) for i, v in enumerate(b))]
        if c not in boxes and all(
            c[i] == 0 or tuple(v - (j == i) for j, v in enumerate(c)) in boxes
            for i in range(3))
    })


def random_plane_partition(rng, n):
    """A plane partition of size n grown one addable box at a time."""
    boxes = {(0, 0, 0)}
    while len(boxes) < n:
        boxes.add(rng.choice(minimal_generators(boxes)))
    return frozenset(boxes)


def all_plane_partitions(n):
    """Every plane partition of size n, by adding boxes to those of size n-1."""
    level = {frozenset({(0, 0, 0)})}
    for _ in range(n - 1):
        level = {boxes | {c} for boxes in level for c in minimal_generators(boxes)}
    return level


def hom_dimension(gens_a, std_b):
    """dim Hom(I_a, R/I_b) for monomial ideals, one torus weight at a time.

    A homomorphism of weight w sends generator m_j to c_j x^(m_j + w).  The
    pairwise syzygy of m_i and m_j at their lcm L equates c_i and c_j when
    x^(L + w) is standard, or forces the one existing term to 0.
    """
    std_b = set(std_b)
    total = 0
    weights = {tuple(b - m for b, m in zip(bb, g)) for bb in std_b for g in gens_a}
    for w in weights:
        shifted = [tuple(a + b for a, b in zip(g, w)) for g in gens_a]
        exists = [all(v >= 0 for v in s) for s in shifted]
        valid = [e and s in std_b for e, s in zip(exists, shifted)]
        parent = list(range(len(gens_a)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        zero = set()
        for i, j in itertools.combinations(range(len(gens_a)), 2):
            top = tuple(max(a, b) + c for a, b, c in zip(gens_a[i], gens_a[j], w))
            if top not in std_b:
                continue
            if exists[i] and exists[j]:
                parent[find(i)] = find(j)
            elif exists[i] or exists[j]:
                zero.add(i if exists[i] else j)
        dead = {find(k) for k in zero}
        total += len({find(k) for k in range(len(gens_a)) if valid[k]} - dead)
    return total


# ---------------------------------------------------------------------------
# seeded variants


class Variant:
    """One seeded move: a variable permutation, a translation, a padding."""

    def __init__(self, perm, shift, rng):
        self.perm, self.shift, self.rng = list(perm), tuple(shift), rng

    @classmethod
    def draw(cls, rng, n):
        perm = list(range(n))
        rng.shuffle(perm)
        # x -> -x preserves the order and the work, so every variant of a
        # base ideal costs about the same
        return cls(perm, [rng.choice((-1, 1)) for _ in range(n)], rng)

    def point(self, p):
        moved = [0] * len(p)
        for i, v in enumerate(p):
            moved[self.perm[i]] = v
        return tuple(Fraction(v) + s for v, s in zip(moved, self.shift))

    def moved(self, base):
        return [translate(permute(g, self.perm), self.shift) for g in base]

    def generators(self, base):
        """Moved generators plus one redundant combination of them."""
        n = len(self.shift)
        moved = self.moved(base)
        i, j = self.rng.randrange(len(moved)), self.rng.randrange(len(moved))
        k = self.rng.randrange(n)
        extra = padd(pmul(moved[i], padd(variable(k, n), constant(1, n))), moved[j])
        out = moved + [extra]
        self.rng.shuffle(out)
        return out


def ideal_key(gens, names):
    """The generators as sorted text.

    For the moved minimal generators of a monomial ideal, or the moved
    generator of a principal ideal, this is a canonical form of the ideal:
    minimal monomial generators are unique, and the scheme is never
    invariant under the translation.  Two jobs present the same ideal
    exactly when their keys are equal.
    """
    return sorted(to_text(g, names) for g in gens)


def distinct_variants(rng, base, names, count):
    """count variants of base whose moved ideals are pairwise different.

    Permutations that fix the base ideal give the same moved ideal, so the
    draw is over distinct moved ideals, without replacement, and then over
    the permutations that give each.
    """
    n = len(names)
    variants = {}
    for perm in itertools.permutations(range(n)):
        for shift in itertools.product((-1, 1), repeat=n):
            v = Variant(perm, shift, rng)
            variants.setdefault(tuple(ideal_key(v.moved(base), names)), []).append(v)
    return [rng.choice(variants[k]) for k in rng.sample(sorted(variants), count)]


def ideal_file(names, gens):
    return f"ring {', '.join(names)};\n" + ",\n".join(to_text(g, names) for g in gens) + "\n"


def point_text(p):
    return ",".join(str(v) for v in p)


def _ideal(text_gens, names):
    return [parse_text(t, names) for t in text_gens]


AXES = _ideal(["x*y", "x*z", "y*z"], XYZ)
FAT = _ideal(["x^2", "x*y", "x*z", "y*z"], XYZ)
PAIR = _ideal(["y^2", "x*y"], ("x", "y"))
MIXED = _ideal(["x*y", "x*z"], XYZ)
DOUBLE = _ideal(["x^2"], ("x",))
CUBIC = _ideal(["x^3 + y^3 + z^3"], XYZ)
CUSP = _ideal(["y^2 - x^3"], ("x", "y"))

# The paper's answers on the base ideals.  A cycle term or falsifier
# component is (coefficient or multiplicity, indices of the coordinates
# that vanish on its prime).
AXES_CYCLE = [(-1, (0, 1)), (-1, (0, 2)), (-1, (1, 2)), (2, (0, 1, 2))]
FAT_CYCLE = [(-1, (0, 1)), (-1, (0, 2)), (2, (0, 1, 2))]
AXES_COMPONENTS = [(1, (0, 1)), (1, (0, 2)), (1, (1, 2))]
FAT_COMPONENTS = [(1, (0, 1)), (1, (0, 2))]
MIXED_COMPONENTS = [(1, (0,)), (1, (1, 2))]
DOUBLE_COMPONENTS = [(2, (0,))]
PAIR_CONE = [(1, True, 1, (1,)), (2, False, 0, (0, 1))]
HOLD = "necessary conditions hold"
NOT_CONSTANT = "Behrend function is NOT constant"


def _katsura(n):
    nv = n + 1

    def u(i):
        i = abs(i)
        return variable(i, nv) if i <= n else {}

    gens = [padd(variable(0, nv), *[pscale(variable(i, nv), 2) for i in range(1, nv)],
                 constant(-1, nv))]
    for m in range(n):
        acc = {}
        for l in range(-n, n + 1):
            acc = padd(acc, pmul(u(l), u(m - l)))
        gens.append(padd(acc, pscale(u(m), -1)))
    return gens


def _cyclic(n):
    gens = []
    for k in range(1, n):
        acc = {}
        for i in range(n):
            term = constant(1, n)
            for j in range(k):
                term = pmul(term, variable((i + j) % n, n))
            acc = padd(acc, term)
        gens.append(acc)
    gens.append(padd(monomial((1,) * n), constant(-1, n)))
    return gens


DENSE = {"katsura5": _katsura(5), "cyclic5": _cyclic(5)}


# ---------------------------------------------------------------------------
# job lists


def _job(jid, argv, files, expect):
    return {"id": jid, "argv": argv, "files": files, "expect": expect}


def _cone_ideal_jobs(rng, tag, base, names, jobs_expect):
    """One variant per job, so no two jobs present the same ideal."""
    out = []
    variants = distinct_variants(rng, base, names, len(jobs_expect))
    for (kind, point, expect), v in zip(jobs_expect, variants):
        fname = f"{tag}-{kind}.ideal"
        files = {fname: ideal_file(names, v.generators(base))}
        e = dict(expect, perm=v.perm, shift=[str(s) for s in v.shift], names=list(names),
                 ideal=ideal_key(v.moved(base), names))
        if kind == "cycle":
            argv = ["cycle", "--ideal", fname]
        elif kind == "eval":
            argv = ["behrend", "eval", "--ideal", fname, f"--point={point_text(v.point(point))}"]
        elif kind == "cone":
            argv = ["cone", "--ideal", fname]
        elif kind == "falsify":
            argv = ["falsify", "--ideal", fname]
        elif kind == "eu":
            argv = ["eu", "--variety", fname, f"--point={point_text(v.point(point))}"]
        out.append(_job(f"{tag}-{kind}", argv, files, dict(e, kind=kind)))
    return out


def cone_pipeline_jobs(rng):
    o3, o2 = (0, 0, 0), (0, 0)
    jobs = []
    jobs += _cone_ideal_jobs(rng, "axes", AXES, XYZ, [
        ("cycle", None, {"rc": 0, "terms": AXES_CYCLE}),
        ("eval", o3, {"rc": 0, "value": -1}),
        ("falsify", None, {"rc": 0, "overall": HOLD, "components": AXES_COMPONENTS}),
    ])
    jobs += _cone_ideal_jobs(rng, "fat", FAT, XYZ, [
        ("cycle", None, {"rc": 0, "terms": FAT_CYCLE}),
        # honest abstention: a contributing cone component is undecided
        ("eval", o3, {"rc": 2, "abstain": "uncertified primality"}),
        ("falsify", None, {"rc": 0, "overall": HOLD, "components": FAT_COMPONENTS}),
    ])
    jobs += _cone_ideal_jobs(rng, "pair", PAIR, ("x", "y"), [
        ("eval", o2, {"rc": 0, "value": 1}),
        ("cone", None, {"rc": 0, "components": PAIR_CONE}),
    ])
    jobs += _cone_ideal_jobs(rng, "mixed", MIXED, XYZ, [
        ("falsify", None, {"rc": 0, "overall": NOT_CONSTANT, "components": MIXED_COMPONENTS}),
    ])
    jobs += _cone_ideal_jobs(rng, "double", DOUBLE, ("x",), [
        ("falsify", None, {"rc": 0, "overall": NOT_CONSTANT, "components": DOUBLE_COMPONENTS}),
    ])
    jobs += _cone_ideal_jobs(rng, "cubic", CUBIC, XYZ, [
        ("eu", o3, {"rc": 0, "value": -3, "rule": "plane-cone"}),
    ])
    jobs += _cone_ideal_jobs(rng, "cusp", CUSP, ("x", "y"), [
        ("eu", o2, {"rc": 0, "value": 2, "rule": "curve-multiplicity"}),
    ])
    return jobs


def points_scan_jobs(rng):
    jobs = [_job("scan8", ["hilb", "parity-scan", "--n", "8"], {},
                 {"kind": "scan", "rc": 0, "n": 8})]
    k = rng.randint(5, 7)
    jobs.append(_job(f"enumerate{k}", ["hilb", "enumerate", "--n", str(k)], {},
                     {"kind": "enumerate", "rc": 0, "count": PLANE_PARTITION_COUNTS[k]}))
    seen = set()
    for n in (6, 7, 8, 6, 7, 8):
        key = None
        while key is None or key in seen:  # the two ideals of one colength must differ
            boxes = random_plane_partition(rng, n)
            gens = [monomial(m) for m in minimal_generators(boxes)]
            v = Variant.draw(rng, 3)
            key = tuple(ideal_key(v.moved(gens), XYZ))
        seen.add(key)
        jid = f"tangent{len(jobs)}"
        jobs.append(_job(jid, ["hilb", "tangent", "--ideal", f"{jid}.ideal"],
                         {f"{jid}.ideal": ideal_file(XYZ, v.generators(gens))},
                         {"kind": "tangent", "rc": 0, "colength": n,
                          "tangent_dim": hom_dimension(minimal_generators(boxes), boxes),
                          "rank": 1, "ideal": list(key)}))
    for q in range(4):
        key = None
        while key is None or key in seen:  # I1 + I2 and I2 + I1 count as the same
            parts = [random_plane_partition(rng, rng.randint(2, 4)) for _ in range(2)]
            gens = [minimal_generators(p) for p in parts]
            key = tuple(sorted(tuple(ideal_key([monomial(m) for m in g], XYZ))
                               for g in gens))
        seen.add(key)
        vectors = [[to_text(monomial(m), XYZ) if pos == a else "0" for pos in range(2)]
                   for a in range(2) for m in gens[a]]
        rng.shuffle(vectors)
        tangent = sum(hom_dimension(gens[a], parts[b]) for a in range(2) for b in range(2))
        jobs.append({"id": f"quot{q}", "quot": {"ring": ", ".join(XYZ), "vectors": vectors,
                                                "rank": 2},
                     "files": {}, "expect": {"kind": "tangent", "rc": 0,
                                             "colength": sum(len(p) for p in parts),
                                             "tangent_dim": tangent, "rank": 2,
                                             "ideal": [list(k) for k in key]}})
    return jobs


def gb_dense_jobs(rng):
    jobs = []
    for name, base in DENSE.items():
        n = len(next(iter(base[0])))
        perm = list(range(n))
        rng.shuffle(perm)
        names = tuple(f"x{i}" for i in range(n))
        gens = [permute(g, perm) for g in base]
        text = ideal_file(names, gens)
        fname = f"{name}.ideal"
        for char in (0, CHAR_P):
            prefix = ["--char", str(char)] if char else []
            jobs.append(_job(f"{name}-{'q' if not char else 'p'}",
                             prefix + ["gb", "--ideal", fname], {fname: text},
                             {"kind": "gb", "rc": 0, "char": char, "names": list(names),
                              "ideal": ideal_key(gens, names),
                              "colength": GB_COLENGTH[name], "pair": name}))
    return jobs


WORKLOADS = {
    "cone-pipeline": cone_pipeline_jobs,
    "points-scan": points_scan_jobs,
    "gb-dense": gb_dense_jobs,
}


def job_list(workload, seed, pass_index):
    """The jobs of one pass; the same (workload, seed, pass) gives the same list."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return WORKLOADS[workload](rng)


# ---------------------------------------------------------------------------
# checks


def _moved_prime(fixed, e):
    return coordinate_prime(fixed, e["perm"], [Fraction(s) for s in e["shift"]])


def _prime(texts, names):
    return linear_rref([parse_text(t, names) for t in texts], len(names))


def _standard_count(leads, n):
    """Monomials divisible by no lead term; None when there are infinitely many."""
    caps = [None] * n
    for m in leads:
        sup = [i for i, e in enumerate(m) if e]
        if len(sup) == 1 and (caps[sup[0]] is None or m[sup[0]] < caps[sup[0]]):
            caps[sup[0]] = m[sup[0]]
    if None in caps:
        return None
    return sum(1 for m in itertools.product(*(range(c) for c in caps))
               if not any(all(a <= b for a, b in zip(l, m)) for l in leads))


def _mod_p(f, p):
    out = {}
    for m, c in f.items():
        v = c.numerator * pow(c.denominator, -1, p) % p
        if v:
            out[m] = v
    return out


class ScanOracle:
    """Tangent dimensions of every monomial ideal of colength n, in scan order."""

    def __init__(self):
        self._dims = {}

    def dims(self, n):
        if n not in self._dims:
            parts = sorted(all_plane_partitions(n), key=sorted)
            self._dims[n] = [hom_dimension(minimal_generators(p), p) for p in parts]
        return self._dims[n]


def check(job, rc, stdout, stderr, scan_oracle, results_by_id=None):
    """None when the job's answer matches its expectation, else a reason."""
    e = job["expect"]
    if rc != e["rc"]:
        return f"exit code {rc}, expected {e['rc']}"
    if rc == 2:
        if stdout.strip():
            return "abstention printed a report"
        reason = stderr.strip()
        ok = reason.startswith("inconclusive:") and e["abstain"] in reason
        return None if ok else f"not the expected abstention: {reason[:200]!r}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    kind = e["kind"]
    names = e.get("names")
    if kind == "cycle":
        got = sorted((t["coeff"], _prime(t["prime"], names)) for t in result["terms"])
        want = sorted((c, _moved_prime(f, e)) for c, f in e["terms"])
        return None if got == want else "cycle differs"
    if kind == "eval":
        return None if result["value"] == e["value"] else f"value {result['value']}"
    if kind == "falsify":
        if result["overall"] != e["overall"]:
            return f"verdict {result['overall']!r}"
        got = sorted((c["component"]["multiplicity"],
                      _prime(c["component"]["generators"], names))
                     for c in result["components"])
        want = sorted((m, _moved_prime(f, e)) for m, f in e["components"])
        return None if got == want else "falsifier components differ"
    if kind == "cone":
        got = sorted((c["multiplicity"], c["dominates"], c["image_dim"],
                      _prime(c["image"], names)) for c in result["components"])
        want = sorted((m, d, k, _moved_prime(f, e)) for m, d, k, f in e["components"])
        return None if got == want else "cone components differ"
    if kind == "eu":
        ok = result["value"] == e["value"] and result["rule"] == e["rule"]
        return None if ok else f"eu {result['value']} by {result['rule']}"
    if kind == "scan":
        dims = [r["tangent_dim"] for r in result["rows"]]
        if result["count"] != PLANE_PARTITION_COUNTS[e["n"]] or result["violations"]:
            return "scan count or violations"
        return None if dims == scan_oracle.dims(e["n"]) else "scan tangent dimensions"
    if kind == "enumerate":
        return None if result["count"] == e["count"] else f"count {result['count']}"
    if kind == "tangent":
        want = {"colength": e["colength"], "tangent_dim": e["tangent_dim"], "rank": e["rank"],
                "parity_holds": (e["rank"] * e["colength"] - e["tangent_dim"]) % 2 == 0}
        return None if result == want else f"tangent report {result}"
    if kind == "gb":
        basis = [parse_text(t, names) for t in result["basis"]]
        if _standard_count([lead(g) for g in basis], len(names)) != e["colength"]:
            return "standard monomial count"
        if e["char"] and results_by_id is not None:
            q = results_by_id.get(f"{e['pair']}-q")
            if q is not None:
                reduced = [_mod_p(g, e["char"]) for g in q]
                mine = [{m: int(c) % e["char"] for m, c in g.items()} for g in basis]
                key = lambda f: sorted(f.items())
                if sorted(map(key, reduced)) != sorted(map(key, mine)):
                    return "Q basis mod p differs from the char-p basis"
        if results_by_id is not None:
            results_by_id[job["id"]] = basis
        return None
    return f"unknown job kind {kind!r}"
