"""Metamorphic checks on a small fixed corpus: renaming the variables and
translating the scheme together with the point change none of the answers
that the paper's test reads (the signed support cycle, the minimal primes
with their multiplicities, the falsifier's verdicts and Behrend values).
An abstention is an answer too, and must stay one."""

import itertools

import pytest

from conesign import (
    IdealPresentation,
    PrimalityUndecidedError,
    behrend_value,
    constancy_falsifier,
    ideal,
    minimal_primes,
    ring,
    signed_support_cycle,
)

R2 = ring("x, y")
R3 = ring("x, y, z")

# (ideal, points on it)
CORPUS = [
    (ideal(R3, "xy, xz, yz"), [(0, 0, 0), (1, 0, 0)]),
    (ideal(R3, "x^2, xy, xz, yz"), [(0, 0, 0), (0, 1, 0)]),
    (ideal(R2, "y^2, xy"), [(0, 0), (1, 0)]),
]
IDS = ["three-axes", "axes-with-fat-point", "line-with-fat-point"]


def permuted(I: IdealPresentation, perm) -> IdealPresentation:
    """I with variable i renamed to variable perm[i]."""
    return IdealPresentation(I.ring, [g.remap(I.ring, perm) for g in I.generators])


def renamed(pairs, perm=None):
    """The (prime, value) pairs as sorted (basis text, value) pairs, each
    prime renamed by perm first."""
    return sorted(((permuted(P, perm) if perm else P).signature(), v) for P, v in pairs)


def answers(J):
    """(cycle terms, minimal primes, falsifier components) as lists of
    (prime, value) pairs, and the falsifier's overall verdict and sign."""
    cert = constancy_falsifier(J)
    parts = (
        [(t.prime, (t.coefficient, t.dimension)) for t in signed_support_cycle(J).terms],
        [(c.prime, c.multiplicity) for c in minimal_primes(J)],
        [(r.component.prime, (r.verdict, r.reasons)) for r in cert.reports],
    )
    return parts, (cert.overall, cert.sign)


@pytest.mark.parametrize("J, points", CORPUS, ids=IDS)
def test_renaming_the_variables_renames_every_answer(J, points):
    parts, verdict = answers(J)
    # a transposition and a 3-cycle (the swap in two variables)
    perms = list(itertools.permutations(range(J.ring.arity)))[1:]
    for perm in perms[:1] + perms[3:4]:
        moved_parts, moved_verdict = answers(permuted(J, perm))
        assert moved_verdict == verdict
        for got, want in zip(moved_parts, parts):
            assert renamed(got) == renamed(want, perm)


def value_or_abstention(J, point):
    try:
        return behrend_value(J, point).value
    except PrimalityUndecidedError:
        return "undecided"


@pytest.mark.parametrize("J, points", CORPUS, ids=IDS)
def test_translating_scheme_and_point_keeps_the_behrend_value(J, points):
    n = J.ring.arity
    for point, v in zip(points, [(1,) * n, tuple((-1) ** i for i in range(n))]):
        moved = IdealPresentation(J.ring, [g.translate([-c for c in v]) for g in J.generators])
        there = tuple(a + b for a, b in zip(point, v))
        assert value_or_abstention(moved, there) == value_or_abstention(J, point)
