"""Tests for exact rank and linear combinations over Q."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix_rank

from conesign.linalg import rational_rank, solve_combination

# few distinct values, many zeros: ranks below full come up often; the large
# rationals make the integer rows clear big denominators and remove content
entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4),
                           Fraction(10**12 + 1, 7**9), -Fraction(3**20, 2**40)])


@st.composite
def matrices(draw, max_rows=4):
    ncols = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows))
    return ncols, [[Fraction(x) for x in row] for row in rows]


@given(case=matrices(max_rows=5))
@settings(max_examples=150, deadline=None)
def test_rank_matches_the_oracle(case):
    _, rows = case
    assert rational_rank(rows) == matrix_rank(rows)


@given(case=matrices(), combine=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_solve_combination_reproduces_a_target_in_the_span(case, combine, data):
    ncols, vectors = case
    if combine:
        # a combination of the vectors, so always in the span
        weights = data.draw(st.lists(entries, min_size=len(vectors), max_size=len(vectors)))
        target = [sum((w * v[i] for w, v in zip(weights, vectors)), Fraction(0))
                  for i in range(ncols)]
    else:
        target = [Fraction(x) for x in
                  data.draw(st.lists(entries, min_size=ncols, max_size=ncols))]
    coeffs = solve_combination(vectors, target)
    if matrix_rank(vectors + [target]) > matrix_rank(vectors):
        assert coeffs is None
        return
    assert coeffs is not None and len(coeffs) == len(vectors)
    assert all(type(c) is Fraction for c in coeffs)
    assert [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
            for i in range(ncols)] == target


def test_empty_inputs():
    assert rational_rank([]) == 0
    assert rational_rank([[], []]) == 0
    assert solve_combination([], []) == []
    assert solve_combination([], [Fraction(0), Fraction(0)]) == []
    assert solve_combination([], [Fraction(1)]) is None
    assert solve_combination([[], []], []) == [0, 0]


def test_solve_combination_divides_exactly():
    # integer rows must not turn 1/3 into a float
    coeffs = solve_combination([[Fraction(3)]], [Fraction(1)])
    assert coeffs == [Fraction(1, 3)]
    assert type(coeffs[0]) is Fraction
