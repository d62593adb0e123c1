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


def as_dicts(rows):
    """The rows as {column: value} dicts of their nonzero entries."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


@given(case=matrices(max_rows=5))
@settings(max_examples=100, deadline=None)
def test_dict_rows_and_list_rows_have_the_same_rank(case):
    _, rows = case
    assert rational_rank(as_dicts(rows)) == rational_rank(rows)


@given(blocks=st.lists(matrices(max_rows=3), min_size=1, max_size=3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_rank_of_a_permuted_block_diagonal_matrix_is_the_sum_of_the_block_ranks(blocks, data):
    width = sum(ncols for ncols, _ in blocks)
    rows, offset = [], 0
    for ncols, block in blocks:
        rows += [[0] * offset + row + [0] * (width - offset - ncols) for row in block]
        offset += ncols
    # shuffling rows and columns hides the blocks from the elimination order
    rows = data.draw(st.permutations(rows))
    cols = data.draw(st.permutations(range(width)))
    rows = [[row[c] for c in cols] for row in rows]
    want = sum(matrix_rank(block) for _, block in blocks)
    assert rational_rank(rows) == rational_rank(as_dicts(rows)) == matrix_rank(rows) == want


def test_solve_combination_leaves_the_non_pivot_vectors_out():
    # v1 = 2 v0 and v3 = v0 + v2 come after the vectors they depend on, so a
    # column-by-column elimination of the augmented transpose gives them 0
    vectors = [[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 1, 0], [1, 3, 1, 1],
               [Fraction(1, 2), 0, 0, Fraction(1, 3)], [0, 0, Fraction(-5, 7), 1]]
    target = [Fraction(4), Fraction(7), Fraction(23, 28), Fraction(47, 12)]
    want = [3, 0, 1, 0, 2, Fraction(1, 4)]
    assert solve_combination(vectors, target) == want
    assert solve_combination(as_dicts(vectors), as_dicts([target])[0]) == want
    # off the span of the first four
    assert solve_combination(vectors[:4], [0, 0, 0, 1]) is None
    assert solve_combination(as_dicts(vectors[:4]), {3: 1}) is None


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
