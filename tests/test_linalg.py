"""Tests for exact rank over Q."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix_rank

from conesign.linalg import rational_rank

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


def test_empty_inputs():
    assert rational_rank([]) == 0
    assert rational_rank([[], []]) == 0
