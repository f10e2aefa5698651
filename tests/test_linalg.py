"""Exact rank and linear solving, which share one forward elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck.fields import FieldSpec
from polcheck.linalg import rank, solve

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)


def matrix_of(spec, rows):
    return [[spec.element(text) for text in row] for row in rows]


def test_rank_of_small_matrices():
    assert rank([]) == 0
    assert rank(matrix_of(Q, [["0", "0"], ["0", "0"]])) == 0
    assert rank(matrix_of(Q, [["1", "2"], ["2", "4"], ["0", "1"]])) == 2
    assert rank(matrix_of(Q2, [["1", "sqrt(2)"], ["sqrt(2)", "2"]])) == 1


def test_solve_back_substitutes_with_free_variables_zero():
    matrix = matrix_of(Q, [["0", "1", "2"], ["1", "1", "1"]])
    rhs = [Q.from_int(5), Q.from_int(3)]
    assert solve(matrix, rhs) == [Q.from_int(-2), Q.from_int(5), Q.zero()]
    assert solve([], []) == []


def test_solve_reports_an_inconsistent_system():
    matrix = matrix_of(Q2, [["1", "sqrt(2)"], ["sqrt(2)", "2"]])
    assert solve(matrix, [Q2.one(), Q2.one()]) is None
    assert solve(matrix, [Q2.one(), Q2.sqrt_element()]) == [Q2.one(), Q2.zero()]


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data())
def test_solve_agrees_with_rank(rows, cols, data):
    entries = data.draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows))
    rhs_entries = data.draw(st.lists(_ENTRY, min_size=rows, max_size=rows))
    matrix = [[Q.from_fraction(Fraction(e)) for e in row] for row in entries]
    rhs = [Q.from_fraction(Fraction(e)) for e in rhs_entries]
    solution = solve(matrix, rhs)
    augmented = [row + [b] for row, b in zip(matrix, rhs)]
    # M c = rhs is consistent exactly when adding rhs as a column keeps the rank
    assert (solution is None) == (rank(augmented) > rank(matrix))
    if solution is not None:
        for row, b in zip(matrix, rhs):
            assert sum((a * c for a, c in zip(row, solution)), Q.zero()) == b
