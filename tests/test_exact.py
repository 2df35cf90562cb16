"""Exact rational elimination: kernels, particular solutions, Gram solves."""

from fractions import Fraction

import pytest

from trimfem._exact import SpanBasis, gram_solve, rational_kernel, rational_solve

# column 2 is zero and row 1 is zero; rank 2 with pivots in columns 0 and 3
A = [
    [1, 2, 0, 3],
    [0, 0, 0, 0],
    [2, 4, 0, 7],
]


def _apply(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


def test_kernel_sets_free_variables_to_one_in_column_order():
    kernel = rational_kernel(A, 4)
    # free columns 1 and 2, in that order, each set to 1 with the other at 0
    assert kernel == [[-2, 1, 0, 0], [0, 0, 1, 0]]
    for v in kernel:
        assert _apply(A, v) == [0, 0, 0]


def test_kernel_of_empty_and_full_rank_matrices():
    assert rational_kernel([], 2) == [[1, 0], [0, 1]]
    assert rational_kernel([[2, 1], [1, 3]], 2) == []


def test_kernel_is_exact_rational():
    (v,) = rational_kernel([[3, 1, 0], [0, 2, 5]], 3)
    assert v == [Fraction(5, 6), Fraction(-5, 2), 1]
    assert all(isinstance(c, type(v[0])) for c in v)


def test_solve_sets_free_variables_to_zero():
    x = rational_solve(A, [5, 0, 11])
    assert x == [2, 0, 0, 1]
    assert _apply(A, x) == [5, 0, 11]


def test_solve_is_exact_rational():
    assert rational_solve([[2, 1], [1, 3]], [1, 2]) == [Fraction(1, 5), Fraction(3, 5)]


def test_solve_returns_none_on_inconsistent_system():
    assert rational_solve(A, [5, 1, 11]) is None  # nonzero rhs on the zero row
    assert rational_solve(A, [5, 0, 12]) == [-1, 0, 0, 2]


def test_gram_solve():
    assert gram_solve([[2, 1], [1, 2]], [3, 3]) == [1, 1]
    with pytest.raises(ValueError, match="singular Gram matrix"):
        gram_solve([[1, 2], [2, 4]], [1, 0])


def test_gram_solve_rejects_a_singular_consistent_system():
    # [1, 0] solves it, but so does every [t, 1 - t]
    with pytest.raises(ValueError, match="singular Gram matrix"):
        gram_solve([[1, 1], [1, 1]], [1, 1])


def test_span_basis_is_fully_reduced_whatever_the_insertion_order():
    # integer input with non-unit pivots must still reduce exactly
    for vecs in ([{3: 2}, {1: 3, 3: 1}], [{1: 3, 3: 1}, {3: 2}]):
        span = SpanBasis()
        for v in vecs:
            span.add(v)
        assert span.echelon_rows() == [{1: 1}, {3: 1}]
