"""Exact rational elimination on sparse rows: kernels, particular solutions,
Gram solves."""

from fractions import Fraction

import pytest

from trimfem._exact import SpanBasis, gram_solve, rational_kernel, rational_solve

# column 2 is zero and row 1 is zero; rank 2 with pivots in columns 0 and 3
A = [
    {0: 1, 1: 2, 3: 3},
    {},
    {0: 2, 1: 4, 3: 7},
]


def _apply(rows, x):
    """Sparse product rows @ x over row indices."""
    out = {}
    for i, row in enumerate(rows):
        s = sum(Fraction(row.get(c, 0)) * v for c, v in x.items())
        if s:
            out[i] = s
    return out


def test_kernel_sets_free_variables_to_one_in_column_order():
    kernel = rational_kernel(A, 4)
    # free columns 1 and 2, in that order, each set to 1 with the other at 0
    assert kernel == [{0: -2, 1: 1}, {2: 1}]
    assert [list(v) for v in kernel] == [[0, 1], [2]]
    for v in kernel:
        assert _apply(A, v) == {}


def test_kernel_of_empty_and_full_rank_matrices():
    assert rational_kernel([], 2) == [{0: 1}, {1: 1}]
    assert rational_kernel([{0: 2, 1: 1}, {0: 1, 1: 3}], 2) == []


def test_kernel_is_exact_rational():
    (v,) = rational_kernel([{0: 3, 1: 1}, {1: 2, 2: 5}], 3)
    assert v == {0: Fraction(5, 6), 1: Fraction(-5, 2), 2: 1}
    assert all(isinstance(c, Fraction) for c in v.values())


def test_solve_sets_free_variables_to_zero():
    kernel, (x,) = rational_solve(A, [{0: 5, 2: 11}], 4)
    assert x == {0: 2, 3: 1}
    # the right-hand side pivots last, so the kernel is the matrix's own
    assert kernel == rational_kernel(A, 4)
    assert _apply(A, x) == {0: 5, 2: 11}


def test_solve_is_exact_rational():
    assert (rational_solve([{0: 2, 1: 1}, {0: 1, 1: 3}], [{0: 1, 1: 2}], 2)
            == ([], [{0: Fraction(1, 5), 1: Fraction(3, 5)}]))


def test_solve_returns_none_on_inconsistent_system():
    # a nonzero rhs on the zero row, then a consistent one, in one elimination
    assert rational_solve(A, [{0: 5, 1: 1, 2: 11}, {0: 5, 2: 12}], 4)[1] == [
        None, {0: -1, 3: 2}]


def test_solve_checks_every_right_hand_side_not_only_pivots():
    # x0 = 1 and x0 = 2, then x0 = 1 and x0 = 3: both inconsistent, but
    # only the first right-hand side takes a pivot in the augmented matrix
    assert rational_solve([{0: 1}, {0: 1}], [{0: 1, 1: 2}, {0: 1, 1: 3}], 1)[1] == [
        None, None]


def test_gram_solve():
    assert gram_solve([{0: 2, 1: 1}, {0: 1, 1: 2}], [{0: 3, 1: 3}]) == [{0: 1, 1: 1}]
    with pytest.raises(ValueError, match="singular Gram matrix"):
        gram_solve([{0: 1, 1: 2}, {0: 2, 1: 4}], [{0: 1}])


def test_gram_solve_takes_every_right_hand_side_at_once():
    gram = [{0: 2, 1: 1}, {0: 1, 1: 2}]
    assert (gram_solve(gram, [{0: 3, 1: 3}, {0: 1, 1: -1}, {}])
            == [{0: 1, 1: 1}, {0: 1, 1: -1}, {}])


def test_gram_solve_rejects_a_singular_consistent_system():
    # {0: 1} solves it, but so does every {0: t, 1: 1 - t}
    with pytest.raises(ValueError, match="singular Gram matrix"):
        gram_solve([{0: 1, 1: 1}, {0: 1, 1: 1}], [{0: 1, 1: 1}])


def test_gram_solve_reads_the_eliminator_through_one_rational_solve(monkeypatch):
    from trimfem import _exact

    calls = []

    def counting(rows, rhs, ncols):
        calls.append(ncols)
        return rational_solve(rows, rhs, ncols)

    monkeypatch.setattr(_exact, "rational_solve", counting)
    assert gram_solve([{0: 2, 1: 1}, {0: 1, 1: 2}], [{0: 3, 1: 3}]) == [{0: 1, 1: 1}]
    assert calls == [2]


def test_span_basis_is_fully_reduced_whatever_the_insertion_order():
    # integer input with non-unit pivots must still reduce exactly
    for vecs in ([{3: 2}, {1: 3, 3: 1}], [{1: 3, 3: 1}, {3: 2}]):
        span = SpanBasis()
        for v in vecs:
            span.add(v)
        assert span.echelon_rows() == [{1: 1}, {3: 1}]
