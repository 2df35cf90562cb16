"""Exact rational elimination: kernels, particular solutions, Gram solves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# properties against a dense Gauss-Jordan reference
# ---------------------------------------------------------------------------

def _reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over the first ncols columns: rows and pivots."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        i = len(pivots)
        sel = next((j for j in range(i, len(mat)) if mat[j][col]), None)
        if sel is None:
            continue
        mat[i], mat[sel] = mat[sel], mat[i]
        piv = mat[i][col]
        mat[i] = [v / piv for v in mat[i]]
        for j in range(len(mat)):
            if j != i and mat[j][col]:
                c = mat[j][col]
                mat[j] = [a - c * b for a, b in zip(mat[j], mat[i])]
        pivots.append(col)
    return mat, pivots


def _reference_kernel(rows, ncols):
    mat, pivots = _reference_rref(rows, ncols)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][f]
        kernel.append(v)
    return kernel


def _reference_solve(rows, rhs, ncols):
    mat, pivots = _reference_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in mat[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = mat[r][ncols]
    return x


_ENTRY = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))


@st.composite
def _sparse_systems(draw):
    """Small sparse integer matrices with some rows and columns zeroed."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    mat = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    mat = [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
           for i, row in enumerate(mat)]
    x = draw(st.lists(_ENTRY, min_size=ncols, max_size=ncols))
    consistent = [sum(a * b for a, b in zip(row, x)) for row in mat]
    arbitrary = draw(st.lists(_ENTRY, min_size=nrows, max_size=nrows))
    perm = draw(st.permutations(range(nrows)))
    return mat, ncols, consistent, arbitrary, perm


_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@_PROPERTY
@given(_sparse_systems())
def test_sparse_elimination_matches_dense_gauss_jordan(system):
    mat, ncols, consistent, arbitrary, _ = system
    assert rational_kernel(mat, ncols) == _reference_kernel(mat, ncols)
    for rhs in (consistent, arbitrary):
        assert rational_solve(mat, rhs) == _reference_solve(mat, rhs, ncols)
    x = rational_solve(mat, consistent)
    assert x is not None and _apply(mat, x) == consistent


@_PROPERTY
@given(_sparse_systems())
def test_sparse_elimination_ignores_row_order(system):
    mat, ncols, consistent, arbitrary, perm = system
    permuted = [mat[i] for i in perm]

    def echelon(rows):
        span = SpanBasis()
        for row in rows:
            span.add({j: Fraction(v) for j, v in enumerate(row) if v})
        return span.echelon_rows()

    assert echelon(permuted) == echelon(mat)
    assert rational_kernel(permuted, ncols) == rational_kernel(mat, ncols)
    for rhs in (consistent, arbitrary):
        assert (rational_solve(permuted, [rhs[i] for i in perm])
                == rational_solve(mat, rhs))
