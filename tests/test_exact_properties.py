"""Properties of exact rational elimination against a dense Gauss-Jordan
reference, on generated sparse integer systems (needs hypothesis)."""

from fractions import Fraction

import pytest

from trimfem._exact import SpanBasis, rational_kernel, rational_solve

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def _apply(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


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
