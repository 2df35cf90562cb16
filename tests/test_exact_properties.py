"""Properties of exact rational elimination on sparse rows against a dense
Gauss-Jordan reference, on generated sparse integer systems (needs
hypothesis)."""

from fractions import Fraction

import pytest

from trimfem._exact import SpanBasis, rational_kernel, rational_solve

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def _sparse(vec):
    """Sparse {index: value} form of a dense vector, or None for None."""
    return None if vec is None else {j: Fraction(v) for j, v in enumerate(vec) if v}


def _apply(rows, x):
    return _sparse([sum(Fraction(row.get(c, 0)) * v for c, v in x.items()) for row in rows])


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
    # two arbitrary right-hand sides: the second may be inconsistent
    # without taking a pivot of its own
    dense = (consistent, arbitrary, arbitrary[::-1])
    rows, rhs = [_sparse(r) for r in mat], [_sparse(b) for b in dense]
    kernel = rational_kernel(rows, ncols)
    assert kernel == [_sparse(v) for v in _reference_kernel(mat, ncols)]
    assert all(list(v) == sorted(v) for v in kernel)
    augmented, solutions = rational_solve(rows, rhs, ncols)
    assert augmented == kernel  # the right-hand sides pivot last
    assert solutions == [_sparse(_reference_solve(mat, b, ncols)) for b in dense]
    # all right-hand sides at once give what each gives alone
    assert solutions == [rational_solve(rows, [b], ncols)[1][0] for b in rhs]
    x = solutions[0]
    assert x is not None and list(x) == sorted(x) and _apply(rows, x) == rhs[0]


@_PROPERTY
@given(_sparse_systems())
def test_sparse_elimination_ignores_row_order(system):
    mat, ncols, consistent, arbitrary, perm = system
    rows = [_sparse(r) for r in mat]
    permuted = [rows[i] for i in perm]

    def echelon(rows):
        span = SpanBasis()
        for row in rows:
            span.add(row)
        return span.echelon_rows()

    assert echelon(permuted) == echelon(rows)
    assert rational_kernel(permuted, ncols) == rational_kernel(rows, ncols)
    dense = (consistent, arbitrary)
    assert (rational_solve(permuted, [_sparse([b[i] for i in perm]) for b in dense], ncols)
            == rational_solve(rows, [_sparse(b) for b in dense], ncols))
