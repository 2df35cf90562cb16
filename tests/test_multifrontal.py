"""The memoized multifrontal factors of box-lattice systems: the Cholesky
factor of SPD systems and the Bunch-Kaufman factor of shifted pencils."""

import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from trimfem import multifrontal
from trimfem.assemble import SparseSystem, apply_dirichlet, assemble_bilinear
from trimfem.mesh import boundary_dofs, build_box_mesh, global_numbering
from trimfem.refelem import (
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    build_element,
    element_by_name,
)
from trimfem.solve import eig_shift_invert, solve_spd

SHIFT = 3.0 * np.pi**2  # the cavity study's target


def _system(n, name, r, divisions, form="GradGrad", mode=None):
    """An assembled system with a random right-hand side: the manufactured
    loads are close to eigenvectors and would converge unusually fast."""
    mesh = build_box_mesh(n, divisions)
    dofmap = global_numbering(mesh, element_by_name(name, n, r))
    system = assemble_bilinear(dofmap, dofmap, form)
    system.rhs = np.random.default_rng(0).standard_normal(dofmap.total)
    if mode is not None:
        system = apply_dirichlet(system, boundary_dofs(dofmap), mode)
    return system, dofmap


def _unordered(system):
    return SparseSystem(system.matrix, system.rhs, system.full_size, system.free)


def _residual(system, x):
    A, b = system.matrix, system.rhs
    x = x if system.free is None else x[system.free]
    return np.linalg.norm(b - A @ x) / np.linalg.norm(b)


@pytest.mark.parametrize("n, name, r, divisions, form, mode", [
    (2, "S", 2, (8, 12), "GradGrad", "diag1"),
    (2, "Lagrange", 3, (8, 12), "GradGrad", "eliminate"),
    (3, "S", 3, (3, 5, 4), "GradGrad", "eliminate"),
    (3, "Lagrange", 2, (3, 5, 4), "GradGrad", "diag1"),
    (2, "SminusCurl", 2, (8, 12), "Mass", None),
    (2, "RTCF", 2, (8, 12), "Mass", None),
    (3, "NCE", 2, (3, 5, 4), "Mass", None),
    (3, "SminusDiv", 2, (3, 5, 4), "Mass", None),
])
def test_multifrontal_agrees_with_superlu(splu_dtypes, n, name, r, divisions, form, mode):
    system, _ = _system(n, name, r, divisions, form, mode)
    x = solve_spd(system)
    assert splu_dtypes == []
    assert _residual(system, x) <= 1e-12
    y = solve_spd(_unordered(system))
    assert splu_dtypes == [np.float64]
    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


def test_each_class_is_factored_once(monkeypatch):
    system, _ = _system(3, "S", 3, 6, mode="diag1")
    potrf, calls = lapack.dpotrf, []

    def counting_potrf(a, **kwargs):
        calls.append(a.shape[0])
        return potrf(a, **kwargs)

    monkeypatch.setattr(multifrontal.lapack, "dpotrf", counting_potrf)
    factor = multifrontal.factor(system.matrix, system.lattice)
    assert len(calls) == factor.classes < factor.nodes
    b = system.rhs
    assert np.linalg.norm(b - system.matrix @ factor(b)) <= 1e-13 * np.linalg.norm(b)


def test_the_top_box_must_be_closed_on_even_planes(monkeypatch):
    # Without the boundary the lattice spans [1, 31]: un-closed, a box at
    # the eliminated boundary has the key of an interior box of its shape,
    # whose rows reach a separator where the boundary box's reach nothing.
    system, _ = _system(2, "S", 2, 16, mode="eliminate")
    assert system.lattice.min() == 1
    assert multifrontal.factor(system.matrix, system.lattice) is not None
    closed = multifrontal._top_box

    def unclosed(lattice):
        origin, _ = closed(lattice)
        return origin, tuple(tuple(v.tolist()) for v in
                             (lattice.min(axis=0) - origin, lattice.max(axis=0) - origin))

    monkeypatch.setattr(multifrontal, "_top_box", unclosed)
    assert multifrontal.factor(system.matrix, system.lattice) is None


def _pinned(system, dof):
    return apply_dirichlet(system, [dof], "diag1")


def _eliminated(system, dof):
    return apply_dirichlet(system, [dof], "eliminate")


def _rescaled(system, dof):
    # the same pattern, one row and column scaled: still SPD
    scale = np.ones(system.matrix.shape[0])
    scale[dof] = 2.0
    D = sp.diags(scale)
    return SparseSystem((D @ system.matrix @ D).tocsr(), system.rhs,
                        lattice=system.lattice)


def _dof_at(system, position):
    return np.flatnonzero((system.lattice == position).all(axis=1))[0]


@pytest.mark.parametrize("change", [_pinned, _eliminated, _rescaled],
                         ids=["pinned", "eliminated", "rescaled"])
def test_a_changed_interior_dof_falls_back_to_superlu(splu_dtypes, change):
    # (8, 10) lies in a box whose class has other instances
    system, _ = _system(2, "S", 2, 16, mode="diag1")
    changed = change(system, _dof_at(system, (8, 10)))
    assert multifrontal.factor(changed.matrix, changed.lattice) is None
    x = solve_spd(changed)
    assert splu_dtypes == [np.float64]
    assert _residual(changed, x) <= 1e-12


def test_a_lattice_that_swaps_two_vertices_falls_back(splu_dtypes):
    # the rows keep their lengths and values and only their columns move,
    # in a box that is not its class's representative
    system, _ = _system(2, "S", 2, 16, mode="diag1")
    i, j = _dof_at(system, (20, 6)), _dof_at(system, (22, 6))
    lattice = system.lattice.copy()
    lattice[[i, j]] = lattice[[j, i]]
    assert multifrontal.factor(system.matrix, lattice) is None
    x = solve_spd(SparseSystem(system.matrix, system.rhs, lattice=lattice))
    assert splu_dtypes == [np.float64]
    assert _residual(system, x) <= 1e-12


def test_a_coupling_beyond_the_cells_around_a_box_falls_back(splu_dtypes):
    system, _ = _system(2, "S", 2, 16, mode="diag1")
    i, j = _dof_at(system, (8, 10)), _dof_at(system, (24, 22))
    far = sp.csr_matrix(([1e-3, 1e-3], ([i, j], [j, i])), shape=system.matrix.shape)
    coupled = SparseSystem((system.matrix + far).tocsr(), system.rhs,
                           lattice=system.lattice)
    assert multifrontal.factor(coupled.matrix, coupled.lattice) is None
    x = solve_spd(coupled)
    assert splu_dtypes == [np.float64]
    assert _residual(coupled, x) <= 1e-12


def test_every_unknown_must_be_a_pivot_of_its_class_layout(splu_dtypes):
    # one DOF per cell of a 32 x 32 mesh and one on a vertex: the boxes
    # that share its box's key have no DOF there, so its representative
    # would leave that DOF out of every front
    centers = np.stack(np.meshgrid(*[np.arange(1, 64, 2)] * 2, indexing="ij"), axis=-1)
    lattice = np.vstack([centers.reshape(-1, 2), [[12, 20]]])
    A = sp.identity(len(lattice), format="csr") * 2.0
    assert multifrontal.factor(A, lattice) is None
    x = solve_spd(SparseSystem(A, np.ones(len(lattice)), lattice=lattice))
    assert splu_dtypes == [np.float64]
    assert np.abs(x - 0.5).max() <= 1e-15


@pytest.mark.parametrize("n, name, r, N", [(2, "S", 2, 4), (2, "S", 1, 16), (3, "S", 2, 3)])
def test_a_singular_front_names_the_stage_and_the_sizes(n, name, r, N):
    # GradGrad without boundary conditions: the constants are its kernel
    system, dofmap = _system(n, name, r, N)
    with pytest.raises(RuntimeError, match=r"multifrontal Cholesky: the front of box "
                       r"\(.*\) is not positive definite \(pivot \d+ of \d+, front "
                       rf"size \d+, 1 instances; matrix size {dofmap.total}, nnz \d+\)"):
        solve_spd(system)


def test_classes_stay_far_below_the_tree_nodes():
    system, _ = _system(2, "S", 1, 512, mode="diag1")
    factor = multifrontal.factor(system.matrix, system.lattice)
    assert factor.classes < 200 and factor.nodes > 50 * factor.classes


def _front_bytes(factor):
    return [(f.pivots.tobytes(), f.shell.tobytes(), f.Linv.tobytes(), f.L21t.tobytes())
            for f in factor.fronts]


@pytest.mark.parametrize("n, r, N", [(3, 3, 6), (2, 1, 64)])
def test_slice_and_indexed_extend_adds_give_the_same_fronts(monkeypatch, n, r, N):
    # each entry of a front takes one add per child whichever way the
    # child's update goes in, so the fronts keep their bytes
    system, _ = _system(n, "S", r, N, mode="diag1")
    default = _front_bytes(multifrontal.factor(system.matrix, system.lattice))
    for threshold in (0, np.inf):  # every block by slices, every block indexed
        monkeypatch.setattr(multifrontal, "_SLICE", threshold)
        assert _front_bytes(multifrontal.factor(system.matrix, system.lattice)) == default


def test_the_factor_reports_its_stored_and_per_instance_values():
    # 3D S-_2 N=12 Poisson under eliminate, the matched-accuracy pair's
    # S-_2 level: one factor per class, against one per tree box
    system, _ = _system(3, "S", 2, 12, mode="eliminate")
    factor = multifrontal.factor(system.matrix, system.lattice)
    assert factor.stored == sum(f.Linv.size + f.L21t.size for f in factor.fronts)
    assert (factor.stored, factor.per_instance) == (1_045_109, 1_423_813)


def test_unsorted_indices_give_the_canonical_solution_bytes():
    system, _ = _system(2, "S", 2, 8, mode="eliminate")
    A = system.matrix
    reversed_rows = np.concatenate([np.arange(A.indptr[i], A.indptr[i + 1])[::-1]
                                    for i in range(A.shape[0])])
    U = sp.csr_matrix((A.data[reversed_rows], A.indices[reversed_rows], A.indptr),
                      shape=A.shape)
    assert not U.has_sorted_indices
    expected = multifrontal.factor(A, system.lattice)(system.rhs)
    assert multifrontal.factor(U, system.lattice)(system.rhs).tobytes() == expected.tobytes()


def test_a_lattice_of_the_wrong_length_is_not_factored():
    A = sp.csr_matrix(5 * np.eye(4) - np.ones((4, 4)))
    with pytest.raises(ValueError, match=re.escape(
            "a lattice of 3 positions does not fit a matrix of size 4")):
        multifrontal.factor(A, np.zeros((3, 2), dtype=np.int64))


def test_a_float_lattice_is_not_factored():
    # truncated to integers it would factor on [[1], [3], [5], [7]]
    A = sp.diags([-np.ones(3), 4 * np.ones(4), -np.ones(3)], [-1, 0, 1], format="csr")
    lattice = np.array([[1], [3], [5], [7]])
    assert multifrontal.factor(A, lattice) is not None
    with pytest.raises(ValueError, match=re.escape(
            "a lattice of shape (4, 1) and dtype float64 is not a 2-D integer array")):
        multifrontal.factor(A, lattice + 0.9)


def test_a_one_dimensional_lattice_is_named_by_its_shape():
    # it raised a bare IndexError: invalid index to scalar variable
    A = sp.diags([-np.ones(3), 4 * np.ones(4), -np.ones(3)], [-1, 0, 1], format="csr")
    with pytest.raises(ValueError, match=re.escape("a lattice of shape (4,) and dtype int64")):
        multifrontal.factor(A, np.array([1, 3, 5, 7]))


@pytest.fixture
def blas_pool():
    """The get and set functions of scipy's OpenBLAS thread count; the test
    leaves the count as it found it."""
    get, set_ = multifrontal._blas_threads()
    count = get()
    yield get, set_
    set_(count)


def test_the_installed_scipy_exposes_its_blas_thread_count():
    # without it every factor would silently run on the default threads
    assert multifrontal._blas_threads() is not None


@pytest.mark.parametrize("threads", [2, 1])
def test_the_kernels_run_on_one_thread_and_the_count_is_restored(
        monkeypatch, blas_pool, threads):
    get, set_ = blas_pool
    set_(threads)
    seen, potrf, dgemm = [], lapack.dpotrf, multifrontal.blas.dgemm

    def potrf_seeing_threads(*args, **kwargs):
        seen.append(get())
        return potrf(*args, **kwargs)

    def dgemm_seeing_threads(*args, **kwargs):
        seen.append(get())
        return dgemm(*args, **kwargs)

    monkeypatch.setattr(multifrontal.lapack, "dpotrf", potrf_seeing_threads)
    monkeypatch.setattr(multifrontal.blas, "dgemm", dgemm_seeing_threads)
    system, _ = _system(2, "S", 2, 16, mode="diag1")
    factor = multifrontal.factor(system.matrix, system.lattice)
    factor(system.rhs)
    assert get() == threads
    assert seen and set(seen) == {1}
    with pytest.raises(RuntimeError, match="is not positive definite"):
        multifrontal.factor(-system.matrix, system.lattice)
    assert get() == threads


def test_solutions_do_not_depend_on_the_blas_thread_count(blas_pool):
    _, set_ = blas_pool
    system, _ = _system(3, "S", 3, 8, mode="diag1")
    solutions = []
    for threads in (2, 1):
        set_(threads)
        factor = multifrontal.factor(system.matrix, system.lattice)
        solutions.append(factor(system.rhs).tobytes())
    assert solutions[0] == solutions[1]


def test_without_the_thread_count_control_the_solve_is_unchanged(
        monkeypatch, blas_pool, splu_dtypes):
    # a build whose OpenBLAS exports no count: the kernels run on the
    # pool as it is, here preset to the one thread the control would set
    _, set_ = blas_pool
    system, _ = _system(3, "S", 3, 8, mode="diag1")
    x = solve_spd(system)
    set_(1)
    monkeypatch.setattr(multifrontal, "_blas_threads", lambda: None)
    y = solve_spd(system)
    assert splu_dtypes == []
    assert _residual(system, y) <= 1e-12
    assert x.tobytes() == y.tobytes()


def _cavity(family, N):
    """The curl-curl and mass systems of the r=2 cavity on an N^3 mesh."""
    dofmap = global_numbering(build_box_mesh(3, N), build_element(family, 3, 1, 2))
    bdofs = boundary_dofs(dofmap)
    A = apply_dirichlet(assemble_bilinear(dofmap, dofmap, "CurlCurl"), bdofs)
    M = apply_dirichlet(assemble_bilinear(dofmap, dofmap, "Mass"), bdofs)
    return A, M


def _pencil(A, M, target):
    return (A.matrix - target * M.matrix).tocsr()


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
def test_cavity_pencils_factor_on_the_tree(splu_dtypes, family):
    A, M = _cavity(family, 4)
    P = _pencil(A, M, SHIFT)
    factor = multifrontal.factor(P, A.lattice, indefinite=True)
    assert all(f.ipiv is not None for f in factor.fronts)
    b = np.random.default_rng(0).standard_normal(P.shape[0])
    assert np.linalg.norm(b - P @ factor(b)) <= 1e-10 * np.linalg.norm(b)
    eig_shift_invert(A, M, target=SHIFT, nev=4)
    assert splu_dtypes == []


def _spd_factor():
    system, _ = _system(3, "S", 3, 6, mode="diag1")
    return system.matrix, multifrontal.factor(system.matrix, system.lattice)


def _indefinite_factor():
    A, M = _cavity(TENSOR_PRODUCT, 4)
    P = _pencil(A, M, SHIFT)
    return P, multifrontal.factor(P, A.lattice, indefinite=True)


@pytest.mark.parametrize("make_factor", [_spd_factor, _indefinite_factor],
                         ids=["cholesky", "indefinite"])
def test_a_block_solve_equals_its_column_solves(make_factor):
    A, factor = make_factor()
    B = np.random.default_rng(1).standard_normal((A.shape[0], 5))
    X = factor(B)
    assert X.shape == B.shape
    for b, x in zip(B.T, X.T):
        column = factor(b)
        assert np.abs(x - column).max() <= 1e-13 * np.abs(column).max()


def _one_column_sweeps(factor, b):
    """A one-column Cholesky solve as the factor made it before it solved
    blocks: each class's instances gathered, multiplied and scattered as one
    (pivots, instances) matrix."""
    x = np.array(b, dtype=np.float64)
    for f in factor.fronts:
        Y = blas.dgemm(1.0, f.Linv, x[f.pivots].T)
        x[f.pivots] = Y.T
        if f.shell.size:
            np.subtract.at(x, f.shell.ravel(),
                           blas.dgemm(1.0, f.L21t, Y, trans_a=1).T.ravel())
    for f in reversed(factor.fronts):
        Z = x[f.pivots].T
        if f.shell.size:
            Z = blas.dgemm(-1.0, f.L21t, x[f.shell].T, beta=1.0, c=Z, overwrite_c=1)
        x[f.pivots] = blas.dgemm(1.0, f.Linv, Z, trans_a=1).T
    return x


@pytest.mark.parametrize("n, r, N", [(3, 3, 6), (2, 1, 64)])
def test_one_column_cholesky_solves_keep_their_bytes(n, r, N):
    system, _ = _system(n, "S", r, N, mode="diag1")
    factor = multifrontal.factor(system.matrix, system.lattice)
    with multifrontal._one_blas_thread():
        expected = _one_column_sweeps(factor, system.rhs)
    assert factor(system.rhs).tobytes() == expected.tobytes()


def test_a_singular_pivot_block_with_a_shell_is_left_to_superlu():
    # the first class is a leaf, whose pivot block is its own rows of
    # A - sigma M: at an eigenvalue of that small pencil it is singular to
    # rounding, and its update would carry that into its parent's front
    A, M = _cavity(TRIMMED_SERENDIPITY, 4)
    leaf = multifrontal.factor(M.matrix, M.lattice).fronts[0]
    assert leaf.shell.size
    pivots = leaf.pivots[0]
    local = scipy.linalg.eigh(A.matrix[pivots][:, pivots].toarray(),
                              M.matrix[pivots][:, pivots].toarray(), eigvals_only=True)
    P = _pencil(A, M, local[-1])
    assert multifrontal.factor(P, A.lattice, indefinite=True) is None


def test_an_ill_conditioned_pivot_block_sends_the_eigensolve_to_superlu(monkeypatch,
                                                                      splu_dtypes):
    A, M = _cavity(TENSOR_PRODUCT, 4)
    tree = eig_shift_invert(A, M, target=SHIFT, nev=6)
    assert splu_dtypes == []
    monkeypatch.setattr(multifrontal, "_ILL_CONDITIONED", 1.0)  # every front with a shell
    assert multifrontal.factor(_pencil(A, M, SHIFT), A.lattice, indefinite=True) is None
    superlu = eig_shift_invert(A, M, target=SHIFT, nev=6)
    assert splu_dtypes == [np.float64]
    assert np.abs(superlu.eigenvalues / tree.eigenvalues - 1).max() <= 1e-10


def test_an_indefinite_front_solves_its_pivot_block_and_updates_its_shell():
    # 1 x 1 and 2 x 2 pivots, with and without interchanges, in pivot
    # blocks with a shell of three points
    rng = np.random.default_rng(3)
    for F11 in (rng.standard_normal((40, 40)), np.eye(6)[::-1] + 1e-3 * np.eye(6)):
        F11 = F11 + F11.T
        p = len(F11)
        F12 = rng.standard_normal((p, 3))
        F22 = rng.standard_normal((3, 3))
        F22 = F22 + F22.T
        Y = np.asfortranarray(np.hstack([F11, F12]))
        _, ipiv, W, U = multifrontal._indefinite_front(Y, np.asfortranarray(F22), p)
        assert (ipiv < 0).any()
        assert np.abs(F11 @ W - F12).max() <= 1e-12 * np.abs(F12).max()
        expected = F22 - F12.T @ np.linalg.solve(F11, F12)
        assert np.abs(U - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
def test_both_kernels_lay_out_the_fronts_alike(family):
    # the indefinite kernel pivots inside F11, so its fronts keep the key
    # order of the Cholesky fronts on the same lattice
    A, M = _cavity(family, 4)
    indefinite = multifrontal.factor(_pencil(A, M, SHIFT), A.lattice, indefinite=True)
    cholesky = multifrontal.factor(M.matrix, A.lattice)
    assert len(indefinite.fronts) == len(cholesky.fronts)
    for f, g in zip(indefinite.fronts, cholesky.fronts):
        assert np.array_equal(f.pivots, g.pivots) and np.array_equal(f.shell, g.shell)


def test_an_indefinite_factor_reports_its_stored_values():
    # the Q-_2 N=4 pencil: sytrf's factor and W of each class; the pivot
    # indices are not values
    _, factor = _indefinite_factor()
    assert factor.stored == sum(f.Linv.size + f.L21t.size for f in factor.fronts)
    assert factor.stored == 117_152
