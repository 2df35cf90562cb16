"""Linear and eigenvalue solvers."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from trimfem.assemble import (
    SparseSystem,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    assemble_mixed_poisson,
)
from trimfem.mesh import boundary_dofs, build_box_mesh, global_numbering
from trimfem.refelem import TRIMMED_SERENDIPITY, build_element, element_by_name
from trimfem import solve
from trimfem.experiments import run_primal_poisson, run_projection
from trimfem.solve import eig_shift_invert, solve_saddle, solve_spd

PI2 = np.pi**2


def test_identity_system():
    A = sp.identity(5, format="csr")
    b = np.zeros(5)
    b[0] = 1.0
    x = solve_spd(SparseSystem(A, b))
    assert np.allclose(x, b)


def test_poisson_three_point_stencil_vs_hand_elimination():
    # -u'' = 1 on (0,1), u(0)=u(1)=0, h=1/5, 4 interior nodes
    h = 1 / 5
    main = 2 / h * np.ones(4)
    off = -1 / h * np.ones(3)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    b = h * np.ones(4)
    x = solve_spd(SparseSystem(A, b))
    # hand elimination of the tridiagonal system: u_i = h^2/2 * i*(5-i)
    exact = np.array([i * (5 - i) for i in range(1, 5)]) * h**2 / 2
    assert np.abs(x - exact).max() <= 1e-14


def test_solve_spd_energy_identity():
    mesh = build_box_mesh(2, 4)
    elem = element_by_name("S", 2, 2)
    dofmap = global_numbering(mesh, elem)
    K = assemble_bilinear(mesh, dofmap, dofmap, "GradGrad")

    def f(x):
        return 2 * PI2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    K.rhs = assemble_load(mesh, dofmap, f)
    red = apply_dirichlet(K, boundary_dofs(dofmap, "full-trace"), "eliminate")
    x = solve_spd(red)
    # energy identity |x^T A x - x^T b| / |x^T b|
    xr = x[red.free]
    quad = float(xr @ (red.matrix @ xr))
    lin = float(xr @ red.rhs)
    assert abs(quad - lin) / abs(lin) <= 1e-10


def test_solve_spd_requires_rhs_and_symmetry():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="right-hand side"):
        solve_spd(SparseSystem(A))
    with pytest.raises(ValueError, match="symmetric"):
        solve_spd(SparseSystem(A, np.ones(2)))


def test_symmetry_check_is_relative_to_the_matrix_scale():
    # 1e-6 relative asymmetry far below unit scale
    A = sp.csr_matrix(1e-8 * np.array([[2.0, 1.0], [1.0 + 1e-6, 2.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        solve_spd(SparseSystem(A, np.ones(2)))


@pytest.fixture
def subtractions(monkeypatch):
    """The shapes of the sparse subtractions made, the symmetry gate's
    fallback when a matrix and its transpose differ in pattern."""
    shapes = []
    subtract = sp.csr_matrix.__sub__

    def recording_subtract(self, other):
        shapes.append(self.shape)
        return subtract(self, other)

    monkeypatch.setattr(sp.csr_matrix, "__sub__", recording_subtract)
    return shapes


def test_symmetry_gate_rejects_asymmetric_values_on_a_symmetric_pattern(subtractions):
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0 + 1e-9, 4.0, 2.0], [0.0, 2.0, 4.0]]))
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        solve_spd(SparseSystem(A, np.ones(3)))
    assert subtractions == []  # compared with its transpose in place


def test_symmetry_gate_falls_back_where_only_one_side_stores_a_zero(subtractions):
    A = sp.csr_matrix((np.array([2.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
                      shape=(2, 2))
    x = solve_spd(SparseSystem(A, np.ones(2)))
    assert subtractions == [(2, 2)]
    assert np.abs(x - 0.5).max() <= 1e-15


def test_residual_failure_reports_refinement_and_rounding_floor():
    h = 1 / 5
    A = sp.diags([-np.ones(3) / h, 2 * np.ones(4) / h, -np.ones(3) / h], [-1, 0, 1],
                 format="csr")
    with pytest.raises(RuntimeError, match=r"^solver residual \d\.\d{3}e-\d\d exceeds "
                       r"tolerance 1\.0e-18 after \d+ refinement steps on a SuperLU "
                       r"factor; rounding floor eps\*\|\|A\|\|x\|\|/\|\|b\|\| = "
                       r"\d\.\de-1\d \(matrix size 4, nnz 10\)$"):
        solve_spd(SparseSystem(A, h * np.ones(4)), tol=1e-18)


@pytest.mark.parametrize("n, r, N", [(2, 2, 16), (3, 2, 4)])
def test_assembled_systems_take_the_multifrontal_factor(splu_dtypes, n, r, N):
    # a random right-hand side: the manufactured load is close to an
    # eigenvector of these operators and would converge unusually fast
    mesh = build_box_mesh(n, N)
    dofmap = global_numbering(mesh, element_by_name("S", n, r))
    K = assemble_bilinear(mesh, dofmap, dofmap, "GradGrad")
    K.rhs = np.random.default_rng(0).standard_normal(dofmap.total)
    red = apply_dirichlet(K, boundary_dofs(dofmap, "full-trace"), "eliminate")
    x = solve_spd(red)[red.free]
    assert splu_dtypes == []  # the lattice's multifrontal Cholesky, not SuperLU
    A, b = red.matrix, red.rhs
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12
    x64 = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - x64) / np.linalg.norm(x64) <= 1e-10


@pytest.mark.parametrize("study, max_error", [
    pytest.param(lambda: run_primal_poisson(2, "S", 1, [32], bc_mode="diag1"), 1e-2,
                 id="2-S-1-32"),
    pytest.param(lambda: run_primal_poisson(3, "S", 3, [4], bc_mode="diag1"), 1e-2,
                 id="3-S-3-4"),
    pytest.param(lambda: run_primal_poisson(3, "Q", 3, [4], bc_mode="diag1"), 1e-2,
                 id="3-Q-3-4"),
    pytest.param(lambda: run_primal_poisson(2, "S", 2, [5], bc_mode="eliminate"), 1e-2,
                 id="eliminate-2-S-2-5"),
    pytest.param(lambda: run_primal_poisson(3, "Q", 2, [5], bc_mode="eliminate"), 1e-2,
                 id="eliminate-3-Q-2-5"),
    # the Q projections are onto RTCE (2D) and NCE (3D); the errors are
    # those of these coarse meshes (measured 0.013, 0.033, 0.078)
    pytest.param(lambda: run_projection(2, "S", 2, [8]), 0.02, id="projection-2-S-2-8"),
    pytest.param(lambda: run_projection(2, "Q", 2, [5]), 0.05, id="projection-2-Q-2-5"),
    pytest.param(lambda: run_projection(3, "Q", 2, [3]), 0.1, id="projection-3-Q-2-3"),
])
def test_every_benchmark_poisson_shape_takes_the_multifrontal_factor(splu_dtypes, study,
                                                                      max_error):
    # a silent fallback to SuperLU would still solve, so only this shows it
    (row,) = study()
    assert splu_dtypes == []
    assert row.error < max_error


@pytest.mark.parametrize("offdiag, tilt", [
    (1 - 1e-9, 0.0),  # rounds to 1 in float32: a float32 factor is exactly singular
    (1 - 1e-7, 1e-5),  # rounds to 1 - 1.19e-7: a float32 factor is too inaccurate to refine
], ids=["singular-in-float32", "unrefinable-in-float32"])
def test_spd_solve_without_a_lattice_factors_once_in_float64(splu_dtypes, offdiag, tilt):
    A = sp.block_diag([np.array([[1.0, offdiag], [offdiag, 1.0]])] * 3, format="csr")
    # mostly along the well-conditioned eigenvector (1, 1), so float64
    # meets the gate; the tilt puts error in the ill-conditioned one
    b = np.tile([1.0 + tilt, 1.0 - tilt], 3)
    x = solve_spd(SparseSystem(A, b))
    assert splu_dtypes == [np.float64]
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12


def test_solve_spd_reports_singular_systems():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(RuntimeError, match=r"sparse factorization.*size 2, nnz 1"):
        solve_spd(SparseSystem(A, np.ones(2)))


def test_saddle_zero_source_gives_zero_solution():
    mesh = build_box_mesh(2, 1)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    sys = assemble_mixed_poisson(mesh, hdiv, l2, lambda x: np.zeros(x.shape[:-1]))
    x = solve_saddle(sys)
    assert np.abs(x).max() <= 1e-12


def test_solve_saddle_requires_rhs_before_factoring():
    # a singular matrix: factoring it first would raise a RuntimeError
    A = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="right-hand side"):
        solve_saddle(SparseSystem(A))


def test_solve_saddle_returns_zeros_for_a_zero_rhs_without_factoring():
    # a singular matrix: factoring it would raise a RuntimeError
    A = sp.csr_matrix(np.ones((2, 2)))
    x = solve_saddle(SparseSystem(A, np.zeros(2)))
    assert np.array_equal(x, np.zeros(2))


def test_solve_saddle_gate_reports_refinement_steps():
    mesh = build_box_mesh(2, 2)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    system = assemble_mixed_poisson(mesh, hdiv, l2, lambda x: np.sin(np.pi * x[..., 0]))
    x = solve_saddle(system)
    A, b = system.matrix, system.rhs
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12
    with pytest.raises(RuntimeError, match=r"^solver residual \d\.\d{3}e-\d\d exceeds "
                       r"tolerance 0\.0e\+00 after \d+ refinement steps on a SuperLU "
                       r"factor; rounding floor eps\*\|\|A\|\|x\|\|/\|\|b\|\| = "
                       r"\d\.\de-\d\d \(matrix size \d+, nnz \d+\)$"):
        solve_saddle(system, tol=0.0)


def test_diagonal_eigenproblem():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    M = sp.identity(3, format="csr")
    res = eig_shift_invert(A, M, target=2.5, nev=2)
    assert np.allclose(sorted(res.eigenvalues), [2.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("ordering", [None, np.arange(20)[::-1]])
def test_shift_invert_reports_a_singular_shift(ordering):
    # the shift hits the eigenvalue 3 exactly, so A - 3 M is singular
    A = sp.diags(np.arange(1.0, 21.0)).tocsr()
    M = sp.identity(20, format="csr")
    with pytest.raises(RuntimeError,
                       match=r"shift-invert factorization.*size 20, nnz \d+"):
        eig_shift_invert(A, M, target=3.0, nev=2, dense_cutoff=1, ordering=ordering)


@pytest.mark.parametrize("dense_cutoff", [4000, 1], ids=["dense", "shift-invert"])
def test_eig_shift_invert_rejects_nev_below_one(dense_cutoff):
    # the shift is singular, so factoring before the check would raise RuntimeError
    A = sp.diags(np.arange(1.0, 21.0)).tocsr()
    M = sp.identity(20, format="csr")
    with pytest.raises(ValueError, match="nev=0"):
        eig_shift_invert(A, M, target=3.0, nev=0, dense_cutoff=dense_cutoff)


def _failing_eigsh(monkeypatch, failures):
    """Patch eigsh so its first `failures` calls raise ArpackNoConvergence
    with two partial pairs; returns the keyword arguments of every call
    and copies of the eigenvalues the real calls returned."""
    real = spla.eigsh
    calls, returned = [], []

    def eigsh(A, **kwargs):
        calls.append(kwargs)
        if len(calls) <= failures:
            raise spla.ArpackNoConvergence("no convergence", np.ones(2),
                                           np.ones((A.shape[0], 2)))
        vals, vecs = real(A, **kwargs)
        returned.append(vals.copy())
        return vals, vecs

    monkeypatch.setattr(solve.spla, "eigsh", eigsh)
    return calls, returned


def test_eig_shift_invert_retries_once_with_a_larger_subspace(monkeypatch):
    A = sp.diags(np.arange(1.0, 41.0)).tocsr()
    M = sp.identity(40, format="csr")
    calls, returned = _failing_eigsh(monkeypatch, failures=1)
    res = eig_shift_invert(A, M, target=10.4, nev=3, dense_cutoff=1)
    assert len(calls) == 2
    assert (calls[0]["ncv"], calls[0]["maxiter"]) == (39, 5000)
    assert (calls[1]["ncv"], calls[1]["maxiter"]) == (min(40 - 1, 8 * 3), 20000)
    assert np.array_equal(res.eigenvalues, returned[0])
    assert np.abs(res.eigenvalues - np.round(res.eigenvalues)).max() <= 1e-10


def test_eig_shift_invert_reports_a_failed_retry(monkeypatch):
    A = sp.diags(np.arange(1.0, 41.0)).tocsr()
    M = sp.identity(40, format="csr")
    calls, _ = _failing_eigsh(monkeypatch, failures=2)
    with pytest.raises(RuntimeError, match=r"did not converge for 3 pairs near 10\.4 "
                                           r"\(size 40\); partial results: 2 pairs"):
        eig_shift_invert(A, M, target=10.4, nev=3, dense_cutoff=1)
    assert len(calls) == 2


def _maxwell_system(family, N, r=2, mode="eliminate"):
    mesh = build_box_mesh(3, N)
    elem = build_element(family, 3, 1, r)
    dofmap = global_numbering(mesh, elem)
    bdofs = boundary_dofs(dofmap, "tangential-trace")
    A = apply_dirichlet(assemble_bilinear(mesh, dofmap, dofmap, "CurlCurl"), bdofs, mode)
    M = apply_dirichlet(assemble_bilinear(mesh, dofmap, dofmap, "Mass"), bdofs, mode)
    return A.matrix, M.matrix


def test_maxwell_operator_is_positive_semidefinite():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2)
    vals = np.linalg.eigvalsh(A.toarray())
    assert vals.min() >= -1e-9 * max(vals.max(), 1.0)


def test_dense_and_shift_invert_paths_agree():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 4)
    dense = eig_shift_invert(A, M, target=3.0 * PI2, nev=12, dense_cutoff=10**9)
    sparse = eig_shift_invert(A, M, target=3.0 * PI2, nev=12, dense_cutoff=1)
    dense_phys = np.sort(dense.eigenvalues[dense.eigenvalues > PI2])
    sparse_phys = np.sort(sparse.eigenvalues[sparse.eigenvalues > PI2])
    m = min(len(dense_phys), len(sparse_phys))
    assert m >= 10
    assert np.abs(dense_phys[:m] / sparse_phys[:m] - 1).max() <= 1e-8


def test_shift_invert_path_is_deterministic():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2)
    first = eig_shift_invert(A, M, target=3.0 * PI2, nev=8, dense_cutoff=1)
    second = eig_shift_invert(A, M, target=3.0 * PI2, nev=8, dense_cutoff=1)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert first.op_count == second.op_count


def test_eigen_residuals_below_tolerance():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 4)
    tol = 1e-7
    res = eig_shift_invert(A, M, target=3.0 * PI2, nev=10, tol=tol, dense_cutoff=1)
    assert res.residuals.max() <= 10 * tol
    # the residuals kept through the polish are those of the returned pairs
    norms = (spla.norm(A, np.inf), spla.norm(M, np.inf))
    assert np.array_equal(res.residuals, solve._residual_norms(
        A, M, norms, res.eigenvalues, res.eigenvectors))
    assert res.op_count is not None and res.op_count > 0


def test_spurious_unit_eigenvalues_in_diag1_mode():
    # diag-one boundary handling plants eigenvalues exactly at 1
    import scipy.linalg

    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2, mode="diag1")
    vals = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    ones = np.sum(np.abs(vals - 1.0) < 1e-9)
    assert ones > 0
    # while elimination mode has none
    Ae, Me = _maxwell_system(TRIMMED_SERENDIPITY, 2, mode="eliminate")
    vals_e = scipy.linalg.eigh(Ae.toarray(), Me.toarray(), eigvals_only=True)
    assert np.sum(np.abs(vals_e - 1.0) < 1e-9) == 0
