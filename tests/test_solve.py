"""Linear and eigenvalue solvers."""

import re

import numpy as np
import pytest
import scipy.linalg
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
from trimfem.refelem import (
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    build_element,
    element_by_name,
)
from trimfem import solve
from trimfem.experiments import run_mixed_poisson, run_primal_poisson, run_projection
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
    K = assemble_bilinear(dofmap, dofmap, "GradGrad")

    def f(x):
        return 2 * PI2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    K.rhs = assemble_load(dofmap, f)
    red = apply_dirichlet(K, boundary_dofs(dofmap), "eliminate")
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


def test_a_failed_solve_leaves_a_matrix_with_duplicate_entries_as_given():
    # a 40 x 40 SPD matrix with every entry stored twice, as halves: the
    # rounding floor once summed the duplicates in place, nnz 3200 -> 1600.
    # The system holds the summed matrix, made on a copy, so the message
    # gives its 1600 entries and the caller's arrays stay as given
    n = 40
    G = np.random.default_rng(0).standard_normal((n, n))
    dense = G @ G.T + n * np.eye(n)
    dense = (dense + dense.T) / 2
    A = sp.csr_matrix((np.hstack([dense / 2, dense / 2]).ravel(), np.tile(np.arange(n), 2 * n),
                       np.arange(0, 2 * n * n + 1, 2 * n)), shape=(n, n))
    assert not A.has_canonical_format and A.nnz == 2 * n * n
    given = [a.copy() for a in (A.indptr, A.indices, A.data)]
    with pytest.raises(RuntimeError, match=r"rounding floor .* \(matrix size 40, nnz 1600\)$"):
        solve_spd(SparseSystem(A, np.ones(n)), tol=1e-30)
    for before, after in zip(given, (A.indptr, A.indices, A.data)):
        assert before.dtype == after.dtype and before.tobytes() == after.tobytes()


def _stored_arrays(A):
    """The index and value arrays a sparse matrix stores."""
    return (A.row, A.col, A.data) if A.format == "coo" else (A.indptr, A.indices, A.data)


@pytest.mark.parametrize("given", ["duplicated", "unsorted", "coo", "csc"])
def test_a_system_holds_canonical_csr_and_leaves_the_given_matrix(given):
    n = 12
    G = np.random.default_rng(1).standard_normal((n, n))
    dense = G @ G.T + n * np.eye(n)
    dense = (dense + dense.T) / 2
    canonical = sp.csr_matrix(dense)
    if given == "duplicated":  # every entry stored twice, as halves
        A = sp.csr_matrix((np.hstack([dense / 2, dense / 2]).ravel(), np.tile(np.arange(n), 2 * n),
                           np.arange(0, 2 * n * n + 1, 2 * n)), shape=(n, n))
    elif given == "unsorted":  # each row's entries in reverse order
        A = sp.csr_matrix((dense[:, ::-1].ravel(), np.tile(np.arange(n)[::-1], n),
                           canonical.indptr.copy()), shape=(n, n))
    else:
        A = sp.coo_matrix(dense) if given == "coo" else sp.csc_matrix(dense)
    given_arrays = [a.copy() for a in _stored_arrays(A)]
    b = np.arange(1.0, n + 1.0)
    system = SparseSystem(A, b)
    held = system.matrix
    assert held.format == "csr" and held.has_canonical_format
    for got, want in zip(_stored_arrays(held), _stored_arrays(canonical)):
        assert got.tobytes() == want.tobytes()
    assert solve_spd(system).tobytes() == solve_spd(SparseSystem(canonical, b)).tobytes()
    for before, after in zip(given_arrays, _stored_arrays(A)):
        assert before.dtype == after.dtype and before.tobytes() == after.tobytes()


@pytest.mark.parametrize("make_system, tol", [
    (lambda: SparseSystem(sp.identity(5, format="csr"), np.ones(5)), 1e-12),
    (lambda: _poisson_system(8), 1e-12),
    (lambda: _poisson_system(8), 1e-30),
], ids=["exact", "poisson", "poisson-to-the-floor"])
def test_a_refinement_step_takes_one_residual_norm(monkeypatch, make_system, tol):
    # dnrm2 once for b, once for the first residual and once per step: a
    # step's correction is scaled by the norm its stop test took, which
    # was taken a second time (2 k + 2 calls for k steps)
    norms, solves = [], []

    class CountingBlas:
        def __getattr__(self, name):
            return getattr(scipy.linalg.blas, name)

        def dnrm2(self, x):
            norms.append(len(x))
            return scipy.linalg.blas.dnrm2(x)

    solver = solve._solver

    def counting_solver(*args, **kwargs):
        inner, name = solver(*args, **kwargs)

        def counted(b):
            solves.append(len(b))
            return inner(b)

        return counted, name

    monkeypatch.setattr(solve, "blas", CountingBlas())
    monkeypatch.setattr(solve, "_solver", counting_solver)
    if tol < 1e-20:
        with pytest.raises(RuntimeError, match="exceeds tolerance") as err:
            solve_spd(make_system(), tol=tol)
        steps = int(re.search(r"after (\d+) refinement steps", str(err.value)).group(1))
        assert steps >= 1
    else:
        solve_spd(make_system(), tol=tol)
        steps = len(solves) - 1
    assert len(solves) == steps + 1 and len(norms) == steps + 2


@pytest.mark.parametrize("n, r, N", [(2, 2, 16), (3, 2, 4)])
def test_assembled_systems_take_the_multifrontal_factor(splu_dtypes, n, r, N):
    # a random right-hand side: the manufactured load is close to an
    # eigenvector of these operators and would converge unusually fast
    mesh = build_box_mesh(n, N)
    dofmap = global_numbering(mesh, element_by_name("S", n, r))
    K = assemble_bilinear(dofmap, dofmap, "GradGrad")
    K.rhs = np.random.default_rng(0).standard_normal(dofmap.total)
    red = apply_dirichlet(K, boundary_dofs(dofmap), "eliminate")
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


def test_a_system_without_unknowns_solves_to_zeros_without_a_factor(splu_dtypes,
                                                                   monkeypatch):
    # 2D Lagrange_1 on one cell: all four DOFs are on the boundary, so the
    # eliminated system is 0 x 0 (scipy's dnrm2 refuses its empty rhs)
    dofmap = global_numbering(build_box_mesh(2, 1), element_by_name("Lagrange", 2, 1))
    K = assemble_bilinear(dofmap, dofmap, "GradGrad")
    K.rhs = np.ones(dofmap.total)
    red = apply_dirichlet(K, boundary_dofs(dofmap), "eliminate")
    assert red.matrix.shape == (0, 0)

    def no_factor(*args, **kwargs):
        raise AssertionError("a system without unknowns was factored")

    monkeypatch.setattr(solve, "_solver", no_factor)
    x = solve_spd(red)
    assert x.tolist() == [0.0] * 4
    assert splu_dtypes == []


def test_solve_spd_reports_singular_systems():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(RuntimeError, match=r"sparse factorization.*size 2, nnz 1"):
        solve_spd(SparseSystem(A, np.ones(2)))
    with pytest.raises(RuntimeError, match=re.escape(
            "sparse factorization failed (matrix size 4, nnz 0): Factor is exactly singular")):
        solve_spd(SparseSystem(sp.csr_matrix((4, 4)), np.ones(4)))


def test_saddle_zero_source_gives_zero_solution():
    mesh = build_box_mesh(2, 1)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    sys = assemble_mixed_poisson(hdiv, l2, lambda x: np.zeros(x.shape[:-1]))
    x = solve_saddle(sys)
    assert np.abs(x).max() <= 1e-12


def test_solve_saddle_requires_rhs_before_factoring():
    # a singular matrix: factoring it first would raise a RuntimeError
    A = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="right-hand side"):
        solve_saddle(SparseSystem(A))


@pytest.mark.parametrize("solver, stage", [(solve_spd, "sparse factorization"),
                                           (solve_saddle, "saddle factorization")],
                         ids=["spd", "saddle"])
def test_right_hand_side_errors_name_the_stage(solver, stage):
    A = sp.identity(9, format="csr")
    with pytest.raises(ValueError, match=re.escape(
            f"{stage}: the system has no right-hand side for its matrix of size 9")):
        solver(SparseSystem(A))
    with pytest.raises(ValueError, match=re.escape(
            f"{stage}: right-hand side of shape (8,) does not fit a matrix of size 9")):
        solver(SparseSystem(A, np.ones(8)))


def test_solve_saddle_returns_zeros_for_a_zero_rhs_without_factoring():
    # a singular matrix: factoring it would raise a RuntimeError
    A = sp.csr_matrix(np.ones((2, 2)))
    x = solve_saddle(SparseSystem(A, np.zeros(2)))
    assert np.array_equal(x, np.zeros(2))


def test_solve_saddle_gate_reports_refinement_steps():
    mesh = build_box_mesh(2, 2)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    system = assemble_mixed_poisson(hdiv, l2, lambda x: np.sin(np.pi * x[..., 0]))
    x = solve_saddle(system)
    A, b = system.matrix, system.rhs
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12
    # the smallest positive tolerance: only an exact solution meets it
    with pytest.raises(RuntimeError, match=r"^solver residual \d\.\d{3}e-\d\d exceeds "
                       r"tolerance 4\.9e-324 after \d+ refinement steps on a multifrontal "
                       r"augmented-Lagrangian "
                       r"factor; rounding floor eps\*\|\|A\|\|x\|\|/\|\|b\|\| = "
                       r"\d\.\de-\d\d \(matrix size \d+, nnz \d+\)$"):
        solve_saddle(system, tol=5e-324)


def test_solve_saddle_expands_an_eliminated_system(splu_dtypes):
    mesh = build_box_mesh(2, 4)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    system = assemble_mixed_poisson(hdiv, l2, lambda x: np.sin(np.pi * x[..., 0]))
    fixed = np.flatnonzero(hdiv.lattice[:, 0] == 0)  # the flux DOFs on x = 0
    red = apply_dirichlet(system, fixed, "eliminate")
    x = solve_saddle(red)
    assert splu_dtypes == [np.float64]  # the reduced system has no augmented blocks
    assert len(x) == hdiv.total + l2.total == 160
    assert not x[fixed].any()
    r = red.rhs - red.matrix @ x[red.free]
    assert np.linalg.norm(r) / np.linalg.norm(red.rhs) <= 1e-12


def _mixed_system(family, N):
    """The 3D r=2 mixed Poisson system of a family on an N^3 mesh."""
    mesh = build_box_mesh(3, N)
    hname, lname = ("SminusDiv", "DPC") if family == "S" else ("NCF", "DQ")
    hdiv = global_numbering(mesh, element_by_name(hname, 3, 2))
    l2 = global_numbering(mesh, element_by_name(lname, 3, 1))
    return assemble_mixed_poisson(hdiv, l2, lambda x: np.sin(np.pi * x[..., 0]))


@pytest.mark.parametrize("family", ["S", "Q"])
def test_uzawa_meets_the_gate_on_a_random_right_hand_side(splu_dtypes, family):
    # a random vector over both blocks excites every mode of the pressure,
    # not only the smooth ones an assembled load reaches
    system = _mixed_system(family, 4)
    rhs = np.random.default_rng(7).standard_normal(system.matrix.shape[0])
    system.rhs = rhs
    x = solve_saddle(system)
    assert splu_dtypes == []
    assert np.linalg.norm(rhs - system.matrix @ x) / np.linalg.norm(rhs) <= 1e-12


def test_a_mixed_system_takes_uzawa_steps_whichever_solve_is_called(splu_dtypes):
    # the system's augmented blocks pick the route: solve_spd factored the
    # whole saddle system by SuperLU's LU
    system = _mixed_system("S", 4)
    x = solve_spd(system)
    assert splu_dtypes == []
    assert x.tobytes() == solve_saddle(system).tobytes()


def test_a_saddle_system_whose_k_does_not_verify_falls_back_to_superlu(splu_dtypes):
    system = _mixed_system("S", 2)
    K, B, Winv, gamma = system.augmented
    lattice = K.lattice.copy()
    lattice[[0, -1]] = lattice[[-1, 0]]  # two flux DOFs on opposite corners
    assert solve.multifrontal.factor(K.matrix, lattice) is None
    system.augmented = (SparseSystem(K.matrix, lattice=lattice), B, Winv, gamma)
    x = solve_saddle(system)
    assert splu_dtypes == [np.float64]
    r = system.rhs - system.matrix @ x
    assert np.linalg.norm(r) / np.linalg.norm(system.rhs) <= 1e-12


@pytest.mark.parametrize("family", ["S", "Q"])
def test_each_uzawa_step_is_one_refinement_step(monkeypatch, family):
    # a random right-hand side took 10 K solves when each refinement
    # correction ran Uzawa steps of its own from p = 0
    system = _mixed_system(family, 4)
    system.rhs = np.random.default_rng(7).standard_normal(system.matrix.shape[0])
    calls = []
    call = solve.multifrontal.MultifrontalFactor.__call__

    def counting_call(factor, b):
        calls.append(b.shape)
        return call(factor, b)

    monkeypatch.setattr(solve.multifrontal.MultifrontalFactor, "__call__", counting_call)
    solve_saddle(system)
    assert 0 < len(calls) <= 5


def test_k_solves_do_not_grow_with_n(monkeypatch):
    # a gamma scaled as h^2 took 5 K solves at N = 8 and 11 at N = 64
    calls = []
    call = solve.multifrontal.MultifrontalFactor.__call__

    def counting_call(factor, b):
        calls.append(b.shape)
        return call(factor, b)

    monkeypatch.setattr(solve.multifrontal.MultifrontalFactor, "__call__", counting_call)
    counts = []
    for N in (8, 64):
        calls.clear()
        run_mixed_poisson(2, "S", 2, [N])
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1]


def test_a_k_that_does_not_verify_takes_superlu_for_k_alone(monkeypatch):
    # the saddle matrix is not factored: Uzawa runs on a SuperLU factor of K
    system = _mixed_system("S", 2)
    K, B, Winv, gamma = system.augmented
    lattice = K.lattice.copy()
    lattice[[0, -1]] = lattice[[-1, 0]]
    system.augmented = (SparseSystem(K.matrix, lattice=lattice), B, Winv, gamma)
    shapes = []
    splu = solve.spla.splu

    def recording_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(solve.spla, "splu", recording_splu)
    with pytest.raises(RuntimeError, match="on a SuperLU augmented-Lagrangian factor"):
        solve_saddle(system, tol=1e-300)  # below any residual, so the gate reports
    assert shapes == [K.matrix.shape] and K.matrix.shape != system.matrix.shape


def test_a_k_lattice_of_the_wrong_length_is_named_by_the_saddle_stage(splu_dtypes):
    system = _mixed_system("S", 2)
    K, B, Winv, gamma = system.augmented
    n = K.matrix.shape[0]
    system.augmented = (SparseSystem(K.matrix, lattice=K.lattice[1:]), B, Winv, gamma)
    with pytest.raises(ValueError, match=re.escape(
            f"saddle factorization: a lattice of {n - 1} positions does not fit "
            f"a matrix of size {n}")):
        solve_saddle(system)
    assert splu_dtypes == []


def _poisson_system(N):
    """The 2D S_1 Poisson system on an N x N mesh, with its lattice."""
    dofmap = global_numbering(build_box_mesh(2, N), element_by_name("S", 2, 1))
    system = assemble_bilinear(dofmap, dofmap, "GradGrad")
    system.rhs = np.ones(dofmap.total)
    return apply_dirichlet(system, boundary_dofs(dofmap), "eliminate")


@pytest.mark.parametrize("make_system", [
    lambda: _poisson_system(4),
    lambda: SparseSystem(sp.identity(9, format="csr"), np.ones(9)),
], ids=["with-lattice", "without-lattice"])
@pytest.mark.parametrize("solver", [solve_spd, solve_saddle], ids=["spd", "saddle"])
def test_direct_solves_name_a_right_hand_side_of_the_wrong_length(make_system, solver):
    system = make_system()
    assert system.matrix.shape[0] == 9
    system.rhs = np.ones(8)
    with pytest.raises(ValueError, match=re.escape(
            "right-hand side of shape (8,) does not fit a matrix of size 9")):
        solver(system)


def _diagonal_pencil(n):
    """The systems of diag(1..n) x = lambda x, without a lattice."""
    A = SparseSystem(sp.diags(np.arange(1.0, n + 1.0)).tocsr())
    return A, SparseSystem(sp.identity(n, format="csr"))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True, np.True_])
def test_solvers_reject_a_tolerance_that_is_not_finite_and_positive(monkeypatch, tol):
    # NaN and inf would pass any residual and 0 and -1 none, and a bool
    # solved to 1.0: each is named before anything is factored
    def no_factor(*args):
        raise AssertionError("a factorization was attempted")

    monkeypatch.setattr(solve, "_factor", no_factor)
    monkeypatch.setattr(solve.multifrontal, "factor", no_factor)
    system = _poisson_system(4)
    for call in (lambda: solve_spd(system, tol=tol),
                 lambda: solve_saddle(system, tol=tol),
                 lambda: eig_shift_invert(*_diagonal_pencil(20), target=3.5, nev=2,
                                          tol=tol)):
        with pytest.raises(ValueError, match=re.escape(
                f"tol={tol}: the tolerance must be finite and positive")):
            call()


@pytest.mark.parametrize("rows", [8, 10], ids=["short", "long"])
def test_a_lattice_of_the_wrong_length_is_named_before_superlu(splu_dtypes, rows):
    # a short lattice left unset entries in the order, a long one raised a
    # bare IndexError
    system = _poisson_system(4)
    assert system.matrix.shape[0] == 9
    lattice = np.resize(system.lattice, (rows, 2))
    with pytest.raises(ValueError, match=re.escape(
            f"sparse factorization: a lattice of {rows} positions does not fit "
            f"a matrix of size 9")):
        solve_spd(SparseSystem(system.matrix, system.rhs, lattice=lattice))
    A, M = _diagonal_pencil(9)
    with pytest.raises(ValueError, match=re.escape(
            f"M): a lattice of {rows} positions does not fit a matrix of size 9")):
        eig_shift_invert(SparseSystem(A.matrix, lattice=lattice), M, target=3.5, nev=2)
    assert splu_dtypes == []


@pytest.mark.parametrize("lattice, shape, dtype", [
    (np.arange(9, dtype=np.int64), "(9,)", "int64"),
    (np.full((9, 2), 0.5), "(9, 2)", "float64"),
], ids=["one-dimensional", "float"])
def test_a_lattice_that_is_not_a_2d_integer_array_is_named(splu_dtypes, lattice, shape,
                                                          dtype):
    # a 1-D lattice raised overflow warnings and a bare IndexError inside the
    # tree, and a float one was truncated to integers without a word
    system = _poisson_system(4)
    message = f"a lattice of shape {shape} and dtype {dtype} is not a 2-D integer array"
    with pytest.raises(ValueError, match=re.escape(f"sparse factorization: {message}")):
        solve_spd(SparseSystem(system.matrix, system.rhs, lattice=lattice))
    A, M = _diagonal_pencil(9)
    with pytest.raises(ValueError, match=re.escape(f"M): {message}")):
        eig_shift_invert(SparseSystem(A.matrix, lattice=lattice), M, target=3.5, nev=2)
    assert splu_dtypes == []


def test_a_lattice_without_columns_is_named(splu_dtypes):
    # it reached the tree, where a bare AttributeError named no stage
    system = _poisson_system(4)
    lattice = np.empty((9, 0), dtype=np.int64)
    message = "a lattice of shape (9, 0) and dtype int64 is not a 2-D integer array"
    with pytest.raises(ValueError, match=re.escape(f"sparse factorization: {message}")):
        solve_spd(SparseSystem(system.matrix, system.rhs, lattice=lattice))
    A, M = _diagonal_pencil(9)
    with pytest.raises(ValueError, match=re.escape(f"M): {message}")):
        eig_shift_invert(SparseSystem(A.matrix, lattice=lattice), M, target=3.5, nev=2)
    assert splu_dtypes == []


def test_mismatched_shapes_are_named_before_anything_is_factored(monkeypatch):
    # both raised scipy's bare "inconsistent shapes", without stage or sizes
    def no_factor(*args, **kwargs):
        raise AssertionError("a factorization was attempted")

    monkeypatch.setattr(solve, "_factor", no_factor)
    monkeypatch.setattr(solve.multifrontal, "factor", no_factor)
    with pytest.raises(ValueError, match=re.escape(
            "sparse factorization: a matrix of shape (3, 4) is not square")):
        solve_spd(SparseSystem(sp.csr_matrix(np.ones((3, 4))), np.ones(3)))
    A, _ = _diagonal_pencil(20)
    _, M = _diagonal_pencil(19)
    with pytest.raises(ValueError, match=re.escape(
            "shift-invert factorization of (A - 3.5 M): A of shape (20, 20) and M "
            "of shape (19, 19) are not square matrices of one size")):
        eig_shift_invert(A, M, target=3.5, nev=2)


@pytest.fixture
def no_solver(monkeypatch):
    """Make any factorization fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a factorization was attempted")

    monkeypatch.setattr(solve, "_solver", refuse)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", ["rhs", "matrix"])
@pytest.mark.parametrize("kind", ["spd", "saddle"])
def test_direct_solves_reject_entries_that_are_not_finite(no_solver, kind, where, value):
    # each was factored: a NaN or inf right-hand side and a NaN entry then
    # failed the residual gate with a NaN floor, and an inf entry warned on
    # inf - inf in the symmetry gate
    system = _poisson_system(4) if kind == "spd" else _mixed_system("S", 2)
    if where == "rhs":
        system.rhs = system.rhs.copy()
        system.rhs[0] = value
    else:
        system.matrix = system.matrix.tocsr(copy=True)
        system.matrix.data[0] = value
    entry = "the right-hand side" if where == "rhs" else "the matrix"
    stage = "sparse" if kind == "spd" else "saddle"
    with pytest.raises(ValueError, match=re.escape(
            f"{stage} factorization: {entry} has an entry that is not finite")):
        (solve_spd if kind == "spd" else solve_saddle)(system)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("which", ["A", "M"])
def test_eig_shift_invert_rejects_entries_that_are_not_finite(no_solver, which, value):
    # a NaN in the cavity's A reached SuperLU, which called the shift
    # exactly singular
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2)
    system = A if which == "A" else M
    system.matrix = system.matrix.tocsr(copy=True)
    system.matrix.data[0] = value
    target = 3.0 * PI2
    with pytest.raises(ValueError, match=re.escape(
            f"shift-invert factorization of (A - {target} M): {which}: "
            f"the matrix has an entry that is not finite")):
        eig_shift_invert(A, M, target=target, nev=4)


def test_diagonal_eigenproblem():
    A, M = _diagonal_pencil(3)
    for nev in (2, np.int64(2)):
        res = eig_shift_invert(A, M, target=2.5, nev=nev)
        assert np.allclose(sorted(res.eigenvalues), [2.0, 3.0], atol=1e-12)


def _reference(A, M, target, nev):
    """The ascending eigenvalues of the `nev` pairs of smallest Cayley
    magnitude, from a dense generalized solve."""
    vals = scipy.linalg.eigh(A.matrix.toarray(), M.matrix.toarray(), eigvals_only=True)
    cayley = np.abs(vals - target) / np.abs(vals + target)
    return np.sort(vals[np.argsort(cayley, kind="stable")[:nev]])


@pytest.mark.parametrize("lattice", [None, 2 * np.arange(20)[::-1, None]])
def test_shift_invert_reports_a_singular_shift(lattice):
    # the shift hits the eigenvalue 3 exactly, so A - 3 M is singular
    A, M = _diagonal_pencil(20)
    A = SparseSystem(A.matrix, lattice=lattice)
    with pytest.raises(RuntimeError,
                       match=r"shift-invert factorization.*size 20, nnz \d+"):
        eig_shift_invert(A, M, target=3.0, nev=2)


@pytest.mark.parametrize("nev", [1, 3])
def test_a_small_pencil_reports_a_singular_shift(nev):
    # 3 unknowns take the same path as 20: A - 2 M is factored, and fails
    A, M = _diagonal_pencil(3)
    with pytest.raises(RuntimeError,
                       match=r"shift-invert factorization.*size 3, nnz \d+"):
        eig_shift_invert(A, M, target=2.0, nev=nev)


def test_eig_shift_invert_has_no_default_target():
    # a default would be in the pencil's raw units, the studies' targets in pi^2
    with pytest.raises(TypeError, match="target"):
        eig_shift_invert(*_diagonal_pencil(20), nev=2)


@pytest.mark.parametrize("n", [0, 1])
def test_eig_shift_invert_rejects_a_pencil_below_two_unknowns(n):
    A, M = _diagonal_pencil(n)
    with pytest.raises(ValueError, match=f"eigenproblem of size {n}: .*at least 2"):
        eig_shift_invert(A, M, target=1.5, nev=1)


@pytest.mark.parametrize("n, target, nev", [(1, 1.0, 0), (20, 3.0, 0), (20, 3.0, 2.5),
                                            (20, 3.0, 3.0), (20, 3.0, True)],
                         ids=["size-1", "size-20", "fraction", "integral-float", "bool"])
def test_eig_shift_invert_rejects_nev_below_one(n, target, nev):
    # the shift is singular, so factoring before the check would raise
    # RuntimeError; nev is checked before the pencil's size, too.  A float
    # nev, even an integral one, is named rather than failing as a slice
    # index deep inside the Lanczos iteration
    A, M = _diagonal_pencil(n)
    with pytest.raises(ValueError, match=re.escape(f"nev={nev}")):
        eig_shift_invert(A, M, target=target, nev=nev)


def test_shift_invert_returns_all_but_one_pair():
    # at k = n - 1 pairs the basis grows to the whole space
    A, M = _diagonal_pencil(16)
    nev = 15
    res = eig_shift_invert(A, M, target=3.5, nev=nev)
    assert res.op_count > 0
    assert np.abs(res.eigenvalues - _reference(A, M, 3.5, nev)).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nev_at_or_above_n_returns_all_but_one_pair(n):
    # the eigensolve computes at most n - 1 pairs; the one ranked last is dropped
    rng = np.random.default_rng(n)
    B, C = rng.standard_normal((2, n, n))
    A = SparseSystem(sp.csr_matrix(B @ B.T + 0.1 * np.eye(n)))
    M = SparseSystem(sp.csr_matrix(C @ C.T + n * np.eye(n)))
    target = float(np.mean(_reference(A, M, 1.0, n)[:2]))  # no eigenvalue
    reference = _reference(A, M, target, n - 1)
    for nev in (n, n + 5):
        res = eig_shift_invert(A, M, target=target, nev=nev)
        assert len(res) == n - 1 and res.op_count > 0
        assert np.abs(res.eigenvalues / reference - 1).max() <= 1e-10


def test_op_count_is_the_columns_solved(monkeypatch):
    # every column of every block solve, and nothing else, is counted
    columns, solver = [], solve._solver

    def counting_solver(*args, **kwargs):
        block_solve, factor = solver(*args, **kwargs)

        def counted(B):
            columns.append(B.shape[1])
            return block_solve(B)

        return counted, factor

    monkeypatch.setattr(solve, "_solver", counting_solver)
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 4)
    res = eig_shift_invert(A, M, target=3.0 * PI2, nev=8)
    assert len(columns) > 1 and max(columns) == solve._BLOCK
    assert res.op_count == sum(columns)
    assert 0 < res.op_time


def test_systems_without_a_lattice_reach_superlu_in_colamd_order(splu_options):
    # an SPD system whose lattice is unknown, and a shifted pencil built by hand
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    solve_spd(SparseSystem(A, np.ones(2)))
    eig_shift_invert(*_diagonal_pencil(20), target=3.5, nev=2)
    assert splu_options == [{"permc_spec": "COLAMD"}] * 2


@pytest.mark.parametrize("target", [0.0, -1.0, float("nan"), float("inf"), True, np.True_])
def test_eig_shift_invert_rejects_a_shift_that_is_not_positive(target):
    # |lambda - target| / |lambda + target| ranks nothing sensibly there,
    # A - inf M is no pencil, and a bool ran at 1
    A, M = _diagonal_pencil(20)
    with pytest.raises(ValueError, match=re.escape(
            f"target={target}: the ranking needs a finite positive shift")):
        eig_shift_invert(A, M, target=target, nev=2)


def test_eig_shift_invert_returns_ascending_eigenvalues():
    # Cayley magnitude ranks these 7, 8, 9, 6, 10
    A, M = _diagonal_pencil(40)
    res = eig_shift_invert(A, M, target=7.4, nev=5)
    assert np.allclose(res.eigenvalues, [6.0, 7.0, 8.0, 9.0, 10.0], rtol=0, atol=1e-10)


@pytest.mark.parametrize("block", [8, 16])
def test_the_column_cap_raises_with_the_pairs_that_converged(monkeypatch, block):
    # caps of 3 + 2 * 8 = 19 and 3 + 2 * 16 = 35 columns are too few for
    # 3 pairs of diag(1..200); the pairs at the tolerance by then are named
    monkeypatch.setattr(solve, "_BLOCK", block)
    monkeypatch.setattr(solve, "_PER_PAIR", 1)
    A, M = _diagonal_pencil(200)
    with pytest.raises(RuntimeError, match=r"^eigensolver did not converge for 3 pairs "
                                           r"near 10\.4 \(size 200\); partial results: "
                                           r"[0-3] pairs$"):
        eig_shift_invert(A, M, target=10.4, nev=3)


def test_a_cluster_wider_than_the_block_comes_back_whole():
    # ten copies of 10: a block of 8 columns holds only 8 of them, and
    # would rank 9 and 13 in place of the other two
    diagonal = np.r_[np.arange(1.0, 41.0), np.full(9, 10.0)]
    A = SparseSystem(sp.diags(diagonal).tocsr())
    M = SparseSystem(sp.identity(len(diagonal), format="csr"))
    res = eig_shift_invert(A, M, target=10.4, nev=12)
    assert np.allclose(res.eigenvalues, [10.0] * 10 + [11.0, 12.0], rtol=0, atol=1e-10)


def _maxwell_system(family, N, r=2, mode="eliminate"):
    mesh = build_box_mesh(3, N)
    elem = build_element(family, 3, 1, r)
    dofmap = global_numbering(mesh, elem)
    bdofs = boundary_dofs(dofmap)
    A = apply_dirichlet(assemble_bilinear(dofmap, dofmap, "CurlCurl"), bdofs, mode)
    M = apply_dirichlet(assemble_bilinear(dofmap, dofmap, "Mass"), bdofs, mode)
    return A, M


def test_many_pairs_grow_the_column_cap():
    # 60 pairs near 12 pi^2 took 200 columns, past the 170 a single pair may take
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 4)
    res = eig_shift_invert(A, M, target=12.0 * PI2, nev=60)
    assert res.op_count > solve._PER_PAIR * (1 + 2 * solve._BLOCK)
    assert np.abs(res.eigenvalues / _reference(A, M, 12.0 * PI2, 60) - 1).max() <= 1e-10


@pytest.mark.parametrize("nev", [1, 101])
@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
def test_one_column_cap_rule_holds_from_one_to_many_pairs(family, nev):
    # one pair took 24-32 columns and 101 pairs 400-432 on these cavities
    A, M = _maxwell_system(family, 4)
    res = eig_shift_invert(A, M, target=3.0 * PI2, nev=nev)
    assert len(res) == nev and res.residuals.max() <= 1e-7
    assert np.abs(res.eigenvalues / _reference(A, M, 3.0 * PI2, nev) - 1).max() <= 1e-10


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_clusters_split_at_the_copies_tolerance(scale):
    # neighbours half the relative tolerance apart are copies, twice it
    # apart are not, at any scale; the pairs come back ascending
    c = solve._COPIES
    values = scale * np.array([5.0, 1.0 + 0.5 * c, 1.0, 1.0 + 2.5 * c, 5.0])
    pairs = solve.clusters(values)
    assert [count for _, count in pairs] == [2, 1, 2]
    means = np.array([mean for mean, _ in pairs])
    assert np.allclose(means / scale, [1.0 + 0.25 * c, 1.0 + 2.5 * c, 5.0], rtol=1e-15, atol=0)


def test_clusters_of_no_values_are_none():
    # once numpy's "Mean of empty slice" warning and [(nan, 0)]
    assert solve.clusters([]) == []
    assert solve.clusters(np.array([])) == []


def test_a_target_at_an_eigenvalue_to_rounding_converges():
    # the smallest eigenvalue of a leaf front's own pencil is one of the
    # whole pencil's to 1e-14 here; its shift-invert value then exceeds
    # the others' 1e12 times, and only locking it keeps them resolved
    dofmap = global_numbering(build_box_mesh(2, 16), element_by_name("S", 2, 2))
    bdofs = boundary_dofs(dofmap)
    A = apply_dirichlet(assemble_bilinear(dofmap, dofmap, "GradGrad"), bdofs, "eliminate")
    M = apply_dirichlet(assemble_bilinear(dofmap, dofmap, "Mass"), bdofs, "eliminate")
    (leaf, *_) = solve.multifrontal.factor(M.matrix, M.lattice).fronts[0].pivots
    target = scipy.linalg.eigh(A.matrix[leaf][:, leaf].toarray(),
                               M.matrix[leaf][:, leaf].toarray(), eigvals_only=True)[0]
    reference = _reference(A, M, target, 3)
    assert np.abs(reference - target).min() <= 1e-12 * target
    res = eig_shift_invert(A, M, target=target, nev=3)
    assert res.residuals.max() <= 1e-7
    assert np.abs(res.eigenvalues / reference - 1).max() <= 1e-10


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
def test_a_target_close_to_an_eigenvalue_converges(family):
    # 1e-6 above the lowest cavity eigenvalue, whose shift-invert value is
    # then 1e5 times the others'
    A, M = _maxwell_system(family, 4)
    (lowest, *_) = _reference(A, M, 2.0 * PI2, 1)
    target = lowest * (1 + 1e-6)
    res = eig_shift_invert(A, M, target=target, nev=5)
    assert res.residuals.max() <= 1e-7
    assert np.abs(res.eigenvalues / _reference(A, M, target, 5) - 1).max() <= 1e-8


def test_maxwell_operator_is_positive_semidefinite():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2)
    vals = np.linalg.eigvalsh(A.matrix.toarray())
    assert vals.min() >= -1e-9 * max(vals.max(), 1.0)


def test_shift_invert_agrees_with_a_dense_reference():
    # the shift-invert result against a dense reference ranked the same
    # way, so neither holds a gradient-kernel zero
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 4)
    res = eig_shift_invert(A, M, target=3.0 * PI2, nev=12)
    reference = _reference(A, M, 3.0 * PI2, 12)
    assert res.op_count > 0
    assert np.abs(res.eigenvalues / reference - 1).max() <= 1e-12
    assert reference.min() > PI2


def test_every_size_prefers_eigenvalues_above_the_target():
    # 12 beats 9 on the Cayley magnitude, on 40 unknowns and on the 4 of
    # diag(9..12), where the eigensolve computes k = n - 1 pairs
    large = eig_shift_invert(*_diagonal_pencil(40), target=10.4, nev=3)
    small = eig_shift_invert(SparseSystem(sp.diags([9.0, 10.0, 11.0, 12.0]).tocsr()),
                             SparseSystem(sp.identity(4, format="csr")),
                             target=10.4, nev=3)
    for res in (large, small):
        assert res.op_count > 0
        assert np.allclose(res.eigenvalues, [10.0, 11.0, 12.0], rtol=0, atol=1e-12)


def test_shift_invert_path_is_deterministic():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2)
    first = eig_shift_invert(A, M, target=3.0 * PI2, nev=8)
    second = eig_shift_invert(A, M, target=3.0 * PI2, nev=8)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert first.op_count == second.op_count


def test_eigen_residuals_below_tolerance():
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 4)
    tol = 1e-7
    res = eig_shift_invert(A, M, target=3.0 * PI2, nev=10, tol=tol)
    assert res.residuals.max() <= 10 * tol
    # the residuals reported are those of the returned pairs
    A, M = A.matrix, M.matrix
    norms = (spla.norm(A, np.inf), spla.norm(M, np.inf))
    assert np.array_equal(res.residuals, solve._residual_norms(
        A, M, norms, res.eigenvalues, res.eigenvectors))
    assert res.op_count > 0


def test_spurious_unit_eigenvalues_in_diag1_mode():
    # diag-one boundary handling plants eigenvalues exactly at 1
    A, M = _maxwell_system(TRIMMED_SERENDIPITY, 2, mode="diag1")
    vals = scipy.linalg.eigh(A.matrix.toarray(), M.matrix.toarray(), eigvals_only=True)
    ones = np.sum(np.abs(vals - 1.0) < 1e-9)
    assert ones > 0
    # while elimination mode has none
    Ae, Me = _maxwell_system(TRIMMED_SERENDIPITY, 2, mode="eliminate")
    vals_e = scipy.linalg.eigh(Ae.matrix.toarray(), Me.matrix.toarray(),
                               eigvals_only=True)
    assert np.sum(np.abs(vals_e - 1.0) < 1e-9) == 0
