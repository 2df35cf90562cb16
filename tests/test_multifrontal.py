"""The memoized multifrontal Cholesky factor of box-lattice SPD systems."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from trimfem import multifrontal
from trimfem.assemble import SparseSystem, apply_dirichlet, assemble_bilinear
from trimfem.mesh import boundary_dofs, build_box_mesh, global_numbering
from trimfem.refelem import element_by_name
from trimfem.solve import solve_spd


def _system(n, name, r, divisions, form="GradGrad", mode=None):
    """An assembled system with a random right-hand side: the manufactured
    loads are close to eigenvectors and would converge unusually fast."""
    mesh = build_box_mesh(n, divisions)
    dofmap = global_numbering(mesh, element_by_name(name, n, r))
    system = assemble_bilinear(mesh, dofmap, dofmap, form)
    system.rhs = np.random.default_rng(0).standard_normal(dofmap.total)
    if mode is not None:
        system = apply_dirichlet(system, boundary_dofs(dofmap, "full-trace"), mode)
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


def test_the_top_box_must_be_closed_on_even_planes(monkeypatch, splu_dtypes):
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
    x = solve_spd(system)  # falls back to SuperLU
    assert splu_dtypes == [np.float64]
    assert _residual(system, x) <= 1e-12


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


def test_a_lattice_of_the_wrong_length_is_not_factored():
    A = sp.csr_matrix(5 * np.eye(4) - np.ones((4, 4)))
    assert multifrontal.factor(A, np.zeros((3, 2), dtype=np.int64)) is None
