"""Nested-dissection ordering from the mesh lattice, and solves that use it."""

import numpy as np
import pytest

from trimfem.assemble import (
    SparseSystem,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    assemble_mixed_poisson,
)
from trimfem.mesh import (
    boundary_dofs,
    build_box_mesh,
    global_numbering,
    nested_dissection,
)
from trimfem.refelem import (
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    build_element,
    element_by_name,
)
from trimfem.solve import eig_shift_invert, solve_saddle, solve_spd

PI2 = np.pi**2


def _dofmap(n, name, r, N):
    return global_numbering(build_box_mesh(n, N), element_by_name(name, n, r))


def _top_split(lattice):
    """Axis and plane of the first split: the even value nearest the middle,
    on the longest axis that has one strictly inside the bounding box."""
    lo, hi = lattice.min(axis=0), lattice.max(axis=0)
    plane = 2 * ((lo + hi + 2) // 4)
    inside = (lo < plane) & (plane < hi)
    a = int(np.where(inside, hi - lo, -1).argmax())
    return a, plane[a]


def _assert_top_separator(A, lattice, ordering):
    a, p = _top_split(lattice)
    assert p % 2 == 0
    x = lattice[:, a]
    low, high, sep = (np.flatnonzero(m) for m in (x < p, x > p, x == p))
    assert len(low) and len(high) and len(sep)
    # both halves first, the plane last
    assert set(ordering[:len(low)]) == set(low)
    assert set(ordering[len(low):len(low) + len(high)]) == set(high)
    assert set(ordering[len(low) + len(high):]) == set(sep)
    A = A.tocsr()
    assert A[low][:, high].nnz == 0
    assert A[high][:, low].nnz == 0
    assert A[low][:, sep].nnz > 0


def test_lattice_doubles_entity_coordinates():
    dofmap = _dofmap(2, "Lagrange", 2, 2)
    lat = dofmap.lattice
    assert lat.shape == (dofmap.total, 2)
    assert lat.min() == 0 and lat.max() == 4
    # vertices at even/even, cell interiors at odd/odd, edges mixed
    assert sorted(map(tuple, lat)) == [(i, j) for i in range(5) for j in range(5)]


@pytest.mark.parametrize("n,name,r,N", [(2, "S", 1, 6), (3, "S", 3, 3),
                                        (3, "SminusCurl", 2, 3), (2, "RTCF", 2, 5)])
def test_nested_dissection_is_a_deterministic_permutation(n, name, r, N):
    dofmap = _dofmap(n, name, r, N)
    order = nested_dissection(dofmap.lattice)
    assert np.array_equal(np.sort(order), np.arange(dofmap.total))
    assert np.array_equal(order, nested_dissection(dofmap.lattice.copy()))


def test_nested_dissection_of_arbitrary_points():
    rng = np.random.default_rng(3)
    lattice = rng.integers(-5, 9, size=(200, 3))  # odd bounds, repeated points
    order = nested_dissection(lattice)
    assert np.array_equal(np.sort(order), np.arange(200))
    assert np.array_equal(order, nested_dissection(lattice))
    assert len(nested_dissection(np.empty((0, 2), dtype=np.int64))) == 0


@pytest.mark.parametrize("n,name,r,N,form", [
    (2, "S", 3, 4, "GradGrad"),
    (3, "Lagrange", 2, 4, "GradGrad"),
    (3, "SminusCurl", 2, 4, "CurlCurl"),
    (3, "NCE", 2, 3, "CurlCurl"),
])
def test_top_separator_leaves_no_coupling_between_the_halves(n, name, r, N, form):
    dofmap = _dofmap(n, name, r, N)
    A = assemble_bilinear(dofmap.mesh, dofmap, dofmap, form)
    assert np.array_equal(A.ordering, nested_dissection(dofmap.lattice))
    assert A.ordering is A.ordering  # cached on the system
    _assert_top_separator(A.matrix, dofmap.lattice, A.ordering)


@pytest.mark.parametrize("n,name,r,N,kind", [
    (2, "Lagrange", 2, 3, "full-trace"),
    (3, "S", 2, 3, "full-trace"),
    (3, "SminusCurl", 2, 3, "tangential-trace"),
])
def test_eliminated_ordering_is_a_permutation_of_the_free_dofs(n, name, r, N, kind):
    dofmap = _dofmap(n, name, r, N)
    form = "GradGrad" if kind == "full-trace" else "CurlCurl"
    system = assemble_bilinear(dofmap.mesh, dofmap, dofmap, form)
    bdofs = boundary_dofs(dofmap, kind)
    red = apply_dirichlet(system, bdofs, "eliminate")
    order = red.ordering
    assert np.array_equal(np.sort(order), np.arange(len(red.free)))
    # the full order with the boundary DOFs taken out
    full = nested_dissection(dofmap.lattice)
    kept = full[np.isin(full, red.free)]
    assert np.array_equal(red.free[order], kept)
    assert np.array_equal(apply_dirichlet(system, bdofs, "diag1").ordering, full)


@pytest.mark.parametrize("mode", ["eliminate", "diag1"])
def test_a_reduced_system_carries_the_lattice_of_its_unknowns(mode):
    # the reduced system's unknowns are the full DOFs of a second reduction
    dofmap = _dofmap(2, "Lagrange", 2, 4)
    system = assemble_bilinear(dofmap.mesh, dofmap, dofmap, "GradGrad")
    red = apply_dirichlet(system, boundary_dofs(dofmap, "full-trace"), "eliminate")
    again = apply_dirichlet(red, [0, 5], mode)
    assert again.full_size == len(red.free)
    kept = np.arange(len(red.free)) if mode == "diag1" else again.free
    assert np.array_equal(again.lattice, dofmap.lattice[red.free][kept])
    assert np.array_equal(np.sort(again.ordering), np.arange(len(kept)))
    _assert_top_separator(again.matrix, again.lattice, again.ordering)


@pytest.mark.parametrize("n,name,r", [(2, "Lagrange", 2), (3, "S", 2)])
def test_odd_bounds_split_at_an_even_plane(n, name, r):
    # without the boundary the lattice spans [1, 5]: its middle, 3, is an
    # odd plane, which would leave the two halves coupled
    dofmap = _dofmap(n, name, r, 3)
    system = assemble_bilinear(dofmap.mesh, dofmap, dofmap, "GradGrad")
    red = apply_dirichlet(system, boundary_dofs(dofmap, "full-trace"), "eliminate")
    lattice = dofmap.lattice[red.free]
    assert lattice.min() == 1 and lattice.max() == 5
    assert _top_split(lattice)[1] == 4
    _assert_top_separator(red.matrix, lattice, nested_dissection(lattice))


def _unordered(system):
    return SparseSystem(system.matrix, system.rhs, system.full_size, system.free)


@pytest.mark.parametrize("n,name,r,N,mode", [(2, "S", 2, 16, "eliminate"),
                                             (3, "S", 3, 4, "diag1"),
                                             (3, "Lagrange", 2, 4, "eliminate")])
def test_ordered_and_unordered_spd_solves_agree(n, name, r, N, mode):
    dofmap = _dofmap(n, name, r, N)
    system = assemble_bilinear(dofmap.mesh, dofmap, dofmap, "GradGrad")
    system.rhs = assemble_load(dofmap.mesh, dofmap,
                               lambda x: np.sin(np.pi * x[..., 0]) * np.cos(x[..., 1]))
    system = apply_dirichlet(system, boundary_dofs(dofmap, "full-trace"), mode)
    assert system.ordering is not None
    x = solve_spd(system)
    y = solve_spd(_unordered(system))
    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("n,family,N", [(2, "S", 6), (3, "S", 3), (3, "Q", 3)])
def test_ordered_and_unordered_saddle_solves_agree(n, family, N):
    mesh = build_box_mesh(n, N)
    if family == "S":
        hname, lname = "SminusDiv", "DPC"
    else:
        hname, lname = ("RTCF" if n == 2 else "NCF"), "DQ"
    hdiv = global_numbering(mesh, element_by_name(hname, n, 2))
    l2 = global_numbering(mesh, element_by_name(lname, n, 1))
    system = assemble_mixed_poisson(mesh, hdiv, l2,
                                    lambda x: n * PI2 * np.sin(np.pi * x[..., 0]))
    order = system.ordering
    assert np.array_equal(np.sort(order), np.arange(hdiv.total + l2.total))
    x = solve_saddle(system)
    y = solve_saddle(_unordered(system))
    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
def test_ordered_and_unordered_cavity_eigenvalues_agree(family):
    mesh = build_box_mesh(3, 8)
    dofmap = global_numbering(mesh, build_element(family, 3, 1, 2))
    bdofs = boundary_dofs(dofmap, "tangential-trace")
    A = apply_dirichlet(assemble_bilinear(mesh, dofmap, dofmap, "CurlCurl"), bdofs)
    M = apply_dirichlet(assemble_bilinear(mesh, dofmap, dofmap, "Mass"), bdofs)
    kwargs = dict(target=3.0 * PI2, nev=5, dense_cutoff=1)
    ordered = eig_shift_invert(A.matrix, M.matrix, ordering=A.ordering, **kwargs)
    plain = eig_shift_invert(A.matrix, M.matrix, **kwargs)
    assert ordered.op_count > 0 and plain.op_count > 0
    assert np.abs(ordered.eigenvalues / plain.eigenvalues - 1).max() <= 1e-9
    assert ordered.residuals.max() <= 1e-6
