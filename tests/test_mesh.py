"""Box meshes, global numbering, boundary DOFs and conformity."""

import hashlib
import re

import numpy as np
import pytest

from trimfem.assemble import PushForward
from trimfem.mesh import boundary_dofs, build_box_mesh, global_numbering
from trimfem.refelem import (
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    build_element,
    cell_topology,
    element_by_name,
    entity_dof_counts,
    tabulate,
)


def test_entity_counts_3d():
    mesh = build_box_mesh(3, 4)
    assert mesh.num_cells == 64
    assert mesh.num_vertices == 125
    assert mesh.num_edges == 300   # 3 * 4 * 25
    assert mesh.num_faces == 240   # 3 * 16 * 5


def test_entity_counts_small_and_large_2d():
    mesh = build_box_mesh(2, 1)
    assert (mesh.num_cells, mesh.num_vertices, mesh.num_edges) == (1, 4, 4)
    assert build_box_mesh(2, 128).num_cells == 16384


def test_numbering_names_both_dimensions():
    element = build_element(TRIMMED_SERENDIPITY, 3, 0, 1)
    with pytest.raises(ValueError, match="a 2D mesh and a 3D element differ in dimension"):
        global_numbering(build_box_mesh(2, 2), element)


def test_anisotropic_divisions():
    mesh = build_box_mesh(3, (2, 3, 4))
    assert mesh.num_cells == 24
    assert mesh.num_vertices == 3 * 4 * 5
    assert mesh.h == (0.5, 1 / 3, 0.25)


def test_mesh_rejects_bad_divisions():
    with pytest.raises(ValueError):
        build_box_mesh(3, 0)
    with pytest.raises(ValueError):
        build_box_mesh(4, 2)


def test_mesh_accepts_numpy_integer_divisions():
    for divisions in (np.int64(4), np.array([4, 4])):
        mesh = build_box_mesh(2, divisions)
        assert mesh.divisions == (4, 4)
        assert all(type(N) is int for N in mesh.divisions)
    with pytest.raises(ValueError, match="integers >= 1"):
        build_box_mesh(2, (4.5, 4))


@pytest.mark.parametrize("divisions", [4.0, np.float64(4), None, True],
                         ids=["float", "numpy-float", "none", "bool"])
def test_mesh_names_a_scalar_that_is_not_an_integer(divisions):
    # each raised a bare TypeError: '...' object is not iterable, except
    # True, which built a 1 x 1 mesh (a bool is an Integral)
    with pytest.raises(ValueError, match=re.escape(f"divisions {(divisions,) * 2} must be "
                                                   f"2 integers >= 1")):
        build_box_mesh(2, divisions)


@pytest.mark.parametrize("N,total", [(4, 1080), (8, 7344), (16, 53856), (32, 411840)])
def test_global_counts_trimmed_curl(N, total):
    mesh = build_box_mesh(3, N)
    elem = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    assert global_numbering(mesh, elem).total == total


@pytest.mark.parametrize("N,total", [(4, 1944), (8, 13872), (16, 104544), (32, 811200)])
def test_global_counts_tensor_curl(N, total):
    mesh = build_box_mesh(3, N)
    elem = build_element(TENSOR_PRODUCT, 3, 1, 2)
    assert global_numbering(mesh, elem).total == total


@pytest.mark.parametrize("n", [2, 3])
def test_one_cell_lowest_order_scalar(n):
    mesh = build_box_mesh(n, 1)
    elem = build_element(TRIMMED_SERENDIPITY, n, 0, 1)
    assert global_numbering(mesh, elem).total == 2**n


def test_numbering_is_deterministic():
    mesh = build_box_mesh(3, 3)
    elem = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    a = global_numbering(mesh, elem)
    b = global_numbering(mesh, elem)
    assert np.array_equal(a.cell_dofs, b.cell_dofs)


def test_total_matches_entity_table_sum():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        N = tuple(int(x) for x in rng.integers(1, 5, size=n))
        k = int(rng.integers(0, n + 1))
        r = int(rng.integers(1, 4))
        family = [TRIMMED_SERENDIPITY, TENSOR_PRODUCT][int(rng.integers(0, 2))]
        mesh = build_box_mesh(n, N)
        elem = build_element(family, n, k, r)
        counts = entity_dof_counts(elem)
        expected = sum(
            counts.get(d, 0) * tot for d, tot in mesh.entity_counts().items()
        )
        assert global_numbering(mesh, elem).total == expected


def test_shared_entities_get_identical_dofs():
    mesh = build_box_mesh(2, 2)
    elem = build_element(TRIMMED_SERENDIPITY, 2, 0, 2)
    dofmap = global_numbering(mesh, elem)
    # cells 0 and 1 share the edge {y in [0,0.5], x=0.5}? lattice is C-ordered:
    # cell 0 = (0,0), cell 1 = (0,1): they share the edge y = 0.5 of cell 0
    dofs0 = set(dofmap.cell_dofs[0])
    dofs1 = set(dofmap.cell_dofs[1])
    # cells (0,0) and (0,1) share one edge: 2 vertex dofs + 1 edge dof
    assert len(dofs0 & dofs1) == 3
    assert dofmap.total == 9 + 12  # vertices + one dof per edge


def test_cell_entities_match_topology_vertices():
    # each local vertex entity must land on the lattice vertex at the
    # matching physical corner of the cell
    mesh = build_box_mesh(3, (2, 3, 2))
    topo_vertices = [e for e in __import__("trimfem.refelem", fromlist=["cell_topology"])
                     .cell_topology(3).entities[0]]
    sizes = [N + 1 for N in mesh.divisions]
    h = np.asarray(mesh.h)
    for entity in topo_vertices:
        gidx = mesh.entity_indices(entity)
        lattice = np.stack(np.unravel_index(gidx, sizes), axis=-1)
        corner = dict(entity.fixed)
        offsets = np.array([(corner[a] + 1) // 2 for a in range(3)])
        assert np.array_equal(lattice, mesh.cell_lattice + offsets)
        phys = lattice * h
        origins = mesh.cell_lattice * h
        assert np.allclose(phys, origins + offsets * h)


def test_boundary_dofs_2d_scalar_order2():
    mesh = build_box_mesh(2, 2)
    elem = element_by_name("S", 2, 2)
    dofmap = global_numbering(mesh, elem)
    bdofs = boundary_dofs(dofmap)
    assert len(bdofs) == 16  # 8 boundary vertices + 8 boundary edges


def test_boundary_dofs_single_cell_curl():
    mesh = build_box_mesh(3, 1)
    elem = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    dofmap = global_numbering(mesh, elem)
    bdofs = boundary_dofs(dofmap)
    assert len(bdofs) == 36  # every DOF of a single cell sits on the boundary


@pytest.mark.parametrize("n, name, divisions", [
    (2, "RTCF", (3, 4)),
    (3, "SminusDiv", (2, 3, 2)),
])
def test_boundary_dofs_of_hdiv_maps_are_the_outer_plane_dofs(n, name, divisions):
    mesh = build_box_mesh(n, divisions)
    dofmap = global_numbering(mesh, element_by_name(name, n, 2))
    outer = 2 * np.array(divisions)
    lat = dofmap.lattice
    on_plane = {i for i in range(dofmap.total)
                if any(p == 0 or p == o for p, o in zip(lat[i], outer))}
    bdofs = boundary_dofs(dofmap)
    assert set(bdofs.tolist()) == on_plane
    # the normal trace: the DOFs of the boundary facets and nothing else
    facets = sum(2 * np.prod(np.delete(divisions, a)) for a in range(n))
    assert len(bdofs) == entity_dof_counts(dofmap.element)[n - 1] * facets


@pytest.mark.parametrize("n, name", [(2, "DQ"), (3, "DQ"), (2, "DPC"), (3, "DPC")])
def test_boundary_dofs_of_l2_maps_are_empty(n, name):
    dofmap = global_numbering(build_box_mesh(n, 2), element_by_name(name, n, 2))
    assert dofmap.total > 0
    assert boundary_dofs(dofmap).size == 0


# ---------------------------------------------------------------------------
# conformity across shared facets
# ---------------------------------------------------------------------------

def _interface_traces(family, n, k, r, axis, mapping=None):
    """Physical trace components on the shared facet of a 2-cell mesh.

    Returns (jump matrix over sample points x global dofs x trace comps).
    """
    divisions = tuple(2 if a == axis else 1 for a in range(n))
    mesh = build_box_mesh(n, divisions)
    elem = build_element(family, n, k, r, mapping=mapping)
    dofmap = global_numbering(mesh, elem)
    pf = PushForward(elem, mesh.h)

    rng = np.random.default_rng(42)
    npts = 25
    ref = np.zeros((2, npts, n))  # reference points in cell 0 and cell 1
    tangents = [a for a in range(n) if a != axis]
    for t in tangents:
        vals = rng.uniform(-1, 1, npts)
        ref[0][:, t] = vals
        ref[1][:, t] = vals
    ref[0][:, axis] = 1.0   # cell 0 is the lower cell: facet at +1
    ref[1][:, axis] = -1.0

    if k == 0:
        comp = [0]
    elif mapping == "covariant":
        comp = tangents  # tangential proxy components
    else:  # contravariant (n-1)-forms: normal proxy component
        comp = [axis]

    jump = None
    sides = []
    for side, cell in enumerate((0, 1)):
        vals = pf.values(tabulate(elem, ref[side]))
        glob = np.zeros((npts, dofmap.total, len(comp)))
        for i in range(elem.dim):
            g = dofmap.cell_dofs[cell, i]
            glob[:, g, :] += vals[:, i, comp]
        sides.append(glob)
    return sides[0] - sides[1]


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_conformity_of_traces(family, r):
    cases = []
    for n in (2, 3):
        for axis in range(n):
            cases.append((n, 0, axis, None))        # H1: full trace
            cases.append((n, 1, axis, "covariant"))  # H(curl): tangential
            cases.append((n, n - 1, axis, "contravariant"))  # H(div): normal
    for n, k, axis, mapping in cases:
        jump = _interface_traces(family, n, k, r, axis, mapping)
        assert np.max(np.abs(jump)) <= 1e-11, (
            f"{family} n={n} k={k} r={r} axis={axis}: jump {np.max(np.abs(jump)):.2e}"
        )


# ---------------------------------------------------------------------------
# numbering golden digest
# ---------------------------------------------------------------------------

# SHA-256 of `_numbering_digest_bytes()`: every box mesh with n in {2, 3} and
# divisions 1..4 or anisotropic (2..n+1) and its reverse, every element of
# both families with k in 0..n (covariant for k = 1) and r in 1..3
GOLDEN_NUMBERING_SHA256 = (
    "9525dd5b5ba62f77b410b31a95146ea23167c3a3b1f35bcadd837d39f9b82407")


def _numbering_digest_bytes():
    def ints(x):
        x = np.asarray(x, dtype="<i8")
        return repr(x.shape).encode() + x.tobytes()

    out = []
    for n in (2, 3):
        aniso = tuple(range(2, n + 2))
        for divisions in (1, 2, 3, 4, aniso, aniso[::-1]):
            mesh = build_box_mesh(n, divisions)
            out.append(repr((mesh.num_cells, mesh.num_vertices, mesh.num_edges,
                             mesh.num_faces, sorted(mesh.entity_counts().items())))
                       .encode())
            out += [ints(mesh.entity_indices(e))
                    for e in cell_topology(n).all_entities()]
            for family in (TRIMMED_SERENDIPITY, TENSOR_PRODUCT):
                for k in range(n + 1):
                    for r in (1, 2, 3):
                        mapping = "covariant" if k == 1 else None
                        elem = build_element(family, n, k, r, mapping=mapping)
                        dofmap = global_numbering(mesh, elem)
                        out += [repr(dofmap.total).encode(), ints(dofmap.cell_dofs),
                                ints(dofmap.lattice)]
                        if k in (0, 1):
                            out.append(ints(boundary_dofs(dofmap)))
    return b"".join(out)


def test_numbering_matches_golden_digest():
    """Entity indices, DOF numbering, lattice and boundary DOFs are
    identical to the recorded ones."""
    digest = hashlib.sha256(_numbering_digest_bytes()).hexdigest()
    assert digest == GOLDEN_NUMBERING_SHA256
