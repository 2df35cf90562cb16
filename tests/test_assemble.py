"""Assembly: local blocks, push-forward scalings, BCs, norms, couplings."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from trimfem import assemble
from trimfem.assemble import (
    PushForward,
    SparseSystem,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    assemble_mixed_poisson,
    l2_error,
    nonzero_count,
    physical_points,
)
from trimfem.mesh import boundary_dofs, build_box_mesh, global_numbering
from trimfem.poly import gauss_rule
from trimfem.refelem import (
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    build_element,
    coboundary_fit,
    element_by_name,
    tabulate,
)


def test_lowest_order_mass_diagonal_on_unit_cube():
    mesh = build_box_mesh(3, 1)
    elem = build_element(TRIMMED_SERENDIPITY, 3, 0, 1)
    dofmap = global_numbering(mesh, elem)
    M = assemble_bilinear(dofmap, dofmap, "Mass").matrix.toarray()
    assert np.allclose(np.diag(M), 1 / 27, atol=1e-14)
    assert np.allclose(M, M.T, atol=1e-15)


def test_gradgrad_kernel_contains_constants():
    # the constant 1 is the sum of the vertex hats (bubble coefficients 0)
    mesh = build_box_mesh(2, 3)
    for family in (TRIMMED_SERENDIPITY, TENSOR_PRODUCT):
        elem = build_element(family, 2, 0, 3)
        dofmap = global_numbering(mesh, elem)
        K = assemble_bilinear(dofmap, dofmap, "GradGrad").matrix
        const = np.zeros(dofmap.total)
        const[: mesh.num_vertices] = 1.0  # vertex dofs come first
        assert np.max(np.abs(K @ const)) <= 1e-12


def test_curlcurl_rejects_scalar_elements():
    mesh = build_box_mesh(3, 1)
    dofmap = global_numbering(mesh, build_element(TRIMMED_SERENDIPITY, 3, 0, 1))
    with pytest.raises(ValueError, match="1-form"):
        assemble_bilinear(dofmap, dofmap, "CurlCurl")


def test_mass_rejects_maps_of_different_form_degree():
    mesh = build_box_mesh(2, 1)
    scalar = global_numbering(mesh, build_element(TRIMMED_SERENDIPITY, 2, 0, 1))
    curl = global_numbering(mesh, element_by_name("SminusCurl", 2, 1))
    with pytest.raises(ValueError, match="mass form needs matching form degrees"):
        assemble_bilinear(scalar, curl, "Mass")


def test_gradgrad_rejects_1_form_maps():
    dofmap = global_numbering(build_box_mesh(2, 1), element_by_name("SminusCurl", 2, 1))
    with pytest.raises(ValueError, match="GradGrad applies to 0-form elements"):
        assemble_bilinear(dofmap, dofmap, "GradGrad")


def test_unknown_form_rejected():
    mesh = build_box_mesh(2, 1)
    dofmap = global_numbering(mesh, build_element(TRIMMED_SERENDIPITY, 2, 0, 1))
    with pytest.raises(ValueError, match="unknown form"):
        assemble_bilinear(dofmap, dofmap, "BiLaplace")
    with pytest.raises(ValueError, match="DivCoupling"):  # lists the valid ones
        assemble_bilinear(dofmap, dofmap, "DivDiv-coupling")


def test_maps_on_different_meshes_rejected():
    # same cell count and DOF total, so only the meshes tell them apart
    element = element_by_name("DPC", 2, 2)
    map_a = global_numbering(build_box_mesh(2, (2, 3)), element)
    map_b = global_numbering(build_box_mesh(2, (3, 2)), element)
    assert map_a.total == map_b.total
    with pytest.raises(ValueError, match="same mesh"):
        assemble_bilinear(map_a, map_b, "Mass")
    hdiv = global_numbering(build_box_mesh(2, (3, 2)), element_by_name("SminusDiv", 2, 3))
    with pytest.raises(ValueError, match="same mesh"):
        assemble_mixed_poisson(hdiv, map_a, lambda x: np.ones(x.shape[:-1]))


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_mass_matrices_are_spd(family, n, k, r):
    mesh = build_box_mesh(n, 2)
    mapping = None
    elem = build_element(family, n, k, r)
    dofmap = global_numbering(mesh, elem)
    M = assemble_bilinear(dofmap, dofmap, "Mass").matrix.toarray()
    asym = np.abs(M - M.T).max() / max(np.abs(M).max(), 1e-30)
    assert asym <= 1e-12
    assert np.linalg.eigvalsh(M).min() > 0


def test_symmetric_forms_assemble_symmetric():
    mesh = build_box_mesh(3, 2)
    elem = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    dofmap = global_numbering(mesh, elem)
    A = assemble_bilinear(dofmap, dofmap, "CurlCurl").matrix
    diff = (A - A.T).tocoo()
    scale = np.abs(A.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale


def test_scale_invariance_against_physical_quadrature():
    # assembling via reference tabulation + push-forward equals integrating
    # the mapped basis directly in physical coordinates
    mesh = build_box_mesh(2, (2, 3))
    elem = build_element(TRIMMED_SERENDIPITY, 2, 1, 2)
    dofmap = global_numbering(mesh, elem)
    M = assemble_bilinear(dofmap, dofmap, "Mass").matrix.toarray()

    rule = gauss_rule(2, elem.r + 2)
    pf = PushForward(elem, mesh.h)
    vals = pf.values(tabulate(elem, rule.points))
    wdet = rule.weights * pf.det
    local = np.einsum("q,qic,qjc->ij", wdet, vals, vals)
    M2 = np.zeros_like(M)
    for c in range(mesh.num_cells):
        idx = dofmap.cell_dofs[c]
        M2[np.ix_(idx, idx)] += local
    assert np.abs(M - M2).max() <= 1e-12 * np.abs(M).max()


def _coboundary_matrix(mk, mk1):
    """The global d from the DOFs of `mk` to those of `mk1`: the exact
    coboundary matrix D of coboundary_fit, in floats, placed on
    `cell_dofs`.  Asserts that every cell writes the same value, bit for
    bit, into a shared global entry."""
    D, res = coboundary_fit(mk.element, mk1.element)
    assert res == 0.0
    D = D.astype(float)
    G = np.full((mk1.total, mk.total), np.nan)
    for c in range(mk.mesh.num_cells):
        block = np.ix_(mk1.cell_dofs[c], mk.cell_dofs[c])
        written = ~np.isnan(G[block])
        assert np.array_equal(G[block][written], D.T[written])
        G[block] = D.T
    return np.nan_to_num(G)


def _assert_commuting_diagram(form, n, family, r):
    """The assembled `form` equals its discrete counterpart built from the
    coboundary matrix D of coboundary_fit scattered on `cell_dofs`:
    D^T M_{k+1} D for GradGrad and CurlCurl, M_n D for DivCoupling.

    The meshes are anisotropic, so a Jacobian entry applied on the wrong
    axis shows."""
    k = {"GradGrad": 0, "CurlCurl": 1, "DivCoupling": n - 1}[form]
    mesh = build_box_mesh(n, (2, 3) if n == 2 else (2, 1, 3))
    mk = global_numbering(mesh, build_element(family, n, k, r))
    # the gradient lands in H(curl) also in 2D
    mapping = "covariant" if k == 0 else None
    mk1 = global_numbering(mesh, build_element(family, n, k + 1, r, mapping=mapping))
    G = _coboundary_matrix(mk, mk1)
    M = assemble_bilinear(mk1, mk1, "Mass").matrix.toarray()
    if form == "DivCoupling":
        got = assemble_bilinear(mk1, mk, form).matrix.toarray()
        want = M @ G
    else:
        got = assemble_bilinear(mk, mk, form).matrix.toarray()
        want = G.T @ M @ G
    assert np.abs(got - want).max() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_commuting_gradient_identity(family, r):
    for n in (2, 3):
        _assert_commuting_diagram("GradGrad", n, family, r)


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("form, n", [("CurlCurl", 3), ("DivCoupling", 2), ("DivCoupling", 3)])
def test_commuting_curl_and_divergence_identities(form, n, family, r):
    _assert_commuting_diagram(form, n, family, r)


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n, N", [(2, 2), (2, 3), (3, 2)])
def test_global_complex_has_the_cohomology_of_the_cube(n, N, family, r):
    """The global maps G_k compose to exactly zero, and their Betti numbers
    dim - rank G_k - rank G_{k-1} are (1, 0, ..., 0), and (0, ..., 0, 1)
    once the DOFs on an outer vertex plane are removed."""
    mesh = build_box_mesh(n, N)
    maps = [global_numbering(mesh, build_element(family, n, k, r)) for k in range(n + 1)]
    G = [_coboundary_matrix(mk, mk1) for mk, mk1 in zip(maps, maps[1:])]
    for g, g1 in zip(G, G[1:]):
        assert not (g1 @ g).any()
    outer = 2 * np.array(mesh.divisions)
    inner = [~((m.lattice == 0) | (m.lattice == outer)).any(axis=1) for m in maps]
    relative = [g[np.ix_(inner[k + 1], inner[k])] for k, g in enumerate(G)]
    for mats, dims, want in ((G, [m.total for m in maps], [1] + [0] * n),
                             (relative, [i.sum() for i in inner], [0] * n + [1])):
        ranks = [0] + [np.linalg.matrix_rank(g) for g in mats] + [0]
        assert [dims[k] - ranks[k + 1] - ranks[k] for k in range(n + 1)] == want


def test_load_vector_matches_quadrature_of_f():
    mesh = build_box_mesh(2, 2)
    elem = element_by_name("DPC", 2, 1)
    dofmap = global_numbering(mesh, elem)

    def f(x):
        return 2 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    b = assemble_load(dofmap, f)
    rule = gauss_rule(2, elem.r + 2)
    pf = PushForward(elem, mesh.h)
    vals = pf.values(tabulate(elem, rule.points))
    pts = physical_points(mesh, rule)
    expected = np.zeros(dofmap.total)
    for c in range(mesh.num_cells):
        for i in range(elem.dim):
            contrib = np.sum(rule.weights * pf.det * f(pts[c]) * vals[:, i, 0])
            expected[dofmap.cell_dofs[c, i]] += contrib
    assert np.allclose(b, expected, atol=1e-14)


def test_boundary_modes():
    mesh = build_box_mesh(2, 2)
    elem = element_by_name("S", 2, 2)
    dofmap = global_numbering(mesh, elem)
    K = assemble_bilinear(dofmap, dofmap, "GradGrad")
    K.rhs = np.ones(dofmap.total)
    bdofs = boundary_dofs(dofmap)

    red = apply_dirichlet(K, bdofs, "eliminate")
    assert red.matrix.shape[0] == dofmap.total - len(bdofs)
    full = red.expand(np.ones(red.matrix.shape[0]))
    assert np.all(full[bdofs] == 0)

    diag = apply_dirichlet(K, bdofs, "diag1")
    A = diag.matrix
    assert A.shape[0] == dofmap.total
    for d in bdofs[:3]:
        row = A.getrow(d).toarray().ravel()
        assert row[d] == 1.0 and np.abs(np.delete(row, d)).max() == 0.0
    assert np.all(diag.rhs[bdofs] == 0)

    with pytest.raises(ValueError, match="unknown boundary mode"):
        apply_dirichlet(K, bdofs, "penalty")


@pytest.mark.parametrize("mode", ["eliminate", "diag1"])
@pytest.mark.parametrize("index", [-1, 4, 7])
def test_boundary_modes_reject_indices_outside_the_system(mode, index):
    # a negative index would wrap to the last DOF under diag1 only, and a
    # large one be ignored under eliminate, so both modes refuse them
    import scipy.sparse as sp

    K = SparseSystem(sp.identity(4, format="csr"))
    with pytest.raises(ValueError, match=f"DOF index {index} out of range .* size 4"):
        apply_dirichlet(K, [0, index], mode)


@pytest.mark.parametrize("mode", ["eliminate", "diag1"])
@pytest.mark.parametrize("dofs", [[False, False, False, True, True], [3.7]],
                         ids=["boolean-mask", "float"])
def test_boundary_modes_reject_indices_that_are_not_integers(mode, dofs):
    # a mask would be cast to the indices {0, 1} and 3.7 truncated to 3
    K = SparseSystem(sp.identity(5, format="csr"))
    with pytest.raises(ValueError, match="DOF indices must be integers"):
        apply_dirichlet(K, dofs, mode)


@pytest.mark.parametrize("dofs", [[], [4, 3], np.array([3, 4], dtype=np.uint8), [4, 3, 4]],
                         ids=["empty", "list", "uint8", "duplicated"])
def test_boundary_modes_accept_integer_and_empty_indices(dofs):
    K = SparseSystem(sp.identity(5, format="csr"))
    want = [0, 1, 2] if len(dofs) else [0, 1, 2, 3, 4]
    assert np.array_equal(apply_dirichlet(K, dofs).free, want)


@pytest.mark.parametrize("n, r, N", [(2, 1, 16), (3, 3, 4)])
def test_diag1_matches_the_sparse_product_construction(n, r, N):
    import scipy.sparse as sp

    mesh = build_box_mesh(n, N)
    dofmap = global_numbering(mesh, element_by_name("S", n, r))
    K = assemble_bilinear(dofmap, dofmap, "GradGrad")
    bdofs = boundary_dofs(dofmap)
    free = np.ones(dofmap.total)
    free[bdofs] = 0.0
    D = sp.diags(free)
    want = (D @ K.matrix @ D + sp.diags(1.0 - free)).tocsr()
    want.sum_duplicates()
    want.sort_indices()
    got = apply_dirichlet(K, bdofs, "diag1").matrix
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_nonzero_count_drops_explicit_zeros_and_entries_below_1e_14():
    A = sp.csr_matrix((np.array([4.0, 0.0, 1e-15, -1e-14, 3.0]), np.array([0, 1, 2, 0, 2]),
                       np.array([0, 3, 3, 5])), shape=(3, 3))
    assert nonzero_count(SparseSystem(A)) == (3, 3 / 9)


def test_a_system_refuses_a_matrix_that_is_not_scipy_sparse():
    # solve_spd and nonzero_count each ended in a bare AttributeError on
    # the missing tocsr
    with pytest.raises(TypeError, match="^a system needs a scipy sparse matrix, not ndarray$"):
        SparseSystem(np.eye(3))


@pytest.mark.parametrize("mode", ["eliminate", "diag1"])
@pytest.mark.parametrize("transposed", [False, True], ids=["B", "B^T"])
def test_dirichlet_refuses_a_system_that_is_not_square(mode, transposed):
    # B (48 x 112) once came back (46, 46) under eliminate and raised a bare
    # IndexError under diag1; B^T raised a bare IndexError under eliminate
    # and came back (112, 48) under diag1
    mesh = build_box_mesh(2, 4)
    l2_map = global_numbering(mesh, element_by_name("DPC", 2, 1))
    hdiv_map = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    B = assemble_bilinear(l2_map, hdiv_map, "DivCoupling")
    system = SparseSystem(B.matrix.T) if transposed else B
    shape = (112, 48) if transposed else (48, 112)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"apply_dirichlet: a matrix of shape {shape} is not square") + "$"):
        apply_dirichlet(system, [0, 1], mode)


def test_nonzero_count_single_cell():
    mesh = build_box_mesh(3, 1)
    elem = build_element(TRIMMED_SERENDIPITY, 3, 0, 1)
    dofmap = global_numbering(mesh, elem)
    M = assemble_bilinear(dofmap, dofmap, "Mass")
    count, frac = nonzero_count(M)
    assert count == 64  # dense 8x8 block
    assert frac == pytest.approx(1.0)


def test_l2_error_of_zero_coefficients_is_field_norm():
    mesh = build_box_mesh(2, 8)
    elem = element_by_name("S", 2, 2)
    dofmap = global_numbering(mesh, elem)

    def exact(x):
        return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    err = l2_error(dofmap, np.zeros(dofmap.total), exact)
    assert err == pytest.approx(0.5, abs=1e-12)  # ||sin sin||_{L2} = 1/2


def test_l2_error_names_both_lengths():
    dofmap = global_numbering(build_box_mesh(2, 2), element_by_name("S", 2, 1))
    with pytest.raises(ValueError, match="a coefficient vector of length 8 does not "
                                         "match a DOF map of 9 DOFs"):
        l2_error(dofmap, np.zeros(8), lambda x: np.zeros(x.shape[:-1]))


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("n,k,r", [(2, 1, 2), (3, 1, 2), (3, 2, 2), (2, 0, 3)])
def test_projection_reproduces_low_order_polynomials(family, n, k, r):
    # L2-projecting a field with P_{r-1} components returns it exactly
    import scipy.sparse.linalg as spla

    mesh = build_box_mesh(n, 2)
    elem = build_element(family, n, k, r)
    dofmap = global_numbering(mesh, elem)
    rng = np.random.default_rng(13)
    coeff = rng.uniform(-1, 1, size=(elem.ncomp if k not in (0, n) else 1, n + 1))

    def field(x):
        vals = [c[0] + sum(c[1 + a] * x[..., a] for a in range(n)) for c in coeff]
        if len(vals) == 1:
            return vals[0]
        return np.stack(vals, axis=-1)

    M = assemble_bilinear(dofmap, dofmap, "Mass").matrix
    b = assemble_load(dofmap, field)
    c = spla.spsolve(M.tocsc(), b)
    assert l2_error(dofmap, c, field) <= 1e-10


def test_mixed_system_structure_and_pairing():
    mesh = build_box_mesh(2, 4)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))

    def f(x):
        return 2 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    sys = assemble_mixed_poisson(hdiv, l2, f)
    A = sys.matrix
    nh, nl = hdiv.total, l2.total
    assert A.shape == (nh + nl, nh + nl)
    diff = (A - A.T).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0) <= 1e-12
    assert abs(A[nh:, nh:]).max() == 0.0  # zero (2,2) block
    assert np.all(sys.rhs[:nh] == 0.0)

    bad_l2 = global_numbering(mesh, element_by_name("DPC", 2, 2))
    with pytest.raises(ValueError, match="order-mismatched|pairs with DPC"):
        assemble_mixed_poisson(hdiv, bad_l2, f)


def test_mixed_poisson_takes_only_the_div_pairing():
    # one check, DivCoupling's, rejects a flux or potential of another kind
    mesh = build_box_mesh(2, 2)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    curl = global_numbering(mesh, element_by_name("SminusCurl", 2, 2))
    h1 = global_numbering(mesh, element_by_name("S", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    for flux, potential in ((curl, l2), (h1, l2), (l2, hdiv), (hdiv, hdiv)):
        with pytest.raises(ValueError, match="DivCoupling pairs"):
            assemble_mixed_poisson(flux, potential, lambda x: np.zeros(x.shape[:-1]))


def test_mixed_divergence_of_constant_flux_vanishes():
    import scipy.sparse.linalg as spla

    mesh = build_box_mesh(2, 1)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    # interpolate the constant field (1, 2) into the H(div) space
    M = assemble_bilinear(hdiv, hdiv, "Mass").matrix

    def const(x):
        out = np.zeros(x.shape[:-1] + (2,))
        out[..., 0] = 1.0
        out[..., 1] = 2.0
        return out

    sigma = spla.spsolve(M.tocsc(), assemble_load(hdiv, const))
    B = assemble_bilinear(l2, hdiv, "DivCoupling").matrix
    assert np.abs(B @ sigma).max() <= 1e-11


def test_rhs_entries_match_manufactured_source():
    # the L2-block rhs entries are the quadrature values of -f v
    mesh = build_box_mesh(2, 2)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))

    def f(x):
        return 2 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    sys = assemble_mixed_poisson(hdiv, l2, f)
    direct = -assemble_load(l2, f)
    assert np.allclose(sys.rhs[hdiv.total:], direct, atol=1e-14)



def _coo_scatter(map_test, map_trial, local):
    """The COO sum of the per-cell blocks, the reference `_scatter` must
    reproduce bit for bit."""
    nc = map_test.mesh.num_cells
    a, b = local.shape
    rows = np.broadcast_to(map_test.cell_dofs[:, :, None], (nc, a, b))
    cols = np.broadcast_to(map_trial.cell_dofs[:, None, :], (nc, a, b))
    vals = np.broadcast_to(local, (nc, a, b))
    mat = sp.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())),
        shape=(map_test.total, map_trial.total),
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _scatter_cases():
    for family in (TRIMMED_SERENDIPITY, TENSOR_PRODUCT):
        for n, divisions in ((2, (5, 3)), (3, (3, 2, 4))):
            yield family, n, divisions, "GradGrad", 0, 0
            for k in range(n + 1):
                yield family, n, divisions, "Mass", k, k
            if n == 3:
                yield family, n, divisions, "CurlCurl", 1, 1
            yield family, n, divisions, "DivCoupling", n, n - 1


def _maps(family, n, divisions, k_test, k_trial, r=2):
    mesh = build_box_mesh(n, divisions)

    def dofmap(k):
        mapping = ("h1" if k == 0 else "l2" if k == n else
                   "contravariant" if k == n - 1 else "covariant")
        return global_numbering(mesh, build_element(family, n, k, r, mapping=mapping))

    map_test = dofmap(k_test)
    return mesh, map_test, map_test if k_trial == k_test else dofmap(k_trial)


@pytest.mark.parametrize("family, n, divisions, form, k_test, k_trial", list(_scatter_cases()))
def test_scatter_is_bit_identical_to_the_coo_sum(family, n, divisions, form, k_test, k_trial):
    mesh, map_test, map_trial = _maps(family, n, divisions, k_test, k_trial)
    local = assemble._local_matrix(form, map_test.element, map_trial.element, mesh.h)
    # random blocks too: rows whose duplicates round differently in
    # another summation order
    rng = np.random.default_rng(k_test)
    for block in (local, rng.standard_normal(local.shape)):
        got = assemble._scatter(map_test, map_trial, block)
        want = _coo_scatter(map_test, map_trial, block)
        assert got.shape == want.shape and got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.indptr.dtype == got.indices.dtype == np.int32
        # no uncompressed buffer stays alive behind the matrix
        for array in (got.data, got.indices):
            assert array.flags.owndata and array.size == got.nnz


def _load_in_one_block(mesh, dofmap, f):
    element = dofmap.element
    rule = gauss_rule(element.n, element.r + 2)
    phi, weights = assemble._proxy_table(element, mesh.h, rule)
    fvals = np.asarray(f(physical_points(mesh, rule))).reshape(mesh.num_cells, -1)
    contrib = (fvals * weights) @ phi
    b = np.zeros(dofmap.total)
    np.add.at(b, dofmap.cell_dofs.ravel(), contrib.ravel())
    return b


def _l2_error_in_one_block(mesh, dofmap, coefficients, exact):
    element = dofmap.element
    rule = gauss_rule(element.n, element.r + 3)
    phi, weights = assemble._proxy_table(element, mesh.h, rule)
    coefmat = np.asarray(coefficients)[dofmap.cell_dofs]
    target = np.asarray(exact(physical_points(mesh, rule))).reshape(len(coefmat), -1)
    diff = coefmat @ phi.T - target
    return float(np.sqrt(max(float(np.sum(diff**2 @ weights)), 0.0)))


@pytest.mark.parametrize("name, n, r, divisions", [
    ("S", 2, 1, (40, 28)),
    ("Lagrange", 3, 2, (7, 6, 5)),
    ("NCE", 3, 2, (8, 7, 6)),
    ("DPC", 2, 2, (20, 24)),
])
def test_loads_and_errors_by_blocks_equal_one_block(name, n, r, divisions):
    mesh = build_box_mesh(n, divisions)
    dofmap = global_numbering(mesh, element_by_name(name, n, r))
    ncomp = 1 if dofmap.element.k in (0, n) else n

    def field(x):
        u = np.sin(np.pi * x[..., 0]) * np.exp(x[..., 1] - x[..., -1] ** 2)
        return u if ncomp == 1 else np.stack([u * (a + 1) for a in range(n)], axis=-1)

    for order in (2, 3):  # the load's and the error's quadrature
        rule = gauss_rule(n, dofmap.element.r + order)
        assert len(assemble._cell_blocks(rule, dofmap)) > 2
    b = assemble_load(dofmap, field)
    assert np.array_equal(b, _load_in_one_block(mesh, dofmap, field))
    c = np.random.default_rng(0).standard_normal(dofmap.total)
    assert l2_error(dofmap, c, field) == _l2_error_in_one_block(mesh, dofmap, c, field)


def test_load_and_error_name_a_field_of_complex_values():
    # l2_error returned nan and assemble_load dropped the imaginary part,
    # each after only a ComplexWarning
    dofmap = global_numbering(build_box_mesh(2, 4), element_by_name("S", 2, 1))

    def field(x):
        return 2j * np.ones(x.shape[:-1])

    for call, caller in ((lambda: assemble_load(dofmap, field), "assemble_load: f"),
                         (lambda: l2_error(dofmap, np.zeros(dofmap.total), field),
                          "l2_error: exact")):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{caller} returned values of complex dtype complex128; the field "
                "must be real") + "$"):
            call()


@pytest.mark.parametrize("name, field, got, want", [
    # a scalar field on a 2D H(curl) map broadcast against its 2P columns
    ("SminusCurl", lambda x: x[..., 0], "(16, {P})", "(16, {P}, 2)"),
    # a constant is not broadcast over the points
    ("SminusCurl", lambda x: 1.0, "()", "(16, {P}, 2)"),
    ("S", lambda x: 1.0, "()", "(16, {P})"),
    ("S", lambda x: x, "(16, {P}, 2)", "(16, {P})"),
], ids=["scalar-on-hcurl", "constant-on-hcurl", "constant-on-h1", "vector-on-h1"])
def test_load_and_error_name_a_field_of_the_wrong_shape(name, field, got, want):
    dofmap = global_numbering(build_box_mesh(2, 4), element_by_name(name, 2, 1))
    # P quadrature points per cell: the error's rule has one more per axis
    for call, P, caller in (
            (lambda: assemble_load(dofmap, field), 9, "assemble_load: f"),
            (lambda: l2_error(dofmap, np.zeros(dofmap.total), field), 16, "l2_error: exact")):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{caller} returned values of shape {got.format(P=P)} at points of "
                f"shape (16, {P}, 2); this DOF map needs shape {want.format(P=P)}")):
            call()
