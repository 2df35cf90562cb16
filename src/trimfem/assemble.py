"""Sparse assembly of the variational operators on uniform box meshes.

Every cell maps to the reference cube by translation and the diagonal
Jacobian J = diag(h_a / 2), so the per-cell dense blocks are identical and
are computed once from cached reference tabulations; assembly is a single
scatter.  Form-degree-specific push-forward scalings keep the assembled
spaces H1 / H(curl) / H(div) / L2 conforming, with 1-forms mapped
covariantly and (n-1)-forms by the contravariant (Piola) map.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import BoxMesh, GlobalDofMap, nested_dissection
from .poly import gauss_rule
from .refelem import Element, tabulate

_FORMS = ("Mass", "GradGrad", "CurlCurl", "DivCoupling")


class PushForward:
    """Reference-to-physical scalings for one element on cells of size h.

    The Jacobian is diag(h_a / 2).  Values are returned as (points, basis,
    components) arrays of vector-proxy components, one component for
    scalars: identity for 0-forms, J^{-1} for 1-forms (covariant),
    J/det(J) with the (dy^dz, dz^dx, dx^dy) orientation for (n-1)-forms
    (contravariant), and 1/det(J) for n-forms.
    """

    def __init__(self, element: Element, h):
        self.element = element
        self.h = np.asarray(h, dtype=float)
        if self.h.shape != (element.n,):
            raise ValueError("h must have one entry per axis")
        self.jac = self.h / 2.0
        self.det = float(np.prod(self.jac))

    def values(self, vals, derivative=False):
        """Physical proxy components (P, nb, ncomp) from a `tabulate` table.

        With `derivative` the table holds the exterior derivatives d of the
        element's k-forms, mapped as the (k+1)-forms they are: covariantly
        (the gradient) for k = 0, by 1/det(J) for k + 1 = n, and
        contravariantly (the 3D curl) otherwise.
        """
        e = self.element
        mapping = e.mapping
        if derivative:
            mapping = ("covariant" if e.k == 0 else
                       "l2" if e.k + 1 == e.n else "contravariant")
        if mapping == "h1":
            return vals
        if mapping == "l2":
            return vals / self.det
        if mapping == "covariant":
            return vals / self.jac
        # contravariant
        if e.n == 2:
            # (p dx + q dy) -> flux proxy (q, -p), then Piola scaling
            proxy = np.stack([vals[..., 1], -vals[..., 0]], axis=-1)
        else:
            # (dy^dz, dx^dz, dx^dy) -> (dy^dz, dz^dx, dx^dy)
            proxy = np.stack([vals[..., 0], -vals[..., 1], vals[..., 2]], axis=-1)
        return proxy * self.jac / self.det


class SparseSystem:
    """An assembled sparse operator with optional right-hand side and BCs.

    After `eliminate`-mode boundary conditions the stored matrix is the
    reduced operator on the DOFs `free`; `expand` scatters a reduced
    solution back to the full DOF vector.

    The constructor's `lattice` is the doubled-lattice position of each of
    the `full_size` DOFs (`GlobalDofMap.lattice`), or None.  It may be
    given as a function of no arguments, called on first use, so a system
    that is never factored never computes it.  The two facts a
    factorization reads derive from it and are cached:

    - `lattice`, its rows of the unknowns (those in `free`), from which
      `solve_spd` builds its multifrontal factor;
    - `ordering`, the elimination order SuperLU factors the matrix in
      (`ordering[k]` is the k-th unknown eliminated): the nested
      dissection of the full lattice with the eliminated DOFs taken out.

    Both are None without a lattice.
    """

    def __init__(self, matrix, rhs=None, full_size=None, free=None, lattice=None):
        self.matrix = matrix
        self.rhs = rhs
        self.full_size = matrix.shape[0] if full_size is None else full_size
        self.free = free
        self._lattice = lattice

    def _full_lattice(self):
        if callable(self._lattice):
            self._lattice = self._lattice()
        return self._lattice

    @cached_property
    def lattice(self):
        full = self._full_lattice()
        return full if full is None or self.free is None else full[self.free]

    @cached_property
    def ordering(self):
        full = self._full_lattice()
        if full is None:
            return None
        order = nested_dissection(full)
        if self.free is None:
            return order
        return np.searchsorted(self.free, order[np.isin(order, self.free)])

    def expand(self, x):
        if self.free is None:
            return x
        out = np.zeros(self.full_size)
        out[self.free] = x
        return out


def _quad_degree(*elements):
    return max(e.r for e in elements) + 2


def _proxy_table(element, h, rule, derivative=False):
    """Physical proxy values as a (points * components, basis) matrix,
    with the quadrature weights times det(J) repeated per component, so
    that every integral over a cell is one matrix product."""
    pf = PushForward(element, h)
    vals = pf.values(tabulate(element, rule.points, derivative), derivative)
    npts, nb, ncomp = vals.shape
    weights = np.repeat(rule.weights * pf.det, ncomp)
    return vals.transpose(0, 2, 1).reshape(npts * ncomp, nb), weights


def _local_matrix(form, elem_test, elem_trial, h):
    if form == "Mass":
        if elem_test.k != elem_trial.k or elem_test.mapping != elem_trial.mapping:
            raise ValueError("mass form needs matching form degrees")
        d_test, d_trial = False, False
    elif form == "GradGrad":
        if elem_test.k != 0 or elem_trial.k != 0:
            raise ValueError("GradGrad applies to 0-form elements")
        d_test, d_trial = True, True
    elif form == "CurlCurl":
        if elem_test.n != 3 or elem_test.k != 1 or elem_trial.k != 1:
            raise ValueError("CurlCurl applies to 1-form elements in 3D")
        d_test, d_trial = True, True
    elif form == "DivCoupling":
        if (elem_test.k != elem_test.n or elem_trial.k != elem_test.n - 1
                or elem_trial.mapping != "contravariant"):
            raise ValueError(
                "DivCoupling pairs an n-form test space with an (n-1)-form "
                "H(div) trial space"
            )
        d_test, d_trial = False, True
    else:
        raise ValueError(f"unknown form {form!r}; use one of {_FORMS}")
    rule = gauss_rule(elem_test.n, _quad_degree(elem_test, elem_trial))
    test, weights = _proxy_table(elem_test, h, rule, d_test)
    trial, _ = _proxy_table(elem_trial, h, rule, d_trial)
    return test.T @ (weights[:, None] * trial)


def _scatter(map_test: GlobalDofMap, map_trial: GlobalDofMap, local):
    """The CSR sum of the block `local` over every cell.

    The (cell, local row) incidences are ordered by global row, cells in
    order within a row, so every row receives its entries in the order a
    COO matrix of the cells' (row, column, value) triplets would give it,
    and `sum_duplicates` adds them in that order too.  No pre-summing by
    blocks of cells: that changes the rounding of rows on a block edge.
    Besides the uncompressed indices and values, the only temporaries are
    one argsort and one quotient and remainder of the incidences; the
    result is compacted to arrays of exactly nnz entries.
    """
    a, b = local.shape
    nrows, ncols = map_test.total, map_trial.total
    rows = map_test.cell_dofs.ravel()
    idx = np.int32 if max(rows.size * b, nrows, ncols) < 2**31 else np.int64
    indptr = np.zeros(nrows + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=nrows) * b, out=indptr[1:])
    cells, i = np.divmod(np.argsort(rows, kind="stable"), a)
    indices = map_trial.cell_dofs.astype(idx)[cells].ravel()
    del cells
    mat = sp.csr_matrix((local[i].ravel(), indices, indptr), shape=(nrows, ncols))
    del i
    mat.sum_duplicates()
    # sum_duplicates leaves views of the uncompressed buffers
    mat.indices, mat.data = mat.indices.copy(), mat.data.copy()
    return mat


def assemble_bilinear(mesh: BoxMesh, map_test: GlobalDofMap,
                      map_trial: GlobalDofMap, form: str) -> SparseSystem:
    """Assemble a global sparse operator from identical per-cell blocks.

    A square operator (one map for test and trial) carries the map's
    lattice.
    """
    if map_test.mesh is not mesh or map_trial.mesh is not mesh:
        raise ValueError("DOF maps must belong to the given mesh")
    local = _local_matrix(form, map_test.element, map_trial.element, mesh.h)
    matrix = _scatter(map_test, map_trial, local)
    if map_test is not map_trial:
        return SparseSystem(matrix)
    return SparseSystem(matrix, lattice=lambda: map_test.lattice)


def physical_points(mesh: BoxMesh, rule, cells=slice(None)):
    """Quadrature points mapped to the cells `cells` (default: every cell),
    shape (ncells, P, n)."""
    origins = mesh.cell_lattice[cells] * np.asarray(mesh.h)
    ref01 = (rule.points + 1.0) / 2.0 * np.asarray(mesh.h)
    return origins[:, None, :] + ref01[None, :, :]


def _cell_blocks(mesh: BoxMesh, rule, dofmap: GlobalDofMap):
    """Consecutive cells in blocks whose quadrature points hold about as
    many coordinates as there are unknowns, in multiples of 64 cells.

    Every per-cell value computed by blocks equals the one computed over
    all cells at once, so the blocks bound the temporaries of a pointwise
    evaluation to O(unknowns) without changing a bit of the result.
    """
    step = max(64, dofmap.total // (len(rule.points) * mesh.n) // 64 * 64)
    return [slice(c, c + step) for c in range(0, mesh.num_cells, step)]


def assemble_load(mesh: BoxMesh, dofmap: GlobalDofMap, f) -> np.ndarray:
    """Right-hand side vector for the functional v -> int f . v.

    `f` is evaluated pointwise at the physical quadrature nodes, a block
    of cells at a time; it must accept an (..., n) array and return
    scalar values (scalar elements) or proxy-vector components (..., n).
    """
    element = dofmap.element
    rule = gauss_rule(element.n, element.r + 2)
    phi, weights = _proxy_table(element, mesh.h, rule)
    b = np.zeros(dofmap.total)
    for cells in _cell_blocks(mesh, rule, dofmap):
        pts = physical_points(mesh, rule, cells)
        fvals = np.asarray(f(pts)).reshape(len(pts), -1)
        # cell by cell in order, as one add.at over all cells would add
        np.add.at(b, dofmap.cell_dofs[cells].ravel(), ((fvals * weights) @ phi).ravel())
    return b


def assemble_mixed_poisson(mesh: BoxMesh, hdiv_map: GlobalDofMap,
                           l2_map: GlobalDofMap, f) -> SparseSystem:
    """Saddle-point system [[M, B^T], [B, 0]] with rhs (0, -int f v).

    The H(div) space must be the (n-1)-form element of order r and the L2
    space the n-form element of the same family order r (usage order r-1),
    the stable pairing: SminusDiv_r with DPC_{r-1}, RTCF/NCF_r with DQ_{r-1}.
    """
    eh, el = hdiv_map.element, l2_map.element
    if eh.k != mesh.n - 1 or eh.mapping != "contravariant":
        raise ValueError("mixed Poisson needs an H(div) element for the flux")
    if el.k != mesh.n or el.mapping != "l2":
        raise ValueError("mixed Poisson needs an L2 element for the potential")
    if eh.family != el.family or eh.r != el.r:
        raise ValueError(
            "order-mismatched pairing: SminusDiv of order r pairs with DPC of "
            "order r-1 (and RTCF/NCF with DQ of order r-1); "
            f"got orders {eh.r} and {el.r} (usage order {el.r - 1})"
        )
    M = assemble_bilinear(mesh, hdiv_map, hdiv_map, "Mass").matrix
    B = assemble_bilinear(mesh, l2_map, hdiv_map, "DivCoupling").matrix
    mat = sp.bmat([[M, B.T], [B, None]], format="csr")
    rhs = np.concatenate([np.zeros(hdiv_map.total), -assemble_load(mesh, l2_map, f)])
    return SparseSystem(mat, rhs, lattice=lambda: np.concatenate(
        [hdiv_map.lattice, l2_map.lattice]))


def apply_dirichlet(system: SparseSystem, dofs, mode="eliminate") -> SparseSystem:
    """Homogeneous essential boundary conditions.

    `eliminate` removes constrained rows/columns and solves the reduced
    system; `diag1` zeroes them and puts a unit value on the diagonal,
    which reproduces the spurious unit eigenvalues reported by solvers
    that use that convention.  The system's lattice carries over; under
    `eliminate` the reduced system's ordering and lattice are restricted to
    the free DOFs.
    """
    dofs = np.unique(np.asarray(dofs, dtype=np.int64))
    A = system.matrix.tocsr()
    nfull = A.shape[0]
    bad = dofs[(dofs < 0) | (dofs >= nfull)]
    if bad.size:
        raise ValueError(f"DOF index {bad[0]} out of range for a system of size {nfull}")
    # unresolved: the new system may never be factored (an already reduced
    # system passes the lattice of its unknowns, the new system's full DOFs)
    lattice = system._lattice if system.free is None else system.lattice
    if mode == "eliminate":
        free = np.setdiff1d(np.arange(nfull), dofs)
        red = A[free][:, free].tocsr()
        rhs = None if system.rhs is None else system.rhs[free]
        return SparseSystem(red, rhs, full_size=nfull, free=free, lattice=lattice)
    if mode == "diag1":
        fixed = np.zeros(nfull, dtype=bool)
        fixed[dofs] = True
        out = A.copy()
        out.sum_duplicates()
        # zero every entry in a constrained row or column, then drop all
        # zeros (as a sparse product would) after setting the unit diagonal
        out.data[np.repeat(fixed, np.diff(out.indptr)) | fixed[out.indices]] = 0.0
        out[dofs, dofs] = 1.0
        out.eliminate_zeros()
        rhs = None
        if system.rhs is not None:
            rhs = system.rhs.copy()
            rhs[dofs] = 0.0
        return SparseSystem(out, rhs, full_size=nfull, lattice=lattice)
    raise ValueError(f"unknown boundary mode {mode!r}; use 'eliminate' or 'diag1'")


def l2_error(mesh: BoxMesh, dofmap: GlobalDofMap, coefficients, exact) -> float:
    """L2 distance between a coefficient vector and an exact field.

    `exact` receives physical points (..., n) and returns scalars or
    proxy-vector components matching the element's mapping.
    """
    element = dofmap.element
    if len(coefficients) != dofmap.total:
        raise ValueError("coefficient vector length does not match the DOF map")
    rule = gauss_rule(element.n, element.r + 3)
    phi, weights = _proxy_table(element, mesh.h, rule)
    coefficients = np.asarray(coefficients)
    cell_err2 = np.empty(mesh.num_cells)
    for cells in _cell_blocks(mesh, rule, dofmap):
        coefmat = coefficients[dofmap.cell_dofs[cells]]
        target = np.asarray(exact(physical_points(mesh, rule, cells)))
        diff = coefmat @ phi.T - target.reshape(len(coefmat), -1)
        cell_err2[cells] = diff**2 @ weights
    err2 = float(np.sum(cell_err2))  # one sum over all cells, not by blocks
    return float(np.sqrt(max(err2, 0.0)))


def nonzero_count(system: SparseSystem, drop_tol=1e-14):
    """Stored nonzeros after dropping explicit near-zero entries.

    Returns (count, fill fraction), the fraction being count / (rows*cols).
    """
    A = system.matrix.tocsr().copy()
    A.data[np.abs(A.data) < drop_tol] = 0.0
    A.eliminate_zeros()
    count = int(A.nnz)
    frac = count / (A.shape[0] * A.shape[1])
    return count, frac
