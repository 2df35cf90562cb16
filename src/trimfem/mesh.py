"""Structured axis-aligned meshes of [0, 1]^n and entity-based DOF numbering.

Every mesh entity (vertex, edge, face, cell) gets a global index; DOFs are
allocated contiguously per entity, so DOFs on a shared entity receive the
same global numbers from every adjacent cell.  Edges are globally oriented
by increasing coordinate along their axis and faces by the right-handed
frame of their in-plane axes in ascending order.  Cells map to the
reference cube by translation and positive scaling only, so every local
frame agrees with the global one: local basis functions enter the global
space unchanged, with no orientation factor.
"""

import numpy as np

from .refelem import Element, entity_dof_counts


class BoxMesh:
    """Uniform mesh of [0, 1]^n with N_a cells along axis a."""

    def __init__(self, n, divisions):
        if n not in (2, 3):
            raise ValueError("only 2D and 3D box meshes are supported")
        if isinstance(divisions, int):
            divisions = (divisions,) * n
        divisions = tuple(int(N) for N in divisions)
        if len(divisions) != n or any(N < 1 for N in divisions):
            raise ValueError("divisions must be >= 1 along every axis")
        self.n = n
        self.divisions = divisions
        self.h = tuple(1.0 / N for N in divisions)

        self.num_cells = int(np.prod(divisions))
        self.num_vertices = int(np.prod([N + 1 for N in divisions]))
        self.num_edges_by_axis = tuple(
            divisions[t] * int(np.prod([divisions[a] + 1 for a in range(n) if a != t]))
            for t in range(n)
        )
        self.num_edges = sum(self.num_edges_by_axis)
        if n == 3:
            self.num_faces_by_normal = tuple(
                (divisions[w] + 1) * int(np.prod([divisions[a] for a in range(3) if a != w]))
                for w in range(3)
            )
            self.num_faces = sum(self.num_faces_by_normal)
        else:
            self.num_faces_by_normal = ()
            self.num_faces = 0

        # cell lattice coordinates, C-ordered (last axis fastest)
        idx = np.arange(self.num_cells)
        self.cell_lattice = np.stack(
            np.unravel_index(idx, divisions), axis=-1
        ).astype(np.int64)

    def entity_counts(self):
        """Global entity count per sub-entity dimension."""
        counts = {0: self.num_vertices, 1: self.num_edges, self.n: self.num_cells}
        if self.n == 3:
            counts[2] = self.num_faces
        return counts

    # -- global entity indices, vectorized over all cells ------------------

    def _vertex_index(self, lattice_cols):
        sizes = [N + 1 for N in self.divisions]
        return np.ravel_multi_index(lattice_cols, sizes)

    def _edge_index(self, axis, lattice_cols):
        sizes = [self.divisions[a] + (0 if a == axis else 1) for a in range(self.n)]
        offset = sum(self.num_edges_by_axis[:axis])
        return offset + np.ravel_multi_index(lattice_cols, sizes)

    def _face_index(self, normal, lattice_cols):
        sizes = [self.divisions[a] + (1 if a == normal else 0) for a in range(3)]
        offset = sum(self.num_faces_by_normal[:normal])
        return offset + np.ravel_multi_index(lattice_cols, sizes)

    def entity_indices(self, entity):
        """Global index of a local entity for every cell, shape (ncells,)."""
        lat = self.cell_lattice
        n = self.n
        d = entity.dim
        fixed = dict(entity.fixed)
        if d == 0:
            cols = [lat[:, a] + (fixed[a] + 1) // 2 for a in range(n)]
            return self._vertex_index(cols)
        if d == n:
            return np.arange(self.num_cells)
        if d == 1:
            t = entity.axes[0]
            cols = [
                lat[:, a] if a == t else lat[:, a] + (fixed[a] + 1) // 2
                for a in range(n)
            ]
            return self._edge_index(t, cols)
        # faces in 3D
        (w, side) = entity.fixed[0]
        cols = [
            lat[:, a] + ((side + 1) // 2 if a == w else 0)
            for a in range(3)
        ]
        return self._face_index(w, cols)

    def entity_on_boundary(self, dim):
        """Boolean mask over global entities of one dimension."""
        n = self.n
        if dim == n:
            return np.zeros(self.num_cells, dtype=bool)
        if dim == 0:
            sizes = [N + 1 for N in self.divisions]
            grid = np.stack(np.unravel_index(np.arange(self.num_vertices), sizes), axis=-1)
            return np.any((grid == 0) | (grid == np.array(self.divisions)), axis=1)
        if dim == 1:
            masks = []
            for t in range(n):
                sizes = [self.divisions[a] + (0 if a == t else 1) for a in range(n)]
                grid = np.stack(
                    np.unravel_index(np.arange(int(np.prod(sizes))), sizes), axis=-1
                )
                cross = [a for a in range(n) if a != t]
                m = np.zeros(len(grid), dtype=bool)
                for a in cross:
                    m |= (grid[:, a] == 0) | (grid[:, a] == self.divisions[a])
                masks.append(m)
            return np.concatenate(masks)
        # faces
        masks = []
        for w in range(3):
            sizes = [self.divisions[a] + (1 if a == w else 0) for a in range(3)]
            grid = np.stack(
                np.unravel_index(np.arange(int(np.prod(sizes))), sizes), axis=-1
            )
            masks.append((grid[:, w] == 0) | (grid[:, w] == self.divisions[w]))
        return np.concatenate(masks)

    def __repr__(self):
        divs = "x".join(str(N) for N in self.divisions)
        return f"<BoxMesh {divs} on [0,1]^{self.n}>"


def build_box_mesh(n, divisions) -> BoxMesh:
    """Uniform box mesh of [0, 1]^n; `divisions` is N or a per-axis tuple."""
    return BoxMesh(n, divisions)


class GlobalDofMap:
    """Entity-based global DOF numbering for one element on one mesh.

    `cell_dofs[c, i]` is the global index of local basis function i on
    cell c.  Local and global entity frames agree on axis-aligned meshes
    (see the module docstring), so no orientation factors are stored.
    """

    def __init__(self, mesh: BoxMesh, element: Element):
        if mesh.n != element.n:
            raise ValueError("mesh and element dimensions differ")
        self.mesh = mesh
        self.element = element
        counts = entity_dof_counts(element)
        entity_totals = mesh.entity_counts()

        self.dim_base = {}
        total = 0
        for d in range(mesh.n + 1):
            self.dim_base[d] = total
            total += counts.get(d, 0) * entity_totals[d]
        self.total = total
        self.counts = counts

        ncells = mesh.num_cells
        nloc = element.dim
        cell_dofs = np.empty((ncells, nloc), dtype=np.int64)
        for entity, start, stop in element.layout:
            if stop == start:
                continue
            gidx = mesh.entity_indices(entity)
            base = self.dim_base[entity.dim] + gidx * counts[entity.dim]
            for j in range(stop - start):
                cell_dofs[:, start + j] = base + j
        self.cell_dofs = cell_dofs

    def entity_dofs(self, dim, mask):
        """Global DOFs of all dimension-`dim` entities selected by a mask."""
        c = self.counts.get(dim, 0)
        if c == 0:
            return np.empty(0, dtype=np.int64)
        ids = np.nonzero(mask)[0]
        return (self.dim_base[dim] + (ids[:, None] * c + np.arange(c))).ravel()


def global_numbering(mesh: BoxMesh, element: Element) -> GlobalDofMap:
    """Deterministic entity-based global numbering."""
    return GlobalDofMap(mesh, element)


def boundary_dofs(dofmap: GlobalDofMap, kind: str) -> np.ndarray:
    """Global indices of DOFs with a nonvanishing boundary trace.

    `kind` is "full-trace" (H1 elements) or "tangential-trace" (H(curl)
    elements); both resolve to the DOFs associated with boundary entities.
    """
    element = dofmap.element
    n, k = element.n, element.k
    if kind == "full-trace":
        if k != 0:
            raise ValueError("full-trace boundary conditions apply to 0-forms only")
    elif kind == "tangential-trace":
        if k == 0 or element.mapping != "covariant":
            raise ValueError(
                "tangential-trace boundary conditions apply to H(curl) elements only"
            )
    else:
        raise ValueError(f"unknown boundary condition kind {kind!r}")
    mesh = dofmap.mesh
    out = []
    for d in range(n):  # cells are never boundary entities
        mask = mesh.entity_on_boundary(d)
        out.append(dofmap.entity_dofs(d, mask))
    return np.unique(np.concatenate(out))
