"""Structured axis-aligned meshes of [0, 1]^n and entity-based DOF numbering.

Every mesh entity (vertex, edge, face, cell) gets a global index; DOFs are
allocated contiguously per entity, so DOFs on a shared entity receive the
same global numbers from every adjacent cell.  Edges are globally oriented
by increasing coordinate along their axis and faces by the right-handed
frame of their in-plane axes in ascending order.  Cells map to the
reference cube by translation and positive scaling only, so every local
frame agrees with the global one: local basis functions enter the global
space unchanged, with no orientation factor.

The same lattice also orders the sparse factorizations: every DOF sits on
an entity of the box lattice, and `nested_dissection` turns those
positions into a geometric fill-reducing elimination order.
"""

from functools import cached_property

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

    `lattice` and `ordering` are computed on first use and cached, so a
    map whose systems are never factored never pays for them.
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

    @cached_property
    def lattice(self):
        """Doubled integer coordinates of each DOF's entity, shape (total, n).

        Cell c spans [2 c_a, 2 c_a + 2] on axis a, so vertex planes are
        even: an entity sits at 2 c_a + 1 on its tangential axes and at
        2 c_a + 1 + side (side = -1 or +1) on its fixed ones.
        """
        n = self.mesh.n
        lattice = np.empty((self.total, n), dtype=np.int64)
        corner = 2 * self.mesh.cell_lattice
        for entity, start, stop in self.element.layout:
            offset = np.ones(n, dtype=np.int64)
            for a, side in entity.fixed:
                offset[a] += side
            lattice[self.cell_dofs[:, start:stop]] = (corner + offset)[:, None, :]
        return lattice

    @cached_property
    def ordering(self):
        """Nested-dissection elimination order of the DOFs (a permutation)."""
        return nested_dissection(self.lattice)


def _split(lo, hi):
    """How nested dissection splits the lattice box [lo, hi].

    Returns the split axis and the (low half, high half, plane) child
    boxes, or (None, ()) for a leaf.  Boxes are keyed by their bounds
    shifted by an even amount so that every lower bound is 0 or 1: an even
    shift moves the splitting planes along with the box, so boxes of one
    key are ordered alike.
    """
    lo, hi = np.array(lo), np.array(hi)
    plane = 2 * ((lo + hi + 2) // 4)  # the even value nearest the middle
    inside = (lo < plane) & (plane < hi)
    if not inside.any():
        return None, ()
    a = int(np.where(inside, hi - lo, -1).argmax())
    p = int(plane[a])
    children = []
    for start, stop in ((lo[a], p - 1), (p + 1, hi[a]), (p, p)):
        clo, chi = lo.copy(), hi.copy()
        shift = start - start % 2
        clo[a], chi[a] = start - shift, stop - shift
        children.append((tuple(clo.tolist()), tuple(chi.tolist())))
    return a, tuple(children)


def nested_dissection(lattice):
    """Geometric nested-dissection order of points on a doubled box lattice.

    `lattice` is an (m, n) integer array with vertex planes at even
    values, as in `GlobalDofMap.lattice`.  DOFs couple only within the
    closure of a cell, so the points on an even plane separate those on
    either side of it; an odd plane separates nothing.  The bounding box of
    the points is split at the even plane nearest its middle, along its
    longest axis with such a plane strictly inside; both halves come
    first, each split the same way, and the plane last.  Boxes without an
    interior even plane (at most one cell wide) are leaves, ordered
    lexicographically by position.

    The splits depend only on box bounds, so the order is computed once
    per distinct box shape on the grid of all lattice positions, smallest
    shapes first, and the points are then sorted by the rank of their
    position (points at one position keep their input order), so time and
    memory follow the volume of the bounding box: about 2^n per mesh cell
    for a DOF lattice.  Returns `perm` with `perm[k]` the index of the
    k-th point eliminated.
    """
    lattice = np.asarray(lattice, dtype=np.int64)
    if not len(lattice):
        return np.arange(0)
    parity = lattice.min(axis=0) % 2
    rel = lattice - (lattice.min(axis=0) - parity)  # an even shift
    top = (tuple(parity.tolist()), tuple(rel.max(axis=0).tolist()))
    splits, todo = {}, [top]
    while todo:
        box = todo.pop()
        if box not in splits:
            splits[box] = _split(*box)
            todo.extend(splits[box][1])
    rank = {}
    for box in sorted(splits, key=lambda b: np.prod(np.subtract(b[1], b[0]) + 1)):
        a, children = splits[box]
        if a is None:
            shape = np.subtract(box[1], box[0]) + 1
            rank[box] = np.arange(np.prod(shape)).reshape(shape)
            continue
        low, high, plane = (rank[c] for c in children)
        rank[box] = np.concatenate(
            [low, plane + (low.size + high.size), high + low.size], axis=a)
    return np.argsort(rank[top][tuple((rel - parity).T)], kind="stable")


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
