"""Structured axis-aligned meshes of [0, 1]^n and entity-based DOF numbering.

One rule places every mesh entity: on the doubled lattice, cell c spans
[2 c_a, 2 c_a + 2] along axis a, so vertex planes are even, and an entity
of that cell sits at 2 c_a + 1 on its tangential axes and at
2 c_a + 1 + side (side = -1 or +1) on its fixed ones.  Halving a position
gives the entity's place on the grid of its type (the entities with the
same tangential axes); types follow `refelem.cell_topology` order within
each dimension.  Global DOFs are allocated dimension by dimension and
contiguously per entity, so DOFs on a shared entity receive the same
global numbers from every adjacent cell; the boundary DOFs are those on
an outer vertex plane; and `nested_dissection` turns DOF positions into a
geometric fill-reducing elimination order.

Edges are globally oriented by increasing coordinate along their axis and
faces by the right-handed frame of their in-plane axes in ascending order.
Cells map to the reference cube by translation and positive scaling only,
so every local frame agrees with the global one: local basis functions
enter the global space unchanged, with no orientation factor.
"""

from functools import cached_property
from numbers import Integral

import numpy as np

from .refelem import Element, cell_topology, entity_dof_counts


class BoxMesh:
    """Uniform mesh of [0, 1]^n with N_a cells along axis a.

    Entities are addressed by their doubled-lattice positions (see the
    module docstring); `cell_lattice` holds the cell coordinates c,
    C-ordered (last axis fastest).
    """

    def __init__(self, n, divisions):
        if n not in (2, 3):
            raise ValueError("only 2D and 3D box meshes are supported")
        if isinstance(divisions, Integral):
            divisions = (divisions,) * n
        divisions = tuple(divisions)
        if (len(divisions) != n or not all(isinstance(N, Integral) for N in divisions)
                or any(N < 1 for N in divisions)):
            raise ValueError(f"divisions {divisions} must be {n} integers >= 1")
        divisions = tuple(int(N) for N in divisions)
        self.n = n
        self.divisions = divisions
        self.h = tuple(1.0 / N for N in divisions)

        # entity type (its tangential axes) -> (grid shape, first index
        # within its dimension)
        self._types = {}
        self._counts = dict.fromkeys(range(n + 1), 0)
        for entity in cell_topology(n).all_entities():
            if entity.axes not in self._types:
                shape = tuple(
                    N + (a not in entity.axes) for a, N in enumerate(divisions))
                self._types[entity.axes] = (shape, self._counts[entity.dim])
                self._counts[entity.dim] += int(np.prod(shape))
        self.num_cells = self._counts[n]
        self.num_vertices, self.num_edges, self.num_faces = (
            self._counts[d] if d < n else 0 for d in range(3))
        self.cell_lattice = np.stack(
            np.unravel_index(np.arange(self.num_cells), divisions), axis=-1
        ).astype(np.int64)

    def entity_counts(self):
        """Global entity count per sub-entity dimension."""
        return dict(self._counts)

    def entity_positions(self, entity):
        """Doubled-lattice position of a local entity in every cell, (ncells, n)."""
        positions = 2 * self.cell_lattice + 1
        for a, side in entity.fixed:
            positions[:, a] += side
        return positions

    def entity_indices(self, entity):
        """Global index, within its dimension, of a local entity for every cell."""
        shape, first = self._types[entity.axes]
        grid = self.entity_positions(entity) // 2
        return first + np.ravel_multi_index(tuple(grid.T), shape)

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

    `lattice` is computed on first use and cached, so a map that only
    counts DOFs never builds it.
    """

    def __init__(self, mesh: BoxMesh, element: Element):
        if mesh.n != element.n:
            raise ValueError("mesh and element dimensions differ")
        self.mesh = mesh
        self.element = element
        counts = entity_dof_counts(element)
        base, total = {}, 0
        for d, num in mesh.entity_counts().items():
            base[d] = total
            total += counts.get(d, 0) * num
        self.total = total

        self.cell_dofs = np.empty((mesh.num_cells, element.dim), dtype=np.int64)
        for entity, start, stop in element.layout:
            if stop > start:
                first = base[entity.dim] + mesh.entity_indices(entity) * (stop - start)
                self.cell_dofs[:, start:stop] = first[:, None] + np.arange(stop - start)

    @cached_property
    def lattice(self):
        """Doubled-lattice position of each DOF's entity, shape (total, n)."""
        lattice = np.empty((self.total, self.mesh.n), dtype=np.int64)
        for entity, start, stop in self.element.layout:
            positions = self.mesh.entity_positions(entity)
            lattice[self.cell_dofs[:, start:stop]] = positions[:, None, :]
        return lattice


def _split(lo, hi):
    """How nested dissection splits the lattice box [lo, hi].

    Returns the split axis and the (low half, high half, plane) child
    boxes, or (None, ()) for a leaf.  Boxes are keyed by their bounds
    shifted by an even amount so that every lower bound is 0 or 1: an even
    shift moves the splitting planes along with the box, so boxes of one
    key are ordered alike.
    """
    # in Python ints: on arrays of two or three entries numpy's per-call
    # cost set the time of a tree of a few hundred boxes
    lo, hi = [int(v) for v in lo], [int(v) for v in hi]
    plane = [2 * ((l + h + 2) // 4) for l, h in zip(lo, hi)]  # the even value nearest the middle
    inside = [a for a, (l, c, h) in enumerate(zip(lo, plane, hi)) if l < c < h]
    if not inside:
        return None, ()
    a = max(inside, key=lambda a: hi[a] - lo[a])  # the first longest
    p = plane[a]
    children = []
    for start, stop in ((lo[a], p - 1), (p + 1, hi[a]), (p, p)):
        clo, chi = list(lo), list(hi)
        shift = start - start % 2
        clo[a], chi[a] = start - shift, stop - shift
        children.append((tuple(clo), tuple(chi)))
    return a, tuple(children)


def _top_box(lattice):
    """Even shift of the lattice and its bounding box closed on even planes."""
    # one column at a time: a reduction along axis 0 of an (m, n) array
    # took 15x as long on m = 263,169
    lo = np.array([column.min() for column in lattice.T])
    lo = lo - lo % 2
    hi = np.array([column.max() for column in lattice.T]) - lo
    return lo, ((0,) * len(lo), tuple((hi + hi % 2).tolist()))


def nested_dissection(lattice):
    """Geometric nested-dissection order of points on a doubled box lattice.

    `lattice` is an (m, n) integer array with vertex planes at even
    values, as in `GlobalDofMap.lattice`.  DOFs couple only within the
    closure of a cell, so the points on an even plane separate those on
    either side of it; an odd plane separates nothing.  The bounding box of
    the points, closed on even planes (`_top_box`), is split at the even
    plane nearest its middle, along its longest axis with such a plane
    strictly inside; both halves come first, each split the same way, and
    the plane last.  Boxes without an interior even plane (at most one cell
    wide) are leaves, ordered lexicographically by position.  A lattice
    without its outer planes has the whole lattice's box, so its order is
    the whole lattice's with those points taken out.

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
    origin, top = _top_box(lattice)
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
    return np.argsort(rank[top][tuple((lattice - origin).T)], kind="stable")


def global_numbering(mesh: BoxMesh, element: Element) -> GlobalDofMap:
    """Deterministic entity-based global numbering."""
    return GlobalDofMap(mesh, element)


def boundary_dofs(dofmap: GlobalDofMap) -> np.ndarray:
    """Global indices of the DOFs that carry the element's boundary trace.

    They are the DOFs whose entity lies on an outer vertex plane, lattice
    position 0 or 2 N_a: the full trace of an H1 element, the tangential
    trace of an H(curl) one, the normal trace of an H(div) one, and none
    of an L2 element, whose DOFs all sit on cells (odd on every axis).
    """
    lat = dofmap.lattice
    outer = 2 * np.array(dofmap.mesh.divisions)
    return np.flatnonzero(((lat == 0) | (lat == outer)).any(axis=1))
