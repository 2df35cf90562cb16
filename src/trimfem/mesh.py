"""Structured axis-aligned meshes of [0, 1]^n and entity-based DOF numbering.

One rule places every mesh entity: on the doubled lattice, cell c spans
[2 c_a, 2 c_a + 2] along axis a, so vertex planes are even, and an entity
of that cell sits at 2 c_a + 1 on its tangential axes and at
2 c_a + 1 + side (side = -1 or +1) on its fixed ones.  Halving a position
gives the entity's place on the grid of its type (the entities with the
same tangential axes); types follow `refelem.cell_topology` order within
each dimension.  Global DOFs are allocated dimension by dimension and
contiguously per entity, so DOFs on a shared entity receive the same
global numbers from every adjacent cell, and the boundary DOFs are those
on an outer vertex plane.  The factorizations order the unknowns by
these positions (`multifrontal`).

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
        divisions = tuple(divisions) if np.iterable(divisions) else (divisions,) * n
        if (len(divisions) != n or not all(isinstance(N, Integral) and not isinstance(N, bool)
                                           for N in divisions) or any(N < 1 for N in divisions)):
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
            raise ValueError(f"a {mesh.n}D mesh and a {element.n}D element differ in dimension")
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
