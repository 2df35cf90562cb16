"""Multifrontal Cholesky factorization on the nested-dissection tree of a box lattice.

The unknowns of an assembled system sit on the doubled lattice of a box
mesh (`GlobalDofMap.lattice`), and the elimination tree is the geometric
nested dissection of `mesh._split` (George, SIAM J. Numer. Anal. 10(2),
1973): a box eliminates its two halves first and the points on its
splitting plane last, as one dense front (Duff & Reid, ACM TOMS 9(3),
1983).  A front holds the box's pivots and its shell, the points just
outside the box that its subtree couples to; eliminating the pivots leaves
an update on the shell, which the parent adds into its own front.

`_split` keys a box by its bounds shifted by an even amount, and on a
uniform mesh every box of one key has the same matrix rows, so its whole
subtree yields the same fronts.  `factor` therefore factors each key, a
class, once, on one representative box, in dense float64 LAPACK; boxes
of a few dozen unknowns are not split further.  The top box is closed on
even planes, so a bound of a tree box is even exactly when it lies on the
outer boundary of the lattice and odd when it faces a separator: boxes at
an eliminated boundary never share a key with interior boxes of the same
shape.  Reuse is verified, not assumed: every instance of a class must
have the representative's DOF layout and bit-identical matrix rows, and
every unknown must be a pivot of exactly one box.  Where that fails,
`factor` returns None and the caller factors the matrix another way.

Solves run one batched product per class over all its instances,
gathering and scattering through precomputed int32 index arrays.  Every
triangular solve, in the factorization too, is a product with the
inverse of the front's Cholesky factor (`trtri` once per class, then
`gemm`): on a 2-core Xeon with OpenBLAS 0.3.30, the threaded `trsm`
waited 5-16 ms per call on fronts of a few dozen pivots, where the
product takes microseconds and runs single-threaded below OpenBLAS's
threshold.  All dense kernels come from `scipy.linalg`, so they share one
OpenBLAS build and its threads (numpy bundles a second one).
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from .mesh import _split


# A pivot below this fraction of its front diagonal marks the front
# numerically singular.  The study systems' smallest measured 0.1 (3D
# r = 5 Poisson) and the singular GradGrad without boundary conditions
# left 7e-16 to 2e-12, which a positive rounding error lets potrf pass.
_SINGULAR = np.sqrt(np.finfo(float).eps)


# Boxes expected to hold at most this many unknowns (their lattice
# positions times the lattice's unknowns per position) are leaves: one
# dense front costs less there than the classes splitting it would add.
# Against splitting down to single cells it factored the Poisson levels of
# the benchmark 10-50% faster (3D r=3 N=4: 21 -> 9 ms, 2D r=1 N=512:
# 0.26 -> 0.23 s) and halved the 2D solves; 128 and 256 were slower on
# some levels.
_LEAF = 64


class _Mismatch(Exception):
    """An instance of a box class differs from the class representative."""


def _top_box(lattice):
    """Even shift of the lattice and its bounding box closed on even planes."""
    lo = lattice.min(axis=0)
    lo = lo - lo % 2
    hi = lattice.max(axis=0) - lo
    return lo, ((0,) * len(lo), tuple((hi + hi % 2).tolist()))


def _tree(top, leaf):
    """The box classes under `top`, every child before its parents.

    Returns a list of (box, pivot lo, pivot hi, [(child, shift), ...]),
    the pivot box being the whole box for a leaf and the splitting plane
    otherwise; a child's shift is its lower corner in the box's
    coordinates.  Only the two halves of a split are tree nodes, and a
    box of at most `leaf` lattice positions is a leaf.
    """
    tree, todo = {}, [top]
    while todo:
        box = todo.pop()
        if box in tree:
            continue
        lo, hi = np.array(box[0]), np.array(box[1])
        a, children = _split(lo, hi)
        halves = []
        if a is not None and np.prod(hi - lo + 1) > leaf:
            p = children[0][1][a] + 1  # the low half ends just before the plane
            shift = np.zeros(len(lo), dtype=np.int64)
            shift[a] = p
            halves = [(children[0], 0 * shift), (children[1], shift)]
            lo[a] = hi[a] = p
        tree[box] = (lo, hi, halves)
        todo.extend(child for child, _ in halves)
    order = sorted(tree, key=lambda b: (np.prod(np.subtract(b[1], b[0]) + 1), b))
    return [(box, *tree[box]) for box in order]


def _instances(tree):
    """Lower corner of every instance of every class, (ninst, n) per box."""
    top = tree[-1][0]
    parts = {top: [np.zeros((1, len(top[0])), dtype=np.int64)]}
    offsets = {}
    for box, _, _, halves in reversed(tree):
        offsets[box] = np.concatenate(parts.pop(box))
        for child, shift in halves:
            parts.setdefault(child, []).append(offsets[box] + shift)
    return offsets


class _Front(NamedTuple):
    """One factored class over all its instances: the pivot and shell
    index arrays, the inverse of the Cholesky factor L of the pivot block
    and L21^T = L^-1 F12."""

    pivots: np.ndarray
    shell: np.ndarray
    Linv: np.ndarray
    L21t: np.ndarray


class MultifrontalCholesky:
    """A verified multifrontal Cholesky factor; call it to solve A x = b.

    `classes` counts the distinct factored fronts and `nodes` the tree
    boxes that have pivots, summed over all instances.
    """

    def __init__(self, fronts):
        self.fronts = fronts
        self.classes = len(fronts)
        self.nodes = sum(len(f.pivots) for f in fronts)

    def __call__(self, b):
        x = np.array(b, dtype=np.float64)
        for f in self.fronts:  # forward: L y = b, children first
            Y = blas.dgemm(1.0, f.Linv, x[f.pivots].T)
            x[f.pivots] = Y.T
            if f.shell.size:
                np.subtract.at(x, f.shell.ravel(),
                               blas.dgemm(1.0, f.L21t, Y, trans_a=1).T.ravel())
        for f in reversed(self.fronts):  # backward: L^T x = y, parents first
            Z = x[f.pivots].T
            if f.shell.size:
                Z = blas.dgemm(-1.0, f.L21t, x[f.shell].T, beta=1.0, c=Z, overwrite_c=1)
            x[f.pivots] = blas.dgemm(1.0, f.Linv, Z, trans_a=1).T
        return x


def factor(A, lattice):
    """Multifrontal Cholesky factor of the SPD matrix A on `lattice`.

    `A` is a square CSR matrix whose unknown i sits at lattice position
    `lattice[i]` (doubled-lattice coordinates, as in
    `GlobalDofMap.lattice`).  Returns a `MultifrontalCholesky`, or None
    when the lattice classes do not hold for A (see the module
    docstring).  A front that is not positive definite raises a
    RuntimeError that names the box and the sizes.
    """
    lattice = np.asarray(lattice, dtype=np.int64)
    n = A.shape[0]
    if n == 0 or lattice.shape[0] != n:
        return None
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    try:
        return MultifrontalCholesky(_fronts(A, lattice))
    except _Mismatch:
        return None


def _fronts(A, lattice):
    """The factored fronts of A, children first; raises _Mismatch where an
    instance differs from its class representative."""
    n, dim = lattice.shape
    origin, top = _top_box(lattice)
    rel = lattice - origin
    # The grid of positions with a margin of one around the top box, so
    # that every shell position has a cell.  A DOF's key is its grid index
    # times nslot plus its slot, its rank among the DOFs at its position
    # in index order; less a box corner's grid index times nslot, it is
    # the DOF's key relative to that box.  `table` maps keys to DOFs.
    gshape = np.array(top[1]) + 3
    gstride = np.cumprod(np.r_[1, gshape[:0:-1]])[::-1]
    lin = (rel + 1) @ gstride
    by_pos = np.argsort(lin, kind="stable")
    count = np.bincount(lin, minlength=int(np.prod(gshape)))
    nslot = int(count.max())
    dkey = np.empty(n, dtype=np.int64)
    dkey[by_pos] = lin[by_pos] * nslot + np.arange(n) - (np.cumsum(count) - count)[lin[by_pos]]
    table = np.full(len(count) * nslot, -1, dtype=np.int32)
    table[dkey] = np.arange(n)

    def dofs(base, keys):
        """Global indices of the DOFs at relative `keys` in every instance."""
        idx = table[base[:, None] * nslot + keys]
        if (idx < 0).any():
            raise _Mismatch
        return idx

    tree = _tree(top, _LEAF * np.prod(gshape - 2) / n)  # positions per leaf
    offsets = _instances(tree)
    uses = {}
    for _, _, _, halves in tree:
        for child, _ in halves:
            uses[child] = uses.get(child, 0) + 1

    shells, updates, fronts, covered = {}, {}, [], []
    for box, plo, phi, halves in tree:
        off = offsets[box]
        base = (off + 1) @ gstride  # grid index of each instance's corner
        lo, hi = np.array(box[0]), np.array(box[1])
        live = [(child, (shift @ gstride) * nslot) for child, shift in halves
                if child in shells]

        # the pivots: the representative's DOFs in the pivot box
        q = (np.indices(phi - plo + 1).reshape(dim, -1).T + plo) @ gstride
        cell, slots = np.nonzero(table.reshape(-1, nslot)[base[0] + q] >= 0)
        p = len(cell)
        if not p and not live:
            continue  # an empty subtree
        pkeys = q[cell] * nslot + slots
        pivots = dofs(base, pkeys)
        covered.append(pivots.ravel())

        # the pivot rows of every instance, in the representative's terms
        first = A.indptr[pivots.ravel()]
        lens = (A.indptr[pivots.ravel() + 1] - first).reshape(len(off), p)
        if (lens != lens[0]).any():
            raise _Mismatch
        row = np.repeat(np.arange(p), lens[0])
        at = first.reshape(len(off), p)[:, row] + (
            np.arange(len(row)) - np.repeat(np.cumsum(lens[0]) - lens[0], lens[0]))
        cols, vals = A.indices[at], A.data[at]
        ckeys = dkey[cols] - base[:, None] * nslot
        if ((ckeys != ckeys[0]).any()
                or (vals.view(np.int64) != vals[0].view(np.int64)).any()):
            raise _Mismatch
        ckeys, vals = ckeys[0], vals[0]
        pos = rel[cols[0]] - off[0]
        if ((pos < -1) | (pos > hi + 1)).any():
            raise _Mismatch  # a coupling beyond the cells around the box

        # the shell: what the rows and the children's shells reach outside
        # the box; a child's shell point inside it lies on the plane
        outside = ((pos < lo) | (pos > hi)).any(axis=1)
        reach = [ckeys[outside]]
        for child, d in live:
            k = shells[child] + d
            reach.append(k[pkeys[np.searchsorted(pkeys, k).clip(max=p - 1)] != k]
                         if p else k)
        skeys = np.unique(np.concatenate(reach))
        s = len(skeys)

        front = np.concatenate([pkeys, skeys])
        order = np.argsort(front, kind="stable")
        sorted_front = front[order]

        def locate(keys):  # position in the front
            return order[np.searchsorted(sorted_front, keys)]

        # assemble the front: pivot rows, then the children's updates
        keep = ((pos >= plo) & (pos <= phi)).all(axis=1) | outside
        F = np.zeros((p + s, p + s))
        F[row[keep], locate(ckeys[keep])] = vals[keep]
        F[p:, :p] = F[:p, p:].T
        for child, d in live:
            idx = locate(shells[child] + d)
            np.add.at(F.reshape(-1), (idx[:, None] * (p + s) + idx).ravel(),
                      updates[child].ravel())
            uses[child] -= 1
            if not uses[child]:
                del updates[child]

        U = F[p:, p:]
        if p:
            diagonal = F.diagonal()[:p]
            L, info = lapack.dpotrf(np.asfortranarray(F[:p, :p]), lower=1, clean=1,
                                    overwrite_a=1)
            if not info:  # a pivot at the rounding level of its diagonal
                small = np.flatnonzero(L.diagonal() ** 2 <= _SINGULAR * diagonal)
                info = small[0] + 1 if len(small) else 0
            if info:
                raise RuntimeError(
                    f"multifrontal Cholesky: the front of box {box} is not positive "
                    f"definite (pivot {info} of {p}, front size {p + s}, "
                    f"{len(off)} instances; matrix size {n}, nnz {A.nnz})")
            Linv, info = lapack.dtrtri(L, lower=1, overwrite_c=1)
            L21t = np.empty((p, 0), order="F")
            if s:
                L21t = blas.dgemm(1.0, Linv, np.asfortranarray(F[:p, p:]))
                # U = F22 - L21t^T L21t is symmetric, so its Fortran result
                # read in C order is U itself
                U = blas.dgemm(-1.0, L21t, L21t, beta=1.0, c=np.asfortranarray(U),
                               trans_a=1, overwrite_c=1).T
            fronts.append(_Front(pivots, dofs(base, skeys), Linv, L21t))
        if s and box in uses:
            shells[box], updates[box] = skeys, U

    if not covered or (np.bincount(np.concatenate(covered), minlength=n) != 1).any():
        raise _Mismatch
    return fronts
