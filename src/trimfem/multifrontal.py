"""Multifrontal Cholesky factorization on the nested-dissection tree of a box lattice.

The unknowns of an assembled system sit on the doubled lattice of a box
mesh (`GlobalDofMap.lattice`), and the elimination tree is the geometric
nested dissection of `mesh.nested_dissection`, one top box (`_top_box`)
split by `_split` (George, SIAM J. Numer. Anal. 10(2), 1973): a box
eliminates its two halves first and the points on its splitting plane
last, as one dense front (Duff & Reid, ACM TOMS 9(3), 1983).  A front
holds the box's pivots and its shell, the points just outside the box
that its subtree couples to; eliminating the pivots leaves an update on
the shell, which the parent adds into its own front.

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
`trmm` or `gemm`): on a 2-core Xeon with OpenBLAS 0.3.30, the threaded
`trsm` waited 5-16 ms per call on fronts of a few dozen pivots, where the
product takes microseconds.

All dense kernels come from `scipy.linalg`, so they share one OpenBLAS
build, the one scipy's wheel bundles (numpy bundles a second one, which
is left alone).  `factor` and every solve run them on one thread of that
build's pool (`_one_blas_thread`).  Most fronts hold a few dozen to a
few hundred pivots, and on them a second thread cost more than it saved:
on the benchmark's `spd_solve` Poisson ladders (shared 2-core Xeon, ten
alternating fresh-process pairs) the median pass went from 3.15 to
2.55 s.  One thread also makes the factor and its solutions the same
bits whatever the pool's size: with the pool at two threads they
differed from the one-thread results in the last digits.

Memory follows the factor.  Besides A and the stored factor, the set-up
keeps one key per unknown and one lookup entry per grid slot, int32 where
they fit; the rows of a class's instances are verified a slice of at most
n entries at a time; and each front is assembled in Fortran order, so
that LAPACK and BLAS factor it in place and its pivot rows become the
stored factor without a copy.  On the 2D r=1 N=512 Poisson system (28 MiB
of matrix, 25 MiB of factor) the traced peak of `factor` above its input
went from 83 to 43 MiB.
"""

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import blas, lapack

from .mesh import _split, _top_box


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


def _int_type(bound):
    """int32 for values up to `bound` where it fits, int64 otherwise."""
    return np.int32 if bound < 2**31 else np.int64


@functools.cache
def _blas_threads():
    """The get and set functions of the thread count of scipy's OpenBLAS.

    scipy's wheels bundle OpenBLAS as `scipy.libs/libscipy_openblas*.so`,
    which exports `scipy_openblas_get_num_threads` and
    `scipy_openblas_set_num_threads`.  Returns None where no such library
    or symbol is found (another scipy build, a system BLAS).  Looked up on
    first use, so importing trimfem loads nothing.
    """
    for lib in sorted((Path(scipy.__file__).parent.parent / "scipy.libs")
                      .glob("libscipy_openblas*.so")):
        try:
            blas_lib = ctypes.CDLL(str(lib))
            get = blas_lib.scipy_openblas_get_num_threads
            set_ = blas_lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of scipy's OpenBLAS pool, then restore
    the pool's count, also when the block raises.

    Without the pool control of `_blas_threads` this does nothing; no
    build that lacks it has been run with trimfem.  The count belongs to
    the process, so threads that factor at the same time can restore
    each other's count of one.
    """
    pool = _blas_threads()
    if pool is None:
        yield
        return
    get, set_ = pool
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


class _Mismatch(Exception):
    """An instance of a box class differs from the class representative."""


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
        with _one_blas_thread():
            for f in self.fronts:  # forward: L y = b, children first
                Y = blas.dgemm(1.0, f.Linv, x[f.pivots].T)
                x[f.pivots] = Y.T
                if f.shell.size:
                    np.subtract.at(x, f.shell.ravel(),
                                   blas.dgemm(1.0, f.L21t, Y, trans_a=1).T.ravel())
            for f in reversed(self.fronts):  # backward: L^T x = y, parents first
                Z = x[f.pivots].T
                if f.shell.size:
                    Z = blas.dgemm(-1.0, f.L21t, x[f.shell].T, beta=1.0, c=Z,
                                   overwrite_c=1)
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
        with _one_blas_thread():
            return MultifrontalCholesky(_fronts(A, lattice))
    except _Mismatch:
        return None


def _fronts(A, lattice):
    """The factored fronts of A, children first; raises _Mismatch where an
    instance differs from its class representative."""
    n, dim = lattice.shape
    origin, top = _top_box(lattice)
    # The grid of positions with a margin of one around the top box, so
    # that every shell position has a cell.  A DOF's key is its grid index
    # times nslot plus its slot, its rank among the DOFs at its position
    # in index order; less a box corner's grid index times nslot, it is
    # the DOF's key relative to that box.  `table` maps keys to DOFs.
    # Only `dkey` and `table` outlive the set-up, in int32 where they fit.
    gshape = np.array(top[1]) + 3
    gstride = np.cumprod(np.r_[1, gshape[:0:-1]])[::-1]
    ncell = int(np.prod(gshape))
    lin = ((lattice - (origin - 1)) @ gstride).astype(_int_type(ncell))
    by_pos = np.argsort(lin, kind="stable")
    lin = lin[by_pos]  # in position order, each position a run of slots
    first = np.flatnonzero(np.r_[True, lin[1:] != lin[:-1]])
    runs = np.diff(np.r_[first, n])
    nslot = int(runs.max())
    dkey = np.empty(n, dtype=_int_type(ncell * nslot))
    dkey[by_pos] = lin.astype(dkey.dtype) * nslot + (np.arange(n) - np.repeat(first, runs))
    del lin, by_pos, first, runs
    table = np.full(ncell * nslot, -1, dtype=_int_type(n))
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

        # the pivot rows of the representative, in its terms, and those of
        # every other instance compared with them, in slices of instances
        # that gather at most n entries at a time
        first = A.indptr[pivots]
        lens = A.indptr[pivots + 1] - first
        if (lens != lens[0]).any():
            raise _Mismatch
        row = np.repeat(np.arange(p), lens[0])
        within = np.arange(len(row)) - np.repeat(np.cumsum(lens[0]) - lens[0], lens[0])
        at = first[0, row] + within
        cols, vals = A.indices[at], A.data[at]
        ckeys = dkey[cols] - base[0] * nslot
        step = max(1, n // max(len(row), 1))
        for i in range(1, len(off), step):
            at = first[i:i + step, row] + within
            if ((dkey[A.indices[at]] - base[i:i + step, None] * nslot != ckeys).any()
                    or (A.data[at].view(np.int64) != vals.view(np.int64)).any()):
                raise _Mismatch
        pos = lattice[cols] - origin - off[0]
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

        # assemble the front in Fortran order, as its pivot rows Y = [F11 |
        # F12] and its shell block F22 (F21 = F12^T is never formed): the
        # pivot rows of A, then the children's updates U, whose transposes
        # read in C order run through Y and F22 in their memory order.
        # LAPACK and BLAS then work in place, and Y becomes [L^-1 | L21^T].
        keep = ((pos >= plo) & (pos <= phi)).all(axis=1) | outside
        Y = np.zeros((p, p + s), order="F")
        F22 = np.zeros((s, s), order="F")
        Y[row[keep], locate(ckeys[keep])] = vals[keep]
        for child, d in live:
            idx = locate(shells[child] + d)
            Ut, a, b = updates[child].T, np.flatnonzero(idx < p), np.flatnonzero(idx >= p)
            np.add.at(Y.T.reshape(-1), (idx[a] + p * idx[:, None]).ravel(),
                      Ut.take(a, axis=1).ravel())
            jb = idx[b] - p
            np.add.at(F22.T.reshape(-1), (jb + s * jb[:, None]).ravel(),
                      Ut.take(b, axis=0).take(b, axis=1).ravel())
            uses[child] -= 1
            if not uses[child]:
                del updates[child]

        U = F22
        if p:
            diagonal = Y.diagonal().copy()
            L, info = lapack.dpotrf(Y[:, :p], lower=1, clean=1, overwrite_a=1)
            if not info:  # a pivot at the rounding level of its diagonal
                small = np.flatnonzero(L.diagonal() ** 2 <= _SINGULAR * diagonal)
                info = small[0] + 1 if len(small) else 0
            if info:
                raise RuntimeError(
                    f"multifrontal Cholesky: the front of box {box} is not positive "
                    f"definite (pivot {info} of {p}, front size {p + s}, "
                    f"{len(off)} instances; matrix size {n}, nnz {A.nnz})")
            Linv, info = lapack.dtrtri(L, lower=1, overwrite_c=1)
            L21t = Y[:, p:]
            if s:  # L21^T = L^-1 F12, then U = F22 - L21 L21^T
                L21t = blas.dtrmm(1.0, Linv, L21t, lower=1, overwrite_b=1)
                U = blas.dgemm(-1.0, L21t, L21t, beta=1.0, c=F22, trans_a=1,
                               overwrite_c=1)
            fronts.append(_Front(pivots, dofs(base, skeys), Linv, L21t))
        if s and box in uses:
            shells[box], updates[box] = skeys, U

    if not covered or (np.bincount(np.concatenate(covered), minlength=n) != 1).any():
        raise _Mismatch
    return fronts
