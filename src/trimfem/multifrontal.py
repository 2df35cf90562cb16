"""Multifrontal factorization on the nested-dissection tree of a box lattice.

The unknowns of an assembled system sit on the doubled lattice of a box
mesh (`GlobalDofMap.lattice`).  This module holds the package's one
geometric elimination tree, `_tree`'s: George's nested dissection (SIAM J.
Numer. Anal. 10(2), 1973) of one top box (`_top_box`) by `_split`, at
the even plane nearest the middle (DOFs couple only within the closure
of a cell, so an even plane separates its two sides and an odd one
nothing), the halves first and the plane last, not split again.  The
factor cuts the tree at boxes expected to hold at most `_LEAF` unknowns
and eliminates each box as one dense front (Duff & Reid, ACM TOMS 9(3),
1983).  A front holds the box's pivots and its shell, the points just
outside the box that its subtree couples to; eliminating the pivots
leaves an update on the shell, which the parent adds into its own front.

`_split` keys a box by its bounds shifted by an even amount, and on a
uniform mesh every box of one key has the same matrix rows, so its whole
subtree yields the same fronts.  `factor` therefore factors each key, a
class, once, on one representative box, in dense float64 LAPACK.  The top box is closed on
even planes, so a bound of a tree box is even exactly when it lies on the
outer boundary of the lattice and odd when it faces a separator: boxes at
an eliminated boundary never share a key with interior boxes of the same
shape.  Reuse is verified, not assumed: every instance of a class must
have the representative's DOF layout and bit-identical matrix rows, and
every unknown must be a pivot of exactly one box.  Where that fails,
`factor` returns None and the caller factors the matrix another way.

Two kernels factor a front's pivot block F11 and eliminate its shell.
An SPD matrix takes Cholesky, F11 = L L^T, and the front stores L^-1 and
L21^T = L^-1 F12.  A symmetric indefinite one, the shifted pencil
A - sigma M of the cavity eigensolve, takes LAPACK's Bunch-Kaufman
factor F11 = P L D L^T P^T with 1 x 1 and 2 x 2 blocks in D (`sytrf`;
Math. Comp. 31, 1977), and the front stores that factor as LAPACK packs
it, its pivot indices and W = F11^-1 F12 (`sytrs`), over [F11 | F12];
its update is F22 - F12^T W.  LAPACK's factor keeps its interchanges,
so a front's pivots stay in key order under both kernels.  Pivoting is
confined to the front, so a front whose nearly singular F11 would pass
a grown update to its parent is left to SuperLU (`_ILL_CONDITIONED`);
the top front passes nothing on, and D carries the near-singularity of a
shift close to an eigenvalue there.  On the N=8 cavity shifts
A - 3 pi^2 M (shared 2-core Xeon, scipy 1.17.1, best of 7 in each of
seven rounds) the indefinite factor took 0.06-0.09 / 0.12-0.17 s against
0.09-0.13 / 0.21-0.32 s for SuperLU (S-_2 / Q-_2) and stores
0.91 M / 1.85 M values against SuperLU's fill of 1.89 M / 4.02 M.

Solves take one right-hand side or an (n, k) block of them, and run one
batched product per class over all its instances and columns, gathering
and scattering through precomputed int32 index arrays.  An indefinite
front solves with F11 by `sytrs` and eliminates its shell by products
with W.  Every triangular solve of a Cholesky front, in the
factorization too, is a product with the inverse of its factor (`trtri`
once per class, then `trmm` or `gemm`).  Solving with `trtrs` instead was
no faster on the benchmark's `spd_solve` levels and changes their
solution bytes, and the indefinite kernel's W form (triangular solves,
no `trtri`) made their summed factor 6-19% slower (ROADMAP item 2).
The cavity shifts' 8-column block solves took 0.7-1.0 / 1.2-1.9 ms a
column, against 2.2-3.6 / 3.9-5.8 ms for one column.

All dense kernels come from `scipy.linalg`, so they share one OpenBLAS
build, the one scipy's wheel bundles (numpy bundles a second one, which
is left alone).  `factor` and every solve run them on one thread of that
build's pool (`_one_blas_thread`).  Most fronts hold a few dozen to a
few hundred pivots, and on them a second thread costs more than it
saves: on the benchmark's `spd_solve` Poisson ladders (shared 2-core
Xeon, ten alternating fresh-process pairs) the median pass took 3.15 s
with two threads and 2.55 s with one.  One thread also makes the factor
and its solutions the same bits whatever the pool's size: with the pool
at two threads they differ from the one-thread results in the last
digits.

Outside the dense kernels the factor is numpy bookkeeping, so each front
is assembled in as few passes over its entries as numpy allows.  The
representative's pivot rows are classified once per distinct column, not
per entry: in the pivot box, outside the box (the shell), or inside a
child's subtree and dropped.  A child's update goes into the front by one
slice add per pair of runs along which the child's and the front's
positions both step by one, where the blocks are large, and otherwise by
one indexed add whose values are read as slices where they are
contiguous (`_extend_add`); either way every entry takes one add per
child in the same order, so the fronts keep their bits.  Other instances'
rows are compared in the order they sit in A.

Memory follows the factor.  Besides A and the stored factor, the set-up
keeps one key and one rank per unknown and one lookup entry per grid
slot, int32 where they fit; the rows of a class's instances are verified
a slice of at most n entries at a time; and each front is assembled in
Fortran order, so that LAPACK and BLAS factor it in place and its pivot
rows become the stored factor without a copy.
On the 2D r=1 N=512 Poisson system (28 MiB of matrix, 25 MiB of factor)
the traced peak of `factor` above its input is 43 MiB.
"""

import contextlib
import ctypes
import functools
import heapq
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import blas, lapack


# A pivot below this fraction of its front diagonal marks the front
# numerically singular.  The study systems' smallest measured 0.1 (3D
# r = 5 Poisson) and the singular GradGrad without boundary conditions
# left 7e-16 to 2e-12, which a positive rounding error lets potrf pass.
_SINGULAR = np.sqrt(np.finfo(float).eps)


# A front that passes an update on, with an indefinite pivot block whose
# estimated reciprocal condition number (`sycon`) is below this, is left to
# a pivoting factor: its update would grow by about the inverse.  On the
# benchmark's cavity shifts the smallest such value was 1.5e-4 (Q-_2 N=8);
# a shift 1e-6 above the S-_2 N=4 eigenvalue 2.001 pi^2 left 3e-7, one at
# an eigenvalue of a leaf's own pencil 1e-16.
_ILL_CONDITIONED = np.sqrt(np.finfo(float).eps)


# Boxes expected to hold at most this many unknowns (their lattice
# positions times the lattice's unknowns per position) are leaves: one
# dense front costs less there than the classes splitting it would add.
# Against splitting down to single cells it factored the Poisson levels of
# the benchmark 10-50% faster (3D r=3 N=4: 21 -> 9 ms, 2D r=1 N=512:
# 0.26 -> 0.23 s) and halved the 2D solves; 128 and 256 were slower on
# some levels.
_LEAF = 64


# A child's update goes into its parent's front by slices where its runs
# of rows and columns (`_extend_add`) give blocks of at least this many
# entries on average, and by one indexed add otherwise.  Warm, np.add.at
# cost 9-11 ns per entry with its index and copies, and a slice add 2.2 us
# plus 1.7 ns per entry (numpy 2.4, 2-core Xeon), even near 300 entries a
# block; inside the factor, with cold updates, the slice add won only from
# about a thousand.  Cutoffs of 1024 to 8192 were within run-to-run
# spread of each other on the benchmark's Poisson levels, 512 was 10-20%
# slower, and never slicing up to 10% slower.
_SLICE = 4096


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


class _Refused(Exception):
    """The multifrontal factor does not apply: an instance of a box class
    differs from the class representative, or an indefinite pivot block is
    singular or ill-conditioned."""


def _split(lo, hi):
    """How nested dissection splits the lattice box [lo, hi].

    Returns the split axis, the splitting plane and the (low half, high
    half) child boxes, or None for a leaf.  Boxes are keyed by their
    bounds shifted by an even amount so that every lower bound is 0 or 1:
    an even shift moves the splitting planes along with the box, so boxes
    of one key are split alike.
    """
    # in Python ints: on arrays of two or three entries numpy's per-call
    # cost set the time of a tree of a few hundred boxes
    lo, hi = [int(v) for v in lo], [int(v) for v in hi]
    plane = [2 * ((l + h + 2) // 4) for l, h in zip(lo, hi)]  # the even value nearest the middle
    inside = [a for a, (l, c, h) in enumerate(zip(lo, plane, hi)) if l < c < h]
    if not inside:
        return None
    a = max(inside, key=lambda a: hi[a] - lo[a])  # the first longest
    p = plane[a]
    halves = []
    for start, stop in ((lo[a], p - 1), (p + 1, hi[a])):
        clo, chi = list(lo), list(hi)
        shift = start - start % 2
        clo[a], chi[a] = start - shift, stop - shift
        halves.append((tuple(clo), tuple(chi)))
    return a, p, tuple(halves)


def _top_box(lattice):
    """Even shift of the lattice and its bounding box closed on even planes."""
    # one column at a time: a reduction along axis 0 of an (m, n) array
    # took 15x as long on m = 263,169
    lo = np.array([column.min() for column in lattice.T])
    lo = lo - lo % 2
    hi = np.array([column.max() for column in lattice.T]) - lo
    return lo, ((0,) * len(lo), tuple((hi + hi % 2).tolist()))


def _tree(top, leaf):
    """The box classes under `top`, every child before its parents, walked
    once from the top down.

    Returns a list of (box, pivot lo, pivot hi, [(child, shift), ...],
    corners, parents), the pivot box being the whole box for a leaf and
    the splitting plane otherwise; a child's shift is its lower corner in
    the box's coordinates, `corners` the lower corner of every instance
    of the box, (instances, n), and `parents` the number of halves that
    name it.  Only the two halves of a split are tree nodes, and a box of
    at most `leaf` lattice positions is a leaf.  Boxes are taken by
    descending (volume, box), so every parent, being larger, has added its
    instances to a box before the box is taken.
    """
    def rank(box):  # descending (volume, box) first on heapq's ascending order
        return -_volume(box), tuple(-v for v in box[0] + box[1]), box

    corners, parents = {top: [np.zeros((1, len(top[0])), dtype=np.int64)]}, {top: 0}
    todo, tree = [rank(top)], []
    while todo:
        box = heapq.heappop(todo)[-1]
        lo, hi = list(box[0]), list(box[1])
        split = _split(lo, hi) if _volume(box) > leaf else None
        halves = []
        if split is not None:
            a, p, (low, high) = split
            shift = np.zeros(len(lo), dtype=np.int64)
            shift[a] = p  # the low half starts at the box's corner
            halves = [(low, 0 * shift), (high, shift)]
            lo[a] = hi[a] = p
        off = np.concatenate(corners.pop(box))
        for child, shift in halves:
            if child not in parents:
                corners[child], parents[child] = [], 0
                heapq.heappush(todo, rank(child))
            corners[child].append(off + shift)
            parents[child] += 1
        tree.append((box, np.array(lo), np.array(hi), halves, off, parents[box]))
    return tree[::-1]


def _volume(box):
    """Lattice positions in the box."""
    return math.prod(h - l + 1 for l, h in zip(*box))


class _Front(NamedTuple):
    """One factored class over all its instances: the pivot and shell
    index arrays, the factor `Linv` of the pivot block F11, the block
    `L21t` that eliminates the shell, and `ipiv`.  The Cholesky kernel
    stores the inverse L^-1 of F11 = L L^T and L21^T = L^-1 F12, and
    `ipiv` is None; the indefinite kernel stores `sytrf`'s packed
    Bunch-Kaufman factor of F11, W = F11^-1 F12 and `sytrf`'s pivot
    indices `ipiv`."""

    pivots: np.ndarray
    shell: np.ndarray
    Linv: np.ndarray
    L21t: np.ndarray
    ipiv: np.ndarray | None = None


def _gather(X, index):
    """The entries `index` (instances x points) of the vector X, or its
    rows of the (n, k) block X, as one (points, instances * k) matrix:
    column `i * k + j` holds instance i and column j of X."""
    rows = X[index.T]
    return rows.reshape(len(rows), -1)


def _scatter(X, index, Y):
    """X[index] = Y, for Y laid out as `_gather` returns X[index]."""
    X[index.T] = Y.reshape(index.T.shape + X.shape[1:])


def _subtract(X, index, Y):
    """X[index] -= Y, for Y laid out as `_gather` returns X[index]; where
    instances share a point, they subtract in instance order."""
    ninst, s = index.shape
    at = index.ravel()
    if X.ndim == 2:  # an index per entry: ufunc.at's fast path is 1-D only
        at = (at[:, None] * X.shape[1] + np.arange(X.shape[1])).ravel()
    np.subtract.at(X.reshape(-1), at,
                   Y.reshape((s, ninst) + X.shape[1:]).swapaxes(0, 1).reshape(-1))


class MultifrontalFactor:
    """A verified multifrontal factor; call it to solve A x = b.

    `b` is one right-hand side of shape (n,) or a block of shape (n, k);
    each class takes one product over all its instances and columns.
    `classes` counts the distinct factored fronts and `nodes` the tree
    boxes that have pivots, summed over all instances.  `stored` counts
    the values the factor holds, `Linv` and `L21t` of each class (L^-1
    and L21^T, or `sytrf`'s factor and W; pivot indices are not values),
    and `per_instance` the values a factor that stored every instance of
    a class would hold.
    """

    def __init__(self, fronts):
        self.fronts = fronts
        self.classes = len(fronts)
        self.nodes = sum(len(f.pivots) for f in fronts)
        sizes = [f.Linv.size + f.L21t.size for f in fronts]
        self.stored = sum(sizes)
        self.per_instance = sum(size * len(f.pivots) for size, f in zip(sizes, fronts))

    def __call__(self, b):
        x = np.array(b, dtype=np.float64, order="C")  # its rows are `_subtract`'s
        with _one_blas_thread():
            for f in self.fronts:  # forward, children first
                Y = _gather(x, f.pivots)
                if f.ipiv is None:  # L y = b_p
                    Y = blas.dgemm(1.0, f.Linv, Y)
                    _scatter(x, f.pivots, Y)
                else:  # F11 y = b_p
                    _scatter(x, f.pivots, lapack.dsytrs(f.Linv, f.ipiv, Y, lower=1)[0])
                if f.shell.size:  # b_s -= L21 y = (L^-1 F12)^T y, or W^T b_p
                    _subtract(x, f.shell, blas.dgemm(1.0, f.L21t, Y, trans_a=1))
            for f in reversed(self.fronts):  # backward, parents first
                Z = _gather(x, f.pivots)
                if f.shell.size:  # y - L21^T x_s, or F11^-1 b_p - W x_s
                    Z = blas.dgemm(-1.0, f.L21t, _gather(x, f.shell), beta=1.0, c=Z,
                                   overwrite_c=1)
                if f.ipiv is None:  # L^T x = y - L21^T x_s
                    Z = blas.dgemm(1.0, f.Linv, Z, trans_a=1)
                _scatter(x, f.pivots, Z)
        return x


def factor(A, lattice, indefinite=False):
    """Multifrontal factor of the symmetric matrix A on `lattice`.

    `A` is a square CSR matrix whose unknown i sits at lattice position
    `lattice[i]` (doubled-lattice coordinates, as in `GlobalDofMap.lattice`).
    Duplicates are summed on a copy, though every trimfem caller passes a
    canonical matrix: a system's, or a difference of two.  An SPD matrix
    takes the Cholesky kernel; an `indefinite` one, such as a shifted pencil
    A - sigma M, LAPACK's Bunch-Kaufman factor in each front (`_indefinite_front`).
    A lattice that is not a 2-D integer array of at least one column and one
    row per unknown raises a ValueError, the package's one rule on lattices.
    Returns a `MultifrontalFactor`, or None only for an empty A, where its
    classes do not hold for A (see the module docstring) or where an
    indefinite pivot block is singular or ill-conditioned.  A Cholesky front
    that is not positive definite raises a RuntimeError (box, sizes).
    """
    lattice = np.asarray(lattice)
    n = A.shape[0]
    if lattice.ndim != 2 or not lattice.shape[1] or lattice.dtype.kind not in "iu":
        raise ValueError(f"a lattice of shape {lattice.shape} and dtype {lattice.dtype} "
                         f"is not a 2-D integer array of at least one column")
    if len(lattice) != n:
        raise ValueError(f"a lattice of {len(lattice)} positions does not fit a matrix of size {n}")
    if n == 0:
        return None
    lattice = lattice.astype(np.int64, copy=False)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    try:
        with _one_blas_thread():
            return MultifrontalFactor(_fronts(A, lattice, indefinite))
    except _Refused:
        return None


def _indefinite_front(Y, F22, p):
    """The Bunch-Kaufman factor and pivots of F11, W = F11^-1 F12 and the
    update F22 - F12^T W of the front [F11 | F12] = Y, F22.

    `sytrf` factors F11 = P L D L^T P^T over F11 (Math. Comp. 31, 1977),
    with 1 x 1 and 2 x 2 blocks in D, and `sytrs` applies its inverse: W
    is written over F12, so the factor and W are Y itself.  An exactly
    singular F11 raises `_Refused`.  So does a front with a shell whose
    F11 has an estimated reciprocal condition number (`sycon`) below
    `_ILL_CONDITIONED`, as its update would grow by about its inverse.
    """
    F11, F12 = Y[:, :p], Y[:, p:]
    anorm = np.abs(F11).sum(axis=0).max()  # the 1-norm of the symmetric F11
    lwork, _ = lapack.dsytrf_lwork(p, lower=1)
    ldu, ipiv, info = lapack.dsytrf(F11, lower=1, lwork=int(lwork), overwrite_a=1)
    rcond = 1.0
    if not info and F12.size:
        rcond, info = lapack.dsycon(ldu, ipiv, anorm, lower=1)
    if info or not rcond >= _ILL_CONDITIONED:
        raise _Refused
    if not F12.size:
        return ldu, ipiv, F12, F22
    W, _ = lapack.dsytrs(ldu, ipiv, F12, lower=1)
    U = blas.dgemm(-1.0, F12, W, beta=1.0, c=F22, trans_a=1, overwrite_c=1)
    F12[...] = W
    return ldu, ipiv, F12, U


def _distinct(keys):
    """The distinct values of `keys`, ascending (np.unique took 2-5x as
    long on these arrays)."""
    keys = np.sort(keys)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


def _breaks(src, dst):
    """Where the runs along which `src` and `dst` both step by one start,
    the first excepted."""
    return ((((src[1:] - src[:-1]) != 1) | ((dst[1:] - dst[:-1]) != 1)).nonzero()[0]
            + 1).tolist()


def _extend_add(T, rows, U, urows, cols=None, ucols=None):
    """T[rows[i], cols[j]] += U[urows[i], ucols[j]] for every i and j.

    `cols` and `ucols` default to `rows` and `urows`.  `urows` and `ucols`
    ascend, and no position of T is hit twice, so each entry of T takes
    one add whichever way it is made: by one slice add per pair of runs
    (`_breaks`) where the blocks hold `_SLICE` entries on average, else by
    one indexed add over all of them.
    """
    square = cols is None
    if square:
        cols, ucols = rows, urows
    size = len(rows) * len(cols)
    if size >= _SLICE:
        rb = _breaks(urows, rows)
        cb = rb if square else _breaks(ucols, cols)
        if size >= _SLICE * (len(rb) + 1) * (len(cb) + 1):
            rb, cb = [0] + rb, [0] + cb
            cblocks = list(zip(cols[cb].tolist(), ucols[cb].tolist(),
                               np.diff(cb + [len(cols)]).tolist()))
            for t, u, k in zip(rows[rb].tolist(), urows[rb].tolist(),
                               np.diff(rb + [len(rows)]).tolist()):
                Tr, Ur = T[t:t + k], U[u:u + k]
                for tc, uc, kc in cblocks:
                    Tr[:, tc:tc + kc] += Ur[:, uc:uc + kc]
            return
    # the values in the order of T's entries: U^T's rows ucols and columns
    # urows, a slice where they are one run and taken otherwise
    Ut = (U.T[ucols[0]:ucols[-1] + 1] if ucols[-1] - ucols[0] == len(ucols) - 1
          else U.T.take(ucols, axis=0))
    Ut = (Ut[:, urows[0]:urows[-1] + 1] if urows[-1] - urows[0] == len(urows) - 1
          else Ut.take(urows, axis=1))
    np.add.at(T.T.reshape(-1), (rows + T.shape[0] * cols[:, None]).ravel(), Ut.ravel())


def _fronts(A, lattice, indefinite):
    """The factored fronts of A by the Cholesky or the `indefinite`
    kernel, children first; raises `_Refused` where an instance differs
    from its class representative."""
    n = len(lattice)
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
    lin = sum((x - (o - 1)) * g for x, o, g in zip(lattice.T, origin, gstride))
    lin = lin.astype(_int_type(ncell))
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
    grid = table.reshape(tuple(gshape) + (nslot,))
    rank = np.empty(n, dtype=_int_type(n))  # of a column among a box's columns

    def dofs(base, keys):
        """Global indices of the DOFs at relative `keys` in every instance."""
        idx = table.take(base[:, None] + keys)
        if np.count_nonzero(idx < 0):
            raise _Refused
        return idx

    shells, updates, fronts, covered = {}, {}, [], []
    for box, plo, phi, halves, off, parents in _tree(top, _LEAF * np.prod(gshape - 2) / n):
        base = ((off + 1) @ gstride * nslot).astype(dkey.dtype)  # corner keys
        lo, hi = np.array(box[0]), np.array(box[1])
        live = [(child, int(shift @ gstride) * nslot) for child, shift in halves
                if child in shells]

        # the pivots: the representative's DOFs in the pivot box, in key
        # order, read off the grid of `table`
        corner = off[0] + 1  # of the representative, in grid cells
        pivots = grid[tuple(map(slice, corner + plo, corner + phi + 1))]
        pivots = pivots[pivots >= 0]
        p = len(pivots)
        if not p and not live:
            continue  # an empty subtree
        pkeys = dkey.take(pivots) - base[0]
        pivots = dofs(base, pkeys)
        covered.append(pivots.ravel())

        # the pivot rows of the representative: the distinct columns
        # `ucols` they reach, at relative keys `ukeys`, and each entry's
        # rank among them.  Those of every other instance are compared
        # with them, in slices of instances that gather at most n entries
        # at a time, taken in the order of their rows in A (a third faster
        # than tree order on the 2D r=1 N=512 leaves).
        first = A.indptr.take(pivots)
        lens = A.indptr.take(pivots + 1) - first
        lens0 = lens[0]
        row = np.arange(p).repeat(lens0)
        at = (first[0] - lens0.cumsum() + lens0).repeat(lens0) + np.arange(len(row))
        cols, vals = A.indices.take(at), A.data.take(at)
        ucols = _distinct(cols)
        rank[ucols] = np.arange(len(ucols))
        inv = rank.take(cols)
        ukeys = dkey.take(ucols) - base[0]
        if p and len(off) > 1:
            if np.count_nonzero(lens != lens0):
                raise _Refused
            within = at - first[0].take(row)
            ckeys, ivals = ukeys[inv], vals.view(np.int64)
            step = max(1, n // max(len(row), 1))
            others = first[1:, 0].argsort() + 1
            for i in range(0, len(others), step):
                some = others[i:i + step]
                at = first[some].take(row, axis=1) + within
                if (np.count_nonzero(dkey.take(A.indices.take(at)) - base[some, None] != ckeys)
                        or np.count_nonzero(A.data.take(at).view(np.int64) != ivals)):
                    raise _Refused
        pos = lattice.take(ucols, axis=0) - (origin + off[0])
        if np.count_nonzero((pos < -1) | (pos > hi + 1)):
            raise _Refused  # a coupling beyond the cells around the box

        # the shell: what the rows and the children's shells reach outside
        # the box; a child's shell point inside it lies on the plane
        outside = ((pos < lo) | (pos > hi)).any(axis=1)
        reach, planes = [ukeys[outside]], []
        for child, d in live:
            k = shells[child] + d
            j = pkeys.searchsorted(k)
            on = pkeys[np.minimum(j, p - 1)] == k if p else np.zeros(len(k), bool)
            b = (~on).nonzero()[0]
            reach.append(k[b])
            planes.append((j, on.nonzero()[0], b, reach[-1]))
        skeys = _distinct(np.concatenate(reach))
        s = len(skeys)

        # assemble the front in Fortran order, as its pivot rows Y = [F11 |
        # F12] and its shell block F22 (F21 = F12^T is never formed): the
        # pivot rows of A, on the columns in the pivot box or outside the
        # box, then the children's updates U (`_extend_add`).  The front
        # lists the pivots, then the shell, each in key order.  LAPACK and
        # BLAS then work in place, and Y becomes [L^-1 | L21^T] or
        # [sytrf's factor | W].
        column = pkeys.searchsorted(ukeys)  # a column's place in the front,
        column[pkeys.take(column, mode="clip") != ukeys] = -1  # -1 if dropped
        column[outside] = skeys.searchsorted(reach[0]) + p
        flat = column.take(inv) * p + row  # Y's entry in Fortran order, < 0 if none
        kept = flat >= 0
        Y = np.zeros((p, p + s), order="F")
        F22 = np.zeros((s, s), order="F")
        Y.T.reshape(-1).put(flat[kept], vals[kept])
        for (child, _), (idx, a, b, kb) in zip(live, planes):
            idx[b] = skeys.searchsorted(kb) + p  # the child's shell in the front
            U, left = updates.pop(child)  # freed after its last parent
            if len(a):
                _extend_add(Y, idx[a], U, a, idx, np.arange(len(idx)))
            if len(b):
                _extend_add(F22, idx[b] - p, U, b)
            if left > 1:
                updates[child] = U, left - 1

        U, ipiv = F22, None
        if p and indefinite:  # Linv and L21t: sytrf's factor and W
            Linv, ipiv, L21t, U = _indefinite_front(Y, F22, p)
        elif p:
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
        if p:
            fronts.append(_Front(pivots, dofs(base, skeys), Linv, L21t, ipiv))
        if s and parents:
            shells[box], updates[box] = skeys, (U, parents)

    if not covered or (np.bincount(np.concatenate(covered), minlength=n) != 1).any():
        raise _Refused
    return fronts
