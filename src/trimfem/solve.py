"""Direct solvers and eigensolvers for the assembled systems.

Source problems use a direct factorization with iterative refinement;
the cavity eigenproblem uses one eigen path at every size, a block
shift-invert Lanczos in the M inner product (`_block_lanczos`, after
Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15(1), 1994), whose cost
is mostly block solves with the factored shift A - sigma M, and keeps the
pairs of smallest Cayley magnitude |lambda - sigma| / |lambda + sigma|,
so the curl-curl gradient kernel at zero cannot crowd out eigenvalues on
the far side of the shift sigma.  It computes fewer pairs than the
pencil has unknowns, so at most n - 1 pairs of an n-unknown pencil come
back, and a shift that is an eigenvalue raises at every size.  One rule,
`clusters`, tells which eigenvalues are copies of one degenerate
eigenvalue, for the eigensolver and for the cavity report.  The
shifted pencil of a system with a lattice is factored by the multifrontal
Bunch-Kaufman kernel (`multifrontal.factor` with `indefinite`), any other
by SuperLU; both solve 8-column blocks.

An SPD system that carries the lattice of its unknowns (every assembled
square operator, see `SparseSystem.lattice`) is factored by the
multifrontal Cholesky of `multifrontal.factor`: dense float64 fronts on
the geometric nested-dissection tree, each class of identical subtrees
factored once.  On the benchmark's Poisson levels its solutions meet the
gate after at most one correction, or reach the rounding floor after two.

A mixed Poisson system (`assemble_mixed_poisson`) takes the same
Cholesky: its pressure space is discontinuous, so K = M + gamma B^T W^-1 B
is SPD and scattered from one cell block, and augmented-Lagrangian Uzawa
steps (Fortin & Glowinski, Augmented Lagrangian Methods, 1983; Brenner &
Scott's iterated penalty method) solve the saddle system on one factor of
K: the solve is one step (`_uzawa`), each refinement correction the next.
gamma is one constant (`assemble._GAMMA`), so the steps do not grow with N.

Every factor comes from `_solver`: multifrontal on a lattice whose classes
hold, SuperLU in COLAMD order (`_factor`) otherwise; `multifrontal.factor`
alone rules on the lattice.  The SPD and saddle solves are one routine,
`_direct_solve`, and the system picks the route: `augmented` blocks lead
to Uzawa steps on K, a lattice to the multifrontal factor, none to
SuperLU.  It checks its inputs before any factor, factors once, refines
(`_refine`), gates the relative residual and expands the solution.

The factorizations, solves and eigensolves run their BLAS on one thread
of scipy's OpenBLAS pool (`multifrontal._one_blas_thread`), so their
results are the same bits whatever the pool's size: with the pool at two
threads, the Q-_2 N=8 cavity's eigenvalues differ in the last digits.
Where scipy's BLAS exports no pool control the scope does nothing, and
the guarantee is untested there.
"""

import time
from numbers import Integral

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from . import multifrontal
from .assemble import SparseSystem


class EigenResult:
    """Eigenpairs of A x = lambda M x, ascending, with residual norms.

    `residuals[i]` is ||A x - lambda M x|| / ||x|| scaled by the operator
    norms, so a converged pair sits at or below the solver tolerance
    regardless of the mesh scaling of A and M.  Clustered eigenvalues are
    kept as individual entries; multiplicity counting happens only in
    reports.  `op_count` counts the right-hand-side columns solved with
    the factored shift, over all block solves, and `op_time` is the wall
    time inside those solves.
    """

    def __init__(self, eigenvalues, eigenvectors, residuals, op_count, op_time):
        order = np.argsort(eigenvalues)
        self.eigenvalues = np.asarray(eigenvalues)[order]
        self.eigenvectors = np.asarray(eigenvectors)[:, order]
        self.residuals = np.asarray(residuals)[order]
        self.op_count = op_count  # columns solved with the factored shift
        self.op_time = op_time  # wall time inside those solves

    def __len__(self):
        return len(self.eigenvalues)


def _check_symmetric(A, stage):
    """Raise unless A's entries are finite and max |A - A^T| <= 1e-12 max |A|,
    at any scale of A; the errors name the `stage`.

    A matrix with a symmetric pattern, as every assembled one has, is
    compared with its transpose value by value, in the transpose's own
    array; any other takes the subtraction A - A^T, whose union pattern
    costs a third matrix.
    """
    if not A.nnz:
        return
    scale = max(A.data.max(), -A.data.min())  # max |A| without an |A| copy
    if not np.isfinite(scale):  # before inf - inf makes a NaN
        raise ValueError(f"{stage}: the matrix has an entry that is not finite")
    T = A.T.tocsr()  # the transpose, with sorted indices
    if np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices):
        d = np.subtract(T.data, A.data, out=T.data)
    else:
        d = (A - T).data
    if d.size and np.abs(d, out=d).max() > 1e-12 * scale:
        raise ValueError(f"{stage}: matrix is not symmetric")


def _factor(A, stage):
    """Solve function of one SuperLU factorization of the square matrix A.

    SuperLU orders A by COLAMD and pivots by its default threshold.  It
    factors only what the multifrontal factor cannot (`_solver`): a matrix
    without a lattice, one or a mixed system's K whose lattice classes do
    not hold, and a cavity shift with a singular or ill-conditioned front.
    On the cavity shifts COLAMD stores 1.6-2.4x the fill of the
    multifrontal tree's postorder (S-_2 N=8 3.49 M against 1.89 M, Q-_2
    N=8 9.68 M against 4.02 M; scipy 1.17.1).
    A failed factorization raises an error naming the `stage` and the sizes.
    """
    try:
        return spla.splu(A.tocsc(), permc_spec="COLAMD").solve
    except RuntimeError as err:
        raise RuntimeError(
            f"{stage} failed (matrix size {A.shape[0]}, nnz {A.nnz}): {err}"
        ) from err


def _solver(A, lattice, stage, indefinite=False):
    """Solve function of the symmetric matrix A, and its factor's name:
    `multifrontal.factor` on a lattice (`indefinite`: Bunch-Kaufman fronts),
    else, or where that returns None, SuperLU (`_factor`).  Both solve
    blocks.  A lattice that `multifrontal.factor` cannot read raises its
    error, with the `stage` put in front."""
    if lattice is not None:
        try:
            solve = multifrontal.factor(A, lattice, indefinite=indefinite)
        except ValueError as err:
            raise ValueError(f"{stage}: {err}") from err
        if solve is not None:
            return solve, "multifrontal"
    return _factor(A, stage), "SuperLU"


def _finite_positive(value):
    """Whether `value` is a finite positive number, not a bool (numpy's too)."""
    return not isinstance(value, (bool, np.bool_)) and np.isfinite(value) and value > 0


def _check_tol(tol):
    """Raise unless `tol` is `_finite_positive`: NaN and inf pass anything."""
    if not _finite_positive(tol):
        raise ValueError(f"tol={tol}: the tolerance must be finite and positive")


def _check_nev(nev):
    """`nev` as a Python int; raise unless it is an integer (numpy integers
    too, not a bool) of at least 1."""
    if isinstance(nev, bool) or not isinstance(nev, Integral):
        raise ValueError(f"nev={nev}: the number of eigenpairs must be an integer")
    if nev < 1:
        raise ValueError(f"nev={int(nev)}: request at least one eigenpair")
    return int(nev)


def _refine(A, b, bnorm, solve, tol):
    """Iterative refinement of `solve(b)` with float64 residuals on A.

    Corrects until the residual relative to `bnorm` = ||b|| meets `tol` or
    a correction fails to halve it, and returns the best iterate, its
    relative residual and the number of corrections.  Each residual's
    norm is one call to scipy's `dnrm2`: on 263,169 entries numpy's
    threaded dot took 4-8 ms a call against 0.2 ms (2-core Xeon).
    """
    x = solve(b)
    r = b - A @ x
    rnorm = blas.dnrm2(r)
    res = rnorm / bnorm
    steps = 0
    while not res <= tol:
        y = x + rnorm * solve(r / rnorm)
        s = b - A @ y
        snorm = blas.dnrm2(s)
        new = snorm / bnorm
        steps += 1
        if not new < res:
            break
        halved = new <= res / 2
        x, r, rnorm, res = y, s, snorm, new
        if not halved:
            break
    return x, res, steps


def _uzawa(augmented, solve_K):
    """Solve function of one augmented-Lagrangian Uzawa step from p = 0 on
    [[M, B^T], [B, 0]], with `augmented` = (K, B, W^-1, gamma) and `solve_K`
    solving with K: u = K^-1 (f + gamma B^T W^-1 g), p = gamma W^-1 (B u - g)
    for the right-hand side (f, g).  Its flux residual is zero in exact
    arithmetic, so a refinement correction (`_refine`) is the next Uzawa
    update, and the refinement's stop rule ends the iteration.
    """
    _, B, Winv, gamma = augmented
    m = B.shape[1]

    def solve(b):
        f, g = b[:m], b[m:]
        u = solve_K(f + gamma * (B.T @ (Winv @ g)))
        return np.concatenate([u, gamma * (Winv @ (B @ u - g))])

    return solve


@multifrontal._one_blas_thread()  # the same bits at any pool size
def _direct_solve(system: SparseSystem, tol, stage):
    """Solve the symmetric `system` to a relative residual `tol`.

    A system with `augmented` blocks takes Uzawa steps on the factor of
    its K (`_uzawa`), any other is factored on its lattice, if it has one
    (`_solver`); the solve is refined (`_refine`).  A matrix that is not
    square, and a matrix or right-hand side with an entry that is not
    finite, raise a ValueError naming the `stage` before any factor; a
    residual above `tol` raises a RuntimeError that gives the refinement
    steps taken, the factor and the rounding floor eps ||A| |x|| / ||b||.
    A zero right-hand side, or a system without unknowns, takes no factor.

    Returns the full-length coefficient vector (zeros on eliminated DOFs).
    """
    _check_tol(tol)
    A = system.matrix
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{stage}: a matrix of shape {A.shape} is not square")
    b = system.rhs
    if b is None:
        raise ValueError(f"{stage}: the system has no right-hand side for its "
                         f"matrix of size {A.shape[0]}")
    if np.shape(b) != (A.shape[0],):
        raise ValueError(f"{stage}: right-hand side of shape {np.shape(b)} does not fit "
                         f"a matrix of size {A.shape[0]}")
    _check_symmetric(A, stage)
    bnorm = blas.dnrm2(b) if len(b) else 0.0  # dnrm2 refuses an empty vector
    if not np.isfinite(bnorm):
        raise ValueError(f"{stage}: the right-hand side has an entry that is not finite")
    if bnorm == 0.0:
        return system.expand(np.zeros(A.shape[0]))
    if system.augmented is None:
        solve, factor = _solver(A, system.lattice, stage)
    else:
        K = system.augmented[0]
        solve, factor = _solver(K.matrix, K.lattice, stage)
        solve, factor = _uzawa(system.augmented, solve), f"{factor} augmented-Lagrangian"
    x, res, steps = _refine(A, b, bnorm, solve, tol)
    del solve  # frees the factor before the floor's |A|, a copy of A (2D N=512: 28 MiB)
    if not np.isfinite(res) or res > tol:
        floor = np.finfo(float).eps * np.linalg.norm(abs(A) @ np.abs(x)) / bnorm
        raise RuntimeError(
            f"solver residual {res:.3e} exceeds tolerance {tol:.1e} after "
            f"{steps} refinement steps on a {factor} factor; rounding "
            f"floor eps*||A||x||/||b|| = {floor:.1e} "
            f"(matrix size {A.shape[0]}, nnz {A.nnz})"
        )
    return system.expand(x)


def solve_spd(system: SparseSystem, tol=1e-12) -> np.ndarray:
    """Solve a symmetric positive definite system to a relative residual
    (`_direct_solve`).

    Returns the full-length coefficient vector (zeros on eliminated DOFs).
    """
    return _direct_solve(system, tol, "sparse factorization")


def solve_saddle(system: SparseSystem, tol=1e-12):
    """Solve an assembled mixed system to a relative residual by Uzawa
    steps on the factor of its K (`_direct_solve`); SuperLU factors one
    reduced by `apply_dirichlet`, which keeps no blocks and no lattice.

    Returns one full-length stacked vector (zeros on eliminated DOFs),
    flux coefficients first; callers split it at the flux space dimension
    they assembled with.
    """
    return _direct_solve(system, tol, "saddle factorization")


def _residual_norms(A, M, norms, vals, vecs):
    """||A x - lambda M x|| / ((||A|| + |lambda| ||M||) ||x||) per column x."""
    anorm, mnorm = norms  # the infinity norms of A and M
    # one contiguous row per pair, so a pair's norms do not depend on the
    # other pairs passed with it
    R = np.ascontiguousarray((A @ vecs - (M @ vecs) * vals).T)
    X = np.ascontiguousarray(vecs.T)
    scale = (anorm + np.abs(vals) * mnorm) * np.linalg.norm(X, axis=1)
    return np.linalg.norm(R, axis=1) / scale


# Columns of the first block solves.  A block Krylov space holds at most
# as many copies of a degenerate eigenvalue as the block has columns, so
# this is more than the 6 copies of the largest cavity cluster the
# benchmark asks for (5 pi^2); a result with a cluster of this many copies
# is computed again with twice the columns (`_block_lanczos`).
_BLOCK = 8

# Consecutive sorted eigenvalues within this relative distance of each
# other are copies of one degenerate eigenvalue (`clusters`).  Over 32
# `run_maxwell_eig` runs (both families, r = 1-2 at N = 2, 4, 8 and r = 3
# at N = 2, 4, nev 15 at 3 pi^2 and nev 40 at 12 pi^2) copies differed by
# at most 7.7e-12 relative and distinct eigenvalues by at least 1.9e-5.
_COPIES = 1e-8

# The basis may grow to _PER_PAIR (k + 2 _BLOCK) columns for k computed
# pairs, and to at most n, before the eigensolve gives up.  On the r = 2
# N=4 cavities at 3 pi^2 one pair took 24-32 columns, 3 pairs 64, 15
# pairs 96-104 and 101 pairs 400-432; over every nev from 1 to 101 the
# basis never passed 0.47 of 10 (k + 16), against 0.71 of the cap
# max(160, 10 k) this rule replaced.
_PER_PAIR = 10

# Ritz values at least this many times all the others' are locked
# (`_block_lanczos`): H's eigensolver resolves the others only to about
# eps times the largest.  A Poisson pencil shifted 1e-14 from an eigenvalue
# did not converge without it.
_LOCK = 1e6

# The Gram matrix of a block resolves its directions only down to about
# sqrt(eps) of its largest, so those down to this fraction are appended to
# the basis first, and the rest after them (`_orthonormalize`).
_DEPENDENT = 1e-6


def clusters(values):
    """The copies in `values` as ascending (mean, count) pairs: the sorted
    values split where consecutive ones differ by more than `_COPIES`
    times their size.  No values give no pairs."""
    values = np.sort(values)
    ends = np.flatnonzero(np.diff(values) > _COPIES * np.abs(values[1:])) + 1
    return [(float(part.mean()), len(part)) for part in np.split(values, ends) if len(part)]


def _ritz_pairs(H, locked, m):
    """The Ritz values and vectors of H[:m, :m], whose first `locked`
    columns are decoupled Ritz vectors already."""
    theta, Q, _ = lapack.dsyevd(H[locked:m, locked:m], lower=1)
    S = np.zeros((m, m))
    S[:locked, :locked] = np.eye(locked)
    S[locked:, locked:] = Q
    return np.r_[H.diagonal()[:locked], theta], S


def _project_out(V, MV, F, MF):
    """F and MF less their M-projection on the basis V (MV = M V)."""
    if not V.shape[1]:
        return F, MF
    C = blas.dgemm(1.0, MV, F, trans_a=1)
    return (blas.dgemm(-1.0, V, C, beta=1.0, c=F, overwrite_c=1),
            blas.dgemm(-1.0, MV, C, beta=1.0, c=MF, overwrite_c=1))


def _normalized(F, MF):
    """The M-orthonormal directions of F, largest first, by the eigenvectors
    of its Gram matrix F^T M F, and their M products; those of M-norm at
    most `_DEPENDENT` of the largest are left out.  None when F is zero."""
    G = blas.dgemm(1.0, F, MF, trans_a=1)
    d, Q, _ = lapack.dsyevd((G + G.T) / 2)  # ascending
    if not d[-1] > 0:
        return None
    keep = (d > _DEPENDENT**2 * d[-1])[::-1]
    Q = Q[:, ::-1][:, keep] / np.sqrt(d[::-1][keep])
    return blas.dgemm(1.0, F, Q), blas.dgemm(1.0, MF, Q)


def _orthonormalize(V, MV, m, F, MF, M):
    """Append the block F, with MF = M F, to the M-orthonormal basis
    V[:, :m] and to MV = M V; returns the new number of basis columns.

    F comes M-orthogonal to the basis.  Its directions down to
    `_DEPENDENT` of its largest are made orthonormal (`_normalized`),
    projected out of the basis once more and made orthonormal again, and
    appended; MF follows these steps.  The Gram matrix resolves no smaller
    directions, so then F is projected out of the grown basis twice, what
    is left of it is multiplied by M again (the projection cancels most of
    MF) and appended the same way, until nothing was left out, V is full
    or F's width of columns was appended.
    """
    cap = min(V.shape[1], m + F.shape[1])  # a block adds at most its width
    while m < cap:
        new = _normalized(F, MF)
        if new is None:
            break
        N, MN = _normalized(*_project_out(V[:, :m], MV[:, :m], *new)) or new
        r = min(N.shape[1], cap - m)
        V[:, m:m + r], MV[:, m:m + r] = N[:, :r], MN[:, :r]
        m += r
        if new[0].shape[1] == F.shape[1]:
            break
        for _ in range(2):
            F, _ = _project_out(V[:, :m], MV[:, :m], F, MF)
        MF = np.asfortranarray(M @ F)
    return m


def _block_lanczos(solve, A, M, target, nev, tol):
    """The k = min(nev, n - 1) pairs of smallest Cayley magnitude by block
    shift-invert Lanczos in the M inner product (Grimes, Lewis & Simon,
    SIAM J. Matrix Anal. Appl. 15(1), 1994), as an `EigenResult`.

    The M-orthonormal basis V starts from T X for a fixed random block X
    of `_BLOCK` columns and T = (A - target M)^-1 M, applied by `solve`:
    X itself would carry large components along eigenvalues near the
    target into the basis, which the solves' rounding then spreads
    (starting from X, targets 1e-8 and closer to the lowest N=4 cavity
    eigenvalue did not converge).  Each
    step solves W = T V_j for the newest block V_j, fills the block column
    of the Rayleigh-Ritz matrix H = V^T M W (and its row, by symmetry),
    projects V out of W twice and appends what is left, with one M product
    of the block (`_orthonormalize`).  The Ritz values theta of H give
    lambda = target + 1 / theta, ranked by |1 + 2 target theta| =
    |lambda + target| / |lambda - target|, the inverse Cayley magnitude,
    and the k best are the candidates.  The M-norm of the part of W
    outside V bounds each candidate's shift-invert residual; once every
    bound is within 10 tol |theta| (it read 3-5 times the true residual on
    the benchmark's cavities), the true scaled residuals
    (`_residual_norms`) decide, and all k at most `tol` end the run and
    are the result.  Converged Ritz values `_LOCK` times larger than all
    others (a target at an eigenvalue to rounding) are locked: their Ritz
    vectors replace the basis columns they span, with no couplings in H
    from then on, so that H's eigensolver resolves the others.
    A result with a cluster (`clusters`) of as many copies as the block
    has columns may lack further copies, so it is computed again from a
    block twice as wide.  A basis that reaches its column cap,
    `_PER_PAIR` (k + 2 `_BLOCK`) columns, or stops growing first raises.
    """
    n = A.shape[0]
    k = min(nev, n - 1)
    norms = (spla.norm(A, np.inf), spla.norm(M, np.inf))
    cap = min(_PER_PAIR * (k + 2 * _BLOCK), n)
    solved = [0, 0.0]  # columns and seconds

    def timed_solve(B):
        t0 = time.perf_counter()
        W = solve(np.asfortranarray(B))
        solved[0] += W.shape[1]
        solved[1] += time.perf_counter() - t0
        return np.asfortranarray(W)

    def room(V, MV, m, width):
        # V and MV with room for `width` columns after the first m, doubled
        # up to cap, the first m columns copied.  Allocated at the cap, a
        # freed basis raised glibc's mmap threshold, so later arrays stayed
        # on the heap: one `indefinite_solve` pass per seed 2-11 peaked at
        # 141-157 MiB, against 148-152 MiB sized by need (2-core Xeon)
        if V.shape[1] >= min(m + width, cap):
            return V, MV
        size = min(max(2 * V.shape[1], m + width), cap)
        grown = np.empty((n, size), order="F"), np.empty((n, size), order="F")
        grown[0][:, :m], grown[1][:, :m] = V[:, :m], MV[:, :m]
        return grown

    def run(width):
        empty = np.empty((n, 0), order="F")
        V, MV = room(empty, empty, 0, 4 * width)  # a few blocks to start
        H = np.zeros((cap, cap), order="F")
        # a fixed start block makes the result a function of the inputs
        F = timed_solve(M @ np.random.default_rng(0).standard_normal((n, width)))
        m = _orthonormalize(V, MV, 0, F, np.asfortranarray(M @ F), M)
        block, locked = slice(0, m), 0
        while True:
            W = timed_solve(MV[:, block])
            C = blas.dgemm(1.0, MV[:, :m], W, trans_a=1)
            H[:m, block], H[block, :m] = C, C.T
            H[:locked, block] = H[block, :locked] = 0.0  # see the locking below
            theta, S = _ritz_pairs(H, locked, m)
            ranked = np.argsort(-np.abs(1 + 2 * target * theta), kind="stable")[:k]
            F = blas.dgemm(-1.0, V[:, :m], C, beta=1.0, c=W, overwrite_c=1)
            F = blas.dgemm(-1.0, V[:, :m], blas.dgemm(1.0, MV[:, :m], F, trans_a=1),
                           beta=1.0, c=F, overwrite_c=1)  # twice, as for every block
            MF = np.asfortranarray(M @ F)
            # the M-norm of F s_j for the block's rows s_j of each Ritz vector
            Sj = S[block]
            bound = np.sqrt(np.maximum((Sj * blas.dgemm(
                1.0, blas.dgemm(1.0, F, MF, trans_a=1), Sj)).sum(axis=0), 0.0))
            V, MV = room(V, MV, m, F.shape[1])
            grown = _orthonormalize(V, MV, m, F, MF, M) if m < cap else m
            if grown == m or (len(ranked) == k and (
                    bound[ranked] <= 10 * tol * np.abs(theta[ranked])).all()):
                vals = target + 1 / theta[ranked]
                vecs = blas.dgemm(1.0, V[:, :m], S[:, ranked])
                residuals = _residual_norms(A, M, norms, vals, vecs)
                if len(ranked) == k and (residuals <= tol).all():
                    return vals, vecs, residuals
                if grown == m:
                    raise RuntimeError(
                        f"eigensolver did not converge for {nev} pairs near {target} "
                        f"(size {n}); partial results: "
                        f"{np.count_nonzero(residuals <= tol)} pairs")
            # lock the converged Ritz pairs above the first gap of _LOCK
            free = np.argsort(-np.abs(theta[locked:])) + locked
            mag = np.abs(theta[free])
            gap = np.flatnonzero(mag[:-1] >= _LOCK * mag[1:])
            if len(gap) and (bound[free[:gap[0] + 1]] <= 1e-2 * tol * mag[:gap[0] + 1]).all():
                R = S[locked:m, free]
                V[:, locked:m] = blas.dgemm(1.0, V[:, locked:m], R)
                MV[:, locked:m] = blas.dgemm(1.0, MV[:, locked:m], R)
                H[locked:m, locked:m] = np.diag(theta[free])
                locked += gap[0] + 1
            block, m = slice(m, grown), grown

    width = _BLOCK
    vals, vecs, residuals = run(width)
    while max(count for _, count in clusters(vals)) >= width and width < n:
        width *= 2
        vals, vecs, residuals = run(width)
    return EigenResult(vals, vecs, residuals, op_count=solved[0], op_time=solved[1])


@multifrontal._one_blas_thread()  # the same bits at any pool size
def eig_shift_invert(A: SparseSystem, M: SparseSystem, target, nev=15,
                     tol=1e-7) -> EigenResult:
    """`nev` generalized eigenpairs of A x = lambda M x around a target.

    `A` and `M` are assembled systems of n >= 2 unknowns; A's matrix must
    be symmetric positive semidefinite and M's symmetric positive
    definite.  `target` is in the pencil's own units (the cavity study
    passes a multiple of pi^2), finite, positive and not a bool.  The
    result holds the `nev` eigenpairs of smallest |lambda - target| /
    |lambda + target|, the Cayley magnitude, so an eigenvalue at zero (the
    curl-curl gradient kernel) or far below the target ranks last, and eigenvalues
    above the target are preferred (diag(1..40), target 10.4, nev 3: 10,
    11, 12).  `nev` is an integer (numpy integers too, not a bool).  A block
    shift-invert Lanczos (`_block_lanczos`) computes k = min(nev, n - 1)
    pairs to a scaled residual of `tol`, on A - target M factored once
    (`_solver`), and returns them all, ascending.  So at most n - 1
    pairs come back (for `nev >= n` the one ranked last is dropped), a
    matrix with an entry that is not finite raises before any factor, and
    a target that is an eigenvalue exactly raises at every size.  A target
    at an eigenvalue only to rounding converges (see the locking in
    `_block_lanczos`).
    """
    _check_tol(tol)
    nev = _check_nev(nev)
    if not _finite_positive(target):
        raise ValueError(f"target={target}: the ranking needs a finite positive shift")
    n = A.matrix.shape[0]
    if n < 2:
        raise ValueError(f"eigenproblem of size {n}: the Krylov iteration "
                         f"needs at least 2 unknowns")
    stage = f"shift-invert factorization of (A - {target} M)"
    if A.matrix.shape != (n, n) or M.matrix.shape != (n, n):
        raise ValueError(f"{stage}: A of shape {A.matrix.shape} and M of shape "
                         f"{M.matrix.shape} are not square matrices of one size")
    lattice, A, M = A.lattice, A.matrix, M.matrix
    _check_symmetric(A, f"{stage}: A")
    _check_symmetric(M, f"{stage}: M")
    solve, _ = _solver(A - target * M, lattice, stage, indefinite=True)
    return _block_lanczos(solve, A, M, target, nev, tol)
