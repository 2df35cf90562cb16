"""Direct solvers and eigensolvers for the assembled systems.

Source problems use a direct factorization with iterative refinement;
the cavity eigenproblem uses one eigen path at every size, ARPACK's
shift-invert Lanczos iteration (Cayley spectral transform), and keeps the
pairs of smallest Cayley magnitude |lambda - sigma| / |lambda + sigma|,
so the curl-curl gradient kernel at zero cannot crowd out eigenvalues on
the far side of the shift sigma.  ARPACK computes fewer pairs than the
pencil has unknowns, so at most n - 1 pairs of an n-unknown pencil come
back, and a shift that is an eigenvalue raises at every size.

An SPD system that carries the lattice of its unknowns (every assembled
square operator, see `SparseSystem.lattice`) is factored by the
multifrontal Cholesky of `multifrontal.factor`: dense float64 fronts on
the geometric nested-dissection tree, each class of identical subtrees
factored once.  On the 2D r=1 N=512 Poisson system it factors in
0.21-0.25 s warm against 0.9-1.4 s for a single-precision SuperLU
factor, and stores 3.0 M factor values where that one holds 24.6 M.  On
the benchmark's Poisson levels its solutions meet the gate after at most
one correction, or reach the rounding floor after two.

Every SuperLU factorization is float64 and goes through `_factor`, in one
configuration: the fill-reducing order is the postorder of the
multifrontal factor's elimination tree on the lattice an assembled system
carries (`SparseSystem.lattice`, ordered by
`multifrontal.elimination_order` when the system is factored), into which
`_factor` permutes the matrix symmetrically once for SuperLU to keep
(`permc_spec="NATURAL"`), and the pivoting is SuperLU's default
threshold pivoting, whose stability does not rest on definiteness.
Against SuperLU's COLAMD order this stores 1.8-4.6x less fill on the
indefinite N=8 systems (the 3D cavity shift: S-_2 3.49 M -> 1.89 M,
Q-_2 9.68 M -> 4.02 M; 3D mixed Poisson r=2: S-_2 3.63 M -> 0.93 M,
Q-_2 11.88 M -> 2.60 M).  A system without a lattice, such as
`SparseSystem(matrix)` around a matrix built by hand, is factored in
SuperLU's default COLAMD order.

The SPD and saddle-point solves are one routine, `_direct_solve`: check
the tolerance, the right-hand side and the symmetry, return zeros for a
zero right-hand side, factor once, refine (`_refine`), gate the relative
residual and expand the solution of an eliminated system to full length.

The factorizations, solves and eigensolves run their BLAS on one thread
of scipy's OpenBLAS pool (`multifrontal._one_blas_thread`), so their
results are the same bits whatever the pool's size: with the pool at two
threads, the Q-_2 N=8 cavity's eigenvalues differ in the last digits.
Where scipy's BLAS exports no pool control the scope does nothing, and
the guarantee is untested there.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import multifrontal
from .assemble import SparseSystem


class EigenResult:
    """Eigenpairs of A x = lambda M x, ascending, with residual norms.

    `residuals[i]` is ||A x - lambda M x|| / ||x|| scaled by the operator
    norms, so a converged pair sits at the solver tolerance regardless of
    the mesh scaling of A and M.  Clustered eigenvalues are kept as
    individual entries; multiplicity counting happens only in reports.
    """

    def __init__(self, eigenvalues, eigenvectors, residuals, op_count, op_time):
        order = np.argsort(eigenvalues)
        self.eigenvalues = np.asarray(eigenvalues)[order]
        self.eigenvectors = np.asarray(eigenvectors)[:, order]
        self.residuals = np.asarray(residuals)[order]
        self.op_count = op_count  # operator applications in the Krylov loop
        self.op_time = op_time  # wall time inside those applications

    def __len__(self):
        return len(self.eigenvalues)


def _check_symmetric(A, tol=1e-12):
    """Raise unless max |A - A^T| <= tol max |A|, at any scale of A.

    A canonical CSR matrix with a symmetric pattern, as every assembled
    one has, is compared with its transpose value by value, in the
    transpose's own array; any other takes the subtraction A - A^T, whose
    union pattern costs a third matrix.
    """
    if not A.nnz:
        return
    T = A.T.tocsr()  # the transpose, with sorted indices
    if (A.has_canonical_format and np.array_equal(A.indptr, T.indptr)
            and np.array_equal(A.indices, T.indices)):
        d = np.subtract(T.data, A.data, out=T.data)
    else:
        d = (A - T).data
    scale = max(A.data.max(), -A.data.min())  # max |A| without an |A| copy
    if d.size and np.abs(d, out=d).max() > tol * scale:
        raise ValueError("matrix is not symmetric")


def _factor(A, lattice, stage):
    """Solve function of one SuperLU factorization of the square matrix A.

    With a `lattice` (the positions of A's unknowns), A is permuted
    symmetrically into its `multifrontal.elimination_order` once and
    SuperLU keeps the natural order; the returned function permutes
    right-hand sides and solutions, so callers work in the original
    numbering.  Without one, SuperLU orders A by COLAMD.  Either way it
    pivots by its default threshold.  A lattice of another length than
    A's and a failed factorization raise errors naming the `stage` and
    the sizes.
    """
    n, nnz = A.shape[0], A.nnz
    ordering, permc_spec = None, "COLAMD"
    if lattice is not None:
        if len(lattice) != n:
            raise ValueError(f"{stage}: a lattice of {len(lattice)} positions does "
                             f"not fit a matrix of size {n}")
        ordering, permc_spec = multifrontal.elimination_order(lattice), "NATURAL"
        A = A[ordering][:, ordering]
    A = A.tocsc()  # rebound so that no permuted CSR copy lives through splu
    try:
        lu = spla.splu(A, permc_spec=permc_spec)
    except RuntimeError as err:
        raise RuntimeError(
            f"{stage} failed (matrix size {n}, nnz {nnz}): {err}"
        ) from err
    if ordering is None:
        return lu.solve

    def solve(b):
        x = np.empty(b.shape)
        x[ordering] = lu.solve(b[ordering])
        return x

    return solve


def _check_tol(tol):
    """Raise unless `tol` is finite and positive: NaN and inf pass anything."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol={tol}: the tolerance must be finite and positive")


def _refine(A, b, solve, tol):
    """Iterative refinement of `solve(b)` with float64 residuals on A.

    Corrects until the relative residual meets `tol` or a correction fails
    to halve it, and returns the best iterate, its relative residual and
    the number of corrections.
    """
    bnorm = np.linalg.norm(b)
    x = solve(b)
    r = b - A @ x
    res = np.linalg.norm(r) / bnorm
    steps = 0
    while not res <= tol:
        rnorm = np.linalg.norm(r)
        y = x + rnorm * solve(r / rnorm)
        s = b - A @ y
        new = np.linalg.norm(s) / bnorm
        steps += 1
        if not new < res:
            break
        halved = new <= res / 2
        x, r, res = y, s, new
        if not halved:
            break
    return x, res, steps


@multifrontal._one_blas_thread()  # the same bits at any pool size
def _direct_solve(system: SparseSystem, tol, spd):
    """Solve the symmetric `system` to a relative residual `tol`.

    An `spd` system that carries a lattice is factored by the multifrontal
    Cholesky of `multifrontal.factor`; any other system, and one whose
    lattice classes do not hold, by SuperLU (`_factor`).  The factor is
    refined (`_refine`).  A residual above `tol`
    raises a RuntimeError that gives the refinement steps taken, the
    factor and the rounding floor eps ||A| |x|| / ||b||.

    Returns the full-length coefficient vector (zeros on eliminated DOFs).
    """
    _check_tol(tol)
    A = system.matrix.tocsr()
    b = system.rhs
    if b is None:
        raise ValueError("system has no right-hand side")
    if np.shape(b) != (A.shape[0],):
        raise ValueError(f"right-hand side of shape {np.shape(b)} does not fit "
                         f"a matrix of size {A.shape[0]}")
    _check_symmetric(A)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return system.expand(np.zeros(A.shape[0]))
    solve = None
    if spd and system.lattice is not None:
        solve = multifrontal.factor(A, system.lattice)
    factor = "multifrontal"
    if solve is None:
        factor = "SuperLU"
        solve = _factor(A, system.lattice,
                        "sparse factorization" if spd else "saddle factorization")
    x, res, steps = _refine(A, b, solve, tol)
    if not np.isfinite(res) or res > tol:
        A.sum_duplicates()  # |A| on A's own index arrays, without a copy of A
        absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
        floor = np.finfo(float).eps * np.linalg.norm(absA @ np.abs(x)) / bnorm
        raise RuntimeError(
            f"solver residual {res:.3e} exceeds tolerance {tol:.1e} after "
            f"{steps} refinement steps on a {factor} factor; rounding "
            f"floor eps*||A||x||/||b|| = {floor:.1e} "
            f"(matrix size {A.shape[0]}, nnz {A.nnz})"
        )
    return system.expand(x)


def solve_spd(system: SparseSystem, tol=1e-12) -> np.ndarray:
    """Solve a symmetric positive definite system to a relative residual.

    A system that carries a lattice is factored by the multifrontal
    Cholesky of `multifrontal.factor`; any other system, and one whose
    lattice classes do not hold, by one float64 SuperLU factorization
    (`_factor`).  See `_direct_solve` for the refinement and the gate.

    Returns the full-length coefficient vector (zeros on eliminated DOFs).
    """
    return _direct_solve(system, tol, spd=True)


def solve_saddle(system: SparseSystem, tol=1e-12):
    """Solve an assembled mixed system to a relative residual.

    Factors A by SuperLU (`_factor`); see `_direct_solve` for the
    refinement and the gate.

    Returns one full-length stacked vector (zeros on eliminated DOFs),
    flux coefficients first; callers split it at the flux space dimension
    they assembled with.
    """
    return _direct_solve(system, tol, spd=False)


def _residual_norms(A, M, norms, vals, vecs):
    """||A x - lambda M x|| / ((||A|| + |lambda| ||M||) ||x||) per column x."""
    anorm, mnorm = norms  # the infinity norms of A and M
    # one contiguous row per pair, so a pair's norms do not depend on the
    # other pairs passed with it
    R = np.ascontiguousarray((A @ vecs - (M @ vecs) * vals).T)
    X = np.ascontiguousarray(vecs.T)
    scale = (anorm + np.abs(vals) * mnorm) * np.linalg.norm(X, axis=1)
    return np.linalg.norm(R, axis=1) / scale


# Pairs ARPACK computes beyond the `nev` kept: asked for exactly 15, it drops
# copies of degenerate cavity eigenvalues at Q-_2 N=4 and 8.  Not monotone:
# 1 completes every benchmark level, 2 drops a copy of 5 pi^2 at S-_2 N=4.
_GUARD = 1


def _nearest(vals, vecs, target, nev):
    """The `nev` pairs of smallest Cayley magnitude, for `EigenResult` to sort."""
    order = np.argsort(np.abs(vals - target) / np.abs(vals + target), kind="stable")
    return vals[order[:nev]], vecs[:, order[:nev]]


@multifrontal._one_blas_thread()  # the same bits at any pool size
def eig_shift_invert(A: SparseSystem, M: SparseSystem, target=3.0, nev=15,
                     tol=1e-7) -> EigenResult:
    """`nev` generalized eigenpairs of A x = lambda M x around a target.

    `A` and `M` are assembled systems of n >= 2 unknowns; A's matrix must
    be symmetric positive semidefinite and M's symmetric positive
    definite, and the target positive.  The result holds the `nev`
    eigenpairs of smallest |lambda - target| / |lambda + target|, the
    Cayley magnitude, so an eigenvalue at zero (the curl-curl gradient
    kernel) or far below the target ranks last, and eigenvalues above the
    target are preferred (diag(1..40), target 10.4, nev 3: 10, 11, 12).
    ARPACK computes k = min(nev + _GUARD, n - 1) pairs, as it needs k < n,
    on the Cayley transform of A - target M, factored by `_factor`.  So
    at most n - 1 pairs come back (for `nev >= n` the one ranked last is
    dropped), and a target that is an eigenvalue raises at every size.
    """
    _check_tol(tol)
    if nev < 1:
        raise ValueError(f"nev={nev}: request at least one eigenpair")
    if not target > 0:
        raise ValueError(f"target={target}: the ranking needs a positive shift")
    n = A.matrix.shape[0]
    if n < 2:
        raise ValueError(f"eigenproblem of size {n}: the Krylov iteration "
                         f"needs at least 2 unknowns")
    system = A
    A = sp.csr_matrix(A.matrix)
    M = sp.csr_matrix(M.matrix)
    _check_symmetric(A)
    _check_symmetric(M)
    norms = (spla.norm(A, np.inf), spla.norm(M, np.inf))
    k = min(nev + _GUARD, n - 1)

    times = []  # of the operator applications
    solve = _factor(A - target * M, system.lattice,
                    f"shift-invert factorization of (A - {target} M)")

    def op(x):
        t0 = time.perf_counter()
        y = solve(x)
        times.append(time.perf_counter() - t0)
        return y

    # with its dtype given, LinearOperator does not probe `op` with a zero
    # vector, which would cost one more solve and count as an application
    opinv = spla.LinearOperator(A.shape, matvec=op, dtype=np.float64)
    # a fixed start vector makes the returned cluster a function of the inputs
    v0 = np.random.default_rng(0).standard_normal(n)
    # ncv follows k (k 16, ncv 60 missed copies at Q-_2 N=8); retry on twice it
    for ncv, maxiter in ((max(4 * k, 60), 5000), (max(8 * k, 120), 20000)):
        try:
            vals, vecs = spla.eigsh(
                A, k=k, M=M, sigma=target, mode="cayley", which="LM",
                tol=tol * 1e-2, OPinv=opinv, ncv=min(n, ncv),
                maxiter=maxiter, v0=v0,
            )
            break
        except spla.ArpackNoConvergence as err:
            failure = err
    else:
        raise RuntimeError(
            f"eigensolver did not converge for {nev} pairs near {target} "
            f"(size {n}); partial results: {len(failure.eigenvalues)} pairs"
        ) from failure
    vals, vecs = _nearest(vals, vecs, target, nev)
    return EigenResult(vals, vecs, _residual_norms(A, M, norms, vals, vecs),
                       op_count=len(times), op_time=sum(times))
