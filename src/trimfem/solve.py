"""Direct solvers and eigensolvers for the assembled systems.

Source problems use a direct factorization with iterative refinement;
the cavity eigenproblem uses a dense generalized solve on small reduced
systems and a shift-invert Krylov iteration (Cayley spectral transform,
so the curl-curl gradient kernel at zero cannot crowd out eigenvalues on
the far side of the target) on large ones.

An SPD system that carries the lattice of its unknowns (every assembled
square operator, see `SparseSystem.lattice`) is factored by the
multifrontal Cholesky of `multifrontal.factor`: dense float64 fronts on
the geometric nested-dissection tree, each class of identical subtrees
factored once.  On the 2D r=1 N=512 Poisson system it factored in
0.3-0.4 s against 0.9-1.4 s for the single-precision SuperLU factor it
replaced, and stored 3.0 M factor values where that one held 24.6 M.  On
the benchmark's Poisson levels its solutions meet the gate after at most
one correction, or reach the rounding floor after two.

Every SuperLU factorization is float64 and goes through `_factor`, in one
fill-reducing order: the geometric nested dissection of the box-mesh
lattice that an assembled system carries (`SparseSystem.ordering`, see
`mesh.nested_dissection`).  `_factor` permutes the matrix symmetrically
into it once and SuperLU keeps it (`permc_spec="NATURAL"`).  Against
SuperLU's own orderings this factored the study systems 1.4-11x faster
with 1.1-4.6x less fill (3D Poisson r=3 N=16: 70 M -> 24 M; 3D mixed
Poisson r=2 N=8: 3.6 M -> 0.9 M).  The pivoting follows the matrix class:

- SPD systems use symmetric mode with diagonal pivots (threshold 0), as
  LU without pivoting is stable on SPD matrices.
- The indefinite shifted operator A - sigma M and saddle-point systems
  keep threshold pivoting, so their stability does not rest on
  definiteness (symmetric mode on A - sigma M was no faster and left
  25-40x larger residuals).

A matrix without an ordering, such as one built by hand, is factored as
before the ordering existed: minimum degree on A^T + A for SPD and
shifted systems, SuperLU's default COLAMD for saddle-point systems.

The SPD and saddle-point solves are one routine, `_direct_solve`: check
the right-hand side and the symmetry, return zeros for a zero right-hand
side, factor once, refine (`_refine`) and gate the relative residual.
"""

import time

import numpy as np
import scipy.linalg
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

    def __init__(self, eigenvalues, eigenvectors, residuals, op_count=None,
                 op_time=None):
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


def _factor(A, ordering, stage, **options):
    """Solve function of one SuperLU factorization of the square matrix A.

    With an `ordering`, A is permuted symmetrically into it once and
    SuperLU keeps the natural order; the returned function permutes
    right-hand sides and solutions, so callers work in the original
    numbering.  Without one, `options` (passed to `splu`) choose the
    order.  A failed factorization raises an error naming the `stage`
    and the matrix size and nnz.
    """
    n, nnz = A.shape[0], A.nnz
    if ordering is not None:
        A = A[ordering][:, ordering]
        options["permc_spec"] = "NATURAL"
    A = A.tocsc()  # rebound so that no permuted CSR copy lives through splu
    try:
        lu = spla.splu(A, **options)
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


_SPD_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))


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


def _direct_solve(system: SparseSystem, tol, spd):
    """Solve the symmetric `system` to a relative residual `tol`.

    An `spd` system that carries a lattice is factored by the multifrontal
    Cholesky of `multifrontal.factor`; any other system, and one whose
    lattice classes do not hold, by SuperLU (`_factor`), in symmetric mode
    if `spd`.  The factor is refined (`_refine`).  A residual above `tol`
    raises a RuntimeError that gives the refinement steps taken, the
    factor and the rounding floor eps ||A| |x|| / ||b||.

    Returns the solution of the stored (reduced) system.
    """
    A = system.matrix.tocsr()
    b = system.rhs
    if b is None:
        raise ValueError("system has no right-hand side")
    _check_symmetric(A)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(A.shape[0])
    solve = None
    if spd and system.lattice is not None:
        solve = multifrontal.factor(A, system.lattice)
    factor = "multifrontal"
    if solve is None:
        factor = "SuperLU"
        solve = (_factor(A, system.ordering, "sparse factorization", **_SPD_OPTIONS)
                 if spd else _factor(A, system.ordering, "saddle factorization"))
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
    return x


def solve_spd(system: SparseSystem, tol=1e-12) -> np.ndarray:
    """Solve a symmetric positive definite system to a relative residual.

    A system that carries a lattice is factored by the multifrontal
    Cholesky of `multifrontal.factor`; any other system, and one whose
    lattice classes do not hold, by one float64 SuperLU factorization in
    symmetric mode.  See `_direct_solve` for the refinement and the gate.

    Returns the full-length coefficient vector (zeros on eliminated DOFs).
    """
    return system.expand(_direct_solve(system, tol, spd=True))


def solve_saddle(system: SparseSystem, tol=1e-12):
    """Solve an assembled mixed system to a relative residual.

    Factors A by SuperLU with threshold pivoting; see `_direct_solve` for
    the refinement and the gate.

    Returns one stacked vector, flux coefficients first; callers split it
    at the flux space dimension they assembled with.
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


def eig_shift_invert(A, M, target=3.0, nev=15, tol=1e-7,
                     dense_cutoff=4000, ordering=None) -> EigenResult:
    """`nev` generalized eigenpairs of A x = lambda M x around a target.

    A must be symmetric positive semidefinite and M symmetric positive
    definite.  Systems up to `dense_cutoff` unknowns, or with no more
    unknowns than `nev`, use a dense generalized solve and return the
    `nev` eigenvalues nearest the target.  Larger ones factor A - target M
    (in `ordering` if given, e.g. `SparseSystem.ordering`), run ARPACK on
    the Cayley transform and polish by inverse iteration.  They return the
    `nev` of largest |(lambda + target) / (lambda - target)|, which prefers
    eigenvalues above the target (diag(1..40), target 10.4, nev 3: 10, 11,
    12; dense: 9, 10, 11), and Lanczos may miss degenerate copies.
    """
    if nev < 1:
        raise ValueError(f"nev={nev}: request at least one eigenpair")
    A = sp.csr_matrix(A)
    M = sp.csr_matrix(M)
    _check_symmetric(A)
    _check_symmetric(M)
    n = A.shape[0]
    norms = (spla.norm(A, np.inf), spla.norm(M, np.inf))
    if n <= dense_cutoff or nev >= n:
        vals, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
        order = np.argsort(np.abs(vals - target), kind="stable")[:nev]
        vals, vecs = vals[order], vecs[:, order]
        return EigenResult(vals, vecs, _residual_norms(A, M, norms, vals, vecs))

    counter = {"n": 0, "time": 0.0}
    solve = _factor(A - target * M, ordering,
                    f"shift-invert factorization of (A - {target} M)",
                    permc_spec="MMD_AT_PLUS_A")

    def op(x):
        t0 = time.perf_counter()
        y = solve(x)
        counter["n"] += 1
        counter["time"] += time.perf_counter() - t0
        return y

    opinv = spla.LinearOperator(A.shape, matvec=op)
    # a fixed start vector makes the returned cluster a function of the inputs
    v0 = np.random.default_rng(0).standard_normal(n)
    # one retry with a larger subspace before giving up
    for ncv, maxiter in ((max(4 * nev, 60), 5000), (8 * nev, 20000)):
        try:
            vals, vecs = spla.eigsh(
                A, k=nev, M=M, sigma=target, mode="cayley", which="LM",
                tol=tol * 1e-2, OPinv=opinv, ncv=min(n - 1, ncv),
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
    # inverse-iteration polish: one factored solve per vector tightens the
    # back-transformed residuals to the factorization level
    res = _residual_norms(A, M, norms, vals, vecs)
    for i in range(len(vals)):
        x = vecs[:, i]
        for _ in range(3):
            if res[i] <= tol * 0.1:
                break
            y = solve(M @ x)
            y /= np.sqrt(abs(y @ (M @ y)))
            lam = (y @ (A @ y)) / (y @ (M @ y))
            x = y
            vecs[:, i] = y
            vals[i] = lam
            res[i : i + 1] = _residual_norms(A, M, norms, vals[i : i + 1], y[:, None])
    return EigenResult(vals, vecs, res, op_count=counter["n"], op_time=counter["time"])
