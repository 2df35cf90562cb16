"""Direct and iterative solvers for the assembled systems.

Source problems use a sparse LU factorization with one step of iterative
refinement (a conjugate-gradient path is available for SPD systems); the
cavity eigenproblem uses a dense generalized solve on small reduced
systems and a shift-invert Krylov iteration (Cayley spectral transform,
so the curl-curl gradient kernel at zero cannot crowd out eigenvalues on
the far side of the target) on large ones.

The SuperLU ordering follows the matrix class, as measured on the study
systems:

- SPD systems use symmetric mode: minimum degree on A^T + A and diagonal
  pivots (threshold 0), as LU without pivoting is stable on SPD
  matrices.  On the 3D r=3 and 2D r=1 Poisson systems it factors 1.8-4x
  faster with 1.3-2.5x less fill than the default column ordering.
- The indefinite shifted operator A - sigma M uses the same ordering but
  keeps the default threshold pivoting, so its stability does not rest
  on definiteness (Q-_2 at N=8: 3x faster, half the fill).
- Saddle-point systems keep the default (COLAMD) ordering.  On 3D mixed
  Poisson at r=2, N=8, minimum degree on A^T + A factored 2-4x slower,
  with or without symmetric mode.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import SparseSystem


class EigenResult:
    """Eigenpairs of A x = lambda M x, ascending, with residual norms.

    `residuals[i]` is ||A x - lambda M x|| / ||x|| scaled by the operator
    norms, so a converged pair sits at the solver tolerance regardless of
    the mesh scaling of A and M.  Clustered eigenvalues are kept as
    individual entries; multiplicity counting happens only in reports.
    """

    def __init__(self, eigenvalues, eigenvectors, residuals, op_count=None):
        order = np.argsort(eigenvalues)
        self.eigenvalues = np.asarray(eigenvalues)[order]
        self.eigenvectors = np.asarray(eigenvectors)[:, order]
        self.residuals = np.asarray(residuals)[order]
        self.op_count = op_count  # operator applications in the Krylov loop

    def __len__(self):
        return len(self.eigenvalues)


def _check_symmetric(A, tol=1e-12):
    d = A - A.T
    if d.nnz:
        scale = max(1.0, np.abs(A.data).max())
        if np.abs(d.data).max() > tol * scale:
            raise ValueError("matrix is not symmetric")


def solve_spd(system: SparseSystem, tol=1e-12, method="direct") -> np.ndarray:
    """Solve a symmetric (positive definite) system to a relative residual.

    Returns the full-length coefficient vector (zeros on eliminated DOFs).
    """
    A = system.matrix.tocsr()
    b = system.rhs
    if b is None:
        raise ValueError("system has no right-hand side")
    _check_symmetric(A)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return system.expand(np.zeros(A.shape[0]))
    if method == "cg":
        x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=20 * A.shape[0])
        if info != 0:
            raise RuntimeError(f"conjugate gradient stalled (info={info})")
    elif method == "direct":
        try:
            lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise RuntimeError(
                f"sparse factorization failed (matrix size {A.shape[0]}, "
                f"nnz {A.nnz}): {err}"
            ) from err
        x = lu.solve(b)
        x += lu.solve(b - A @ x)  # one step of iterative refinement
    else:
        raise ValueError(f"unknown method {method!r}")
    res = np.linalg.norm(b - A @ x) / bnorm
    if not np.isfinite(res) or res > tol:
        raise RuntimeError(
            f"solver residual {res:.3e} exceeds tolerance {tol:.1e} "
            f"(matrix size {A.shape[0]}, nnz {A.nnz})"
        )
    return system.expand(x)


def solve_saddle(system: SparseSystem, tol=1e-12):
    """Solve an assembled mixed system to a relative residual.

    Returns one stacked vector, flux coefficients first; callers split it
    at the flux space dimension they assembled with.
    """
    A = system.matrix.tocsr()
    b = system.rhs
    _check_symmetric(A)
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as err:
        raise RuntimeError(
            f"saddle factorization failed (matrix size {A.shape[0]}, "
            f"nnz {A.nnz}): {err}"
        ) from err
    x = lu.solve(b)
    x += lu.solve(b - A @ x)
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(b - A @ x) / (bnorm if bnorm else 1.0)
    if not np.isfinite(res) or res > tol:
        raise RuntimeError(
            f"saddle residual {res:.3e} exceeds tolerance {tol:.1e} "
            f"(matrix size {A.shape[0]}, nnz {A.nnz})"
        )
    return x


def _residual_norms(A, M, vals, vecs):
    anorm = spla.norm(A, np.inf) if sp.issparse(A) else np.linalg.norm(A, np.inf)
    mnorm = spla.norm(M, np.inf) if sp.issparse(M) else np.linalg.norm(M, np.inf)
    out = []
    for lam, x in zip(vals, vecs.T):
        r = A @ x - lam * (M @ x)
        out.append(np.linalg.norm(r) / ((anorm + abs(lam) * mnorm) * np.linalg.norm(x)))
    return np.asarray(out)


def eig_shift_invert(A, M, target=3.0, nev=15, tol=1e-7,
                     dense_cutoff=4000) -> EigenResult:
    """Generalized eigenpairs of A x = lambda M x nearest a target.

    A must be symmetric positive semidefinite and M symmetric positive
    definite.  Systems up to `dense_cutoff` unknowns, or with no more
    unknowns than the `nev` pairs requested, use a dense generalized
    solve; larger ones use ARPACK on the Cayley transform of
    the shifted problem, followed by an inverse-iteration polish with the
    factored shifted operator.
    """
    A = sp.csr_matrix(A)
    M = sp.csr_matrix(M)
    _check_symmetric(A)
    _check_symmetric(M)
    n = A.shape[0]
    if n <= dense_cutoff or nev >= n:
        vals, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
        order = np.argsort(np.abs(vals - target), kind="stable")[:nev]
        vals, vecs = vals[order], vecs[:, order]
        return EigenResult(vals, vecs, _residual_norms(A, M, vals, vecs))

    counter = {"n": 0}
    shifted = (A - target * M).tocsc()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise RuntimeError(
            f"factorization of (A - {target} M) failed; perturb the shift: {err}"
        ) from err

    def op(x):
        counter["n"] += 1
        return lu.solve(x)

    opinv = spla.LinearOperator(A.shape, matvec=op)
    # a fixed start vector makes the returned cluster a function of the inputs
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(
            A, k=nev, M=M, sigma=target, mode="cayley", which="LM",
            tol=tol * 1e-2, OPinv=opinv, ncv=min(n - 1, max(4 * nev, 60)),
            maxiter=5000, v0=v0,
        )
    except spla.ArpackNoConvergence:
        # one retry with a larger subspace before giving up
        try:
            vals, vecs = spla.eigsh(
                A, k=nev, M=M, sigma=target, mode="cayley", which="LM",
                tol=tol * 1e-2, OPinv=opinv, ncv=min(n - 1, 8 * nev),
                maxiter=20000, v0=v0,
            )
        except spla.ArpackNoConvergence as err:
            raise RuntimeError(
                f"eigensolver did not converge for {nev} pairs near {target} "
                f"(size {n}); partial results: {len(err.eigenvalues)} pairs"
            ) from err
    # inverse-iteration polish: one factored solve per vector tightens the
    # back-transformed residuals to the factorization level
    res = _residual_norms(A, M, vals, vecs)
    for i in range(len(vals)):
        x = vecs[:, i]
        for _ in range(3):
            if res[i] <= tol * 0.1:
                break
            y = lu.solve(M @ x)
            y /= np.sqrt(abs(y @ (M @ y)))
            lam = (y @ (A @ y)) / (y @ (M @ y))
            x = y
            vecs[:, i] = y
            vals[i] = lam
            res[i : i + 1] = _residual_norms(A, M, vals[i : i + 1], y[:, None])
    return EigenResult(vals, vecs, _residual_norms(A, M, vals, vecs),
                       op_count=counter["n"])
