"""Experiment harness: projection, Poisson, mixed Poisson, cavity resonator.

Each study runs over a list of mesh refinements N (h = 1/N on [0,1]^n),
records global DOF counts, errors and timings as `ExperimentRow`s, and
computes convergence rates between consecutive levels by one rule,
`_fill_rates`.  One level loop serves every study: it numbers the
spaces, then times assembly and the single solve (factorization
included) separately; the reported Time column is their sum.  A study
refuses its options and levels before it builds its first mesh, by the
rules of the code that uses them.
"""

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .assemble import (
    _check_bc_mode,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    assemble_mixed_poisson,
    l2_error,
)
from .mesh import boundary_dofs, build_box_mesh, global_numbering
from .refelem import TENSOR_PRODUCT, TRIMMED_SERENDIPITY, build_element, family_label
from .solve import (_check_nev, _check_tol, _finite_positive, clusters, eig_shift_invert,
                    solve_saddle, solve_spd)


@dataclass
class ExperimentRow:
    """One refinement level of a study: mesh size h, global DOFs, the
    error, its `rate` against the level before (None on the first level
    and after a missing one) and the level's assembly and solve times."""

    h: float
    dofs: int
    error: float
    rate: float | None = None
    assembly_time: float = 0.0
    solve_time: float = 0.0

    @property
    def time(self):
        return self.assembly_time + self.solve_time


def convergence_rate(err_coarse, err_fine, h_coarse, h_fine):
    """log(e_c / e_f) / log(h_c / h_f); NaN when a level is exactly zero."""
    if h_coarse <= h_fine:
        raise ValueError("h_coarse must exceed h_fine")
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return float("nan")
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


def _fill_rates(rows):
    """Set each row's rate against the row before it and return `rows`.

    A None entry is a missing level; the row after it keeps rate None.
    """
    for prev, cur in zip(rows, rows[1:]):
        if prev is not None and cur is not None:
            cur.rate = convergence_rate(prev.error, cur.error, prev.h, cur.h)
    return rows


def _run_levels(n, N_list, elements, assemble, solve):
    """Run a study on the N^n box mesh for every N in `N_list`.

    Per level, numbers each element on the mesh, then times
    `assemble(*maps)` and `solve(system)` separately.  Yields
    (N, maps, solution, assembly time, solve time), with N the Python int
    the mesh stores.
    """
    if not len(N_list) or any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"levels {N_list} must be a non-empty, strictly increasing list")
    for N in N_list:
        mesh = build_box_mesh(n, N)
        maps = [global_numbering(mesh, e) for e in elements]
        t0 = time.perf_counter()
        system = assemble(*maps)
        t1 = time.perf_counter()
        solution = solve(system)
        yield mesh.divisions[0], maps, solution, t1 - t0, time.perf_counter() - t1


def _convergence_study(n, N_list, elements, assemble, solve, exact):
    """Rate table of the L2 error of the last space's block against `exact`.

    Solutions stack the coefficients of all spaces; Dofs counts them all.
    """
    rows = []
    for N, maps, x, t_asm, t_solve in _run_levels(n, N_list, elements, assemble, solve):
        offset = sum(m.total for m in maps[:-1])
        err = l2_error(maps[-1], x[offset:], exact)
        rows.append(ExperimentRow(1.0 / N, offset + maps[-1].total, err,
                                  assembly_time=t_asm, solve_time=t_solve))
    return _fill_rates(rows)


def _sin_product(x, n):
    out = np.sin(np.pi * x[..., 0])
    for a in range(1, n):
        out = out * np.sin(np.pi * x[..., a])
    return out


def _grad_sin_product(x, n):
    comps = []
    for a in range(n):
        g = np.pi * np.cos(np.pi * x[..., a])
        for b in range(n):
            if b != a:
                g = g * np.sin(np.pi * x[..., b])
        comps.append(g)
    return np.stack(comps, axis=-1)


def run_projection(n, family, r, N_list, tol=1e-12):
    """L2-project g = grad(sin...sin) onto the H(curl) space of order r."""
    _check_tol(tol)
    element = build_element(family, n, 1, r, mapping="covariant")

    def g(x):
        return _grad_sin_product(x, n)

    def assemble(dofmap):
        system = assemble_bilinear(dofmap, dofmap, "Mass")
        system.rhs = assemble_load(dofmap, g)
        return system

    return _convergence_study(n, N_list, [element], assemble,
                              lambda system: solve_spd(system, tol=tol), g)


def run_primal_poisson(n, family, r, N_list, bc_mode="diag1", tol=1e-12):
    """Homogeneous Dirichlet Poisson problem with the manufactured solution
    u = sin(pi x) sin(pi y) [sin(pi z)]."""
    _check_tol(tol)
    _check_bc_mode(bc_mode)
    element = build_element(family, n, 0, r, mapping="h1")

    def assemble(dofmap):
        system = assemble_bilinear(dofmap, dofmap, "GradGrad")
        system.rhs = assemble_load(dofmap, lambda x: n * np.pi**2 * _sin_product(x, n))
        return apply_dirichlet(system, boundary_dofs(dofmap), bc_mode)

    return _convergence_study(n, N_list, [element], assemble,
                              lambda system: solve_spd(system, tol=tol),
                              lambda x: _sin_product(x, n))


def run_mixed_poisson(n, family, r, N_list, tol=1e-12):
    """Mixed Poisson with the stable (n-1)-form / n-form pairing of order r.

    The reported error is the L2 error of the scalar solution u.
    """
    _check_tol(tol)
    elements = [build_element(family, n, n - 1, r, mapping="contravariant"),
                build_element(family, n, n, r, mapping="l2")]

    def assemble(hdiv_map, l2_map):
        return assemble_mixed_poisson(
            hdiv_map, l2_map, lambda x: n * np.pi**2 * _sin_product(x, n))

    return _convergence_study(n, N_list, elements, assemble,
                              lambda system: solve_saddle(system, tol=tol),
                              lambda x: _sin_product(x, n))


# ---------------------------------------------------------------------------
# cavity resonator
# ---------------------------------------------------------------------------

def _dominant(pairs):
    """The cluster carrying the most eigenvalues (ties: the smallest)."""
    return max(pairs, key=lambda vc: (vc[1], -vc[0]))[0]


def exact_cavity_eigenvalues(limit):
    """Exact normalized eigenvalues m1^2+m2^2+m3^2 (at most one m_i zero)."""
    vals = set()
    m_max = int(math.isqrt(limit)) + 1
    for m1 in range(m_max + 1):
        for m2 in range(m_max + 1):
            for m3 in range(m_max + 1):
                if (m1 == 0) + (m2 == 0) + (m3 == 0) > 1:
                    continue
                s = m1 * m1 + m2 * m2 + m3 * m3
                if 0 < s <= limit:
                    vals.add(s)
    return sorted(vals)


@dataclass
class MaxwellLevel:
    """Eigenvalue groups found on one mesh level.

    `time_per_iteration` is the wall time per solved column, the block
    solves with the factored shift divided by the columns they solved,
    the factorization excluded; every level runs the Krylov iteration.
    """

    N: int
    dofs: int
    groups: dict          # exact eigenvalue -> [(value, count), ...] clusters
    assembly_time: float
    solve_time: float
    time_per_iteration: float
    residual: float


@dataclass
class MaxwellReport:
    """Cavity study: the levels and, per tracked exact eigenvalue e, its
    error series, one `ExperimentRow` or None (e not found) per level.

    A row's error is |dominant cluster - e| and its rate is taken against
    the level before, None when e is missing there.
    """

    family: str
    r: int
    levels: list          # list of MaxwellLevel
    series: dict          # exact eigenvalue -> [ExperimentRow or None] per level

    @property
    def rates(self):
        """Exact eigenvalue -> list of rate-or-None per level."""
        return {e: [None if row is None else row.rate for row in rows]
                for e, rows in self.series.items()}


def run_maxwell_eig(family, r, N_list, target=3.0, nev=15, tol=1e-7):
    """Maxwell cavity eigenvalues on [0,1]^3 with H(curl) elements.

    The tangential trace is eliminated, so the pencil has no boundary
    eigenvalues.  `eig_shift_invert` returns the `nev` pairs of smallest
    Cayley magnitude around the target (at most one fewer than the level
    has unknowns), which ranks the gradient-kernel zeros last.  Each
    level reports, normalized by pi^2, the returned eigenvalues within 0.5
    of an exact one in {2, 3, 5, 6, 8, ...}, grouped by exact value into
    clusters of copies by the eigensolver's own rule (`clusters`); every
    exact value within that window of a returned pair is matched, however
    far above the target.
    The report's `series` holds each tracked eigenvalue's error rows.
    `target` is in units of pi^2 and must be finite, positive and not a bool.
    """
    _check_tol(tol)
    _check_nev(nev)
    if not _finite_positive(target):
        raise ValueError(f"target={target}: the cavity target, in units of pi^2, "
                         "must be finite and positive")
    pi2 = np.pi**2
    element = build_element(family, 3, 1, r, mapping="covariant")

    def assemble(dofmap):
        A = assemble_bilinear(dofmap, dofmap, "CurlCurl")
        M = assemble_bilinear(dofmap, dofmap, "Mass")
        bdofs = boundary_dofs(dofmap)
        A = apply_dirichlet(A, bdofs)  # rebound: the full A is freed first
        return A, apply_dirichlet(M, bdofs)

    def solve(systems):
        return eig_shift_invert(*systems, target=target * pi2, nev=nev, tol=tol)

    levels = []
    for N, (dofmap,), result, t_asm, t_solve in _run_levels(3, N_list, [element],
                                                            assemble, solve):
        lam = result.eigenvalues / pi2  # ascending
        groups = {}
        for e in exact_cavity_eigenvalues(limit=int(lam[-1] + 0.5)):
            members = lam[np.abs(lam - e) < 0.5]
            if len(members):
                groups[e] = clusters(members)
        levels.append(MaxwellLevel(
            N=N, dofs=dofmap.total, groups=groups,
            assembly_time=t_asm, solve_time=t_solve,
            time_per_iteration=result.op_time / result.op_count,
            residual=float(result.residuals.max()),
        ))

    series = {}
    for e in sorted({e for lv in levels for e in lv.groups}):
        series[e] = _fill_rates([
            None if e not in lv.groups else ExperimentRow(
                1.0 / lv.N, lv.dofs, abs(_dominant(lv.groups[e]) - e),
                assembly_time=lv.assembly_time, solve_time=lv.solve_time)
            for lv in levels
        ])
    return MaxwellReport(family=element.family, r=r, levels=levels, series=series)


def report_dofs(n, k, r_list, N):
    """Global DOF totals of both families on an N^n mesh, per order."""
    if not len(r_list):
        raise ValueError(f"orders {r_list} must be a non-empty list")
    mesh = build_box_mesh(n, N)
    rows = []
    for r in r_list:
        s_total = global_numbering(mesh, build_element(TRIMMED_SERENDIPITY, n, k, r)).total
        q_total = global_numbering(mesh, build_element(TENSOR_PRODUCT, n, k, r)).total
        rows.append({"r": r, "trimmed": s_total, "tensor": q_total})
    return rows


# ---------------------------------------------------------------------------
# CSV and text output
# ---------------------------------------------------------------------------

def write_table(path, header, records):
    """Write a header line and one CSV line per record."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def write_csv(rows, path):
    """Emit rows as h,Dofs,Error,Time,rate (rate empty where it is None)."""
    write_table(path, ["h", "Dofs", "Error", "Time", "rate"], (
        [repr(row.h), row.dofs, repr(row.error), repr(row.time),
         "" if row.rate is None else repr(row.rate)]
        for row in rows
    ))


def format_rows(rows):
    lines = [f"{'h':>12} {'Dofs':>10} {'Error':>14} {'Time':>10} {'rate':>6} "
             f"{'assemble':>10} {'solve':>10}"]
    for row in rows:
        rate = "" if row.rate is None else f"{row.rate:6.2f}"
        lines.append(
            f"{row.h:12.6f} {row.dofs:10d} {row.error:14.6e} {row.time:10.4f} "
            f"{rate:>6} {row.assembly_time:10.4f} {row.solve_time:10.4f}"
        )
    return "\n".join(lines)


def format_maxwell(report: MaxwellReport):
    lines = [f"{family_label(report.family)}_{report.r} H(curl) cavity eigenvalues "
             "(normalized by pi^2)"]
    lines.append(f"{'Actual (Count)':>16}" + "".join(
        f"{'N = ' + str(lv.N):>22}" for lv in report.levels
    ))
    for e in sorted(report.series):
        nrows = max(len(lv.groups.get(e, ())) for lv in report.levels)
        for j in range(nrows):
            cells = []
            for i, lv in enumerate(report.levels):
                pairs = lv.groups.get(e, ())
                if j < len(pairs):
                    val, _count = pairs[j]
                    txt = f"{val:.6f}"
                    rate = report.series[e][i].rate
                    if j == 0 and rate is not None:
                        txt += f" ({rate:.2f})"
                    cells.append(f"{txt:>22}")
                else:
                    cells.append(f"{'-':>22}")
            counts = [lv.groups[e][j][1] for lv in report.levels
                      if j < len(lv.groups.get(e, ()))]
            label = f"{e} ({max(counts)})" if j == 0 else f"{e} ({counts[0]})"
            lines.append(f"{label:>16}" + "".join(cells))
    lines.append(f"{'DOF':>16}" + "".join(f"{lv.dofs:>22d}" for lv in report.levels))
    lines.append(f"{'time/iter':>16}" + "".join(
        f"{lv.time_per_iteration:>22.6f}" for lv in report.levels
    ))
    lines.append(f"{'solve time':>16}" + "".join(
        f"{lv.solve_time:>22.4f}" for lv in report.levels
    ))
    return "\n".join(lines)
