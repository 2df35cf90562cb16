"""The benchmark's workloads: what each builds during set-up, its operations,
and the checks of every operation against the recorded reference outputs.

An operation is one study level or one element-complex check.  Each study
level is its own call into trimfem, so a level that raises does not hide
the levels that pass before it.  Every trimfem function is looked up on its
module at call time, so the tracer's rebinding of those names is seen.
"""

import math
from dataclasses import dataclass

from trimfem import experiments, refelem
from trimfem.refelem import TENSOR_PRODUCT, TRIMMED_SERENDIPITY

WORKLOADS = ("spd_solve", "indefinite_solve", "exact_build")

FAMILIES = {"S": TRIMMED_SERENDIPITY, "Q": TENSOR_PRODUCT}
CAVITY_TARGET = 3.0  # run_maxwell_eig's default shift, in units of pi^2

# Tolerances against the reference outputs.  DOF counts, cluster
# multiplicities and matrix shapes must match exactly.  L2 errors may move
# by what any solver meeting the 1e-12 residual gate can change them;
# eigenvalues by far less than their discretization error; residuals stay
# within the solvers' own contracts.
TOL = {
    "error_rel": 1e-3,
    "eigenvalue_rel": 1e-7,
    "rate_abs": 0.02,
    "eig_residual": 1e-7,
    "coboundary_residual": 1e-8,
}


@dataclass(frozen=True)
class Op:
    """One operation: `kind` selects the call, `args` its arguments."""

    kind: str
    args: tuple
    ladder: tuple | None = None  # operations of one convergence study

    @property
    def key(self):
        return self.kind + ":" + ",".join(map(str, self.args))


def _poisson(n, fam, r, N):
    return Op("poisson", (n, fam, r, N), ladder=("poisson", n, fam, r))


def _mixed(n, fam, r, N):
    return Op("mixed", (n, fam, r, N), ladder=("mixed", n, fam, r))


def _maxwell(fam, r, N):
    return Op("maxwell", (fam, r, N), ladder=("maxwell", fam, r))


def setup(workload):
    """Cold-build every element the workload's operations use, exactly as
    the studies request them, so that the operations hit the build cache."""
    if workload == "spd_solve":
        for name, n, order in (("S", 3, 3), ("Lagrange", 3, 3), ("S", 2, 1)):
            refelem.element_by_name(name, n, order)
    elif workload == "indefinite_solve":
        for fam in FAMILIES.values():
            refelem.build_element(fam, 3, 1, 2, mapping="covariant")
            refelem.build_element(fam, 3, 0, 2)
        for name, order in (("SminusDiv", 2), ("DPC", 1), ("NCF", 2), ("DQ", 1)):
            refelem.element_by_name(name, 3, order)
    elif workload == "exact_build":
        # the DOF table's lower-order elements are built cold inside it
        for fam in FAMILIES.values():
            for k in range(4):
                refelem.build_element(fam, 3, k, 5)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def operations(workload):
    if workload == "spd_solve":
        return ([_poisson(3, "S", 3, N) for N in (4, 8, 12)]
                + [_poisson(3, "Q", 3, N) for N in (4, 8)]
                + [_poisson(2, "S", 1, N) for N in (128, 256, 512)])
    if workload == "indefinite_solve":
        return ([_maxwell(fam, 2, N) for fam in "SQ" for N in (4, 8)]
                + [_mixed(3, fam, 2, N) for fam in "SQ" for N in (4, 8)]
                # the complexes whose members the two studies use
                + [Op("coboundary", (fam, 3, k, 2)) for fam in "SQ" for k in range(3)])
    if workload == "exact_build":
        return ([Op("element", (fam, 3, k, 5)) for fam in "SQ" for k in range(4)]
                + [Op("coboundary", (fam, 3, k, 5)) for fam in "SQ" for k in range(3)]
                + [Op("dofs", (3, 1, "1-5", 16))])
    raise ValueError(f"unknown workload {workload!r}")


def run(op, **study_options):
    """Execute one operation and return its outputs as plain JSON data.

    `study_options` go to the study call (the reference recorder uses them).
    """
    a = op.args
    if op.kind == "poisson":
        n, fam, r, N = a
        (row,) = experiments.run_primal_poisson(n, fam, r, [N], bc_mode="diag1",
                                                **study_options)
        return {"dofs": row.dofs, "error": row.error}
    if op.kind == "mixed":
        n, fam, r, N = a
        (row,) = experiments.run_mixed_poisson(n, fam, r, [N], **study_options)
        return {"dofs": row.dofs, "error": row.error}
    if op.kind == "maxwell":
        fam, r, N = a
        (level,) = experiments.run_maxwell_eig(fam, r, [N], **study_options).levels
        groups = {str(e): [[v, c] for v, c in cl] for e, cl in level.groups.items()}
        return {"dofs": level.dofs, "groups": groups, "residual": level.residual,
                "returned": sum(c for cl in level.groups.values() for _, c in cl)}
    if op.kind == "element":
        fam, n, k, r = a
        e = refelem.build_element(FAMILIES[fam], n, k, r)
        counts = refelem.entity_dof_counts(e)
        return {"dim": e.dim, "counts": [counts.get(d, 0) for d in range(n + 1)]}
    if op.kind == "coboundary":
        fam, n, k, r = a
        e0 = refelem.build_element(FAMILIES[fam], n, k, r)
        e1 = refelem.build_element(FAMILIES[fam], n, k + 1, r)
        D, residual = refelem.coboundary_fit(e0, e1)
        return {"shape": list(D.shape), "residual": residual}
    if op.kind == "dofs":
        n, k, orders, N = a
        lo, hi = map(int, orders.split("-"))
        rows = experiments.report_dofs(n, k, list(range(lo, hi + 1)), N)
        return {"rows": [[row["r"], row["trimmed"], row["tensor"]] for row in rows]}
    raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel(got, want):
    return abs(got - want) / abs(want)


def _check_outputs(kind, got, want):
    """(mismatches, notes) of one operation's outputs against its reference.

    The shift-invert Krylov solve starts from a random vector, so which
    copies of a degenerate eigenvalue it returns varies from run to run.
    The reference of a cavity level holds every cluster near the target
    (see record_reference.py): each returned eigenvalue must be in it with
    at most its multiplicity.  Missing copies of an eigenvalue while one
    farther from the target is returned is a note, not a mismatch.
    """
    bad, notes = [], []
    if got.get("dofs") != want.get("dofs"):
        bad.append(f"dofs {got.get('dofs')} != {want.get('dofs')}")
    if kind in ("poisson", "mixed"):
        if _rel(got["error"], want["error"]) > TOL["error_rel"]:
            bad.append(f"L2 error {got['error']:.6e} != {want['error']:.6e}")
    elif kind == "maxwell":
        if got["returned"] != want["returned"]:
            bad.append(f"{got['returned']} eigenvalues returned, not {want['returned']}")
        farthest = max(abs(v - CAVITY_TARGET)
                       for clusters in got["groups"].values() for v, _ in clusters)
        for e, clusters in got["groups"].items():
            for v, c in clusters:
                ref = next((w for w in want["groups"].get(e, [])
                            if _rel(v, w[0]) <= TOL["eigenvalue_rel"]), None)
                if ref is None:
                    bad.append(f"eigenvalue {v:.9f} near {e} is not in the reference")
                elif c > ref[1]:
                    bad.append(f"{c} copies of {v:.9f}, reference has {ref[1]}")
                elif c < ref[1] and abs(v - CAVITY_TARGET) < farthest:
                    notes.append(f"{c} of {ref[1]} copies of {v:.9f}, "
                                 "though farther eigenvalues were returned")
        if not got["residual"] <= TOL["eig_residual"]:
            bad.append(f"eigen residual {got['residual']:.3e} > {TOL['eig_residual']:.0e}")
    elif kind == "element":
        if got != want:
            bad.append(f"element {got} != {want}")
    elif kind == "coboundary":
        if got["shape"] != want["shape"]:
            bad.append(f"shape {got['shape']} != {want['shape']}")
        if not got["residual"] <= TOL["coboundary_residual"]:
            bad.append(f"coboundary residual {got['residual']:.3e} "
                       f"> {TOL['coboundary_residual']:.0e}")
    elif kind == "dofs":
        if got["rows"] != want["rows"]:
            bad.append(f"DOF table {got['rows']} != {want['rows']}")
    return bad, notes


def _dominant_rates(coarse, fine, Nc, Nf):
    """Convergence rate of each eigenvalue's most populated cluster."""
    rates = {}
    for e in set(coarse["groups"]) & set(fine["groups"]):
        d = []
        for level in (coarse, fine):
            value, _ = max(level["groups"][e], key=lambda vc: (vc[1], -vc[0]))
            d.append(abs(value - float(e)))
        rates[e] = experiments.convergence_rate(d[0], d[1], 1.0 / Nc, 1.0 / Nf)
    return rates


def _rates(kind, coarse, fine, Nc, Nf):
    if kind == "maxwell":
        return _dominant_rates(coarse, fine, Nc, Nf)
    return {"error": experiments.convergence_rate(coarse["error"], fine["error"],
                                                  1.0 / Nc, 1.0 / Nf)}


def check(ops, results, reference):
    """Map each operation's key to (status, message).

    The status is "ok", "known_failure" or "failed"; an "ok" message is a note.

    `results[key]` is ("ok", outputs) or ("error", exception type, message).
    A level the reference records as failing the solver's residual gate
    counts as a known failure when it raises the same exception type; it
    is not solved, but it is not a new failure either.  Convergence rates
    between consecutive solved levels of a ladder (for the cavity, of each
    eigenvalue both levels returned) are checked against the reference
    rates, and a mismatch fails the finer level.
    """
    status = {}
    for op in ops:
        res, want = results[op.key], reference[op.key]
        if res[0] == "error":
            known = want.get("known_failure")
            if known and known["type"] == res[1]:
                status[op.key] = ("known_failure", res[2])
            else:
                status[op.key] = ("failed", f"{res[1]}: {res[2]}")
            continue
        bad, notes = _check_outputs(op.kind, res[1], want["outputs"])
        status[op.key] = ("failed", "; ".join(bad)) if bad else ("ok", "; ".join(notes))

    ladders = {}
    for op in ops:
        if op.ladder is not None:
            ladders.setdefault(op.ladder, []).append(op)
    for ladder in ladders.values():
        ladder.sort(key=lambda op: op.args[-1])
        for coarse, fine in zip(ladder, ladder[1:]):
            if status[coarse.key][0] != "ok" or status[fine.key][0] != "ok":
                continue
            Nc, Nf = coarse.args[-1], fine.args[-1]
            got = _rates(fine.kind, results[coarse.key][1], results[fine.key][1], Nc, Nf)
            want = _rates(fine.kind, reference[coarse.key]["outputs"],
                          reference[fine.key]["outputs"], Nc, Nf)
            bad = [f"rate[{e}] {got[e]} != {w:.4f}" for e, w in want.items()
                   if e in got and math.isfinite(w)
                   and not abs(got[e] - w) <= TOL["rate_abs"]]
            if bad:
                status[fine.key] = ("failed", "; ".join(bad))
    return status
