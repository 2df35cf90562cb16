"""Record the reference outputs every benchmark operation is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs every operation of the named workloads (default: all) in list order
and writes their entries of perfbench/reference.json.  Run it only on a
commit whose outputs are the accepted ones; the file in the repository
was recorded from the commit that introduced the benchmark.  A primal Poisson level that fails the
solver's 1e-12 residual gate is recorded as a known failure, with the
outputs it gives when the gate is relaxed to 1e-11, so that a solver that
later passes the gate is checked against the same solution.  A cavity
level's reference is the union of the eigenvalue clusters returned by
CAVITY_REPEATS runs as the study makes them and one run asking for
WIDE_NEV eigenvalues, which returns every copy near the target (see
workloads.check).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

RELAXED_TOL = 1e-11
CAVITY_REPEATS = 3
WIDE_NEV = 45


def _union_of_spectra(runs, wide):
    """Cavity clusters seen over the runs, each with its largest count."""
    merged = dict(runs[0], residual=max(r["residual"] for r in runs), groups={})
    for out in runs + [wide]:
        if out["dofs"] != merged["dofs"]:
            raise RuntimeError("repeated cavity runs disagree on their sizes")
        for e, clusters in out["groups"].items():
            known = merged["groups"].setdefault(e, [])
            for v, c in clusters:
                same = next((k for k in known if abs(k[0] - v) <= 1e-9 * abs(v)), None)
                if same is None:
                    known.append([v, c])
                else:
                    same[1] = max(same[1], c)
    for known in merged["groups"].values():
        known.sort()
    return merged


def record(workload):
    workloads.setup(workload)
    out = {}
    for op in workloads.operations(workload):
        entry = {}
        try:
            if op.kind == "maxwell":
                entry["outputs"] = _union_of_spectra(
                    [workloads.run(op) for _ in range(CAVITY_REPEATS)],
                    workloads.run(op, nev=WIDE_NEV))
            else:
                entry["outputs"] = workloads.run(op)
        except RuntimeError as err:
            if op.kind != "poisson":
                raise
            entry["known_failure"] = {"type": type(err).__name__, "message": str(err)}
            entry["outputs"] = workloads.run(op, tol=RELAXED_TOL)
        out[op.key] = entry
        print(op.key, json.dumps(entry), flush=True)
    return out


def main():
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for w in sys.argv[1:] or workloads.WORKLOADS:
        reference[w] = record(w)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
