"""One pass of a benchmark workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  The
worker imports trimfem, cold-builds every element the workload uses,
prints `ready` (run.py times set-up up to that line), then runs every
operation in an order shuffled by the seed, checks each against the
reference outputs and prints one JSON line with the pass's wall time, peak
RSS and per-operation status.  With `--setup-only` it exits after `ready`.
With `--trace 1` the tracer wraps trimfem before set-up and its spans are
part of the JSON line.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    reference = json.loads(REFERENCE.read_text())[args.workload]

    import trimfem
    if Path(trimfem.__file__).resolve().parent != ROOT / "src" / "trimfem":
        sys.exit(f"trimfem imported from {trimfem.__file__}, not from {ROOT / 'src'}")
    import tracer
    import workloads

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    trace = tracer.Tracer(run_id) if args.trace else None
    phase = trace.span if trace else (lambda name: nullcontext())
    if trace:
        trace.install()

    with phase("bench.setup"):
        workloads.setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return

    t0 = time.perf_counter()
    with phase("bench.run"):
        ops = workloads.operations(args.workload)
        random.Random(args.seed).shuffle(ops)
        results = {}
        for op in ops:
            try:
                results[op.key] = ("ok", workloads.run(op))
            except Exception as err:  # a failed operation is counted, not fatal
                results[op.key] = ("error", type(err).__name__, str(err))
        status = workloads.check(ops, results, reference)
    wall = time.perf_counter() - t0

    out = {
        "run_id": run_id,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [[op.key, *status[op.key]] for op in ops],
        "env": _environment(trimfem),
    }
    if trace:
        trace.uninstall()
        out["spans"] = trace.spans
        out["unwrapped"] = trace.unwrapped
    print(json.dumps(out), flush=True)


def _environment(trimfem):
    import numpy
    import scipy

    Q = trimfem.poly.Q
    backend = f"{Q.__module__}.{Q.__qualname__}"
    return {
        "trimfem": trimfem.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rational_backend": backend,
        "gmpy2_path": ("exercised" if backend.startswith("gmpy2")
                       else "unexercised: gmpy2 is not importable"),
    }


if __name__ == "__main__":
    main()
