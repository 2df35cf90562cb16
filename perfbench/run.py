"""trimfem benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload spd_solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; trimfem is imported from its `src`.  The
load is a closed-loop batch: a fresh worker process (worker.py) runs the
workload's operations one after another and checks each against
reference.json.  A new process per pass is the only way to include the
import and the cold element builds, which `lru_cache` hides after the
first call, as a command-line user pays them.  BLAS keeps its default
thread count.  The seed only shuffles the order of the operations.

Workloads (see workloads.py):
  spd_solve         primal Poisson ladders: 3D S-_3 / Q-_3 at matched
                    accuracy, where the SPD LU solve dominates, and a 2D
                    order-1 ladder where assembly, numbering and error
                    take their largest share.  Its N=512 level fails the
                    solver's 1e-12 residual gate at the reference commit.
  indefinite_solve  cavity eigenvalues (shift-invert LU, ARPACK, dense
                    eigh), 3D mixed Poisson (saddle-point LU) and the
                    coboundary fits of the S-_2 / Q-_2 complexes they use.
  exact_build       cold exact builds of the 3D S-_5 and Q-_5 complexes,
                    coboundary fits k -> k+1 and a DOF table; no solves.
                    Not in BENCHMARK.json: its pure-Python timings spread
                    too widely between runs on a shared 2-core machine.

--trace 0 runs one pass, and more while another fits in `--seconds`,
then set-up-only workers until there are SETUP_SAMPLES set-up times, and
reports the medians of
  setup_s       interpreter start through `import trimfem` and the cold
                build of the elements the operations use (exact_build's
                DOF table builds its lower-order elements inside the pass)
  wall_s        end of set-up until every operation returned and was checked
  peak_rss_mb   peak resident memory of the worker process
and solved_ratio, the share of attempted operations that returned a
checked result.  An operation that raises or mismatches its reference is
failed; a level the reference records as failing the residual gate is a
known failure: unsolved, but not failed.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of tracer.METRICS and trace.overhead_s (traced minus untraced
wall_s).  Traced timings never enter the end-to-end metrics.

Every run writes its record (metadata, per-pass figures, operation
statuses and, when traced, the spans) to perfbench/out/.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("spd_solve", "indefinite_solve", "exact_build")  # as in workloads.py,
# which this process does not import: it never imports trimfem
SETUP_SAMPLES = 3
BUDGET_S = 170.0  # every run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def run_worker(workload, seed, deadline, trace=False, setup_only=False):
    """One worker process; returns its JSON result plus the set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - t0, 0.0))
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError(f"{workload} worker did not finish set-up")
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_s
    return result


def metadata(args, env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), **env,
        "blas_threads_env": {k: os.environ.get(k, "unset (library default)")
                             for k in BLAS_ENV},
    }


def measure(args, deadline):
    """End-to-end passes; returns (passes, metrics, extra record fields)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_worker(args.workload, args.seed, deadline))
        took = (time.perf_counter() - start) / len(passes)
        if time.perf_counter() - start + took > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, args.seed, deadline,
                                 setup_only=True)["setup_s"])
    ops = [op for p in passes for op in p["ops"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        "solved_ratio": (sum(op[1] == "ok" for op in ops) / len(ops), "ratio"),
    }
    return passes, metrics, {"setup_samples_s": setups}


def measure_traced(args, deadline):
    """One untraced and one traced pass; returns (passes, metrics, extra)."""
    import tracer

    plain = run_worker(args.workload, args.seed, deadline)
    traced = run_worker(args.workload, args.seed, deadline, trace=True)
    spans = traced.pop("spans")
    problems = tracer.check_trace(spans, ("bench.setup", "bench.run"))
    if problems:
        raise BenchError("trace schema: " + "; ".join(problems[:5]))
    metrics, dropped = tracer.layer_metrics(
        spans, tracer.unwrapped_spans(traced["unwrapped"]))
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return [traced], metrics, {"dropped": dropped, "untraced_wall_s": plain["wall_s"],
                               "spans": spans}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + BUDGET_S

    if not (ROOT / "src" / "trimfem" / "__init__.py").is_file():
        sys.exit(f"no trimfem sources under {ROOT / 'src'}; run from a checkout")
    compileall.compile_dir(ROOT / "src", quiet=1)

    try:
        passes, metrics, extra = (measure_traced if args.trace else measure)(args, deadline)
    except BenchError as err:
        sys.exit(f"benchmark failed: {err}")

    meta = metadata(args, passes[0].pop("env"))
    print(json.dumps({"meta": meta}))
    for name, reason in extra.get("dropped", {}).items():
        print(f"dropped {name}: {reason}")
    seen = set()
    for p in passes:
        for key, status, message in p["ops"]:
            if (status, message) != ("ok", "") and (key, status) not in seen:
                seen.add((key, status))
                print(f"{'note' if status == 'ok' else status} {key}: {message}")

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(op[1] == "failed" for p in passes for op in p["ops"])
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "metrics": metrics, "passes": passes,
                                  **extra}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
