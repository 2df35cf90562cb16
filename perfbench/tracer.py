"""Span tracer that measures trimfem's layers from outside the package.

`Tracer.install` rebinds the names each calling module looks up (for
example `trimfem.experiments.solve_spd`, or `trimfem.solve.spla` for the
`splu` calls inside the solvers) to wrappers that record one span per
call: name, start, end, parent span and run id, plus the counts the layer
exposes on its return value.  Spans stay in memory until the run ends.
Nothing in the package is edited; a name that no longer exists is listed
in `unwrapped`, and the metrics that depend on it are reported as dropped.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name) of every name the tracer rebinds
TARGETS = [
    ("refelem", "build_element", "refelem.build"),
    ("experiments", "build_element", "refelem.build"),
    ("refelem", "SpanBasis", "exact.elim"),  # its add method
    ("solve", "spla", "solve.splu"),  # its splu function
    ("refelem", "tabulate", "refelem.tabulate"),
    ("assemble", "tabulate", "refelem.tabulate"),
    ("refelem", "coboundary_fit", "refelem.coboundary_fit"),
    ("refelem", "rational_kernel", "exact.elim"),
    ("refelem", "rational_solve", "exact.elim"),
    ("refelem", "gram_solve", "exact.elim"),
    ("experiments", "build_box_mesh", "mesh.numbering"),
    ("experiments", "global_numbering", "mesh.numbering"),
    ("experiments", "boundary_dofs", "mesh.boundary_dofs"),
    ("experiments", "assemble_bilinear", "assemble.bilinear"),
    ("experiments", "assemble_mixed_poisson", "assemble.bilinear"),
    ("experiments", "assemble_load", "assemble.load"),
    ("experiments", "apply_dirichlet", "assemble.dirichlet"),
    ("experiments", "l2_error", "assemble.l2_error"),
    ("experiments", "solve_spd", "solve.spd"),
    ("experiments", "solve_saddle", "solve.saddle"),
    ("experiments", "eig_shift_invert", "solve.eig"),
    ("experiments", "run_primal_poisson", "experiments.study"),
    ("experiments", "run_mixed_poisson", "experiments.study"),
    ("experiments", "run_maxwell_eig", "experiments.study"),
    ("experiments", "report_dofs", "experiments.report_dofs"),
]

SOLVES = ("solve.spd", "solve.saddle", "solve.eig")
LAYERS = ("refelem", "exact", "mesh", "assemble", "solve", "experiments")

# per-layer metric -> (unit, span names it is computed from)
METRICS = {
    "refelem.build_s": ("s", ["refelem.build"]),
    "refelem.builds_cold": ("count", ["refelem.build"]),
    "refelem.build_hit_ratio": ("ratio", ["refelem.build"]),
    "refelem.tabulate_s": ("s", ["refelem.tabulate"]),
    "refelem.tabulate_calls": ("count", ["refelem.tabulate"]),
    "refelem.coboundary_fit_s": ("s", ["refelem.coboundary_fit"]),
    "exact.elim_s": ("s", ["exact.elim"]),
    "mesh.numbering_s": ("s", ["mesh.numbering"]),
    "mesh.boundary_dofs_s": ("s", ["mesh.boundary_dofs"]),
    "assemble.bilinear_s": ("s", ["assemble.bilinear"]),
    "assemble.load_s": ("s", ["assemble.load"]),
    "assemble.dirichlet_s": ("s", ["assemble.dirichlet"]),
    "assemble.l2_error_s": ("s", ["assemble.l2_error"]),
    "assemble.nnz": ("count", ["assemble.bilinear"]),
    "assemble.matrix_mb": ("MiB", ["assemble.bilinear"]),
    "solve.spd_s": ("s", ["solve.spd"]),
    "solve.spd_calls": ("count", ["solve.spd"]),
    "solve.factorizations": ("count", ["solve.splu"]),
    "solve.lu_fill": ("count", ["solve.splu"]),
    "solve.saddle_s": ("s", ["solve.saddle"]),
    "solve.saddle_calls": ("count", ["solve.saddle"]),
    "solve.eig_s": ("s", ["solve.eig"]),
    "solve.eig_calls": ("count", ["solve.eig"]),
    "solve.eig_op_count": ("count", ["solve.eig"]),
    "solve.eig_max_residual": ("1", ["solve.eig"]),
    "experiments.study_s": ("s", ["experiments.study", "experiments.report_dofs"]),
    "experiments.solves_per_level": ("count", ["experiments.study", *SOLVES]),
    **{f"{layer}.self_s": ("s", []) for layer in LAYERS},
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.unwrapped = []
        self._stack = []
        self._undo = []
        self._cold_builds = None  # the element build cache's miss counter

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "run": self.run_id, "start": time.perf_counter(),
               "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name, counts=None):
        """`fn` recording one span per call; `counts(result)` is attached."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                rec["error"] = type(err).__name__
                raise
            finally:
                self._close(rec)
            if counts is not None:
                rec["counts"] = counts(result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr, make, name):
        original = getattr(module, attr, None)
        if original is None:
            self.unwrapped.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(original, name))
        self._undo.append((module, attr, original))

    def install(self):
        import trimfem.assemble
        import trimfem.experiments
        import trimfem.refelem
        import trimfem.solve

        modules = {"refelem": trimfem.refelem, "assemble": trimfem.assemble,
                   "experiments": trimfem.experiments, "solve": trimfem.solve}
        cache = getattr(trimfem.refelem, "_build_element_cached", None)
        if hasattr(cache, "cache_info"):
            self._cold_builds = lambda: cache.cache_info().misses
        special = {"build_element": self._wrap_build, "SpanBasis": self._wrap_span_basis,
                   "spla": self._wrap_spla}
        for mod, attr, name in TARGETS:
            self._rebind(modules[mod], attr, special.get(attr, self._wrap_call), name)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap_call(self, fn, name):
        return self.wrap(fn, name, COUNTS.get(name))

    def _wrap_build(self, build, name):
        misses = self._cold_builds
        if misses is None:
            return self.wrap(build, name)
        before = [0]  # builds never nest, so one slot suffices
        traced = self.wrap(build, name, lambda _: {"cold": misses() - before[0]})

        @functools.wraps(build)
        def counted(*args, **kwargs):
            before[0] = misses()
            return traced(*args, **kwargs)
        return counted

    def _wrap_span_basis(self, base, name):
        add = self.wrap(base.add, name)
        return type(base.__name__, (base,), {"add": add, "__doc__": base.__doc__})

    def _wrap_spla(self, spla, name):
        splu = self.wrap(spla.splu, name, lambda lu: {"fill": int(lu.L.nnz + lu.U.nnz)})
        return _ModuleProxy(spla, splu=splu)


class _ModuleProxy:
    """A module with some attributes replaced; the rest are forwarded."""

    def __init__(self, module, **replaced):
        self.__dict__.update(replaced)
        self.__name__ = module.__name__
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _matrix_counts(system):
    m = system.matrix
    # CSR storage: 8-byte value and 4-byte column index per entry, row pointers
    return {"nnz": int(m.nnz), "bytes": 12 * int(m.nnz) + 4 * (m.shape[0] + 1)}


def _eig_counts(result):
    return {"op_count": int(result.op_count or 0),
            "max_residual": float(max(result.residuals, default=0.0))}


# span name -> counts taken from the wrapped call's return value
COUNTS = {"assemble.bilinear": _matrix_counts, "solve.eig": _eig_counts}


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_metrics(spans, unwrapped_spans=()):
    """Per-layer metrics from one traced run.

    Returns (metrics, dropped): metrics maps a name to (value, unit); dropped
    maps the name of each metric that could not be measured to the reason.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(list)
    layer_self = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        layer_self[s["name"].split(".")[0]] += own
        for key, value in s["counts"].items():
            counts[s["name"], key].append(value)

    by_id = {s["id"]: s for s in spans}
    solves = defaultdict(int)
    for s in spans:
        if s["name"] in SOLVES:
            p = s["parent"]
            while p is not None and by_id[p]["name"] != "experiments.study":
                p = by_id[p]["parent"]
            if p is not None:
                solves[p] += 1
    levels = [s["id"] for s in spans
              if s["name"] == "experiments.study" and "error" not in s]
    builds = calls["refelem.build"]
    cold_flags = counts.get(("refelem.build", "cold"))
    cold = sum(cold_flags or ())

    values = {
        "refelem.build_s": total["refelem.build"],
        "refelem.builds_cold": cold,
        "refelem.build_hit_ratio": (builds - cold) / builds if builds else 0.0,
        "refelem.tabulate_s": total["refelem.tabulate"],
        "refelem.tabulate_calls": calls["refelem.tabulate"],
        "refelem.coboundary_fit_s": total["refelem.coboundary_fit"],
        "exact.elim_s": total["exact.elim"],
        "mesh.numbering_s": total["mesh.numbering"],
        "mesh.boundary_dofs_s": total["mesh.boundary_dofs"],
        "assemble.bilinear_s": total["assemble.bilinear"],
        "assemble.load_s": total["assemble.load"],
        "assemble.dirichlet_s": total["assemble.dirichlet"],
        "assemble.l2_error_s": total["assemble.l2_error"],
        "assemble.nnz": sum(counts["assemble.bilinear", "nnz"]),
        "assemble.matrix_mb": sum(counts["assemble.bilinear", "bytes"]) / 2**20,
        "solve.spd_s": total["solve.spd"],
        "solve.spd_calls": calls["solve.spd"],
        "solve.factorizations": calls["solve.splu"],
        "solve.lu_fill": sum(counts["solve.splu", "fill"]),
        "solve.saddle_s": total["solve.saddle"],
        "solve.saddle_calls": calls["solve.saddle"],
        "solve.eig_s": total["solve.eig"],
        "solve.eig_calls": calls["solve.eig"],
        "solve.eig_op_count": sum(counts["solve.eig", "op_count"]),
        "solve.eig_max_residual": max(counts["solve.eig", "max_residual"], default=0.0),
        "experiments.study_s": total["experiments.study"] + total["experiments.report_dofs"],
        "experiments.solves_per_level":
            sum(solves[i] for i in levels) / len(levels) if levels else 0.0,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
    }
    dropped = {}
    for name, (_, sources) in METRICS.items():
        lost = [src for src in sources if src in unwrapped_spans]
        if lost:
            dropped[name] = f"no traced entry point for {', '.join(lost)}"
    if builds and cold_flags is None:
        for name in ("refelem.builds_cold", "refelem.build_hit_ratio"):
            dropped[name] = "the element build cache exposes no cache_info()"
    metrics = {name: (values[name], METRICS[name][0])
               for name in METRICS if name not in dropped}
    return metrics, dropped


def unwrapped_spans(unwrapped):
    """Span names none of whose entry points could be wrapped."""
    wrapped = defaultdict(bool)
    for mod, attr, name in TARGETS:
        wrapped[name] |= f"trimfem.{mod}.{attr}" not in unwrapped
    return {name for name, ok in wrapped.items() if not ok}


def check_trace(spans, phases):
    """Schema problems of a traced run; an empty list means it is sound.

    Every span lies inside its parent and belongs to the same run, self
    times are non-negative, and within each phase ("bench.setup",
    "bench.run") the self time of each layer is at most the phase's wall
    time.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    eps = 1e-9
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} has no valid end")
            continue
        p = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and p is None:
            problems.append(f"span {s['id']} has unknown parent {s['parent']}")
        elif p is not None and not (p["start"] - eps <= s["start"]
                                    and s["end"] <= p["end"] + eps):
            problems.append(f"span {s['id']} {s['name']} lies outside its parent")
        if p is not None and p["run"] != s["run"]:
            problems.append(f"span {s['id']} belongs to another run than its parent")
    own = self_times(spans)
    for s, t in zip(spans, own):
        if t < -eps:
            problems.append(f"span {s['id']} {s['name']} has negative self time {t}")

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    for phase in phases:
        roots = [s for s in spans if s["name"] == phase and s["parent"] is None]
        if len(roots) != 1:
            problems.append(f"expected one {phase} span, found {len(roots)}")
            continue
        wall = roots[0]["end"] - roots[0]["start"]
        per_layer = defaultdict(float)
        for s, t in zip(spans, own):
            if root(s) is roots[0] and s is not roots[0]:
                per_layer[s["name"].split(".")[0]] += t
        for layer, t in per_layer.items():
            if t > wall + eps:
                problems.append(f"{layer} self time {t:.3f}s exceeds {phase} {wall:.3f}s")
    return problems
