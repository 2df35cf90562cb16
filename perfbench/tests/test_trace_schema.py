"""Schema of the benchmark's trace, on a small traced run of every op kind.

    python3 -m pytest perfbench/tests
"""

import json
import time
from pathlib import Path

import pytest

import tracer
import workloads
from workloads import Op

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

SMALL_OPS = [
    Op("poisson", (2, "S", 1, 8)),
    Op("poisson", (2, "Q", 2, 8)),
    Op("mixed", (2, "S", 2, 4)),
    Op("maxwell", ("S", 1, 2)),
    Op("coboundary", ("S", 2, 0, 2)),
    Op("dofs", (2, 1, "1-2", 4)),
]


@pytest.fixture(scope="module")
def traced_run():
    from trimfem import refelem

    refelem._build_element_cached.cache_clear()
    trace = tracer.Tracer("schema-test")
    trace.install()
    try:
        with trace.span("bench.setup"):
            refelem.build_element(refelem.TRIMMED_SERENDIPITY, 2, 1, 2)
        t0 = time.perf_counter()
        with trace.span("bench.run"):
            for op in SMALL_OPS:
                workloads.run(op)
        wall = time.perf_counter() - t0
    finally:
        trace.uninstall()
    return trace, wall


def test_spans_nest_and_layers_fit_in_wall_time(traced_run):
    trace, _ = traced_run
    assert trace.unwrapped == []
    assert tracer.check_trace(trace.spans, ("bench.setup", "bench.run")) == []
    assert all(t >= -1e-9 for t in tracer.self_times(trace.spans))
    assert {s["run"] for s in trace.spans} == {"schema-test"}


def test_every_per_layer_metric_is_emitted(traced_run):
    trace, wall = traced_run
    metrics, dropped = tracer.layer_metrics(trace.spans)
    assert dropped == {}
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    # trace.overhead_s is the difference of two runs, added by run.py
    assert set(metrics) | {"trace.overhead_s"} == declared
    for name, (value, unit) in metrics.items():
        if unit == "s" and not name.endswith("self_s"):
            assert 0 <= value <= wall + 1.0, name
    # _timed_solve factors once for warm-up and three times for timing
    assert metrics["solve.spd_calls"][0] == 8
    assert metrics["solve.saddle_calls"][0] == 4
    assert metrics["solve.factorizations"][0] == 12
    assert metrics["experiments.solves_per_level"][0] == 4
    assert metrics["refelem.builds_cold"][0] >= 1
    assert metrics["assemble.nnz"][0] > 0


def test_missing_entry_points_drop_their_metrics():
    metrics, dropped = tracer.layer_metrics([], tracer.unwrapped_spans(
        ["trimfem.solve.spla"]))
    assert set(dropped) == {"solve.factorizations", "solve.lu_fill"}
    assert not set(dropped) & set(metrics)


def test_check_trace_reports_a_child_outside_its_parent():
    spans = [
        {"id": 0, "parent": None, "name": "bench.run", "run": "r", "start": 0.0,
         "end": 1.0, "counts": {}},
        {"id": 1, "parent": 0, "name": "solve.spd", "run": "r", "start": 0.2,
         "end": 1.5, "counts": {}},
    ]
    problems = tracer.check_trace(spans, ("bench.run",))
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_uninstall_restores_the_package():
    from trimfem import experiments, refelem, solve

    before = (experiments.solve_spd, refelem.SpanBasis, solve.spla)
    trace = tracer.Tracer("restore")
    trace.install()
    assert experiments.solve_spd is not before[0]
    trace.uninstall()
    assert (experiments.solve_spd, refelem.SpanBasis, solve.spla) == before
