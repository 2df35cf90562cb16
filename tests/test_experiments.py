"""Experiment harness: rates, CSV round trips, reports, CLI."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trimfem.cli import _STUDIES, make_parser
from trimfem.cli import main as cli_main
from trimfem.experiments import (
    ExperimentRow,
    _dominant,
    convergence_rate,
    exact_cavity_eigenvalues,
    format_maxwell,
    format_rows,
    report_dofs,
    run_maxwell_eig,
    run_mixed_poisson,
    run_primal_poisson,
    run_projection,
    write_csv,
)
from trimfem.refelem import element_by_name, element_dump, element_names


def _read_csv(path):
    """The records of a study CSV, each a dict keyed by the header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_convergence_rate_matches_reported_values():
    # eigenvalue errors from the cavity study at N=4 -> N=8
    r = convergence_rate(2.001092 - 2, 2.000066 - 2, 1 / 4, 1 / 8)
    assert r == pytest.approx(4.05, abs=0.01)
    r = convergence_rate(3.001536 - 3, 3.000098 - 3, 1 / 4, 1 / 8)
    assert r == pytest.approx(3.97, abs=0.01)


def test_convergence_rate_edge_cases():
    assert convergence_rate(1e-3, 1e-3, 1 / 4, 1 / 8) == 0.0
    assert math.isnan(convergence_rate(0.0, 1e-5, 1 / 4, 1 / 8))
    with pytest.raises(ValueError):
        convergence_rate(1e-3, 1e-4, 1 / 8, 1 / 4)


def test_rows_sorted_by_decreasing_h_with_rates():
    rows = run_projection(2, "S", 1, [2, 4, 8])
    assert [row.h for row in rows] == [0.5, 0.25, 0.125]
    assert rows[0].rate is None
    assert all(row.rate is not None for row in rows[1:])
    assert rows[1].rate == pytest.approx(1.0, abs=0.3)  # order r = 1


def test_experiments_are_deterministic():
    a = run_projection(2, "Q", 2, [4, 8])
    b = run_projection(2, "Q", 2, [4, 8])
    assert [r.error for r in a] == [r.error for r in b]
    assert [r.dofs for r in a] == [r.dofs for r in b]
    assert [r.rate for r in a] == [r.rate for r in b]


def test_csv_round_trip(tmp_path):
    rows = run_projection(2, "S", 2, [4, 8])
    path = tmp_path / "proj.csv"
    write_csv(rows, path)
    back = [(float(r["h"]), int(r["Dofs"]), float(r["Error"]), float(r["Time"]),
             None if r["rate"] == "" else float(r["rate"])) for r in _read_csv(path)]
    assert back == [(r.h, r.dofs, r.error, r.time, r.rate) for r in rows]
    text = path.read_text().splitlines()
    assert text[0] == "h,Dofs,Error,Time,rate"


def test_asymptotic_regime_sanity():
    # finest-pair rate within 0.25 of the coarsest pair at N >= 8
    rows = run_projection(2, "S", 2, [8, 16, 32, 64])
    assert abs(rows[-1].rate - rows[1].rate) <= 0.25
    rows = run_primal_poisson(2, "Q", 2, [8, 16, 32])
    assert abs(rows[-1].rate - rows[1].rate) <= 0.25


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        run_projection(2, "P", 1, [2])
    valid = "use one of TrimmedSerendipity, TensorProduct, S, Q$"
    with pytest.raises(ValueError, match=valid):
        run_projection(2, "S-", 1, [2])


def test_short_family_spellings_add_no_cold_build():
    from trimfem.refelem import TENSOR_PRODUCT, TRIMMED_SERENDIPITY, _build_element_cached

    studies = [lambda fam: run_projection(2, fam, 1, [2]),
               lambda fam: run_primal_poisson(2, fam, 1, [2]),
               lambda fam: run_mixed_poisson(2, fam, 1, [2]),
               lambda fam: run_maxwell_eig(fam, 1, [2], nev=4).family]
    full = [study(fam) for study in studies for fam in (TRIMMED_SERENDIPITY, TENSOR_PRODUCT)]
    misses = _build_element_cached.cache_info().misses
    short = [study(fam) for study in studies for fam in "SQ"]
    assert _build_element_cached.cache_info().misses == misses
    assert short[-2:] == full[-2:] == [TRIMMED_SERENDIPITY, TENSOR_PRODUCT]


def test_mixed_poisson_zero_source_patch_test():
    # the homogeneous-Dirichlet constant solution is zero; both blocks
    # of the discrete solution must vanish identically
    from trimfem.assemble import assemble_mixed_poisson
    from trimfem.mesh import build_box_mesh, global_numbering
    from trimfem.refelem import element_by_name
    from trimfem.solve import solve_saddle

    mesh = build_box_mesh(2, 4)
    hdiv = global_numbering(mesh, element_by_name("SminusDiv", 2, 2))
    l2 = global_numbering(mesh, element_by_name("DPC", 2, 1))
    sys = assemble_mixed_poisson(hdiv, l2, lambda x: np.zeros(x.shape[:-1]))
    x = solve_saddle(sys)
    assert np.abs(x).max() <= 1e-10


@pytest.mark.parametrize("study, names", [
    # spd_solve
    (lambda: run_primal_poisson(3, "S", 3, [1]), [("S", 3, 3)]),
    (lambda: run_primal_poisson(3, "Q", 3, [1]), [("Lagrange", 3, 3)]),
    (lambda: run_primal_poisson(2, "S", 1, [2]), [("S", 2, 1)]),
    # indefinite_solve
    (lambda: run_mixed_poisson(3, "S", 2, [1]), [("SminusDiv", 3, 2), ("DPC", 3, 1)]),
    (lambda: run_mixed_poisson(3, "Q", 2, [1]), [("NCF", 3, 2), ("DQ", 3, 1)]),
], ids=["poisson-3D-S3", "poisson-3D-Q3", "poisson-2D-S1", "mixed-3D-S2",
        "mixed-3D-Q2"])
def test_studies_number_the_elements_the_benchmark_builds(monkeypatch, study, names):
    # perfbench/workloads.setup builds these elements by name before the
    # timed pass; a study that reached another cache key would build cold
    from trimfem import experiments
    from trimfem.refelem import element_by_name

    numbered = []
    numbering = experiments.global_numbering

    def recording_numbering(mesh, element):
        numbered.append(element)
        return numbering(mesh, element)

    monkeypatch.setattr(experiments, "global_numbering", recording_numbering)
    study()
    assert len(numbered) == len(names)
    for element, name in zip(numbered, names):
        assert element is element_by_name(*name)


def test_thinnest_residual_margin_still_solves():
    # the refined residual of this level sits at 9.0e-13, under the 1e-12 gate,
    # after one correction of the multifrontal factor's 2.0e-12
    rows = run_primal_poisson(2, "S", 1, [256])
    assert len(rows) == 1


def _without_times(rows):
    return [(row.h, row.dofs, row.error, row.rate) for row in rows]


def test_studies_accept_numpy_integers():
    plain = run_primal_poisson(2, "S", 2, [4, 8])
    numpy_ints = run_primal_poisson(2, "S", np.int64(2), list(np.array([4, 8])))
    assert _without_times(numpy_ints) == _without_times(plain)
    assert all(type(row.h) is float and type(row.dofs) is int for row in numpy_ints)
    levels = run_maxwell_eig("S", np.int64(1), list(np.array([2])), nev=4).levels
    assert type(levels[0].N) is int


def test_the_cavity_study_refuses_a_bool_nev():
    # a bool is an Integral: nev=True asked for one pair
    with pytest.raises(ValueError, match="nev=True: the number of eigenpairs must be an integer"):
        run_maxwell_eig("S", 1, [2], nev=True)


@pytest.mark.parametrize("study, expected", [
    (lambda: run_primal_poisson(2, "S", 1, [4, 8]), 2),
    (lambda: run_mixed_poisson(2, "S", 2, [2, 4]), 2),
    (lambda: run_maxwell_eig("S", 1, [3]), 1),
], ids=["primal-poisson", "mixed-poisson", "maxwell-sparse"])
def test_each_study_level_factors_once(monkeypatch, study, expected):
    from trimfem import solve

    calls = []
    splu = solve.spla.splu
    multifrontal = solve.multifrontal.factor

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    def counting_multifrontal(A, lattice, **kernel):
        calls.append(A.shape)
        return multifrontal(A, lattice, **kernel)

    monkeypatch.setattr(solve.spla, "splu", counting_splu)
    monkeypatch.setattr(solve.multifrontal, "factor", counting_multifrontal)
    study()
    assert len(calls) == expected


@pytest.mark.parametrize("study, expected", [
    # one lattice a factored level: the square operator's
    (lambda: run_primal_poisson(2, "S", 1, [4, 8]), [0, 0]),
    (lambda: run_primal_poisson(2, "S", 1, [4], bc_mode="eliminate"), [0]),
    # K's, on the flux map; the pressure map's lattice is never computed
    (lambda: run_mixed_poisson(2, "S", 2, [2, 4]), [1, 1]),
    # the shifted pencil's multifrontal factor reads the lattice too
    (lambda: run_maxwell_eig("S", 1, [3]), [1]),
    # 6 free DOFs for 15 pairs: the block Lanczos still runs, on the factored shift
    (lambda: run_maxwell_eig("S", 1, [2]), [1]),
], ids=["primal-poisson", "primal-eliminate", "mixed-poisson", "maxwell-sparse",
        "maxwell-n2"])
def test_orderings_are_computed_only_for_factored_maps(monkeypatch, study, expected):
    # counts the lattices computed, by the form degree of their map
    from functools import cached_property

    from trimfem.mesh import GlobalDofMap

    computed = []
    lattice = GlobalDofMap.__dict__["lattice"].func

    def counting(dofmap):
        computed.append(dofmap.element.k)
        return lattice(dofmap)

    counted = cached_property(counting)
    counted.__set_name__(GlobalDofMap, "lattice")
    monkeypatch.setattr(GlobalDofMap, "lattice", counted)
    study()
    assert computed == expected


@pytest.mark.parametrize("levels", [[16, 8], [8, 8], []], ids=["decreasing", "repeated",
                                                               "empty"])
@pytest.mark.parametrize("study", [
    lambda levels: run_projection(2, "S", 1, levels),
    lambda levels: run_primal_poisson(2, "S", 1, levels),
    lambda levels: run_mixed_poisson(2, "S", 1, levels),
    lambda levels: run_maxwell_eig("S", 1, levels),
], ids=["project", "poisson", "mixed-poisson", "maxwell"])
def test_studies_reject_bad_levels_before_meshing(monkeypatch, study, levels):
    from trimfem import experiments

    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(experiments, "build_box_mesh", no_mesh)
    with pytest.raises(ValueError, match=re.escape(f"levels {levels}")):
        study(levels)


_STUDY_CALLS = {
    "project": lambda **options: run_projection(2, "S", 1, [2], **options),
    "poisson": lambda **options: run_primal_poisson(2, "S", 1, [2], **options),
    "mixed-poisson": lambda **options: run_mixed_poisson(2, "S", 1, [2], **options),
    "maxwell": lambda **options: run_maxwell_eig("S", 1, [2], **options),
}


@pytest.mark.parametrize("study, options, message", [
    *[pytest.param(study, {"tol": tol}, f"tol={tol}: the tolerance must be finite",
                   id=f"{study}-tol={tol}")
      for study in _STUDY_CALLS for tol in (-1.0, float("nan"), 0, True)],
    pytest.param("poisson", {"bc_mode": "bogus"}, "unknown boundary mode 'bogus'",
                 id="poisson-bc_mode"),
    pytest.param("maxwell", {"nev": 0}, "nev=0: request at least one eigenpair",
                 id="maxwell-nev=0"),
    pytest.param("maxwell", {"nev": 2.5}, "nev=2.5: the number of eigenpairs must be an integer",
                 id="maxwell-nev=2.5"),
    # a bool tol solved to 1.0, a bool target ran at 1 pi^2
    pytest.param("maxwell", {"target": True}, "target=True: the cavity target, in units of "
                 "pi^2, must be finite and positive", id="maxwell-target=True"),
])
def test_studies_reject_bad_options_before_meshing(monkeypatch, study, options, message):
    # each once meshed and assembled its first level before the solver or
    # apply_dirichlet refused the option
    from trimfem import experiments

    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(experiments, "build_box_mesh", no_mesh)
    with pytest.raises(ValueError, match=re.escape(message)):
        _STUDY_CALLS[study](**options)


def test_studies_and_the_dof_report_take_numpy_integer_arrays():
    # each raised numpy's "truth value of an array ... is ambiguous" from
    # the line meant to name bad levels
    assert ([row.dofs for row in run_primal_poisson(2, "S", 1, np.array([4, 8]))]
            == [row.dofs for row in run_primal_poisson(2, "S", 1, [4, 8])])
    assert report_dofs(2, 0, np.array([1, 2]), 4) == report_dofs(2, 0, [1, 2], 4)
    with pytest.raises(ValueError, match="must be a non-empty, strictly increasing list"):
        run_primal_poisson(2, "S", 1, np.array([8, 4]))
    with pytest.raises(ValueError, match=re.escape("levels [] must be")):
        run_primal_poisson(2, "S", 1, np.array([], dtype=int))
    with pytest.raises(ValueError, match=re.escape("orders [] must be a non-empty list")):
        report_dofs(2, 0, np.array([], dtype=int), 4)


@pytest.mark.parametrize("argv, message", [
    (["poisson", "--dim", "2", "--element", "S", "--order", "1", "--levels", "16,8"],
     "levels [16, 8]"),
    (["poisson", "--dim", "2", "--element", "S", "--order", "1", "--levels", ","],
     "levels []"),
    (["maxwell-eig", "--element", "SminusCurl", "--order", "1", "--levels", "3",
      "--nev", "0"], "nev=0"),
    # one cell of lowest order: every DOF is on the boundary
    (["maxwell-eig", "--element", "SminusCurl", "--order", "1", "--levels", "1"],
     "eigenproblem of size 0"),
    (["dofs", "--orders", ""], "orders []"),
    # in units of pi^2, as given, not the pencil's shift -pi^2
    (["maxwell-eig", "--element", "SminusCurl", "--order", "1", "--levels", "2",
      "--target", "-1"], "target=-1.0: the cavity target, in units of pi^2"),
], ids=["decreasing-levels", "empty-levels", "nev-0", "cavity-without-unknowns",
        "dofs-without-orders", "negative-target"])
def test_cli_rejects_bad_study_input(capsys, argv, message):
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n, family", [(3, "S"), (2, "Q")])
def test_eliminate_ladder_solves_a_level_without_unknowns(n, family):
    # at N = 1 every Lagrange_1 DOF is on the boundary: zero coefficients,
    # so the error is the exact solution's norm, 2^(-n/2) up to quadrature
    coarse, fine = run_primal_poisson(n, family, 1, [1, 2], bc_mode="eliminate")
    assert (coarse.dofs, fine.dofs) == (2**n, 3**n)
    assert coarse.error == pytest.approx(2 ** (-n / 2), rel=0.01)
    assert fine.error < coarse.error and fine.rate > 1


def test_exact_cavity_spectrum_prefix():
    assert exact_cavity_eigenvalues(10) == [2, 3, 5, 6, 8, 9, 10]


def test_maxwell_report_small():
    rep = run_maxwell_eig("S", 2, [2, 4], nev=8)
    assert [lv.N for lv in rep.levels] == [2, 4]
    assert [lv.dofs for lv in rep.levels] == [180, 1080]
    assert 2 in rep.levels[1].groups
    val, count = rep.levels[1].groups[2][0]
    assert count == 3
    assert val == pytest.approx(2.001092, abs=2e-5)
    rate = rep.rates[2][1]
    assert rate == pytest.approx(4.0, abs=0.8)  # pre-asymptotic window
    text = format_maxwell(rep)
    assert "DOF" in text and "time/iter" in text


def test_cavity_rate_is_none_against_a_level_without_the_eigenvalue(tmp_path):
    # lambda = 3 is missing at N=2: its series has no row there, the N=4 row
    # has no rate and the N=6 row a rate against N=4
    rep = run_maxwell_eig("S", 1, [2, 4, 6], nev=12)
    assert 3 not in rep.levels[0].groups
    first, second, third = rep.series[3]
    assert first is None and second.rate is None
    assert rep.rates[3][:2] == [None, None]
    assert rep.rates[3][2] == pytest.approx(2.02, abs=0.01)
    assert third.error == abs(_dominant(rep.levels[2].groups[3]) - 3)
    assert (third.h, third.dofs) == (1 / 6, rep.levels[2].dofs)
    assert third.time == rep.levels[2].assembly_time + rep.levels[2].solve_time

    from trimfem.cli import _write_maxwell_csvs

    _write_maxwell_csvs(rep, tmp_path / "cavity")
    rows = _read_csv(tmp_path / "cavity_eigenvalue3.csv")
    assert len(rows) == 2
    assert rows[0]["rate"] == "" and float(rows[1]["rate"]) == third.rate
    assert [float(row["Error"]) for row in rows] == [second.error, third.error]


@pytest.mark.parametrize("nev", [5, 6, 15])
def test_maxwell_drops_the_zero_when_nev_covers_the_system(monkeypatch, nev):
    # N=2 leaves 6 free DOFs: 0, 2.4317 x3 and 3.6476 x2 over pi^2.  Five
    # pairs come back at most, and the zero, ranked last, is the one dropped
    results = _recorded_eig_results(monkeypatch)
    (level,) = run_maxwell_eig("S", 1, [2], nev=nev).levels
    (result,) = results
    assert len(result) == 5 and result.eigenvalues.min() > np.pi**2
    ((value, count),) = level.groups[2]
    assert count == 3 and value == pytest.approx(2.4317, abs=1e-4)
    assert level.groups.keys() == {2}


def test_maxwell_names_a_cavity_without_unknowns():
    with pytest.raises(ValueError, match="eigenproblem of size 0"):
        run_maxwell_eig("S", 1, [1])


def test_maxwell_numbers_one_space_per_level(monkeypatch):
    from trimfem import experiments

    numbered = []
    numbering = experiments.global_numbering

    def recording_numbering(mesh, element):
        numbered.append(element)
        return numbering(mesh, element)

    monkeypatch.setattr(experiments, "global_numbering", recording_numbering)
    run_maxwell_eig("S", 1, [2, 4])
    assert len(numbered) == 2


def test_maxwell_reports_iteration_time_on_every_level():
    # N=2 leaves 6 free DOFs for 6 pairs requested; it iterates like N=4
    rep = run_maxwell_eig("S", 1, [2, 4], nev=6)
    (row,) = [line.split() for line in format_maxwell(rep).splitlines()
              if line.split()[0] == "time/iter"]
    for level, cell in zip(rep.levels, row[1:], strict=True):
        assert 0 < level.time_per_iteration < level.solve_time
        assert float(cell) == pytest.approx(level.time_per_iteration, abs=1e-6)


def _recorded_eig_results(monkeypatch):
    """The list that every cavity study's `EigenResult` is appended to."""
    from trimfem import experiments

    results = []
    eig = experiments.eig_shift_invert

    def recording_eig(*args, **kwargs):
        results.append(eig(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "eig_shift_invert", recording_eig)
    return results


def test_maxwell_iteration_time_leaves_out_the_factorization(monkeypatch):
    results = _recorded_eig_results(monkeypatch)
    (level,) = run_maxwell_eig("S", 2, [4], nev=6).levels
    (result,) = results
    assert result.op_count > 0
    assert level.time_per_iteration == result.op_time / result.op_count
    assert level.time_per_iteration * result.op_count < level.solve_time


@pytest.mark.parametrize("family, N", [("S", 4), ("Q", 4), ("Q", 8)])
def test_cavity_clusters_are_complete(monkeypatch, family, N):
    # the 15 pairs of smallest Cayley magnitude about 3 pi^2 hold every
    # copy of 2, 3 and 5 pi^2, with no pair computed beyond them
    results = _recorded_eig_results(monkeypatch)
    (level,) = run_maxwell_eig(family, 2, [N]).levels
    (result,) = results
    assert len(result) == 15 and result.op_count > 0
    counts = {e: [c for _, c in clusters] for e, clusters in level.groups.items()}
    # 2, 3 and 5 whole; 6 is cut by the window at 4 of its 6 copies, which
    # S- splits 3 + 1
    assert {e: counts[e] for e in (2, 3, 5)} == {2: [3], 3: [2], 5: [6]}
    assert counts.keys() == {2, 3, 5, 6} and sum(counts[6]) == 4


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_workloads():
    """`perfbench/workloads.py`, loaded as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_study_levels():
    """The study levels of the benchmark's spd_solve and indefinite_solve
    workloads, as `perfbench/workloads.py` lists them."""
    workloads = _perfbench_workloads()
    return [pytest.param(workloads.run, op, id=op.key)
            for name in ("spd_solve", "indefinite_solve")
            for op in workloads.operations(name)
            if op.kind in ("poisson", "mixed", "maxwell")]


@pytest.mark.parametrize("run, op", _benchmark_study_levels())
def test_no_benchmark_study_level_calls_superlu(splu_dtypes, run, op):
    # every study system factors on its lattice's tree: SPD and cavity
    # systems directly, mixed systems through K.  The 2D N=512 level's
    # rounding floor lies above the 1e-12 gate (the benchmark's known
    # failure); it too raises without a SuperLU factor
    if op.key == "poisson:2,S,1,512":
        with pytest.raises(RuntimeError, match="on a multifrontal factor"):
            run(op)
    else:
        run(op)
    assert splu_dtypes == []


@pytest.mark.parametrize("workload", ["spd_solve", "indefinite_solve"])
def test_benchmark_outputs_pass_the_reference_check(workload):
    # every operation's outputs, as the benchmark's worker runs and checks
    # them against perfbench/reference.json; the 2D N=512 level is the
    # reference's one known failure (its rounding floor is above the gate)
    workloads = _perfbench_workloads()
    reference = json.loads((_PERFBENCH / "reference.json").read_text())[workload]
    ops = workloads.operations(workload)
    results = {}
    for op in ops:
        try:
            results[op.key] = ("ok", workloads.run(op))
        except RuntimeError as err:  # the residual gate; anything else fails here
            results[op.key] = ("error", type(err).__name__, str(err))
    status = workloads.check(ops, results, reference)
    known = {"poisson:2,S,1,512"} & status.keys()
    assert {key for key in reference if "known_failure" in reference[key]} == known
    assert {key: s for key, (s, _) in status.items()} == {
        op.key: "known_failure" if op.key in known else "ok" for op in ops}, status


@pytest.mark.parametrize("family", ["S", "Q"])
def test_benchmark_cavity_levels_make_no_superlu_call(splu_dtypes, family):
    # every shifted pencil of the benchmark factors on its lattice's tree
    report = run_maxwell_eig(family, 2, [4, 8])
    assert len(report.levels) == 2
    assert splu_dtypes == []


def test_cavity_subclusters_below_the_target():
    # Cayley magnitude ranks the pairs below the target in descending order;
    # the report must still see S- split 6 into 3 + 3 here
    (level,) = run_maxwell_eig("S", 2, [4], target=7.0).levels
    counts = {e: [c for _, c in clusters] for e, clusters in level.groups.items()}
    assert counts == {6: [3, 3], 8: [3], 9: [3, 3]}


def test_a_cavity_cluster_wider_than_the_block_comes_back_whole():
    # 14 pi^2 has 12 copies on Q-_2 N=4, more than a block's 8 columns
    (level,) = run_maxwell_eig("Q", 2, [4], nev=60).levels
    counts = {e: [c for _, c in clusters] for e, clusters in level.groups.items()}
    assert counts == {2: [3], 3: [2], 5: [6], 6: [6], 8: [3], 9: [6], 10: [6],
                      11: [6], 12: [2], 13: [6], 14: [12], 17: [2]}


def test_cavity_report_matches_exact_values_above_twenty():
    # the exact values matched follow the returned pairs; a fixed limit of
    # 20 left this report empty
    (level,) = run_maxwell_eig("S", 2, [4], target=24.0, nev=8).levels
    counts = {e: [c for _, c in clusters] for e, clusters in level.groups.items()}
    assert counts == {24: [3], 25: [3], 26: [2]}


def test_report_dofs_equality_and_dominance():
    rows = report_dofs(3, 1, [1, 2], 4)
    assert rows[0]["trimmed"] == rows[0]["tensor"] == 300
    assert rows[1]["trimmed"] == 1080
    assert rows[1]["tensor"] == 1944


def test_format_rows_readable():
    rows = [ExperimentRow(h=0.25, dofs=10, error=1e-3, assembly_time=0.25,
                          solve_time=0.5)]
    assert rows[0].time == 0.75  # derived, never stored
    text = format_rows(rows)
    assert "Dofs" in text and "0.25" in text and "0.7500" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_project_writes_csv(tmp_path, capsys):
    out = tmp_path / "proj.csv"
    code = cli_main([
        "project", "--dim", "2", "--element", "RTCE", "--order", "1",
        "--levels", "2,4", "--out", str(out),
    ])
    assert code == 0
    assert "rate" in capsys.readouterr().out
    rows = _read_csv(out)
    assert len(rows) == 2 and rows[0]["rate"] == ""


def test_cli_rejects_unknown_element(capsys):
    code = cli_main([
        "project", "--dim", "2", "--element", "Nedelec", "--order", "1",
        "--levels", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "SminusCurl" in err  # lists valid names


@pytest.mark.parametrize("command, dim, element, message", [
    ("poisson", "2", "RTCE", "poisson"),
    ("project", "3", "RTCE", "does not exist in 3D"),
    ("mixed-poisson", "2", "NCF", "does not exist in 2D"),
], ids=["poisson-RTCE", "project-3D-RTCE", "mixed-poisson-2D-NCF"])
def test_cli_rejects_wrong_conformity(capsys, command, dim, element, message):
    code = cli_main([
        command, "--dim", dim, "--element", element, "--order", "1",
        "--levels", "2",
    ])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, usable", [
    ("project", {"SminusCurl", "RTCE", "NCE"}),
    ("poisson", {"S", "Lagrange"}),
    ("mixed-poisson", {"SminusDiv", "RTCF", "NCF"}),
])
def test_cli_studies_take_the_names_of_their_push_forward(capsys, command, usable):
    accepted = set()
    for name in element_names():
        for dim in ("2", "3"):
            code = cli_main([command, "--dim", dim, "--element", name, "--order", "1",
                             "--levels", "2"])
            err = capsys.readouterr().err
            if "not usable here" not in err:
                accepted.add(name)
                assert code == 0 or f"does not exist in {dim}D" in err, err
    assert accepted == usable


@pytest.mark.parametrize("element, message", [
    ("RTCE", "'RTCE'"), ("S", "choose one of"), ("NCF", "choose one of")])
def test_maxwell_eig_takes_only_3d_covariant_names(capsys, element, message):
    code = cli_main(["maxwell-eig", "--element", element, "--order", "1", "--levels", "2"])
    assert code == 1
    assert message in capsys.readouterr().err


def test_cli_element_dump(tmp_path):
    out = tmp_path / "dump.txt"
    code = cli_main([
        "element-dump", "--dim", "3", "--element", "SminusCurl", "--order", "2",
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "Lambda^1" in text and "dimension 36" in text


def test_cli_element_dump_prints_without_out(capsys):
    code = cli_main(["element-dump", "--dim", "2", "--element", "S", "--order", "1"])
    assert code == 0
    assert capsys.readouterr().out == element_dump(element_by_name("S", 2, 1)) + "\n"


def test_cli_dofs_table(capsys, tmp_path):
    out = tmp_path / "dofs.csv"
    code = cli_main([
        "dofs", "--dim", "3", "--form-degree", "1", "--orders", "1,2",
        "--divisions", "4", "--out", str(out),
    ])
    assert code == 0
    assert "1080" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "r,trimmed,tensor"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", [
    ["poisson", "--dim", "2", "--element", "S", "--order", "1", "--levels", "2,4"],
    ["maxwell-eig", "--element", "SminusCurl", "--order", "1", "--levels", "2",
     "--nev", "2"],
], ids=["poisson", "maxwell-eig"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, command, tol):
    assert cli_main(command + [f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert "must be finite and positive" in captured.err
    assert captured.out == ""


def test_cli_maxwell_small(capsys, tmp_path):
    code = cli_main([
        "maxwell-eig", "--element", "SminusCurl", "--order", "1",
        "--levels", "2,4", "--nev", "6",
    ])
    assert code == 0
    assert "cavity" in capsys.readouterr().out


# One small level of each study, run with scipy's OpenBLAS pool at one and
# then two threads; prints one line of outputs per pool size.  The Q-_2 N=8
# cavity is the smallest level whose eigenvalues changed with the pool size
# before every solve ran on one thread of it.  The subprocesses below run
# with warnings as errors, as pytest's own process does (pyproject.toml).
_EACH_STUDY = """
from trimfem import experiments, multifrontal

_, set_threads = multifrontal._blas_threads()
for threads in (1, 2):
    set_threads(threads)
    rows = (experiments.run_primal_poisson(3, "S", 3, [6])
            + experiments.run_projection(2, "Q", 2, [16])
            + experiments.run_mixed_poisson(3, "Q", 2, [4]))
    level = experiments.run_maxwell_eig("Q", 2, [8]).levels[0]
    print(repr(([(row.dofs, row.error) for row in rows], level.dofs,
                sorted(level.groups.items()), level.residual)))
"""


def test_study_outputs_do_not_depend_on_either_blas_pool():
    # numpy bundles its own OpenBLAS, whose pool OPENBLAS_NUM_THREADS sizes
    # at start-up (scipy's too, until the script presets it)
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for numpy_threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   OPENBLAS_NUM_THREADS=numpy_threads)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", _EACH_STUDY], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs += proc.stdout.splitlines()
    assert len(outputs) == 4 and len(set(outputs)) == 1


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "trimfem.cli", "dofs", "--dim", "2",
         "--form-degree", "0", "--orders", "1", "--divisions", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Q^- DOFs" in proc.stdout


def test_cli_maxwell_tol_flag_and_csvs(tmp_path, capsys):
    code = cli_main([
        "maxwell-eig", "--element", "SminusCurl", "--order", "1",
        "--levels", "2,4", "--nev", "6", "--tol", "1e-8",
        "--out", str(tmp_path / "cavity"),
    ])
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "cavity_eigenvalue2.csv" in written
    rows = _read_csv(tmp_path / "cavity_eigenvalue2.csv")
    assert len(rows) == 2 and rows[1]["rate"] != ""


def test_matched_cost_mixed_comparison():
    # trimmed pair one order up costs about the same as the tensor pair
    # and delivers a smaller error
    rows_s = run_mixed_poisson(3, "S", 3, [2])
    rows_q = run_mixed_poisson(3, "Q", 2, [2])
    assert rows_s[0].dofs < 1.3 * rows_q[0].dofs
    assert rows_s[0].error < rows_q[0].error


def test_readme_quickstart_names_are_importable():
    # runs the python block under "Library quick start" as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["err"] < 1e-4


def test_readme_command_lines_parse():
    # every "trimfem ..." line under "Command line", as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split()[1:] for line in block.splitlines()
             if line.startswith("trimfem ")]
    assert {argv[0] for argv in lines} == set(_STUDIES) | {
        "maxwell-eig", "dofs", "element-dump"}
    parser = make_parser()
    for argv in lines:
        assert parser.parse_args(argv).command == argv[0]


def test_maxwell_eig_has_no_bc_mode(capsys):
    with pytest.raises(SystemExit) as exit_info:
        make_parser().parse_args(["maxwell-eig", "--element", "SminusCurl",
                                  "--bc-mode", "diag1"])
    assert exit_info.value.code == 2
    assert "--bc-mode" in capsys.readouterr().err


def test_poisson_has_no_bc_mode(capsys):
    with pytest.raises(SystemExit) as exit_info:
        make_parser().parse_args(["poisson", "--element", "S", "--bc-mode", "diag1"])
    assert exit_info.value.code == 2
    assert "--bc-mode" in capsys.readouterr().err
