"""Experiment harness: rates, CSV round trips, reports, CLI."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trimfem.cli import main as cli_main
from trimfem.experiments import (
    ExperimentRow,
    convergence_rate,
    exact_cavity_eigenvalues,
    format_maxwell,
    format_rows,
    read_csv,
    report_dofs,
    run_maxwell_eig,
    run_mixed_poisson,
    run_primal_poisson,
    run_projection,
    write_csv,
)


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
    back = read_csv(path)
    assert [(r.h, r.dofs, r.error, r.time, r.rate) for r in back] == [
        (r.h, r.dofs, r.error, r.time, r.rate) for r in rows
    ]
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
    sys = assemble_mixed_poisson(mesh, hdiv, l2, lambda x: np.zeros(x.shape[:-1]))
    x = solve_saddle(sys)
    assert np.abs(x).max() <= 1e-10


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


@pytest.mark.parametrize("study, expected", [
    (lambda: run_primal_poisson(2, "S", 1, [4, 8]), 2),
    (lambda: run_mixed_poisson(2, "S", 2, [2, 4]), 2),
    # N=3: N=2 has 6 free DOFs, fewer than the 15 pairs requested, so it
    # takes the dense path even with dense_cutoff=1
    (lambda: run_maxwell_eig("S", 1, [3], dense_cutoff=1), 1),
], ids=["primal-poisson", "mixed-poisson", "maxwell-sparse"])
def test_each_study_level_factors_once(monkeypatch, study, expected):
    from trimfem import solve

    calls = []
    splu = solve.spla.splu
    multifrontal = solve.multifrontal.factor

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    def counting_multifrontal(A, lattice):
        calls.append(A.shape)
        return multifrontal(A, lattice)

    monkeypatch.setattr(solve.spla, "splu", counting_splu)
    monkeypatch.setattr(solve.multifrontal, "factor", counting_multifrontal)
    study()
    assert len(calls) == expected


@pytest.mark.parametrize("study, expected", [
    # the multifrontal factor reads the lattice, never the ordering
    (lambda: run_primal_poisson(2, "S", 1, [4, 8]), 0),
    (lambda: run_primal_poisson(2, "S", 1, [4], bc_mode="eliminate"), 0),
    # the stacked flux/potential lattice, never the flux map's own order
    (lambda: run_mixed_poisson(2, "S", 2, [2, 4]), 2),
    # A and M share one map; M is never factored
    (lambda: run_maxwell_eig("S", 1, [3], dense_cutoff=1), 1),
    # the dense path factors nothing
    (lambda: run_maxwell_eig("S", 1, [3]), 0),
], ids=["primal-poisson", "primal-eliminate", "mixed-poisson", "maxwell-sparse",
        "maxwell-dense"])
def test_orderings_are_computed_only_for_factored_maps(monkeypatch, study, expected):
    from trimfem import assemble, mesh

    calls = []
    nested_dissection = mesh.nested_dissection

    def counting(lattice):
        calls.append(len(lattice))
        return nested_dissection(lattice)

    monkeypatch.setattr(mesh, "nested_dissection", counting)
    monkeypatch.setattr(assemble, "nested_dissection", counting)
    study()
    assert len(calls) == expected


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


@pytest.mark.parametrize("argv, message", [
    (["poisson", "--dim", "2", "--element", "S", "--order", "1", "--levels", "16,8"],
     "levels [16, 8]"),
    (["poisson", "--dim", "2", "--element", "S", "--order", "1", "--levels", ","],
     "levels []"),
    (["maxwell-eig", "--element", "SminusCurl", "--order", "1", "--levels", "3",
      "--nev", "0"], "nev=0"),
], ids=["decreasing-levels", "empty-levels", "nev-0"])
def test_cli_rejects_bad_study_input(capsys, argv, message):
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


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


def test_maxwell_takes_the_dense_path_when_nev_covers_the_system():
    # N=2 leaves 6 free DOFs, fewer than the 15 pairs requested
    sparse = run_maxwell_eig("S", 1, [2], dense_cutoff=1)
    dense = run_maxwell_eig("S", 1, [2])
    assert sparse.levels[0].groups == dense.levels[0].groups
    ((value, count),) = dense.levels[0].groups[2]
    assert count == 3 and value == pytest.approx(2.4317, abs=1e-4)


def test_maxwell_reports_no_iteration_time_on_the_dense_path():
    # N=2 leaves 6 free DOFs and takes the dense path; N=4 leaves more
    # than dense_cutoff and iterates
    rep = run_maxwell_eig("S", 1, [2, 4], nev=6, dense_cutoff=100)
    dense, sparse = rep.levels
    assert dense.time_per_iteration is None
    assert 0 < sparse.time_per_iteration < sparse.solve_time
    (row,) = [line.split() for line in format_maxwell(rep).splitlines()
              if line.split()[0] == "time/iter"]
    assert row[1] == "dense"
    assert float(row[2]) == pytest.approx(sparse.time_per_iteration, abs=1e-6)


def test_maxwell_iteration_time_leaves_out_the_factorization(monkeypatch):
    from trimfem import experiments

    results = []
    eig = experiments.eig_shift_invert

    def recording_eig(*args, **kwargs):
        results.append(eig(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "eig_shift_invert", recording_eig)
    (level,) = run_maxwell_eig("S", 2, [4], nev=6, dense_cutoff=100).levels
    (result,) = results
    assert result.op_count > 0
    assert level.time_per_iteration == result.op_time / result.op_count
    assert level.time_per_iteration * result.op_count < level.solve_time


def test_report_dofs_equality_and_dominance():
    rows = report_dofs(3, 1, [1, 2], 4)
    assert rows[0]["trimmed"] == rows[0]["tensor"] == 300
    assert rows[1]["trimmed"] == 1080
    assert rows[1]["tensor"] == 1944


def test_format_rows_readable():
    rows = [ExperimentRow(h=0.25, dofs=10, error=1e-3, time=0.1, rate=None)]
    text = format_rows(rows)
    assert "Dofs" in text and "0.25" in text


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
    rows = read_csv(out)
    assert len(rows) == 2


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


def test_cli_element_dump(tmp_path):
    out = tmp_path / "dump.txt"
    code = cli_main([
        "element-dump", "--dim", "3", "--element", "SminusCurl", "--order", "2",
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "Lambda^1" in text and "dimension 36" in text


def test_cli_dofs_table(capsys, tmp_path):
    out = tmp_path / "dofs.csv"
    code = cli_main([
        "dofs", "--dim", "3", "--form-degree", "1", "--orders", "1,2",
        "--divisions", "4", "--out", str(out),
    ])
    assert code == 0
    assert "1080" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "r,trimmed,tensor"


def test_cli_maxwell_small(capsys, tmp_path):
    code = cli_main([
        "maxwell-eig", "--element", "SminusCurl", "--order", "1",
        "--levels", "2,4", "--nev", "6",
    ])
    assert code == 0
    assert "cavity" in capsys.readouterr().out


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "trimfem.cli", "dofs", "--dim", "2",
         "--form-degree", "0", "--orders", "1", "--divisions", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
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
    rows = read_csv(tmp_path / "cavity_eigenvalue2.csv")
    assert len(rows) == 2 and rows[1].rate is not None


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
