"""End-to-end tests for the command-line front end.

Commands are driven through cli.main so exit codes and file outputs are
checked exactly as a shell user would see them.
"""

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypiss import cli, control, linalg, pde, sdp
from identities import write_csv

# floats whose text is easy to get wrong: nan, both infinities, negative
# zero, the smallest subnormal, a huge value, and a sum that is not 0.3
AWKWARD = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308,
           0.1 + 0.2]

PLANT = {
    "lambda": [1.0, math.sqrt(2.0)],
    "H": [[0.25, 0.0], [-1.0, 0.25]],
    "B": [[1.0, 0.0], [0.0, 1.0]],
    "N": [[1.0, 0.0], [0.0, 1.0]],
    "u_max": [0.3, 0.3],
}


def _design_config(**overrides) -> dict:
    cfg = {
        "plant": json.loads(json.dumps(PLANT)),
        "design": {"mu": 1.0, "alpha": 0.5, "epsilon": 1e-6, "delta": 0.01},
        "simulation": {
            "M": 100,
            "cfl": 0.9,
            "t_final": 5.0,
            "disturbance": {"kind": "sinusoidal_product", "amplitude": 5.0,
                            "phases": ["sin", "cos"]},
            "initial": {"kind": "cosine_profile", "amplitude": 10.0,
                        "frequencies": [2.0, 1.0]},
        },
        "output": {"directory": "out"},
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _design_batch(forms) -> bool:
    """Whether a batch of sdp.minimize_batch holds designs, not rows."""
    return ("peak", 0) in forms[0].refs


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSeedConfigs:
    def test_writes_runnable_examples(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--seed-configs"]) == 0
        design = tmp_path / "example_design.json"
        grid = tmp_path / "example_gridsearch.json"
        assert design.exists() and grid.exists()
        cfg = json.loads(design.read_text())
        assert cfg["design"]["mu"] == 1.0
        assert "count" in json.loads(grid.read_text())["design"]["mu"]
        # seeded design config must synthesize as-is
        code = cli.main(["synth", "--config", str(design),
                         "--out", str(tmp_path / "o")])
        assert code == 0

    def test_replaces_existing_examples(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        names = ("example_design.json", "example_gridsearch.json")
        for name in names:
            (tmp_path / name).write_bytes(b"{}" + b" " * 100_000)
        assert cli.main(["--seed-configs"]) == 0
        assert json.loads((tmp_path / names[0]).read_text()) == cli._EXAMPLE_DESIGN
        assert json.loads((tmp_path / names[1]).read_text()) == cli._EXAMPLE_GRID


class TestSynth:
    def test_writes_certificate_and_report(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", cfg_path, "--out", str(out)]) == 0

        cert = json.loads((out / "certificate.json").read_text())
        for key in ("gain", "lyap_inv", "sector_inv", "gain_scaled",
                    "coupling", "mu", "alpha", "peak", "gamma", "omega",
                    "kappa", "margins"):
            assert key in cert
        # gamma is sqrt(lambda_max Q) scaled, and the peak variable caps
        # lambda_max Q to solver precision rather than exactly
        assert cert["gamma"] == pytest.approx(
            math.sqrt(cert["peak"]) * math.exp(cert["mu"] / 2.0), rel=1e-6)
        assert abs(cert["peak"] - 11.1577) < 5e-3
        assert min(cert["margins"].values()) >= -1e-9

        report = json.loads((out / "synth_report.json").read_text())
        assert report["command"] == "synth"
        assert report["status"] == "feasible"
        assert len(report["config_digest"]) == 64
        assert "certificate.json" in report["manifest"]
        assert "synth_report.json" in report["manifest"]
        steps = report["newton_steps"]
        assert steps["row"] > 0 and steps["cell"] > 0
        assert 0.0 < report["duality_gap"] < 1e-7
        # the row stopped once its margin was under -1e-7, a strictly
        # feasible start for the design
        assert report["row_margin"] < -1e-7
        assert "newton_steps" not in cert and "duality_gap" not in cert
        assert "row_margin" not in cert

    def test_grid_alpha_is_schema_error(self, tmp_path, capsys):
        cfg = _design_config()
        cfg["design"]["alpha"] = {"min": 0.1, "max": 1.5, "count": 8}
        code = cli.main(["synth", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "design.alpha" in capsys.readouterr().err

    def test_missing_plant_entry_names_path(self, tmp_path, capsys):
        cfg = _design_config()
        del cfg["plant"]["lambda"]
        code = cli.main(["synth", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "plant.lambda" in capsys.readouterr().err

    def test_infeasible_design_exits_2(self, tmp_path, reflection_plant_config):
        # the solver finds the uncontrolled reflection infeasible at (1.0, 0.5)
        cfg = _design_config(plant=reflection_plant_config)
        out = tmp_path / "o"
        code = cli.main(["synth", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == 2
        report = json.loads((out / "synth_report.json").read_text())
        assert report["status"] == "infeasible"
        assert report["duality_gap"] is None
        assert report["row_margin"] > 1e-7
        assert report["newton_steps"]["row"] > 0 and report["newton_steps"]["cell"] is None
        # the row's verdict, as synthesize gives it
        plant = cli._build_plant(cfg)
        with pytest.raises(control.InfeasibleError) as exc:
            control.synthesize(plant, 1.0, 0.5, eps=1e-6)
        assert report["reason"] == str(exc.value) == exc.value.row.reason
        assert report["row_margin"] == exc.value.row.s
        assert report["margins"] == {}

    def test_design_past_the_decay_bound_reports_its_reason(self, tmp_path, capsys):
        # alpha = 1.2 >= mu min(lambda) = 1: infeasible with no solver trace
        cfg = _design_config()
        cfg["design"]["alpha"] = 1.2
        out = tmp_path / "o"
        code = cli.main(["synth", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == 2
        reason = control._decay_bound(cli._build_plant(cfg), 1.0, 1.2, 1e-6)
        assert capsys.readouterr().err == f"infeasible at mu=1, alpha=1.2 ({reason})\n"
        report = json.loads((out / "synth_report.json").read_text())
        assert report["status"] == "infeasible"
        assert report["reason"] == reason
        assert report["margins"] == {}
        assert report["certificate"] is None
        assert [report[k] for k in ("row_margin", "newton_steps", "duality_gap")] == [
            None] * 3

    def test_infeasible_design_builds_its_inequalities_once(
            self, tmp_path, monkeypatch, reflection_plant_config):
        # the row's infeasible verdict comes before any form of the design
        # is built
        calls = []

        def counted(name):
            real = getattr(control, name)

            def build(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return build

        for name in ("build_projected_lmis", "build_synthesis_lmis"):
            monkeypatch.setattr(control, name, counted(name))
        cfg = _design_config(plant=reflection_plant_config)
        assert cli.main(["synth", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert calls == []
        # a design past the decay bound builds nothing
        cfg = _design_config()
        cfg["design"]["alpha"] = 1.2
        assert cli.main(["synth", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "p")]) == 2
        assert calls == []

    def test_solver_failure_writes_a_report_and_exits_1(self, tmp_path, monkeypatch, capsys):
        real, failed = sdp.minimize_batch, []

        def fail(forms, *args):
            solutions = real(forms, *args)
            if _design_batch(forms):
                solutions = [dataclasses.replace(sol, status=sdp.Status.NUMERICAL_FAILURE,
                                                 objective=None) for sol in solutions]
                failed.extend(solutions)
            return solutions

        monkeypatch.setattr(sdp, "minimize_batch", fail)
        out = tmp_path / "o"
        code = cli.main(["synth", "--config", _write_config(tmp_path, _design_config()),
                         "--out", str(out)])
        assert code == 1
        reason = "solver reported numerical_failure at mu=1.0, alpha=0.5"
        assert capsys.readouterr().err == f"solver error: {reason}\n"
        assert [p.name for p in out.iterdir()] == ["synth_report.json"]
        report = json.loads((out / "synth_report.json").read_text())
        assert report["status"] == "failed"
        assert report["reason"] == reason
        assert (report["mu"], report["alpha"]) == (1.0, 0.5)
        assert report["margins"] == {}
        assert report["certificate"] is None
        assert report["manifest"] == ["synth_report.json"]
        [solution] = failed
        [row] = control._rows(cli._build_plant(_design_config()), [1.0])
        trace = cli._solver_trace(row, solution)
        assert {k: report[k] for k in trace} == trace
        assert report["duality_gap"] is not None

    def test_recheck_error_writes_a_report_and_exits_1(self, tmp_path, monkeypatch):
        # every basis fails the orthonormality test, so the margin re-check
        # raises ConvergenceError
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        out = tmp_path / "o"
        code = cli.main(["synth", "--config", _write_config(tmp_path, _design_config()),
                         "--out", str(out)])
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["synth_report.json"]
        report = json.loads((out / "synth_report.json").read_text())
        assert report["status"] == "failed"
        assert report["reason"].startswith(
            "margins could not be re-checked at mu=1.0, alpha=0.5: ConvergenceError: ")
        assert "orthonormality test" in report["reason"]
        assert report["certificate"] is None

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["synth", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestGrid:
    def _grid_config(self, mu, alpha):
        cfg = _design_config()
        cfg["design"] = {"mu": mu, "alpha": alpha, "epsilon": 1e-6}
        return cfg

    def test_two_by_two_map(self, tmp_path):
        cfg = self._grid_config({"min": 0.5, "max": 1.0, "count": 2},
                                {"min": 0.5, "max": 1.2, "count": 2})
        out = tmp_path / "o"
        assert cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0

        header, rows = _read_csv(out / "feasibility.csv")
        assert header == ["mu", "alpha", "status", "c", "gamma"]
        assert len(rows) == 4
        statuses = {(float(r[0]), float(r[1])): r[2] for r in rows}
        assert statuses[(1.0, 0.5)] == "feasible"
        assert statuses[(0.5, 0.5)] == "infeasible"
        assert statuses[(0.5, 1.2)] == "infeasible"
        assert statuses[(1.0, 1.2)] == "infeasible"
        feasible = [r for r in rows if r[2] == "feasible"][0]
        assert float(feasible[4]) == math.sqrt(float(feasible[3])) * math.exp(
            float(feasible[0]) / 2.0)
        # infeasible cells leave the numeric columns empty
        empty = [r for r in rows if r[2] == "infeasible"][0]
        assert empty[3] == "" and empty[4] == ""

        report = json.loads((out / "grid_report.json").read_text())
        assert report["best"]["mu"] == 1.0
        assert report["best"]["alpha"] == 0.5
        assert report["certificate"]["gain"] is not None

    def test_all_infeasible_exits_2(self, tmp_path):
        cfg = self._grid_config({"min": 0.25, "max": 0.25, "count": 1},
                                {"min": 1.4, "max": 1.4, "count": 1})
        out = tmp_path / "o"
        code = cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == 2
        report = json.loads((out / "grid_report.json").read_text())
        assert report["certificate"] is None
        assert "best" not in report

    def test_failed_cell_reason_in_report(self, tmp_path, monkeypatch):
        from hypiss import control

        real = control.build_synthesis_lmis
        calls = []

        def build(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise FloatingPointError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(control, "build_synthesis_lmis", build)
        cfg = self._grid_config({"min": 1.0, "max": 1.0, "count": 1},
                                {"min": 0.25, "max": 0.5, "count": 2})
        out = tmp_path / "o"
        assert cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        header, rows = _read_csv(out / "feasibility.csv")
        assert [r[2:] for r in rows] == [["failed", "", ""],
                                          ["feasible", rows[1][3], rows[1][4]]]
        report = json.loads((out / "grid_report.json").read_text())
        assert report["cells"] == {"feasible": 1, "infeasible": 0, "failed": 1}
        assert report["failed_cells"] == [
            {"mu": 1.0, "alpha": 0.25, "reason": "FloatingPointError: injected"}]

    def test_demo_grid_gammas_of_the_best_cell(self, tmp_path, monkeypatch,
                                               reflection_plant_config):
        # feasibility.csv states sqrt(c) e^{mu/2} from the peak bound c, the
        # certificate sqrt(max lyap_inv) e^{mu/2} with max lyap_inv <= c
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--seed-configs"]) == 0
        out = tmp_path / "o"
        assert cli.main(["grid", "--config", "example_gridsearch.json",
                         "--out", str(out)]) == 0
        _, rows = _read_csv(out / "feasibility.csv")
        report = json.loads((out / "grid_report.json").read_text())
        best = report["certificate"]
        assert (best["mu"], best["alpha"]) == (0.5, 0.1)
        row = [r for r in rows if (float(r[0]), float(r[1])) == (0.5, 0.1)][0]
        csv_gamma = float(row[4])
        assert best["gamma"] <= csv_gamma * (1.0 + 1e-9)
        assert best["gamma"] == pytest.approx(csv_gamma, rel=1e-8)
        self._check_traces(rows, report)
        # the 23 infeasible demo cells are past the decay bound: no solver
        # trace, and the reason in infeasible_cells
        assert [(c["mu"], c["alpha"]) for c in report["infeasible_cells"]] == [
            (float(r[0]), float(r[1])) for r in rows if r[2] == "infeasible"]
        assert len(report["infeasible_cells"]) == 23
        assert all(c["reason"].startswith(f"alpha={c['alpha']} >= mu*lambda_1=")
                   for c in report["infeasible_cells"])
        # the rows' infeasible verdicts carry the row's reason, and their
        # cells no solver trace
        cfg = self._grid_config({"min": 0.5, "max": 2.0, "count": 3},
                                {"min": 0.1, "max": 0.5, "count": 2})
        cfg["plant"] = reflection_plant_config
        assert cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "r")]) == 2
        _, rows = _read_csv(tmp_path / "r" / "feasibility.csv")
        report = json.loads((tmp_path / "r" / "grid_report.json").read_text())
        self._check_traces(rows, report)
        rows = {r["mu"]: r for r in report["rows"]}
        assert [(c["mu"], c["alpha"], c["reason"].startswith("row bound s - gap = "))
                for c in report["infeasible_cells"]] == [
            (0.5, 0.1, True), (0.5, 0.5, False), (1.25, 0.1, True), (1.25, 0.5, True),
            (2.0, 0.1, True), (2.0, 0.5, True)]
        assert sorted(rows) == [0.5, 1.25, 2.0]
        assert all(r["verdict"] == "infeasible" and r["s_minus_gap"] > 1e-7
                   and r["newton_steps"] > 0 for r in rows.values())

    @staticmethod
    def _check_traces(rows, report):
        """Every cell's Newton steps in the report, in the CSV's order: a
        positive count for a feasible cell, null for an infeasible one,
        which the decay bound or its row decided; and a row for each mu,
        with s < 0 in a row with a feasible cell."""
        steps = report["newton_steps"]
        assert [(c["mu"], c["alpha"]) for c in steps] == [
            (float(r[0]), float(r[1])) for r in rows]
        for cell, r in zip(steps, rows):
            assert (cell["steps"] is None) == (r[2] == "infeasible")
            assert r[2] == "infeasible" or cell["steps"] > 0
        mus = sorted({float(r[0]) for r in rows})
        assert [r["mu"] for r in report["rows"]] == mus
        for row in report["rows"]:
            feasible = any(float(r[0]) == row["mu"] and r[2] == "feasible" for r in rows)
            assert (row["verdict"] == "feasible") == feasible
            assert row["s"] < -1e-7 if feasible else row["s_minus_gap"] > 1e-7

    def test_demo_grid_best_certificate_verifies(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--seed-configs"]) == 0
        out = tmp_path / "o"
        assert cli.main(["grid", "--config", "example_gridsearch.json",
                         "--out", str(out)]) == 0
        report = json.loads((out / "grid_report.json").read_text())
        assert report["failed_cells"] == []
        cert = out / "best.json"
        cert.write_text(json.dumps(report["certificate"]))
        assert cli.main(["verify", "--config", "example_gridsearch.json",
                         "--gain", str(cert), "--out", str(out)]) == 0

    def test_recheck_error_fails_the_optimal_cells(self, tmp_path, monkeypatch):
        # a re-check that raises fails the cells it would have certified,
        # not the command: the infeasible cells stand as they were
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--seed-configs"]) == 0
        assert cli.main(["grid", "--config", "example_gridsearch.json",
                         "--out", "ok"]) == 0
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        assert cli.main(["grid", "--config", "example_gridsearch.json",
                         "--out", "o"]) == 2
        _, before = _read_csv(tmp_path / "ok" / "feasibility.csv")
        _, after = _read_csv(tmp_path / "o" / "feasibility.csv")
        assert [r[:2] for r in after] == [r[:2] for r in before]
        assert [r for r in after if r[2] == "infeasible"] == [
            r for r in before if r[2] == "infeasible"]
        assert len([r for r in before if r[2] == "infeasible"]) == 23
        failed = [r for r, b in zip(after, before) if b[2] == "feasible"]
        assert len(failed) == 41
        assert all(r[2:] == ["failed", "", ""] for r in failed)
        report = json.loads((tmp_path / "o" / "grid_report.json").read_text())
        assert report["cells"] == {"feasible": 0, "infeasible": 23, "failed": 41}
        assert report["certificate"] is None
        assert all("ConvergenceError: " in c["reason"] for c in report["failed_cells"])

    def test_grid_whose_every_cell_failed_exits_1(self, tmp_path, monkeypatch, capsys):
        # no cell is feasible and none is infeasible: the grid failed
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        cfg = self._grid_config({"min": 1.0, "max": 1.0, "count": 1},
                                {"min": 0.5, "max": 0.5, "count": 1})
        out = tmp_path / "o"
        assert cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)]) == 1
        assert "no feasible cell" in capsys.readouterr().err
        report = json.loads((out / "grid_report.json").read_text())
        assert report["status"] == "failed"
        assert report["cells"] == {"feasible": 0, "infeasible": 0, "failed": 1}
        assert report["infeasible_cells"] == []
        [cell] = report["failed_cells"]
        assert "ConvergenceError: " in cell["reason"]
        assert report["certificate"] is None

    def test_repeated_weight_is_config_error(self, tmp_path, capsys):
        # linspace(1, 1 + 2**-52, 3) is [1.0, 1.0, 1.0000000000000002]
        cfg = self._grid_config({"min": 1.0, "max": 1.0000000000000002, "count": 3},
                                {"min": 0.5, "max": 1.0, "count": 2})
        out = tmp_path / "o"
        code = cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: design.mu: ")
        assert not out.exists()

    def test_scalar_mu_is_schema_error(self, tmp_path, capsys):
        cfg = self._grid_config(1.0, {"min": 0.5, "max": 1.0, "count": 2})
        code = cli.main(["grid", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "design.mu" in capsys.readouterr().err


def _assert_snapshot_bytes(tmp_path, times, snaps, centers):
    """`_snapshot_blocks` writes the bytes csv.writer writes for the rows
    (t, z, x_1..x_n) of every record and cell center."""
    header = ["t", "z"] + [f"x_{i + 1}" for i in range(snaps.shape[1])]
    cli._write_csv(tmp_path / "a.csv", header, cli._snapshot_blocks(times, snaps, centers))
    write_csv(tmp_path / "b.csv", header,
              ([t, z, *snap[:, j]] for t, snap in zip(times, snaps)
               for j, z in enumerate(centers)))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCsvWriter:
    """`_write_csv` writes the same bytes as csv.writer with each float
    cell formatted on its own."""

    def test_float_rows(self, tmp_path):
        rows = list(itertools.product(AWKWARD, AWKWARD, [1.5, -2.0]))
        rows += [tuple(np.array(row)) for row in rows]  # numpy floats as cells
        cli._write_csv(tmp_path / "a.csv", ["x", "y", "z"],
                       cli._float_blocks(np.array(rows)))
        write_csv(tmp_path / "b.csv", ["x", "y", "z"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_text_cells_as_feasibility_csv_has_them(self, tmp_path):
        # (mu, alpha, status, c, gamma): c and gamma are formatted floats, or
        # empty for a cell with no design
        cells = [(mu, alpha, status) for mu, alpha in itertools.product(AWKWARD, AWKWARD)
                 for status in ("feasible", "infeasible", "failed")]
        rows = [(mu, alpha, status, *((mu, alpha) if status == "feasible" else (None, None)))
                for mu, alpha, status in cells]
        header = ["mu", "alpha", "status", "c", "gamma"]
        cli._write_csv(tmp_path / "a.csv", header, cli._feasibility_blocks(rows))
        write_csv(tmp_path / "b.csv", header,
                  [(mu, alpha, status, "" if status != "feasible" else "%.17g" % mu,
                    "" if status != "feasible" else "%.17g" % alpha)
                   for mu, alpha, status in cells])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_snapshot_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        times = np.concatenate([[0.0, 5e-324], np.cumsum(rng.random(5)) + 0.1])
        snaps = rng.standard_normal((times.size, 3, 9))
        snaps[1, :, :7] = np.reshape(AWKWARD * 3, (3, 7))
        centers = (np.arange(9) + 0.5) / 9
        _assert_snapshot_bytes(tmp_path, times, snaps, centers)

    def test_snapshot_table_longer_than_a_block(self, tmp_path):
        # 3 states and 10 rows a record: a block is the whole records whose
        # states fill it, so it ends on a record boundary, and the table
        # spans several blocks
        rows_each = cli._rows_per_block(3) // 10 * 10
        records = 3 * (cli._BLOCK_CELLS // 5) // 10
        assert records * 10 > rows_each
        rng = np.random.default_rng(4)
        times = np.cumsum(rng.random(records))
        snaps = (rng.standard_normal((records, 3, 10))
                 * 10.0 ** rng.integers(-6, 18, (records, 3, 10)))
        # awkward values in the rows either side of the first block's end
        record = rows_each // 10
        snaps[record - 1, :, 9] = [5e-324, float("nan"), -1e-4]
        snaps[record, :, 0] = [-0.0, 1e17, 0.1]
        centers = (np.arange(10) + 0.5) / 10
        first, second = map(bytes, itertools.islice(cli._snapshot_blocks(times, snaps, centers), 2))
        assert first.endswith(b",4.9406564584124654e-324,nan,-0.0001\n")
        assert second.split(b"\n")[0].endswith(b",-0,1e+17,0.10000000000000001")
        _assert_snapshot_bytes(tmp_path, times, snaps, centers)

    def test_snapshot_record_longer_than_a_block(self, tmp_path):
        # 3 states and 1500 cells: each record is split into chunks of cells,
        # and awkward values sit either side of the first chunk's end
        width = cli._rows_per_block(3)
        assert 1500 > width
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.random(3))
        snaps = rng.standard_normal((3, 3, 1500))
        snaps[:, :, width - 1:width + 1] = [[5e-324, -0.0], [float("nan"), 1e17], [-1e-4, 0.1]]
        centers = (np.arange(1500) + 0.5) / 1500
        _assert_snapshot_bytes(tmp_path, times, snaps, centers)

    @pytest.mark.parametrize("n, cells, records", [
        (2, 50, 100), (2, 1100, 4), (2, 4500, 3), (3, 1500, 3), (5, 64, 30)])
    def test_snapshot_blocks_format_at_most_a_block(self, monkeypatch, n, cells, records):
        # t and z are formatted once each; every other `_slots` call formats
        # at most a block of state values, in whole records when a record
        # fits in a block and within one record when it does not
        calls = []
        slots = cli._slots

        def spy(table, newline=True):
            calls.append((table.shape, newline))
            return slots(table, newline)

        monkeypatch.setattr(cli, "_slots", spy)
        snaps = np.random.default_rng(6).standard_normal((records, n, cells))
        b"".join(cli._snapshot_blocks(np.arange(records) / 8, snaps,
                                      (np.arange(cells) + 0.5) / cells))
        assert sorted(call for call in calls if not call[1]) == sorted(
            [((records, 1), False), ((cells, 1), False)])
        blocks = [shape for shape, newline in calls if newline]
        assert len(blocks) == len(calls) - 2
        first = 0
        for rows, width in blocks:
            assert width == n and rows * n <= cli._BLOCK_CELLS
            if cells * n <= cli._BLOCK_CELLS:
                assert first % cells == 0 and rows % cells == 0
            else:
                assert first // cells == (first + rows - 1) // cells
            first += rows
        assert first == records * cells


class TestOutputFiles:
    """Every output is written as a new file at its path: what was there is
    neither truncated nor written through."""

    OUTPUTS = ("certificate.json", "synth_report.json", "norms.csv", "controls.csv",
               "simulate_report.json")

    @staticmethod
    def _run(tmp_path, out, amplitude=10.0, alpha=0.5):
        cfg = _design_config()
        cfg["design"]["alpha"] = alpha
        cfg["simulation"].update(M=16, t_final=1.0)
        cfg["simulation"]["initial"]["amplitude"] = amplitude
        cfg_path = _write_config(tmp_path, cfg)
        assert cli.main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    def test_longer_read_only_stale_file_holds_exactly_the_new_bytes(self, tmp_path):
        self._run(tmp_path, tmp_path / "fresh")
        out = tmp_path / "out"
        out.mkdir()
        for name in self.OUTPUTS:
            (out / name).write_bytes(b"stale\n" * 100_000)
            (out / name).chmod(0o444)
        umask = os.umask(0o027)
        try:
            self._run(tmp_path, out)
        finally:
            os.umask(umask)
        for name in ("certificate.json", "norms.csv", "controls.csv"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        for name in self.OUTPUTS:
            # the reports differ from the fresh ones in their wall times only
            text = (out / name).read_text()
            assert "stale" not in text and text.endswith("\n")
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o640

    def test_hard_link_to_an_output_keeps_the_old_bytes(self, tmp_path):
        out, kept = tmp_path / "out", tmp_path / "kept"
        self._run(tmp_path, out)
        kept.mkdir()
        old = {}
        for name in self.OUTPUTS:
            os.link(out / name, kept / name)
            old[name] = (out / name).read_bytes()
        # other weights and another initial state: every output changes
        self._run(tmp_path, out, amplitude=5.0, alpha=0.4)
        for name in self.OUTPUTS:
            assert (kept / name).read_bytes() == old[name]
            assert (out / name).read_bytes() != old[name]

    def test_symlink_at_an_output_path_is_replaced(self, tmp_path):
        out, target = tmp_path / "out", tmp_path / "target"
        out.mkdir()
        target.write_bytes(b"untouched")
        for name in self.OUTPUTS:
            (out / name).symlink_to(target)
        self._run(tmp_path, out)
        assert target.read_bytes() == b"untouched"
        for name in self.OUTPUTS:
            assert not (out / name).is_symlink() and (out / name).is_file()
        json.loads((out / "certificate.json").read_text())
        assert _read_csv(out / "norms.csv")[0] == ["t", "l2_norm", "iss_rhs", "lyapunov"]


def _cell_texts(values) -> list[str]:
    """Each value's text as the CSV writer makes it, the values fed as rows
    of 7 cells, so blocks of rows end inside the runs below."""
    values = np.asarray(values, dtype=float)
    table = np.concatenate([values, np.zeros(-values.size % 7)]).reshape(-1, 7)
    text = b"".join(cli._float_blocks(table)).decode()
    return text.replace("\n", ",").split(",")[:values.size]


def _assert_exact(values):
    """Every value's cell text is CPython's "%.17g" % value."""
    values = [float(v) for v in values]
    wrong = [(v, got, "%.17g" % v) for v, got in zip(values, _cell_texts(values))
             if got != "%.17g" % v]
    assert not wrong, wrong[:5]


class TestFloatText:
    """Every float cell is "%.17g" % value, byte for byte, on both sides of
    the vectorized formatter's exact range [1e-4, 1e17)."""

    def test_awkward_values(self):
        _assert_exact(AWKWARD + [-v for v in AWKWARD])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [10.0 ** j for j in range(-5, 18)]
        values = [v for p in powers for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
        _assert_exact(values + [-v for v in values])

    def test_ties_round_half_to_even(self):
        # x 10**(16 - k) is an odd multiple of 1/2 for x = j 2**-(q + 1) with
        # j odd and q = 16 - k, so the 17th digit is a tie
        rng = np.random.default_rng(5)
        ties = [1e15 + 0.25, 1e15 + 0.75]
        for q in range(1, 21):
            lo = 10 ** (16 - q) * 2 ** (q + 1)
            odd = rng.integers(lo, min(10 * lo, 2 ** 53), 500) | 1
            ties += np.ldexp(odd.astype(float), -(q + 1)).tolist()
        assert all(Fraction(x) * 10 ** (16 - math.floor(math.log10(x))) % 1 == Fraction(1, 2)
                   for x in ties)
        _assert_exact(ties + [-x for x in ties])

    def test_seventeen_digit_carries(self):
        # the largest doubles below a power of ten, some of which round up
        # to it at 17 digits and move the decimal exponent
        below = [float(np.nextafter(10.0 ** j, 0.0)) for j in range(-4, 18)]
        for _ in range(3):
            below += [float(np.nextafter(x, 0.0)) for x in below[-22:]]
        _assert_exact([9.999999999999999e-5, 99999999999999990.0, 9.9999999999999999e-5,
                       0.99999999999999999, 9999999999999999.0] + below)

    def test_zeros_subnormals_infinities_and_nan(self):
        tiny = np.finfo(float).tiny
        _assert_exact([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, float(np.nextafter(tiny, 0.0)),
                       1e-310, -1e-310, float("inf"), -float("inf"), float("nan"),
                       np.finfo(float).max, -np.finfo(float).max])

    def test_random_bit_patterns(self):
        # 10**6 patterns, ten runs of 10**5 to keep the text lists small
        rng = np.random.default_rng(6)
        for _ in range(10):
            bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64, endpoint=False)
            _assert_exact(bits.view(np.float64))

    def test_random_values_in_each_decade(self):
        rng = np.random.default_rng(7)
        for j in range(-6, 18):
            values = rng.uniform(1.0, 10.0, 5000) * 10.0 ** j
            _assert_exact(values * rng.choice([-1.0, 1.0], values.size))


class TestSimulate:
    def test_auto_gain_outputs(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg_path,
                         "--out", str(out)]) == 0

        header, rows = _read_csv(out / "norms.csv")
        assert header == ["t", "l2_norm", "iss_rhs", "lyapunov"]
        times = [float(r[0]) for r in rows]
        assert times[0] == 0.0 and times[-1] == 5.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(float(r[1]) <= float(r[2]) for r in rows)

        header, rows = _read_csv(out / "controls.csv")
        assert header == ["t", "u_1", "u_2"]
        assert all(abs(float(c)) <= 0.3 for r in rows for c in r[1:])

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(b)]) == 0
        assert (a / "norms.csv").read_bytes() == (b / "norms.csv").read_bytes()
        assert (a / "controls.csv").read_bytes() == (b / "controls.csv").read_bytes()

    def test_values_round_trip_at_17_digits(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg_path,
                         "--out", str(out)]) == 0
        _, rows = _read_csv(out / "norms.csv")
        # %.17g is lossless, though not the shortest form (repr is; %.17g
        # prints 0.1 as 0.10000000000000001): reformatting is a fixed point
        assert all(f"{float(c):.17g}" == c for r in rows for c in r)

    def test_zero_gain_zeroes_controls(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out),
                         "--gain", "zero"]) == 0
        _, rows = _read_csv(out / "controls.csv")
        assert all(float(c) == 0.0 for r in rows for c in r[1:])
        # no certificate, so no envelope or functional columns
        _, rows = _read_csv(out / "norms.csv")
        assert all(r[2] == "nan" and r[3] == "nan" for r in rows)

    def test_report_is_strict_json_when_the_norm_overflows(self, tmp_path):
        # the last state is finite but its squared norm overflows: the
        # report says null where norms.csv says inf
        cfg = _design_config()
        cfg["plant"]["H"] = [[0.0, 1000.0], [1000.0, 0.0]]
        cfg["simulation"]["M"] = 16
        cfg["simulation"]["t_final"] = 60.0
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out), "--gain", "zero"]) == 0

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        report = json.loads((out / "simulate_report.json").read_text(),
                            parse_constant=refuse)
        assert report["status"] == "completed"
        assert report["final_l2_norm"] is None
        _, rows = _read_csv(out / "norms.csv")
        assert rows[-1][1] == "inf"

    def test_report_writer_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            cli._finish(tmp_path, "simulate", "digest", "completed", 0.0,
                        final_l2_norm=math.inf)
        assert not (tmp_path / "simulate_report.json").exists()

    def test_zero_data_stays_zero(self, tmp_path):
        cfg = _design_config()
        cfg["simulation"]["disturbance"] = {"kind": "zero", "components": 2}
        cfg["simulation"]["initial"] = {"kind": "zero", "components": 2}
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        _, rows = _read_csv(out / "norms.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_tabulated_signals_on_the_whole_domain(self, tmp_path):
        cfg = _design_config()
        cfg["simulation"].update(M=16, t_final=0.5, initial={
            "kind": "tabulated", "grid": [0.0, 1.0], "values": [[0.0, 1.0], [1.0, 0.0]]},
            disturbance={"kind": "tabulated", "grid": [0.0, 1.0],
                         "values": [[0.0, 0.0], [0.0, 0.0]]})
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out), "--gain", "zero"]) == 0
        _, rows = _read_csv(out / "norms.csv")
        grid = pde.Grid(16)
        z = grid.centers
        assert float(rows[0][1]) == pde.l2_norm(np.stack([z, 1.0 - z]), grid)

    def test_infeasible_auto_design_is_reported_as_synth_reports_it(
            self, tmp_path, capsys, reflection_plant_config):
        # the solver's verdict on the uncontrolled reflection at (1.0, 0.5), and
        # the demo at alpha = 1.2, past the decay bound, where no solver runs
        past_bound = _design_config()
        past_bound["design"]["alpha"] = 1.2
        for name, cfg, alpha, detail in (
                ("solved", _design_config(plant=reflection_plant_config), 0.5,
                 "(row bound s - gap = "),
                ("implied", past_bound, 1.2, "(alpha=1.2 >= mu*lambda_1=1.0, ")):
            cfg_path = _write_config(tmp_path, cfg, f"{name}.json")
            out = tmp_path / name
            assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"infeasible at mu=1, alpha={alpha} {detail}")
            assert sorted(p.name for p in out.iterdir()) == ["simulate_report.json"]
            report = json.loads((out / "simulate_report.json").read_text())
            assert report["status"] == "infeasible"
            assert report["gain_source"] == "auto"
            assert report["manifest"] == ["simulate_report.json"]
            if name == "solved":
                assert report["newton_steps"]["row"] > 0
            else:
                assert report["newton_steps"] is None
                assert err == f"infeasible at mu=1, alpha=1.2 ({report['reason']})\n"
            # the same solver trace, margin or reason, weights and digest as
            # synth's report
            synth_out = tmp_path / f"{name}-synth"
            assert cli.main(["synth", "--config", cfg_path, "--out", str(synth_out)]) == 2
            assert capsys.readouterr().err == err
            synth = json.loads((synth_out / "synth_report.json").read_text())
            for r in (report, synth):
                for key in ("command", "gain_source", "manifest", "timing_seconds"):
                    r.pop(key, None)
            assert report == synth

    def test_auto_design_solver_failure_writes_a_report_and_exits_1(
            self, tmp_path, monkeypatch, capsys):
        real = sdp.minimize_batch

        def fail(forms, *args):
            solutions = real(forms, *args)
            return [dataclasses.replace(sol, status=sdp.Status.NUMERICAL_FAILURE, objective=None)
                    if _design_batch(forms) else sol for sol in solutions]

        monkeypatch.setattr(sdp, "minimize_batch", fail)
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", _write_config(tmp_path, _design_config()),
                         "--out", str(out)])
        assert code == 1
        reason = "solver reported numerical_failure at mu=1.0, alpha=0.5"
        assert capsys.readouterr().err == f"solver error: {reason}\n"
        assert sorted(p.name for p in out.iterdir()) == ["simulate_report.json"]
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["status"] == "failed"
        assert report["reason"] == reason
        assert report["gain_source"] == "auto"
        assert report["manifest"] == ["simulate_report.json"]
        assert (report["mu"], report["alpha"]) == (1.0, 0.5)
        assert report["duality_gap"] is not None

    def test_certificate_file_as_gain_source(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        synth_out = tmp_path / "s"
        assert cli.main(["synth", "--config", cfg_path,
                         "--out", str(synth_out)]) == 0
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out),
                         "--gain", str(synth_out / "certificate.json")]) == 0
        _, rows = _read_csv(out / "norms.csv")
        assert all(np.isfinite(float(r[2])) for r in rows)
        # the report ties the run to the bytes of the certificate it read
        report = json.loads((out / "simulate_report.json").read_text())
        cert_path = synth_out / "certificate.json"
        assert report["gain_source"] == str(cert_path)
        assert report["certificate_digest"] == hashlib.sha256(
            cert_path.read_bytes()).hexdigest()

    def test_certificate_file_simulates_as_the_auto_design(self, tmp_path):
        # the stored certificate reads back to the design synthesize makes,
        # so the closed loop and its envelope come out the same bytes
        cfg_path = _write_config(tmp_path, _design_config())
        assert cli.main(["synth", "--config", cfg_path,
                         "--out", str(tmp_path / "s")]) == 0
        auto, stored = tmp_path / "auto", tmp_path / "stored"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(auto)]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(stored),
                         "--gain", str(tmp_path / "s" / "certificate.json")]) == 0
        for name in ("norms.csv", "controls.csv"):
            assert (auto / name).read_bytes() == (stored / name).read_bytes()

    def test_snapshot_toggle_writes_long_format(self, tmp_path):
        cfg = _design_config()
        cfg["simulation"]["M"] = 16
        cfg["simulation"]["t_final"] = 1.0
        cfg["simulation"]["snapshot_stride"] = 10
        cfg["output"]["snapshots"] = True
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        header, rows = _read_csv(out / "snapshots.csv")
        assert header == ["t", "z", "x_1", "x_2"]
        assert len(rows) % 16 == 0
        zs = sorted({float(r[1]) for r in rows})
        assert len(zs) == 16 and abs(zs[0] - 1.0 / 32.0) < 1e-15

    def test_report_describes_the_time_stepping(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "simulate_report.json").read_text())
        # the demo: M = 100, cfl 0.9, fastest speed sqrt(2), t_final = 5
        dt = 0.9 * 0.01 / math.sqrt(2.0)
        assert report["dt"] == dt
        assert report["steps"] == 786 == math.ceil(5.0 / dt)
        assert report["stride"] == 1 and report["records"] == 787
        assert report["step_us"] == pytest.approx(
            1e6 * report["timing_seconds"] / 786, rel=1e-12)
        # the share of records where some control sits at its limit,
        # read back from controls.csv
        _, rows = _read_csv(out / "controls.csv")
        at_limit = [any(abs(float(c)) == 0.3 for c in r[1:]) for r in rows]
        assert report["saturated_record_fraction"] == sum(at_limit) / len(rows)
        assert 0.0 < report["saturated_record_fraction"] < 1.0

    def test_blowup_exits_1_with_time(self, tmp_path, capsys):
        cfg = _design_config()
        cfg["plant"]["H"] = [[0.0, 1000.0], [1000.0, 0.0]]
        cfg["simulation"]["M"] = 16
        cfg["simulation"]["t_final"] = 150.0
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out), "--gain", "zero"])
        assert code == 1
        err = capsys.readouterr().err
        assert "blew up at t" in err
        # the run still says why it ended, with the time at full precision
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["status"] == "blew_up"
        assert report["gain_source"] == "zero"
        assert "certificate_digest" not in report
        assert f"blew up at t = {report['blowup_time']:.6g}" in err
        assert 0.0 < report["blowup_time"] < 150.0
        assert report["manifest"] == ["simulate_report.json"]
        assert sorted(p.name for p in out.iterdir()) == ["simulate_report.json"]

    @pytest.mark.parametrize("path, value", [
        (("plant", "lambda"), [[1.0, 2.0]]),
        (("plant", "H"), [0.25, 0.0]),
        (("plant", "B"), []),
        (("plant", "N"), "x"),
        (("design", "mu"), True),
        (("design", "mu"), -1),
        (("simulation", "initial"), "zero"),
        (("simulation", "disturbance", "kind"), "square_wave"),
        (("simulation", "disturbance"), {"kind": "zero", "components": 3}),
        (("simulation", "initial"), {"kind": "zero", "components": 3}),
        (("simulation", "initial"),
         {"kind": "tabulated", "grid": [0.1, 1.0], "values": [[0.0, 0.0], [0.0, 0.0]]}),
        (("simulation", "disturbance"),
         {"kind": "tabulated", "grid": [0.0, 0.9], "values": [[0.0, 0.0], [0.0, 0.0]]}),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, path, value):
        # each is found before the auto gain is designed and the output made,
        # a signal whose component count does not fit the plant included
        cfg = _design_config()
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == 1
        assert f"config error: {'.'.join(path)}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value", [
        (("simulation", "disturbance", "amplitude"), math.nan),
        (("simulation", "initial", "frequencies"), [math.inf, 1.0]),
        (("plant", "H"), [[0.25, 0.0], [-math.inf, 0.25]]),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, path, value):
        # json.loads reads NaN and Infinity; the config readers refuse them
        cfg = _design_config()
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out), "--gain", "zero"])
        assert code == 1
        assert f"config error: {'.'.join(path)}: " in capsys.readouterr().err
        assert not (out / "norms.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("snapshots", "false"), ("norms", "no"), ("controls", 0), ("norms", 1)])
    def test_non_boolean_toggle_is_config_error(self, tmp_path, capsys, key, value):
        # bool() would read "false" and "no" as true and 0 as false
        cfg = _design_config()
        cfg["output"][key] = value
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out), "--gain", "zero"])
        assert code == 1
        assert f"config error: output.{key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_toggles_pick_the_files(self, tmp_path):
        cfg = _design_config()
        cfg["simulation"].update(M=16, t_final=0.5)
        cfg["output"].update(norms=False, snapshots=True)  # controls by default
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out), "--gain", "zero"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "controls.csv", "simulate_report.json", "snapshots.csv"]


class TestVerify:
    def _synth(self, tmp_path):
        cfg_path = _write_config(tmp_path, _design_config())
        out = tmp_path / "s"
        assert cli.main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
        return cfg_path, out / "certificate.json"

    def test_fresh_certificate_passes(self, tmp_path):
        cfg_path, cert_path = self._synth(tmp_path)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path,
                         "--gain", str(cert_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["status"] == "pass"
        for family in ("synthesis.", "analysis.", "wellposedness."):
            assert any(k.startswith(family) for k in report["margins"])

    def test_report_names_the_certificate_file(self, tmp_path):
        cfg_path, cert_path = self._synth(tmp_path)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path,
                         "--gain", str(cert_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["certificate_path"] == str(cert_path)
        assert report["certificate_digest"] == hashlib.sha256(
            cert_path.read_bytes()).hexdigest()

    def test_passes_with_the_solver_refusing(self, tmp_path, monkeypatch):
        cfg_path, cert_path = self._synth(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("verify called the solver")

        monkeypatch.setattr(sdp, "minimize", refuse)
        monkeypatch.setattr(sdp, "minimize_batch", refuse)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path,
                         "--gain", str(cert_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["status"] == "pass"
        # the analysis margins at the certificate's own sector multiplier,
        # the three positivity margins of that problem included
        analysis = {k for k in report["margins"] if k.startswith("analysis.")}
        assert analysis == {f"analysis.{label}" for label in (
            "boundary_block", "disturbance_decay_block", "p_pos", "t_pos", "supply_pos")}

    def test_recheck_error_writes_a_failed_report_and_exits_1(
            self, tmp_path, monkeypatch, capsys):
        cfg_path, cert_path = self._synth(tmp_path)
        # every basis fails the orthonormality test, so recomputing the
        # margins raises ConvergenceError
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path,
                         "--gain", str(cert_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verify error: margins could not be computed: "
                              "ConvergenceError: ")
        assert [p.name for p in out.iterdir()] == ["verify_report.json"]
        report = json.loads((out / "verify_report.json").read_text())
        assert report["status"] == "failed"
        assert err == f"verify error: {report['reason']}\n"
        assert "orthonormality test" in report["reason"]
        assert report["margins"] == {}
        assert report["certificate_path"] == str(cert_path)
        assert report["certificate_digest"] == hashlib.sha256(
            cert_path.read_bytes()).hexdigest()

    def test_shrunken_sector_multiplier_fails(self, tmp_path):
        cfg_path, cert_path = self._synth(tmp_path)
        cert = json.loads(cert_path.read_text())
        cert["sector_inv"] = [1e3 * v for v in cert["sector_inv"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path, "--gain", str(bad),
                         "--out", str(out)]) == 2
        report = json.loads((out / "verify_report.json").read_text())
        assert report["status"] == "fail"
        assert report["margins"]["analysis.boundary_block"] < 0.0

    def test_summary_names_the_worst_real_inequality(self, tmp_path, capsys):
        cfg_path, cert_path = self._synth(tmp_path)
        out = tmp_path / "v"
        capsys.readouterr()
        assert cli.main(["verify", "--config", cfg_path,
                         "--gain", str(cert_path), "--out", str(out)]) == 0
        line = capsys.readouterr().out
        report = json.loads((out / "verify_report.json").read_text())
        margins = report["margins"]
        # the stored ISS coefficients are exact, so their drift is 0 and the
        # line names the smallest margin of the three inequality families
        assert margins["certificate.iss_consistency"] == 0.0
        label = min((k for k in margins if not k.startswith("certificate.")),
                    key=margins.get)
        assert margins[label] > 0.0
        assert f"worst margin {margins[label]:.3e} at {label}," in line

    def test_certificate_made_at_small_eps_passes(self, tmp_path):
        cfg = _design_config()
        cfg["design"]["epsilon"] = 1e-9
        cfg_path = _write_config(tmp_path, cfg)
        out = tmp_path / "s"
        assert cli.main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["epsilon"] == 1e-9
        assert cli.main(["verify", "--config", cfg_path,
                         "--gain", str(out / "certificate.json"),
                         "--out", str(tmp_path / "v")]) == 0

    def test_certificate_without_eps_uses_default(self, tmp_path):
        cfg_path, cert_path = self._synth(tmp_path)
        cert = json.loads(cert_path.read_text())
        assert cert.pop("epsilon") == 1e-6
        old = tmp_path / "old.json"
        old.write_text(json.dumps(cert))
        assert cli.main(["verify", "--config", cfg_path, "--gain", str(old),
                         "--out", str(tmp_path / "v")]) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_plant_certificates_pass(self, tmp_path, n, random_plant_config):
        # the stored gamma must equal the one verify recomputes to the bit
        rng = np.random.default_rng(1)
        for k in range(3):
            cfg = {"plant": random_plant_config(rng, n, 1.0),
                   "design": {"mu": 1.0, "epsilon": 1e-6, "delta": 0.01}}
            cfg["design"]["alpha"] = 0.5 * min(cfg["plant"]["lambda"])
            cfg_path = _write_config(tmp_path, cfg, f"plant{k}.json")
            out = tmp_path / f"s{k}"
            assert cli.main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
            assert cli.main(["verify", "--config", cfg_path,
                             "--gain", str(out / "certificate.json"),
                             "--out", str(out)]) == 0

    def test_perturbed_gain_fails(self, tmp_path):
        cfg_path, cert_path = self._synth(tmp_path)
        cert = json.loads(cert_path.read_text())
        cert["gain"][0][0] += 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        out = tmp_path / "v"
        code = cli.main(["verify", "--config", cfg_path, "--gain", str(bad),
                         "--out", str(out)])
        assert code == 2
        report = json.loads((out / "verify_report.json").read_text())
        assert report["status"] == "fail"
        assert min(report["margins"].values()) < -1e-3

    def test_asymmetric_coupling_is_config_error(self, tmp_path, capsys):
        # a genuine coupling is exactly symmetric; symmetrizing this one
        # would cancel the doctoring and let it pass
        cfg_path, cert_path = self._synth(tmp_path)
        cert = json.loads(cert_path.read_text())
        cert["coupling"][0][1] += 1000.0
        cert["coupling"][1][0] -= 1000.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        out = tmp_path / "v"
        code = cli.main(["verify", "--config", cfg_path, "--gain", str(bad),
                         "--out", str(out)])
        assert code == 1
        assert "config error: certificate.coupling: " in capsys.readouterr().err
        assert not (out / "verify_report.json").exists()

    def test_hand_entered_design_at_loose_tolerance(self, tmp_path):
        # weights copied from an external design run, so individual numbers
        # carry print-precision error; a loose tolerance absorbs it
        q = [12.5, 82.0]
        k = [[-0.24, 0.0], [0.33, -0.08]]
        cert = {
            "mu": 1.0, "alpha": 0.5, "peak": 82.0,
            "gamma": math.sqrt(82.0) * math.exp(0.5),
            "omega": 0.25,
            "kappa": math.sqrt(82.0 / 12.5) * math.exp(0.5),
            "gain": k,
            "lyap_inv": q,
            "sector_inv": [11.767287269683061, 18.422264242336125],
            "gain_scaled": [[-0.24 * 12.5, 0.0], [0.33 * 12.5, -0.08 * 82.0]],
            "coupling": [[4.07, 0.195], [0.195, 36.3]],
        }
        cert_path = tmp_path / "hand.json"
        cert_path.write_text(json.dumps(cert))
        cfg_path = _write_config(tmp_path, _design_config())
        code = cli.main(["verify", "--config", cfg_path,
                         "--gain", str(cert_path),
                         "--out", str(tmp_path / "v"),
                         "--tolerance", "-0.05"])
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, tmp_path, value):
        cfg_path, cert_path = self._synth(tmp_path)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg_path, "--gain", str(cert_path),
                         "--out", str(out), f"--tolerance={value}"]) == 1
        assert not (out / "verify_report.json").exists()

    def test_loaded_certificate_is_the_synthesized_one(self, tmp_path):
        cfg_path, cert_path = self._synth(tmp_path)
        plant = cli._build_plant(_design_config())
        fresh = control.synthesize(plant, 1.0, 0.5, eps=1e-6)
        loaded, digest = cli._load_certificate(str(cert_path), plant)
        assert digest == hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert loaded.margins == {} and loaded.solution is None and loaded.row is None
        for field in dataclasses.fields(control.SynthesisCertificate):
            if field.name in ("margins", "solution", "row"):
                continue
            a, b = getattr(fresh, field.name), getattr(loaded, field.name)
            if isinstance(a, float):
                assert a.hex() == b.hex(), field.name
            else:
                assert type(a) is type(b), field.name
                assert a.array.shape == b.array.shape, field.name
                assert a.array.tobytes() == b.array.tobytes(), field.name

    def test_design_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg_path, cert_path = self._synth(tmp_path)
        bad = _write_config(tmp_path, _design_config(design=[1, 2, 3]), "bad.json")
        code = cli.main(["verify", "--config", bad, "--gain", str(cert_path),
                         "--out", str(tmp_path / "v")])
        assert code == 1
        assert "config error: design: expected an object" in capsys.readouterr().err
        # without a design section verify still runs, at delta 0.01
        cfg = _design_config()
        del cfg["design"]
        assert cli.main(["verify", "--config", _write_config(tmp_path, cfg, "nod.json"),
                         "--gain", str(cert_path), "--out", str(tmp_path / "v")]) == 0

    def test_missing_gain_is_operational_error(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, _design_config())
        assert cli.main(["verify", "--config", cfg_path]) == 1
        assert "certificate file path" in capsys.readouterr().err

    def test_dimension_mismatch_names_certificate(self, tmp_path, capsys):
        cfg_path, cert_path = self._synth(tmp_path)
        cert = json.loads(cert_path.read_text())
        cert["gain"] = [[0.5]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        code = cli.main(["verify", "--config", cfg_path, "--gain", str(bad)])
        assert code == 1
        assert "certificate.gain" in capsys.readouterr().err


def _grid_design(cfg, **grids):
    cfg["design"] = {"mu": {"min": 0.5, "max": 1.0, "count": 2},
                     "alpha": {"min": 0.1, "max": 0.5, "count": 2}, "epsilon": 1e-6}
    for key, grid in grids.items():
        cfg["design"][key].update(grid)


# a hand-made certificate of the demo plant's shapes; each case below breaks
# one thing, and the loader refuses it before anything runs
_CERTIFICATE = {
    "mu": 1.0, "alpha": 0.5, "epsilon": 1e-6, "peak": 82.0, "gamma": 14.9,
    "omega": 0.25, "kappa": 4.2, "gain": [[-0.24, 0.0], [0.33, -0.08]],
    "lyap_inv": [12.5, 82.0], "sector_inv": [11.8, 18.4],
    "gain_scaled": [[-3.0, 0.0], [4.1, -6.6]], "coupling": [[4.07, 0.195], [0.195, 36.3]],
    "margins": {},
}


class TestConfigErrors:
    # (command, edit of the design config, edit of the certificate or None,
    # the path the message names; "{config}" is the config file's own path)
    CASES = {
        "integer-type": ("grid", lambda c: _grid_design(c, mu={"count": 2.5}), None,
                         "design.mu.count: expected an integer"),
        "integer-minimum": ("grid", lambda c: _grid_design(c, alpha={"count": 0}), None,
                            "design.alpha.count: must be at least 1"),
        "simulation-cells": ("simulate", lambda c: c["simulation"].update(M=4), None,
                             "simulation.M: must be at least 8"),
        "missing-section": ("synth", lambda c: c.pop("design"), None,
                            "design: missing section"),
        "unreadable-file": ("synth", None, None, "{config}: "),
        "top-level": ("synth", None, None, "{config}: top level must be an object"),
        "grid-max": ("grid", lambda c: _grid_design(c, alpha={"min": 1.0, "count": 3}), None,
                     "design.alpha.max: must exceed min"),
        "phases": ("simulate", lambda c: c["simulation"]["disturbance"].update(phases="sin"),
                   None, "simulation.disturbance.phases: expected a list"),
        "output-object": ("synth", lambda c: c.update(output="out"), None,
                          "output: expected an object"),
        "output-directory": ("synth", lambda c: c["output"].update(directory=""), None,
                             "output.directory: expected a nonempty string"),
        "certificate-weights": ("simulate", None, lambda c: c.update(lyap_inv=[12.5]),
                                "certificate: weight dimensions do not match the plant"),
        "certificate-sector": ("verify", None, lambda c: c.update(sector_inv=[11.8]),
                               "certificate: sector/gain dimensions do not match the plant"),
        "certificate-sign": ("simulate", None, lambda c: c.update(sector_inv=[11.8, 0.0]),
                             "certificate: diagonal weights must be positive"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_1_naming_the_path_and_makes_no_output(self, tmp_path, monkeypatch,
                                                          capsys, case):
        command, edit_config, edit_certificate, named = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        cfg = _design_config()
        argv = [command]
        if case == "unreadable-file":
            config = str(tmp_path / "missing.json")
        elif case == "top-level":
            config = str(tmp_path / "list.json")
            (tmp_path / "list.json").write_text("[1, 2]")
        else:
            if edit_config is not None:
                edit_config(cfg)
            config = _write_config(tmp_path, cfg)
        if command in ("simulate", "verify"):
            cert = json.loads(json.dumps(_CERTIFICATE))
            if edit_certificate is not None:
                edit_certificate(cert)
            (tmp_path / "cert.json").write_text(json.dumps(cert))
            argv += ["--gain", "cert.json" if edit_certificate or command == "verify"
                     else "zero"]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli.main(argv + ["--config", config]) == 1
        assert f"config error: {named.format(config=config)}" in capsys.readouterr().err
        # the config names the directory "out"; nothing is made, there or anywhere
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestUsage:
    def test_help_exits_0(self):
        assert cli.main(["--help"]) == 0

    def test_no_command_exits_1(self):
        assert cli.main([]) == 1

    def test_missing_required_flag_exits_1(self):
        assert cli.main(["synth"]) == 1

    def test_parser_is_built_once_and_defaults_do_not_carry(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_simulate",
                            lambda config, out, gain: seen.append(gain) or 0)
        monkeypatch.setattr(cli, "cmd_verify",
                            lambda config, out, gain, tol: seen.append(tol) or 0)
        parser = cli._build_parser()
        assert cli.main(["simulate", "--config", "c.json", "--gain", "zero"]) == 0
        assert cli.main(["simulate", "--config", "c.json"]) == 0
        assert cli.main(["verify", "--config", "c.json", "--gain", "g.json",
                         "--tolerance", "1e-3"]) == 0
        assert cli.main(["verify", "--config", "c.json", "--gain", "g.json"]) == 0
        assert seen == ["zero", "auto", 1e-3, 0.0]
        assert cli._build_parser() is parser
        # the usage exit codes after the parser has been used
        assert cli.main(["--help"]) == 0
        assert cli.main(["synth"]) == 1

    def test_module_is_directly_runnable(self):
        proc = subprocess.run([sys.executable, "-m", "hypiss.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout
