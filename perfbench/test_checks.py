"""Each output check accepts the program's genuine output and rejects a
doctored copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from hypiss import cli  # noqa: E402

T_FINAL = 2.0
CELLS = 50


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine outputs of the demo: certificate, a grid half row and a
    simulation with snapshots."""
    root = tmp_path_factory.mktemp("outputs")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--seed-configs"]) == 0
            design = checks.read_json(root / "example_design.json")
            grid = checks.read_json(root / "example_gridsearch.json")
            assert cli.main(["synth", "--config", "example_design.json", "--out", "cert"]) == 0
            sim = copy.deepcopy(design)
            sim["simulation"].update(M=CELLS, t_final=T_FINAL)
            sim["output"]["snapshots"] = True
            (root / "sim.json").write_text(json.dumps(sim))
            assert cli.main(["simulate", "--config", "sim.json", "--gain",
                             "cert/certificate.json", "--out", "sim"]) == 0
            grid["design"]["mu"] = {"min": 1.0, "max": 1.0, "count": 1}
            grid["design"]["alpha"] = {"min": 0.5, "max": 1.1, "count": 4}
            (root / "grid.json").write_text(json.dumps(grid))
            assert cli.main(["grid", "--config", "grid.json", "--out", "grid"]) == 0
    finally:
        os.chdir(cwd)
    _, rows = checks.read_rows(root / "grid" / "feasibility.csv")
    return {
        "design": design,
        "cert": checks.read_json(root / "cert" / "certificate.json"),
        "norms": checks.read_table(root / "sim" / "norms.csv"),
        "controls": checks.read_table(root / "sim" / "controls.csv"),
        "snapshots": checks.read_table(root / "sim" / "snapshots.csv"),
        "grid_header": checks.read_rows(root / "grid" / "feasibility.csv")[0],
        "grid_rows": rows,
        "grid_report": checks.read_json(root / "grid" / "grid_report.json"),
    }


def _trajectory(o, norms=None, controls=None, cert=None):
    init = o["design"]["simulation"]["initial"]
    return checks.check_trajectory(
        o["norms"] if norms is None else norms,
        o["controls"] if controls is None else controls,
        o["cert"] if cert is None else cert,
        o["design"]["plant"]["u_max"], init["amplitude"], init["frequencies"],
        o["design"]["simulation"]["disturbance"]["amplitude"], T_FINAL)


def _snapshots(o, snapshots):
    init = o["design"]["simulation"]["initial"]
    return checks.check_snapshots(snapshots, o["norms"], CELLS,
                                  init["amplitude"], init["frequencies"])


def test_genuine_outputs_pass(outputs):
    o = outputs
    assert checks.check_certificate(o["design"]["plant"], o["cert"], 1e-6) == []
    assert _trajectory(o) == []
    assert _snapshots(o, o["snapshots"]) == []
    problems, cells = checks.check_grid_csv(o["grid_header"], o["grid_rows"],
                                            [1.0], np.linspace(0.5, 1.1, 4))
    assert problems == []
    assert checks.check_staircase(cells, 1, 4) == []
    assert checks.check_grid_best(o["grid_rows"], o["grid_report"]) == []
    assert checks.check_certificate(o["design"]["plant"],
                                    o["grid_report"]["certificate"], 1e-6) == []


def _perturbed(cert, **changes):
    out = copy.deepcopy(cert)
    for key, fn in changes.items():
        out[key] = fn(np.asarray(out[key], dtype=float)).tolist() \
            if isinstance(out[key], list) else fn(out[key])
    return out


@pytest.mark.parametrize("changes, message", [
    # a larger scaled gain, with the gain kept equal to W Q^-1
    ({"gain_scaled": lambda w: 3.0 * w, "gain": lambda k: 3.0 * k}, "boundary_block"),
    ({"coupling": lambda g: 0.1 * g}, "disturbance_block"),
    ({"peak": lambda c: 0.5 * c, "gamma": lambda g: g}, "peak"),
    ({"gain": lambda k: k + 1e-3}, "W Q^-1"),
    ({"gamma": lambda g: g * (1.0 + 1e-9)}, "gamma"),
])
def test_perturbed_certificate_is_rejected(outputs, changes, message):
    cert = _perturbed(outputs["cert"], **changes)
    problems = checks.check_certificate(outputs["design"]["plant"], cert, 1e-6)
    assert any(message in p for p in problems), problems


def test_broken_staircase_is_rejected(outputs):
    rows = copy.deepcopy(outputs["grid_rows"])
    statuses = [r[2] for r in rows]
    assert "feasible" in statuses and "infeasible" in statuses
    first_infeasible = statuses.index("infeasible")
    # make the cell before the first infeasible one infeasible as well,
    # and the first infeasible one feasible
    rows[first_infeasible - 1][2:] = ["infeasible", "", ""]
    rows[first_infeasible][2:] = ["feasible", "1.0", repr(math.exp(0.5))]
    problems, cells = checks.check_grid_csv(outputs["grid_header"], rows, [1.0],
                                            np.linspace(0.5, 1.1, 4))
    assert problems == []
    assert checks.check_staircase(cells, 1, 4)


def test_wrong_grid_gamma_and_best_cell_are_rejected(outputs):
    rows = copy.deepcopy(outputs["grid_rows"])
    rows[0][4] = repr(float(rows[0][4]) * 1.01)
    problems, _ = checks.check_grid_csv(outputs["grid_header"], rows, [1.0],
                                        np.linspace(0.5, 1.1, 4))
    assert any("gamma" in p for p in problems)
    report = copy.deepcopy(outputs["grid_report"])
    report["best"]["alpha"] = float(outputs["grid_rows"][1][1])
    assert checks.check_grid_best(outputs["grid_rows"], report)


def test_envelope_violation_is_rejected(outputs):
    norms = outputs["norms"].copy()
    k = norms.shape[0] // 2
    env = checks.iss_envelope(norms[:, 0], outputs["cert"], norms[0, 1],
                              outputs["design"]["simulation"]["disturbance"]["amplitude"])
    norms[k, 1] = 1.01 * env[k]
    assert any("envelope" in p for p in _trajectory(outputs, norms=norms))


def test_wrong_initial_norm_and_control_limit_are_rejected(outputs):
    norms = outputs["norms"].copy()
    norms[0, 1] *= 1.0 + 1e-6
    assert any("t=0" in p for p in _trajectory(outputs, norms=norms))
    controls = outputs["controls"].copy()
    controls[3, 1] = 1.0001 * outputs["design"]["plant"]["u_max"][0]
    assert any("u_max" in p for p in _trajectory(outputs, controls=controls))


def test_snapshot_mismatch_is_rejected(outputs):
    snaps = outputs["snapshots"].copy()
    snaps[5 * CELLS + 7, 2] += 1e-3
    assert any("norms.csv" in p for p in _snapshots(outputs, snaps))
    snaps = outputs["snapshots"].copy()
    snaps[[3, 4], 2:] = snaps[[4, 3], 2:]     # same norm, wrong profile
    assert any("initial profile" in p for p in _snapshots(outputs, snaps))


def test_initial_norm_matches_quadrature():
    z = (np.arange(20000) + 0.5) / 20000
    profile = checks.initial_profile(3.0, (2.0, 0.7), z)
    numeric = float(np.sqrt(np.mean(np.sum(profile ** 2, axis=0))))
    assert abs(numeric - checks.initial_norm(3.0, (2.0, 0.7))) < 1e-7
