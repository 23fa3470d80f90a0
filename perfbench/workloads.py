"""The four workloads: their inputs, operations and output checks.

Every input is made here from the workload seed and written as a config
file; the program only ever sees those files, through hypiss.cli.main,
exactly as a `hypiss ...` command would.  A workload is a fixed list of
operations (one round); the benchmark repeats whole rounds, so every run
attempts the same operations in the same proportions.

The demo plant, weights and signals are the ones `hypiss --seed-configs`
writes, read back from the files it produced.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

GRID_CHUNK = 4                 # alpha values per grid command (half a row)
# random plants per state dimension in a round: the median op of a round
# then falls among several n = 3 designs rather than between two dimensions
SYNTH_PLANTS = {2: 4, 3: 4, 4: 4, 5: 2}
SIM_GRIDS = (50, 100, 200)     # cell counts M of the closed-loop runs
# snapshot rows grow like M^2 (records x cells); at M = 200 one export took
# 2-4 s and spread 15 % from run to run, so the export runs are smaller
SNAPSHOT_GRIDS = (25, 50, 100)
SIM_T_FINAL = 5.0              # simulated horizon
SYNTH_MU = 1.0                 # domain weight of the random-plant designs


@dataclass
class Op:
    """One timed operation: CLI commands run back to back.  `accept`
    holds the exit codes each command may end with; any other code makes
    the operation fail.  `check` gets the exit codes and returns the
    problems found in the outputs."""

    name: str
    commands: list[list[str]]
    accept: list[tuple[int, ...]]
    check: Callable[[list[int]], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    round_check: Callable[[], list[str]] = lambda: []
    setup_problems: list[str] = field(default_factory=list)


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def _demo_configs(workdir: Path, main) -> tuple[dict, dict]:
    """The bundled example configs, as `hypiss --seed-configs` writes them."""
    if main(["--seed-configs"]) != 0:
        raise RuntimeError("hypiss --seed-configs failed")
    return (checks.read_json(workdir / "example_design.json"),
            checks.read_json(workdir / "example_gridsearch.json"))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def _grid_axis(spec: dict) -> np.ndarray:
    return np.linspace(spec["min"], spec["max"], spec["count"])


def grid_sweep(seed: int, workdir: Path, main) -> Workload:
    """The demo 8x8 (mu, alpha) sweep split into one grid command per
    half row; the seed sets the order of the commands in a round."""
    _, grid = _demo_configs(workdir, main)
    mus = _grid_axis(grid["design"]["mu"])
    alphas = _grid_axis(grid["design"]["alpha"])
    eps = grid["design"].get("epsilon", 1e-6)
    statuses: dict = {}
    ops = []
    for i, mu in enumerate(mus):
        for j0 in range(0, alphas.size, GRID_CHUNK):
            part = alphas[j0:j0 + GRID_CHUNK]
            cfg = copy.deepcopy(grid)
            cfg["design"]["mu"] = {"min": float(mu), "max": float(mu), "count": 1}
            cfg["design"]["alpha"] = {"min": float(part[0]), "max": float(part[-1]),
                                      "count": int(part.size)}
            name = f"grid-mu{i}-a{j0}"
            path = _write(workdir / f"{name}.json", cfg)
            out = workdir / name
            ops.append(Op(name, [["grid", "--config", path, "--out", str(out)]],
                          [(0, 2)],
                          _grid_check(cfg["plant"], eps, out, i, j0, float(mu),
                                      part, statuses)))
    order = _rng(seed).permutation(len(ops))
    ops = [ops[k] for k in order]

    def round_check():
        if len(statuses) != mus.size * alphas.size:
            return [f"{len(statuses)} grid cells checked of {mus.size * alphas.size}"]
        return checks.check_staircase(statuses, mus.size, alphas.size)

    return Workload(ops, round_check)


def _grid_check(plant, eps, out, i, j0, mu, part, statuses):
    def check(codes):
        header, rows = checks.read_rows(out / "feasibility.csv")
        problems, cells = checks.check_grid_csv(header, rows, [mu], part)
        for (_, j), status in cells.items():
            statuses[(i, j0 + j)] = status
        problems += checks.check_staircase(cells, 1, part.size)
        report = checks.read_json(out / "grid_report.json")
        problems += checks.check_grid_best(rows, report)
        any_feasible = any(r[2] == "feasible" for r in rows)
        if codes[0] != (0 if any_feasible else 2):
            problems.append(f"exit code {codes[0]} with feasible cells: {any_feasible}")
        if report.get("certificate") is not None:
            problems += checks.check_certificate(plant, report["certificate"], eps)
        return [f"{out.name}: {p}" for p in problems]
    return check


def random_plant(rng: np.random.Generator, n: int, mu: float) -> tuple[dict, float]:
    """A plant that is feasible by construction, and its decay rate alpha.

    The reflection H is scaled to spectral norm 0.8 e^{-mu/2}, so with zero
    gain and Q = t Lambda the boundary block holds for any t > 0; alpha is
    half of mu min(lambda), so the decay block holds once t is large
    enough.  Input and disturbance maps are dense Gaussian, m = ceil(n/2)
    controls, q = n disturbances.
    """
    m = (n + 1) // 2
    lam = rng.uniform(1.0, 2.0, n)
    h = rng.standard_normal((n, n))
    h *= 0.8 * math.exp(-mu / 2.0) / np.linalg.norm(h, 2)
    plant = {
        "lambda": lam.tolist(),
        "H": h.tolist(),
        "B": rng.standard_normal((n, m)).tolist(),
        "N": (rng.standard_normal((n, n)) / math.sqrt(n)).tolist(),
        "u_max": rng.uniform(0.2, 1.0, m).tolist(),
    }
    return plant, 0.5 * mu * float(np.min(lam))


def synth_scale(seed: int, workdir: Path, main) -> Workload:
    """Seeded random plants of growing state dimension, each designed with
    `hypiss synth`; plus the demo design verified at the default eps and at
    eps = 1e-9."""
    design, _ = _demo_configs(workdir, main)
    rng = _rng(seed)
    mu = SYNTH_MU
    ops = []
    for n, count in SYNTH_PLANTS.items():
        for k in range(count):
            plant, alpha = random_plant(rng, n, mu)
            cfg = {"plant": plant,
                   "design": {"mu": mu, "alpha": alpha, "epsilon": 1e-6, "delta": 0.01}}
            name = f"synth-n{n}-{k}"
            path = _write(workdir / f"{name}.json", cfg)
            out = workdir / name
            ops.append(Op(name, [["synth", "--config", path, "--out", str(out)]],
                          [(0,)], _synth_check(cfg, out, verified=False)))
    for name, eps in (("demo", design["design"]["epsilon"]), ("demo-eps1e-9", 1e-9)):
        cfg = copy.deepcopy(design)
        cfg["design"]["epsilon"] = eps
        path = _write(workdir / f"{name}.json", cfg)
        out = workdir / name
        ops.append(Op(name,
                      [["synth", "--config", path, "--out", str(out)],
                       ["verify", "--config", path, "--gain", str(out / "certificate.json"),
                        "--out", str(out)]],
                      [(0,), (0,)], _synth_check(cfg, out, verified=True)))
    return Workload(ops)


def _synth_check(cfg, out, verified):
    def check(codes):
        cert = checks.read_json(out / "certificate.json")
        problems = checks.check_certificate(cfg["plant"], cert, cfg["design"]["epsilon"])
        if not (cert["mu"] == cfg["design"]["mu"] and cert["alpha"] == cfg["design"]["alpha"]):
            problems.append("certificate weights differ from the config")
        if verified and checks.read_json(out / "verify_report.json")["status"] != "pass":
            problems.append("verify report does not say pass")
        return [f"{out.name}: {p}" for p in problems]
    return check


def _simulation(seed: int, workdir: Path, main, grids, snapshots: bool) -> Workload:
    """The demo closed loop with a certificate designed once in set-up; the
    seed sets the initial amplitude and the order of the grid sizes."""
    design, _ = _demo_configs(workdir, main)
    problems = []
    cert_dir = workdir / "certificate"
    design_path = _write(workdir / "design.json", design)
    if main(["synth", "--config", design_path, "--out", str(cert_dir)]) != 0:
        raise RuntimeError("set-up design of the demo plant failed")
    cert_path = cert_dir / "certificate.json"
    cert = checks.read_json(cert_path)
    problems += checks.check_certificate(design["plant"], cert, design["design"]["epsilon"])

    sim = design["simulation"]
    dist = sim["disturbance"]
    if dist["kind"] != "sinusoidal_product" or sorted(dist["phases"]) != ["cos", "sin"]:
        raise RuntimeError("the envelope check needs the sin/cos disturbance pair")
    rng = _rng(seed)
    amplitude = sim["initial"]["amplitude"] * (0.8 + 0.4 * float(rng.random()))
    freqs = sim["initial"]["frequencies"]
    u_max = design["plant"]["u_max"]
    ops = []
    for cells in (grids[k] for k in rng.permutation(len(grids))):
        cfg = copy.deepcopy(design)
        cfg["simulation"].update(M=cells, t_final=SIM_T_FINAL)
        cfg["simulation"]["initial"]["amplitude"] = amplitude
        cfg["output"]["snapshots"] = snapshots
        name = f"simulate-M{cells}"
        path = _write(workdir / f"{name}.json", cfg)
        out = workdir / name

        def check(codes, out=out, cells=cells):
            norms = checks.read_table(out / "norms.csv")
            controls = checks.read_table(out / "controls.csv")
            found = checks.check_trajectory(norms, controls, cert, u_max, amplitude,
                                             freqs, dist["amplitude"], SIM_T_FINAL)
            if snapshots:
                snaps = checks.read_table(out / "snapshots.csv")
                found += checks.check_snapshots(snaps, norms, cells, amplitude, freqs)
            return [f"{out.name}: {p}" for p in found]

        ops.append(Op(name, [["simulate", "--config", path, "--gain", str(cert_path),
                              "--out", str(out)]], [(0,)], check))
    return Workload(ops, setup_problems=problems)


def closed_loop(seed: int, workdir: Path, main) -> Workload:
    return _simulation(seed, workdir, main, SIM_GRIDS, snapshots=False)


def snapshot_export(seed: int, workdir: Path, main) -> Workload:
    return _simulation(seed, workdir, main, SNAPSHOT_GRIDS, snapshots=True)


BUILDERS = {
    "grid-sweep": grid_sweep,
    "synth-scale": synth_scale,
    "closed-loop": closed_loop,
    "snapshot-export": snapshot_export,
}
