"""Correctness checks on the program's outputs, made apart from the program.

Nothing here imports hypiss.  Each check recomputes what an output must
satisfy from the plant matrices, the certificate file and closed-form
properties of the method, in plain numpy (eigenvalues by
numpy.linalg.eigvalsh, not by the package's Jacobi solver), and never
compares against stored copies of earlier output.  Every function returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

MARGIN_TOL = 1e-9   # the program refuses to certify below -1e-9 as well
REL_TOL = 1e-12     # for quantities the program derives in closed form


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_table(path) -> np.ndarray:
    """The rows of an all-numeric CSV below its header."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _sym(blocks: list[list[np.ndarray]]) -> np.ndarray:
    """Symmetric block matrix from its upper triangle."""
    k = len(blocks)
    full = [[blocks[i][j] if j >= i else blocks[j][i].T for j in range(k)]
            for i in range(k)]
    return np.block(full)


def synthesis_margins(plant: dict, cert: dict, eps: float) -> dict[str, float]:
    """Signed slack of every gain-design inequality at the certificate.

    The blocks are rebuilt from the plant matrices: the boundary
    dissipation block in (Q, S, W), the disturbance block in (G, N), the
    decay block in (Q, G) at (mu, alpha), the peak cap Q <= c I, and the
    positivity of Q, S and G.  Strict inequalities carry eps; the cap
    carries none.
    """
    lam = np.asarray(plant["lambda"], dtype=float)
    h = np.asarray(plant["H"], dtype=float)
    b = np.asarray(plant["B"], dtype=float)
    nd = np.asarray(plant["N"], dtype=float)
    mu, alpha, peak = cert["mu"], cert["alpha"], cert["peak"]
    q = np.diag(cert["lyap_inv"])
    s = np.diag(cert["sector_inv"])
    w = np.asarray(cert["gain_scaled"], dtype=float)
    g = np.asarray(cert["coupling"], dtype=float)
    n, m = w.shape[1], w.shape[0]
    big_lam = np.diag(lam)

    boundary = _sym([
        [-q @ np.diag(1.0 / lam), h @ q + b @ w, b @ s],
        [None, -math.exp(-mu) * big_lam @ q, -w.T],
        [None, None, -2.0 * s]])
    disturbance = _sym([[g, nd], [None, np.eye(nd.shape[1])]])
    decay = q @ np.diag(alpha - mu * lam) + g
    decay = 0.5 * (decay + decay.T)

    def leq(a, e):   # a <= -e I
        return -float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1]) - e

    def geq(a, e):   # a >= e I
        return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0]) - e

    return {
        "boundary_block": leq(boundary, eps),
        "disturbance_block": geq(disturbance, eps),
        "decay_block": leq(decay, eps),
        "peak_cap": leq(q - peak * np.eye(n), 0.0),
        "q_pos": geq(q, eps),
        "s_pos": geq(s, eps) if m else 0.0,
        "coupling_pos": geq(g, eps),
    }


def check_certificate(plant: dict, cert: dict, eps: float) -> list[str]:
    """The certificate satisfies the synthesis inequalities, its gain is
    W Q^-1, its peak bounds Q from above, and its gamma is sqrt(max Q)
    e^{mu/2}."""
    problems = []
    scale = max(1.0, float(np.max(np.abs(cert["lyap_inv"]))),
                float(np.max(np.abs(cert["coupling"]))))
    for label, value in synthesis_margins(plant, cert, eps).items():
        if value < -MARGIN_TOL * scale:
            problems.append(f"certificate violates {label} (margin {value:.3e})")
    q = np.asarray(cert["lyap_inv"], dtype=float)
    w = np.asarray(cert["gain_scaled"], dtype=float)
    gain = np.asarray(cert["gain"], dtype=float)
    expected = w / q[None, :]
    if gain.shape != expected.shape or not np.allclose(
            gain, expected, rtol=1e-10, atol=1e-12 * max(1.0, np.max(np.abs(expected)))):
        problems.append("certificate gain differs from W Q^-1")
    qmax = float(np.max(q))
    if qmax > cert["peak"] + MARGIN_TOL * max(1.0, abs(cert["peak"])):
        problems.append(f"peak {cert['peak']:.6g} is below max(lyap_inv) {qmax:.6g}")
    if not _close(cert["gamma"], math.sqrt(qmax) * math.exp(cert["mu"] / 2.0)):
        problems.append("certificate gamma differs from sqrt(max Q) e^{mu/2}")
    return problems


def check_grid_csv(header: list[str], rows: list[list[str]],
                   mus, alphas) -> tuple[list[str], dict]:
    """One grid command's feasibility map: the requested cells in
    row-major order, only feasible or infeasible cells, gamma =
    sqrt(c) e^{mu/2} on feasible ones.  Returns the problems and the
    status of each cell keyed by (mu index, alpha index)."""
    problems = []
    statuses = {}
    if header != ["mu", "alpha", "status", "c", "gamma"]:
        return [f"unexpected feasibility header {header}"], statuses
    if len(rows) != len(mus) * len(alphas):
        return [f"expected {len(mus) * len(alphas)} cells, got {len(rows)}"], statuses
    k = 0
    for i, mu in enumerate(mus):
        for j, alpha in enumerate(alphas):
            r = rows[k]
            k += 1
            if not (_close(float(r[0]), mu, 1e-12) and _close(float(r[1]), alpha, 1e-12)):
                problems.append(f"cell {k}: weights {r[0]},{r[1]} not as requested")
            statuses[(i, j)] = r[2]
            if r[2] == "feasible":
                c, gamma = float(r[3]), float(r[4])
                if not (c > 0.0 and _close(gamma, math.sqrt(c) * math.exp(float(r[0]) / 2.0))):
                    problems.append(f"cell {k}: gamma {gamma!r} != sqrt(c) e^(mu/2)")
            elif r[2] != "infeasible":
                problems.append(f"cell {k}: status {r[2]!r}")
    return problems, statuses


def check_staircase(statuses: dict, n_mu: int, n_alpha: int) -> list[str]:
    """Feasibility is monotone in alpha for every mu: only the decay block
    depends on alpha, and a larger alpha only tightens it."""
    problems = []
    for i in range(n_mu):
        row = [statuses.get((i, j)) for j in range(n_alpha)]
        for j in range(1, n_alpha):
            if row[j] == "feasible" and row[j - 1] != "feasible":
                problems.append(f"mu index {i}: feasible at alpha index {j} "
                                f"but not at {j - 1}")
    return problems


def check_grid_best(rows: list[list[str]], report: dict) -> list[str]:
    """The reported best cell is the feasible cell of least gamma (ties to
    the smaller mu, then the smaller alpha).

    The report's gamma comes from max(lyap_inv) and the CSV's from the
    peak c >= max(lyap_inv), so the two agree only to solver accuracy.
    """
    feasible = [(float(r[4]), float(r[0]), float(r[1])) for r in rows
                if r[2] == "feasible"]
    best = report.get("best")
    if not feasible:
        return [] if best is None else ["best cell reported with no feasible cell"]
    if best is None:
        return ["no best cell reported"]
    gamma, mu, alpha = min(feasible)
    if not (best["mu"] == mu and best["alpha"] == alpha
            and _close(best["gamma"], gamma, 1e-8)):
        return [f"best cell {best} is not the least-gamma feasible cell "
                f"(mu={mu}, alpha={alpha}, gamma={gamma})"]
    return []


def initial_norm(amplitude: float, frequencies) -> float:
    """L2 norm on (0, 1) of the cosine profile A (cos(2 pi k z) - 1), in
    closed form."""
    total = 0.0
    for k in frequencies:
        w = 2.0 * math.pi * k
        total += 0.5 + math.sin(2.0 * w) / (4.0 * w) - 2.0 * math.sin(w) / w + 1.0
    return abs(amplitude) * math.sqrt(total)


def initial_profile(amplitude: float, frequencies, z: np.ndarray) -> np.ndarray:
    return amplitude * np.stack([np.cos(2.0 * math.pi * k * z) - 1.0
                                 for k in frequencies])


def iss_envelope(times: np.ndarray, cert: dict, x0_norm: float,
                 disturbance_amplitude: float) -> np.ndarray:
    """Certified bound on the state norm at each time.

    With P = Q^-1, c1 = e^{-mu} min P, c2 = max P and c3 = alpha, the
    bound is e^{-c3 t/2} sqrt(c2/c1) |x0| + sqrt(E(t)/c1), where for the
    sin/cos disturbance pair of amplitude a the energy int_0^t |d|^2 is
    exactly a^2 t, because sin^2 + cos^2 = 1 at every point.
    """
    p = 1.0 / np.asarray(cert["lyap_inv"], dtype=float)
    c1 = math.exp(-cert["mu"]) * float(np.min(p))
    c2 = float(np.max(p))
    energy = disturbance_amplitude ** 2 * times
    return (np.exp(-0.5 * cert["alpha"] * times) * math.sqrt(c2 / c1) * x0_norm
            + np.sqrt(energy / c1))


def check_trajectory(norms: np.ndarray, controls: np.ndarray, cert: dict,
                     u_max, amplitude: float, frequencies,
                     disturbance_amplitude: float, t_final: float) -> list[str]:
    """norms rows are (t, l2_norm, ...), controls rows (t, u_1, ...)."""
    problems = []
    t = norms[:, 0]
    if t[0] != 0.0 or not _close(t[-1], t_final) or np.any(np.diff(t) <= 0.0):
        problems.append("recorded times do not run increasing from 0 to t_final")
    x0 = initial_norm(amplitude, frequencies)
    if not _close(norms[0, 1], x0, 1e-9):
        problems.append(f"norm at t=0 is {norms[0, 1]!r}, closed form {x0!r}")
    env = iss_envelope(t, cert, x0, disturbance_amplitude)
    above = np.nonzero(norms[:, 1] > env * (1.0 + 1e-9))[0]
    if above.size:
        k = int(above[0])
        problems.append(f"norm {norms[k, 1]:.6g} exceeds the ISS envelope "
                        f"{env[k]:.6g} at t={t[k]:.6g}")
    if controls.shape[0] != t.size or np.any(controls[:, 0] != t):
        problems.append("controls are not recorded at the norm times")
    over = np.abs(controls[:, 1:]) > np.asarray(u_max, dtype=float)[None, :]
    if np.any(over):
        k = int(np.nonzero(over.any(axis=1))[0][0])
        problems.append(f"control {controls[k, 1:]} exceeds u_max at t={controls[k, 0]:.6g}")
    return problems


def check_snapshots(snapshots: np.ndarray, norms: np.ndarray, cells: int,
                    amplitude: float, frequencies) -> list[str]:
    """snapshots rows are (t, z, x_1, ...) with `cells` rows per record."""
    problems = []
    if snapshots.shape[0] != norms.shape[0] * cells:
        return [f"{snapshots.shape[0]} snapshot rows for {norms.shape[0]} "
                f"records of {cells} cells"]
    blocks = snapshots.reshape(norms.shape[0], cells, snapshots.shape[1])
    if np.any(blocks[:, :, 0] != norms[:, :1]):
        problems.append("snapshot times differ from the norm times")
    z = (np.arange(cells) + 0.5) / cells
    if not np.allclose(blocks[:, :, 1], z[None, :], rtol=0.0, atol=1e-12):
        problems.append("snapshot positions are not the cell centres")
    recomputed = np.sqrt(np.sum(blocks[:, :, 2:] ** 2, axis=(1, 2)) / cells)
    bad = np.nonzero(np.abs(recomputed - norms[:, 1])
                     > 1e-10 * np.maximum(norms[:, 1], 1e-300))[0]
    if bad.size:
        k = int(bad[0])
        problems.append(f"snapshot norm {recomputed[k]!r} differs from "
                        f"norms.csv {norms[k, 1]!r} at t={norms[k, 0]:.6g}")
    x0 = initial_profile(amplitude, frequencies, blocks[0, :, 1]).T
    if not np.allclose(blocks[0, :, 2:], x0, rtol=0.0, atol=1e-12 * abs(amplitude)):
        problems.append("t=0 snapshot differs from the initial profile")
    return problems
