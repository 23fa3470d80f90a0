"""Acceptance gate: ten end-to-end criteria for the toolkit.

Each test is one criterion; conftest prints a [PASS]/[FAIL] line per
criterion after the run so the gate reads off a plain pytest invocation.
The demo system everywhere is the two-channel plant from conftest.
"""

import dataclasses
import math
import time

import numpy as np

from hypiss import pde
from hypiss.control import (
    grid_search,
    iss_coefficients,
    saturate,
    synthesis_margins,
    synthesize,
    verify_analysis,
    wellposedness_certificate,
)
from hypiss.linalg import DiagMatrix, Matrix, SymMatrix, invert_diag
from hypiss.pde import Grid, SignalSpec, SimConfig, l2_norm, simulate
from identities import deadzone, frechet_check, paper_synthesis_margins, sector_value

LYAP_INV = np.array([12.5, 82.0])
GAIN = np.array([[-0.24, 0.0], [0.33, -0.08]])
COUPLING_HAT = np.array([[4.07, 0.195], [0.195, 36.3]])
SECTOR_INV = np.array([11.767287269683061, 18.422264242336125])


def test_01_design_is_feasible_at_demo_weights(demo_plant):
    """gain design at mu=1, alpha=0.5 succeeds with nonnegative margins in under 5 s"""
    started = time.perf_counter()
    cert = synthesize(demo_plant, 1.0, 0.5)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert min(cert.margins.values()) >= 0.0
    assert abs(cert.peak - 11.1577) < 5e-3


def test_02_reported_design_values_certify(demo_plant, demo_certificate):
    """previously reported design weights satisfy every certified inequality"""
    reported = dataclasses.replace(
        demo_certificate, lyap_inv=DiagMatrix(LYAP_INV), sector_inv=DiagMatrix(SECTOR_INV),
        gain_scaled=Matrix(GAIN @ np.diag(LYAP_INV)), coupling=SymMatrix(COUPLING_HAT),
        gain=Matrix(GAIN), peak=82.0, mu=1.0, alpha=0.5, eps=0.0)
    # the paper's decay and disturbance blocks, in the coupling G = COUPLING_HAT
    paper = paper_synthesis_margins(demo_plant, reported, eps=0.0)
    assert abs(paper["decay_block"] - 2.18) < 0.1
    assert paper["disturbance_block"] > 0.0
    # the library's form without G: the merged block holds with at least
    # the disturbance block's margin
    merged = synthesis_margins(demo_plant, reported)["disturbance_decay_block"]
    assert merged >= paper["disturbance_block"]

    margins = verify_analysis(demo_plant, reported)
    # quoted to three figures, so allow print-precision slack below zero
    assert min(margins.values()) >= -0.05


def test_03_iss_coefficients_match_reported_values():
    """decay rate, overshoot, and disturbance gain come out as reported"""
    coeffs = iss_coefficients(invert_diag(DiagMatrix(LYAP_INV)), 1.0, 0.5)
    assert coeffs.omega == 0.25
    assert abs(coeffs.kappa - 4.2229) < 1e-3
    assert abs(coeffs.gamma - 14.9298) < 1e-3


def test_04_feasibility_staircase_over_weight_grid(demo_plant):
    """8x8 weight sweep finishes under 2 min and is monotone: slower decay
    demands stronger boundary dissipation"""
    started = time.perf_counter()
    fmap = grid_search(demo_plant, np.linspace(0.25, 2.0, 8),
                       np.linspace(0.1, 1.5, 8))
    assert time.perf_counter() - started < 120.0

    assert all(cell.status != "failed" for cell in fmap.cells)
    statuses = {(c.mu, c.alpha): c.status for c in fmap.cells}
    starts = []
    for alpha in fmap.alpha_grid:
        row = [statuses[(mu, alpha)] for mu in fmap.mu_grid]
        assert "feasible" in row
        first = row.index("feasible")
        # feasibility is an upper interval in mu for each alpha
        assert all(s == "feasible" for s in row[first:])
        assert all(s == "infeasible" for s in row[:first])
        starts.append(first)
    assert starts == sorted(starts)
    assert starts[-1] > starts[0]  # the staircase actually climbs
    assert fmap.best is not None


def test_05_trajectory_stays_below_certified_envelope(demo_trajectories):
    """closed-loop norm never crosses the certified disturbance envelope"""
    closed = demo_trajectories["closed"]
    params = demo_trajectories["params"]
    energy = demo_trajectories["energy"]
    rhs = np.array([pde.iss_rhs(t, params, e)
                    for t, e in zip(closed.times, energy)])
    violations = int(np.sum(closed.l2_norms > rhs))
    assert violations == 0


def test_06_feedback_beats_open_loop(demo_trajectories):
    """the designed gain ends with a smaller state norm than no control"""
    closed = demo_trajectories["closed"]
    open_loop = demo_trajectories["open"]
    assert closed.l2_norms[-1] < open_loop.l2_norms[-1]


def test_07_controls_respect_saturation(demo_trajectories):
    """applied boundary controls stay inside the hard limit throughout"""
    controls = demo_trajectories["closed"].control_traces
    assert float(np.max(np.abs(controls))) <= 0.3


def test_08_scheme_validates_on_free_transport():
    """the solver converges at the expected rate and transports a pulse out"""
    plant = pde.Plant(DiagMatrix(np.array([1.0])), Matrix(np.zeros((1, 1))),
                      Matrix(np.zeros((1, 1))), Matrix(np.eye(1)),
                      np.array([1.0]))
    z = np.linspace(0.0, 1.0, 4001)
    profile = np.zeros_like(z)
    inside = (z > 0.2) & (z < 0.6)
    profile[inside] = np.sin(np.pi * (z[inside] - 0.2) / 0.4) ** 4
    spec = SignalSpec.tabulated(z, profile[None, :])
    zero_gain = Matrix(np.zeros((1, 1)))

    errs = []
    for m in (200, 400):
        g = Grid(m)
        traj = simulate(plant, zero_gain,
                        SimConfig(g, t_final=0.3, initial=spec,
                                  keep_snapshots=True, snapshot_stride=10 ** 9))
        want = np.interp(np.clip(g.centers - 0.3, 0.0, 1.0), z, profile)
        errs.append(l2_norm(traj.snapshots[-1] - want[None, :], g))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert 0.8 <= order <= 2.2

    traj = simulate(plant, zero_gain,
                    SimConfig(Grid(200), t_final=1.2, initial=spec))
    assert traj.l2_norms[-1] <= 0.05 * traj.l2_norms[0]


def test_09_property_sweeps(demo_certificate, demo_trajectories):
    """randomized identities hold: saturation split, sector bound, quadratic
    functional derivative, norm equivalence, solver margins, initial norm"""
    lim = np.array([0.3, 0.3])
    rng = np.random.default_rng(17)
    u = rng.uniform(-0.6, 0.6, size=(10000, 2))
    assert np.all(u + deadzone(u, lim) == saturate(u, lim))

    rng = np.random.default_rng(11)
    worst = -math.inf
    for _ in range(10000):
        t = DiagMatrix(rng.uniform(0.01, 10.0, size=2))
        worst = max(worst, sector_value(rng.uniform(-5.0, 5.0, size=2), lim, t))
    assert worst <= 0.0

    g = Grid(200)
    rng = np.random.default_rng(5)
    p = DiagMatrix(np.array([0.08, 1.0 / 82.0]))
    worst = 0.0
    for _ in range(100):
        worst = max(worst, frechet_check(p, 1.0, rng.normal(size=(2, 200)),
                                         rng.normal(size=(2, 200)), 1e-3, g))
    assert worst <= 1e-8

    g = Grid(50)
    c1 = math.exp(-1.0) * float(np.min(p.diagonal))
    c2 = float(np.max(p.diagonal))
    rng = np.random.default_rng(9)
    for _ in range(100):
        state = rng.normal(scale=3.0, size=(2, 50))
        v = pde.lyapunov_value(state, p, 1.0, g)
        nsq = l2_norm(state, g) ** 2
        assert c1 * nsq - 1e-9 <= v <= c2 * nsq + 1e-9

    assert min(demo_certificate.margins.values()) >= -1e-9

    x0 = float(demo_trajectories["closed"].l2_norms[0])
    assert abs(x0 - math.sqrt(300.0)) <= 0.005 * math.sqrt(300.0)


def test_10_designed_gain_is_well_posed(demo_plant, demo_certificate):
    """the synthesized boundary law satisfies the well-posedness inequalities"""
    wp = wellposedness_certificate(demo_plant, demo_certificate.gain)
    assert all(v > 0.0 for v in wp.slacks.values())
    assert wp.tau > 1.0
    assert wp.mu_wp >= 0.0
    assert wp.rho < 0.0
