import copy
import math

import numpy as np
import pytest

from hypiss import pde
from hypiss.control import Plant, synthesize
from hypiss.linalg import DiagMatrix, Matrix, invert_diag


def _demo_plant() -> Plant:
    return Plant(
        speeds=DiagMatrix(np.array([1.0, math.sqrt(2.0)])),
        reflection=Matrix(np.array([[0.25, 0.0], [-1.0, 0.25]])),
        input_map=Matrix(np.eye(2)),
        disturbance_map=Matrix(np.eye(2)),
        u_max=np.array([0.3, 0.3]),
    )


def _random_plant_config(rng: np.random.Generator, n: int, mu: float) -> dict:
    """Plant block of a config, feasible by construction at weights mu and
    alpha = mu min(lambda) / 2: H is scaled to spectral norm 0.8 e^{-mu/2},
    m = ceil(n/2) controls, q = n disturbances (the benchmark's rule)."""
    m = (n + 1) // 2
    lam = rng.uniform(1.0, 2.0, n)
    h = rng.standard_normal((n, n))
    h *= 0.8 * math.exp(-mu / 2.0) / np.linalg.norm(h, 2)
    return {"lambda": lam.tolist(), "H": h.tolist(),
            "B": rng.standard_normal((n, m)).tolist(),
            "N": (rng.standard_normal((n, n)) / math.sqrt(n)).tolist(),
            "u_max": rng.uniform(0.2, 1.0, m).tolist()}


def _plant(cfg: dict) -> Plant:
    return Plant(DiagMatrix(np.array(cfg["lambda"])), Matrix(np.array(cfg["H"])),
                 Matrix(np.array(cfg["B"])), Matrix(np.array(cfg["N"])),
                 np.array(cfg["u_max"]))


# no gain stabilizes this plant: its one control drives only the first
# channel, and the second reflects into itself with gain 1.5, so the solver
# finds the synthesis inequalities infeasible also where alpha < mu min(lambda)
_UNCONTROLLED_REFLECTION = {
    "lambda": [1.0, math.sqrt(2.0)],
    "H": [[0.25, 0.0], [-1.0, 1.5]],
    "B": [[1.0], [0.0]],
    "N": [[1.0, 0.0], [0.0, 1.0]],
    "u_max": [0.3],
}


@pytest.fixture
def reflection_plant_config() -> dict:
    """Plant block of the uncontrolled reflection, a fresh copy."""
    return copy.deepcopy(_UNCONTROLLED_REFLECTION)


@pytest.fixture
def reflection_plant() -> Plant:
    """The uncontrolled reflection: a plant whose synthesis inequalities
    the solver finds infeasible at (0.5, 0.1), (1.0, 0.5) and (2.0, 0.5)."""
    return _plant(_UNCONTROLLED_REFLECTION)


@pytest.fixture
def random_plant_config():
    """Factory (rng, n, mu) -> plant config block of a random feasible plant."""
    return _random_plant_config


@pytest.fixture
def demo_plant() -> Plant:
    """Two-channel demo system used across the suite: unequal speeds, a
    cross-coupling reflection, identity input and disturbance maps, and a
    symmetric saturation level of 0.3 per channel."""
    return _demo_plant()


@pytest.fixture
def demo_gain() -> Matrix:
    """Hand-picked stabilizing gain for the demo plant, known to admit a
    dissipation certificate at mu=1, alpha=0.5."""
    return Matrix(np.array([[-0.24, 0.0], [0.33, -0.08]]))


@pytest.fixture(scope="session")
def demo_certificate():
    """Synthesized design for the demo plant at mu=1, alpha=0.5 (solved once
    per session; the solver is deterministic)."""
    return synthesize(_demo_plant(), 1.0, 0.5)


@pytest.fixture(scope="session")
def seeded_certificates():
    """(plant, certificate) of the seeded random plants n = 2..5: the plant
    rule above with default_rng(n), designed at mu = 1 and alpha = min(lambda)/2."""
    out = []
    for n in range(2, 6):
        plant = _plant(_random_plant_config(np.random.default_rng(n), n, 1.0))
        out.append((plant, synthesize(plant, 1.0, 0.5 * float(np.min(plant.speeds.diagonal)))))
    return out


@pytest.fixture(scope="session")
def demo_trajectories(demo_certificate):
    """Reference closed- and open-loop runs of the demo system, T=25, M=400,
    shared by the pde and acceptance suites (the runs are the expensive part
    of the suite, so they execute once)."""
    plant = _demo_plant()
    grid = pde.Grid(400)
    cfg = pde.SimConfig(
        grid, t_final=25.0, cfl=0.9,
        disturbance=pde.SignalSpec.sinusoidal_product(5.0, ("sin", "cos")),
        initial=pde.SignalSpec.cosine_profile(10.0, (2.0, 1.0)))
    lyap = invert_diag(demo_certificate.lyap_inv)
    closed = pde.simulate(plant, demo_certificate.gain, cfg,
                          lyapunov=(lyap, demo_certificate.mu))
    open_loop = pde.simulate(plant, Matrix(np.zeros((2, 2))), cfg)
    params = pde.iss_bound_params(lyap, demo_certificate.mu,
                                  demo_certificate.alpha,
                                  float(closed.l2_norms[0]))
    energy = pde.disturbance_energy(cfg.disturbance, closed.times, grid)
    return {"config": cfg, "closed": closed, "open": open_loop,
            "params": params, "energy": energy}


# one visible pass/fail line per acceptance criterion, printed after the
# regular pytest summary so the gate can be read off a full run directly
_ACCEPTANCE: list[tuple[str, str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
        _ACCEPTANCE.append(("PASS" if report.passed else "FAIL",
                            item.name, doc))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for status, name, doc in _ACCEPTANCE:
        terminalreporter.write_line(f"[{status}] {name}: {doc}")
