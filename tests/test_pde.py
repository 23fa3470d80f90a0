import math
import warnings

import numpy as np
import pytest

from hypiss.control import Plant, saturate
from hypiss.linalg import DiagMatrix, Matrix
from hypiss.pde import (
    BlowUpError,
    Grid,
    IssBoundParams,
    SignalSpec,
    SimConfig,
    disturbance_energy,
    iss_bound_params,
    iss_rhs,
    Scheme,
    l2_norm,
    lyapunov_value,
    simulate,
    step,
)
from identities import (
    frechet_check,
    record_by_record_energy,
    step_by_step_simulate,
    two_sample_step,
)

INITIAL = SignalSpec.cosine_profile(10.0, (2.0, 1.0))
DISTURBANCE = SignalSpec.sinusoidal_product(5.0, ("sin", "cos"))
ZERO_GAIN_1 = Matrix(np.zeros((1, 1)))


def _bump(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    inside = (z > 0.2) & (z < 0.6)
    out[inside] = np.sin(np.pi * (z[inside] - 0.2) / 0.4) ** 4
    return out


def _free_transport() -> Plant:
    # single channel at unit speed, nothing reflected, no control authority
    return Plant(DiagMatrix(np.array([1.0])), Matrix(np.zeros((1, 1))),
                 Matrix(np.zeros((1, 1))), Matrix(np.eye(1)), np.array([1.0]))


def _bump_spec() -> SignalSpec:
    z = np.linspace(0.0, 1.0, 4001)
    return SignalSpec.tabulated(z, _bump(z)[None, :])


class TestSignalSpec:
    def test_zero(self):
        s = SignalSpec.zero(3)
        out = s.sample(1.7, [0.1, 0.9])
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_sinusoidal_product(self):
        s = SignalSpec.sinusoidal_product(5.0, ("sin", "cos"))
        z = np.array([0.25, 0.5])
        out = s.sample(2.0, z)
        assert np.allclose(out[0], 5.0 * np.sin(2.0 * z))
        assert np.allclose(out[1], 5.0 * np.cos(2.0 * z))

    def test_cosine_profile(self):
        z = np.array([0.0, 0.25, 1.0])
        out = INITIAL.sample(123.0, z)  # time-independent
        assert np.allclose(out[0], 10.0 * (np.cos(4 * np.pi * z) - 1.0))
        assert np.allclose(out[1], 10.0 * (np.cos(2 * np.pi * z) - 1.0))

    def test_tabulated_interpolates(self):
        s = SignalSpec.tabulated([0.0, 0.5, 1.0], [[1.0, 3.0, 2.0]])
        assert np.allclose(s.sample(0.0, [0.0, 0.25, 0.5, 1.0]),
                           [[1.0, 2.0, 3.0, 2.0]])

    def test_tabulated_rejects_out_of_range(self):
        s = SignalSpec.tabulated([0.2, 0.8], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            s.sample(0.0, [0.1])

    def test_tabulated_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            SignalSpec.tabulated([0.0, 0.5, 0.5], [[1.0, 1.0, 1.0]])

    def test_bad_kind_and_phases(self):
        with pytest.raises(ValueError):
            SignalSpec("noise", components=1)
        with pytest.raises(ValueError):
            SignalSpec.sinusoidal_product(1.0, ("sin", "tan"))


class TestGrid:
    def test_layout(self):
        g = Grid(10)
        assert g.dz == 0.1
        assert np.allclose(g.centers, np.arange(10) * 0.1 + 0.05)
        assert np.allclose(g.interfaces, np.arange(11) * 0.1)
        assert g.centers.size == 10 and g.interfaces.size == 11

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            Grid(7)

    def test_staggered_interleaves_interfaces_and_centers(self):
        for m in (8, 25, 400):
            g = Grid(m)
            z = g.staggered
            assert z.shape == (2 * m + 1,)
            assert z[0::2].tobytes() == g.interfaces.tobytes()
            assert z[1::2].tobytes() == g.centers.tobytes()
            assert np.all(np.diff(z) > 0.0)
            assert not z.flags.writeable


class TestSimConfig:
    def test_validation(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            SimConfig(g, t_final=0.0)
        with pytest.raises(ValueError):
            SimConfig(g, t_final=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            SimConfig(g, t_final=1.0, snapshot_stride=0)


class TestL2Norm:
    def test_constant_state(self):
        g = Grid(37)
        state = np.zeros((2, 37))
        state[0] = 1.0
        assert abs(l2_norm(state, g) - 1.0) < 1e-12

    def test_demo_initial_condition(self):
        # analytic value: integral of (cos - 1)^2 is 3/2 per component
        g = Grid(400)
        n0 = l2_norm(INITIAL.sample(0.0, g.centers), g)
        assert abs(n0 - math.sqrt(300.0)) / math.sqrt(300.0) < 0.005

    def test_quadrature_second_order(self):
        # e^z keeps the midpoint rule honest (periodic profiles superconverge)
        exact = math.sqrt((math.exp(2.0) - 1.0) / 2.0)
        errs = []
        for m in (100, 200):
            g = Grid(m)
            errs.append(abs(l2_norm(np.exp(g.centers)[None, :], g) - exact))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert 1.8 < order < 2.2


class TestLyapunovValue:
    def test_closed_form(self):
        # X = (1, 0), P = diag(2, 3), mu = 1: V = 2 int e^{-z} = 2(1 - 1/e)
        g = Grid(200)
        state = np.zeros((2, 200))
        state[0] = 1.0
        v = lyapunov_value(state, DiagMatrix(np.array([2.0, 3.0])), 1.0, g)
        want = 2.0 * (1.0 - math.exp(-1.0))
        assert abs(v - want) / want < 1e-3

    def test_zero_weight_recovers_plain_energy(self):
        g = Grid(64)
        rng = np.random.default_rng(1)
        state = rng.normal(size=(2, 64))
        p = DiagMatrix(np.array([2.0, 3.0]))
        v = lyapunov_value(state, p, 0.0, g)
        plain = float(np.sum(p.diagonal[:, None] * state * state)) * g.dz
        assert abs(v - plain) < 1e-12 * max(1.0, plain)

    def test_sandwich(self):
        # c1 ||X||^2 <= V <= c2 ||X||^2 with c1 = e^{-mu} min(P), c2 = max(P)
        g = Grid(50)
        p = DiagMatrix(np.array([0.08, 1.0 / 82.0]))
        mu = 1.0
        c1 = math.exp(-mu) * float(np.min(p.diagonal))
        c2 = float(np.max(p.diagonal))
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = rng.normal(scale=3.0, size=(2, 50))
            v = lyapunov_value(state, p, mu, g)
            nsq = l2_norm(state, g) ** 2
            assert c1 * nsq - 1e-9 <= v <= c2 * nsq + 1e-9

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            lyapunov_value(np.ones((1, 8)), DiagMatrix(np.array([1.0])), -0.1,
                           Grid(8))


class TestIssBound:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            IssBoundParams(c1=2.0, c2=1.0, c3=0.5, x0_norm=1.0)
        with pytest.raises(ValueError):
            IssBoundParams(c1=1.0, c2=1.0, c3=0.0, x0_norm=1.0)

    def test_initial_point(self):
        params = IssBoundParams(c1=0.5, c2=2.0, c3=0.5, x0_norm=3.0)
        assert abs(iss_rhs(0.0, params, 0.0) - 2.0 * 3.0) < 1e-14

    def test_pure_disturbance_closed_form(self):
        params = IssBoundParams(c1=0.25, c2=1.0, c3=1.0, x0_norm=0.0)
        for t in (0.5, 2.0, 9.0):
            want = 1.0 / 0.5 * math.sqrt(t)  # sqrt(t) / sqrt(c1)
            assert abs(iss_rhs(t, params, t) - want) < 1e-12

    def test_bound_params_from_weight(self):
        p = DiagMatrix(np.array([0.08, 1.0 / 82.0]))
        params = iss_bound_params(p, 1.0, 0.5, 17.3)
        assert abs(params.c1 - math.exp(-1.0) / 82.0) < 1e-15
        assert params.c2 == 0.08
        assert params.c3 == 0.5 and params.x0_norm == 17.3


class TestFrechetCheck:
    def test_quadratic_functional_is_exact(self):
        g = Grid(200)
        rng = np.random.default_rng(5)
        p = DiagMatrix(np.array([0.08, 1.0 / 82.0]))
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=(2, 200))
            h = rng.normal(size=(2, 200))
            worst = max(worst, frechet_check(p, 1.0, x, h, 1e-3, g))
        assert worst <= 1e-8

    def test_single_pair_tight(self):
        g = Grid(64)
        rng = np.random.default_rng(2)
        r = frechet_check(DiagMatrix(np.array([1.0, 2.0])), 0.7,
                          rng.normal(size=(2, 64)), rng.normal(size=(2, 64)),
                          1e-4, g)
        assert r <= 1e-10

    def test_zero_state(self):
        g = Grid(64)
        h = np.ones((2, 64))
        r = frechet_check(DiagMatrix(np.array([1.0, 2.0])), 0.5,
                          np.zeros((2, 64)), h, 1e-2, g)
        assert r <= 1e-10

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            frechet_check(DiagMatrix(np.array([1.0])), 0.5, np.ones((1, 8)),
                          np.zeros((1, 8)), 1e-2, Grid(8))


class TestStep:
    def test_matched_boundary_steady_state(self):
        # identity reflection hands the outflow straight back: a constant
        # profile is a discrete steady state, bit for bit
        plant = Plant(DiagMatrix(np.array([1.0, 2.0])), Matrix(np.eye(2)),
                      Matrix(np.eye(2)), Matrix(np.eye(2)), np.array([1.0, 1.0]))
        g = Grid(32)
        cfg = SimConfig(g, t_final=1.0)
        state = np.tile(np.array([[0.7], [-0.2]]), (1, 32))
        scheme = Scheme(plant, Matrix(np.zeros((2, 2))), g, 0.9 * g.dz / 2.0)
        out = state
        for _ in range(25):
            out = step(out, scheme)
        assert np.array_equal(out, state)

    def test_cfl_violation_raises(self):
        plant = _free_transport()
        g = Grid(16)
        with pytest.raises(ValueError):
            Scheme(plant, ZERO_GAIN_1, g, 1.5 * g.dz)


def _random_loop(random_plant_config, seed: int):
    """A seeded n = 3 plant with a dense disturbance map N and a random gain
    large enough to saturate, at weights mu = 1."""
    rng = np.random.default_rng(seed)
    cfg = random_plant_config(rng, 3, 1.0)
    plant = Plant(DiagMatrix(np.array(cfg["lambda"])), Matrix(np.array(cfg["H"])),
                  Matrix(np.array(cfg["B"])), Matrix(np.array(cfg["N"])),
                  np.array(cfg["u_max"]))
    gain = Matrix(rng.standard_normal((plant.m, plant.n)))
    return plant, gain, rng


def _outflow_controls(traj, plant: Plant, gain: Matrix) -> np.ndarray:
    """saturate(K x(t, 1)) at every record, from the kept snapshots, one
    record at a time on a contiguous outflow as the recorder computes it."""
    return np.array([saturate(gain.array @ np.ascontiguousarray(snap[:, -1]), plant.u_max)
                     for snap in traj.snapshots])


def _tabulated_disturbance(q: int) -> SignalSpec:
    z = np.linspace(0.0, 1.0, 13)
    return SignalSpec.tabulated(z, np.stack([np.sin((k + 1) * 3.0 * z) + 0.1 * k
                                             for k in range(q)]))


class TestOneSampleStep:
    """`Scheme.forcing` samples the disturbance once on `Grid.staggered`
    for a block of steps; `step` with that forcing must match the
    two-sample step bit for bit."""

    @pytest.mark.parametrize("kind", ["sinusoidal", "tabulated"])
    def test_matches_two_sample_step(self, random_plant_config, kind):
        plant, gain, rng = _random_loop(random_plant_config, 5)
        disturbance = (SignalSpec.sinusoidal_product(4.0, ("sin", "cos", "sin"))
                       if kind == "sinusoidal" else _tabulated_disturbance(plant.q))
        g = Grid(40)
        cfg = SimConfig(g, t_final=1.0, disturbance=disturbance)
        dt = 0.9 * g.dz / float(np.max(plant.speeds.diagonal))
        scheme = Scheme(plant, gain, g, dt)
        state = rng.normal(scale=3.0, size=(plant.n, g.cells))
        # the forcing of 60 steps, in blocks of 7 half-step times
        half_times = np.arange(60) * dt + 0.5 * dt
        forcings = [f for b in range(0, 60, 7)
                    for f in zip(*scheme.forcing(disturbance, half_times[b:b + 7]))]
        for k in range(60):
            got = step(state, scheme, forcings[k])
            want = two_sample_step(state, plant, gain, k * dt, dt, cfg)
            assert got.tobytes() == want.tobytes()
            state = got

    def test_recorded_functionals_match_the_public_ones(self, random_plant_config):
        plant, gain, rng = _random_loop(random_plant_config, 6)
        g = Grid(30)
        lyap, mu = DiagMatrix(rng.uniform(0.5, 2.0, plant.n)), 1.0
        cfg = SimConfig(g, t_final=0.7, initial=SignalSpec.cosine_profile(3.0, (1.0, 2.0, 3.0)),
                        disturbance=_tabulated_disturbance(plant.q),
                        snapshot_stride=3, keep_snapshots=True)
        traj = simulate(plant, gain, cfg, lyapunov=(lyap, mu))
        assert traj.times.size > 10
        weight = np.exp(-mu * g.centers)
        for snap, norm, value in zip(traj.snapshots, traj.l2_norms, traj.lyapunov_values):
            assert norm == l2_norm(snap, g)
            assert value == lyapunov_value(snap, lyap, mu, g)
            # the functional's own arithmetic, term by term
            quad = np.sum(lyap.diagonal[:, None] * snap * snap, axis=0)
            assert value == float(np.sum(weight * quad)) * g.dz
        assert _outflow_controls(traj, plant, gain).tobytes() == traj.control_traces.tobytes()

    def test_lyapunov_checks_run_before_the_first_step(self, demo_plant, demo_gain):
        cfg = SimConfig(Grid(16), t_final=1.0, initial=INITIAL)
        with pytest.raises(ValueError, match="Lyapunov weight must be positive"):
            simulate(demo_plant, demo_gain, cfg,
                     lyapunov=(DiagMatrix(np.array([1.0, -1.0])), 1.0))
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            simulate(demo_plant, demo_gain, cfg,
                     lyapunov=(DiagMatrix(np.array([1.0, 1.0])), -0.5))


def _blocks(floats_each: int) -> int:
    # items per 64 kB block, the rule the simulator sizes its blocks by
    return max(1, 8192 // floats_each)


# (seed, n, m, q, disturbance, stride, cells, t_final, keep snapshots)
BLOCK_CASES = [
    (1, 5, 1, 2, "sinusoidal", None, 37, 1.42, True),
    (2, 4, 1, 3, "tabulated", 1, 23, 3.87, False),
    (3, 6, 1, 1, "zero", 3, 11, 33.69, True),
    (4, 2, 2, 2, "sinusoidal", 7, 61, 6.81, True),
    (5, 3, 3, 4, "tabulated", 3, 19, 22.35, False),
    (6, 1, 1, 1, None, 1, 29, 12.69, True),
    (7, 7, 2, 5, "sinusoidal", 1, 9, 13.32, False),
    (8, 2, 1, 2, "tabulated", None, 101, 0.86, True),
]


def _block_case(seed, n, m, q, kind, stride, cells, t_final, keep):
    rng = np.random.default_rng(seed)
    plant = Plant(DiagMatrix(rng.uniform(0.5, 2.0, n)),
                  Matrix(rng.uniform(-0.4, 0.4, (n, n))),
                  Matrix(rng.standard_normal((n, m))),
                  Matrix(rng.standard_normal((n, q))), rng.uniform(0.2, 1.0, m))
    gain = Matrix(2.0 * rng.standard_normal((m, n)))
    disturbance = {
        "sinusoidal": SignalSpec.sinusoidal_product(3.0, (("sin", "cos") * q)[:q]),
        "tabulated": _tabulated_disturbance(q),
        "zero": SignalSpec.zero(q),
        None: None,
    }[kind]
    cfg = SimConfig(Grid(cells), t_final=t_final, cfl=0.85, disturbance=disturbance,
                    initial=SignalSpec.cosine_profile(2.0, tuple(range(1, n + 1))),
                    snapshot_stride=stride, keep_snapshots=keep)
    lyapunov = (DiagMatrix(rng.uniform(0.2, 2.0, n)), 0.7)
    return plant, gain, cfg, lyapunov


def _wild_run(amplitude: float, t_final: float, disturbance=None):
    """(plant, gain, config) of a zero-gain closed loop whose boundary
    reflects each outflow into the other channel with a gain of 900 or
    800, started from a cosine profile of the given amplitude."""
    wild = Plant(DiagMatrix(np.array([1.0, 1.5])),
                 Matrix(np.array([[0.0, 900.0], [800.0, 0.0]])),
                 Matrix(np.zeros((2, 1))), Matrix(np.eye(2)), np.array([1.0]))
    cfg = SimConfig(Grid(16), t_final=t_final,
                    initial=SignalSpec.cosine_profile(amplitude, (2.0, 1.0)),
                    disturbance=disturbance, snapshot_stride=5)
    return wild, Matrix(np.zeros((1, 2))), cfg


class TestBlockedRun:
    """`simulate` samples, forces and records a block at a time; every
    recorded array must be the bytes of the step-by-step, record-by-record
    run in `identities`."""

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: f"seed{c[0]}")
    def test_matches_step_by_step_run_bit_for_bit(self, case):
        plant, gain, cfg, lyapunov = _block_case(*case)
        traj = simulate(plant, gain, cfg, lyapunov=lyapunov)
        want = step_by_step_simulate(plant, gain, cfg, lyapunov=lyapunov)
        for name, ref in zip(("times", "l2_norms", "control_traces",
                              "lyapunov_values", "snapshots"), want):
            got = getattr(traj, name)
            assert (got is None) == (ref is None), name
            if ref is not None:
                assert got.shape == ref.shape, name
                assert got.tobytes() == ref.tobytes(), name
        # the case runs past its second block, neither the steps nor the
        # records fill a whole number of blocks, and t_final is no multiple
        # of dt, so the last step is a shorter one
        n, cells, records = plant.n, cfg.grid.cells, traj.times.size
        per_step = _blocks(max(n, plant.q) * (2 * cells + 1))
        per_record = _blocks(n * cells)
        assert traj.steps > 2 * per_step and traj.steps % per_step
        assert records > 2 * per_record and records % per_record
        assert (traj.steps - 1) * traj.dt < cfg.t_final < traj.steps * traj.dt
        assert traj.times[-1] == cfg.t_final

    # the simulator checks finiteness once per block of steps and replays a
    # bad block step by step; the amplitudes put the first non-finite step
    # at a block's first step, at its last step, and in the shorter last step
    @pytest.mark.parametrize("disturbance, amplitude, t_final, place", [
        (None, 10.0, 150.0, None),
        (DISTURBANCE, 10.0, 150.0, None),
        (DISTURBANCE, 7.5e8, 150.0, "block-first"),
        (None, 3.2e-8, 150.0, "block-last"),
        (None, 2.4e-8, 88.36875, "remainder"),
    ], ids=["None", "disturbance1", "block-first", "block-last", "remainder"])
    def test_blow_up_time_matches_step_by_step_run(self, disturbance, amplitude,
                                                   t_final, place):
        wild, gain, cfg = _wild_run(amplitude, t_final, disturbance)
        with pytest.raises(BlowUpError) as got:
            simulate(wild, gain, cfg)
        with pytest.raises(BlowUpError) as want:
            step_by_step_simulate(wild, gain, cfg)
        assert 0.0 < got.value.time < 150.0
        assert got.value.time == want.value.time
        dt, per = cfg.cfl * cfg.grid.dz / 1.5, _blocks(2 * (2 * 16 + 1))
        steps = got.value.time / dt
        if place == "block-first":
            assert round(steps) % per == 1
        elif place == "block-last":
            assert round(steps) % per == 0
        elif place == "remainder":
            assert got.value.time == t_final
            assert math.floor(steps) * dt < t_final < math.ceil(steps) * dt

    def test_overflowing_norm_in_the_last_flush_records_inf(self):
        # finite states above about 1.3e154 overflow their squared norm; the
        # last records are flushed after the stepping loop, and must be
        # recorded the same way as those of the blocks before
        wild, gain, cfg = _wild_run(9.09e-12, 88.36875)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate(wild, gain, cfg)
        with np.errstate(over="ignore"):
            want = step_by_step_simulate(wild, gain, cfg)
        assert np.isinf(traj.l2_norms[-1]) and np.isfinite(traj.l2_norms[0])
        assert np.isinf(traj.l2_norms).sum() < traj.l2_norms.size
        for name, ref in zip(("times", "l2_norms", "control_traces"), want):
            assert getattr(traj, name).tobytes() == ref.tobytes(), name

    def test_samples_the_disturbance_once_per_block(self, demo_plant, demo_gain,
                                                    monkeypatch):
        # the demo at M = 100 to t = 5 takes 786 steps: sampled a step at a
        # time, that is 787 calls with the initial state's
        calls = []
        sample = SignalSpec.sample

        def counted(spec, t, z):
            calls.append(t)
            return sample(spec, t, z)

        monkeypatch.setattr(SignalSpec, "sample", counted)
        cfg = SimConfig(Grid(100), t_final=5.0, disturbance=DISTURBANCE, initial=INITIAL)
        traj = simulate(demo_plant, demo_gain, cfg)
        block = _blocks(2 * 201)
        assert traj.steps == 786
        assert len(calls) <= math.ceil(traj.steps / block) + 2


class TestSimulate:
    def test_zero_data_stays_zero(self, demo_plant, demo_gain):
        traj = simulate(demo_plant, demo_gain,
                        SimConfig(Grid(64), t_final=2.0, keep_snapshots=True))
        assert np.all(traj.l2_norms == 0.0)
        assert np.all(traj.control_traces == 0.0)
        assert np.all(traj.snapshots[:, :, -1] == 0.0)

    def test_record_structure(self, demo_plant, demo_gain):
        cfg = SimConfig(Grid(64), t_final=1.0, disturbance=DISTURBANCE,
                        initial=INITIAL, snapshot_stride=7, keep_snapshots=True)
        traj = simulate(demo_plant, demo_gain, cfg)
        n = traj.times.size
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.l2_norms.shape == (n,)
        assert traj.control_traces.shape == (n, 2)
        assert (_outflow_controls(traj, demo_plant, demo_gain).tobytes()
                == traj.control_traces.tobytes())
        assert traj.snapshots.shape == (n, 2, 64)
        assert np.all(traj.l2_norms >= 0.0)

    def test_single_input_controls_match_bit_for_bit(self):
        # with one input and n >= 4, K x is a dot product whose bits differ
        # on a strided outflow column; the recorder must use a contiguous one
        rng = np.random.default_rng(5)
        n = 5
        plant = Plant(DiagMatrix(rng.uniform(1.0, 2.0, n)), Matrix(0.3 * np.eye(n)),
                      Matrix(rng.standard_normal((n, 1))), Matrix(np.eye(n)),
                      np.array([0.5]))
        gain = Matrix(rng.standard_normal((1, n)))
        cfg = SimConfig(Grid(20), t_final=0.5, snapshot_stride=1, keep_snapshots=True,
                        initial=SignalSpec.cosine_profile(3.0, (1.0, 2.0, 3.0, 4.0, 5.0)))
        traj = simulate(plant, gain, cfg)
        assert (_outflow_controls(traj, plant, gain).tobytes()
                == traj.control_traces.tobytes())

    @pytest.mark.parametrize("t_final", [1.0, 0.37, 1e-3])
    @pytest.mark.parametrize("stride", [1, 4, 7, None, 10 ** 9])
    def test_every_preallocated_record_is_filled(self, demo_plant, demo_gain,
                                                 t_final, stride):
        # records at t = 0, every stride-th step and the final time, each
        # exactly once: a miscounted record array shows as an IndexError or
        # as a last time that is not t_final
        cfg = SimConfig(Grid(16), t_final=t_final, initial=INITIAL,
                        snapshot_stride=stride, keep_snapshots=True)
        traj = simulate(demo_plant, demo_gain, cfg)
        assert traj.times[0] == 0.0 and traj.times[-1] == t_final
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.snapshots.shape == (traj.times.size, 2, 16)
        assert traj.l2_norms[-1] == l2_norm(traj.snapshots[-1], Grid(16))
        assert not traj.snapshots.flags.writeable

    def test_transport_exits_the_domain(self):
        # everything rides the unit characteristic out by t = 1.2
        traj = simulate(_free_transport(), ZERO_GAIN_1,
                        SimConfig(Grid(200), t_final=1.2, initial=_bump_spec()))
        assert traj.l2_norms[-1] <= 0.05 * traj.l2_norms[0]

    def test_transport_convergence_order(self):
        # compare against the exact shifted profile at t = 0.3
        spec = _bump_spec()
        errs = []
        for m in (200, 400):
            g = Grid(m)
            traj = simulate(_free_transport(), ZERO_GAIN_1,
                            SimConfig(g, t_final=0.3, initial=spec,
                                      keep_snapshots=True,
                                      snapshot_stride=10 ** 9))
            want = _bump(g.centers - 0.3)
            errs.append(l2_norm(traj.snapshots[-1] - want[None, :], g))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert 0.8 <= order <= 2.2

    def test_blow_up_names_first_bad_time(self):
        # a reflection of 1000 amplifies every transit until overflow
        wild = Plant(DiagMatrix(np.array([1.0])), Matrix(np.array([[1000.0]])),
                     Matrix(np.zeros((1, 1))), Matrix(np.eye(1)),
                     np.array([1.0]))
        ones = SignalSpec.tabulated([0.0, 1.0], [[1.0, 1.0]])
        with pytest.raises(BlowUpError) as exc:
            simulate(wild, ZERO_GAIN_1,
                     SimConfig(Grid(16), t_final=150.0, initial=ones))
        assert 0.0 < exc.value.time < 150.0
        assert f"{exc.value.time:.6g}" in str(exc.value)

    def test_component_mismatch(self, demo_plant, demo_gain):
        cfg = SimConfig(Grid(16), t_final=0.5,
                        initial=SignalSpec.cosine_profile(1.0, (1.0,)))
        with pytest.raises(ValueError):
            simulate(demo_plant, demo_gain, cfg)


class TestDemoClosedLoop:
    def test_envelope_dominates_norm(self, demo_trajectories):
        closed = demo_trajectories["closed"]
        params = demo_trajectories["params"]
        energy = demo_trajectories["energy"]
        rhs = np.array([iss_rhs(t, params, e)
                        for t, e in zip(closed.times, energy)])
        violations = int(np.sum(rhs < closed.l2_norms))
        assert violations == 0

    def test_closed_beats_open_at_final_time(self, demo_trajectories):
        closed = demo_trajectories["closed"]
        open_loop = demo_trajectories["open"]
        assert closed.l2_norms[-1] < open_loop.l2_norms[-1]

    def test_controls_respect_saturation(self, demo_trajectories):
        controls = demo_trajectories["closed"].control_traces
        assert np.max(np.abs(controls)) <= 0.3

    def test_sandwich_along_trajectory(self, demo_trajectories):
        closed = demo_trajectories["closed"]
        params = demo_trajectories["params"]
        nsq = closed.l2_norms ** 2
        assert np.all(closed.lyapunov_values >= params.c1 * nsq - 1e-9)
        assert np.all(closed.lyapunov_values <= params.c2 * nsq + 1e-9)

    def test_disturbance_energy_linear_in_time(self, demo_trajectories):
        # the demo disturbance has unit pointwise intensity times 25
        times = demo_trajectories["closed"].times
        energy = demo_trajectories["energy"]
        assert np.allclose(energy, 25.0 * times, rtol=1e-12, atol=1e-9)

    def test_grid_refinement_stability(self, demo_certificate, demo_plant,
                                       demo_trajectories):
        cfg = SimConfig(Grid(800), t_final=25.0, cfl=0.9,
                        disturbance=DISTURBANCE, initial=INITIAL)
        fine = simulate(demo_plant, demo_certificate.gain, cfg)
        coarse = demo_trajectories["closed"].l2_norms[-1]
        assert abs(fine.l2_norms[-1] - coarse) / coarse < 0.02


class TestDisturbanceEnergy:
    def test_zero_spec(self):
        g = Grid(16)
        out = disturbance_energy(SignalSpec.zero(2), [0.0, 1.0, 2.0], g)
        assert np.all(out == 0.0)

    def test_times_validation(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            disturbance_energy(DISTURBANCE, [0.0, 1.0, 1.0], g)

    @pytest.mark.parametrize("cells", [16, 200, 20000])
    def test_blocks_match_record_by_record_bit_for_bit(self, cells):
        # 20000 cells make blocks of a single record, 200 cells blocks of
        # 20 records, 16 cells blocks of 256 records with a shorter last one
        g = Grid(cells)
        times = np.cumsum(np.random.default_rng(cells).uniform(0.001, 0.05, 300))
        for spec in (DISTURBANCE, INITIAL):
            got = disturbance_energy(spec, times, g)
            assert got.tobytes() == record_by_record_energy(spec, times, g).tobytes()

    def test_sample_at_many_times_matches_one_at_a_time(self):
        z = np.linspace(0.0, 1.0, 33)
        times = np.array([0.0, 0.3, 7.25])
        bump = _bump_spec()
        for spec in (DISTURBANCE, INITIAL, SignalSpec.zero(3), bump):
            many = spec.sample(times, z)
            assert many.shape == (3, spec.components, 33)
            for t, one in zip(times, many):
                assert one.tobytes() == spec.sample(float(t), z).tobytes()
