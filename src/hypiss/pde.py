"""Closed-loop simulation of 1-D hyperbolic transport with boundary feedback.

The state lives on cell centers of a uniform grid over (0, 1) and is
advanced with the staggered two-step Lax-Friedrichs scheme: half-step
states on cell interfaces, then a conservative full step back on centers.
The inflow ghost cell is filled from the saturated feedback law applied to
the outflow trace, the outflow ghost by constant extrapolation, so the
boundary coupling enters exactly once per step.  Alongside the solver sit
the trajectory diagnostics: weighted norms, the exponential Lyapunov
functional, and the input-to-state-stability envelope it certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control import Plant, closed_loop_boundary, saturate
from .linalg import DiagMatrix, Matrix

ZERO = "zero"
SINUSOIDAL_PRODUCT = "sinusoidal_product"
COSINE_PROFILE = "cosine_profile"
TABULATED = "tabulated"

_KINDS = (ZERO, SINUSOIDAL_PRODUCT, COSINE_PROFILE, TABULATED)

# default cap on recorded diagnostics per run
_MAX_RECORDS = 2000


class BlowUpError(RuntimeError):
    """Simulation produced a non-finite state; time is the first bad time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class SignalSpec:
    """Space-time signal used for disturbances and initial conditions.

    kind "zero": identically zero with a fixed component count.
    kind "sinusoidal_product": component i is amplitude * sin(z t) or
    amplitude * cos(z t) according to phases[i].
    kind "cosine_profile": component i is amplitude * (cos(2 pi k_i z) - 1),
    time-independent.
    kind "tabulated": per-component linear interpolation of samples on a
    strictly increasing spatial grid that must cover every queried z.
    """

    kind: str
    components: int = 0
    amplitude: float = 0.0
    phases: tuple[str, ...] = ()
    frequencies: tuple[float, ...] = ()
    sample_grid: np.ndarray | None = None
    sample_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.kind == ZERO:
            if self.components < 1:
                raise ValueError("zero signal needs a positive component count")
        elif self.kind == SINUSOIDAL_PRODUCT:
            if not self.phases or any(p not in ("sin", "cos") for p in self.phases):
                raise ValueError("phases must be a nonempty tuple of 'sin'/'cos'")
            object.__setattr__(self, "components", len(self.phases))
        elif self.kind == COSINE_PROFILE:
            if not self.frequencies:
                raise ValueError("cosine profile needs at least one frequency")
            object.__setattr__(self, "components", len(self.frequencies))
        else:
            g = np.asarray(self.sample_grid, dtype=float)
            v = np.atleast_2d(np.asarray(self.sample_values, dtype=float))
            if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0.0):
                raise ValueError("tabulated grid must be strictly increasing")
            if v.shape[1] != g.size:
                raise ValueError("tabulated values must match the grid length")
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
                raise ValueError("tabulated data must be finite")
            object.__setattr__(self, "sample_grid", _frozen(g))
            object.__setattr__(self, "sample_values", _frozen(v))
            object.__setattr__(self, "components", v.shape[0])

    @staticmethod
    def zero(components: int) -> "SignalSpec":
        return SignalSpec(ZERO, components=components)

    @staticmethod
    def sinusoidal_product(amplitude: float, phases) -> "SignalSpec":
        return SignalSpec(SINUSOIDAL_PRODUCT, amplitude=float(amplitude),
                          phases=tuple(phases))

    @staticmethod
    def cosine_profile(amplitude: float, frequencies) -> "SignalSpec":
        return SignalSpec(COSINE_PROFILE, amplitude=float(amplitude),
                          frequencies=tuple(float(k) for k in frequencies))

    @staticmethod
    def tabulated(sample_grid, sample_values) -> "SignalSpec":
        return SignalSpec(TABULATED, sample_grid=np.asarray(sample_grid),
                          sample_values=np.asarray(sample_values))

    def sample(self, t, z) -> np.ndarray:
        """Evaluate at time t on the positions z; shape (components, len(z)).
        A 1-D array of times gives one such sample per time, stacked along
        a leading axis, each the same bytes as its own call."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.kind == SINUSOIDAL_PRODUCT:  # the only time-dependent kind
            arg = np.multiply.outer(t, z)
            rows = [np.sin(arg) if p == "sin" else np.cos(arg) for p in self.phases]
            return self.amplitude * np.stack(rows, axis=-2)
        if self.kind == ZERO:
            once = np.zeros((self.components, z.size))
        elif self.kind == COSINE_PROFILE:
            rows = [np.cos(2.0 * math.pi * k * z) - 1.0 for k in self.frequencies]
            once = self.amplitude * np.stack(rows)
        else:
            g = self.sample_grid
            if np.min(z) < g[0] or np.max(z) > g[-1]:
                raise ValueError("tabulated signal queried outside its grid")
            once = np.stack([np.interp(z, g, row) for row in self.sample_values])
        return np.broadcast_to(once, (len(t),) + once.shape) if np.ndim(t) else once


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform finite-volume grid on (0, 1) with at least 8 cells."""

    cells: int

    def __post_init__(self):
        if self.cells < 8:
            raise ValueError("grid needs at least 8 cells")

    @property
    def dz(self) -> float:
        return 1.0 / self.cells

    @cached_property
    def centers(self) -> np.ndarray:
        return _frozen((np.arange(self.cells) + 0.5) * self.dz)

    @cached_property
    def interfaces(self) -> np.ndarray:
        return _frozen(np.arange(self.cells + 1) * self.dz)

    @cached_property
    def staggered(self) -> np.ndarray:
        """The 2M + 1 points of the staggered scheme: interfaces at even
        indices and centers at odd ones, each bit-identical to its entry
        in `interfaces` or `centers`."""
        z = np.empty(2 * self.cells + 1)
        z[0::2] = self.interfaces
        z[1::2] = self.centers
        return _frozen(z)


@dataclass(frozen=True)
class SimConfig:
    """Run description: grid, horizon, CFL number, input signals, and how
    often diagnostics are recorded (stride None picks one keeping at most
    2000 records)."""

    grid: Grid
    t_final: float
    cfl: float = 0.9
    disturbance: SignalSpec | None = None
    initial: SignalSpec | None = None
    snapshot_stride: int | None = None
    keep_snapshots: bool = False

    def __post_init__(self):
        if not (self.t_final > 0.0 and math.isfinite(self.t_final)):
            raise ValueError("t_final must be positive and finite")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """Diagnostics recorded along a run, one row per recorded time."""

    times: np.ndarray
    l2_norms: np.ndarray
    control_traces: np.ndarray
    lyapunov_values: np.ndarray | None = None
    snapshots: np.ndarray | None = None


@dataclass(frozen=True)
class IssBoundParams:
    """Constants of the certified envelope: lower/upper Lyapunov sandwich
    constants c1 <= c2, decay rate c3, supply gain chi, and the initial
    norm the envelope starts from."""

    c1: float
    c2: float
    c3: float
    chi: float
    x0_norm: float

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError("need 0 < c1 <= c2")
        if self.c3 <= 0.0 or self.chi <= 0.0:
            raise ValueError("c3 and chi must be positive")
        if self.x0_norm < 0.0:
            raise ValueError("x0_norm must be nonnegative")


def l2_norm(state, grid: Grid) -> float:
    """Spatial L2 norm by the composite midpoint rule on cell centers."""
    state = np.atleast_2d(np.asarray(state, dtype=float))
    return math.sqrt(float(np.sum(state * state)) * grid.dz)


def lyapunov_value(state, lyap: DiagMatrix, mu: float, grid: Grid) -> float:
    """Exponentially weighted quadratic functional int e^{-mu z} <X, PX> dz
    by the midpoint rule."""
    return _lyapunov_functional(lyap, mu, grid)(state)


def _lyapunov_functional(lyap: DiagMatrix, mu: float, grid: Grid):
    """`lyapunov_value` as a function of the state alone, with the checks on
    mu and P and the weight e^{-mu z} done once, for a run that evaluates
    it at every record."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if np.any(lyap.diagonal <= 0.0):
        raise ValueError("the Lyapunov weight must be positive")
    weight = np.exp(-mu * grid.centers)
    p = lyap.diagonal[:, None]
    dz = grid.dz

    def value(state) -> float:
        state = np.atleast_2d(np.asarray(state, dtype=float))
        quad = np.sum(p * state * state, axis=0)
        return float(np.sum(weight * quad)) * dz

    return value


def iss_bound_params(lyap: DiagMatrix, mu: float, alpha: float, supply: float,
                     x0_norm: float) -> IssBoundParams:
    """Envelope constants implied by a Lyapunov weight: c1 = e^{-mu} min(P),
    c2 = max(P), c3 = alpha."""
    p = lyap.diagonal
    if np.any(p <= 0.0):
        raise ValueError("the Lyapunov weight must be positive")
    return IssBoundParams(
        c1=math.exp(-mu) * float(np.min(p)),
        c2=float(np.max(p)),
        c3=alpha, chi=supply, x0_norm=x0_norm)


def iss_rhs(t: float, params: IssBoundParams, disturbance_energy: float) -> float:
    """Certified envelope at time t given the accumulated disturbance energy
    int_0^t ||d||^2: decaying term plus the gain times the energy root."""
    if disturbance_energy < 0.0:
        raise ValueError("disturbance energy must be nonnegative")
    decay = math.exp(-0.5 * params.c3 * t) * math.sqrt(params.c2 / params.c1)
    return decay * params.x0_norm + params.chi / math.sqrt(params.c1) * math.sqrt(
        disturbance_energy)


def disturbance_energy(spec: SignalSpec, times, grid: Grid) -> np.ndarray:
    """Cumulative int_0^t ||d(theta)||^2 dtheta at each time, trapezoid in
    time over the given instants, midpoint in space."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be a strictly increasing 1-D array")
    if spec is None or spec.kind == ZERO:
        return np.zeros(times.size)
    # sampled a block of records at a time, each block's samples at most
    # 64 kB; per record the square of the rounded norm, as
    # l2_norm(spec.sample(t, grid.centers), grid) ** 2 gives it
    per = max(1, 8192 // (spec.components * grid.cells))
    sq = np.empty(times.size)
    for start in range(0, times.size, per):
        d = spec.sample(times[start:start + per], grid.centers)
        sums = (d * d).reshape(len(d), -1).sum(axis=1)
        sq[start:start + per] = [r ** 2 for r in np.sqrt(sums * grid.dz).tolist()]
    out = np.zeros(times.size)
    np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(times), out=out[1:])
    return out


def step(state: np.ndarray, plant: Plant, gain: Matrix, t: float, dt: float,
         config: SimConfig) -> np.ndarray:
    """One staggered Lax-Friedrichs step of length dt starting at time t.

    Half-step states are formed on interfaces (boundary values from the
    feedback ghost cell at z=0 and constant extrapolation at z=1), then the
    centers take the conservative full step.  The disturbance enters both
    stages at the half-step time, so one sample on `Grid.staggered` serves
    both: its even points for the interfaces, its odd ones for the centers.
    """
    grid = config.grid
    lam = plant.speeds.diagonal[:, None]
    dz = grid.dz
    lam_max = float(lam.max())
    if lam_max * dt > dz * (1.0 + 1e-12):
        raise ValueError(
            f"CFL violation: max speed * dt / dz = {lam_max * dt / dz:.4g} > 1")

    inflow = closed_loop_boundary(plant, gain, state[:, -1])
    ghosted = np.concatenate([inflow[:, None], state, state[:, -1:]], axis=1)

    half_t = t + 0.5 * dt
    jump = ghosted[:, 1:] - ghosted[:, :-1]
    half = 0.5 * (ghosted[:, 1:] + ghosted[:, :-1]) - (0.5 * dt / dz) * lam * jump
    nd = plant.disturbance_map.array
    forced = config.disturbance is not None and config.disturbance.kind != ZERO
    if forced:
        # each half made contiguous, so its product is the same BLAS call on
        # the same values as a sample on the interfaces or the centers alone
        sample = config.disturbance.sample(half_t, grid.staggered)
        half += (0.5 * dt) * (nd @ np.ascontiguousarray(sample[:, 0::2]))

    out = state - (dt / dz) * lam * (half[:, 1:] - half[:, :-1])
    if forced:
        out += dt * (nd @ np.ascontiguousarray(sample[:, 1::2]))
    return out


def simulate(plant: Plant, gain: Matrix, config: SimConfig,
             lyapunov: tuple[DiagMatrix, float] | None = None) -> Trajectory:
    """March the closed loop to t_final, recording diagnostics at t = 0,
    every snapshot stride, and the final time.

    Pass lyapunov = (P, mu) to record the weighted functional along the
    run.  A non-finite state aborts with the first bad time.
    """
    grid = config.grid
    if config.initial is not None and config.initial.components != plant.n:
        raise ValueError("initial condition has the wrong component count")
    if config.disturbance is not None and config.disturbance.components != plant.q:
        raise ValueError("disturbance has the wrong component count")

    lam_max = float(np.max(plant.speeds.diagonal))
    dt = config.cfl * grid.dz / lam_max
    full_steps = int(math.floor(config.t_final / dt + 1e-12))
    remainder = config.t_final - full_steps * dt
    n_steps = full_steps + (1 if remainder > 1e-12 * dt else 0)
    stride = config.snapshot_stride
    if stride is None:
        stride = max(1, math.ceil(n_steps / _MAX_RECORDS))

    if config.initial is None:
        state = np.zeros((plant.n, grid.cells))
    else:
        state = config.initial.sample(0.0, grid.centers)

    # the record count is known before the first step, so every diagnostic
    # is written in place into an array of its final size
    records = 1 + n_steps // stride + (1 if n_steps % stride else 0)
    times = np.empty(records)
    norms = np.empty(records)
    controls = np.empty((records, plant.m))
    lyap_vals = None if lyapunov is None else np.empty(records)
    snaps = np.empty((records, plant.n, grid.cells)) if config.keep_snapshots else None
    k_arr = gain.array
    lyap_value = None if lyapunov is None else _lyapunov_functional(*lyapunov, grid)

    def record(i: int, t_now: float, x: np.ndarray):
        times[i] = t_now
        norms[i] = l2_norm(x, grid)
        # K x on the strided outflow column rounds differently for some
        # shapes (one input, n >= 4), so it is taken on a contiguous copy
        controls[i] = saturate(k_arr @ np.ascontiguousarray(x[:, -1]), plant.u_max)
        if lyap_vals is not None:
            lyap_vals[i] = lyap_value(x)
        if snaps is not None:
            snaps[i] = x

    record(0, 0.0, state)
    i = 1
    # overflow on the way to a detected blow-up is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            if k <= full_steps:
                t_prev, dt_k, t_now = (k - 1) * dt, dt, k * dt if k < n_steps else config.t_final
            else:
                t_prev, dt_k, t_now = full_steps * dt, remainder, config.t_final
            state = step(state, plant, gain, t_prev, dt_k, config)
            if not np.all(np.isfinite(state)):
                raise BlowUpError(t_now)
            if k % stride == 0 or k == n_steps:
                record(i, t_now, state)
                i += 1

    for a in (times, norms, controls, lyap_vals, snaps):
        if a is not None:
            a.setflags(write=False)
    return Trajectory(times=times, l2_norms=norms, control_traces=controls,
                      lyapunov_values=lyap_vals, snapshots=snaps)
