"""Closed-loop simulation of 1-D hyperbolic transport with boundary feedback.

The state lives on cell centers of a uniform grid over (0, 1) and is
advanced with the staggered two-step Lax-Friedrichs scheme: half-step
states on cell interfaces, then a conservative full step back on centers.
The inflow ghost cell is filled from the saturated feedback law applied to
the outflow trace, the outflow ghost by constant extrapolation, so the
boundary coupling enters exactly once per step.  Alongside the solver sit
the trajectory diagnostics: weighted norms, the exponential Lyapunov
functional, and the input-to-state-stability envelope it certifies.

`simulate` does each piece of work as seldom as it can:

- per run, a `Scheme`: the boundary law (`control.BoundaryLaw`, with
  H + B K formed once), the speed coefficients (0.5 dt/dz) λ and
  (dt/dz) λ, the CFL check, the disturbance map and the ghost-cell buffer
  with its two shifted views (a shorter last step gets a second one);
- per block of steps, one disturbance sample at all of the block's
  half-step times and its N·d products, and one check that the block's
  last state is finite; per block of records, the norms, Lyapunov values
  and saturated controls of the recorded states.  Every block array is at
  most 64 kB;
- per step, one `step` call: the boundary law, the half step and the full
  step.

Each block computation is the same floating-point arithmetic, in the same
order, as the step-at-a-time or record-at-a-time one, so the results are
identical to the last bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control import BoundaryLaw, Plant, _frozen, closed_loop_boundary, saturate
from .linalg import DiagMatrix, Matrix

ZERO = "zero"
SINUSOIDAL_PRODUCT = "sinusoidal_product"
COSINE_PROFILE = "cosine_profile"
TABULATED = "tabulated"

_KINDS = (ZERO, SINUSOIDAL_PRODUCT, COSINE_PROFILE, TABULATED)

# default cap on recorded diagnostics per run
_MAX_RECORDS = 2000
# doubles in one block of samples, forcings or recorded states (64 kB)
_BLOCK_FLOATS = 8192


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
    """Diagnostics recorded along a run, one row per recorded time, and the
    run's time stepping: the step count, the full step dt (the last step is
    shorter when dt does not divide t_final) and the record stride."""

    times: np.ndarray
    l2_norms: np.ndarray
    control_traces: np.ndarray
    steps: int
    dt: float
    stride: int
    lyapunov_values: np.ndarray | None = None
    snapshots: np.ndarray | None = None


@dataclass(frozen=True)
class IssBoundParams:
    """Constants of the certified envelope: lower/upper Lyapunov sandwich
    constants c1 <= c2, decay rate c3, and the initial norm the envelope
    starts from; the supply gain is 1."""

    c1: float
    c2: float
    c3: float
    x0_norm: float

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError("need 0 < c1 <= c2")
        if self.c3 <= 0.0:
            raise ValueError("c3 must be positive")
        if self.x0_norm < 0.0:
            raise ValueError("x0_norm must be nonnegative")


def _per_block(floats_each: int) -> int:
    """How many items of floats_each doubles fill one 64 kB block (at least
    one): the size of every block of samples, forcings and recorded states."""
    return max(1, _BLOCK_FLOATS // floats_each)


def _norms(states: np.ndarray, dz: float) -> np.ndarray:
    """Midpoint-rule L2 norm of each state of a stack: one pairwise sum of
    the squares per state, then sqrt(sum dz)."""
    sums = (states * states).reshape(len(states), -1).sum(axis=1)
    return np.sqrt(sums * dz)


def _lyapunov_weight(lyap: DiagMatrix, mu: float, grid: Grid):
    """P as a column and the weight e^{-mu z} on the centers, after the
    checks on mu and P."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if np.any(lyap.diagonal <= 0.0):
        raise ValueError("the Lyapunov weight must be positive")
    return lyap.diagonal[:, None], np.exp(-mu * grid.centers)


def _lyapunov_values(states: np.ndarray, p: np.ndarray, weight: np.ndarray,
                     dz: float) -> np.ndarray:
    """int e^{-mu z} <X, PX> dz of each state of an (c, n, M) stack by the
    midpoint rule."""
    quad = np.sum(p * states * states, axis=1)
    return np.sum(weight * quad, axis=1) * dz


def l2_norm(state, grid: Grid) -> float:
    """Spatial L2 norm by the composite midpoint rule on cell centers."""
    state = np.atleast_2d(np.asarray(state, dtype=float))
    return float(_norms(state[None], grid.dz)[0])


def lyapunov_value(state, lyap: DiagMatrix, mu: float, grid: Grid) -> float:
    """Exponentially weighted quadratic functional int e^{-mu z} <X, PX> dz
    by the midpoint rule."""
    p, weight = _lyapunov_weight(lyap, mu, grid)
    state = np.atleast_2d(np.asarray(state, dtype=float))
    return float(_lyapunov_values(state[None], p, weight, grid.dz)[0])


def iss_bound_params(lyap: DiagMatrix, mu: float, alpha: float,
                     x0_norm: float) -> IssBoundParams:
    """Envelope constants implied by a Lyapunov weight: c1 = e^{-mu} min(P),
    c2 = max(P), c3 = alpha."""
    p = lyap.diagonal
    if np.any(p <= 0.0):
        raise ValueError("the Lyapunov weight must be positive")
    return IssBoundParams(
        c1=math.exp(-mu) * float(np.min(p)),
        c2=float(np.max(p)),
        c3=alpha, x0_norm=x0_norm)


def iss_rhs(t: float, params: IssBoundParams, disturbance_energy: float) -> float:
    """Certified envelope at time t given the accumulated disturbance energy
    int_0^t ||d||^2: decaying term plus 1/sqrt(c1) times the energy root."""
    if disturbance_energy < 0.0:
        raise ValueError("disturbance energy must be nonnegative")
    decay = math.exp(-0.5 * params.c3 * t) * math.sqrt(params.c2 / params.c1)
    return decay * params.x0_norm + 1.0 / math.sqrt(params.c1) * math.sqrt(
        disturbance_energy)


def disturbance_energy(spec: SignalSpec, times, grid: Grid) -> np.ndarray:
    """Cumulative int_0^t ||d(theta)||^2 dtheta at each time, trapezoid in
    time over the given instants, midpoint in space."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be a strictly increasing 1-D array")
    if spec is None or spec.kind == ZERO:
        return np.zeros(times.size)
    # sampled a block of records at a time; per record the square of the
    # rounded norm, as l2_norm(spec.sample(t, grid.centers), grid) ** 2 gives it
    per = _per_block(spec.components * grid.cells)
    sq = np.empty(times.size)
    for start in range(0, times.size, per):
        d = spec.sample(times[start:start + per], grid.centers)
        sq[start:start + per] = [r ** 2 for r in _norms(d, grid.dz).tolist()]
    out = np.zeros(times.size)
    np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(times), out=out[1:])
    return out


class Scheme:
    """The per-run constants of the staggered Lax-Friedrichs step of length
    dt for one plant, gain and grid: the boundary law, the speed
    coefficients (0.5 dt/dz) λ and (dt/dz) λ, the disturbance map N, and
    the (n, M + 2) ghost-cell buffer that every step refills, with its
    views `left` (all but the last column) and `right` (all but the first).
    Raises ValueError when dt breaks the CFL condition."""

    def __init__(self, plant: Plant, gain: Matrix, grid: Grid, dt: float):
        lam = plant.speeds.diagonal[:, None]
        dz = grid.dz
        lam_max = float(lam.max())
        if lam_max * dt > dz * (1.0 + 1e-12):
            raise ValueError(
                f"CFL violation: max speed * dt / dz = {lam_max * dt / dz:.4g} > 1")
        self.law, self.grid, self.dt = BoundaryLaw.of(plant, gain), grid, dt
        self.half_speed = (0.5 * dt / dz) * lam
        self.full_speed = (dt / dz) * lam
        self.disturbance_map = plant.disturbance_map.array
        self.ghosted = np.empty((plant.n, grid.cells + 2))
        self.left, self.right = self.ghosted[:, :-1], self.ghosted[:, 1:]

    def forcing(self, disturbance: SignalSpec, half_times: np.ndarray):
        """The disturbance terms of a block of steps with the given half-step
        times: (0.5 dt) N d on the interfaces, shape (B, n, M + 1), and
        dt N d on the centers, shape (B, n, M), from one sample of the block
        on `Grid.staggered` (its even points are the interfaces, its odd
        ones the centers)."""
        block = disturbance.sample(half_times, self.grid.staggered)
        nd = self.disturbance_map
        # each half made contiguous, so every step's product is the same BLAS
        # call on the same values as a sample on the interfaces or the
        # centers alone
        even = np.ascontiguousarray(block[:, :, 0::2])
        odd = np.ascontiguousarray(block[:, :, 1::2])
        return (0.5 * self.dt) * (nd @ even), self.dt * (nd @ odd)


def step(state: np.ndarray, scheme: Scheme, forcing=None) -> np.ndarray:
    """One staggered Lax-Friedrichs step of the scheme's length.

    Half-step states are formed on interfaces (boundary values from the
    feedback ghost cell at z=0 and constant extrapolation at z=1), then the
    centers take the conservative full step.  The disturbance enters both
    stages at the half-step time: forcing is this step's pair of
    `Scheme.forcing` terms (interfaces, centers), or None for a run without
    one.  Only applying the scheme's boundary law and the two stages are
    per-step work; the law, the coefficients and the ghost buffer's views
    are the scheme's.
    """
    ghosted, left, right = scheme.ghosted, scheme.left, scheme.right
    outflow = state[:, -1]
    ghosted[:, 0] = closed_loop_boundary(scheme.law, outflow)
    ghosted[:, 1:-1] = state
    ghosted[:, -1] = outflow
    jump = right - left
    half = 0.5 * (right + left) - scheme.half_speed * jump
    if forcing is not None:
        half += forcing[0]
    out = state - scheme.full_speed * (half[:, 1:] - half[:, :-1])
    if forcing is not None:
        out += forcing[1]
    return out


class _Recorder:
    """The diagnostics of the recorded states, written into arrays sized
    before the first step.  Each recorded state is copied into a buffer of
    at most 64 kB; when it is full, and once at the end, the norms, the
    Lyapunov values and the saturated controls of the whole block are
    computed at once."""

    def __init__(self, records: int, plant: Plant, gain: Matrix, grid: Grid,
                 lyapunov: tuple[DiagMatrix, float] | None, keep_snapshots: bool):
        shape = (plant.n, grid.cells)
        self.times = np.empty(records)
        self.norms = np.empty(records)
        self.controls = np.empty((records, plant.m))
        self.lyap = None if lyapunov is None else np.empty(records)
        self.lyap_weight = None if lyapunov is None else _lyapunov_weight(*lyapunov, grid)
        self.snaps = np.empty((records,) + shape) if keep_snapshots else None
        self.buf = np.empty((min(records, _per_block(shape[0] * shape[1])),) + shape)
        self.gain, self.u_max, self.dz = gain.array, plant.u_max, grid.dz
        self.done = self.count = 0  # records flushed, records taken

    def add(self, t: float, state: np.ndarray) -> None:
        self.times[self.count] = t
        self.buf[self.count - self.done] = state
        self.count += 1
        if self.count - self.done == len(self.buf):
            self.flush()

    def flush(self) -> None:
        lo, hi = self.done, self.count
        if hi == lo:
            return
        xs = self.buf[:hi - lo]
        self.norms[lo:hi] = _norms(xs, self.dz)
        # K x on a strided outflow column rounds differently for some shapes
        # (one input, n >= 4), so it is taken on contiguous (n, 1) columns;
        # outflow @ K.T would round differently again
        outflow = np.ascontiguousarray(xs[:, :, -1])
        self.controls[lo:hi] = saturate((self.gain @ outflow[:, :, None])[:, :, 0],
                                        self.u_max)
        if self.lyap is not None:
            self.lyap[lo:hi] = _lyapunov_values(xs, *self.lyap_weight, self.dz)
        if self.snaps is not None:
            self.snaps[lo:hi] = xs
        self.done = hi

    def trajectory(self, steps: int, dt: float, stride: int) -> Trajectory:
        self.flush()
        for a in (self.times, self.norms, self.controls, self.lyap, self.snaps):
            if a is not None:
                a.setflags(write=False)
        return Trajectory(times=self.times, l2_norms=self.norms,
                          control_traces=self.controls, steps=steps, dt=dt,
                          stride=stride, lyapunov_values=self.lyap,
                          snapshots=self.snaps)


def simulate(plant: Plant, gain: Matrix, config: SimConfig,
             lyapunov: tuple[DiagMatrix, float] | None = None) -> Trajectory:
    """March the closed loop to t_final, recording diagnostics at t = 0,
    every snapshot stride, and the final time.

    Pass lyapunov = (P, mu) to record the weighted functional along the
    run.  A non-finite state aborts with the first bad time.  A finite
    state whose squared norm overflows records an infinite norm, without a
    warning, wherever it falls in the run.

    Per run: the time step, the `Scheme` with its boundary law (a second
    one for a shorter last step) and the record arrays.  Per block of at
    most 64 kB: one disturbance sample at the block's half-step times
    (k - 1) dt + dt/2 with its N d products, the diagnostics of a block of
    recorded states, and one finiteness check of the block's last state.
    Per step: one `step` call, and the time of a step that records.

    A non-finite entry never turns finite again in this scheme: each new
    center value is its old value plus the flux and forcing terms, and a sum
    with a non-finite term is never finite (inf - inf gives NaN, and every
    operation on NaN gives NaN).  So a block whose last state is finite had
    no bad step.  Otherwise the block is replayed from its first state with
    a check after every step, which finds the same first bad time as
    checking every step all along.
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

    records = 1 + n_steps // stride + (1 if n_steps % stride else 0)
    recorder = _Recorder(records, plant, gain, grid, lyapunov, config.keep_snapshots)
    recorder.add(0.0, state)

    disturbance = config.disturbance
    if disturbance is not None and disturbance.kind == ZERO:
        disturbance = None
    # steps first..last of length dt_k; step k starts at (k - 1) dt, the
    # remainder step included
    segments = [(1, full_steps, dt)]
    if n_steps > full_steps:
        segments.append((n_steps, n_steps, remainder))
    per = _per_block(max(plant.n, plant.q) * grid.staggered.size)

    def time_of(k: int) -> float:
        return k * dt if k < n_steps else config.t_final

    # overflow on the way to a detected blow-up is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for first, last, dt_k in segments:
            scheme = Scheme(plant, gain, grid, dt_k)
            for start in range(first, last + 1, per):
                ks = range(start, min(start + per, last + 1))
                forcing = None
                if disturbance is not None:
                    half_times = np.arange(start - 1, ks.stop - 1) * dt + 0.5 * dt_k
                    forcing = scheme.forcing(disturbance, half_times)
                block_first = state
                for k, f in zip(ks, _per_step(forcing)):
                    state = step(state, scheme, f)
                    if k % stride == 0 or k == n_steps:
                        recorder.add(time_of(k), state)
                if not np.isfinite(state).all():
                    state = block_first
                    for k, f in zip(ks, _per_step(forcing)):
                        state = step(state, scheme, f)
                        if not np.isfinite(state).all():
                            raise BlowUpError(time_of(k))
        return recorder.trajectory(n_steps, dt, stride)


def _per_step(forcing):
    """The forcing pairs of a block's steps, one per step: None for a run
    without disturbance."""
    return itertools.repeat(None) if forcing is None else zip(*forcing)
