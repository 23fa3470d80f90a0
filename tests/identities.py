"""Identities the tests check the library against.

They restate properties the theory guarantees (the global sector bound of
the deadzone, the derivative of the quadratic Lyapunov functional, the
congruence that carries the synthesis boundary block to the analysis one)
in terms of the library's public functions, so a test can sweep them over
random inputs.  `deadzone`, saturate(u) - u, is the nonlinearity of that
sector bound.  `expr_value` and `reference_margins` evaluate a problem's
own affine matrices (`lmi.affine`: a constant and one coefficient per
entry, read off the builder's numpy formula), each constraint's sense read
from the constraint, so a test can hold what `lmi.vectorize` compiled
against the matrices it came from, and `form_bytes` compares two compiled
forms bit for bit;
`barrier_value` is the matrix the solver's barrier keeps
positive definite, and `synthesis_point` and `analysis_point` pack a
certificate into a problem's entry vector.  `full_start` is the full
synthesis form's strictly feasible point in closed form, the solver's
start when a test solves that form.  `elimination_minimizer` is the
gain_scaled W* of the elimination lemma in its general form, with R^-1
applied by a dense solve, which `control.gain_rule` reduces to one m x m
solve.  `paper_synthesis_margins` and
`paper_analysis_margins` evaluate the paper's seven inequalities of each
problem, with the coupling G (Gamma = P G P on the analysis side) that the
library eliminates, in plain numpy.  `write_csv`, `two_sample_step`,
`step_by_step_simulate` and `record_by_record_energy` are the plain forms
of the CSV writer, the simulator step, the simulator run and the
disturbance energy that the faster ones must match byte for byte.
`BARRIER_DEMO_GRID`, `BARRIER_SEEDED` and `BARRIER_SEEDED_INFEASIBLE` are
the verdicts and designs of the solver whose phases followed the log-barrier
path, frozen.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from hypiss import control
from hypiss.control import (
    Plant,
    SynthesisCertificate,
    build_synthesis_lmis,
    saturate,
)
from hypiss.linalg import DiagMatrix, Matrix, SymMatrix, sym_eig
from hypiss.lmi import (
    DEFAULT_EPS,
    LEQ,
    Affine,
    LmiProblem,
    StandardBlock,
    StandardForm,
    vectorize,
)
from hypiss.pde import (
    ZERO,
    BlowUpError,
    Grid,
    SignalSpec,
    SimConfig,
    l2_norm,
    lyapunov_value,
)


def deadzone(u, u_max) -> np.ndarray:
    """saturate(u) - u; zero inside the linear range."""
    u = np.asarray(u, dtype=float)
    return saturate(u, u_max) - u


def expr_value(expr: Affine, sf: StandardForm, x: np.ndarray) -> np.ndarray:
    """The affine matrix's value at the entry vector x of the standard form:
    its constant plus entry times coefficient for each term, summed term by
    term in the matrix's order."""
    index = {r: i for i, r in enumerate(sf.refs)}
    out = expr.const.copy()
    for ref, coeff in expr.coeffs.items():
        out += float(x[index[ref]]) * coeff
    return out


def reference_margins(problem: LmiProblem, sf: StandardForm, x: np.ndarray) -> list[float]:
    """The margin of each constraint at x from its own expression: the
    values by `expr_value`, one stacked `sym_eig` call, then -max_eig - eps
    for expr <= -eps I and min_eig - eps for expr >= eps I, with the eps
    that `vectorize` resolved."""
    values = [SymMatrix(expr_value(c.expr, sf, x)) for c in problem.constraints]
    return [-float(w[-1]) - blk.eps if c.sense == LEQ else float(w[0]) - blk.eps
            for c, blk, w in zip(problem.constraints, sf.blocks, sym_eig(values))]


def form_bytes(sf: StandardForm) -> tuple:
    """Everything of a standard form that the solver and the re-check read,
    its arrays as bytes: the entry vector, the objective, the variables,
    and each block's label, size, slack, base, entries and coefficients;
    two forms with equal bytes pose the same problem bit for bit."""
    def arr(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())
    return (sf.refs, arr(sf.objective), sf.variables,
            [(b.label, b.dim, np.float64(b.eps).tobytes(), arr(b.base),
              arr(b.idx), arr(b.coeffs)) for b in sf.blocks])


def barrier_value(blk: StandardBlock, x: np.ndarray) -> np.ndarray:
    """value(x) - eps I, positive definite where the block holds strictly."""
    return blk.value(x) - blk.eps * np.eye(blk.dim)


def sector_value(nu, u_max, sector: DiagMatrix) -> float:
    """Quadratic form phi^T T (phi + nu) with phi the deadzone of nu.

    Nonpositive for every nu and every positive diagonal T, which is the
    global sector property the synthesis leans on.
    """
    nu = np.asarray(nu, dtype=float)
    phi = deadzone(nu, u_max)
    return float(phi @ (sector.diagonal * (phi + nu)))


def analysis_point(sf: StandardForm, cert: SynthesisCertificate) -> np.ndarray:
    """The certificate as the entry vector of the analysis problem's
    standard form: P = lyap_inv^-1, T = sector_inv^-1 and chi^2 = 1."""
    return sf.pack({
        "lyap": 1.0 / cert.lyap_inv.diagonal, "sector": 1.0 / cert.sector_inv.diagonal,
        "supply_sq": np.ones(1)})


def synthesis_point(sf: StandardForm, cert: SynthesisCertificate) -> np.ndarray:
    """The certificate as the entry vector of the synthesis problem's
    standard form."""
    return sf.pack({
        "lyap_inv": cert.lyap_inv.diagonal, "sector_inv": cert.sector_inv.diagonal,
        "gain_scaled": cert.gain_scaled.array, "peak": [cert.peak]})


def full_start(sf: StandardForm, plant: Plant, mu: float, alpha: float,
               eps: float = DEFAULT_EPS) -> np.ndarray:
    """The closed-form start (t q-hat, 2 eps I, 0, c0) of the full
    synthesis form at (mu, alpha), with eps > 0: the projected start of
    `control._start` completed with S = 2 eps I and W = 0.  With S = sigma
    I and W = 0, boundary_block < -eps I holds once OL(Q) + eps I +
    sigma^2 / (2 sigma - eps) diag(B B^T, 0) < 0 (the Schur complement in
    its -2 sigma I + eps I corner), which t q-hat meets at sigma = 2 eps,
    and s_pos keeps margin eps."""
    [row] = control._rows(plant, [mu])
    return sf.pack({**control._start(plant, row, mu, alpha, eps),
                    "sector_inv": np.full(plant.m, 2.0 * eps),
                    "gain_scaled": np.zeros((plant.m, plant.n))})


def elimination_minimizer(plant: Plant, lyap_inv: np.ndarray, sigma: float,
                          eps: float) -> np.ndarray:
    """W* = -(U^T R^-1 U)^-1 U^T R^-1 C0 at Q = diag(lyap_inv) and S =
    sigma I, with R = -(A + eps I), A = [[-Q Lambda^-1, B S], [S B^T,
    -2 S]] boundary_block's rows and columns 1 and 3, U = [B; -I] and C0 =
    [H Q; 0]; R^-1 is applied by np.linalg.solve."""
    q, lam = np.asarray(lyap_inv, dtype=float), plant.speeds.diagonal
    b, h, m = plant.input_map.array, plant.reflection.array, plant.m
    a = np.block([[-np.diag(q / lam), sigma * b], [sigma * b.T, -2.0 * sigma * np.eye(m)]])
    r = -(a + eps * np.eye(a.shape[0]))
    u = np.vstack([b, -np.eye(m)])
    c0 = np.vstack([h * q, np.zeros((m, plant.n))])
    ru, rc = np.linalg.solve(r, u), np.linalg.solve(r, c0)
    return -np.linalg.solve(u.T @ ru, u.T @ rc)


def _leq(a: np.ndarray, eps: float) -> float:
    """Margin of a <= -eps I: -max_eig(a) - eps, a symmetrized first."""
    return -float(np.linalg.eigvalsh((a + a.T) / 2.0)[-1]) - eps


def _geq(a: np.ndarray, eps: float) -> float:
    """Margin of a >= eps I: min_eig(a) - eps, a symmetrized first."""
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[0]) - eps


def paper_synthesis_margins(plant: Plant, cert: SynthesisCertificate,
                            eps: float) -> dict[str, float]:
    """The margin of each of the paper's seven synthesis inequalities at
    the certificate's point, its coupling G included, posed at its mu and
    alpha with slack eps (none on the peak cap):
    boundary_block, disturbance_block [[G, N], [N^T, I]] >= eps I,
    decay_block Q diag(alpha - mu lambda) + G <= -eps I, peak_cap, q_pos,
    s_pos and coupling_pos G >= eps I."""
    lam = plant.speeds.diagonal
    h, b, nd = plant.reflection.array, plant.input_map.array, plant.disturbance_map.array
    q, s = np.diag(cert.lyap_inv.diagonal), np.diag(cert.sector_inv.diagonal)
    w, g = cert.gain_scaled.array, cert.coupling.array
    boundary = np.block([
        [-q @ np.diag(1.0 / lam), h @ q + b @ w, b @ s],
        [(h @ q + b @ w).T, -math.exp(-cert.mu) * np.diag(lam) @ q, -w.T],
        [(b @ s).T, -w, -2.0 * s]])
    return {
        "boundary_block": _leq(boundary, eps),
        "disturbance_block": _geq(np.block([[g, nd], [nd.T, np.eye(plant.q)]]), eps),
        "decay_block": _leq(q @ np.diag(cert.alpha - cert.mu * lam) + g, eps),
        "peak_cap": _leq(q - cert.peak * np.eye(plant.n), 0.0),
        "q_pos": _geq(q, eps),
        "s_pos": _geq(s, eps),
        "coupling_pos": _geq(g, eps),
    }


def paper_analysis_margins(plant: Plant, cert: SynthesisCertificate,
                           eps: float = 0.0) -> dict[str, float]:
    """The margin of each of the paper's seven analysis inequalities for
    the certificate's gain at P = lyap_inv^-1, T = sector_inv^-1,
    Gamma = P coupling P and chi^2 = 1, posed at its mu and alpha with
    slack eps: boundary_block, disturbance_block
    [[Gamma, P N], [N^T P, I]] >= eps I, decay_block
    P diag(alpha - mu lambda) + Gamma <= -eps I, p_pos, t_pos,
    coupling_pos Gamma >= eps I and supply_pos."""
    lam = np.diag(plant.speeds.diagonal)
    b, k, nd = plant.input_map.array, cert.gain.array, plant.disturbance_map.array
    h_cl = plant.reflection.array + b @ k
    p, t = np.diag(1.0 / cert.lyap_inv.diagonal), np.diag(1.0 / cert.sector_inv.diagonal)
    gamma = p @ cert.coupling.array @ p
    cross = h_cl.T @ p @ lam @ b - k.T @ t
    boundary = np.block([
        [h_cl.T @ p @ lam @ h_cl - math.exp(-cert.mu) * p @ lam, cross],
        [cross.T, b.T @ p @ lam @ b - 2.0 * t]])
    decay = p @ np.diag(cert.alpha - cert.mu * plant.speeds.diagonal) + gamma
    return {
        "boundary_block": _leq(boundary, eps),
        "disturbance_block": _geq(np.block([[gamma, p @ nd], [(p @ nd).T, np.eye(plant.q)]]),
                                  eps),
        "decay_block": _leq(decay, eps),
        "p_pos": _geq(p, eps),
        "t_pos": _geq(t, eps),
        "coupling_pos": _geq(gamma, eps),
        "supply_pos": 1.0 - eps,
    }


def congruent_boundary_block(plant: Plant, cert: SynthesisCertificate) -> np.ndarray:
    """diag(P, T) (M / M11) diag(P, T), with M the synthesis boundary block at
    the certificate's point, M11 = -lyap_inv Lambda^-1 its first diagonal
    block, P = lyap_inv^-1 and T = sector_inv^-1.

    With W = K lyap_inv this is the analysis boundary block at (P, T):
    the generalized-sector congruence of the convexified inequality.
    """
    problem = build_synthesis_lmis(plant, cert.mu, cert.alpha, eps=cert.eps)
    sf = vectorize(problem)
    boundary = next(c for c in problem.constraints if c.label == "boundary_block")
    m = expr_value(boundary.expr, sf, synthesis_point(sf, cert))
    n = plant.n
    m11, m12, m22 = m[:n, :n], m[:n, n:], m[n:, n:]
    schur = m22 - m12.T @ np.linalg.solve(m11, m12)
    d = np.concatenate([1.0 / cert.lyap_inv.diagonal, 1.0 / cert.sector_inv.diagonal])
    return d[:, None] * schur * d[None, :]


def frechet_check(lyap: DiagMatrix, mu: float, state, direction,
                  stepsize: float, grid: Grid) -> float:
    """Relative gap between the central difference of the functional along
    the direction and the closed-form derivative 2 int e^{-mu z} <PX, h> dz.

    The functional is quadratic, so the gap is rounding noise for any
    stepsize.  The scale for the relative error is max(|derivative|, V(h)),
    which stays meaningful at X = 0.
    """
    if stepsize <= 0.0:
        raise ValueError("stepsize must be positive")
    x = np.atleast_2d(np.asarray(state, dtype=float))
    h = np.atleast_2d(np.asarray(direction, dtype=float))
    if not np.any(h != 0.0):
        raise ValueError("direction must be nonzero")
    plus = lyapunov_value(x + stepsize * h, lyap, mu, grid)
    minus = lyapunov_value(x - stepsize * h, lyap, mu, grid)
    fd = (plus - minus) / (2.0 * stepsize)
    weight = np.exp(-mu * grid.centers)
    exact = 2.0 * float(np.sum(weight * np.sum(
        lyap.diagonal[:, None] * x * h, axis=0))) * grid.dz
    scale = max(abs(exact), lyapunov_value(h, lyap, mu, grid))
    return abs(fd - exact) / scale


def write_csv(path, header: list[str], rows) -> None:
    """A CSV file through csv.writer, one cell at a time: str cells as they
    are, every other cell as f"{float(cell):.17g}"."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([cell if isinstance(cell, str) else f"{float(cell):.17g}"
                        for cell in row])


def two_sample_step(state: np.ndarray, plant: Plant, gain: Matrix, t: float,
                    dt: float, config: SimConfig) -> np.ndarray:
    """The staggered Lax-Friedrichs step with the disturbance sampled twice
    at the half-step time, once on the interfaces and once on the centers,
    and the boundary law (H + B K) x + B deadzone(K x) formed afresh from
    the plant and gain at every step."""
    grid = config.grid
    lam = plant.speeds.diagonal[:, None]
    dz = grid.dz
    if float(np.max(lam)) * dt > dz * (1.0 + 1e-12):
        raise ValueError("CFL violation")
    x, b, k = state[:, -1], plant.input_map.array, gain.array
    inflow = (plant.reflection.array + b @ k) @ x + b @ deadzone(k @ x, plant.u_max)
    ghosted = np.concatenate([inflow[:, None], state, state[:, -1:]], axis=1)
    half_t = t + 0.5 * dt
    jump = ghosted[:, 1:] - ghosted[:, :-1]
    half = 0.5 * (ghosted[:, 1:] + ghosted[:, :-1]) - (0.5 * dt / dz) * lam * jump
    nd = plant.disturbance_map.array
    if config.disturbance is not None and config.disturbance.kind != ZERO:
        half += (0.5 * dt) * (nd @ config.disturbance.sample(half_t, grid.interfaces))
    out = state - (dt / dz) * lam * (half[:, 1:] - half[:, :-1])
    if config.disturbance is not None and config.disturbance.kind != ZERO:
        out += dt * (nd @ config.disturbance.sample(half_t, grid.centers))
    return out


def step_by_step_simulate(plant: Plant, gain: Matrix, config: SimConfig,
                          lyapunov: tuple[DiagMatrix, float] | None = None):
    """The closed-loop run one step and one record at a time: each step
    samples the disturbance itself (`two_sample_step`), and each record
    takes its norm, Lyapunov value and saturated control on its own.
    Returns (times, l2_norms, control_traces, lyapunov_values, snapshots),
    the last two None when not asked for; raises BlowUpError at the first
    non-finite state."""
    grid = config.grid
    dz = grid.dz
    dt = config.cfl * dz / float(np.max(plant.speeds.diagonal))
    full_steps = int(math.floor(config.t_final / dt + 1e-12))
    remainder = config.t_final - full_steps * dt
    n_steps = full_steps + (1 if remainder > 1e-12 * dt else 0)
    stride = config.snapshot_stride
    if stride is None:
        stride = max(1, math.ceil(n_steps / 2000))
    if config.initial is None:
        state = np.zeros((plant.n, grid.cells))
    else:
        state = config.initial.sample(0.0, grid.centers)
    if lyapunov is not None:
        p, weight = lyapunov[0].diagonal[:, None], np.exp(-lyapunov[1] * grid.centers)
    rows = []

    def record(t_now, x):
        lyap = None
        if lyapunov is not None:
            quad = np.sum(p * x * x, axis=0)
            lyap = float(np.sum(weight * quad)) * dz
        control = saturate(gain.array @ np.ascontiguousarray(x[:, -1]), plant.u_max)
        rows.append((t_now, math.sqrt(float(np.sum(x * x)) * dz), control, lyap, x))

    record(0.0, state)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            if k <= full_steps:
                t_prev, dt_k = (k - 1) * dt, dt
                t_now = k * dt if k < n_steps else config.t_final
            else:
                t_prev, dt_k, t_now = full_steps * dt, remainder, config.t_final
            state = two_sample_step(state, plant, gain, t_prev, dt_k, config)
            if not np.all(np.isfinite(state)):
                raise BlowUpError(t_now)
            if k % stride == 0 or k == n_steps:
                record(t_now, state)
    times, norms, controls, lyap, snaps = zip(*rows)
    return (np.array(times), np.array(norms), np.array(controls),
            None if lyapunov is None else np.array(lyap),
            np.array(snaps) if config.keep_snapshots else None)


def record_by_record_energy(spec: SignalSpec, times, grid: Grid) -> np.ndarray:
    """The cumulative disturbance energy with one sample and one norm per
    record time, trapezoid in time."""
    times = np.asarray(times, dtype=float)
    sq = np.array([l2_norm(spec.sample(t, grid.centers), grid) ** 2 for t in times])
    out = np.zeros(times.size)
    np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(times), out=out[1:])
    return out


# The designs of the solver whose phases 1 and 2 followed the log-barrier
# path over t = 1, 10, ..., 1e9, frozen: (mu, alpha, status, peak, phase-1
# Newton steps) of the demo plant's synthesis inequalities over the demo 8x8
# grid, solved in one `sdp.minimize_batch` as `control.grid_search` solves
# them, and (n, status, peak, phase-1 Newton steps) of the seeded random
# plants n = 2..10 (the `conftest` rule, default_rng(n), mu = 1, alpha =
# min(lambda) / 2), each solved by `sdp.minimize`.  The phase-1 steps are
# the barrier path's, a record only: the solver now starts at a strictly
# feasible point and has no feasibility phase.
BARRIER_DEMO_GRID = (
    (0.25, 0.1, 'optimal', 14.31069637265344, 6),
    (0.25, 0.3, 'infeasible', None, 48),
    (0.25, 0.5, 'infeasible', None, 44),
    (0.25, 0.7, 'infeasible', None, 53),
    (0.25, 0.8999999999999999, 'infeasible', None, 50),
    (0.25, 1.0999999999999999, 'infeasible', None, 50),
    (0.25, 1.3, 'infeasible', None, 50),
    (0.25, 1.5, 'infeasible', None, 52),
    (0.5, 0.1, 'optimal', 7.245408453403299, 6),
    (0.5, 0.3, 'optimal', 14.490807622418307, 6),
    (0.5, 0.5, 'infeasible', None, 48),
    (0.5, 0.7, 'infeasible', None, 50),
    (0.5, 0.8999999999999999, 'infeasible', None, 50),
    (0.5, 1.0999999999999999, 'infeasible', None, 55),
    (0.5, 1.3, 'infeasible', None, 50),
    (0.5, 1.5, 'infeasible', None, 50),
    (0.75, 0.1, 'optimal', 6.117840458777599, 7),
    (0.75, 0.3, 'optimal', 8.836874259603611, 7),
    (0.75, 0.5, 'optimal', 15.906362141761637, 7),
    (0.75, 0.7, 'optimal', 79.53175308123569, 7),
    (0.75, 0.8999999999999999, 'infeasible', None, 51),
    (0.75, 1.0999999999999999, 'infeasible', None, 44),
    (0.75, 1.3, 'infeasible', None, 51),
    (0.75, 1.5, 'infeasible', None, 49),
    (1.0, 0.1, 'optimal', 6.198711498384917, 8),
    (1.0, 0.3, 'optimal', 7.969764967410093, 8),
    (1.0, 0.5, 'optimal', 11.157661211668277, 8),
    (1.0, 0.7, 'optimal', 18.596085781625455, 8),
    (1.0, 0.8999999999999999, 'optimal', 55.788208631475754, 8),
    (1.0, 1.0999999999999999, 'infeasible', None, 51),
    (1.0, 1.3, 'infeasible', None, 48),
    (1.0, 1.5, 'infeasible', None, 49),
    (1.25, 0.1, 'optimal', 7.021638974219016, 10),
    (1.25, 0.3, 'optimal', 8.499869313197683, 10),
    (1.25, 0.5, 'optimal', 10.766489166321014, 10),
    (1.25, 0.7, 'optimal', 14.681559821746822, 10),
    (1.25, 0.8999999999999999, 'optimal', 23.070996940565063, 10),
    (1.25, 1.0999999999999999, 'optimal', 53.832266376345515, 9),
    (1.25, 1.3, 'infeasible', None, 50),
    (1.25, 1.5, 'infeasible', None, 48),
    (1.5, 0.1, 'optimal', 8.73568313351926, 12),
    (1.5, 0.3, 'optimal', 10.19161518560802, 12),
    (1.5, 0.5, 'optimal', 12.229920058581826, 12),
    (1.5, 0.7, 'optimal', 15.28737736810445, 12),
    (1.5, 0.8999999999999999, 'optimal', 20.383139550724728, 12),
    (1.5, 1.0999999999999999, 'optimal', 30.57466391608915, 12),
    (1.5, 1.3, 'optimal', 61.149237012430106, 11),
    (1.5, 1.5, 'infeasible', None, 48),
    (1.75, 0.1, 'optimal', 12.02922204427967, 20),
    (1.75, 0.3, 'optimal', 13.688396480994356, 20),
    (1.75, 0.5, 'optimal', 15.878506737590474, 20),
    (1.75, 0.7, 'optimal', 18.902944711143114, 20),
    (1.75, 0.8999999999999999, 'optimal', 23.350647613621625, 19),
    (1.75, 1.0999999999999999, 'optimal', 30.53539845634212, 18),
    (1.75, 1.3, 'optimal', 44.10659449296069, 17),
    (1.75, 1.5, 'optimal', 79.39170418883255, 15),
    (2.0, 0.1, 'optimal', 18.98904297462874, 70),
    (2.0, 0.3, 'optimal', 21.22298132125741, 66),
    (2.0, 0.5, 'optimal', 24.052636560786134, 66),
    (2.0, 0.7, 'optimal', 27.75295495147646, 66),
    (2.0, 0.8999999999999999, 'optimal', 32.79884366668922, 66),
    (2.0, 1.0999999999999999, 'optimal', 40.08734958943939, 67),
    (2.0, 1.3, 'optimal', 51.540716040473406, 60),
    (2.0, 1.5, 'optimal', 72.15677565373161, 69),
)

BARRIER_SEEDED = (
    (2, 'optimal', 0.9671196521020414, 2),
    (3, 'optimal', 1.9792567868948125, 3),
    (4, 'optimal', 2.076575636317762, 6),
    (5, 'optimal', 2.564674869762461, 5),
    (6, 'optimal', 2.481905977636422, 5),
    (7, 'optimal', 3.462963247137746, 6),
    (8, 'optimal', 4.264678086132562, 7),
    (9, 'optimal', 2.5210186337205713, 8),
    (10, 'optimal', 4.433461341718731, 7),
)

# The verdicts of the barrier-path solver on the same seeded plants at
# mu = 1 past their feasibility edge, frozen: (n, alpha / min(lambda),
# status).  The edge lies at 0.9985-1.0 min(lambda) on these plants, where
# the decay block's weakest diagonal coefficient alpha - mu min(lambda)
# reaches zero; 1.5 min(lambda) is far past it.
BARRIER_SEEDED_INFEASIBLE = tuple(
    (n, ratio, 'infeasible') for n in range(2, 11) for ratio in (1.0, 1.5))
