"""Boundary-feedback design for 1-D linear hyperbolic transport systems.

The plant transports n characteristic states at positive speeds across the
unit interval; the outflow trace is fed back to the inflow boundary through
a reflection matrix plus a saturated linear control, and an in-domain
disturbance enters through a constant map.  This module poses the gain
synthesis and gain analysis matrix inequalities, extracts certified
input-to-state-stability coefficients, and computes the constants used to
argue well-posedness of the saturated closed loop.

The synthesis inequalities are the convexified analysis ones, under the
change of variables lyap_inv = P^-1, sector_inv = T^-1, gain_scaled =
K lyap_inv.  So a certificate is re-checked on both sides without a
solver: its margins are evaluated at its own point in the synthesis
problem, and at P = lyap_inv^-1, T = sector_inv^-1 in the analysis one.

Convention for exponential weights: the certified Lyapunov density decays
like exp(-mu z) across the domain, and alpha is the certified decay rate of
the functional along solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lmi, sdp
from .linalg import DiagMatrix, Matrix, SymMatrix, invert_diag, sym_eig


class SynthesisError(Exception):
    """Base class for design failures; carries the solver's best effort and
    the standard form it was solving, when there was one."""

    def __init__(self, message: str, solution: sdp.Solution | None = None,
                 form: lmi.StandardForm | None = None):
        super().__init__(message)
        self.solution = solution
        self.form = form


class InfeasibleError(SynthesisError):
    pass


class SolverFailureError(SynthesisError):
    pass


@dataclass(frozen=True)
class Plant:
    """1-D hyperbolic transport system with saturated boundary input.

    speeds: positive transport speeds (diagonal), one per state.
    reflection: n x n boundary reflection of the outflow trace.
    input_map: n x m map from the saturated control to the inflow.
    disturbance_map: n x q map from the distributed disturbance.
    u_max: positive saturation levels, one per control channel.
    """

    speeds: DiagMatrix
    reflection: Matrix
    input_map: Matrix
    disturbance_map: Matrix
    u_max: np.ndarray

    def __post_init__(self):
        n = self.speeds.dim
        if np.any(self.speeds.diagonal <= 0.0):
            raise ValueError("transport speeds must be positive")
        if self.reflection.rows != n or self.reflection.cols != n:
            raise ValueError("reflection matrix must be n x n")
        if self.input_map.rows != n:
            raise ValueError("input map must have one row per state")
        if self.disturbance_map.rows != n:
            raise ValueError("disturbance map must have one row per state")
        u = np.asarray(self.u_max, dtype=float)
        if u.ndim != 1 or u.shape[0] != self.input_map.cols:
            raise ValueError("u_max needs one level per control channel")
        if not np.all(np.isfinite(u)) or np.any(u <= 0.0):
            raise ValueError("saturation levels must be positive and finite")
        object.__setattr__(self, "u_max", _frozen(u))

    @property
    def n(self) -> int:
        return self.speeds.dim

    @property
    def m(self) -> int:
        return self.input_map.cols

    @property
    def q(self) -> int:
        return self.disturbance_map.cols


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IssCoefficients:
    """Exponential decay rate, overshoot factor, and disturbance gain of the
    certified input-to-state-stability estimate."""

    omega: float
    kappa: float
    gamma: float


@dataclass(frozen=True)
class SynthesisCertificate:
    """Solution of the gain-design inequalities, plus derived quantities.

    lyap_inv is the inverse of the (diagonal) Lyapunov weight, sector_inv
    the inverse of the sector multiplier, gain_scaled the gain times
    lyap_inv, coupling the disturbance-coupling bound, peak an upper
    bound on the largest eigenvalue of lyap_inv that the design minimized,
    eps the strictness slack the inequalities were posed with,
    newton_steps the solver's steps in phase 1 and in phase 2,
    duality_gap the solver's final gap and phase1_slack its slack at the
    end of phase 1.  A certificate read back from a file has margins {}
    and newton_steps, duality_gap and phase1_slack None.
    """

    lyap_inv: DiagMatrix
    sector_inv: DiagMatrix
    gain_scaled: Matrix
    coupling: SymMatrix
    mu: float
    alpha: float
    peak: float
    gain: Matrix
    gamma: float
    omega: float
    kappa: float
    margins: dict[str, float]
    eps: float
    newton_steps: tuple[int, int] | None
    duality_gap: float | None
    phase1_slack: float | None


@dataclass(frozen=True)
class WellPosednessConstants:
    """Constants witnessing well-posedness of the saturated closed loop.

    tau dominates the quadratic input term at the boundary, mu_wp bounds
    the boundary energy amplification, and rho < 0 is an exponential
    weight making the boundary map contractive; slacks holds the checked
    inequalities (all must be positive)."""

    tau: float
    mu_wp: float
    rho: float
    slacks: dict[str, float]


@dataclass(frozen=True)
class GridCell:
    """The design at one (mu, alpha) weight of a grid sweep.

    peak is the solver's optimum c, the bound on the largest entry of
    lyap_inv, and gamma = sqrt(c) e^{mu/2} the disturbance gain it implies.
    A certificate states gamma from the weight itself,
    sqrt(max lyap_inv) e^{mu/2}.  Its check lets max lyap_inv exceed c by
    at most 1e-9 max(1, c), so for c >= 1/2 that gamma is at most this one
    times 1 + 1e-9; on the demo grid the two agree to about 1e-10
    relative.  newton_steps holds the solver's primal-dual steps in phase
    1 and in phase 2, phase 2's centering steps included, and
    phase1_slack its slack at the end of phase 1, both None for a cell
    that never reached the solver.
    """

    mu: float
    alpha: float
    status: str  # "feasible" | "infeasible" | "failed"
    peak: float | None
    gamma: float | None
    reason: str | None = None  # why a "failed" cell failed
    newton_steps: tuple[int, int] | None = None
    phase1_slack: float | None = None


@dataclass(frozen=True)
class FeasibilityMap:
    """Design outcome over a (mu, alpha) grid; cells are in row-major order
    with mu varying slowest.  best is the certificate of the feasible cell
    of smallest gamma, ties broken by smaller mu then smaller alpha; its
    own gamma, from max lyap_inv, can differ from the cell's
    sqrt(c) e^{mu/2} in the last digits (see GridCell)."""

    mu_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]
    cells: tuple[GridCell, ...]
    best: SynthesisCertificate | None


def saturate(u, u_max) -> np.ndarray:
    """Componentwise clamp of u to [-u_max, u_max]."""
    u = np.asarray(u, dtype=float)
    lim = np.asarray(u_max, dtype=float)
    # the same bytes as np.clip(u, -lim, lim) at half its cost per call
    return np.minimum(np.maximum(u, -lim), lim)


def deadzone(u, u_max) -> np.ndarray:
    """saturate(u) - u; zero inside the linear range."""
    u = np.asarray(u, dtype=float)
    return saturate(u, u_max) - u


@dataclass(frozen=True)
class BoundaryLaw:
    """The saturated boundary law of one plant and gain, formed once so that
    a simulation applies it at every step without re-forming it:
    closed_loop = H + B K, input_map B, gain K and the saturation levels
    u_max, each a read-only array.  `closed_loop_boundary` applies it."""

    closed_loop: np.ndarray
    input_map: np.ndarray
    gain: np.ndarray
    u_max: np.ndarray

    @staticmethod
    def of(plant: Plant, gain: Matrix) -> "BoundaryLaw":
        b, k = plant.input_map.array, gain.array
        return BoundaryLaw(_frozen(plant.reflection.array + b @ k), b, k, plant.u_max)


def closed_loop_boundary(law: BoundaryLaw, outflow) -> np.ndarray:
    """Inflow trace produced by reflecting the outflow x and adding the
    saturated control: (H + B K) x + B * deadzone(K x), with H + B K the
    law's, formed once."""
    x = np.asarray(outflow, dtype=float)
    return law.closed_loop @ x + law.input_map @ deadzone(law.gain @ x, law.u_max)


# variable names used in the synthesis problem
_VQ, _VS, _VW, _VG, _VC = "lyap_inv", "sector_inv", "gain_scaled", "coupling", "peak"
# and in the analysis problem
_VP, _VT, _VGA, _VX = "lyap", "sector", "coupling", "supply_sq"


def build_synthesis_lmis(plant: Plant, mu: float, alpha: float,
                         eps: float = lmi.DEFAULT_EPS) -> lmi.LmiProblem:
    """Convexified gain-design inequalities for the given weights.

    Decision variables: diagonal lyap_inv (inverse Lyapunov weight),
    diagonal sector_inv (inverse sector multiplier), full gain_scaled
    (gain times lyap_inv), symmetric coupling, and the scalar peak bounding
    lyap_inv's largest eigenvalue, which is also the objective.
    """
    if mu <= 0.0 or alpha <= 0.0:
        raise ValueError("mu and alpha must be positive")
    n, m = plant.n, plant.m
    lam = plant.speeds.diagonal
    big_lam = np.diag(lam)
    big_lam_inv = np.diag(1.0 / lam)
    h = plant.reflection.array
    b = plant.input_map.array
    nd = plant.disturbance_map.array

    vq = lmi.VarSpec.diagonal(_VQ, n)
    vs = lmi.VarSpec.diagonal(_VS, m)
    vw = lmi.VarSpec.full(_VW, m, n)
    vg = lmi.VarSpec.symmetric(_VG, n)
    vc = lmi.VarSpec.scalar(_VC)
    q = lmi.MatExpr.from_var(vq)
    s = lmi.MatExpr.from_var(vs)
    w = lmi.MatExpr.from_var(vw)
    g = lmi.MatExpr.from_var(vg)

    boundary = lmi.sym_block([
        [-(q @ big_lam_inv), h @ q + b @ w, b @ s],
        [None, -math.exp(-mu) * (big_lam @ q), -(w.T)],
        [None, None, -2.0 * s]])
    coupling = lmi.sym_block([[g, nd], [None, np.eye(plant.q)]])
    decay = q @ np.diag(alpha - mu * lam) + g
    cap = q - lmi.MatExpr.scalar_identity(_VC, n)

    constraints = (
        lmi.Constraint(boundary, lmi.LEQ, "boundary_block"),
        lmi.Constraint(coupling, lmi.GEQ, "disturbance_block"),
        lmi.Constraint(decay, lmi.LEQ, "decay_block"),
        lmi.Constraint(cap, lmi.LEQ, "peak_cap", eps=0.0),
        lmi.Constraint(q, lmi.GEQ, "q_pos"),
        lmi.Constraint(s, lmi.GEQ, "s_pos"),
        lmi.Constraint(g, lmi.GEQ, "coupling_pos"),
    )
    return lmi.LmiProblem((vq, vs, vw, vg, vc), constraints,
                          objective=(((_VC, 0), 1.0),), eps=eps)


def iss_coefficients(lyap: DiagMatrix, mu: float, alpha: float,
                     supply: float) -> IssCoefficients:
    """Decay rate, overshoot, and disturbance gain implied by a Lyapunov
    weight P, domain weight mu, decay rate alpha, and supply gain."""
    if mu <= 0.0 or alpha <= 0.0 or supply <= 0.0:
        raise ValueError("mu, alpha, and the supply gain must be positive")
    p = lyap.diagonal
    if np.any(p <= 0.0):
        raise ValueError("the Lyapunov weight must be positive")
    pmin, pmax = float(np.min(p)), float(np.max(p))
    omega = alpha / 2.0
    kappa = math.sqrt(pmax / pmin) * math.exp(mu / 2.0)
    gamma = supply * math.exp(mu / 2.0) / math.sqrt(pmin)
    return IssCoefficients(omega=omega, kappa=kappa, gamma=gamma)


def _failure(e: Exception) -> str:
    """Why a grid cell failed: the exception's type and message."""
    return f"{type(e).__name__}: {e}"


def _margins(sf: lmi.StandardForm, x: np.ndarray) -> dict[str, float]:
    """The margin of each inequality of the standard form, by label, at x."""
    return {blk.label: v for blk, v in zip(sf.blocks, lmi.problem_margins(sf, x))}


def synthesis_margins(plant: Plant, cert: SynthesisCertificate) -> dict[str, float]:
    """The margin of each synthesis inequality, posed at the certificate's
    own mu, alpha and eps, at its point; synthesize's are the same bits."""
    sf = lmi.vectorize(build_synthesis_lmis(plant, cert.mu, cert.alpha, eps=cert.eps))
    return _margins(sf, sf.pack({
        _VQ: cert.lyap_inv.diagonal, _VS: cert.sector_inv.diagonal,
        _VW: cert.gain_scaled.array, _VG: cert.coupling.array, _VC: [cert.peak]}))


def _certificate_from_solution(sf: lmi.StandardForm, solution: sdp.Solution,
                               mu: float, alpha: float, eps: float) -> SynthesisCertificate:
    """The certificate of one design at (mu, alpha), posed with slack eps.

    Raises InfeasibleError or SolverFailureError unless the solver reached
    an optimum whose x passes the re-check: every inequality's margin
    recomputed with the Jacobi eigensolver, and the peak bound.  This is
    the one place the solver's answer is checked.
    """
    if solution.status is sdp.Status.INFEASIBLE:
        raise InfeasibleError(
            f"synthesis inequalities are infeasible at mu={mu}, alpha={alpha}",
            solution, sf)
    if solution.status is not sdp.Status.OPTIMAL:
        raise SolverFailureError(
            f"solver reported {solution.status.value} at mu={mu}, alpha={alpha}",
            solution, sf)

    # margins first: a point they reject may not have lyap_inv > 0
    margins = _margins(sf, solution.x)
    worst = min(margins.values())
    if worst < -1e-9:
        raise SolverFailureError(
            f"re-checked margins dip to {worst:.3e}; refusing to certify",
            solution, sf)
    values = sf.unpack(solution.x)
    q, s = (DiagMatrix(np.diagonal(values[v])) for v in (_VQ, _VS))
    w, g = Matrix(values[_VW]), SymMatrix(values[_VG])
    peak = float(values[_VC][0, 0])
    qmax = float(np.max(q.diagonal))
    if qmax > peak + 1e-9 * max(1.0, abs(peak)):
        raise SolverFailureError(
            f"largest lyap_inv eigenvalue {qmax:.6g} exceeds peak bound {peak:.6g}",
            solution, sf)

    # gamma = sqrt(max lyap_inv) e^{mu/2}, taken from iss_coefficients so that
    # verify, which recomputes it there, finds exactly the stored value
    lyap = invert_diag(q)
    coeffs = iss_coefficients(lyap, mu, alpha, 1.0)
    return SynthesisCertificate(
        lyap_inv=q, sector_inv=s, gain_scaled=w, coupling=g,
        mu=mu, alpha=alpha, peak=peak, gain=Matrix(w.array @ lyap.array),
        gamma=coeffs.gamma, omega=coeffs.omega, kappa=coeffs.kappa,
        margins=margins, eps=eps, newton_steps=solution.newton_steps,
        duality_gap=solution.gap, phase1_slack=solution.phase1_slack)


def synthesize(plant: Plant, mu: float, alpha: float,
               eps: float = lmi.DEFAULT_EPS) -> SynthesisCertificate:
    """Design a saturated boundary gain minimizing the certified peak of the
    inverse Lyapunov weight; raises InfeasibleError when the inequalities
    admit no solution at these weights."""
    sf = lmi.vectorize(build_synthesis_lmis(plant, mu, alpha, eps=eps))
    return _certificate_from_solution(sf, sdp.minimize(sf), mu, alpha, eps)


def grid_search(plant: Plant, mu_grid, alpha_grid,
                eps: float = lmi.DEFAULT_EPS) -> FeasibilityMap:
    """Run the design over a grid of (mu, alpha) weights.

    All cells are solved together, in one lockstep batch of
    sdp.minimize_batch, and every solved cell goes through the certificate
    check of synthesize, so a "feasible" cell is one whose design was
    re-checked.  Cells never abort the sweep: a cell whose inequalities
    cannot be built or vectorized, or whose design fails (its point
    included), is recorded as "failed", with the exception type and
    message as reason; if the batch itself raises, every cell in it fails
    with that reason.  The best cell minimizes the disturbance gain
    gamma = sqrt(c) e^{mu/2}, with ties broken by smaller mu then smaller
    alpha.
    """
    mus = tuple(float(v) for v in mu_grid)
    alphas = tuple(float(v) for v in alpha_grid)
    if not mus or not alphas:
        raise ValueError("grids must be nonempty")
    if any(v <= 0.0 for v in mus + alphas):
        raise ValueError("grid weights must be positive")
    if list(mus) != sorted(set(mus)) or list(alphas) != sorted(set(alphas)):
        raise ValueError("grids must be strictly increasing")

    weights = [(mu, alpha) for mu in mus for alpha in alphas]
    forms, reasons = {}, {}
    for w in weights:
        try:
            forms[w] = lmi.vectorize(build_synthesis_lmis(plant, *w, eps=eps))
        except Exception as e:
            reasons[w] = _failure(e)
    try:
        solutions = dict(zip(forms, sdp.minimize_batch(forms.values())))
    except Exception as e:
        reasons.update(dict.fromkeys(forms, _failure(e)))
        solutions = {}

    cells, certificates = [], {}
    for w in weights:
        solution = solutions.get(w)
        if solution is None:
            cells.append(GridCell(*w, "failed", None, None, reasons[w]))
            continue
        trace = {"newton_steps": solution.newton_steps,
                 "phase1_slack": solution.phase1_slack}
        try:
            certificates[w] = _certificate_from_solution(forms[w], solution, *w, eps)
        except InfeasibleError:
            cells.append(GridCell(*w, "infeasible", None, None, **trace))
            continue
        except SolverFailureError as e:
            cells.append(GridCell(*w, "failed", None, None, _failure(e), **trace))
            continue
        peak = float(solution.objective)
        gamma = math.sqrt(peak) * math.exp(w[0] / 2.0)
        cells.append(GridCell(*w, "feasible", peak, gamma, **trace))

    best = min(((c.gamma, c.mu, c.alpha) for c in cells if c.status == "feasible"),
               default=None)
    return FeasibilityMap(mu_grid=mus, alpha_grid=alphas, cells=tuple(cells),
                          best=None if best is None else certificates[best[1:]])


def build_analysis_lmis(plant: Plant, gain: Matrix, mu: float, alpha: float,
                        eps: float = lmi.DEFAULT_EPS) -> lmi.LmiProblem:
    """Dissipation inequalities certifying a fixed gain, in a diagonal
    Lyapunov weight P, diagonal sector multiplier T, symmetric coupling
    bound Gamma and squared supply gain chi^2.

    At P = lyap_inv^-1, T = sector_inv^-1 and Gamma = P coupling P the
    boundary block is the congruence diag(P, T) of the Schur complement of
    the synthesis boundary block at its -lyap_inv Lambda^-1 entry, so a
    synthesis certificate is a point of this problem.
    """
    if mu <= 0.0 or alpha <= 0.0:
        raise ValueError("mu and alpha must be positive")
    n, m = plant.n, plant.m
    lam = plant.speeds.diagonal
    big_lam = np.diag(lam)
    k = gain.array
    b = plant.input_map.array
    h_cl = plant.reflection.array + b @ k
    nd = plant.disturbance_map.array

    vp = lmi.VarSpec.diagonal(_VP, n)
    vt = lmi.VarSpec.diagonal(_VT, m)
    vg = lmi.VarSpec.symmetric(_VGA, n)
    vx = lmi.VarSpec.scalar(_VX)
    p = lmi.MatExpr.from_var(vp)
    t = lmi.MatExpr.from_var(vt)
    g = lmi.MatExpr.from_var(vg)

    lam_b = big_lam @ b
    boundary = lmi.sym_block([
        [h_cl.T @ (p @ (big_lam @ h_cl)) - math.exp(-mu) * (p @ big_lam),
         h_cl.T @ (p @ lam_b) - k.T @ t],
        [None, b.T @ (p @ lam_b) - 2.0 * t]])
    coupling = lmi.sym_block([[g, p @ nd],
                              [None, lmi.MatExpr.scalar_identity(_VX, plant.q)]])
    decay = p @ np.diag(alpha - mu * lam) + g

    constraints = (
        lmi.Constraint(boundary, lmi.LEQ, "boundary_block"),
        lmi.Constraint(coupling, lmi.GEQ, "disturbance_block"),
        lmi.Constraint(decay, lmi.LEQ, "decay_block"),
        lmi.Constraint(p, lmi.GEQ, "p_pos"),
        lmi.Constraint(t, lmi.GEQ, "t_pos"),
        lmi.Constraint(g, lmi.GEQ, "coupling_pos"),
        lmi.Constraint(lmi.MatExpr.scalar_identity(_VX, 1), lmi.GEQ, "supply_pos"),
    )
    return lmi.LmiProblem((vp, vt, vg, vx), constraints, eps=eps)


def verify_analysis(plant: Plant, cert: SynthesisCertificate) -> dict[str, float]:
    """The margin of each analysis inequality, by label, for the
    certificate's gain at its own point: P = lyap_inv^-1, T = sector_inv^-1,
    Gamma = P coupling P and chi^2 = 1, posed at its mu and alpha with
    eps 0.  No solver is called; the margins may be negative, and callers
    decide what tolerance to accept.
    """
    if np.any(cert.lyap_inv.diagonal <= 0.0) or np.any(cert.sector_inv.diagonal <= 0.0):
        raise ValueError("lyap_inv and sector_inv must be positive")
    sf = lmi.vectorize(build_analysis_lmis(plant, cert.gain, cert.mu, cert.alpha, eps=0.0))
    lyap = invert_diag(cert.lyap_inv)
    pa = lyap.array
    return _margins(sf, sf.pack({
        _VP: lyap.diagonal, _VT: invert_diag(cert.sector_inv).diagonal,
        _VGA: SymMatrix.symmetrized(pa @ cert.coupling.array @ pa).array,
        _VX: np.ones(1)}))


def _gram(a: np.ndarray) -> SymMatrix:
    """A^T A, whose top eigenvalue is the square of A's spectral norm."""
    return SymMatrix.symmetrized(a.T @ a)


def _norm(gram_top: float) -> float:
    """The spectral norm of A from the top eigenvalue of A^T A."""
    return math.sqrt(max(gram_top, 0.0))


def wellposedness_certificate(plant: Plant, gain: Matrix,
                              delta: float = 0.01) -> WellPosednessConstants:
    """Constants witnessing well-posedness of the saturated closed loop.

    All four defining inequalities are re-checked numerically and reported
    as positive slacks; delta is the strictness headroom added when picking
    each constant.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    lam = plant.speeds.diagonal
    big_lam = np.diag(lam)
    big_lam_inv = np.diag(1.0 / lam)
    b = plant.input_map.array
    k = gain.array
    h_cl = plant.reflection.array + b @ k

    # one stacked eigensolve for the top eigenvalue of B^T Lambda B and the
    # spectral norms of H_cl^T Lambda B, H_cl and B K; a second one for the
    # norm of `inner`, which depends on tau and on the cross norm
    btlb_top, *gram_tops = (float(w[-1]) for w, _ in sym_eig([
        SymMatrix.symmetrized(b.T @ big_lam @ b),
        _gram(h_cl.T @ big_lam @ b), _gram(h_cl), _gram(b @ k)]))
    cross, norm_h, norm_bk = (_norm(top) for top in gram_tops)
    tau = 1.0 + btlb_top + delta

    inner = (h_cl.T @ big_lam @ h_cl @ big_lam_inv
             + tau * (k.T @ k) @ big_lam_inv
             + cross ** 2 * big_lam_inv)
    amplification = math.log(max(_norm(float(sym_eig(_gram(inner))[0][-1])), 1e-300))
    mu_wp = max(amplification, 0.0) + delta

    lam_max = float(np.max(lam))
    norm_sum = norm_h + norm_bk
    if norm_sum > 0.0:
        contraction_rho = -lam_max * math.log(norm_sum)
    else:
        contraction_rho = math.inf
    rho = min(-mu_wp / 2.0, contraction_rho) - delta

    slacks = {
        "input_domination": tau - 1.0 - btlb_top,
        "amplification_margin": mu_wp - amplification,
        "drift_margin": -mu_wp / 2.0 - rho,
        "boundary_contraction": 1.0 - math.exp(rho / lam_max) * norm_sum,
    }
    return WellPosednessConstants(tau=tau, mu_wp=mu_wp, rho=rho, slacks=slacks)
