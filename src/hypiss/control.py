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

Both problems are posed without the paper's coupling matrix (G, Gamma),
whose disturbance and decay blocks merge into one (`build_synthesis_lmis`);
a certificate carries a closed-form G that no check reads (`_certificate`).

One verdict needs no solver: posed with eps > 0, the synthesis
inequalities are infeasible once alpha >= mu min(lambda), the known ceiling
on the decay rate of the exp(-mu z)-weighted L2 functional (Bastin & Coron,
*Stability and Boundary Stabilization of 1-D Hyperbolic Systems*, 2016).
`_decay_bound` proves it from the merged block alone, and `synthesize` and
`grid_search` report such designs infeasible, with that reason, without
building or solving their inequalities.  Every other verdict is the
solver's.

Convention for exponential weights: the certified Lyapunov density decays
like exp(-mu z) across the domain, and alpha is the certified decay rate of
the functional along solutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lmi, sdp
from .linalg import (
    ConvergenceError,
    DiagMatrix,
    Matrix,
    SymMatrix,
    invert_diag,
    sym_eig,
)


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
    lyap_inv, coupling the paper's disturbance-coupling bound G, rebuilt in
    closed form from the point (`_certificate`) and read by no check, peak
    an upper bound on the largest eigenvalue of lyap_inv that the design
    minimized, eps the strictness slack the inequalities were posed with, and
    solution the solver's outcome the certificate was read from.  A
    certificate read back from a file has margins {} and solution None.
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
    solution: sdp.Solution | None


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
    relative.  solution is the solver's outcome at the cell, None for a
    cell that never reached the solver.  reason says why a "failed" cell
    failed, and why an "infeasible" cell past the decay bound
    (`_decay_bound`) is infeasible; it is None for the solver's verdicts.
    """

    mu: float
    alpha: float
    status: str  # "feasible" | "infeasible" | "failed"
    peak: float | None
    gamma: float | None
    reason: str | None = None
    solution: sdp.Solution | None = None


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


def _clamp(u: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    # the same bytes as np.clip(u, low, high) at half its cost per call
    return np.minimum(np.maximum(u, low), high)


def saturate(u, u_max) -> np.ndarray:
    """Componentwise clamp of u to [-u_max, u_max]."""
    u = np.asarray(u, dtype=float)
    lim = np.asarray(u_max, dtype=float)
    return _clamp(u, -lim, lim)


@dataclass(frozen=True)
class BoundaryLaw:
    """The saturated boundary law of one plant and gain, formed once so that
    a simulation applies it at every step without re-forming it:
    closed_loop = H + B K, input_map B, gain K, the saturation levels u_max
    and their negation neg_u_max, each a read-only array.
    `closed_loop_boundary` applies it."""

    closed_loop: np.ndarray
    input_map: np.ndarray
    gain: np.ndarray
    u_max: np.ndarray
    neg_u_max: np.ndarray

    @staticmethod
    def of(plant: Plant, gain: Matrix) -> "BoundaryLaw":
        b, k = plant.input_map.array, gain.array
        return BoundaryLaw(_frozen(plant.reflection.array + b @ k), b, k, plant.u_max,
                           _frozen(-plant.u_max))


def closed_loop_boundary(law: BoundaryLaw, outflow: np.ndarray) -> np.ndarray:
    """Inflow trace produced by reflecting the float outflow x and adding
    the saturated control: (H + B K) x + B (sat(K x) - K x), with H + B K
    and -u_max the law's, formed once, and the clamp of `saturate`."""
    u = law.gain @ outflow
    return law.closed_loop @ outflow + law.input_map @ (_clamp(u, law.neg_u_max, law.u_max) - u)


# variable names used in the synthesis problem
_VQ, _VS, _VW, _VC = "lyap_inv", "sector_inv", "gain_scaled", "peak"
# and in the analysis problem
_VP, _VT, _VX = "lyap", "sector", "supply_sq"


def build_synthesis_lmis(plant: Plant, mu: float, alpha: float,
                         eps: float = lmi.DEFAULT_EPS) -> lmi.LmiProblem:
    """Convexified gain-design inequalities for the given weights.

    Decision variables: diagonal lyap_inv (inverse Lyapunov weight),
    diagonal sector_inv (inverse sector multiplier), full gain_scaled
    (gain times lyap_inv), and the scalar peak bounding lyap_inv's largest
    eigenvalue, which is also the objective.

    The paper's coupling G enters only the disturbance block [[G, N],
    [N^T, I]] >= eps I, the decay block Q diag(alpha - mu lambda) + G <=
    -eps I and G >= eps I, and is eliminated (Boyd, El Ghaoui, Feron &
    Balakrishnan, *Linear Matrix Inequalities in System and Control
    Theory*, 1994, sections 2.1 and 2.6.2): some G meets all three exactly
    when disturbance_decay_block [[Q diag(mu lambda - alpha) - eps I, N],
    [N^T, I]] >= eps I does.  Given G, that block is the disturbance block
    plus diag(-decay - eps I, 0) >= 0; given the block, G = Q diag(mu lambda
    - alpha) - eps I meets all three.
    """
    if mu <= 0.0 or alpha <= 0.0:
        raise ValueError("mu and alpha must be positive")
    n, m = plant.n, plant.m
    lam = plant.speeds.diagonal
    big_lam = np.diag(lam)
    big_lam_inv = np.diag(1.0 / lam)
    h = plant.reflection.array
    b = plant.input_map.array

    vq = lmi.VarSpec.diagonal(_VQ, n)
    vs = lmi.VarSpec.diagonal(_VS, m)
    vw = lmi.VarSpec.full(_VW, m, n)
    vc = lmi.VarSpec.scalar(_VC)

    boundary = lmi.affine((vq, vs, vw), lambda q, s, w: lmi.sym_block([
        [-(q @ big_lam_inv), h @ q + b @ w, b @ s],
        [None, -math.exp(-mu) * (big_lam @ q), -w.swapaxes(-1, -2)],
        [None, None, -2.0 * s]]))
    cap = lmi.affine((vq, vc), lambda q, c: q - c * np.eye(n))

    constraints = (
        lmi.Constraint(boundary, lmi.LEQ, "boundary_block"),
        _disturbance_decay(plant, mu, alpha, eps),
        lmi.Constraint(cap, lmi.LEQ, "peak_cap", eps=0.0),
        lmi.Constraint(lmi.affine((vq,), lambda q: q), lmi.GEQ, "q_pos"),
        lmi.Constraint(lmi.affine((vs,), lambda s: s), lmi.GEQ, "s_pos"),
    )
    return lmi.LmiProblem((vq, vs, vw, vc), constraints,
                          objective=(((_VC, 0), 1.0),), eps=eps)


def _disturbance_decay(plant: Plant, mu: float, alpha: float, eps: float) -> lmi.Constraint:
    """disturbance_decay_block of the synthesis inequalities,
    [[Q diag(mu lambda - alpha) - eps I, N], [N^T, I]] >= eps I: the one
    block that depends on alpha, and the only place it is posed, for
    build_synthesis_lmis and for the cells of grid_search that restate
    their row's form."""
    n = plant.n
    # mu lambda - alpha, the negation of _decay_bound's alpha - mu lambda
    rate = np.diag(-(alpha - mu * plant.speeds.diagonal))
    merged = lmi.affine(
        (lmi.VarSpec.diagonal(_VQ, n),),
        lambda q: lmi.sym_block([[q @ rate, None], [None, np.zeros((plant.q, plant.q))]]),
        const=lmi.sym_block([[np.diag(np.full(n, -eps)), plant.disturbance_map.array],
                             [None, np.eye(plant.q)]]))
    return lmi.Constraint(merged, lmi.GEQ, "disturbance_decay_block")


def _decay_bound(plant: Plant, mu: float, alpha: float, eps: float) -> str | None:
    """Why the synthesis inequalities posed with slack eps > 0 cannot hold
    at (mu, alpha), or None when the solver must decide.

    Diagonal entry i of disturbance_decay_block >= eps I is
    q_i (mu lambda_i - alpha) - eps, and it must be at least eps.  q_pos
    gives q_i >= eps > 0, so once alpha - mu lambda_i >= 0 that entry is at
    most -eps < eps, and no point satisfies both.

    alpha - mu lambda is computed as _disturbance_decay negates it.  With
    eps = 0 the argument fails (q_i = 0 is allowed), and a weight mu <= 0 is
    left to build_synthesis_lmis to refuse.
    """
    if not (eps > 0.0 and mu > 0.0):
        return None
    lam = plant.speeds.diagonal
    rates = alpha - mu * lam
    i = int(np.argmax(rates))
    if not rates[i] >= 0.0:
        return None
    return (f"alpha={alpha} >= mu*lambda_{i + 1}={float(mu * lam[i])}, so q_pos keeps "
            f"entry {i + 1} of disturbance_decay_block at -eps or below")


def iss_coefficients(lyap: DiagMatrix, mu: float, alpha: float) -> IssCoefficients:
    """Decay rate, overshoot, and disturbance gain implied by a Lyapunov
    weight P, domain weight mu and decay rate alpha, at unit supply gain."""
    if mu <= 0.0 or alpha <= 0.0:
        raise ValueError("mu and alpha must be positive")
    p = lyap.diagonal
    if np.any(p <= 0.0):
        raise ValueError("the Lyapunov weight must be positive")
    pmin, pmax = float(np.min(p)), float(np.max(p))
    omega = alpha / 2.0
    kappa = math.sqrt(pmax / pmin) * math.exp(mu / 2.0)
    gamma = math.exp(mu / 2.0) / math.sqrt(pmin)
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
        _VW: cert.gain_scaled.array, _VC: [cert.peak]}))


def _verdict(sf: lmi.StandardForm, solution: sdp.Solution, mu: float, alpha: float,
             rechecked: list[float] | ConvergenceError | None) -> dict[str, float]:
    """The margins, by label, of one solved design at (mu, alpha) that
    they certify, given the re-checked margins of its point (None unless it
    is OPTIMAL) or the error that stopped the re-check.

    Raises InfeasibleError or SolverFailureError unless the solver reached
    an optimum whose x passes the re-check: every inequality's margin at
    least -1e-9, and then the peak guard, max lyap_inv at most peak +
    1e-9 max(1, |peak|).  The guard is a second line of defence: peak_cap
    is posed with eps = 0, so its margin is peak - max lyap_inv, and an
    honest re-check has already refused every point the guard would refuse.
    """
    if solution.status is sdp.Status.INFEASIBLE:
        raise InfeasibleError(
            f"synthesis inequalities are infeasible at mu={mu}, alpha={alpha}",
            solution, sf)
    if solution.status is not sdp.Status.OPTIMAL:
        raise SolverFailureError(
            f"solver reported {solution.status.value} at mu={mu}, alpha={alpha}",
            solution, sf)

    if isinstance(rechecked, ConvergenceError):
        raise SolverFailureError(
            f"margins could not be re-checked at mu={mu}, alpha={alpha}: "
            f"{_failure(rechecked)}", solution, sf) from rechecked
    # margins first: a point they reject may not have lyap_inv > 0
    margins = {blk.label: v for blk, v in zip(sf.blocks, rechecked)}
    worst = min(margins.values())
    if worst < -1e-9:
        raise SolverFailureError(
            f"re-checked margins dip to {worst:.3e}; refusing to certify",
            solution, sf)
    values = sf.unpack(solution.x)
    peak = float(values[_VC][0, 0])
    qmax = float(np.max(np.diagonal(values[_VQ])))
    if qmax > peak + 1e-9 * max(1.0, abs(peak)):
        raise SolverFailureError(
            f"largest lyap_inv eigenvalue {qmax:.6g} exceeds peak bound {peak:.6g}",
            solution, sf)
    return margins


def _certificate(plant: Plant, sf: lmi.StandardForm, solution: sdp.Solution,
                 mu: float, alpha: float, eps: float,
                 margins: dict[str, float]) -> SynthesisCertificate:
    """The certificate of one design of the plant at (mu, alpha), posed
    with slack eps, whose margins `_verdict` passed.

    The paper's coupling is rebuilt as G = diag(q (mu lambda - alpha)) -
    (eps + m/2) I, m the re-checked margin of disturbance_decay_block (so
    that block is >= (eps + m) I).  The decay block is then -(eps + m/2) I,
    margin m/2; the disturbance block is the merged block minus
    diag((m/2) I, 0), and G the merged block's top-left block (>= (eps + m) I
    by interlacing) minus (m/2) I, so each keeps a margin of at least m/2,
    up to the rounding of forming G.
    """
    values = sf.unpack(solution.x)
    q, s = (DiagMatrix(np.diagonal(values[v])) for v in (_VQ, _VS))
    w = Matrix(values[_VW])
    rate = -(alpha - mu * plant.speeds.diagonal)
    slack = eps + margins["disturbance_decay_block"] / 2.0
    g = SymMatrix(np.diag(q.diagonal * rate - slack))

    # gamma = sqrt(max lyap_inv) e^{mu/2}, taken from iss_coefficients so that
    # verify, which recomputes it there, finds exactly the stored value
    lyap = invert_diag(q)
    coeffs = iss_coefficients(lyap, mu, alpha)
    return SynthesisCertificate(
        lyap_inv=q, sector_inv=s, gain_scaled=w, coupling=g,
        mu=mu, alpha=alpha, peak=float(values[_VC][0, 0]),
        gain=Matrix(w.array @ lyap.array),
        gamma=coeffs.gamma, omega=coeffs.omega, kappa=coeffs.kappa,
        margins=margins, eps=eps, solution=solution)


def _certify(designs) -> list:
    """The verdict of each solved design (sf, solution, mu, alpha): its
    margins, by label, or the SynthesisError that refuses it (see
    `_verdict`).  Once per call, the margins of every OPTIMAL design are
    recomputed at its x in one stacked call, `lmi.margins_batch`, each the
    same bits as `lmi.problem_margins` of its own design; with no OPTIMAL
    design there is no call.  A re-check that raises ConvergenceError fails
    every OPTIMAL design of the batch with a SolverFailureError that
    carries its message.  Once per design, its verdict is read from them.
    No certificate is built here: `synthesize` builds its design's, and
    `grid_search` its best cell's (`_certificate`).  This is the one place
    the solver's answer is checked.
    """
    designs = list(designs)
    optimal = [sol.status is sdp.Status.OPTIMAL for _, sol, _, _ in designs]
    points = [(sf, sol.x) for (sf, sol, _, _), ok in zip(designs, optimal) if ok]
    try:
        rechecked = iter(lmi.margins_batch(points) if points else ())
    except ConvergenceError as e:
        rechecked = itertools.repeat(e)
    out = []
    for (sf, solution, mu, alpha), ok in zip(designs, optimal):
        try:
            out.append(_verdict(sf, solution, mu, alpha, next(rechecked) if ok else None))
        except SynthesisError as e:
            out.append(e)
    return out


def synthesize(plant: Plant, mu: float, alpha: float,
               eps: float = lmi.DEFAULT_EPS) -> SynthesisCertificate:
    """Design a saturated boundary gain minimizing the certified peak of the
    inverse Lyapunov weight; raises InfeasibleError when the inequalities
    admit no solution at these weights.  A design that `_decay_bound`
    proves infeasible raises InfeasibleError with that reason, with no
    solution and no form, before anything is built; any other is solved
    and checked as a grid of one (`_certify`)."""
    reason = _decay_bound(plant, mu, alpha, eps)
    if reason is not None:
        raise InfeasibleError(reason)
    sf = lmi.vectorize(build_synthesis_lmis(plant, mu, alpha, eps=eps))
    solution = sdp.minimize(sf)
    [verdict] = _certify([(sf, solution, mu, alpha)])
    if isinstance(verdict, SynthesisError):
        raise verdict
    return _certificate(plant, sf, solution, mu, alpha, eps, verdict)


def grid_search(plant: Plant, mu_grid, alpha_grid,
                eps: float = lmi.DEFAULT_EPS) -> FeasibilityMap:
    """Run the design over a grid of (mu, alpha) weights.

    A cell past the decay bound is recorded as "infeasible" with the
    reason of `_decay_bound` and solution None; it is never built,
    vectorized, solved or re-checked.  The other cells pay each only for
    what differs between them:

    - once per mu row, at its first such cell: the synthesis inequalities
      are built and vectorized (`build_synthesis_lmis`, `lmi.vectorize`);
    - once per other such cell of the row: disturbance_decay_block, the
      one block that depends on alpha, is posed again (`_disturbance_decay`,
      `lmi.restate`), so the cell's standard form is the same bits as its
      own vectorize and shares the row's other four blocks;
    - once per grid: one lockstep batch of sdp.minimize_batch over all of
      them (no call when there is none), one stacked margin re-check of the
      OPTIMAL ones and each cell's verdict from it (`_certify`, the check of
      synthesize), and one certificate, the best cell's (`_certificate`).

    So a "feasible" cell is one whose design passed the re-check.  Cells
    never abort the sweep: a cell whose inequalities cannot be built,
    vectorized or restated, or whose design fails (its point included), is
    recorded as "failed", with the exception type and message as reason,
    and when it was its row's first, the row's next cell is built in full;
    if the batch itself raises, every cell in it fails with that reason,
    and if the margin re-check raises, every OPTIMAL cell does.  The best
    cell minimizes the disturbance gain gamma = sqrt(c) e^{mu/2}, with ties
    broken by smaller mu then smaller alpha.
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
    forms, reasons, implied = {}, {}, {}
    for mu in mus:
        row = None  # the form vectorized at the row's first cell that built
        for alpha in alphas:
            w = (mu, alpha)
            bound = _decay_bound(plant, mu, alpha, eps)
            if bound is not None:
                implied[w] = bound
                continue
            try:
                if row is None:
                    forms[w] = row = lmi.vectorize(build_synthesis_lmis(plant, mu, alpha,
                                                                        eps=eps))
                else:
                    forms[w] = lmi.restate(row, _disturbance_decay(plant, mu, alpha, eps), eps)
            except Exception as e:
                reasons[w] = _failure(e)
    solutions = {}
    if forms:
        try:
            solutions = dict(zip(forms, sdp.minimize_batch(forms.values())))
        except Exception as e:
            reasons.update(dict.fromkeys(forms, _failure(e)))
    verdicts = dict(zip(solutions, _certify(
        (forms[w], sol, *w) for w, sol in solutions.items())))

    cells = []
    for w in weights:
        solution, verdict = solutions.get(w), verdicts.get(w)
        if w in implied:
            cells.append(GridCell(*w, "infeasible", None, None, implied[w]))
        elif solution is None:
            cells.append(GridCell(*w, "failed", None, None, reasons[w]))
        elif isinstance(verdict, InfeasibleError):
            cells.append(GridCell(*w, "infeasible", None, None, solution=solution))
        elif isinstance(verdict, SolverFailureError):
            cells.append(GridCell(*w, "failed", None, None, _failure(verdict), solution))
        else:
            peak = float(solution.objective)
            gamma = math.sqrt(peak) * math.exp(w[0] / 2.0)
            cells.append(GridCell(*w, "feasible", peak, gamma, solution=solution))

    feasible = [(c.gamma, c.mu, c.alpha) for c in cells if c.status == "feasible"]
    best = None
    if feasible:
        w = min(feasible)[1:]
        best = _certificate(plant, forms[w], solutions[w], *w, eps, verdicts[w])
    return FeasibilityMap(mu_grid=mus, alpha_grid=alphas, cells=tuple(cells), best=best)


def build_analysis_lmis(plant: Plant, gain: Matrix, mu: float, alpha: float,
                        eps: float = lmi.DEFAULT_EPS) -> lmi.LmiProblem:
    """Dissipation inequalities certifying a fixed gain, in a diagonal
    Lyapunov weight P, diagonal sector multiplier T and squared supply
    gain chi^2.

    The paper's coupling Gamma is eliminated as build_synthesis_lmis
    eliminates G, leaving disturbance_decay_block
    [[P diag(mu lambda - alpha) - eps I, P N], [N^T P, chi^2 I]] >= eps I.

    At P = lyap_inv^-1 and T = sector_inv^-1 the boundary block is the
    congruence diag(P, T) of the Schur complement of the synthesis
    boundary block at its -lyap_inv Lambda^-1 entry, and the merged block
    at eps 0 and chi^2 = 1 is at least the congruence diag(P, I) of the
    synthesis one, so a synthesis certificate is a point of this problem.
    """
    if mu <= 0.0 or alpha <= 0.0:
        raise ValueError("mu and alpha must be positive")
    n, m = plant.n, plant.m
    lam = plant.speeds.diagonal
    big_lam = np.diag(lam)
    law = BoundaryLaw.of(plant, gain)
    h_cl, b, k = law.closed_loop, law.input_map, law.gain
    nd = plant.disturbance_map.array

    vp = lmi.VarSpec.diagonal(_VP, n)
    vt = lmi.VarSpec.diagonal(_VT, m)
    vx = lmi.VarSpec.scalar(_VX)

    lam_b = big_lam @ b
    boundary = lmi.affine((vp, vt), lambda p, t: lmi.sym_block([
        [h_cl.T @ (p @ (big_lam @ h_cl)) - math.exp(-mu) * (p @ big_lam),
         h_cl.T @ (p @ lam_b) - k.T @ t],
        [None, b.T @ (p @ lam_b) - 2.0 * t]]))
    rate = np.diag(-(alpha - mu * lam))
    merged = lmi.affine(
        (vp, vx),
        lambda p, x: lmi.sym_block([[p @ rate, p @ nd], [None, x * np.eye(plant.q)]]),
        const=lmi.sym_block([[np.diag(np.full(n, -eps)), None],
                             [None, np.zeros((plant.q, plant.q))]]))

    constraints = (
        lmi.Constraint(boundary, lmi.LEQ, "boundary_block"),
        lmi.Constraint(merged, lmi.GEQ, "disturbance_decay_block"),
        lmi.Constraint(lmi.affine((vp,), lambda p: p), lmi.GEQ, "p_pos"),
        lmi.Constraint(lmi.affine((vt,), lambda t: t), lmi.GEQ, "t_pos"),
        lmi.Constraint(lmi.affine((vx,), lambda x: x), lmi.GEQ, "supply_pos"),
    )
    return lmi.LmiProblem((vp, vt, vx), constraints, eps=eps)


def verify_analysis(plant: Plant, cert: SynthesisCertificate) -> dict[str, float]:
    """The margin of each analysis inequality, by label, for the
    certificate's gain at its own point: P = lyap_inv^-1, T = sector_inv^-1
    and chi^2 = 1, posed at its mu and alpha with eps 0.  No solver is
    called; the margins may be negative, and callers decide what tolerance
    to accept.
    """
    if np.any(cert.lyap_inv.diagonal <= 0.0) or np.any(cert.sector_inv.diagonal <= 0.0):
        raise ValueError("lyap_inv and sector_inv must be positive")
    sf = lmi.vectorize(build_analysis_lmis(plant, cert.gain, cert.mu, cert.alpha, eps=0.0))
    return _margins(sf, sf.pack({
        _VP: invert_diag(cert.lyap_inv).diagonal,
        _VT: invert_diag(cert.sector_inv).diagonal, _VX: np.ones(1)}))


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
    law = BoundaryLaw.of(plant, gain)
    h_cl, b, k = law.closed_loop, law.input_map, law.gain

    # one stacked eigensolve for the top eigenvalue of B^T Lambda B and the
    # spectral norms of H_cl^T Lambda B, H_cl and B K; a second one for the
    # norm of `inner`, which depends on tau and on the cross norm
    btlb_top, *gram_tops = (float(w[-1]) for w in sym_eig([
        SymMatrix.symmetrized(b.T @ big_lam @ b),
        _gram(h_cl.T @ big_lam @ b), _gram(h_cl), _gram(b @ k)]))
    cross, norm_h, norm_bk = (_norm(top) for top in gram_tops)
    tau = 1.0 + btlb_top + delta

    inner = (h_cl.T @ big_lam @ h_cl @ big_lam_inv
             + tau * (k.T @ k) @ big_lam_inv
             + cross ** 2 * big_lam_inv)
    amplification = math.log(max(_norm(float(sym_eig([_gram(inner)])[0][-1])), 1e-300))
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
