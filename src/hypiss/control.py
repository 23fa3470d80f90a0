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

The solver decides on the projection of the synthesis problem onto
(lyap_inv, peak) alone (`build_projected_lmis`): it is feasible exactly
when the full one is, with the same optimal peak.  The gain then comes in
closed form from a stated rule at the certified lyap_inv (`gain_rule`),
and the full synthesis inequalities (`build_synthesis_lmis`) are only
re-checked, at the one point that gain completes, never solved.  Below the
decay bound, whether a weight mu admits a design does not depend on alpha:
one small problem per mu decides it (`build_row_lmis`, `_rows`), and its
solution gives each design of the row a strictly feasible start in closed
form (`_start`).

One pipeline makes every design (`_sweep`): `grid_search` runs it over a
grid of weights, and `synthesize` over the single weight it is given,
returning that weight's certificate or raising the exception that
refused it.

Both problems are posed without the paper's coupling matrix (G, Gamma),
whose disturbance and decay blocks merge into one (`build_synthesis_lmis`);
a certificate carries a closed-form G that no check reads (`_certificate`).

One verdict needs no solver: the synthesis inequalities have no strictly
feasible point once alpha >= mu min(lambda), the known ceiling on the decay
rate of the exp(-mu z)-weighted L2 functional (Bastin & Coron, *Stability
and Boundary Stabilization of 1-D Hyperbolic Systems*, 2016).
`_decay_bound` proves it from the merged block alone, and such designs
are reported infeasible, with that reason, without building or solving
their inequalities; every other "infeasible" is a row's.  Convention for
exponential weights: the certified Lyapunov density decays like
exp(-mu z) across the domain, and alpha is the certified decay rate of
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
    """Base class for design failures; carries the row solve of its mu and
    the solver's best effort, each when there was one."""

    def __init__(self, message: str, solution: sdp.Solution | None = None,
                 row: RowSolve | None = None):
        super().__init__(message)
        self.solution = solution
        self.row = row


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
    solution the solver's outcome on the projected problem, whose lyap_inv
    and peak the certificate carries, and row the row solve of its mu that
    gave that problem its start; sector_inv and gain_scaled come from
    `gain_rule`.  A certificate read back from a file has margins {},
    solution None and row None.
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
    row: RowSolve | None


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

    peak is the solver's optimum c of the projected problem
    (`build_projected_lmis`), the bound on the largest entry of lyap_inv,
    and gamma = sqrt(c) e^{mu/2} the disturbance gain it implies.  A
    "feasible" cell is one whose `gain_rule` point (Q, sigma I, W*, c)
    passed the re-check in the full synthesis form, so `synthesize`
    certifies its weight.  A certificate states gamma from the weight
    itself, sqrt(max lyap_inv) e^{mu/2}.  Its check lets max lyap_inv
    exceed c by at most 1e-9 max(1, c), so for c >= 1/2 that gamma is at
    most this one times 1 + 1e-9; on the demo grid the two agree to about
    1e-10 relative.  solution is the solver's outcome on the cell's
    projected problem, None for a cell that never reached the solver.
    reason says why a "failed" cell failed, and why an "infeasible" cell
    is infeasible: past the decay bound (`_decay_bound`) or in a row that
    admits no design (`RowSolve`); it is None for a feasible cell.
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
    of smallest gamma, ties broken by smaller mu then smaller alpha, built
    at the point its cell was re-checked at; its own gamma, from max
    lyap_inv, can differ from the cell's sqrt(c) e^{mu/2} in the last
    digits (see GridCell).  rows holds the row solve of each mu with a
    cell below the decay bound, in grid order."""

    mu_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]
    cells: tuple[GridCell, ...]
    best: SynthesisCertificate | None
    rows: tuple[RowSolve, ...]


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


# variable names used in the synthesis problem, and in the row problem
_VQ, _VS, _VW, _VC = "lyap_inv", "sector_inv", "gain_scaled", "peak"
_VR, _VM = "lyap_share", "row_margin"
# and in the analysis problem
_VP, _VT, _VX = "lyap", "sector", "supply_sq"


def _boundary(plant: Plant, mu: float):
    """boundary_block of the synthesis inequalities as a formula over
    lyap_inv Q, sector_inv S and gain_scaled W, matrices or stacks of them:
    [[-Q Lambda^-1, H Q + B W, B S], [., -e^{-mu} Lambda Q, -W^T],
    [., ., -2 S]], posed <= -eps I."""
    lam = plant.speeds.diagonal
    big_lam, big_lam_inv = np.diag(lam), np.diag(1.0 / lam)
    h, b = plant.reflection.array, plant.input_map.array
    return lambda q, s, w: lmi.sym_block([
        [-(q @ big_lam_inv), h @ q + b @ w, b @ s],
        [None, -math.exp(-mu) * (big_lam @ q), -w.swapaxes(-1, -2)],
        [None, None, -2.0 * s]])


def _open_loop(plant: Plant, mu: float):
    """The open-loop block OL(Q) = [[-Q Lambda^-1, H Q], [Q H^T,
    -e^{-mu} Lambda Q]] as a formula over a diagonal Q, a matrix or a
    stack of them."""
    lam = plant.speeds.diagonal
    big_lam, big_lam_inv = np.diag(lam), np.diag(1.0 / lam)
    h = plant.reflection.array
    return lambda q: lmi.sym_block([[-(q @ big_lam_inv), h @ q],
                                    [None, -math.exp(-mu) * (big_lam @ q)]])


def _common(plant: Plant, mu: float, alpha: float, eps: float) -> tuple[lmi.Constraint, ...]:
    """The blocks the full and the projected synthesis problems share:
    disturbance_decay_block, peak_cap (posed with eps 0) and q_pos."""
    n = plant.n
    vq, vc = lmi.VarSpec.diagonal(_VQ, n), lmi.VarSpec.scalar(_VC)
    return (_disturbance_decay(plant, mu, alpha, eps),
            lmi.Constraint(lmi.affine((vq, vc), lambda q, c: q - c * np.eye(n)), lmi.LEQ,
                           "peak_cap", eps=0.0),
            lmi.Constraint(lmi.affine((vq,), lambda q: q), lmi.GEQ, "q_pos"))


def build_synthesis_lmis(plant: Plant, mu: float, alpha: float,
                         eps: float = lmi.DEFAULT_EPS) -> lmi.LmiProblem:
    """Convexified gain-design inequalities for the given weights.

    Decision variables: diagonal lyap_inv (inverse Lyapunov weight),
    diagonal sector_inv (inverse sector multiplier), full gain_scaled
    (gain times lyap_inv), and the scalar peak bounding lyap_inv's largest
    eigenvalue, which is also the objective.  No solver is given this
    problem: `synthesize` and `grid_search` solve its projection
    (`build_projected_lmis`) and re-check a point of this one.

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
    vq = lmi.VarSpec.diagonal(_VQ, n)
    vs = lmi.VarSpec.diagonal(_VS, m)
    vw = lmi.VarSpec.full(_VW, m, n)
    vc = lmi.VarSpec.scalar(_VC)
    constraints = (
        lmi.Constraint(lmi.affine((vq, vs, vw), _boundary(plant, mu)), lmi.LEQ,
                       "boundary_block"),
        *_common(plant, mu, alpha, eps),
        lmi.Constraint(lmi.affine((vs,), lambda s: s), lmi.GEQ, "s_pos"),
    )
    return lmi.LmiProblem((vq, vs, vw, vc), constraints,
                          objective=(((_VC, 0), 1.0),), eps=eps)


def build_projected_lmis(plant: Plant, mu: float, alpha: float,
                         eps: float = lmi.DEFAULT_EPS) -> lmi.LmiProblem:
    """The synthesis inequalities projected onto lyap_inv Q and peak c:
    the problem the solver decides, in n + 1 entries.

    open_loop_block, OL(Q) + eps diag(B B^T, 0) <= -eps I with the
    open-loop block OL(Q) = [[-Q Lambda^-1, H Q], [Q H^T, -e^{-mu} Lambda
    Q]], replaces boundary_block; disturbance_decay_block, peak_cap and
    q_pos are those of `build_synthesis_lmis`.  The two problems are
    feasible together and have the same optimal c (the projection lemma:
    Gahinet & Apkarian, *Int. J. Robust Nonlinear Control* 4, 1994):

    - W enters boundary_block as U W V^T + (U W V^T)^T, with U = [B; 0;
      -I] and V = [0; I; 0].  N_E = [[I, 0], [0, I], [B^T, 0]] spans the
      kernel of U^T, and N_E^T block N_E = OL(Q), free of S and W.  So a
      point of the full problem has OL(Q) <= -eps N_E^T N_E = -eps I -
      eps diag(B B^T, 0): its (Q, c) is a point of this one.
    - Conversely, take W = 0 and S = eps I.  The block's last row and
      column are then [eps B; 0; -2 eps I], and by the Schur complement
      in its -2 eps I + eps I = -eps I corner (Boyd et al., 1994, section
      2.1) the block is <= -eps I exactly when OL(Q) + eps I + eps
      diag(B B^T, 0) <= 0, which is open_loop_block; s_pos holds with
      margin 0.  So (Q, eps I, 0, c), the completion, is a point of the
      full problem whenever (Q, c) is one of this.
    """
    if mu <= 0.0 or alpha <= 0.0:
        raise ValueError("mu and alpha must be positive")
    n, b = plant.n, plant.input_map.array
    vq = lmi.VarSpec.diagonal(_VQ, n)
    open_loop = lmi.affine((vq,), _open_loop(plant, mu), const=lmi.sym_block(
        [[eps * (b @ b.T), None], [None, np.zeros((n, n))]]))
    constraints = (lmi.Constraint(open_loop, lmi.LEQ, "open_loop_block"),
                   *_common(plant, mu, alpha, eps))
    return lmi.LmiProblem((vq, lmi.VarSpec.scalar(_VC)), constraints,
                          objective=(((_VC, 0), 1.0),), eps=eps)


def build_row_lmis(plant: Plant, mu: float) -> lmi.LmiProblem:
    """The row problem of the weight mu: minimize s subject to OL(q) <= s I
    over the simplex q = diag(r, 1 - sum r), r >= 0 and 1 - sum r >= 0
    (row_block and simplex, posed with eps 0), in n entries: r and s.

    OL is linear and designs scale, so below the decay bound the synthesis
    problem at (mu, alpha), 0 < eps < 1/2, is feasible exactly when some
    diagonal Q > 0 gives OL(Q) < 0, whatever alpha is: then t Q is a point
    for t large enough (`_start`).  So the optimum s* decides the row.  A
    plant with one state has s* = lambda_max(OL(1)) in closed form
    (`_rows`) and no row problem: it raises ValueError.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    n = plant.n
    if n == 1:
        raise ValueError("a plant with one state has no row problem to solve")
    ol, last = _open_loop(plant, mu), np.diag(np.eye(n)[-1])

    def share(r):
        # diag(r, -sum r) of a stack of diagonal r
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return np.concatenate([d, -d.sum(axis=-1, keepdims=True)], axis=-1)[..., None] * np.eye(n)

    vr, vm = lmi.VarSpec.diagonal(_VR, n - 1), lmi.VarSpec.scalar(_VM)
    constraints = (
        lmi.Constraint(lmi.affine((vr, vm), lambda r, s: ol(share(r)) - s * np.eye(2 * n),
                                  const=ol(last)), lmi.LEQ, "row_block"),
        lmi.Constraint(lmi.affine((vr,), share, const=last), lmi.GEQ, "simplex"))
    return lmi.LmiProblem((vr, vm), constraints, objective=(((_VM, 0), 1.0),), eps=0.0)


_RESOLUTION = 1e-7  # a row whose margin s is within this of 0 is not decided
_ROW_START = 1e-3   # a row solve starts with s this far above lambda_max(OL(q))


@dataclass(frozen=True)
class RowSolve:
    """The row problem of one mu (`build_row_lmis`) as `_rows` left it:
    its margin s at the last iterate, bound = s - gap (None without a
    finite gap), a lower bound on the optimum s* once the solve is optimal,
    its Newton steps, and direction, the simplex point q-hat there, with
    OL(q-hat) < s I strictly.  verdict is "feasible" when s < -_RESOLUTION;
    "infeasible" when the solve ended optimal with s - gap > _RESOLUTION,
    so no design of the row exists; "failed" otherwise.  Every design of
    the row below the decay bound takes the verdict, and the reason.
    """

    mu: float
    verdict: str  # "feasible" | "infeasible" | "failed"
    s: float
    bound: float | None
    steps: int
    direction: tuple[float, ...]
    reason: str | None


def _rows(plant: Plant, mus) -> list[RowSolve]:
    """The row solve of each mu, all in one batch of sdp.minimize_batch:
    from the uniform q = (1/n) 1 with s _ROW_START above lambda_max(OL(q)),
    stopping once s < -_RESOLUTION, so a row whose start meets that takes
    no step.  A plant with one state takes lambda_max(OL(1)), unsolved."""
    n = plant.n
    uniform = np.full(n, 1.0 / n)
    tops = [float(np.linalg.eigvalsh(_open_loop(plant, mu)(np.diag(uniform)))[-1]) for mu in mus]
    ends = [(top, 0.0, 0, uniform, sdp.Status.OPTIMAL) for top in tops]
    if n > 1:
        forms = [lmi.vectorize(build_row_lmis(plant, mu)) for mu in mus]
        starts = [sf.pack({_VR: uniform[1:], _VM: [top + _ROW_START]})
                  for sf, top in zip(forms, tops)]
        ends = [(float(sol.x[-1]), sol.gap, sol.newton_steps,
                 np.append(r := np.diagonal(sf.unpack(sol.x)[_VR]), 1.0 - r.sum()), sol.status)
                for sf, sol in zip(forms, sdp.minimize_batch(forms, starts, -_RESOLUTION))]
    out = []
    for mu, (s, gap, steps, q, status) in zip(mus, ends):
        bound = None if gap is None else s - gap
        optimal = status is sdp.Status.OPTIMAL
        if s < -_RESOLUTION:
            verdict, reason = "feasible", None
        elif optimal and bound > _RESOLUTION:
            verdict, reason = "infeasible", (
                f"row bound s - gap = {bound:.3e} > {_RESOLUTION:g} at mu={mu}: no diagonal "
                f"lyap_inv > 0 makes the open-loop block negative definite")
        else:
            verdict, reason = "failed", (
                f"row margin s = {s:.3e} within resolution {_RESOLUTION:g}" if optimal
                else f"row solve ended {status.value} at s = {s:.3e}")
        out.append(RowSolve(mu, verdict, s, bound, steps, tuple(q.tolist()), reason))
    return out


def _start(plant: Plant, row: RowSolve, mu: float, alpha: float, eps: float) -> dict:
    """A strictly feasible point (Q, c) = (t q-hat, max(t q-hat) + 1) of
    the projected synthesis problem at (mu, alpha), below the decay bound,
    from its feasible row's OL(q-hat) < s I, s < 0.  t is twice the largest
    of the bounds t must pass: 2 eps (1 + ||B||^2) / |s| for
    open_loop_block, as t OL(q-hat) + eps diag(B B^T, 0) + eps I < (t s +
    eps ||B||^2 + eps) I; (2 eps + ||N||^2 / (1 - 2 eps) + 1) / min_i
    q-hat_i (mu lambda_i - alpha) for disturbance_decay_block, by the Schur
    complement in its I - eps I corner; and 2 eps / min q-hat for q_pos."""
    q = np.array(row.direction)
    rates = -(alpha - mu * plant.speeds.diagonal)
    b2, n2 = (np.linalg.norm(a.array, 2) ** 2 for a in (plant.input_map, plant.disturbance_map))
    t = 2.0 * max(2.0 * eps * (1.0 + b2) / -row.s,
                  (2.0 * eps + n2 / (1.0 - 2.0 * eps) + 1.0) / np.min(q * rates),
                  2.0 * eps / np.min(q))
    return {_VQ: t * q, _VC: [np.max(t * q) + 1.0]}


# sector scales sigma at which gain_rule evaluates boundary_block
_RULE_SIGMAS = 48


def gain_rule(plant: Plant, lyap_inv: DiagMatrix, mu: float,
              eps: float = lmi.DEFAULT_EPS) -> tuple[float, Matrix]:
    """The sector scale sigma and gain_scaled W that the design takes at a
    certified lyap_inv Q: sector_inv S = sigma I and W = W*(sigma), so the
    gain is K = W Q^-1.

    Lemma.  Fix Q and S, and take boundary_block's rows and columns 1 and
    3 as A = [[-Q Lambda^-1, B S], [S B^T, -2 S]], with R = -(A + eps I),
    which does not depend on W.  Their coupling to rows 2 is C0 + U W, with
    U = [B; -I] and C0 = [H Q; 0].  By the Schur complement the block is
    <= -eps I exactly when R > 0 and -e^{-mu} Lambda Q + eps I + (C0 +
    U W)^T R^-1 (C0 + U W) <= 0.  U has full column rank, and
    W* = -(U^T R^-1 U)^-1 U^T R^-1 C0 minimizes that quadratic in the
    Loewner order: by the normal equations the cross terms vanish, and it
    is its value at W* plus (W - W*)^T U^T R^-1 U (W - W*).  So the block
    holds at W* whenever it holds at any W, for that (Q, S).  At S = eps I
    it holds at W = 0 once open_loop_block does (`build_projected_lmis`),
    so it holds at W*(eps).  (Skelton, Iwasaki & Grigoriadis, *A Unified
    Algebraic Approach to Linear Control Design*, 1998, give every
    solution of this elimination problem; W* is the simplest.)

    With S = sigma I, write P~ = Q Lambda^-1 - eps I (diagonal), M = B^T
    P~^-1 B and Sigma = (2 sigma - eps) I - sigma^2 M, the Schur
    complement of P~ in R.  Block inversion of R gives U^T R^-1 U =
    Sigma^-1 (I - eps M) and U^T R^-1 C0 = (sigma - eps) Sigma^-1 B^T P~^-1
    H Q, so W*(sigma) = -(sigma - eps) (I - eps M)^-1 B^T P~^-1 H Q: one
    m x m solve serves every sigma, and W*(eps) = 0.

    Rule.  R > 0 needs P~ > 0 and Sigma > 0, so sigma < 2 / max_j M_jj.
    The rule evaluates boundary_block's margin at (Q, sigma I, W*(sigma))
    for 48 sigma spaced logarithmically from eps up to that bound (from
    1e-12 of it when eps is smaller), in one stacked eigvalsh, and takes
    half of the largest sigma whose margin is at least 0, floored at the
    lowest sigma.  At the projected optimum the block has no room beyond
    rounding for any (S, W), and half of the largest passing sigma keeps
    the margins at that level.  When P~ is not positive definite or B = 0
    no sigma beyond eps can help, and the rule takes sigma = eps, W = 0.
    """
    q = lyap_inv.diagonal
    n, m = plant.n, plant.m
    lam = plant.speeds.diagonal
    h, b = plant.reflection.array, plant.input_map.array
    p_tilde = q / lam - eps
    if not np.all(p_tilde > 0.0):
        return eps, Matrix(np.zeros((m, n)))
    pb = b / p_tilde[:, None]                     # P~^-1 B
    mm = b.T @ pb
    reach = float(np.max(np.diagonal(mm)))
    if not reach > 0.0:
        return eps, Matrix(np.zeros((m, n)))
    w_unit = -np.linalg.solve(np.eye(m) - eps * mm, (pb.T @ h) * q)
    top = 2.0 / reach
    low = max(eps, 1e-12 * top)
    sigmas = low * (top / low) ** np.linspace(0.0, 1.0, _RULE_SIGMAS)
    s = sigmas[:, None, None]
    blocks = _boundary(plant, mu)(np.diag(q), s * np.eye(m), (s - eps) * w_unit)
    margins = -np.linalg.eigvalsh(blocks)[:, -1] - eps
    passing = np.flatnonzero(margins >= 0.0)
    half = float(sigmas[passing[-1]]) / 2.0 if passing.size else 0.0
    sigma = max(half, float(sigmas[0]))
    return sigma, Matrix((sigma - eps) * w_unit)


def _disturbance_decay(plant: Plant, mu: float, alpha: float, eps: float) -> lmi.Constraint:
    """disturbance_decay_block of the synthesis inequalities,
    [[Q diag(mu lambda - alpha) - eps I, N], [N^T, I]] >= eps I: the one
    block that depends on alpha, and the only place it is posed, for both
    synthesis builders and for the cells of grid_search that restate
    their row's forms."""
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
    """Why the synthesis inequalities posed with slack eps >= 0 have no
    strictly feasible point at (mu, alpha), or None when a row must decide.

    Diagonal entry i of disturbance_decay_block >= eps I is
    q_i (mu lambda_i - alpha) - eps, and it must be at least eps.  With
    eps > 0, q_pos gives q_i >= eps > 0, so once alpha - mu lambda_i >= 0
    that entry is at most -eps < eps, and no point satisfies both.  With
    eps = 0 the point q_i = 0 is allowed, but the strict interior is empty:
    q_i > 0 and q_i (mu lambda_i - alpha) > 0 cannot both hold, so the
    solver would have no start.

    alpha - mu lambda is computed as _disturbance_decay negates it.  A
    weight mu <= 0, or an eps that is not >= 0, is left to the builders to
    refuse.
    """
    if not (eps >= 0.0 and mu > 0.0):
        return None
    lam = plant.speeds.diagonal
    rates = alpha - mu * lam
    i = int(np.argmax(rates))
    if not rates[i] >= 0.0:
        return None
    why = (f"q_pos keeps entry {i + 1} of disturbance_decay_block at -eps or below" if eps > 0.0
           else f"no strictly feasible point: q_{i + 1} > 0 keeps entry {i + 1} of "
           "disturbance_decay_block at 0 or below")
    return f"alpha={alpha} >= mu*lambda_{i + 1}={float(mu * lam[i])}, so {why}"


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


def _verdict(solution: sdp.Solution, mu: float, alpha: float,
             check: tuple[lmi.StandardForm, np.ndarray],
             rechecked: list[float] | ConvergenceError) -> dict[str, float]:
    """The margins, by label, of one design at (mu, alpha) that they
    certify: the solver's OPTIMAL outcome on its projected form, and check,
    the full synthesis form and the point of it to certify, with that
    point's re-checked margins or the error that stopped the re-check.

    Raises SolverFailureError, carrying the solution, unless the point
    passes the re-check: every inequality's margin at least -1e-9, and then
    the peak guard, max lyap_inv at most peak + 1e-9 max(1, |peak|).  The
    guard is a second line of defence: peak_cap is posed with eps = 0, so
    its margin is peak - max lyap_inv, and an honest re-check has already
    refused every point the guard would refuse.
    """
    if isinstance(rechecked, ConvergenceError):
        raise SolverFailureError(
            f"margins could not be re-checked at mu={mu}, alpha={alpha}: "
            f"{_failure(rechecked)}", solution) from rechecked
    full, x = check
    # margins first: a point they reject may not have lyap_inv > 0
    margins = {blk.label: v for blk, v in zip(full.blocks, rechecked)}
    worst = min(margins.values())
    if worst < -1e-9:
        raise SolverFailureError(
            f"re-checked margins dip to {worst:.3e}; refusing to certify", solution)
    values = full.unpack(x)
    peak = float(values[_VC][0, 0])
    qmax = float(np.max(np.diagonal(values[_VQ])))
    if qmax > peak + 1e-9 * max(1.0, abs(peak)):
        raise SolverFailureError(
            f"largest lyap_inv eigenvalue {qmax:.6g} exceeds peak bound {peak:.6g}", solution)
    return margins


def _certificate(plant: Plant, full: lmi.StandardForm, x: np.ndarray,
                 solution: sdp.Solution, row: RowSolve | None, mu: float, alpha: float,
                 eps: float, margins: dict[str, float]) -> SynthesisCertificate:
    """The certificate of one design of the plant at (mu, alpha), posed
    with slack eps: the point x of its full synthesis form, whose margins
    `_verdict` passed, and the projected solve and row solve it came from.

    The paper's coupling is rebuilt as G = diag(q (mu lambda - alpha)) -
    (eps + m/2) I, m the re-checked margin of disturbance_decay_block (so
    that block is >= (eps + m) I).  The decay block is then -(eps + m/2) I,
    margin m/2; the disturbance block is the merged block minus
    diag((m/2) I, 0), and G the merged block's top-left block (>= (eps + m) I
    by interlacing) minus (m/2) I, so each keeps a margin of at least m/2,
    up to the rounding of forming G.
    """
    values = full.unpack(x)
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
        margins=margins, eps=eps, solution=solution, row=row)


def _certify(designs) -> list:
    """The verdict of each design (solution, mu, alpha, check), an OPTIMAL
    solve with check, the full synthesis form and the point `gain_rule`
    completes from the solve (`_rule_point`): the point's margins, by
    label, or the SynthesisError that refuses the design (see `_verdict`).
    The margins of every design's point are recomputed in one stacked
    call, `lmi.margins_batch`, each the same bits as `lmi.problem_margins`
    of its own point; with no design there is no call.  A re-check that
    raises ConvergenceError fails every design of the call with a
    SolverFailureError that carries its message.  No certificate is built
    here (`_certificate`).  This is the one place a solved point is
    checked.
    """
    designs = list(designs)
    try:
        rechecked = iter(lmi.margins_batch([check for *_, check in designs]) if designs else ())
    except ConvergenceError as e:
        rechecked = itertools.repeat(e)
    out = []
    for design, margins in zip(designs, rechecked):
        try:
            out.append(_verdict(*design, margins))
        except SynthesisError as e:
            out.append(e)
    return out


def _rule_point(plant: Plant, full: lmi.StandardForm, sf: lmi.StandardForm,
                solution: sdp.Solution, mu: float, eps: float) -> np.ndarray:
    """The full synthesis form's point at the projected optimum (Q, c) with
    `gain_rule`'s gain: (Q, sigma I, W*(sigma), c)."""
    values = sf.unpack(solution.x)
    q = np.diagonal(values[_VQ])
    sigma, w = gain_rule(plant, DiagMatrix(q), mu, eps)
    return full.pack({_VQ: q, _VS: np.full(plant.m, sigma), _VW: w.array, _VC: values[_VC]})


def _sweep(plant: Plant, mus: tuple[float, ...], alphas: tuple[float, ...],
           eps: float) -> tuple[FeasibilityMap, dict]:
    """The design at each (mu, alpha) weight of the grid mus x alphas, and
    the exception that refused each weight left without a certificate.

    A weight past the decay bound is refused with InfeasibleError and the
    reason of `_decay_bound`, and is never built or solved.  The other
    weights pay each only for what differs between them:

    - once per grid: one batch of row solves (`_rows`); the weights of a
      row that is not feasible are refused with its reason, by
      InfeasibleError or, for a failed row, SolverFailureError;
    - once per feasible row, at its first weight: the projected and the
      full synthesis inequalities are built and vectorized;
    - once per other weight of the row: disturbance_decay_block, the one
      block that depends on alpha, is posed again (`_disturbance_decay`)
      and restated in both of the row's forms (`lmi.restate`), so each
      form is the same bits as the weight's own vectorize;
    - once per grid: one batch of sdp.minimize_batch over the projected
      forms, each from its start (`_start`), and one stacked re-check
      (`_certify`) of the point (Q, sigma I, W*, c) that `gain_rule`
      completes from each OPTIMAL solve, in its full form.

    A solve that is not OPTIMAL refuses its weight with SolverFailureError,
    carrying the row and the solve.  So does a point that fails its
    re-check, as every point of a re-check that raises ConvergenceError
    does.  The best certificate (`_certificate`) is built from the first
    weight whose point passed, in the order of gamma = sqrt(c) e^{mu/2},
    then mu, then alpha, at that point and with its re-checked margins.
    An exception raised in building a weight's forms refuses that weight
    (the row's next weight is then built in full), and one raised by a
    batch refuses every weight in it.

    A refused weight's cell is "infeasible" for an InfeasibleError and
    "failed" otherwise, with the message of a refusal made before any
    solve as its reason, and the exception's type and message
    (`_failure`) for any other.
    """
    weights = [(mu, alpha) for mu in mus for alpha in alphas]
    refusals = {w: InfeasibleError(r) for w in weights
                if (r := _decay_bound(plant, *w, eps)) is not None}
    below = [w for w in weights if w not in refusals]
    rows = {}
    row_mus = sorted({mu for mu, _ in below})
    try:
        rows = dict(zip(row_mus, _rows(plant, row_mus))) if row_mus else {}
    except Exception as e:
        refusals.update(dict.fromkeys(below, e))
    # built: each feasible row's (projected, full) forms, from its first weight that built
    forms, starts, built = {}, {}, {}
    for w in (w for w in below if w[0] in rows):
        (mu, alpha), row = w, rows[w[0]]
        if row.verdict != "feasible":
            error = InfeasibleError if row.verdict == "infeasible" else SolverFailureError
            refusals[w] = error(row.reason, row=row)
            continue
        try:
            if mu not in built:
                pair = built[mu] = (
                    lmi.vectorize(build_projected_lmis(plant, mu, alpha, eps=eps)),
                    lmi.vectorize(build_synthesis_lmis(plant, mu, alpha, eps=eps)))
            else:
                decay = _disturbance_decay(plant, mu, alpha, eps)
                pair = tuple(lmi.restate(sf, decay, eps) for sf in built[mu])
            starts[w] = pair[0].pack(_start(plant, row, mu, alpha, eps))
            forms[w] = pair
        except Exception as e:
            refusals[w] = e
    solutions = {}
    if forms:
        try:
            solutions = dict(zip(forms, sdp.minimize_batch(
                [sf for sf, _ in forms.values()], [starts[w] for w in forms])))
        except Exception as e:
            refusals.update(dict.fromkeys(forms, e))

    def refuse(w, e: SynthesisError):
        e.row = rows[w[0]]
        refusals[w] = e

    designs, gammas = {}, {}
    for w, solution in solutions.items():
        if solution.status is not sdp.Status.OPTIMAL:
            top = float(np.max(np.abs(starts[w])))
            past = (f": the closed-form start's largest entry {top:.3e} is at or above "
                    f"the solver's box {sdp._BOX:g}" if top >= sdp._BOX else "")
            refuse(w, SolverFailureError(f"solver reported {solution.status.value} at "
                                         f"mu={w[0]}, alpha={w[1]}{past}", solution))
            continue
        sf, full = forms[w]
        designs[w] = solution, *w, (full, _rule_point(plant, full, sf, solution, w[0], eps))
        gammas[w] = math.sqrt(float(solution.objective)) * math.exp(w[0] / 2.0)
    verdicts = dict(zip(designs, _certify(designs.values())))
    best = None
    for w in sorted(designs, key=lambda w: (gammas[w], *w)):
        if isinstance(verdicts[w], SynthesisError):
            refuse(w, verdicts[w])
        elif best is None:
            solution, _, _, check = designs[w]
            best = _certificate(plant, *check, solution, rows[w[0]], *w, eps, verdicts[w])

    cells = []
    for w in weights:
        e, solution = refusals.get(w), solutions.get(w)
        if e is None:
            cells.append(GridCell(*w, "feasible", float(solution.objective), gammas[w],
                                  solution=solution))
            continue
        unsolved = isinstance(e, SynthesisError) and e.solution is None
        cells.append(GridCell(*w, "infeasible" if isinstance(e, InfeasibleError) else "failed",
                              None, None, str(e) if unsolved else _failure(e), solution))
    return FeasibilityMap(mu_grid=mus, alpha_grid=alphas, cells=tuple(cells), best=best,
                          rows=tuple(rows.values())), refusals


def synthesize(plant: Plant, mu: float, alpha: float,
               eps: float = lmi.DEFAULT_EPS) -> SynthesisCertificate:
    """Design a saturated boundary gain minimizing the certified peak of the
    inverse Lyapunov weight: the certificate `_sweep` makes at the single
    weight (mu, alpha), the one `grid_search` makes there.

    Otherwise raises the exception that refused the weight: InfeasibleError
    past the decay bound or in an infeasible row; SolverFailureError for a
    failed row, a failed solve or a failed re-check; any other, such as a
    builder's ValueError, unchanged.
    """
    fmap, refusals = _sweep(plant, (float(mu),), (float(alpha),), eps)
    if fmap.best is None:
        [error] = refusals.values()
        raise error
    return fmap.best


def grid_search(plant: Plant, mu_grid, alpha_grid,
                eps: float = lmi.DEFAULT_EPS) -> FeasibilityMap:
    """Run the design over a grid of (mu, alpha) weights (`_sweep`), whose
    best certificate is the one `synthesize` makes at its weight.  Cells
    never abort the sweep: each weight `synthesize` would refuse is a cell
    "infeasible" or "failed" with the refusal as its reason, and each
    "feasible" cell is a weight it certifies, at the same point.
    """
    mus = tuple(float(v) for v in mu_grid)
    alphas = tuple(float(v) for v in alpha_grid)
    if not mus or not alphas:
        raise ValueError("grids must be nonempty")
    if any(v <= 0.0 for v in mus + alphas):
        raise ValueError("grid weights must be positive")
    if list(mus) != sorted(set(mus)) or list(alphas) != sorted(set(alphas)):
        raise ValueError("grids must be strictly increasing")
    return _sweep(plant, mus, alphas, eps)[0]


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
