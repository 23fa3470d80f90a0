"""Interior-point solver for the small LMI systems built by `lmi`.

The method is a plain log-det barrier path-following scheme: a phase-1
search drives a uniform slack below zero to find a strictly feasible point,
then (for minimization) Newton centering follows the central path along a
geometrically growing barrier parameter until the duality-gap surrogate
nu / t drops under tolerance.

The solver uses the structure of the problem.  Every block whose base and
coefficients are all diagonal (positivity of diagonal variables, scalar
bounds, the peak cap) is a set of elementwise linear rows b + G x > 0 with
the barrier -sum log r, and so is the phase-1 box.  The remaining blocks
are dense, with their coefficients stacked flat so that evaluating a block
or assembling its Hessian is one matrix product.  Everything is numpy with
fixed iteration order, so identical inputs produce bit-identical outputs.

Infeasibility is declared heuristically: when phase 1 converges with its
slack optimum above the declaration threshold, no strictly feasible point
exists up to solver accuracy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import lmi

_NEWTON_TOL = 1e-5        # threshold on the squared Newton decrement / 2;
                          # the decrement is affine-invariant, and the gap
                          # surrogate nu/t is valid once it is this small
_ARMIJO = 0.25
_EXIT_SLACK = -1e-9       # phase-1 early exit once the slack is safely negative
_PHASE1_BOX = 1e9         # phase-1 searches |entry| < this; keeps the slack
                          # minimization bounded when the feasible set is not


class Status(enum.Enum):
    FEASIBLE = "feasible"
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolveOptions:
    """Tuning knobs.

    The defaults are sized for the synthesis problems of `control` up to
    state dimension n = 10: dense blocks of dimension up to about 3n and a
    few hundred entries.  Diagonal blocks and the phase-1 box cost one
    elementwise row per diagonal entry, whatever their size.
    """

    max_newton: int = 600                  # total Newton step budget
    t_init: float = 1.0                    # initial barrier parameter
    t_growth: float = 10.0                 # geometric growth factor
    gap_tol: float = 1e-7                  # stop when nu / t < gap_tol
    infeasibility_threshold: float = 1e-7  # declare infeasible when slack* exceeds this

    def __post_init__(self):
        if self.max_newton <= 0 or self.t_init <= 0.0 or self.gap_tol <= 0.0 \
                or self.infeasibility_threshold <= 0.0:
            raise ValueError("solver options must be positive")
        if self.t_growth <= 1.0:
            raise ValueError("barrier growth factor must exceed 1")


@dataclass(frozen=True)
class Solution:
    """Solver outcome.  `margins` re-checks every constraint of the original
    problem at the returned point through lmi.margin, eps folded in, so a
    feasible/optimal claim can be audited independently of solver internals.
    """

    status: Status
    point: lmi.Point
    objective: float | None
    margins: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return self.status in (Status.FEASIBLE, Status.OPTIMAL)


@dataclass(frozen=True)
class _Dense:
    """One PSD block that is not diagonal: S(x) = base + sum_k x[idx[k]] A_k.

    The coefficient matrices are stored flat, one row-major A_k per row of
    `flat`, so a value is one matrix-vector product.
    """

    base: np.ndarray   # (d, d)
    idx: np.ndarray    # (k,) entries of x the block depends on
    flat: np.ndarray   # (k, d*d)
    ix: tuple          # np.ix_(idx, idx): where the block's Hessian lands

    @staticmethod
    def make(base, idx, flat) -> "_Dense":
        return _Dense(base, idx, flat, np.ix_(idx, idx))

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def value(self, x: np.ndarray) -> np.ndarray:
        d = self.dim
        return self.base + (x[self.idx] @ self.flat).reshape(d, d)


@dataclass(frozen=True)
class _Cones:
    """The strict feasible set {x : b + G x > 0, S_j(x) > 0 for every j}.

    Every constraint block whose base and coefficients are all diagonal
    becomes d elementwise rows of (b, G); the remaining blocks stay dense.
    The log barrier is the same either way, since -log det of a diagonal
    matrix is -sum log of its diagonal, and so is its parameter count nu:
    one per row, d per dense block.
    """

    b: np.ndarray                 # (r,)
    g: np.ndarray                 # (r, n)
    dense: tuple[_Dense, ...]

    @property
    def nu(self) -> float:
        return float(self.b.size + sum(blk.dim for blk in self.dense))

    def rows(self, x: np.ndarray) -> np.ndarray:
        return self.b + self.g @ x


def _cones(sf: lmi.StandardForm) -> _Cones:
    """Normalize every block to value(x) > 0, sign and eps folded in."""
    n = sf.n
    b, g, dense = [], [], []
    for blk in sf.blocks:
        sign = -1.0 if blk.sense == lmi.LEQ else 1.0
        base = sign * blk.base - blk.eps * np.eye(blk.dim)
        coeffs = sign * blk.coeffs
        off = ~np.eye(blk.dim, dtype=bool)
        if not (np.any(base[off]) or np.any(coeffs[:, off])):
            rows = np.zeros((blk.dim, n))
            rows[:, blk.idx] = np.diagonal(coeffs, axis1=1, axis2=2).T
            b.append(np.diagonal(base))
            g.append(rows)
        else:
            dense.append(_Dense.make(base, blk.idx.copy(),
                                     coeffs.reshape(len(blk.idx), blk.dim * blk.dim)))
    return _Cones(np.concatenate(b) if b else np.zeros(0),
                  np.vstack(g) if g else np.zeros((0, n)), tuple(dense))


def _barrier(cones: _Cones, x: np.ndarray) -> float | None:
    """-sum log r - sum log det S_j, or None if x is not strictly inside.

    The rows are checked first, so a trial point that leaves them costs no
    factorization.
    """
    r = cones.rows(x)
    if not np.all(r > 0.0) or not np.all(np.isfinite(r)):
        return None
    total = -float(np.sum(np.log(r)))
    for blk in cones.dense:
        s = blk.value(x)
        if not np.all(np.isfinite(s)):
            return None
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None
        d = np.diagonal(chol)
        if np.any(d <= 0.0):
            return None
        total -= 2.0 * float(np.sum(np.log(d)))
    return total


def _derivatives(cones: _Cones, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier at a strictly feasible x.

    Rows give -G^T (1/r) and (G/r)^T (G/r).  A dense block gives
    -tr(S^-1 A_k) and tr(S^-1 A_k S^-1 A_l); with U_k = A_k S^-1 (one
    product over the stacked coefficients) that is tr(U_k) and
    vec(U_k) . vec(U_l^T).  Raises LinAlgError if a dense block is
    singular.
    """
    r = cones.rows(x)
    gr = cones.g / r[:, None]
    grad = -((1.0 / r) @ cones.g)
    hess = gr.T @ gr
    for blk in cones.dense:
        d, k = blk.dim, len(blk.idx)
        sinv = np.linalg.inv(blk.value(x))
        u = (blk.flat.reshape(k * d, d) @ sinv).reshape(k, d, d)
        grad[blk.idx] -= np.trace(u, axis1=1, axis2=2)
        hess[blk.ix] += u.reshape(k, d * d) @ u.transpose(0, 2, 1).reshape(k, d * d).T
    return grad, (hess + hess.T) / 2.0


def _newton_center(cones, tvec, x, budget, stop_when=None):
    """Damped Newton minimization of tvec @ x + barrier(x).

    Returns (x, steps_used, outcome) with outcome one of "centered",
    "stopped" (the early-exit predicate fired), "budget", "stalled".
    The iterate stays strictly feasible throughout.
    """
    n = x.size
    used = 0
    f0 = None  # merit value at x, carried over from the accepted trial
    while used < budget:
        try:
            g, hess = _derivatives(cones, x)
        except np.linalg.LinAlgError:
            return x, used, "stalled"
        g += tvec

        dx = None
        try:
            dx = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            pass
        dec = float(-g @ dx) if dx is not None else -1.0
        if dx is None or not np.isfinite(dec) or dec < 0.0:
            ridge = 1e-12 * max(float(np.trace(hess)) / n, 1.0)
            try:
                dx = np.linalg.solve(hess + ridge * np.eye(n), -g)
            except np.linalg.LinAlgError:
                return x, used, "stalled"
            dec = float(-g @ dx)
            if not np.isfinite(dec) or dec < 0.0:
                return x, used, "stalled"
        if dec / 2.0 <= _NEWTON_TOL:
            return x, used, "centered"

        if f0 is None:
            b0 = _barrier(cones, x)
            if b0 is None:
                return x, used, "stalled"
            f0 = b0 + float(tvec @ x)
        alpha = 1.0
        accepted = False
        while alpha > 1e-18:
            xn = x + alpha * dx
            bn = _barrier(cones, xn)
            if bn is not None:
                fn = bn + float(tvec @ xn)
                if fn <= f0 - _ARMIJO * alpha * dec:
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            return x, used, "stalled"
        x, f0 = xn, fn
        used += 1
        if stop_when is not None and stop_when(x):
            return x, used, "stopped"
    return x, used, "budget"


def _phase1(cones, x0, opts):
    """Minimize a uniform slack added to every block until it goes negative.

    The search runs inside a large box |entry| < _PHASE1_BOX so the slack
    minimization stays bounded even when the feasible set has unbounded
    directions (monotone slack-type variables usually give it some).  The
    box is 2(n+1) more rows, R - x_i > 0 and R + x_i > 0 for every entry
    and the slack; the slack itself is a column of ones on the rows and
    the identity on every dense block.

    Returns (x, slack, steps_used, outcome) with outcome "feasible",
    "infeasible_candidate" (slack converged while positive), or "stalled".
    """
    n = x0.size
    box = np.kron(np.eye(n + 1), [[-1.0], [1.0]])
    aug = _Cones(
        np.concatenate([cones.b, np.full(2 * (n + 1), _PHASE1_BOX)]),
        np.vstack([np.hstack([cones.g, np.ones((cones.b.size, 1))]), box]),
        tuple(_Dense.make(blk.base, np.append(blk.idx, n),
                          np.vstack([blk.flat, np.eye(blk.dim).reshape(1, -1)]))
              for blk in cones.dense))

    floor = max(0.0, -float(np.min(cones.rows(x0), initial=np.inf)))
    for blk in cones.dense:
        s = blk.value(x0)
        floor = max(floor, -float(np.linalg.eigvalsh((s + s.T) / 2.0)[0]))
    xs = np.append(x0, floor + 1.0)

    nu = aug.nu
    tvec_unit = np.zeros(n + 1)
    tvec_unit[n] = 1.0
    t = opts.t_init
    used_total = 0
    while used_total < opts.max_newton:
        xs, used, outcome = _newton_center(
            aug, t * tvec_unit, xs, opts.max_newton - used_total,
            stop_when=lambda v: v[n] < _EXIT_SLACK)
        used_total += used
        if xs[n] < 0.0:
            return xs[:n], float(xs[n]), used_total, "feasible"
        if outcome == "stalled":
            return xs[:n], float(xs[n]), used_total, "stalled"
        if outcome == "centered" and nu / t < opts.gap_tol:
            return xs[:n], float(xs[n]), used_total, "infeasible_candidate"
        if outcome != "budget":
            t *= opts.t_growth
    return xs[:n], float(xs[n]), used_total, "stalled"


def _phase2(cones, cvec, x, opts, budget):
    """Path-follow the objective from a strictly feasible start."""
    nu = cones.nu
    t = opts.t_init
    used_total = 0
    achieved = np.inf  # certified gap surrogate from the last centered stage
    while used_total < budget:
        x, used, outcome = _newton_center(cones, t * cvec, x, budget - used_total)
        used_total += used
        if outcome == "stalled":
            # float exhaustion near the end of the path; accept the point if
            # a previous stage already certified a gap close to the target
            if achieved <= 100.0 * opts.gap_tol:
                return x, used_total, Status.OPTIMAL
            return x, used_total, Status.NUMERICAL_FAILURE
        if outcome == "centered":
            achieved = nu / t
            if nu == 0.0 or achieved < opts.gap_tol:
                return x, used_total, Status.OPTIMAL
            t *= opts.t_growth
    return x, used_total, Status.NUMERICAL_FAILURE


def _finish(problem, sf, x, status, objective=None) -> Solution:
    point = sf.point(x)
    margins = tuple(lmi.problem_margins(problem, point))
    return Solution(status=status, point=point, objective=objective, margins=margins)


def solve_feasibility(problem: lmi.LmiProblem, options: SolveOptions | None = None) -> Solution:
    """Search for a strictly feasible point of a problem with no objective."""
    if problem.objective is not None:
        raise ValueError("solve_feasibility expects a problem without an objective")
    opts = options or SolveOptions()
    sf = lmi.vectorize(problem)
    cones = _cones(sf)
    if not sf.blocks:
        return _finish(problem, sf, sf.initial.copy(), Status.FEASIBLE)
    x, slack, _, outcome = _phase1(cones, sf.initial.copy(), opts)
    if outcome == "feasible":
        return _finish(problem, sf, x, Status.FEASIBLE)
    if outcome == "infeasible_candidate" and slack > opts.infeasibility_threshold:
        return _finish(problem, sf, x, Status.INFEASIBLE)
    return _finish(problem, sf, x, Status.NUMERICAL_FAILURE)


def minimize(problem: lmi.LmiProblem, options: SolveOptions | None = None) -> Solution:
    """Minimize the problem's linear objective over its feasible set."""
    if problem.objective is None:
        raise ValueError("minimize expects a problem with an objective")
    opts = options or SolveOptions()
    sf = lmi.vectorize(problem)
    cones = _cones(sf)
    cvec = sf.objective

    x, slack, used, outcome = _phase1(cones, sf.initial.copy(), opts)
    if outcome != "feasible":
        if outcome == "infeasible_candidate" and slack > opts.infeasibility_threshold:
            return _finish(problem, sf, x, Status.INFEASIBLE)
        return _finish(problem, sf, x, Status.NUMERICAL_FAILURE)

    x, _, status = _phase2(cones, cvec, x, opts, opts.max_newton - used)
    if status is not Status.OPTIMAL:
        return _finish(problem, sf, x, status)
    return _finish(problem, sf, x, Status.OPTIMAL, objective=float(cvec @ x))
