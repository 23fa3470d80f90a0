"""Interior-point solver for the small LMI systems built by `lmi`.

The solver minimizes a linear objective over the standard form of
`lmi.vectorize`, in which every block reads F(x) = F0 + sum_i x_i F_i >=
eps I with the constraint's sense already folded in; the barrier sees each
block as F(x) - eps I > 0.  The method is a plain log-det barrier
path-following scheme: a phase-1 search minimizes a uniform slack to find
a strictly feasible point, then Newton centering follows the central path
along a geometrically growing barrier parameter until the duality-gap
surrogate nu / t drops under tolerance.  Phase 1
stops as soon as its verdict is known (Boyd & Vandenberghe, *Convex
Optimization*, section 11.4): at the first accepted iterate where the
slack could be _EXIT_SLACK with every block still positive definite, so
that phase 2 starts with every block >= -_EXIT_SLACK I, or at the first
centered point whose bound s - nu / t on the slack optimum exceeds
_INFEASIBLE_SLACK.  The solver returns the flat entry vector x and does
not audit it; `control` re-checks every design it certifies at that x,
with `lmi.problem_margins` and the Jacobi eigensolver of `linalg`.

The solver uses the structure of the problem.  Every block whose base and
coefficients are all diagonal (positivity of diagonal variables, scalar
bounds, the peak cap) is a set of elementwise linear rows b + G x > 0 with
the barrier -sum log r, and so is the phase-1 box.  The remaining blocks
are dense, with their coefficients stacked flat so that evaluating a block
or assembling its Hessian is one matrix product.

Problems are solved as a batch along a leading axis, one cell per
problem.  Problems of the same structure (entry vector, row count, dense
block sizes) share one stack: a dense block whose entries differ from cell
to cell depends on their union in every cell, with zero coefficients where
a cell has none, and the dense blocks of a cell are padded with identity
to one size, so that one call evaluates, factors or inverts all of them.
Newton then runs over the stack in lockstep: each iteration is one stacked
pass for the barrier, the derivatives, the Newton systems and each
line-search trial of the cells still running.  Every cell keeps its own
barrier parameter, step budget, outcome and step length, and leaves the
stack when its phase ends.  Many cells of one structure are split into
several stacks so that the padded coefficients of one stack stay under
_STACK_BYTES.  `minimize` is a batch of one, so there is one solver
path.  Everything is numpy with fixed iteration order, so identical
batches produce bit-identical outputs.

Infeasibility is declared heuristically: when the phase-1 slack optimum,
bounded below by s - nu / t at a centered point, is above
_INFEASIBLE_SLACK, no strictly feasible point exists inside the phase-1
box up to solver accuracy.  A phase-2 iterate with an entry outside the
phase-1 box ends its cell at once as NUMERICAL_FAILURE: the objective
looks unbounded below, and the rest of the step budget would only walk
further out.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import lmi

# Path-following settings, sized for the synthesis problems of `control` up
# to state dimension n = 10: dense blocks of dimension up to about 3n and a
# few hundred entries.  Diagonal blocks and the phase-1 box cost one
# elementwise row per diagonal entry, whatever their size.
_MAX_NEWTON = 600         # total Newton step budget of one problem
_T_INIT = 1.0             # initial barrier parameter
_T_GROWTH = 10.0          # geometric growth factor of the barrier parameter
_GAP_TOL = 1e-7           # stop when nu / t < _GAP_TOL
_INFEASIBLE_SLACK = 1e-7  # declare infeasible when the phase-1 slack optimum
                          # exceeds this
_NEWTON_TOL = 1e-5        # threshold on the squared Newton decrement / 2;
                          # the decrement is affine-invariant, and the gap
                          # surrogate nu/t is valid once it is this small
_ARMIJO = 0.25
_MIN_STEP = 1e-18         # backtracking gives up below this step length
_EXIT_SLACK = -1e-9       # phase 1 exits once its slack could be this
_PHASE1_BOX = 1e9         # phase-1 searches |entry| < this; keeps the slack
                          # minimization bounded when the feasible set is not;
                          # phase 2 gives up on a cell whose iterate leaves it
_STACK_BYTES = 16 << 20   # cap on one stack's padded coefficients; about
                          # 2.5 MB a cell at n = 10, 15 kB at n = 2


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class Solution:
    """Solver outcome: the status, the last iterate x over the problem's
    flat entry vector, the objective there when OPTIMAL (else None), and
    the Newton steps taken in phase 1 and in phase 2.  x is the solver's
    claim only: a caller that certifies it re-checks its margins, as
    `control` does.
    """

    status: Status
    x: np.ndarray
    objective: float | None
    newton_steps: tuple[int, int]


@dataclass(frozen=True)
class _Dense:
    """One PSD block that is not diagonal, over a stack of cells:
    S_c(x) = base[c] + sum_k x[idx[k]] A_ck.

    The coefficient matrices are stored flat, one row-major A_ck per row of
    `flat[c]`, so the block's share of the Hessian is one matrix product
    per cell.
    """

    base: np.ndarray   # (cells, d, d)
    idx: np.ndarray    # (k,) entries of x the block depends on, in every cell
    flat: np.ndarray   # (cells, k, d*d)
    ix: tuple          # where the block's Hessian lands in a stacked Hessian
    tr: np.ndarray     # (d*d,) where vec(X^T) takes its entries from vec(X)

    @staticmethod
    def make(base, idx, flat) -> "_Dense":
        d = base.shape[-1]
        return _Dense(base, idx, flat, (slice(None),) + np.ix_(idx, idx),
                      np.arange(d * d).reshape(d, d).T.ravel())

    @property
    def dim(self) -> int:
        return self.base.shape[-1]

    def take(self, sel) -> "_Dense":
        return _Dense(self.base[sel], self.idx, self.flat[sel], self.ix, self.tr)


@dataclass(frozen=True)
class _Cones:
    """The strict feasible sets {x : b_c + G_c x > 0, S_cj(x) > 0 for every j}
    of a stack of cells with the same structure.

    Every constraint block whose base and coefficients are all diagonal
    becomes d elementwise rows of (b, G); the remaining blocks stay dense.
    The log barrier is the same either way, since -log det of a diagonal
    matrix is -sum log of its diagonal, and so is its parameter count nu:
    one per row, d per dense block.
    """

    b: np.ndarray                 # (cells, r)
    g: np.ndarray                 # (cells, r, n)
    dense: tuple[_Dense, ...]

    @functools.cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(base, vidx, vflat), built on first use: the dense blocks of a
        cell as one stack of J matrices padded to the largest block size D,
        identity in the padding (which adds nothing to the barrier), and
        their coefficients padded the same way over the entries vidx any
        block depends on.  One call then factors or inverts every block,
        and one product gives every value.  base is (cells, J, D, D),
        vflat (cells, m, J*D*D)."""
        ncell, size = len(self.b), max((blk.dim for blk in self.dense), default=0)
        base = np.zeros((ncell, len(self.dense), size, size))
        base[:, :] = np.eye(size)
        vidx = np.array(sorted(set().union(*(blk.idx.tolist() for blk in self.dense))),
                        dtype=int)
        row = {v: k for k, v in enumerate(vidx.tolist())}
        vflat = np.zeros((ncell, vidx.size, len(self.dense), size, size))
        for j, blk in enumerate(self.dense):
            d = blk.dim
            base[:, j, :d, :d] = blk.base
            vflat[:, [row[v] for v in blk.idx.tolist()], j, :d, :d] = \
                blk.flat.reshape(ncell, -1, d, d)
        return base, vidx, vflat.reshape(ncell, vidx.size, len(self.dense) * size * size)

    @property
    def nu(self) -> float:
        return float(self.b.shape[1] + sum(blk.dim for blk in self.dense))

    def take(self, sel) -> "_Cones":
        return _Cones(self.b[sel], self.g[sel], tuple(blk.take(sel) for blk in self.dense))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """b + G x, one row of x per cell."""
        return self.b + (self.g @ x[:, :, None])[:, :, 0]

    def values(self, x: np.ndarray) -> np.ndarray:
        """The padded dense blocks S(x), (cells, J, D, D), one row of x per
        cell."""
        base, vidx, vflat = self.padded
        return base + (x[:, None, vidx] @ vflat).reshape(base.shape)


def _cones(sf: lmi.StandardForm) -> _Cones:
    """One problem as a stack of one cell: its diagonal blocks as rows, the
    others dense, each with the base F0 - eps I."""
    n = sf.n
    b, g, dense = [], [], []
    for blk in sf.blocks:
        base = blk.base - blk.eps * np.eye(blk.dim)
        off = ~np.eye(blk.dim, dtype=bool)
        if not (np.any(base[off]) or np.any(blk.coeffs[:, off])):
            rows = np.zeros((blk.dim, n))
            rows[:, blk.idx] = np.diagonal(blk.coeffs, axis1=1, axis2=2).T
            b.append(np.diagonal(base))
            g.append(rows)
        else:
            dense.append(_Dense.make(base[None], blk.idx, blk.coeffs.reshape(
                1, len(blk.idx), blk.dim * blk.dim)))
    return _Cones((np.concatenate(b) if b else np.zeros(0))[None],
                  (np.vstack(g) if g else np.zeros((0, n)))[None], tuple(dense))


def _structure(sf: lmi.StandardForm, cones: _Cones) -> tuple:
    """What cells must share to be stacked: the entry vector, the number of
    rows and the sizes of the dense blocks."""
    return sf.refs, cones.b.shape[1], tuple(blk.dim for blk in cones.dense)


def _stack(cells: list[_Cones], refs: tuple) -> _Cones:
    """Cells of one structure as one stack.  A dense block whose entries
    differ between cells depends on their union in every cell, ordered by
    entry reference as lmi orders terms, with zero coefficients where a
    cell has none."""
    if len(cells) == 1:
        return cells[0]
    dense = []
    for blocks in zip(*(c.dense for c in cells)):
        idx = blocks[0].idx
        if all(np.array_equal(blk.idx, idx) for blk in blocks):
            flat = np.concatenate([blk.flat for blk in blocks])
        else:
            union = set().union(*(blk.idx.tolist() for blk in blocks))
            idx = np.array(sorted(union, key=refs.__getitem__))
            where = {v: k for k, v in enumerate(idx.tolist())}
            flat = np.zeros((len(blocks), idx.size, blocks[0].flat.shape[2]))
            for c, blk in enumerate(blocks):
                flat[c, [where[v] for v in blk.idx.tolist()]] = blk.flat[0]
        dense.append(_Dense.make(np.concatenate([blk.base for blk in blocks]), idx, flat))
    return _Cones(np.concatenate([c.b for c in cells]),
                  np.concatenate([c.g for c in cells]), tuple(dense))


def _each(f, *stacks):
    """f applied to stacks of matrices.  numpy raises LinAlgError for the
    whole stack when one matrix fails; then f runs cell by cell and the
    cells it fails on get NaN."""
    try:
        return f(*stacks)
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
        for c in range(out.shape[0]):
            try:
                out[c] = f(*(s[c] for s in stacks))
            except np.linalg.LinAlgError:
                pass
        return out


def _barrier(cones: _Cones, x: np.ndarray) -> np.ndarray:
    """-sum log r - sum log det S_j at x, one row per cell; inf where x is
    not strictly inside.

    The rows are checked first, so a cell whose point leaves them costs no
    factorization.
    """
    f = np.full(len(x), np.inf)
    r = cones.rows(x)
    inside = ((r > 0.0) & (r < np.inf)).all(axis=1)
    whole = inside.all()
    total = -np.log(r if whole else r[inside]).sum(axis=1)
    if cones.dense:
        s = cones.values(x)
        if not whole:
            s = s[inside]
        d = np.diagonal(_each(np.linalg.cholesky, s), axis1=2, axis2=3)
        ok = np.isfinite(s).all(axis=(1, 2, 3)) & (d > 0.0).all(axis=(1, 2))
        if not ok.all():
            inside[inside] = ok
            total, d = total[ok], d[ok]
        total -= 2.0 * np.log(d).sum(axis=(1, 2))
    f[inside] = total
    return f


def _derivatives(cones: _Cones, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients and Hessians of the barrier at strictly feasible points,
    one row of x per cell.

    Rows give -G^T (1/r) and (G/r)^T (G/r).  A dense block gives
    -tr(S^-1 A_k) = -<A_k, S^-1>, one product for all blocks, and
    tr(S^-1 A_k S^-1 A_l); with U_k = A_k S^-1 (one product over the
    block's stacked coefficients) that is vec(U_k) . vec(U_l^T).  A cell
    with a singular dense block gets NaN.
    """
    ncell = len(x)
    gr = cones.g / cones.rows(x)[:, :, None]
    grad = -gr.sum(axis=1)
    hess = gr.transpose(0, 2, 1) @ gr
    if cones.dense:
        _, vidx, vflat = cones.padded
        sinv = _each(np.linalg.inv, cones.values(x))
        grad[:, vidx] -= (vflat @ sinv.reshape(ncell, -1, 1))[:, :, 0]
        for j, blk in enumerate(cones.dense):
            d, k = blk.dim, len(blk.idx)
            u = (blk.flat.reshape(ncell, k * d, d) @ sinv[:, j, :d, :d]).reshape(ncell, k, d * d)
            hess[blk.ix] += u @ u[:, :, blk.tr].transpose(0, 2, 1)
    return grad, (hess + hess.transpose(0, 2, 1)) / 2.0


def _newton(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps dx = -H^-1 g and decrements -g . dx, one per cell.

    A cell whose system is singular or indefinite retries with a small
    ridge; if that fails too, its decrement is NaN.
    """
    dx = _each(np.linalg.solve, hess, -g[:, :, None])[:, :, 0]
    dec = -(g * dx).sum(axis=1)
    if (dec >= 0.0).all() and (dec < np.inf).all():
        return dx, dec
    n = g.shape[1]
    for c in (~((dec >= 0.0) & (dec < np.inf))).nonzero()[0]:
        ridge = 1e-12 * max(float(np.trace(hess[c])) / n, 1.0)
        try:
            dx[c] = np.linalg.solve(hess[c] + ridge * np.eye(n), -g[c])
            dec[c] = float(-g[c] @ dx[c])
        except np.linalg.LinAlgError:
            dec[c] = np.nan
        if not (np.isfinite(dec[c]) and dec[c] >= 0.0):
            dec[c] = np.nan
    return dx, dec


def _first_trial(r: np.ndarray, gdx: np.ndarray) -> np.ndarray:
    """The longest step 2^-j <= 1 that keeps every row positive, per cell.

    Rows reach zero at the fraction to the boundary, min over
    (G dx)_i < 0 of -r_i / (G dx)_i; the first trial is the power of 1/2
    just below it, times (1 - 1e-9), since every longer trial would leave
    the rows.  With s the inverse of that bound, s = m 2^e and
    1/2 <= m < 1, the step is 2^-e (and 1 when no row decreases, s = 0).
    """
    s = (gdx / r).min(axis=1, initial=0.0) * (-1.0 / (1.0 - 1e-9))
    return np.minimum(1.0, np.ldexp(1.0, -np.frexp(s)[1]))


def _line_search(cones: _Cones, x, dx, dec, tc, fb, move):
    """Backtracking from x along dx for the cells `move`, on the merit
    tc @ x + barrier(x) with the Armijo rule.

    Every round is one stacked trial; each cell starts at its row-aware
    first trial and halves its step on rejection, down to _MIN_STEP, and
    a cell not searching (any more) stays at its point, where the barrier
    is known to be finite.  fb is the barrier at x.  Returns the new x and
    barrier values and which cells accepted a trial.
    """
    f0 = fb + (tc * x).sum(axis=1)
    alpha = _first_trial(cones.rows(x), (cones.g @ dx[:, :, None])[:, :, 0])
    live = move & (f0 < np.inf)
    accepted = np.zeros(len(x), dtype=bool)
    while True:
        live &= alpha > _MIN_STEP
        if not live.any():
            return x, fb, accepted
        xn = np.where(live[:, None], x + alpha[:, None] * dx, x)
        bn = _barrier(cones, xn)
        ok = live & (bn + (tc * xn).sum(axis=1) <= f0 - _ARMIJO * alpha * dec)
        if ok.all():
            return xn, bn, ok
        x, fb = np.where(ok[:, None], xn, x), np.where(ok, bn, fb)
        accepted |= ok
        live &= ~ok
        alpha[live] *= 0.5


def _follow(cones: _Cones, cvec: np.ndarray, x: np.ndarray, budget: np.ndarray,
            phase1: bool):
    """Follow the central paths of a stack of cells in lockstep.

    Cell c minimizes t_c cvec_c @ x + barrier_c(x) by damped Newton steps
    and multiplies t_c by _T_GROWTH at each centered point, until its
    phase ends or it has taken budget[c] steps.  In phase 1 the last entry
    of x is the slack.  After each accepted step the cell's slack is pinned
    to min(s, _EXIT_SLACK), and if the barrier is finite there the phase
    ends at the pinned point as "feasible"; so does a stage that ends with
    a negative slack.  At a centered point whose lower bound s - nu/t_c on
    the slack optimum is above _INFEASIBLE_SLACK, or whose gap nu/t_c is
    under _GAP_TOL, the phase ends as "infeasible_candidate"; anything
    else is "stalled".  In phase 2 the outcome is a Status: OPTIMAL once
    nu/t_c is under _GAP_TOL, and NUMERICAL_FAILURE as soon as an accepted
    iterate leaves the phase-1 box, which it does where the objective is
    unbounded below.

    Every iteration is one stacked pass over the cells still running, and
    a cell whose phase ends leaves the stack.  Each iterate stays strictly
    feasible.  Returns (x, steps, outcomes).
    """
    nu = cones.nu
    x_out = x.copy()
    steps_out = np.zeros(len(x), dtype=int)
    outcome: list = [None] * len(x)

    # the cells still running, compacted whenever one ends
    cell = np.arange(len(x))
    x = x.copy()
    t = np.full(len(x), _T_INIT)
    steps = np.zeros(len(x), dtype=int)
    achieved = np.full(len(x), np.inf)  # gap surrogate of the last centered stage
    fb = _barrier(cones, x)             # barrier at x, carried over from the accepted trial
    ended = np.zeros(len(x), dtype=bool)

    def stage_end(i: int, how: str) -> bool:
        """The centering of running cell i ended: "centered", "stalled", or
        "stopped" (phase-1 early exit or step budget spent).  True if its
        phase goes on at a larger t."""
        if phase1:
            if x[i, -1] < 0.0:
                outcome[cell[i]] = "feasible"
            elif how == "centered" and x[i, -1] - nu / t[i] > _INFEASIBLE_SLACK:
                # the slack optimum is at least s - nu/t, above the threshold
                outcome[cell[i]] = "infeasible_candidate"
            elif how == "centered" and nu / t[i] >= _GAP_TOL:
                t[i] *= _T_GROWTH
                return True
            else:
                outcome[cell[i]] = "infeasible_candidate" if how == "centered" else "stalled"
        elif how == "centered":
            achieved[i] = nu / t[i]
            if nu != 0.0 and achieved[i] >= _GAP_TOL:
                t[i] *= _T_GROWTH
                return True
            outcome[cell[i]] = Status.OPTIMAL
        elif how == "stalled" and achieved[i] <= 100.0 * _GAP_TOL:
            # float exhaustion near the end of the path; accept the point
            # since a previous stage already certified a gap close to target
            outcome[cell[i]] = Status.OPTIMAL
        else:
            outcome[cell[i]] = Status.NUMERICAL_FAILURE
        ended[i] = True
        return False

    for i in (budget <= 0).nonzero()[0]:
        stage_end(i, "stopped")
    while True:
        if ended.any():
            x_out[cell[ended]], steps_out[cell[ended]] = x[ended], steps[ended]
            keep = ~ended
            cell, x, t, steps, achieved, fb, cvec, budget = (
                a[keep] for a in (cell, x, t, steps, achieved, fb, cvec, budget))
            cones = cones.take(keep)
            ended = ended[keep]
        if not cell.size:
            return x_out, steps_out, outcome

        # Newton directions.  A cell already centered ends its stage and, if
        # its phase goes on, takes the direction for its next t from the
        # same derivatives.
        grad, hess = _derivatives(cones, x)
        tc = t[:, None] * cvec
        dx, dec = _newton(hess, grad + tc)
        move = dec > 2.0 * _NEWTON_TOL
        if not move.all():
            pending = (~move).nonzero()[0]
            while pending.size:
                again = np.array([i for i in pending if stage_end(
                    i, "stalled" if np.isnan(dec[i]) else "centered")], dtype=int)
                if not again.size:
                    break
                dx[again], dec[again] = _newton(
                    hess[again], grad[again] + t[again, None] * cvec[again])
                go = dec[again] > 2.0 * _NEWTON_TOL
                move[again[go]] = True
                pending = again[~go]
            tc = t[:, None] * cvec

        x, fb, accepted = _line_search(cones, x, dx, dec, tc, fb, move)
        steps += accepted

        if phase1:
            # a cell exits as soon as its slack could be _EXIT_SLACK: at
            # that pinned point every block is >= -_EXIT_SLACK I (and the
            # box rows keep every entry inside the box)
            pinned = x.copy()
            np.minimum(pinned[:, -1], _EXIT_SLACK, out=pinned[:, -1])
            exits = accepted & (_barrier(cones, pinned) < np.inf)
            x[exits] = pinned[exits]
        else:
            # phase 2 gives up once an entry reaches the box
            exits = (np.abs(x) >= _PHASE1_BOX).any(axis=1)
        end = (move & ~accepted) | (accepted & ((steps >= budget) | exits))
        if end.any():
            for i in end.nonzero()[0]:
                stage_end(i, "stopped" if accepted[i] else "stalled")


def _phase1(cones: _Cones, x0: np.ndarray):
    """Minimize a uniform slack added to every block until it goes negative.

    The search runs inside a large box |entry| < _PHASE1_BOX so the slack
    minimization stays bounded even when the feasible set has unbounded
    directions (monotone slack-type variables usually give it some).  The
    box is 2(n+1) more rows, R - x_i > 0 and R + x_i > 0 for every entry
    and the slack; the slack itself is a column of ones on the rows and
    the identity on every dense block.

    The search ends as soon as its verdict is known (see `_follow`).
    Returns (x, slack, steps, outcomes) with an outcome per cell of
    "feasible" (as a rule with every block >= -_EXIT_SLACK I at x),
    "infeasible_candidate" (the slack optimum is above _INFEASIBLE_SLACK or
    converged while positive), or "stalled".
    """
    ncell, n = x0.shape
    nrow = cones.b.shape[1]
    box = np.kron(np.eye(n + 1), [[-1.0], [1.0]])
    aug = _Cones(
        np.concatenate([cones.b, np.full((ncell, 2 * (n + 1)), _PHASE1_BOX)], axis=1),
        np.concatenate([np.concatenate([cones.g, np.ones((ncell, nrow, 1))], axis=2),
                        np.broadcast_to(box, (ncell,) + box.shape)], axis=1),
        tuple(_Dense.make(blk.base, np.append(blk.idx, n), np.concatenate(
            [blk.flat, np.broadcast_to(np.eye(blk.dim).reshape(1, 1, -1),
                                       (ncell, 1, blk.dim * blk.dim))], axis=1))
              for blk in cones.dense))

    # the start: slack 1 above the worst violation at x0, read off the
    # augmented problem at slack 0 (the box rows are far from binding)
    xs = np.concatenate([x0, np.zeros((ncell, 1))], axis=1)
    floor = np.maximum(0.0, -aug.rows(xs).min(axis=1, initial=np.inf))
    if cones.dense:
        s = aug.values(xs)
        eig = np.linalg.eigvalsh((s + s.transpose(0, 1, 3, 2)) / 2.0)
        floor = np.maximum(floor, -eig.min(axis=(1, 2)))
    xs[:, n] = floor + 1.0

    unit = np.zeros((ncell, n + 1))
    unit[:, n] = 1.0
    xs, steps, outcome = _follow(aug, unit, xs, np.full(ncell, _MAX_NEWTON), phase1=True)
    return xs[:, :n], xs[:, n], steps, outcome


def _solve_stack(cones: _Cones, sfs) -> list[Solution]:
    """Phase 1 for every cell of the stack, then phase 2 for the cells it
    found feasible."""
    x, slack, steps1, found = _phase1(cones, np.stack([sf.initial for sf in sfs]))
    status = [None if o == "feasible"
              else Status.INFEASIBLE if o == "infeasible_candidate"
              and s > _INFEASIBLE_SLACK
              else Status.NUMERICAL_FAILURE for o, s in zip(found, slack)]
    steps2 = np.zeros(len(sfs), dtype=int)
    go = [i for i, st in enumerate(status) if st is None]
    if go:
        cvec = np.stack([sfs[i].objective for i in go])
        x[go], steps2[go], done = _follow(
            cones.take(go), cvec, x[go], _MAX_NEWTON - steps1[go], phase1=False)
        for i, st in zip(go, done):
            status[i] = st
    x.setflags(write=False)
    return [Solution(status[i], x[i],
                     float(sf.objective @ x[i]) if status[i] is Status.OPTIMAL else None,
                     (int(steps1[i]), int(steps2[i])))
            for i, sf in enumerate(sfs)]


def minimize_batch(forms) -> list[Solution]:
    """Minimize each standard form's linear objective over its feasible
    set, all forms in lockstep; the solutions come in the order of `forms`.

    Forms of one structure share a stack.  A structure with many cells is
    split into stacks whose padded phase-1 coefficients stay under
    _STACK_BYTES, so memory does not grow with the batch.
    """
    sfs = list(forms)
    if any(sf.objective is None for sf in sfs):
        raise ValueError("minimize expects problems with an objective")
    groups: dict[tuple, list] = {}
    for c, sf in enumerate(sfs):
        cones = _cones(sf)
        groups.setdefault(_structure(sf, cones), []).append((c, cones))

    out: list = [None] * len(sfs)
    for (refs, _, dims), members in groups.items():
        cell_bytes = 8 * (len(refs) + 1) * len(dims) * max(dims, default=0) ** 2
        size = max(1, _STACK_BYTES // max(cell_bytes, 1))
        for start in range(0, len(members), size):
            cells = [c for c, _ in members[start:start + size]]
            stack = _stack([k for _, k in members[start:start + size]], refs)
            for c, solution in zip(cells, _solve_stack(stack, [sfs[c] for c in cells])):
                out[c] = solution
    return out


def minimize(sf: lmi.StandardForm) -> Solution:
    """Minimize the standard form's linear objective over its feasible set."""
    return minimize_batch([sf])[0]
