"""Interior-point solver for the small LMI systems built by `lmi`.

The solver minimizes a linear objective c @ x over the standard form of
`lmi.vectorize`, in which every block reads F(x) = F0 + sum_i x_i F_i >=
eps I with the constraint's sense already folded in; the solver sees each
block as S(x) = F(x) - eps I > 0.  Both phases take Mehrotra
predictor-corrector steps (Mehrotra, SIAM J. Optim. 2(4), 1992) along the
HKM direction (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim.
6(2), 1996), each with one Schur-complement factorization.  The primal
iterate stays strictly feasible, with S = S(x) formed from x at every
step, and the steps drive the gap <Z, S> + z . r and the dual residual
c - A*(Z) - G^T z under _GAP_TOL.

Phase 1 minimizes a uniform slack s, F(x) + s I >= 0, from the start
point with the dual at Z = S^-1 and z = 1 / r, not centered.  It stops as
soon as its verdict is known (Boyd & Vandenberghe, *Convex Optimization*,
section 11.4): after the first step where the slack could be _EXIT_SLACK
with every block still positive definite, so that phase 2 starts with
every block >= -_EXIT_SLACK I; INFEASIBLE once the dual residual is under
tolerance and the lower bound s - gap on the slack optimum exceeds
_INFEASIBLE_SLACK; NUMERICAL_FAILURE otherwise.  Phase 2 starts its dual
the same way at phase 1's point and centers first: each cell takes HKM
steps aimed at mu = 1, with no predictor, until its dual residual is all
but gone and its point is near the central path, and Mehrotra steps from
then on.  The solver returns the flat entry vector x, the final gap and
the phase-1 slack, and does not audit x; `control` re-checks every design
it certifies at that x, with `lmi.margins_batch` and the eigensolver of
`linalg`, which keeps LAPACK's eigenbasis once its in-package checks pass.

The solver uses the structure of the problem.  Every block whose base and
coefficients are all diagonal (positivity of diagonal variables, scalar
bounds, the peak cap), as each block decides once
(`lmi.StandardBlock.diagonal`), is a set of elementwise linear rows
b + G x > 0 with a dual z > 0 of their own, and so is the phase-1 box.
The remaining blocks are dense.  A problem with no dense block runs the
same steps over an empty stack of them.

Problems are solved as a batch along a leading axis, one cell per
problem.  Problems of one layout (the entry vector and, for each block,
its size, its entries and whether it is diagonal) share one stack, the
one form in which the solver holds them (`_Cones`): the dense blocks of a
cell padded with identity to one size, so that one call evaluates,
factors or inverts all of them, and their coefficients padded the same
way in one array, whose rows for a block's own entries, cut to its size,
also feed that block's share of the Hessian.  The stack is built with
phase 1's slack entry and box rows; phase 2 takes it without them, for
the cells that go on, and the full stack is released before phase 2
runs.  The iterations run over the stack in lockstep: each is one stacked
pass for the cells still running.  Every cell keeps its own step budget,
outcome and step lengths, and leaves the stack when its phase ends; no
cell's arithmetic reads another's.  Many cells of one layout are split
into several stacks so that the padded phase-1 coefficients of one stack
stay under _STACK_BYTES.  `minimize` is a batch of one, so there is one
solver path.  Everything is numpy with fixed iteration order, so identical
batches produce bit-identical outputs.  A batch of one can differ from a
larger batch in the last bits: the demo cell (0.25, 0.1) alone and in its
half-row batch agree in c to 6.9e-14 relative.

Infeasibility is declared heuristically: when the phase-1 slack optimum,
bounded below by s - gap once the dual residual is under tolerance, is
above _INFEASIBLE_SLACK, no strictly feasible point exists inside the
phase-1 box up to solver accuracy.  A phase-2 iterate with an entry
outside the phase-1 box ends its cell at once as NUMERICAL_FAILURE: the
objective looks unbounded below, and the rest of the step budget would
only walk further out.  So does a Schur complement or a factor that is
singular, indefinite or not finite; a cell never raises.  Factors, inverses
and eigenvalue tests call np.linalg's LAPACK gufuncs directly, on the whole
stack: a matrix LAPACK fails on reads NaN in its own place, which ends its
cell, and np.errstate(invalid="ignore"), around those calls only, silences
the flag it raises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from . import lmi

# Path-following settings, sized for the synthesis problems of `control` up
# to state dimension n = 10: dense blocks of dimension up to about 3n and a
# few hundred entries.  Diagonal blocks and the phase-1 box cost one
# elementwise row per diagonal entry, whatever their size.
_MAX_NEWTON = 600         # total step budget of one problem, both phases
_GAP_TOL = 1e-7           # optimal when <Z, S> + z . r < _GAP_TOL and
                          # max |c - A*(Z) - G^T z| < _GAP_TOL max(1, max |c|)
_GAP_FLOOR = 0.1          # the corrector never aims at a gap under this
                          # times _GAP_TOL
_RIDGE = 1e-13            # the Schur complement is factored with its
                          # diagonal times 1 + _RIDGE
_STEP_FRACTION = 0.98     # primal-dual steps go this far to the boundary
_CENTERED = 0.9           # phase 2 centers until every z_i r_i and eigenvalue
                          # of L_S^T Z L_S is at least this times mu, and
_CENTERED_DUAL = 1e-3     # its dual residual is under this times tolerance
_INFEASIBLE_SLACK = 1e-7  # declare infeasible when the phase-1 slack optimum
                          # exceeds this
_EXIT_SLACK = -1e-9       # phase 1 exits once its slack could be this
_PHASE1_BOX = 1e9         # phase-1 searches |entry| < this; keeps the slack
                          # minimization bounded when the feasible set is not;
                          # phase 2 gives up on a cell whose iterate leaves it
_STACK_BYTES = 16 << 20   # cap on one stack's padded phase-1 coefficients,
                          # 8 (refs + 1) J D^2 bytes a cell: 5.8 kB on the
                          # demo, 0.67 MB at the seeded n = 10 plant

# the gufuncs np.linalg's cholesky, inv and eigvalsh call after their checks
_cholesky = partial(_umath_linalg.cholesky_lo, signature="d->d")
_inv = partial(_umath_linalg.inv, signature="d->d")
_eigvalsh = partial(_umath_linalg.eigvalsh_lo, signature="d->d")


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver outcome: the status, the last iterate x over the problem's
    flat entry vector, the objective there when OPTIMAL (else None), the
    primal-dual steps taken in phase 1 and in phase 2 (its centering steps
    included), gap, the duality gap <Z, S> + z . r at the last phase-2
    iterate, None exactly when phase 1 did not end feasible, and
    phase1_slack, the slack s at phase 1's exit (at most _EXIT_SLACK when
    phase 1 found x feasible).  x is the solver's claim only: a caller
    that certifies it re-checks its margins, as `control` does.  Like the
    matrix types, an outcome compares and hashes by identity, so the
    grid cells and certificates that hold one do too.
    """

    status: Status
    x: np.ndarray
    objective: float | None
    newton_steps: tuple[int, int]
    gap: float | None
    phase1_slack: float


@dataclass(frozen=True)
class _Cones:
    """The strict feasible sets {x : b_c + G_c x > 0, S_cj(x) > 0 for every j}
    of a stack of cells of one layout (see `_layout`).

    Every constraint block whose base and coefficients are all diagonal
    becomes d elementwise rows of (b, G).  The J other blocks are dense and
    padded with identity to the largest size D, so that one call factors
    or inverts them all.  Their coefficients are held once, padded the same
    way over the entries vidx that any dense block depends on: row k of
    vflat[c] is the J row-major matrices of entry vidx[k], zero in the
    padding and in a block that does not depend on that entry, so that one
    product gives every value.  Block j has size dims[j] and depends on the
    entries vidx[pos[j]], in the order of its terms.  With no dense block
    J = D = 0, vidx is empty and every product over the stack is empty.
    The cone is the same either way a block is held, since a diagonal
    matrix is positive definite when its diagonal is positive, and so is
    its degree nu, which divides the gap into mu: one per row, d per dense
    block.
    """

    b: np.ndarray                 # (cells, r)
    g: np.ndarray                 # (cells, r, n)
    base: np.ndarray              # (cells, J, D, D), identity in the padding
    vidx: np.ndarray              # (m,)
    vflat: np.ndarray             # (cells, m, J*D*D)
    dims: tuple[int, ...]         # (J,)
    pos: tuple[np.ndarray, ...]   # J arrays of rows of vflat

    @property
    def nu(self) -> float:
        return float(self.b.shape[1] + sum(self.dims))

    def take(self, sel) -> "_Cones":
        """The cells sel of the stack."""
        return _Cones(self.b[sel], self.g[sel], self.base[sel], self.vidx, self.vflat[sel],
                      self.dims, self.pos)

    def without_slack(self, sel) -> "_Cones":
        """The cells sel of a stack from `_cones` as phase 2 steps in it:
        without phase 1's slack entry, the last, and its box rows."""
        n = self.g.shape[2] - 1
        nrow = self.b.shape[1] - 2 * (n + 1)
        m = int(np.count_nonzero(self.vidx < n))
        return _Cones(self.b[sel, :nrow], self.g[sel, :nrow, :n], self.base[sel],
                      self.vidx[:m], self.vflat[sel, :m], self.dims,
                      tuple(p[:-1] for p in self.pos))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """b + G x, one row of x per cell."""
        return self.b + (self.g @ x[:, :, None])[:, :, 0]

    def values(self, x: np.ndarray) -> np.ndarray:
        """The padded dense blocks S(x), (cells, J, D, D), one row of x per
        cell."""
        return self.base + self.span(x)

    def span(self, x: np.ndarray) -> np.ndarray:
        """sum_k x_k A_k for every padded dense block, zero in the padding."""
        return (x[:, None, self.vidx] @ self.vflat).reshape(self.base.shape)

    def adjoint(self, mats: np.ndarray, rowvals: np.ndarray) -> np.ndarray:
        """A*(mats) + G^T rowvals: entry k gets sum_j <A_jk, mats_j> plus
        sum_i G_ik rowvals_i, one row per cell, with mats padded as
        `values` is.  The padding of mats is never read, and neither is its
        antisymmetric part."""
        out = (rowvals[:, None, :] @ self.g)[:, 0]
        out[:, self.vidx] += (self.vflat @ mats.reshape(
            len(out), self.vflat.shape[2], 1))[:, :, 0]
        return out


def _layout(sf: lmi.StandardForm) -> tuple:
    """What forms must share to be stacked: the entry vector and, for each
    block, its size, its entries and whether it is diagonal, with F0 - eps I
    and every coefficient zero off the diagonal, as each block decides once
    (`lmi.StandardBlock.diagonal`)."""
    return sf.refs, tuple((blk.dim, tuple(blk.idx.tolist()), blk.diagonal)
                          for blk in sf.blocks)


def _cones(forms, layout: tuple) -> _Cones:
    """Standard forms of one layout, the `_layout` they share, as one
    stack, as phase 1 steps in it: each block with the base F0 - eps I, the
    diagonal ones as rows and the others dense, and phase 1's slack s as
    entry n with its box rows (see `_phase1`).  s adds a column of ones to
    the rows and the identity to every dense block."""
    refs, blocks = layout
    ncell, n = len(forms), len(refs)
    dims = tuple(d for d, _, diagonal in blocks if not diagonal)
    entries = [idx + (n,) for _, idx, diagonal in blocks if not diagonal]
    vidx = np.array(sorted(set().union(*entries)), dtype=int)
    where = {v: k for k, v in enumerate(vidx.tolist())}
    pos = tuple(np.array([where[v] for v in e], dtype=int) for e in entries)
    nrow, size = sum(d for d, _, diagonal in blocks if diagonal), max(dims, default=0)

    b = np.full((ncell, nrow + 2 * (n + 1)), _PHASE1_BOX)
    g = np.zeros((ncell, nrow + 2 * (n + 1), n + 1))
    g[:, :nrow, n] = 1.0
    g[:, nrow:] = np.kron(np.eye(n + 1), [[-1.0], [1.0]])
    base = np.zeros((ncell, len(dims), size, size))
    base[:] = np.eye(size)
    vflat = np.zeros((ncell, vidx.size, len(dims), size, size))
    for j, d in enumerate(dims):
        vflat[:, -1, j, :d, :d] = np.eye(d)
    for c, sf in enumerate(forms):
        row, j = 0, 0
        for blk, (d, _, diagonal) in zip(sf.blocks, blocks):
            shifted = blk.base - blk.eps * np.eye(d)
            if diagonal:
                b[c, row:row + d] = np.diagonal(shifted)
                g[c, row:row + d][:, blk.idx] = np.diagonal(blk.coeffs, axis1=1, axis2=2).T
                row += d
            else:
                base[c, j, :d, :d] = shifted
                vflat[c, pos[j][:-1], j, :d, :d] = blk.coeffs
                j += 1
    return _Cones(b, g, base, vidx, vflat.reshape(ncell, vidx.size, len(dims) * size * size),
                  dims, pos)


def _phase1(cones: _Cones, x0: np.ndarray):
    """Minimize a uniform slack s added to every block, min s subject to
    S(x) + s I > 0 and r(x) + s > 0, by the primal-dual steps of phase 2
    (`_primal_dual`), until the verdict is known.

    The search runs inside a large box |entry| < _PHASE1_BOX so the slack
    minimization stays bounded even when the feasible set has unbounded
    directions (monotone slack-type variables usually give it some).  The
    stack from `_cones` carries both: the slack as entry n, and the box as
    2(n+1) more rows, R - x_i > 0 and R + x_i > 0 for every entry and the
    slack.  The search starts at x0 with s one above the worst violation
    there, and its dual at Z = S^-1 and z = 1 / r, without centering: the
    primal-dual steps drive the dual residual down from there.

    Returns (x, slack, steps, outcomes) with an outcome per cell of None
    when x is feasible (as a rule with every block >= -_EXIT_SLACK I at x),
    Status.INFEASIBLE or Status.NUMERICAL_FAILURE (see `_primal_dual`).
    """
    ncell, n = x0.shape
    # the start: slack 1 above the worst violation at x0, read off the
    # stack at slack 0 (the box rows are far from binding)
    xs = np.concatenate([x0, np.zeros((ncell, 1))], axis=1)
    floor = np.maximum(0.0, -cones.rows(xs).min(axis=1, initial=np.inf))
    xs[:, n] = np.maximum(floor, -_lowest(cones.values(xs))) + 1.0

    unit = np.zeros((ncell, n + 1))
    unit[:, n] = 1.0
    xs, steps, outcome, _ = _primal_dual(cones, unit, xs, np.full(ncell, _MAX_NEWTON),
                                         phase1=True)
    return xs[:, :n], xs[:, n], steps, outcome


def _hkm(cones: _Cones, zr: np.ndarray, lsi: np.ndarray, lz: np.ndarray,
         scatter: list) -> np.ndarray:
    """The HKM Schur complement M_kl = sum_j tr(A_jk S_j^-1 A_jl Z_j)
    + sum_i G_ik (z_i / r_i) G_il, one matrix per cell, with zr = z / r,
    lsi = L_S^-1 and lz = L_Z for the Cholesky factors of S and Z, and
    scatter, for each dense block, the rows and columns of M that its
    entries index.

    M is formed as a Gram matrix: of the rows of G sqrt(z/r), and of
    V_k = L_S^-1 A_k L_Z over each block, since with S^-1 = L_S^-T L_S^-1
    and Z = L_Z L_Z^T the trace is <V_k, V_l>.  A Gram matrix keeps its
    rounding relative to its diagonal.  The product of A_k S^-1 and A_l Z,
    whose terms grow like 1/mu where M's smallest diagonal entries shrink
    like mu, makes M numerically indefinite at gaps around 1e-6 on the
    demo design.  Block j's coefficients are the rows pos[j] of the padded
    stack cut to its own size, so each product costs what the block's size
    does, not the padded size.
    """
    gw = cones.g * np.sqrt(zr)[:, :, None]
    m = gw.transpose(0, 2, 1) @ gw
    ncell = len(m)
    coeffs = cones.vflat.reshape(cones.vflat.shape[:2] + cones.base.shape[1:])
    for j, (d, p, (rows, cols)) in enumerate(zip(cones.dims, cones.pos, scatter)):
        k = len(p)
        y = (coeffs[:, p, j, :d, :d].reshape(ncell, k * d, d) @ lz[:, j, :d, :d]).reshape(
            ncell, k, d, d)
        v = (lsi[:, j, None, :d, :d] @ y).reshape(ncell, k, d * d)
        m[:, rows, cols] += v @ v.transpose(0, 2, 1)
    return (m + m.transpose(0, 2, 1)) / 2.0


def _lowest(m: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each cell's stack of symmetric matrices,
    +inf for an empty stack and NaN for a cell with an entry that is not
    finite.  Only a stack with such a cell has its entries masked with 0
    before the eigensolver and its result masked after; each cell's
    eigenvalues are the same bits either way."""
    finite = np.isfinite(m)
    with np.errstate(invalid="ignore"):
        if finite.all():
            return _eigvalsh(m).min(axis=(1, 2), initial=np.inf)
        ok = finite.all(axis=(1, 2, 3))
        low = _eigvalsh(np.where(ok[:, None, None, None], m, 0.0))
    return np.where(ok, low.min(axis=(1, 2), initial=np.inf), np.nan)


def _reach(li: np.ndarray, lit: np.ndarray, dmat: np.ndarray, v: np.ndarray,
           dv: np.ndarray) -> np.ndarray:
    """1 / alpha_max per cell, where alpha_max is the longest step that keeps
    the rows v + alpha dv and the blocks L L^T + alpha dmat positive
    semidefinite, with li = L^-1 and lit its transpose; 0 where no step
    leaves them.  A block reaches its boundary at -1 / min eig(li dmat
    li^T).  NaN for a cell with a factor or a direction that is not
    finite."""
    s = (dv / v).min(axis=1, initial=0.0) * -1.0
    return np.maximum(s, -_lowest(li @ dmat @ lit))


def _primal_dual(cones: _Cones, cvec: np.ndarray, x: np.ndarray, budget: np.ndarray,
                 phase1: bool = False):
    """Primal-dual steps along the HKM direction over a stack of cells in
    lockstep: centering steps, then Mehrotra predictor-corrector steps.

    The dual starts at Z = S^-1 and z = 1 / r.  Each step factors the HKM
    Schur complement M (see `_hkm`) once and solves M dx = rhs with that
    factor.  In phase 2 every cell is centering at first: it aims at mu = 1
    with no second-order terms, so that its dual residual falls and its
    point nears the central path there.  It switches to Mehrotra steps at
    the first step where its dual residual is under _CENTERED_DUAL of its
    tolerance and every z_i r_i and every eigenvalue of L_S^T Z L_S
    (S = L_S L_S^T) is at least _CENTERED mu.
    Phase 1 takes Mehrotra steps from its uncentered start.  A Mehrotra
    step first solves for the predictor, rhs = -c; the corrector aims at
    sigma mu, with mu = gap / nu and sigma = (gap_aff / gap)^3 from the gap
    after the predictor's step, but never at a gap under
    _GAP_FLOOR _GAP_TOL, and adds the second-order terms.  A step with
    every cell centering skips the predictor.  Then dS = A(dx), dr = G dx and
    dZ = sigma mu S^-1 - Z - sym(S^-1 dS Z) - sym(S^-1 dS_a dZ_a),
    dz = sigma mu / r - z - z dr / r - dr_a dz_a / r, with the predictor's
    directions _a (zero while centering).  The primal and dual parts step
    _STEP_FRACTION of the way to their boundaries, capped at 1.
    S = S(x) and r = r(x) are formed from x at every step, never updated.
    Each padded block keeps I in the padding of Z, so L_S^T Z L_S is I
    there, and dZ is zero there.  With no dense block, S, Z and their
    factors are empty stacks, whose smallest eigenvalue reads +inf.

    M's smallest eigenvalues, relative to its diagonal, shrink like mu^2
    in the directions the optimal face leaves free, so M is factored with
    its diagonal scaled by 1 + _RIDGE, which tells only near the end.  The
    error this leaves in dx feeds the dual residual, and the floor on the
    aim keeps it from growing once the gap is near _GAP_TOL.  Phase 1
    refines the corrector once, solving again with the same factor for
    the part of the dual residual that A*(dZ) + G^T dz misses, which grows
    as S grows ill-conditioned.  Its exit point moves only by rounding,
    yet phase 2 can hinge on it: for the design of
    `test_design_that_needs_phase_one_refinement_certifies` (n = 4, mu =
    1.5, alpha = 0.1) it moves by 1.3e-10, and phase 2 from the unrefined
    point drives the gap under tolerance while its dual residual stalls
    above it, until Z has no Cholesky factor after 20 steps; from the
    refined point it ends OPTIMAL in 14.  Phase 2 is not refined, since
    near its optimum that would undo the ridge.

    A cell is optimal once the gap <Z, S> + z . r is under _GAP_TOL and
    its dual residual c - A*(Z) - G^T z is under _GAP_TOL max(1, max |c|).
    It fails at its last iterate when its Schur complement, a factor or a
    direction is not finite (an indefinite M has no Cholesky factor), when
    an iterate leaves the phase-1 box, or when it has taken budget[c]
    steps.  In phase 2 the outcomes are OPTIMAL and NUMERICAL_FAILURE.  In
    phase 1 (see `_phase1`) the last entry of x is the slack s, and a cell
    ends feasible, with outcome None, after the first step where the point
    with its slack pinned to min(s, _EXIT_SLACK) is strictly inside, as the
    smallest eigenvalues of the step's S(x) and r(x) with the slack's share
    moved tell; x is then that point.  It also ends feasible when optimal
    with s < 0.  It is settled when optimal otherwise or when its dual
    residual is under tolerance and s - gap, a lower bound on the slack
    optimum, is above _INFEASIBLE_SLACK; a settled cell with s above
    _INFEASIBLE_SLACK ends INFEASIBLE, and any other settled or failed cell
    NUMERICAL_FAILURE.  Returns (x, steps, outcomes, gaps), with the gap at
    each cell's last iterate.

    An iteration selects per cell only when some cell differs: the
    corrector merges in the centering aim only when some but not all cells
    center, and the step keeps old points only when some cell did not move;
    otherwise it takes the stacked values, the same bits.  The padding, M's
    diagonal and each block's place in M are formed once per phase.
    """
    ncell, nu = len(x), cones.nu
    x_out, gap_out = x.copy(), np.full(ncell, np.nan)
    steps_out = np.zeros(ncell, dtype=int)
    outcome: list = [None] * ncell
    dual_tol = _GAP_TOL * np.maximum(1.0, np.abs(cvec).max(axis=1, initial=0.0))

    zrow = 1.0 / cones.rows(x)
    base = cones.base
    inner = np.zeros(base.shape[1:], dtype=bool)
    for j, d in enumerate(cones.dims):
        inner[j, :d, :d] = True
    with np.errstate(invalid="ignore"):
        zmat = np.where(inner, _inv(cones.values(x)), base)
    slack_eye = np.where(inner, np.eye(base.shape[-1]), 0.0)
    pad, diag = ~inner, np.arange(x.shape[1])
    scatter = [(cones.vidx[p][:, None], cones.vidx[p]) for p in cones.pos]

    def measure(x, zmat, zrow, bad):
        """r(x) (NaN where a row is not positive), S(x), the gap, and the
        ways a cell can end there, (cells, outcome) in order of precedence;
        bad marks the cells that took no step.  In phase 1 this pins the
        slack of the cells that end feasible at the pinned point."""
        r = cones.rows(x)
        r = np.where(r > 0.0, r, np.nan)
        smat = cones.values(x)
        gap = (r * zrow).sum(axis=1) + (smat * zmat)[:, inner].sum(axis=1)
        rd = cvec - cones.adjoint(zmat, zrow)
        dual = np.abs(rd).max(axis=1, initial=0.0) < dual_tol
        optimal = dual & (gap < _GAP_TOL)
        failed = bad | (np.abs(x) >= _PHASE1_BOX).any(axis=1) | ~optimal & (
            ~((0.0 < gap) & (gap < np.inf)) | (steps >= budget))
        if not phase1:
            return r, smat, gap, rd, ((failed, Status.NUMERICAL_FAILURE),
                                      (optimal, Status.OPTIMAL))
        s = x[:, -1]
        shift = np.minimum(s, _EXIT_SLACK) - s
        pinned = (steps > 0) & (r + cones.g[:, :, -1] * shift[:, None] > 0.0).all(axis=1) & (
            _lowest(smat + shift[:, None, None, None] * slack_eye) > 0.0)
        feasible = pinned | optimal & (s < 0.0)
        settled = optimal | dual & (s - gap > _INFEASIBLE_SLACK)
        ends = ((feasible, None), (settled & (s > _INFEASIBLE_SLACK), Status.INFEASIBLE),
                (failed | settled, Status.NUMERICAL_FAILURE))
        x[pinned, -1] = np.minimum(s[pinned], _EXIT_SLACK)
        return r, smat, gap, rd, ends

    # the cells still running, compacted whenever one ends
    cell = np.arange(ncell)
    steps = np.zeros(ncell, dtype=int)
    centering = np.full(ncell, not phase1)
    r, smat, gap, rd, ends = measure(x, zmat, zrow, np.zeros(ncell, dtype=bool))
    while True:
        ended = np.logical_or.reduce([hit for hit, _ in ends])
        if ended.any():
            for i in ended.nonzero()[0]:
                c = cell[i]
                x_out[c], steps_out[c], gap_out[c] = x[i], steps[i], gap[i]
                outcome[c] = next(how for hit, how in ends if hit[i])
            keep = ~ended
            cell, x, zrow, zmat, r, smat, gap, rd, steps, cvec, budget, dual_tol, centering = (
                a[keep] for a in (cell, x, zrow, zmat, r, smat, gap, rd, steps, cvec, budget,
                                  dual_tol, centering))
            cones = cones.take(keep)
        if not cell.size:
            return x_out, steps_out, outcome, [
                float(v) if np.isfinite(v) else None for v in gap_out]

        g, rinv = cones.g, 1.0 / r
        with np.errstate(invalid="ignore"):
            ls = _cholesky(smat)
            lsi = _inv(ls)
            lz = _cholesky(zmat)
            lzi = _inv(lz)
        lsit, lzit = lsi.transpose(0, 1, 3, 2), lzi.transpose(0, 1, 3, 2)
        sinv = lsit @ lsi
        m = _hkm(cones, zrow * rinv, lsi, lz, scatter)
        m[:, diag, diag] *= 1.0 + _RIDGE
        with np.errstate(invalid="ignore"):
            lm = _inv(_cholesky(m))

        def direction(rhs, smu, crow, cmat):
            """dx = M^-1 rhs and the directions that go with it, aiming at
            smu with the second-order terms crow (rows) and cmat (blocks)."""
            dx = (lm.transpose(0, 2, 1) @ (lm @ rhs[:, :, None]))[:, :, 0]
            dr = (g @ dx[:, :, None])[:, :, 0]
            dz = (smu[:, None] - zrow * dr - crow) * rinv - zrow
            ds = cones.span(dx)
            t = sinv @ ds @ zmat + cmat
            dzm = smu[:, None, None, None] * sinv - zmat - (t + t.transpose(0, 1, 3, 2)) / 2.0
            dzm[:, pad] = 0.0
            return dx, dr, ds, dz, dzm

        def lengths(dr, ds, dz, dzm, frac):
            """The primal and dual step lengths: frac of the way to the
            boundary, at most 1."""
            return (frac / np.maximum(_reach(lsi, lsit, ds, r, dr), frac),
                    frac / np.maximum(_reach(lzi, lzit, dzm, zrow, dz), frac))

        if centering.any():
            near = centering & (
                np.abs(rd).max(axis=1, initial=0.0) < _CENTERED_DUAL * dual_tol) & (
                (zrow * r).min(axis=1, initial=np.inf) >= _CENTERED)
            if near.any():
                lzl = ls[near].transpose(0, 1, 3, 2) @ zmat[near] @ ls[near]
                near[near] = _lowest(lzl) >= _CENTERED
            centering &= ~near

        if centering.all():
            # a centering cell aims at mu = 1 with no second-order terms
            smu, crow, cmat = np.ones(len(x)), np.zeros_like(r), np.zeros_like(sinv)
        else:
            # predictor: the affine-scaling direction, aiming at mu = 0
            dx, dr, ds, dz, dzm = direction(-cvec, np.zeros(len(x)), 0.0, 0.0)
            ap, ad = lengths(dr, ds, dz, dzm, 1.0)
            gap_aff = ((r + ap[:, None] * dr) * (zrow + ad[:, None] * dz)).sum(axis=1) + (
                (smat + ap[:, None, None, None] * ds)
                * (zmat + ad[:, None, None, None] * dzm))[:, inner].sum(axis=1)
            aim = np.maximum((gap_aff / gap) ** 3 * gap, _GAP_FLOOR * _GAP_TOL) / nu

            # corrector: aim at sigma mu, with the predictor's second-order
            # terms; the cells still centering keep mu = 1 and none
            smu, crow, cmat = aim, dr * dz, sinv @ ds @ dzm
            if centering.any():
                smu = np.where(centering, 1.0, smu)
                crow = np.where(centering[:, None], 0.0, crow)
                cmat = np.where(centering[:, None, None, None], 0.0, cmat)
        rhs = smu[:, None] * cones.adjoint(sinv, rinv) - cvec - cones.adjoint(cmat, crow * rinv)
        dx, dr, ds, dz, dzm = direction(rhs, smu, crow, cmat)
        if phase1:
            # one step of iterative refinement: solve again for what the
            # directions miss of the dual residual, so A*(dZ) + G^T dz = rd
            dx, dr, ds, dz, dzm = direction(rhs + cones.adjoint(dzm, dz) - rd, smu, crow, cmat)
        ap, ad = lengths(dr, ds, dz, dzm, _STEP_FRACTION)

        xn = x + ap[:, None] * dx
        move = np.isfinite(ad) & np.isfinite(xn).all(axis=1)
        if move.all():
            x, zrow, zmat = xn, zrow + ad[:, None] * dz, zmat + ad[:, None, None, None] * dzm
        else:
            # a cell that took no step keeps its point
            x = np.where(move[:, None], xn, x)
            zrow = np.where(move[:, None], zrow + ad[:, None] * dz, zrow)
            zmat = np.where(move[:, None, None, None], zmat + ad[:, None, None, None] * dzm, zmat)
        steps += move
        r, smat, gap, rd, ends = measure(x, zmat, zrow, ~move)


def _solve_stack(cones: _Cones, sfs) -> list[Solution]:
    """Phase 1 for every cell of a stack from `_cones`, then phase 2's
    primal-dual steps for the cells it found feasible, over those cells of
    the stack without phase 1's slack and box."""
    x, slack, steps1, status = _phase1(cones, np.stack([sf.initial for sf in sfs]))
    steps2 = np.zeros(len(sfs), dtype=int)
    gaps: list = [None] * len(sfs)
    go = [i for i, st in enumerate(status) if st is None]
    if go:
        # rebinding releases the full stack before phase 2 runs
        cones = cones.without_slack(go)
        x[go], steps2[go], done, gap = _primal_dual(
            cones, np.stack([sfs[i].objective for i in go]), x[go], _MAX_NEWTON - steps1[go])
        for i, st, g in zip(go, done, gap):
            status[i], gaps[i] = st, g
    x.setflags(write=False)
    return [Solution(status[i], x[i],
                     float(sf.objective @ x[i]) if status[i] is Status.OPTIMAL else None,
                     (int(steps1[i]), int(steps2[i])), gaps[i], float(slack[i]))
            for i, sf in enumerate(sfs)]


def minimize_batch(forms) -> list[Solution]:
    """Minimize each standard form's linear objective over its feasible
    set, all forms in lockstep; the solutions come in the order of `forms`.

    Forms of one layout share a stack.  A layout with many cells is split
    into stacks whose padded phase-1 coefficients stay under _STACK_BYTES,
    so memory does not grow with the batch.
    """
    sfs = list(forms)
    if any(sf.objective is None for sf in sfs):
        raise ValueError("minimize expects problems with an objective")
    groups: dict[tuple, list[int]] = {}
    for c, sf in enumerate(sfs):
        groups.setdefault(_layout(sf), []).append(c)

    out: list = [None] * len(sfs)
    for layout, members in groups.items():
        refs, blocks = layout
        dims = [d for d, _, diagonal in blocks if not diagonal]
        cell_bytes = 8 * (len(refs) + 1) * len(dims) * max(dims, default=0) ** 2
        size = max(1, _STACK_BYTES // max(cell_bytes, 1))
        for start in range(0, len(members), size):
            cells = members[start:start + size]
            part = [sfs[c] for c in cells]
            for c, solution in zip(cells, _solve_stack(_cones(part, layout), part)):
                out[c] = solution
    return out


def minimize(sf: lmi.StandardForm) -> Solution:
    """Minimize the standard form's linear objective over its feasible set."""
    return minimize_batch([sf])[0]
