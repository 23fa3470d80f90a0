from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hypiss import cli, control, lmi, sdp
from hypiss.control import build_synthesis_lmis
from hypiss.lmi import (
    GEQ,
    LEQ,
    Constraint,
    LmiProblem,
    VarSpec,
    affine,
    sym_block,
)
from hypiss.sdp import Status
from identities import (
    BARRIER_DEMO_GRID,
    BARRIER_SEEDED,
    BARRIER_SEEDED_INFEASIBLE,
    barrier_value,
)


def _stack(forms):
    """The solver's stack of standard forms of one layout."""
    return sdp._cones(forms, sdp._layout(forms[0]))


def _scalar_pos_problem():
    return lmi.vectorize(LmiProblem(
        (VarSpec.scalar("x"),),
        (Constraint(affine((VarSpec.scalar("x"),), lambda x: x), GEQ, "pos"),)))


def _demo_synthesis_problem(mu, alpha, eps=1e-6):
    """Gain synthesis constraints for the bundled two-channel demo plant, in
    standard form."""
    lam = np.array([1.0, math.sqrt(2.0)])
    big_lam = np.diag(lam)
    big_lam_inv = np.diag(1.0 / lam)
    h = np.array([[0.25, 0.0], [-1.0, 0.25]])
    b = np.eye(2)
    nd = np.eye(2)
    vq = VarSpec.diagonal("q", 2)
    vs = VarSpec.diagonal("s", 2)
    vw = VarSpec.full("w", 2, 2)
    # the symmetric coupling as its diagonal g and its off-diagonal entry g12
    vg, vg12 = VarSpec.diagonal("g", 2), VarSpec.scalar("g12")
    vc = VarSpec.scalar("c")
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    boundary = affine((vq, vs, vw), lambda q, s, w: sym_block([
        [-(q @ big_lam_inv), h @ q + b @ w, b @ s],
        [None, -math.exp(-mu) * (big_lam @ q), -w.swapaxes(-1, -2)],
        [None, None, -2.0 * s]]))
    coupling = affine((vg, vg12), lambda g, g12: sym_block([[g + g12 * swap, None],
                                                            [None, np.zeros((2, 2))]]),
                      const=sym_block([[np.zeros((2, 2)), nd], [None, np.eye(2)]]))
    decay = affine((vq, vg, vg12),
                   lambda q, g, g12: q @ np.diag(alpha - mu * lam) + g + g12 * swap)
    cap = affine((vq, vc), lambda q, c: q - c * np.eye(2))
    cons = (
        Constraint(boundary, LEQ, "boundary_block"),
        Constraint(coupling, GEQ, "disturbance_block"),
        Constraint(decay, LEQ, "decay_block"),
        Constraint(cap, LEQ, "peak_cap", eps=0.0),
        Constraint(affine((vq,), lambda q: q), GEQ, "q_pos"),
        Constraint(affine((vs,), lambda s: s), GEQ, "s_pos"),
        Constraint(affine((vg, vg12), lambda g, g12: g + g12 * swap), GEQ, "coupling_pos"),
    )
    return lmi.vectorize(LmiProblem((vq, vs, vw, vg, vg12, vc), cons,
                                    objective=((("c", 0), 1.0),), eps=eps))


def _free_entry_problem(objective: str):
    """min c or min y with [[c, 1], [1, c]] >= 0 and c <= 2: no constraint
    touches y."""
    vc, vy = VarSpec.scalar("c"), VarSpec.scalar("y")
    return lmi.vectorize(LmiProblem(
        (vc, vy),
        (Constraint(affine((vc,), lambda c: sym_block([[c, None], [None, c]]),
                           const=[[0.0, 1.0], [1.0, 0.0]]), GEQ, "hyperbola", eps=0.0),
         Constraint(affine((vc,), lambda c: c, const=[[-2.0]]), LEQ, "cap", eps=0.0)),
        objective=(((objective, 0), 1.0),)))


def _tiny_entry_problem(objective: str):
    """min c or min y with [[y + 1e-200 c, 1], [1, y]] >= 0 and y <= 2, in
    the layout of `_hyperbola_problem`: c's coefficient squared underflows,
    so phase 2's Schur complement has a zero row for c and no Cholesky
    factor, while phase 1's box rows keep that row positive."""
    vc, vy = VarSpec.scalar("c"), VarSpec.scalar("y")
    return lmi.vectorize(LmiProblem(
        (vc, vy),
        (Constraint(affine((vc, vy), lambda c, y: sym_block([[y + 1e-200 * c, None], [None, y]]),
                           const=[[0.0, 1.0], [1.0, 0.0]]), GEQ, "hyperbola", eps=0.0),
         Constraint(affine((vy,), lambda y: y, const=[[-2.0]]), LEQ, "cap", eps=0.0)),
        objective=(((objective, 0), 1.0),)))


def _hyperbola_problem():
    """min c with [[c, 1], [1, y]] >= 0 and y <= 2: c y >= 1, optimum 1/2."""
    vc, vy = VarSpec.scalar("c"), VarSpec.scalar("y")
    return lmi.vectorize(LmiProblem(
        (vc, vy),
        (Constraint(affine((vc, vy), lambda c, y: sym_block([[c, None], [None, y]]),
                           const=[[0.0, 1.0], [1.0, 0.0]]), GEQ, "hyperbola", eps=0.0),
         Constraint(affine((vy,), lambda y: y, const=[[-2.0]]), LEQ, "cap", eps=0.0)),
        objective=((("c", 0), 1.0),)))


def _rows_only_problem(objective, floor=1.0):
    """x >= floor, y >= 0 and x + y >= 3: rows only, no dense block."""
    vx, vy = VarSpec.scalar("x"), VarSpec.scalar("y")
    return lmi.vectorize(LmiProblem((vx, vy), (
        Constraint(affine((vx,), lambda x: x, const=[[-floor]]), GEQ, "x", eps=0.0),
        Constraint(affine((vy,), lambda y: y), GEQ, "y", eps=0.0),
        Constraint(affine((vx, vy), lambda x, y: x + y, const=[[-3.0]]), GEQ, "sum",
                   eps=0.0)), objective=objective))


def _phase1(sf):
    """Phase 1 alone on one standard form: its outcome (None when it found a
    feasible point) and its last x."""
    x, _, _, outcome = sdp._phase1(_stack([sf]), sf.initial[None])
    return outcome[0], x[0]


def _worst_margin(sf, x) -> float:
    return min(lmi.problem_margins(sf, x))


class TestFeasibility:
    def test_trivial_scalar(self):
        prob = _scalar_pos_problem()
        found, x = _phase1(prob)
        assert found is None
        assert x[0] > 0.0
        assert _worst_margin(prob, x) >= -1e-9

    def test_contradictory_pair(self):
        vx = VarSpec.scalar("x")
        prob = lmi.vectorize(LmiProblem(
            (vx,),
            (Constraint(affine((vx,), lambda x: x), GEQ, "pos"),
             Constraint(affine((vx,), lambda x: x, const=[[1.0]]), LEQ, "neg")),
            objective=((("x", 0), 1.0),)))
        sol = sdp.minimize(prob)
        assert sol.status is Status.INFEASIBLE
        assert sol.newton_steps[1] == 0
        # the dual bound s - gap clears the threshold within a few steps
        assert sol.newton_steps[0] < 20
        assert _worst_margin(prob, sol.x) < 0.0

    @pytest.mark.parametrize("problem", ["rows", "dense"])
    def test_feasible_set_without_interior_ends_numerical_failure(self, problem):
        # x >= 0 and x <= 0, or [[x, 1], [1, y]] >= 0 with x + y <= 2 (only
        # x = y = 1): phase 1 settles at a slack optimum of 0, which is no
        # verdict either way
        vx, vy = VarSpec.scalar("x"), VarSpec.scalar("y")
        x = affine((vx,), lambda x: x)
        if problem == "rows":
            specs = (vx,)
            cons = (Constraint(x, GEQ, "pos", eps=0.0), Constraint(x, LEQ, "neg", eps=0.0))
        else:
            specs = (vx, vy)
            hyperbola = affine((vx, vy), lambda x, y: sym_block([[x, None], [None, y]]),
                               const=[[0.0, 1.0], [1.0, 0.0]])
            cons = (Constraint(hyperbola, GEQ, "hyperbola", eps=0.0),
                    Constraint(affine((vx, vy), lambda x, y: x + y, const=[[-2.0]]), LEQ,
                               "sum", eps=0.0))
        prob = lmi.vectorize(LmiProblem(specs, cons, objective=((("x", 0), 1.0),)))
        assert (_stack([prob]).dims == ()) == (problem == "rows")
        sol = sdp.minimize(prob)
        assert sol.status is Status.NUMERICAL_FAILURE
        assert 0.0 <= sol.phase1_slack <= sdp._INFEASIBLE_SLACK
        assert sol.newton_steps[0] < 20 and sol.newton_steps[1] == 0
        assert sol.gap is None

    def test_demo_synthesis_constraints_feasible(self):
        prob = dataclasses.replace(_demo_synthesis_problem(1.0, 0.5), objective=None)
        found, x = _phase1(prob)
        assert found is None
        assert _worst_margin(prob, x) >= -1e-9

    @pytest.mark.parametrize("mu, alpha", [(1.0, 0.5), (2.0, 1.5)])
    def test_phase1_point_clears_every_block_by_the_exit_slack(self, mu, alpha):
        sf = _demo_synthesis_problem(mu, alpha)
        x, slack, _, outcome = sdp._phase1(_stack([sf]), sf.initial[None])
        assert outcome == [None] and slack[0] <= sdp._EXIT_SLACK
        for blk in sf.blocks:
            value = barrier_value(blk, x[0])
            floor = -sdp._EXIT_SLACK - 1e-15 * np.abs(value).max()
            assert np.linalg.eigvalsh(value).min() >= floor


class TestMinimize:
    def test_peak_of_bounded_diagonal(self):
        # min c with q >= I and q <= c I: optimum c = 1
        vq, vc = VarSpec.diagonal("q", 2), VarSpec.scalar("c")
        prob = lmi.vectorize(LmiProblem(
            (vq, vc),
            (Constraint(affine((vq,), lambda q: q, const=-np.eye(2)), GEQ, "floor"),
             Constraint(affine((vq, vc), lambda q, c: q - c * np.eye(2)), LEQ,
                        "cap", eps=0.0)),
            objective=((("c", 0), 1.0),)))
        sol = sdp.minimize(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-5)

    def test_correlation_corner(self):
        # min x with [[1, x], [x, 1]] >= eps I: optimum -1
        e = affine((VarSpec.scalar("x"),),
                   lambda x: sym_block([[np.zeros((1, 1)), x], [None, np.zeros((1, 1))]]),
                   const=np.eye(2))
        prob = lmi.vectorize(LmiProblem((VarSpec.scalar("x"),),
                                        (Constraint(e, GEQ, "corr"),),
                                        objective=((("x", 0), 1.0),)))
        sol = sdp.minimize(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-4)

    def test_eigenvalue_shift_against_scan(self):
        # min lam with diag(-3, 2) + lam I >= 0; oracle from a brute-force
        # scan over a lam grid
        a = np.diag([-3.0, 2.0])
        grid = np.linspace(0.0, 10.0, 100001)
        feas = [g for g in grid if np.min(np.diag(a) + g) >= 0.0]
        oracle = min(feas)
        assert oracle == pytest.approx(3.0, abs=1e-4)

        e = affine((VarSpec.scalar("lam"),), lambda lam: lam * np.eye(2), const=a)
        prob = lmi.vectorize(LmiProblem((VarSpec.scalar("lam"),),
                                        (Constraint(e, GEQ, "shift", eps=0.0),),
                                        objective=((("lam", 0), 1.0),)))
        sol = sdp.minimize(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(oracle, abs=1e-4)

    def test_rejects_missing_objective(self):
        with pytest.raises(ValueError):
            sdp.minimize(_scalar_pos_problem())

    @pytest.mark.parametrize("bounded_above", [False, True])
    def test_unbounded_objective_stops_at_the_box(self, bounded_above):
        # min x with x <= 1: phase 2 heads for x = -inf and stops once x
        # leaves the phase-1 box, not when the step budget runs out; min x
        # alone constrains nothing, so phase 2 has no cone to step in and
        # ends where it starts, with a zero gap
        x = affine((VarSpec.scalar("x"),), lambda x: x, const=[[-1.0]])
        cons = (Constraint(x, LEQ, "cap"),) if bounded_above else ()
        prob = LmiProblem((VarSpec.scalar("x"),), cons, objective=((("x", 0), 1.0),))
        sol = sdp.minimize(lmi.vectorize(prob))
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.objective is None
        assert sum(sol.newton_steps) < 100
        if bounded_above:
            assert sol.x[0] <= -sdp._PHASE1_BOX
        else:
            assert sol.gap is not None and np.all(np.isfinite(sol.x))

    @pytest.mark.parametrize("objective", ["y", "c"])
    def test_free_entry_ends_numerical_failure(self, objective):
        # no constraint touches y, so the Schur complement of phase 2's
        # first step has a zero row and no Cholesky factor
        sol = sdp.minimize(_free_entry_problem(objective))
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.objective is None
        assert sum(sol.newton_steps) < 100
        assert sol.gap is not None and np.all(np.isfinite(sol.x))

    def test_demo_synthesis_minimize(self):
        prob = _demo_synthesis_problem(1.0, 0.5)
        sol = sdp.minimize(prob)
        assert sol.status is Status.OPTIMAL
        # frozen from an independent convex solver run of the same constraints
        assert sol.objective == pytest.approx(11.1577, abs=5e-3)
        assert _worst_margin(prob, sol.x) >= -1e-9
        # phase 1 ends at its first iterate that clears every block
        assert sol.newton_steps[0] <= 12 and sum(sol.newton_steps) <= 80
        # one centering at t = 1, then primal-dual steps down to the gap
        assert sol.newton_steps[1] <= 25
        assert 0.0 < sol.gap < sdp._GAP_TOL

    def test_infeasible_detected(self):
        prob = _demo_synthesis_problem(1.0, 1.2)
        sol = sdp.minimize(prob)
        assert sol.status is Status.INFEASIBLE
        assert sol.objective is None and sol.gap is None
        assert _worst_margin(prob, sol.x) < 0.0

    @pytest.mark.parametrize("mu, alpha", [(0.25, 0.3), (0.5, 1.3), (1.5, 1.5)])
    def test_demo_infeasible_cells_end_on_the_duality_bound(self, mu, alpha):
        sol = sdp.minimize(_demo_synthesis_problem(mu, alpha))
        assert sol.status is Status.INFEASIBLE
        assert sol.newton_steps[0] <= 60 and sol.newton_steps[1] == 0


class TestSolutionContract:
    def test_margins_rechecked_nonnegative(self):
        for mu, alpha in ((0.5, 0.1), (1.0, 0.5), (2.0, 1.5)):
            prob = _demo_synthesis_problem(mu, alpha)
            sol = sdp.minimize(prob)
            assert sol.status is Status.OPTIMAL
            assert _worst_margin(prob, sol.x) >= -1e-9

    def test_objective_monotone_in_eps(self):
        lo = sdp.minimize(_demo_synthesis_problem(1.0, 0.5, eps=1e-6))
        hi = sdp.minimize(_demo_synthesis_problem(1.0, 0.5, eps=1e-3))
        assert lo.status is Status.OPTIMAL and hi.status is Status.OPTIMAL
        assert hi.objective >= lo.objective - 1e-6

    def test_deterministic_reruns(self):
        a = sdp.minimize(_demo_synthesis_problem(1.0, 0.5))
        b = sdp.minimize(_demo_synthesis_problem(1.0, 0.5))
        assert a.objective == b.objective
        assert a.status == b.status
        assert a.newton_steps == b.newton_steps
        assert np.array_equal(a.x, b.x)


class TestStructure:
    def test_diagonal_blocks_become_rows(self):
        sf = _demo_synthesis_problem(1.0, 0.5)
        cones = _stack([sf]).without_slack([0])
        # peak_cap, q_pos and s_pos are diagonal: 2 + 2 + 2 rows
        assert cones.b.size == 6
        assert cones.dims == (6, 4, 2, 2)
        assert cones.nu == sum(blk.dim for blk in sf.blocks)

    def test_rows_and_dense_block_closed_form(self):
        prob = _hyperbola_problem()
        cones = _stack([prob]).without_slack([0])
        assert cones.b.size == 1 and len(cones.dims) == 1
        sol = sdp.minimize(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(0.5, abs=1e-6)
        assert sol.x[prob.refs.index(("y", 0))] == pytest.approx(2.0, abs=1e-5)

    def test_rows_only_problem(self):
        # min 2x + y with x >= 1, y >= 0, x + y >= 3: optimum 4 at (1, 2)
        feas = _rows_only_problem(((("x", 0), 2.0), (("y", 0), 1.0)))
        assert _stack([feas]).dims == ()
        found, x = _phase1(feas)
        assert found is None
        assert _worst_margin(feas, x) > 0.0
        sol = sdp.minimize(feas)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(4.0, abs=1e-6)
        assert sol.x[feas.refs.index(("x", 0))] == pytest.approx(1.0, abs=1e-5)

    def test_random_plant_at_n8(self, random_plant_config):
        cfg = {"plant": random_plant_config(np.random.default_rng(8), 8, 1.0)}
        alpha = 0.5 * min(cfg["plant"]["lambda"])
        prob = lmi.vectorize(build_synthesis_lmis(cli._build_plant(cfg), 1.0, alpha))
        sol = sdp.minimize(prob)
        assert sol.status is Status.OPTIMAL
        assert _worst_margin(prob, sol.x) >= -1e-9
        assert sol.newton_steps[0] <= 15


_DEMO_MUS = np.linspace(0.25, 2.0, 8)
_DEMO_ALPHAS = np.linspace(0.1, 1.5, 8)


def _same_bits(a, b):
    assert a.status is b.status and a.newton_steps == b.newton_steps
    assert a.objective == b.objective and a.gap == b.gap
    assert a.phase1_slack == b.phase1_slack and a.x.tobytes() == b.x.tobytes()


def _stack_sizes(monkeypatch) -> list[int]:
    """The number of cells of each stack solved from here on."""
    sizes = []
    real = sdp._solve_stack

    def solve_stack(cones, *args):
        sizes.append(len(cones.b))
        return real(cones, *args)

    monkeypatch.setattr(sdp, "_solve_stack", solve_stack)
    return sizes


class TestBatch:
    def test_demo_grid_matches_one_cell_at_a_time(self):
        problems = [_demo_synthesis_problem(mu, alpha)
                    for mu in _DEMO_MUS for alpha in _DEMO_ALPHAS]
        batched = sdp.minimize_batch(problems)
        statuses = set()
        for problem, sol in zip(problems, batched):
            _same_bits(sol, sdp.minimize(problem))
            statuses.add(sol.status)
            if sol.status is Status.OPTIMAL:
                assert _worst_margin(problem, sol.x) >= -1e-9
        assert statuses == {Status.OPTIMAL, Status.INFEASIBLE}

    def test_cells_of_different_entries_stack_apart(self, monkeypatch):
        # at mu = alpha = 0.5 the decay block loses its q[0] term
        # (alpha - mu lambda_0 = 0), so its entries differ from those of
        # (0.5, 0.1): each cell is a stack of its own, the same bits as alone
        sfs = [_demo_synthesis_problem(0.5, alpha) for alpha in (0.5, 0.1)]
        assert len(sfs[0].blocks[2].idx) == len(sfs[1].blocks[2].idx) - 1
        assert sdp._layout(sfs[0]) != sdp._layout(sfs[1])
        stacks = _stack_sizes(monkeypatch)
        batch = sdp.minimize_batch(sfs)
        assert stacks == [1, 1]
        for sol, sf in zip(batch, sfs):
            _same_bits(sol, sdp.minimize(sf))

    @pytest.mark.parametrize("case", ["synthesis", "rows", "seven"])
    def test_stack_is_its_one_cell_stacks(self, demo_plant, case):
        # a stack of k forms of one layout evaluates each cell to the same
        # bits as that form's own stack, with phase 1's slack and without
        if case == "synthesis":
            sfs = [lmi.vectorize(build_synthesis_lmis(demo_plant, 0.5, alpha))
                   for alpha in (0.1, 0.3, 0.45)]
        elif case == "rows":
            sfs = [_rows_only_problem(((("x", 0), 2.0),), floor) for floor in (1.0, 1.5)]
        else:
            sfs = [_demo_synthesis_problem(mu, 0.3) for mu in (0.5, 1.0, 2.0)]
        assert len({sdp._layout(sf) for sf in sfs}) == 1
        assert (_stack(sfs[:1]).dims == ()) == (case == "rows")
        rng = np.random.default_rng(3)
        full = _stack(sfs)
        for stack, cells, n in ((full, [_stack([sf]) for sf in sfs], sfs[0].n + 1),
                                (full.without_slack(range(len(sfs))),
                                 [_stack([sf]).without_slack([0]) for sf in sfs], sfs[0].n)):
            x = rng.standard_normal((len(sfs), n))
            mats = rng.standard_normal(stack.base.shape)
            rowvals = rng.standard_normal(stack.b.shape)
            got = (stack.rows(x), stack.values(x), stack.span(x), stack.adjoint(mats, rowvals))
            for c, cell in enumerate(cells):
                one = slice(c, c + 1)
                want = (cell.rows(x[one]), cell.values(x[one]), cell.span(x[one]),
                        cell.adjoint(mats[one], rowvals[one]))
                for a, b in zip(got, want):
                    assert a[c].tobytes() == b[0].tobytes()

    def test_demo_grid_is_one_stack(self, demo_plant, monkeypatch):
        # the 41 demo cells below the decay bound share one layout
        stacks = _stack_sizes(monkeypatch)
        control.grid_search(demo_plant, _DEMO_MUS, _DEMO_ALPHAS)
        assert stacks == [41]

    @staticmethod
    def _one_cell_outside():
        """A phase-2 stack of three copies of the demo problem at (1.0, 0.5)
        and a point per cell: the optimum in cells 0 and 2, and in cell 1
        the optimum with gain_scaled far from zero, which breaks the
        boundary block, block 0, and no other block or row."""
        sf = _demo_synthesis_problem(1.0, 0.5)
        stacked = _stack([sf, sf, sf]).without_slack([0, 1, 2])
        inside = sdp.minimize(sf).x
        outside = inside.copy()
        outside[4:8] = 100.0
        x = np.stack([inside, outside, inside])
        assert np.all(stacked.rows(x) > 0.0)
        return sf, stacked, x

    def test_failed_factor_is_nan_in_its_own_block(self):
        # the one indefinite block reads NaN; every other factor, and its
        # inverse, keeps the bytes np.linalg gives that matrix alone
        _, stacked, x = self._one_cell_outside()
        smat = stacked.values(x)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(smat[1, 0])
        with pytest.warns(RuntimeWarning, match="invalid"):
            sdp._cholesky(smat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                factors = sdp._cholesky(smat)
                inverses = sdp._inv(factors)
        assert np.all(np.isnan(factors[1, 0])) and np.all(np.isnan(inverses[1, 0]))
        for c, j in np.ndindex(smat.shape[:2]):
            if (c, j) != (1, 0):
                alone = np.linalg.cholesky(smat[c, j])
                assert factors[c, j].tobytes() == alone.tobytes()
                assert inverses[c, j].tobytes() == np.linalg.inv(alone).tobytes()

    def test_failed_cholesky_in_one_cell_leaves_the_others(self):
        # the cell whose S has no Cholesky factor ends NUMERICAL_FAILURE
        # without a step; its stack mates keep the bits of the stack without
        # it, and no RuntimeWarning escapes the solver
        sf, stacked, x = self._one_cell_outside()
        cvec, budget = np.stack([sf.objective] * 3), np.full(3, sdp._MAX_NEWTON)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs, steps, outcome, gaps = sdp._primal_dual(stacked, cvec, x, budget)
            mates = sdp._primal_dual(stacked.take([0, 2]), cvec[[0, 2]], x[[0, 2]],
                                     budget[[0, 2]])
        assert outcome[1] is Status.NUMERICAL_FAILURE and steps[1] == 0
        assert xs[1].tobytes() == x[1].tobytes()
        assert outcome[::2] == mates[2] == [Status.OPTIMAL] * 2
        assert steps[::2].tolist() == mates[1].tolist() and gaps[::2] == mates[3]
        assert xs[::2].tobytes() == mates[0].tobytes()

    def test_demo_grid_factors_every_stack_whole(self, demo_plant, monkeypatch):
        # every Cholesky factor the demo grid asks for succeeds: no block of
        # any stack reads NaN
        calls, failed = [], []
        real = sdp._cholesky

        def cholesky(a):
            out = real(a)
            calls.append(a.shape)
            if np.isnan(out).any():
                failed.append(a.shape)
            return out

        monkeypatch.setattr(sdp, "_cholesky", cholesky)
        forms = [lmi.vectorize(build_synthesis_lmis(demo_plant, mu, alpha))
                 for mu in _DEMO_MUS for alpha in _DEMO_ALPHAS]
        solutions = sdp.minimize_batch(forms)
        assert len(solutions) == 64 and calls
        assert failed == []

    def test_stacks_split_under_the_memory_cap(self, monkeypatch):
        problems = [_demo_synthesis_problem(0.5, alpha) for alpha in (0.1, 0.3, 0.5, 1.3)]
        whole = sdp.minimize_batch(problems)
        stacks = _stack_sizes(monkeypatch)
        monkeypatch.setattr(sdp, "_STACK_BYTES", 1)
        for sol, ref in zip(sdp.minimize_batch(problems), whole):
            _same_bits(sol, ref)
        assert stacks == [1, 1, 1, 1]

    def test_batch_of_one_is_minimize(self):
        problem = _demo_synthesis_problem(1.0, 0.5)
        a = sdp.minimize_batch([problem])[0]
        b = sdp.minimize(problem)
        assert a.status is b.status is Status.OPTIMAL
        assert a.objective == b.objective
        assert a.newton_steps == b.newton_steps
        assert a.newton_steps[0] > 0 and a.newton_steps[1] > 0
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("case", ["y", "c", "rows"])
    def test_failing_cell_leaves_its_stack_mates_alone(self, case):
        # min y or min c beside a dense block, or min -x with rows only: the
        # failing cells end in phase 2, with no Schur factor or out of the
        # phase-1 box, before the healthy ones end, so the stack, an empty
        # block stack included, is compacted mid-run
        if case == "rows":
            healthy = _rows_only_problem(((("x", 0), 2.0), (("y", 0), 1.0)))
            failing = _rows_only_problem(((("x", 0), -1.0),))
            assert _stack([healthy]).dims == ()
        else:
            healthy, failing = _hyperbola_problem(), _tiny_entry_problem(case)
        assert sdp._layout(healthy) == sdp._layout(failing)
        alone = sdp.minimize(healthy)
        assert alone.status is Status.OPTIMAL
        batch = sdp.minimize_batch([failing, healthy, failing, healthy])
        assert [sol.status for sol in batch[::2]] == [Status.NUMERICAL_FAILURE] * 2
        assert sum(batch[0].newton_steps) < sum(alone.newton_steps)
        for sol in batch[1::2]:
            assert sol.status is alone.status
            assert sol.objective == alone.objective
            assert sol.newton_steps == alone.newton_steps
            assert sol.gap == alone.gap
            assert sol.x.tobytes() == alone.x.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lowest_masks_only_the_cell_that_is_not_finite(self, bad):
        # a stack with a cell that is not finite takes the masked path of
        # _lowest and a finite one the direct path: the cell reads NaN and
        # every other cell the bits of the stack without it
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 2, 3, 3))
        stack = a + a.transpose(0, 1, 3, 2)
        poisoned = stack.copy()
        poisoned[2, 1, 0, 2] = poisoned[2, 1, 2, 0] = bad
        keep = [0, 1, 3]
        low, without = sdp._lowest(poisoned), sdp._lowest(stack[keep])
        assert np.isnan(low[2]) and np.all(np.isfinite(without))
        assert low[keep].tobytes() == without.tobytes()
        assert sdp._lowest(stack)[keep].tobytes() == without.tobytes()
        # an empty block stack still reads +inf
        empty = np.zeros((3, 0, 0, 0))
        assert np.array_equal(sdp._lowest(empty), np.full(3, np.inf))

    def test_empty_batch_and_missing_objective(self):
        assert sdp.minimize_batch([]) == []
        with pytest.raises(ValueError):
            sdp.minimize_batch([_demo_synthesis_problem(1.0, 0.5), _scalar_pos_problem()])


class TestLapack:
    """sdp calls numpy's LAPACK gufuncs, which np.linalg's own functions
    call after their argument checks; this pins that private contract."""

    @pytest.mark.parametrize("shape", [(3, 0, 0, 0), (0, 2, 3, 3), (1, 1, 1, 1), (5, 3, 4, 4),
                                       (2, 4, 7, 7)])
    @pytest.mark.parametrize("name", ["cholesky", "inv", "eigvalsh"])
    def test_same_bytes_as_np_linalg(self, name, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        # symmetric positive definite, and a strided view; inv also takes a
        # general matrix and its transpose
        spd = a @ a.transpose(0, 1, 3, 2) + shape[-1] * np.eye(shape[-1])
        ours, theirs = getattr(sdp, "_" + name), getattr(np.linalg, name)
        stacks = [spd, spd[..., ::-1, ::-1]]
        if name == "inv":
            stacks += [a, a.transpose(0, 1, 3, 2)]
        for m in stacks:
            got, want = ours(m), theirs(m)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _against_the_barrier_path(sf, sol, status, peak):
    """A design held to the barrier path's: the same status, the peak
    within 1e-6 relative, no negative margin."""
    assert sol.status.value == status
    if peak is None:
        assert sol.objective is None
    else:
        assert sol.objective == pytest.approx(peak, rel=1e-6)
        assert min(lmi.problem_margins(sf, sol.x)) >= 0.0


def _seeded_plant(random_plant_config, n):
    return cli._build_plant({"plant": random_plant_config(np.random.default_rng(n), n, 1.0)})


class TestAgainstTheBarrierPath:
    def test_demo_grid(self, demo_plant):
        weights = [(mu, alpha) for mu in _DEMO_MUS for alpha in _DEMO_ALPHAS]
        assert weights == [row[:2] for row in BARRIER_DEMO_GRID]
        forms = [lmi.vectorize(build_synthesis_lmis(demo_plant, *w)) for w in weights]
        solutions = sdp.minimize_batch(forms)
        for sf, sol, row in zip(forms, solutions, BARRIER_DEMO_GRID):
            _against_the_barrier_path(sf, sol, *row[2:4])
        # 2046 phase-1 and 2550 phase-2 Newton steps on the barrier path
        assert sum(sol.newton_steps[0] for sol in solutions) <= 600
        assert sum(sol.newton_steps[1] for sol in solutions) <= 480
        # the barrier phase 1 walked every mu = 2 cell out to the box for
        # 60-70 steps
        last_row = [sol.newton_steps[0] for (mu, _), sol in zip(weights, solutions)
                    if mu == 2.0]
        assert len(last_row) == len(_DEMO_ALPHAS) and max(last_row) <= 15

    @pytest.mark.parametrize("n, status, peak, steps1", BARRIER_SEEDED)
    def test_seeded_design(self, random_plant_config, n, status, peak, steps1):
        plant = _seeded_plant(random_plant_config, n)
        sf = lmi.vectorize(build_synthesis_lmis(
            plant, 1.0, 0.5 * float(np.min(plant.speeds.diagonal))))
        sol = sdp.minimize(sf)
        _against_the_barrier_path(sf, sol, status, peak)
        assert sol.newton_steps[0] <= steps1
        # 51-61 phase-2 Newton steps on the barrier path
        assert sol.newton_steps[1] <= 35

    @pytest.mark.parametrize("n, ratio, status", BARRIER_SEEDED_INFEASIBLE)
    def test_seeded_infeasible(self, random_plant_config, n, ratio, status):
        plant = _seeded_plant(random_plant_config, n)
        sol = sdp.minimize(lmi.vectorize(build_synthesis_lmis(
            plant, 1.0, ratio * float(np.min(plant.speeds.diagonal)))))
        assert sol.status.value == status
        assert sol.phase1_slack > sdp._INFEASIBLE_SLACK and sol.newton_steps[1] == 0
