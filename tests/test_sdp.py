from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hypiss import cli, control, lmi, sdp
from hypiss.control import InfeasibleError, Plant, build_synthesis_lmis
from hypiss.lmi import (
    GEQ,
    LEQ,
    Constraint,
    LmiProblem,
    VarSpec,
    affine,
    sym_block,
)
from hypiss.linalg import DiagMatrix, Matrix
from hypiss.sdp import Status
from identities import (
    BARRIER_DEMO_GRID,
    BARRIER_SEEDED,
    BARRIER_SEEDED_INFEASIBLE,
    barrier_value,
    full_start,
)

# the plant of `_demo_synthesis_problem`
_DEMO = Plant(DiagMatrix(np.array([1.0, math.sqrt(2.0)])),
              Matrix(np.array([[0.25, 0.0], [-1.0, 0.25]])), Matrix(np.eye(2)), Matrix(np.eye(2)),
              np.array([0.3, 0.3]))


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


def _demo_start(sf, mu, alpha, eps=1e-6):
    """A strictly feasible entry vector of `_demo_synthesis_problem`:
    control's closed-form (Q, c) (`control._start`), S = 2 eps I, W = 0,
    and G = diag(g) halfway between the bounds that the decay block (g_i <
    q_i (mu lambda_i - alpha) - eps) and the disturbance and coupling
    blocks (g_i > eps + 1 / (1 - eps), as N = I) put on it."""
    [row] = control._rows(_DEMO, [mu])
    start = control._start(_DEMO, row, mu, alpha, eps)
    q, rates = start["lyap_inv"], mu * _DEMO.speeds.diagonal - alpha
    return sf.pack({"q": q, "s": np.full(2, 2.0 * eps), "w": np.zeros((2, 2)),
                    "g": (q * rates + 1.0 / (1.0 - eps)) / 2.0, "g12": [0.0],
                    "c": start["peak"]})


def _demo_solve(mu, alpha, eps=1e-6):
    """`_demo_synthesis_problem` and its solve from `_demo_start`."""
    sf = _demo_synthesis_problem(mu, alpha, eps)
    return sf, sdp.minimize(sf, _demo_start(sf, mu, alpha, eps))


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
    so the Schur complement has a zero row for c and no Cholesky factor."""
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


def _diagonal_only_problem(objective, floor=1.0):
    """x >= floor, y >= 0 and x + y >= 3: 1x1 blocks only."""
    vx, vy = VarSpec.scalar("x"), VarSpec.scalar("y")
    return lmi.vectorize(LmiProblem((vx, vy), (
        Constraint(affine((vx,), lambda x: x, const=[[-floor]]), GEQ, "x", eps=0.0),
        Constraint(affine((vy,), lambda y: y), GEQ, "y", eps=0.0),
        Constraint(affine((vx, vy), lambda x, y: x + y, const=[[-3.0]]), GEQ, "sum",
                   eps=0.0)), objective=objective))


def _worst_margin(sf, x) -> float:
    return min(lmi.problem_margins(sf, x))


class TestFeasibility:
    def test_trivial_scalar(self):
        # min x with x >= eps, from x = 1
        prob = dataclasses.replace(_scalar_pos_problem(), objective=np.ones(1))
        sol = sdp.minimize(prob, [1.0])
        assert sol.status is Status.OPTIMAL
        assert sol.x[0] == pytest.approx(1e-6, abs=1e-7)
        assert _worst_margin(prob, sol.x) >= -1e-9

    def test_contradictory_pair(self):
        # x >= eps and x <= -1 - eps: every start breaks a block, and the
        # solver ends the cell at once, without a step or a verdict
        vx = VarSpec.scalar("x")
        prob = lmi.vectorize(LmiProblem(
            (vx,),
            (Constraint(affine((vx,), lambda x: x), GEQ, "pos"),
             Constraint(affine((vx,), lambda x: x, const=[[1.0]]), LEQ, "neg")),
            objective=((("x", 0), 1.0),)))
        sol = sdp.minimize(prob, [0.0])
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.newton_steps == 0 and sol.objective is None
        assert _worst_margin(prob, sol.x) < 0.0

    @pytest.mark.parametrize("problem", ["diagonal", "dense"])
    def test_feasible_set_without_interior_ends_numerical_failure(self, problem):
        # x >= 0 and x <= 0, or [[x, 1], [1, y]] >= 0 with x + y <= 2 (only
        # x = y = 1): its one point is no strictly feasible start, and the
        # solver ends the cell there, with no RuntimeWarning
        vx, vy = VarSpec.scalar("x"), VarSpec.scalar("y")
        x = affine((vx,), lambda x: x)
        if problem == "diagonal":
            specs, start = (vx,), [0.0]
            cons = (Constraint(x, GEQ, "pos", eps=0.0), Constraint(x, LEQ, "neg", eps=0.0))
        else:
            specs, start = (vx, vy), [1.0, 1.0]
            hyperbola = affine((vx, vy), lambda x, y: sym_block([[x, None], [None, y]]),
                               const=[[0.0, 1.0], [1.0, 0.0]])
            cons = (Constraint(hyperbola, GEQ, "hyperbola", eps=0.0),
                    Constraint(affine((vx, vy), lambda x, y: x + y, const=[[-2.0]]), LEQ,
                               "sum", eps=0.0))
        prob = lmi.vectorize(LmiProblem(specs, cons, objective=((("x", 0), 1.0),)))
        assert _stack([prob]).dims == ((1, 1) if problem == "diagonal" else (2, 1))
        sol = sdp.minimize(prob, start)
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.newton_steps == 0
        assert sol.gap is None

    @pytest.mark.parametrize("problem", ["hyperbola", "pair"])
    def test_start_outside_the_cone_ends_before_a_step(self, monkeypatch, problem):
        # [[x, 1], [1, y]] >= 0 at (0.2, 3.0) is indefinite, and x >= eps,
        # x <= -1 - eps at x = -0.5 breaks both 1x1 blocks: a block with no
        # Cholesky factor reads NaN in Z, so the cell ends at its start with
        # no gap, before any Schur complement is formed
        vx, vy = VarSpec.scalar("x"), VarSpec.scalar("y")
        if problem == "hyperbola":
            specs, start = (vx, vy), [0.2, 3.0]
            cons = (Constraint(affine((vx, vy), lambda x, y: sym_block([[x, None], [None, y]]),
                                      const=[[0.0, 1.0], [1.0, 0.0]]), GEQ, "hyperbola",
                               eps=0.0),)
        else:
            specs, start = (vx,), [-0.5]
            cons = (Constraint(affine((vx,), lambda x: x), GEQ, "pos"),
                    Constraint(affine((vx,), lambda x: x, const=[[1.0]]), LEQ, "neg"))
        prob = lmi.vectorize(LmiProblem(specs, cons, objective=((("x", 0), 1.0),)))
        assert _worst_margin(prob, np.array(start)) < 0.0
        schur = []
        monkeypatch.setattr(sdp, "_hkm", lambda *args: schur.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = sdp.minimize(prob, start)
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.newton_steps == 0 and sol.objective is None and sol.gap is None
        assert sol.x.tolist() == start and schur == []

    def test_demo_synthesis_constraints_feasible(self):
        # the closed-form start is strictly inside every block
        prob = _demo_synthesis_problem(1.0, 0.5)
        assert _worst_margin(prob, _demo_start(prob, 1.0, 0.5)) > 0.0

    @pytest.mark.parametrize("mu, alpha", [(1.0, 0.5), (2.0, 1.5)])
    def test_start_clears_every_block(self, mu, alpha):
        sf = _demo_synthesis_problem(mu, alpha)
        x = _demo_start(sf, mu, alpha)
        for blk in sf.blocks:
            assert np.linalg.eigvalsh(barrier_value(blk, x)).min() > 0.0, blk.label


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
        sol = sdp.minimize(prob, [2.0, 2.0, 3.0])
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
        sol = sdp.minimize(prob, [0.0])
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
        sol = sdp.minimize(prob, [4.0])
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(oracle, abs=1e-4)

    def test_rejects_missing_objective(self):
        with pytest.raises(ValueError):
            sdp.minimize(_scalar_pos_problem(), [1.0])

    @pytest.mark.parametrize("bounded_above", [False, True])
    def test_unbounded_objective_stops_at_the_box(self, bounded_above):
        # min x with x <= 1: the solver heads for x = -inf and stops once x
        # leaves the box, not when the step budget runs out; min x alone
        # constrains nothing, so the solver has no cone to step in and ends
        # where it starts, with a zero gap
        x = affine((VarSpec.scalar("x"),), lambda x: x, const=[[-1.0]])
        cons = (Constraint(x, LEQ, "cap"),) if bounded_above else ()
        prob = LmiProblem((VarSpec.scalar("x"),), cons, objective=((("x", 0), 1.0),))
        sol = sdp.minimize(lmi.vectorize(prob), [0.0])
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.objective is None
        assert sol.newton_steps < 100
        if bounded_above:
            assert sol.x[0] <= -sdp._BOX
        else:
            assert sol.gap is not None and np.all(np.isfinite(sol.x))

    @pytest.mark.parametrize("objective", ["y", "c"])
    def test_free_entry_ends_numerical_failure(self, objective):
        # no constraint touches y, so the Schur complement of the first step
        # has a zero row and no Cholesky factor
        sol = sdp.minimize(_free_entry_problem(objective), [1.5, 0.0])
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.objective is None
        assert sol.newton_steps < 100
        assert sol.gap is not None and np.all(np.isfinite(sol.x))

    def test_demo_synthesis_minimize(self):
        prob, sol = _demo_solve(1.0, 0.5)
        assert sol.status is Status.OPTIMAL
        # frozen from an independent convex solver run of the same constraints
        assert sol.objective == pytest.approx(11.1577, abs=5e-3)
        assert _worst_margin(prob, sol.x) >= -1e-9
        # centering at mu = 1, then primal-dual steps down to the gap
        assert sol.newton_steps <= 80
        assert 0.0 < sol.gap < sdp._GAP_TOL

    def test_infeasible_detected(self):
        # past the demo's mu edge -2 ln 0.25 no diagonal Q > 0 makes the
        # open-loop block negative definite: its row problem ends optimal
        # with a positive bound s - gap on its optimum
        row = lmi.vectorize(control.build_row_lmis(_DEMO, 2.78))
        top = np.linalg.eigvalsh(control._open_loop(_DEMO, 2.78)(np.eye(2) / 2.0))[-1]
        sol = sdp.minimize(row, [0.5, top + 1.0])
        assert sol.status is Status.OPTIMAL
        assert sol.objective - sol.gap > 1e-7
        assert control._rows(_DEMO, [2.78])[0].verdict == "infeasible"

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.5])
    def test_reflection_rows_end_on_the_duality_bound(self, reflection_plant, mu):
        # the demo's infeasible cells are past the decay bound and reach no
        # solver; the uncontrolled reflection's rows end on the bound s - gap
        [row] = control._rows(reflection_plant, [mu])
        assert row.verdict == "infeasible" and row.bound > control._RESOLUTION
        assert 0 < row.steps <= 60


class TestSolutionContract:
    def test_margins_rechecked_nonnegative(self):
        for mu, alpha in ((0.5, 0.1), (1.0, 0.5), (2.0, 1.5)):
            prob, sol = _demo_solve(mu, alpha)
            assert sol.status is Status.OPTIMAL
            assert _worst_margin(prob, sol.x) >= -1e-9

    def test_objective_monotone_in_eps(self):
        _, lo = _demo_solve(1.0, 0.5, eps=1e-6)
        _, hi = _demo_solve(1.0, 0.5, eps=1e-3)
        assert lo.status is Status.OPTIMAL and hi.status is Status.OPTIMAL
        assert hi.objective >= lo.objective - 1e-6

    def test_deterministic_reruns(self):
        _, a = _demo_solve(1.0, 0.5)
        _, b = _demo_solve(1.0, 0.5)
        assert a.objective == b.objective
        assert a.status == b.status
        assert a.newton_steps == b.newton_steps
        assert np.array_equal(a.x, b.x)


class TestStructure:
    def test_every_block_is_a_block_of_the_stack(self, demo_plant):
        # one cone type: the diagonal blocks peak_cap, q_pos, s_pos and
        # simplex are blocks of the padded stack like the dense ones
        forms = {"synthesis": build_synthesis_lmis(demo_plant, 1.0, 0.5),
                 "projected": control.build_projected_lmis(demo_plant, 1.0, 0.5),
                 "row": control.build_row_lmis(demo_plant, 1.0)}
        dims = {"synthesis": (6, 4, 2, 2, 2), "projected": (4, 4, 2, 2), "row": (4, 2)}
        for name, problem in forms.items():
            sf = lmi.vectorize(problem)
            cones = _stack([sf])
            assert cones.dims == dims[name] == tuple(blk.dim for blk in sf.blocks), name
            assert cones.nu == sum(blk.dim for blk in sf.blocks)

    def test_diagonal_and_dense_block_closed_form(self):
        prob = _hyperbola_problem()
        cones = _stack([prob])
        assert cones.dims == (2, 1)
        sol = sdp.minimize(prob, [1.0, 1.5])
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(0.5, abs=1e-6)
        assert sol.x[prob.refs.index(("y", 0))] == pytest.approx(2.0, abs=1e-5)

    def test_diagonal_only_problem(self):
        # min 2x + y with x >= 1, y >= 0, x + y >= 3: optimum 4 at (1, 2)
        feas = _diagonal_only_problem(((("x", 0), 2.0), (("y", 0), 1.0)))
        assert _stack([feas]).dims == (1, 1, 1)
        assert _worst_margin(feas, [2.0, 2.0]) > 0.0
        sol = sdp.minimize(feas, [2.0, 2.0])
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(4.0, abs=1e-6)
        assert sol.x[feas.refs.index(("x", 0))] == pytest.approx(1.0, abs=1e-5)

    def test_random_plant_at_n8(self, random_plant_config):
        cfg = {"plant": random_plant_config(np.random.default_rng(8), 8, 1.0)}
        alpha = 0.5 * min(cfg["plant"]["lambda"])
        plant = cli._build_plant(cfg)
        prob = lmi.vectorize(build_synthesis_lmis(plant, 1.0, alpha))
        sol = sdp.minimize(prob, full_start(prob, plant, 1.0, alpha))
        assert sol.status is Status.OPTIMAL
        assert _worst_margin(prob, sol.x) >= -1e-9
        assert sol.newton_steps <= 40


_DEMO_MUS = np.linspace(0.25, 2.0, 8)
_DEMO_ALPHAS = np.linspace(0.1, 1.5, 8)


def _same_bits(a, b):
    assert a.status is b.status and a.newton_steps == b.newton_steps
    assert a.objective == b.objective and a.gap == b.gap
    assert a.x.tobytes() == b.x.tobytes()


def _stack_sizes(monkeypatch) -> list[int]:
    """The number of cells of each stack solved from here on."""
    sizes = []
    real = sdp._cones

    def cones(forms, layout):
        sizes.append(len(forms))
        return real(forms, layout)

    monkeypatch.setattr(sdp, "_cones", cones)
    return sizes


def _demo_below_the_bound():
    """The cells of the demo 8x8 grid below the decay bound alpha < mu."""
    return [(mu, alpha) for mu in _DEMO_MUS for alpha in _DEMO_ALPHAS if alpha < mu]


class TestBatch:
    def test_demo_grid_matches_one_cell_at_a_time(self):
        weights = _demo_below_the_bound()
        problems = [_demo_synthesis_problem(*w) for w in weights]
        starts = [_demo_start(sf, *w) for sf, w in zip(problems, weights)]
        batched = sdp.minimize_batch(problems, starts)
        statuses = set()
        for problem, start, sol in zip(problems, starts, batched):
            _same_bits(sol, sdp.minimize(problem, start))
            statuses.add(sol.status)
            assert _worst_margin(problem, sol.x) >= -1e-9
        assert len(weights) == 41 and statuses == {Status.OPTIMAL}

    def test_cells_of_different_entries_stack_apart(self, monkeypatch):
        # the demo problem and the hyperbola have other entries: each cell
        # is a stack of its own, the same bits as alone
        sfs = [_demo_synthesis_problem(0.5, 0.1), _hyperbola_problem()]
        starts = [_demo_start(sfs[0], 0.5, 0.1), np.array([1.0, 1.5])]
        assert sdp._layout(sfs[0]) != sdp._layout(sfs[1])
        stacks = _stack_sizes(monkeypatch)
        batch = sdp.minimize_batch(sfs, starts)
        assert stacks == [1, 1]
        for sol, sf, start in zip(batch, sfs, starts):
            _same_bits(sol, sdp.minimize(sf, start))

    @pytest.mark.parametrize("case", ["synthesis", "diagonal", "seven"])
    def test_stack_is_its_one_cell_stacks(self, demo_plant, case):
        # a stack of k forms of one layout evaluates each cell to the same
        # bits as that form's own stack
        if case == "synthesis":
            sfs = [lmi.vectorize(build_synthesis_lmis(demo_plant, 0.5, alpha))
                   for alpha in (0.1, 0.3, 0.45)]
        elif case == "diagonal":
            sfs = [_diagonal_only_problem(((("x", 0), 2.0),), floor) for floor in (1.0, 1.5)]
        else:
            sfs = [_demo_synthesis_problem(mu, 0.3) for mu in (0.5, 1.0, 2.0)]
        assert len({sdp._layout(sf) for sf in sfs}) == 1
        assert _stack(sfs[:1]).dims == tuple(blk.dim for blk in sfs[0].blocks)
        rng = np.random.default_rng(3)
        stack = _stack(sfs)
        x = rng.standard_normal((len(sfs), sfs[0].n))
        mats = rng.standard_normal(stack.base.shape)
        got = (stack.values(x), stack.span(x), stack.adjoint(mats))
        for c, sf in enumerate(sfs):
            cell, one = _stack([sf]), slice(c, c + 1)
            want = (cell.values(x[one]), cell.span(x[one]), cell.adjoint(mats[one]))
            for a, b in zip(got, want):
                assert a[c].tobytes() == b[0].tobytes()

    def test_demo_grid_is_one_stack(self, demo_plant, monkeypatch):
        # the 8 row problems share one layout, and so do the 41 demo cells
        # below the decay bound
        stacks = _stack_sizes(monkeypatch)
        control.grid_search(demo_plant, _DEMO_MUS, _DEMO_ALPHAS)
        assert stacks == [8, 41]

    @staticmethod
    def _one_cell_outside():
        """A stack of three copies of the demo problem at (1.0, 0.5) and a
        point per cell: the optimum in cells 0 and 2, and in cell 1 the
        optimum with gain_scaled far from zero, which breaks the boundary
        block, block 0, and no other block."""
        sf, sol = _demo_solve(1.0, 0.5)
        stacked = _stack([sf, sf, sf])
        inside = sol.x
        outside = inside.copy()
        outside[4:8] = 100.0
        x = np.stack([inside, outside, inside])
        holds = [[m > 0.0 for m in lmi.problem_margins(sf, point)] for point in x]
        assert holds[::2] == [[True] * len(sf.blocks)] * 2
        assert holds[1] == [False] + [True] * (len(sf.blocks) - 1)
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
            xs, steps, outcome, gaps = sdp._primal_dual(stacked, cvec, x, budget, -np.inf)
            mates = sdp._primal_dual(stacked.take([0, 2]), cvec[[0, 2]], x[[0, 2]],
                                     budget[[0, 2]], -np.inf)
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

        weights = _demo_below_the_bound()
        forms = [lmi.vectorize(build_synthesis_lmis(demo_plant, *w)) for w in weights]
        starts = [full_start(sf, demo_plant, *w) for sf, w in zip(forms, weights)]
        monkeypatch.setattr(sdp, "_cholesky", cholesky)
        solutions = sdp.minimize_batch(forms, starts)
        assert len(solutions) == 41 and calls
        assert failed == []

    def test_stacks_split_under_the_memory_cap(self, monkeypatch):
        alphas = (0.1, 0.2, 0.3, 0.4)
        problems = [_demo_synthesis_problem(0.5, alpha) for alpha in alphas]
        starts = [_demo_start(sf, 0.5, alpha) for sf, alpha in zip(problems, alphas)]
        whole = sdp.minimize_batch(problems, starts)
        stacks = _stack_sizes(monkeypatch)
        monkeypatch.setattr(sdp, "_STACK_BYTES", 1)
        for sol, ref in zip(sdp.minimize_batch(problems, starts), whole):
            _same_bits(sol, ref)
        assert stacks == [1, 1, 1, 1]

    def test_batch_of_one_is_minimize(self):
        problem = _demo_synthesis_problem(1.0, 0.5)
        start = _demo_start(problem, 1.0, 0.5)
        a = sdp.minimize_batch([problem], [start])[0]
        b = sdp.minimize(problem, start)
        assert a.status is b.status is Status.OPTIMAL
        assert a.objective == b.objective
        assert a.newton_steps == b.newton_steps
        assert a.newton_steps > 0
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("case", ["y", "c", "diagonal"])
    def test_failing_cell_leaves_its_stack_mates_alone(self, case):
        # min y or min c beside a dense block, or min -x with 1x1 blocks
        # only: the failing cells end with no Schur factor or out of the box
        # before the healthy ones end, so the stack is compacted mid-run
        if case == "diagonal":
            healthy = _diagonal_only_problem(((("x", 0), 2.0), (("y", 0), 1.0)))
            failing = _diagonal_only_problem(((("x", 0), -1.0),))
            starts = [[2.0, 2.0]] * 2
            assert _stack([healthy]).dims == (1, 1, 1)
        else:
            healthy, failing = _hyperbola_problem(), _tiny_entry_problem(case)
            starts = [[1.0, 1.5], [0.0, 1.5]]
        assert sdp._layout(healthy) == sdp._layout(failing)
        alone = sdp.minimize(healthy, starts[0])
        assert alone.status is Status.OPTIMAL
        batch = sdp.minimize_batch([failing, healthy, failing, healthy], starts[::-1] * 2)
        assert [sol.status for sol in batch[::2]] == [Status.NUMERICAL_FAILURE] * 2
        assert batch[0].newton_steps < alone.newton_steps
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
        assert sdp.minimize_batch([], []) == []
        sf = _demo_synthesis_problem(1.0, 0.5)
        with pytest.raises(ValueError):
            sdp.minimize_batch([sf, _scalar_pos_problem()], [_demo_start(sf, 1.0, 0.5), [1.0]])


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
        # the cells below the decay bound are solved from the closed-form
        # start; the barrier path's infeasible cells are all past the bound
        weights = [(mu, alpha) for mu in _DEMO_MUS for alpha in _DEMO_ALPHAS]
        assert weights == [row[:2] for row in BARRIER_DEMO_GRID]
        below = _demo_below_the_bound()
        forms = [lmi.vectorize(build_synthesis_lmis(demo_plant, *w)) for w in below]
        solutions = dict(zip(below, sdp.minimize_batch(
            forms, [full_start(sf, demo_plant, *w) for sf, w in zip(forms, below)])))
        for sf, w in zip(forms, below):
            row = BARRIER_DEMO_GRID[weights.index(w)]
            _against_the_barrier_path(sf, solutions[w], *row[2:4])
        for row in BARRIER_DEMO_GRID:
            if row[:2] not in solutions:
                assert row[2] == "infeasible"
                assert control._decay_bound(demo_plant, *row[:2], lmi.DEFAULT_EPS) is not None
        # 2046 + 2550 Newton steps in the two phases of the barrier path, 447
        # + 453 in the primal-dual ones; 1122 from the closed-form start
        assert sum(sol.newton_steps for sol in solutions.values()) <= 1200

    @pytest.mark.parametrize("n, status, peak, steps1", BARRIER_SEEDED)
    def test_seeded_design(self, random_plant_config, n, status, peak, steps1):
        plant = _seeded_plant(random_plant_config, n)
        alpha = 0.5 * float(np.min(plant.speeds.diagonal))
        sf = lmi.vectorize(build_synthesis_lmis(plant, 1.0, alpha))
        sol = sdp.minimize(sf, full_start(sf, plant, 1.0, alpha))
        _against_the_barrier_path(sf, sol, status, peak)
        # 51-61 phase-2 Newton steps on the barrier path
        assert sol.newton_steps <= 35

    @pytest.mark.parametrize("n, ratio, status", BARRIER_SEEDED_INFEASIBLE)
    def test_seeded_infeasible(self, random_plant_config, n, ratio, status):
        # past the decay bound the verdict is the closed-form one: no row
        # and no design reaches the solver
        plant = _seeded_plant(random_plant_config, n)
        with pytest.raises(InfeasibleError) as exc:
            control.synthesize(plant, 1.0, ratio * float(np.min(plant.speeds.diagonal)))
        assert status == "infeasible"
        assert exc.value.row is None and exc.value.solution is None
