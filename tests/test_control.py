import dataclasses
import math

import numpy as np
import pytest

from hypiss import cli, control, lmi, sdp
from hypiss.control import (
    BoundaryLaw,
    InfeasibleError,
    Plant,
    build_analysis_lmis,
    build_synthesis_lmis,
    closed_loop_boundary,
    grid_search,
    iss_coefficients,
    saturate,
    synthesize,
    verify_analysis,
    wellposedness_certificate,
)
from hypiss.linalg import DiagMatrix, Matrix, SymMatrix, invert_diag
from identities import (
    analysis_point,
    congruent_boundary_block,
    deadzone,
    form_bytes,
    paper_analysis_margins,
    paper_synthesis_margins,
    reference_margins,
    sector_value,
    synthesis_point,
)

# design values quoted for the demo plant at mu=1, alpha=0.5, used as a
# fixed admissibility point throughout
LYAP_INV = np.array([12.5, 82.0])
COUPLING_HAT = np.array([[4.07, 0.195], [0.195, 36.3]])
REPORTED_GAIN = np.array([[-0.24, 0.0], [0.33, -0.08]])
REPORTED_SECTOR_INV = np.array([11.767287269683061, 18.422264242336125])


def _reflectionless_plant() -> Plant:
    return Plant(
        speeds=DiagMatrix(np.array([1.0, math.sqrt(2.0)])),
        reflection=Matrix(np.zeros((2, 2))),
        input_map=Matrix(np.eye(2)),
        disturbance_map=Matrix(np.eye(2)),
        u_max=np.array([0.3, 0.3]),
    )


class TestPlant:
    def test_dimensions(self, demo_plant):
        assert (demo_plant.n, demo_plant.m, demo_plant.q) == (2, 2, 2)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            Plant(DiagMatrix(np.array([1.0, 0.0])), Matrix(np.eye(2)),
                  Matrix(np.eye(2)), Matrix(np.eye(2)), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Plant(DiagMatrix(np.array([1.0])), Matrix(np.eye(2)),
                  Matrix(np.eye(2)), Matrix(np.eye(2)), np.array([1.0, 1.0]))

    def test_rejects_bad_saturation_levels(self):
        with pytest.raises(ValueError):
            Plant(DiagMatrix(np.array([1.0, 2.0])), Matrix(np.eye(2)),
                  Matrix(np.eye(2)), Matrix(np.eye(2)), np.array([0.3, -0.3]))


class TestSaturation:
    def test_clamps_componentwise(self):
        out = saturate([0.1, -2.0, 5.0], [0.3, 0.3, 0.3])
        assert np.allclose(out, [0.1, -0.3, 0.3])

    def test_clamp_matches_clip_bit_for_bit(self):
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                    1e308, -1e308]
        for lim in (0.3, 5e-324, 1e308, math.inf):
            for u in specials + [lim, -lim]:
                got = saturate([u], [lim])
                assert got.tobytes() == np.clip([u], -lim, lim).tobytes(), (u, lim)

    def test_deadzone_vanishes_in_linear_range(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-0.3, 0.3, size=(200, 2))
        assert np.all(deadzone(u, [0.3, 0.3]) == 0.0)

    def test_saturation_splits_exactly_near_the_limits(self):
        # u + deadzone(u) reproduces saturate(u) bit for bit as long as
        # |u| stays within twice the level (the subtraction is then exact)
        rng = np.random.default_rng(17)
        lim = np.array([0.3, 0.3])
        u = rng.uniform(-2 * 0.3, 2 * 0.3, size=(10000, 2))
        assert np.all(u + deadzone(u, lim) == saturate(u, lim))

    def test_saturation_split_far_from_the_limits(self):
        rng = np.random.default_rng(18)
        lim = np.array([0.3, 0.3])
        u = rng.uniform(-3.0, 3.0, size=(10000, 2))
        assert np.allclose(u + deadzone(u, lim), saturate(u, lim),
                           rtol=0.0, atol=1e-15)

    def test_sector_value_never_positive(self):
        rng = np.random.default_rng(11)
        lim = np.array([0.3, 0.3])
        worst = -math.inf
        for _ in range(10000):
            t = DiagMatrix(rng.uniform(0.01, 10.0, size=2))
            nu = rng.uniform(-5.0, 5.0, size=2)
            worst = max(worst, sector_value(nu, lim, t))
        assert worst <= 0.0

    def test_sector_value_zero_in_linear_range(self):
        t = DiagMatrix(np.array([1.0, 2.0]))
        assert sector_value([0.2, -0.1], [0.3, 0.3], t) == 0.0


class TestClosedLoopBoundary:
    def test_matches_direct_form(self, demo_plant, demo_gain):
        # (H + BK) x + B dz(Kx) and H x + B sat(Kx) agree up to rounding
        rng = np.random.default_rng(7)
        h = demo_plant.reflection.array
        k = demo_gain.array
        law = BoundaryLaw.of(demo_plant, demo_gain)
        for _ in range(300):
            x = rng.uniform(-4.0, 4.0, size=2)
            got = closed_loop_boundary(law, x)
            want = h @ x + saturate(k @ x, demo_plant.u_max)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_zero_gain_is_pure_reflection(self, demo_plant):
        x = np.array([0.7, -1.3])
        zero = Matrix(np.zeros((demo_plant.m, demo_plant.n)))
        out = closed_loop_boundary(BoundaryLaw.of(demo_plant, zero), x)
        assert np.array_equal(out, demo_plant.reflection.array @ x)

    def test_law_formed_once_matches_the_formula_bit_for_bit(self):
        # H + B K and -u_max formed once per run must give the bytes of
        # forming them at every call, on the strided outflow column a
        # simulation passes, for every shape including one input with
        # n >= 4: inside the linear range, saturating, with K x at +-u_max
        # exactly, at +-0.0 and with a NaN entry
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            for m in range(1, 4):
                plant = Plant(DiagMatrix(rng.uniform(0.5, 2.0, n)),
                              Matrix(rng.uniform(-0.5, 0.5, (n, n))),
                              Matrix(rng.standard_normal((n, m))),
                              Matrix(np.eye(n)), rng.uniform(0.2, 1.0, m))
                gain = Matrix(rng.standard_normal((m, n)))
                h, b, k = plant.reflection.array, plant.input_map.array, gain.array
                signed_zero = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
                with_nan = rng.uniform(-1.0, 1.0, n)
                with_nan[n // 2] = np.nan
                # the second outflow lies along K's first row, so that
                # channel saturates; at the third the levels are set to |K x|
                for last, saturating, edge in ((rng.uniform(-0.01, 0.01, n), False, False),
                                               (50.0 * k[0], True, False),
                                               (rng.uniform(-1.0, 1.0, n), False, True),
                                               (signed_zero, False, False),
                                               (with_nan, False, False)):
                    state = np.column_stack([rng.uniform(-1.0, 1.0, (n, 8)), last])
                    x = state[:, -1]
                    p = dataclasses.replace(plant, u_max=np.abs(k @ x)) if edge else plant
                    law = BoundaryLaw.of(p, gain)
                    assert np.any(np.abs(k @ x) > p.u_max) == saturating
                    want = (h + b @ k) @ x + b @ deadzone(k @ x, p.u_max)
                    assert closed_loop_boundary(law, x).tobytes() == want.tobytes()


class TestSynthesisLmis:
    def test_rejects_nonpositive_weights(self, demo_plant):
        with pytest.raises(ValueError):
            build_synthesis_lmis(demo_plant, 0.0, 0.5)
        with pytest.raises(ValueError):
            build_synthesis_lmis(demo_plant, 1.0, -0.5)

    def test_reported_point_satisfies_decay_block(self, demo_plant, demo_gain,
                                                  demo_certificate):
        # hand expansion of the paper's decay inequality at the quoted design
        # values: eigenvalues of
        # [[12.5(0.5-1)+4.07, 0.195], [0.195, 82(0.5-sqrt2)+36.3]]
        reported = dataclasses.replace(
            demo_certificate, lyap_inv=DiagMatrix(LYAP_INV),
            sector_inv=DiagMatrix(np.array([1.0, 1.0])),
            gain_scaled=Matrix(demo_gain.array @ np.diag(LYAP_INV)),
            coupling=SymMatrix(COUPLING_HAT), peak=82.0, mu=1.0, alpha=0.5, eps=0.0)
        paper = paper_synthesis_margins(demo_plant, reported, eps=0.0)
        assert abs(paper["decay_block"] - 2.1789) < 1e-3
        # the coupling meets the decay block, so the merged block holds with
        # at least the disturbance block's margin
        merged = control.synthesis_margins(demo_plant, reported)
        assert merged["disturbance_decay_block"] >= paper["disturbance_block"] > 0.0

    def test_reported_point_satisfies_all_blocks(self, demo_plant, demo_gain):
        sf = lmi.vectorize(build_synthesis_lmis(demo_plant, 1.0, 0.5))
        x = sf.pack({
            "lyap_inv": LYAP_INV,
            # inverse of the certified sector multiplier diag(0.085, 0.0543)
            "sector_inv": np.array([11.77, 18.42]),
            "gain_scaled": demo_gain.array @ np.diag(LYAP_INV),
            "peak": np.array([82.0]),
        })
        margins = dict(zip((blk.label for blk in sf.blocks), lmi.problem_margins(sf, x)))
        # the quoted values are rounded to three figures, so allow a small dip
        assert all(v >= -0.05 for v in margins.values()), margins

    def test_zero_gain_point_admissible_without_reflection(self):
        # with no reflection the plant is already decaying, so Q = 3I,
        # S = I, W = 0 is an explicit feasible point (with coupling 2I in the
        # paper's form)
        sf = lmi.vectorize(build_synthesis_lmis(_reflectionless_plant(), 1.0, 0.1))
        x = sf.pack({
            "lyap_inv": np.array([3.0, 3.0]),
            "sector_inv": np.array([1.0, 1.0]),
            "gain_scaled": np.zeros((2, 2)),
            "peak": np.array([3.5]),
        })
        assert min(lmi.problem_margins(sf, x)) >= 0.0


class TestSynthesize:
    def test_demo_design(self, demo_certificate):
        # optimal peak frozen from an independent convex solver run
        assert abs(demo_certificate.peak - 11.1577) < 5e-3
        assert min(demo_certificate.margins.values()) >= -1e-9
        assert demo_certificate.gain.array.shape == (2, 2)
        assert np.all(demo_certificate.lyap_inv.diagonal > 0.0)
        assert np.all(demo_certificate.sector_inv.diagonal > 0.0)

    def test_derived_quantities_consistent(self, demo_certificate):
        c = demo_certificate
        qmax = float(np.max(c.lyap_inv.diagonal))
        assert c.omega == c.alpha / 2.0
        assert abs(c.gamma - math.sqrt(qmax) * math.exp(c.mu / 2.0)) < 1e-12
        ref = iss_coefficients(invert_diag(c.lyap_inv), c.mu, c.alpha)
        assert abs(c.kappa - ref.kappa) < 1e-12

    def test_gamma_is_the_iss_coefficient(self, demo_certificate):
        # verify recomputes gamma through iss_coefficients; the stored value
        # must be that number exactly, not an algebraically equal one
        c = demo_certificate
        ref = iss_coefficients(invert_diag(c.lyap_inv), c.mu, c.alpha)
        assert c.gamma == ref.gamma
        assert c.eps == lmi.DEFAULT_EPS

    def test_gain_reconstruction(self, demo_certificate):
        c = demo_certificate
        assert np.allclose(c.gain.array @ np.diag(c.lyap_inv.diagonal),
                           c.gain_scaled.array, atol=1e-9)

    def test_synthesis_margins_are_the_certified_ones(self, demo_plant,
                                                      demo_certificate):
        # re-checking a fresh certificate poses the same inequalities at the
        # same point, so every margin comes back to the bit
        again = control.synthesis_margins(demo_plant, demo_certificate)
        assert ({k: v.hex() for k, v in again.items()}
                == {k: v.hex() for k, v in demo_certificate.margins.items()})
        flipped = dataclasses.replace(
            demo_certificate,
            lyap_inv=DiagMatrix(-demo_certificate.lyap_inv.diagonal))
        assert control.synthesis_margins(demo_plant, flipped)["q_pos"] < 0.0

    def test_infeasible_weights_raise(self, reflection_plant):
        # alpha < mu min(lambda): the solver decides, and its verdict comes back
        with pytest.raises(InfeasibleError) as exc:
            synthesize(reflection_plant, 1.0, 0.5)
        assert exc.value.solution.status is sdp.Status.INFEASIBLE
        assert exc.value.form is not None

    def test_weights_past_the_decay_bound_raise_with_the_reason(self, demo_plant):
        # alpha = 1.2 >= mu min(lambda) = 1: no solver trace, and the reason
        with pytest.raises(InfeasibleError) as exc:
            synthesize(demo_plant, 1.0, 1.2)
        assert (exc.value.solution, exc.value.form) == (None, None)
        assert str(exc.value) == control._decay_bound(demo_plant, 1.0, 1.2, lmi.DEFAULT_EPS)
        assert str(exc.value).startswith("alpha=1.2 >= mu*lambda_1=1.0, ")

    def test_nan_eps_is_refused(self, demo_plant):
        # not a solver failure: the problem itself refuses the slack
        with pytest.raises(ValueError, match="problem eps"):
            synthesize(demo_plant, 1.0, 0.5, eps=float("nan"))

    @pytest.mark.parametrize("n, ratio", [(3, 0.9999), (5, 0.9999), (7, 0.9999),
                                          (9, 0.999), (9, 0.9999)])
    def test_seeded_designs_at_the_decay_edge_certify(self, random_plant_config,
                                                      n, ratio):
        # with the coupling as a variable, each of these ended
        # NUMERICAL_FAILURE, its phase-2 residual stalled
        plant = cli._build_plant({"plant": random_plant_config(np.random.default_rng(n), n, 1.0)})
        cert = synthesize(plant, 1.0, ratio * float(np.min(plant.speeds.diagonal)))
        assert min(verify_analysis(plant, cert).values()) >= 0.0

    def test_design_that_needs_phase_one_refinement_certifies(self):
        # default_rng(5) draws n = 4, lambda, H scaled to norm 0.6257, B, N
        # and u_max; without phase 1's refinement of its corrector this
        # design ends NUMERICAL_FAILURE after 7 + 20 steps
        rng = np.random.default_rng(5)
        n = int(rng.integers(2, 6))
        m = (n + 1) // 2
        lam = rng.uniform(1.0, 2.0, n)
        h = rng.standard_normal((n, n))
        h *= rng.uniform(0.3, 1.5) / np.linalg.norm(h, 2)
        plant = Plant(DiagMatrix(lam), Matrix(h), Matrix(rng.standard_normal((n, m))),
                      Matrix(rng.standard_normal((n, n)) / math.sqrt(n)),
                      rng.uniform(0.2, 1.0, m))
        assert n == 4 and np.linalg.norm(h, 2) == pytest.approx(0.6257, abs=1e-4)
        cert = synthesize(plant, 1.5, 0.1)
        assert cert.peak == pytest.approx(6.60336, rel=1e-5)
        assert min(verify_analysis(plant, cert).values()) >= 0.0


class TestClosedFormCoupling:
    """A certificate's coupling is the closed-form witness of
    control._certificate, G = diag(q (mu lambda - alpha)) - (eps + m/2) I
    with m the margin of disturbance_decay_block, and the paper's three
    inequalities in G, evaluated apart from the library
    (identities.paper_synthesis_margins), each keep m/2 of it."""

    # forming G and the paper's blocks rounds: allow 8 ulps of max(1, |G|)
    ULPS = 8

    def test_demo_seeded_and_demo_grid_certificates(self, demo_plant, demo_certificate,
                                                    seeded_certificates):
        fm = grid_search(demo_plant, np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8))
        grid = [(demo_plant, synthesize(demo_plant, c.mu, c.alpha))
                for c in fm.cells if c.status == "feasible"]
        assert len(grid) == 41
        designs = [(demo_plant, demo_certificate),
                   (demo_plant, synthesize(demo_plant, 1.0, 0.5, eps=1e-9)),
                   *seeded_certificates, *grid]
        for plant, cert in designs:
            m = cert.margins["disturbance_decay_block"]
            rate = -(cert.alpha - cert.mu * plant.speeds.diagonal)
            g = np.diag(cert.lyap_inv.diagonal * rate - (cert.eps + m / 2.0))
            assert np.array_equal(cert.coupling.array, g)
            allowance = self.ULPS * np.finfo(float).eps * max(1.0, float(np.max(np.abs(g))))
            paper = paper_synthesis_margins(plant, cert, cert.eps)
            for label in ("decay_block", "disturbance_block", "coupling_pos"):
                assert paper[label] >= m / 2.0 - allowance, (plant.n, cert.mu, cert.alpha,
                                                             label)


class TestIssCoefficients:
    def test_reported_design_values(self):
        # hand-computed from the quoted design: sqrt(82/12.5) e^{1/2} and
        # sqrt(82) e^{1/2}
        co = iss_coefficients(invert_diag(DiagMatrix(LYAP_INV)), 1.0, 0.5)
        assert co.omega == 0.25
        assert abs(co.kappa - 4.2229) < 1e-3
        assert abs(co.gamma - 14.930) < 1e-3
        assert abs(co.kappa - math.sqrt(82.0 / 12.5) * math.exp(0.5)) < 1e-12
        assert abs(co.gamma - math.sqrt(82.0) * math.exp(0.5)) < 1e-12

    def test_scaling_invariance(self):
        p = DiagMatrix(np.array([0.4, 1.9, 0.02]))
        a = iss_coefficients(p, 0.7, 0.3)
        b = iss_coefficients(DiagMatrix(4.0 * p.diagonal), 0.7, 0.3)
        assert abs(a.kappa - b.kappa) < 1e-12  # overshoot ignores scale
        assert abs(b.gamma - a.gamma / 2.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            iss_coefficients(DiagMatrix(np.array([1.0])), 0.0, 0.5)
        with pytest.raises(ValueError):
            iss_coefficients(DiagMatrix(np.array([-1.0])), 1.0, 0.5)


def _outcome_key(sol) -> list | None:
    """Every field of the solver's outcome, its point x as bytes."""
    return None if sol is None else [
        getattr(sol, f.name) for f in dataclasses.fields(sol) if f.name != "x"] + [
        sol.x.tobytes()]


def _same_cells(cells, others) -> bool:
    """Cells that agree in every field and in every field of the solver's
    outcome, its point x byte for byte."""
    def key(cell):
        return dataclasses.replace(cell, solution=None), _outcome_key(cell.solution)
    return [key(c) for c in cells] == [key(c) for c in others]


def _certificate_key(cert) -> list:
    """Every field of a certificate: its matrices as bytes, the solver's
    outcome as `_outcome_key`, every other field as it is."""
    def value(v):
        if isinstance(v, (Matrix, SymMatrix)):
            return v.array.tobytes()
        if isinstance(v, DiagMatrix):
            return v.diagonal.tobytes()
        if isinstance(v, sdp.Solution):
            return _outcome_key(v)
        return v
    return [(f.name, value(getattr(cert, f.name))) for f in dataclasses.fields(cert)]


class TestGridSearch:
    def test_demo_grid(self, demo_plant):
        fm = grid_search(demo_plant, [0.5, 1.0], [0.5, 1.2])
        statuses = {(c.mu, c.alpha): c.status for c in fm.cells}
        assert statuses == {
            (0.5, 0.5): "infeasible",
            (0.5, 1.2): "infeasible",
            (1.0, 0.5): "feasible",
            (1.0, 1.2): "infeasible",
        }
        assert fm.best is not None
        assert (fm.best.mu, fm.best.alpha) == (1.0, 0.5)

    def test_cells_row_major_mu_slowest(self, demo_plant):
        fm = grid_search(demo_plant, [0.5, 1.0], [0.5, 1.2])
        assert [(c.mu, c.alpha) for c in fm.cells] == [
            (0.5, 0.5), (0.5, 1.2), (1.0, 0.5), (1.0, 1.2)]

    def test_all_infeasible_best_is_none(self, demo_plant):
        fm = grid_search(demo_plant, [0.25], [1.4])
        assert all(c.status == "infeasible" for c in fm.cells)
        assert fm.best is None

    def test_feasible_cells_carry_gamma(self, demo_plant):
        fm = grid_search(demo_plant, [1.0], [0.5])
        cell = fm.cells[0]
        assert cell.status == "feasible"
        assert abs(cell.gamma - math.sqrt(cell.peak) * math.exp(0.5)) < 1e-12

    def test_failed_cell_keeps_its_reason(self, demo_plant, reflection_plant,
                                          monkeypatch):
        # (0.5, 0.5) is past the decay bound, so the second cell built is
        # (1.0, 0.1); on the demo the solver finds the other cells feasible,
        # on the uncontrolled reflection infeasible
        real = control.build_synthesis_lmis
        calls = []

        def build(*args, **kwargs):
            calls.append(args)
            if len(calls) % 3 == 2:  # the cell (1.0, 0.1); the sweep goes on
                raise FloatingPointError("injected at one cell")
            return real(*args, **kwargs)

        monkeypatch.setattr(control, "build_synthesis_lmis", build)
        failed = ("failed", "FloatingPointError: injected at one cell")
        bests = []
        for plant, verdict in ((demo_plant, "feasible"), (reflection_plant, "infeasible")):
            fm = grid_search(plant, [0.5, 1.0], [0.1, 0.5])
            reasons = {(c.mu, c.alpha): (c.status, c.reason) for c in fm.cells}
            assert reasons == {
                (0.5, 0.1): (verdict, None),
                (0.5, 0.5): ("infeasible",
                             control._decay_bound(plant, 0.5, 0.5, lmi.DEFAULT_EPS)),
                (1.0, 0.1): failed,
                (1.0, 0.5): (verdict, None),
            }
            assert reasons[(0.5, 0.5)][1] is not None
            bests.append(fm.best and (fm.best.mu, fm.best.alpha))
        assert len(calls) == 6
        assert bests == [(0.5, 0.1), None]

    def test_optimal_cell_whose_point_fails_the_recheck_fails(self, demo_plant,
                                                              monkeypatch):
        # every cell is below the decay bound, so all four reach the solver
        mus, alphas = [0.5, 1.0], [0.1, 0.4]
        honest = grid_search(demo_plant, mus, alphas)
        real = sdp.minimize_batch

        def minimize_batch(forms):
            forms = list(forms)
            solutions = real(forms)
            # the solver claims the cell (1.0, 0.4) optimal at a point whose
            # lyap_inv is negative, which breaks q_pos
            sol, sf = solutions[3], forms[3]
            values = sf.unpack(sol.x)
            values["lyap_inv"] = -values["lyap_inv"]
            solutions[3] = dataclasses.replace(sol, x=sf.pack(values))
            return solutions

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        fm = grid_search(demo_plant, mus, alphas)
        bad = fm.cells[3]
        assert (bad.mu, bad.alpha, bad.status, bad.peak, bad.gamma) == (
            1.0, 0.4, "failed", None, None)
        assert bad.reason.startswith("SolverFailureError: re-checked margins dip")
        assert bad.solution.newton_steps == honest.cells[3].solution.newton_steps
        assert honest.cells[3].status == "feasible"
        assert _same_cells(fm.cells[:3], honest.cells[:3])
        assert (fm.best.mu, fm.best.alpha) == (honest.best.mu, honest.best.alpha) == (0.5, 0.1)

    def test_optimal_cell_above_its_peak_bound_fails(self, demo_plant, monkeypatch):
        # the solver claims the cell (1.0, 0.4) optimal with its peak entry
        # 1e-6 relative under max lyap_inv.  The re-check refuses that point
        # at peak_cap, whose margin peak - max lyap_inv (eps = 0) is under
        # -1e-9; a re-check that reports peak_cap as met leaves it to the
        # peak guard of the certificate
        mus, alphas = [0.5, 1.0], [0.1, 0.4]
        honest = grid_search(demo_plant, mus, alphas)
        solve, recheck = sdp.minimize_batch, lmi.margins_batch

        def minimize_batch(forms):
            forms = list(forms)
            solutions = solve(forms)
            sol, sf = solutions[3], forms[3]
            values = sf.unpack(sol.x)
            values["peak"] = np.array([[np.max(values["lyap_inv"]) * (1.0 - 1e-6)]])
            solutions[3] = dataclasses.replace(sol, x=sf.pack(values))
            return solutions

        def margins_batch(points):
            points = list(points)
            out = recheck(points)
            for (sf, _), margins in zip(points, out):
                at = [blk.label for blk in sf.blocks].index("peak_cap")
                margins[at] = max(margins[at], 0.0)
            return out

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        reasons = [grid_search(demo_plant, mus, alphas).cells[3].reason]
        monkeypatch.setattr(lmi, "margins_batch", margins_batch)
        fm = grid_search(demo_plant, mus, alphas)
        reasons.append(fm.cells[3].reason)
        assert reasons[0].startswith("SolverFailureError: re-checked margins dip")
        assert reasons[1].startswith("SolverFailureError: largest lyap_inv eigenvalue")
        assert "exceeds peak bound" in reasons[1]
        bad = fm.cells[3]
        assert (bad.mu, bad.alpha, bad.status, bad.peak, bad.gamma) == (
            1.0, 0.4, "failed", None, None)
        assert _same_cells(fm.cells[:3], honest.cells[:3])

    def test_failing_batch_fails_every_cell(self, demo_plant, monkeypatch):
        def minimize_batch(forms):
            raise FloatingPointError("injected in the batch")

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        fm = grid_search(demo_plant, [0.5, 1.0], [0.25])
        assert [(c.status, c.reason, c.solution) for c in fm.cells] == [
            ("failed", "FloatingPointError: injected in the batch", None)] * 2
        assert fm.best is None
        # a cell past the decay bound never joins the batch, so it stands
        fm = grid_search(demo_plant, [0.5], [0.25, 0.5])
        assert [(c.status, c.solution) for c in fm.cells] == [
            ("failed", None), ("infeasible", None)]
        assert fm.cells[1].reason == control._decay_bound(
            demo_plant, 0.5, 0.5, lmi.DEFAULT_EPS)

    def test_matches_synthesize_cell_by_cell(self, demo_plant, reflection_plant):
        def compare(plant, mus, alphas):
            fm = grid_search(plant, mus, alphas)
            designs, implied = {}, []
            for cell in fm.cells:
                try:
                    cert = synthesize(plant, cell.mu, cell.alpha)
                except InfeasibleError as e:
                    assert cell.status == "infeasible"
                    if e.solution is None:  # past the decay bound: no solver ran
                        assert (cell.solution, cell.reason) == (None, str(e))
                        implied.append((cell.mu, cell.alpha))
                    else:
                        assert cell.reason is None
                        assert cell.solution.newton_steps[0] > 0
                        assert cell.solution.newton_steps[1] == 0
                    continue
                assert cell.solution.newton_steps[0] > 0
                assert cell.status == "feasible"
                assert cell.peak == cert.peak
                designs[(cell.mu, cell.alpha)] = cert
            return fm, designs, implied

        # demo cells the solver finds feasible, and (0.25, 0.3) past the bound
        fm, designs, implied = compare(demo_plant, [0.25, 0.5, 0.75], [0.1, 0.2, 0.3])
        assert (len(designs), implied) == (8, [(0.25, 0.3)])
        best = min(designs.values(), key=lambda c: (c.gamma, c.mu, c.alpha))
        assert (best.mu, best.alpha) == (fm.best.mu, fm.best.alpha) == (0.5, 0.1)
        assert _certificate_key(fm.best) == _certificate_key(best)
        assert sum(fm.best.solution.newton_steps) > 0
        # the best certificate carries its cell's outcome, not a copy
        assert fm.best.solution is fm.cells[3].solution
        # cells the solver finds infeasible, and (0.5, 0.5) past the bound
        fm, designs, implied = compare(reflection_plant, [0.5, 1.0], [0.1, 0.5])
        assert (designs, implied, fm.best) == ({}, [(0.5, 0.5)], None)

    @pytest.mark.parametrize("case, solved", [("demo", 41), ("demo-half-rows", 41),
                                              ("seeded-n10", 13)])
    def test_each_cell_has_the_bits_of_its_own_solve(self, case, solved, demo_plant,
                                                     random_plant_config, monkeypatch):
        # a cell's outcome does not depend on the cells that share its
        # batch: each is the bits of sdp.minimize on the cell's own form
        mus, alphas = np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8)
        if case == "demo":
            plant, grids = demo_plant, [(mus, alphas)]
        elif case == "demo-half-rows":
            # the 16 half-row commands of the benchmark's grid-sweep, each
            # spacing its alphas from their ends as a config does
            plant, grids = demo_plant, [
                ([mu], np.linspace(part[0], part[-1], part.size))
                for mu in mus for part in (alphas[:4], alphas[4:])]
        else:
            plant = cli._build_plant({"plant": random_plant_config(
                np.random.default_rng(10), 10, 1.0)})
            low = float(np.min(plant.speeds.diagonal))
            grids = [(np.linspace(0.5, 1.25, 4), np.linspace(0.2, 0.8, 4) * low)]
        solve, outcomes = sdp.minimize_batch, []

        def minimize_batch(forms):
            solutions = solve(forms)
            outcomes.extend(zip(forms, solutions))
            return solutions

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        cells = [c for mu, alpha in grids for c in grid_search(plant, mu, alpha).cells]
        monkeypatch.undo()
        assert [sol for _, sol in outcomes] == [
            c.solution for c in cells if c.solution is not None]
        assert len(outcomes) == solved
        for form, sol in outcomes:
            assert _outcome_key(sol) == _outcome_key(sdp.minimize(form))

    def test_one_call_recheck_matches_each_cell_alone(self, demo_plant, monkeypatch):
        # the demo grid re-checks its 41 optimal cells in one stacked call,
        # and every margin is the same bits as the cell's own re-check
        real, calls = lmi.margins_batch, []

        def margins_batch(points):
            points = list(points)
            calls.append((points, real(points)))
            return calls[-1][1]

        monkeypatch.setattr(lmi, "margins_batch", margins_batch)
        fm = grid_search(demo_plant, np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8))
        monkeypatch.undo()
        [(points, margins)] = calls
        feasible = [c for c in fm.cells if c.status == "feasible"]
        assert len(points) == len(feasible) == 41
        for (sf, x), got, cell in zip(points, margins, feasible):
            assert x is cell.solution.x
            assert _bits(got) == _bits(lmi.problem_margins(sf, x)), (cell.mu, cell.alpha)

    @pytest.mark.parametrize("case, solved", [("demo", 41), ("reflection", 41),
                                              ("seeded", 44), ("demo-eps0", 64)])
    def test_solver_gets_each_cells_own_form_bit_for_bit(self, case, solved, demo_plant,
                                                         reflection_plant,
                                                         random_plant_config, monkeypatch):
        # a row's cells share its form but for disturbance_decay_block, and
        # each is the same bits as the cell's own vectorize; only the best
        # cell's certificate is built
        plant = {"demo": demo_plant, "demo-eps0": demo_plant, "reflection": reflection_plant,
                 "seeded": cli._build_plant({"plant": random_plant_config(
                     np.random.default_rng(4), 4, 1.0)})}[case]
        eps = 0.0 if case == "demo-eps0" else lmi.DEFAULT_EPS
        solve, batches, made = sdp.minimize_batch, [], []
        certificate = control.SynthesisCertificate

        def minimize_batch(forms):
            batches.append(list(forms))
            return solve(batches[-1])

        def counted_certificate(**fields):
            made.append(certificate(**fields))
            return made[-1]

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        monkeypatch.setattr(control, "SynthesisCertificate", counted_certificate)
        fm = grid_search(plant, np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8), eps=eps)
        monkeypatch.undo()
        [forms] = batches
        cells = [c for c in fm.cells if c.solution is not None]
        assert len(forms) == len(cells) == solved
        firsts = {}
        for sf, cell in zip(forms, cells):
            own = lmi.vectorize(build_synthesis_lmis(plant, cell.mu, cell.alpha, eps=eps))
            assert form_bytes(sf) == form_bytes(own), (cell.mu, cell.alpha)
            first = firsts.setdefault(cell.mu, sf)
            assert [a is b for a, b in zip(sf.blocks, first.blocks)] == [
                sf is first or blk.label != "disturbance_decay_block" for blk in sf.blocks]
        assert len(firsts) == 8
        assert made == ([] if fm.best is None else [fm.best])
        assert (fm.best is None) == (case == "reflection")

    def test_grid_validation(self, demo_plant):
        with pytest.raises(ValueError):
            grid_search(demo_plant, [], [0.5])
        with pytest.raises(ValueError):
            grid_search(demo_plant, [1.0, 0.5], [0.5])
        with pytest.raises(ValueError):
            grid_search(demo_plant, [1.0], [-0.5])


class TestDecayBound:
    """Past alpha = mu min(lambda) the merged disturbance-decay block
    cannot hold with q_pos (control._decay_bound); such designs never reach
    the builder or the solver."""

    DEMO_MU, DEMO_ALPHA = np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8)

    def test_implied_cells_never_reach_the_builder_or_the_solver(self, demo_plant,
                                                                   monkeypatch):
        calls = {"build": [], "vectorize": [], "decay": [], "restate": [], "solve": [],
                 "recheck": []}

        def counted(name, real, count):
            def wrapper(*args, **kwargs):
                calls[name].append(count(*args))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(control, "build_synthesis_lmis", counted(
            "build", control.build_synthesis_lmis, lambda plant, mu, alpha: (mu, alpha)))
        monkeypatch.setattr(lmi, "vectorize", counted("vectorize", lmi.vectorize,
                                                      lambda problem: 1))
        monkeypatch.setattr(control, "_disturbance_decay", counted(
            "decay", control._disturbance_decay, lambda plant, mu, alpha, eps: (mu, alpha)))
        monkeypatch.setattr(lmi, "restate", counted("restate", lmi.restate,
                                                    lambda sf, con, eps: con.label))
        monkeypatch.setattr(sdp, "minimize_batch", counted("solve", sdp.minimize_batch, len))
        monkeypatch.setattr(lmi, "margins_batch", counted("recheck", lmi.margins_batch, len))
        fm = grid_search(demo_plant, self.DEMO_MU, self.DEMO_ALPHA)
        below = [(c.mu, c.alpha) for c in fm.cells if c.alpha < c.mu]
        assert len(below) == 41
        # one build per mu row, at its first cell below the bound (alpha =
        # 0.1 in every row); each of the row's other 33 cells poses its
        # decay block alone and restates the row's form with it; every cell
        # below the bound poses its own decay block once, none past it
        firsts = [(mu, self.DEMO_ALPHA[0]) for mu in self.DEMO_MU]
        assert calls == {"build": firsts, "vectorize": [1] * 8, "decay": below,
                         "restate": ["disturbance_decay_block"] * 33, "solve": [41],
                         "recheck": [41]}
        assert sorted(c.status for c in fm.cells if c.alpha >= c.mu) == ["infeasible"] * 23
        assert all(c.solution is None and c.reason is not None
                   for c in fm.cells if c.alpha >= c.mu)
        for made in calls.values():
            made.clear()
        fm = grid_search(demo_plant, [0.25], [0.3, 1.4])
        assert [c.status for c in fm.cells] == ["infeasible"] * 2
        with pytest.raises(InfeasibleError):
            synthesize(demo_plant, 1.0, 1.2)
        assert all(made == [] for made in calls.values())

    def test_the_bound_is_tight(self, demo_plant):
        plant = dataclasses.replace(
            demo_plant, speeds=DiagMatrix(np.array([math.sqrt(3.0), math.sqrt(2.0)])))
        mu = 0.7
        edge = mu * math.sqrt(2.0)
        below = float(np.nextafter(edge, 0.0))
        eps = lmi.DEFAULT_EPS
        assert control._decay_bound(plant, mu, edge, eps) == (
            f"alpha={edge} >= mu*lambda_2={edge}, so q_pos keeps "
            f"entry 2 of disturbance_decay_block at -eps or below")
        assert control._decay_bound(plant, mu, below, eps) is None
        fm = grid_search(plant, [mu], [below, edge])
        assert fm.cells[0].solution is not None
        assert fm.cells[0].solution.newton_steps[0] > 0
        assert (fm.cells[1].status, fm.cells[1].solution) == ("infeasible", None)

    def test_eps_zero_reaches_the_solver(self, demo_plant):
        # with eps = 0, q_1 = 0 leaves the merged block's entry at 0
        assert control._decay_bound(demo_plant, 1.0, 1.2, 0.0) is None
        [cell] = grid_search(demo_plant, [1.0], [1.2], eps=0.0).cells
        assert cell.solution.newton_steps[0] > 0
        assert cell.reason is None
        with pytest.raises(InfeasibleError) as exc:
            synthesize(demo_plant, 1.0, 1.2, eps=0.0)
        assert exc.value.solution.status is sdp.Status.INFEASIBLE

    def test_solver_agrees_on_every_implied_demo_cell(self, demo_plant):
        # the solver's own infeasible path still reaches the demo's 23 cells
        implied = [(mu, alpha) for mu in self.DEMO_MU for alpha in self.DEMO_ALPHA
                   if control._decay_bound(demo_plant, mu, alpha, lmi.DEFAULT_EPS)]
        assert len(implied) == 23
        for mu, alpha in implied:
            sf = lmi.vectorize(build_synthesis_lmis(demo_plant, mu, alpha))
            assert sdp.minimize(sf).status is sdp.Status.INFEASIBLE, (mu, alpha)


class TestVerifyAnalysis:
    @staticmethod
    def _reported(cert, gain=REPORTED_GAIN):
        # the quoted design values in the certificate form, at mu=1, alpha=0.5
        return dataclasses.replace(
            cert, lyap_inv=DiagMatrix(LYAP_INV), sector_inv=DiagMatrix(REPORTED_SECTOR_INV),
            coupling=SymMatrix(COUPLING_HAT), gain=Matrix(gain), mu=1.0, alpha=0.5)

    def test_reported_design_certifies(self, demo_plant, demo_certificate):
        reported = self._reported(demo_certificate)
        margins = verify_analysis(demo_plant, reported)
        paper = paper_analysis_margins(demo_plant, reported)
        assert min(margins.values()) >= -0.05
        # margins frozen from an independent convex solver run; the
        # disturbance and decay blocks are the paper's, at Gamma = P G P
        assert abs(margins["boundary_block"] - 0.00165) < 5e-5
        assert abs(paper["disturbance_block"] - 0.005247) < 5e-5
        assert abs(paper["decay_block"] - 0.005746) < 5e-5
        assert margins["t_pos"] > 0.0
        # that Gamma meets the decay block, so the merged block holds with at
        # least the disturbance block's margin
        assert margins["disturbance_decay_block"] >= paper["disturbance_block"]

    def test_destabilizing_gain_fails(self, demo_plant, demo_certificate):
        bad = self._reported(demo_certificate, np.array([[3.0, 0.0], [0.0, 3.0]]))
        margins = verify_analysis(demo_plant, bad)
        assert min(margins.values()) < -0.05
        assert margins["boundary_block"] < -0.05

    def test_synthesized_design_certifies(self, demo_plant, demo_certificate):
        # at the certificate's own sector multiplier, with no search
        margins = verify_analysis(demo_plant, demo_certificate)
        assert len(margins) == 5
        assert min(margins.values()) > 0.0

    def test_small_eps_and_seeded_designs_certify(self, demo_plant, seeded_certificates):
        designs = [(demo_plant, synthesize(demo_plant, 1.0, 0.5, eps=1e-9)),
                   *seeded_certificates]
        for plant, cert in designs:
            assert min(verify_analysis(plant, cert).values()) > 0.0, (plant.n, cert.eps)

    def test_validation(self, demo_plant, demo_certificate):
        with pytest.raises(ValueError):
            verify_analysis(demo_plant, dataclasses.replace(
                demo_certificate, lyap_inv=DiagMatrix(np.array([-1.0, 1.0]))))
        with pytest.raises(ValueError):
            verify_analysis(demo_plant, dataclasses.replace(
                demo_certificate, sector_inv=DiagMatrix(np.array([1.0, 0.0]))))

    def test_boundary_block_is_the_synthesis_congruence(self, demo_plant,
                                                        demo_certificate,
                                                        seeded_certificates):
        # at T = S^-1 the analysis boundary block is diag(P, T) times the
        # Schur complement of the synthesis block at its -Q Lambda^-1 entry
        for plant, cert in [(demo_plant, demo_certificate), *seeded_certificates]:
            want = congruent_boundary_block(plant, cert)
            sf = lmi.vectorize(build_analysis_lmis(plant, cert.gain, cert.mu, cert.alpha))
            boundary = next(blk for blk in sf.blocks if blk.label == "boundary_block")
            # a <= block: its value is the negated expression
            got = -boundary.value(analysis_point(sf, cert))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestAnalysisLmis:
    @pytest.mark.parametrize("mu, alpha", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5)])
    def test_rejects_nonpositive_weights(self, demo_plant, demo_gain, mu, alpha):
        with pytest.raises(ValueError, match="mu and alpha must be positive"):
            build_analysis_lmis(demo_plant, demo_gain, mu, alpha)

    def test_feasible_for_certified_gain(self, demo_plant, demo_gain):
        prob = build_analysis_lmis(demo_plant, demo_gain, 1.0, 0.5)
        # the smallest supply gain the gain admits
        sf = lmi.vectorize(dataclasses.replace(prob, objective=((("supply_sq", 0), 1.0),)))
        sol = sdp.minimize(sf)
        assert sol.status is sdp.Status.OPTIMAL
        assert min(lmi.problem_margins(sf, sol.x)) >= -1e-9

    def test_reported_point_admissible(self, demo_plant, demo_gain):
        p = invert_diag(DiagMatrix(LYAP_INV))
        sf = lmi.vectorize(build_analysis_lmis(demo_plant, demo_gain, 1.0, 0.5))
        x = sf.pack({
            "lyap": p.diagonal,
            "sector": np.array([0.08498, 0.05428]),
            "supply_sq": np.array([1.0]),
        })
        margins = lmi.problem_margins(sf, x)
        assert min(margins) >= -0.05


class TestAnalysisValues:
    def test_inverse_and_congruence(self, demo_plant, demo_certificate):
        # verify reads P = lyap_inv^-1 and T = sector_inv^-1
        sf = lmi.vectorize(build_analysis_lmis(demo_plant, demo_certificate.gain,
                                               demo_certificate.mu, demo_certificate.alpha,
                                               eps=0.0))
        x = analysis_point(sf, demo_certificate)
        values = sf.unpack(x)
        p, t = values["lyap"], values["sector"]
        assert np.allclose(p @ demo_certificate.lyap_inv.array, np.eye(2), atol=1e-12)
        assert np.allclose(t @ demo_certificate.sector_inv.array, np.eye(2), atol=1e-12)
        margins = dict(zip((blk.label for blk in sf.blocks), lmi.problem_margins(sf, x)))
        assert margins == verify_analysis(demo_plant, demo_certificate)


def _bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestMarginsMatchReference:
    """The re-check reads the sign-folded blocks of lmi.vectorize, and its
    margins are bit for bit those of each constraint's own expression
    evaluated term by term, -max_eig - eps or min_eig - eps by its sense
    (identities.reference_margins)."""

    def test_certificates_and_their_analysis_points(self, demo_plant, demo_certificate,
                                                    seeded_certificates):
        for plant, cert in [(demo_plant, demo_certificate), *seeded_certificates]:
            for problem, point in (
                    (build_synthesis_lmis(plant, cert.mu, cert.alpha, eps=cert.eps),
                     synthesis_point),
                    (build_analysis_lmis(plant, cert.gain, cert.mu, cert.alpha, eps=0.0),
                     analysis_point)):
                sf = lmi.vectorize(problem)
                x = point(sf, cert)
                assert _bits(lmi.problem_margins(sf, x)) == _bits(
                    reference_margins(problem, sf, x)), (plant.n, point.__name__)

    def test_every_demo_grid_point(self, demo_plant):
        # the solver's last x in each of the 64 cells, the infeasible cells'
        # phase-1 points included
        problems = [build_synthesis_lmis(demo_plant, mu, alpha)
                    for mu in np.linspace(0.25, 2.0, 8) for alpha in np.linspace(0.1, 1.5, 8)]
        forms = [lmi.vectorize(p) for p in problems]
        solutions = sdp.minimize_batch(forms)
        assert {sol.status for sol in solutions} == {sdp.Status.OPTIMAL, sdp.Status.INFEASIBLE}
        for problem, sf, sol in zip(problems, forms, solutions):
            assert _bits(lmi.problem_margins(sf, sol.x)) == _bits(
                reference_margins(problem, sf, sol.x))


class TestWellPosedness:
    def test_scalar_free_transport(self):
        # lambda = 1, no reflection, unit input map, zero gain: every
        # constant can be written down by hand
        plant = Plant(DiagMatrix(np.array([1.0])), Matrix(np.zeros((1, 1))),
                      Matrix(np.eye(1)), Matrix(np.eye(1)), np.array([1.0]))
        wp = wellposedness_certificate(plant, Matrix(np.zeros((1, 1))))
        assert abs(wp.tau - 2.01) < 1e-12
        assert abs(wp.mu_wp - 0.01) < 1e-12
        assert abs(wp.rho - (-0.015)) < 1e-12
        assert all(v > 0.0 for v in wp.slacks.values())

    def test_demo_design(self, demo_plant, demo_certificate):
        wp = wellposedness_certificate(demo_plant, demo_certificate.gain)
        assert wp.rho < 0.0
        assert wp.mu_wp > 0.0
        assert all(v > 0.0 for v in wp.slacks.values())

    def test_zero_input_map(self):
        plant = Plant(DiagMatrix(np.array([1.0, 2.0])),
                      Matrix(0.5 * np.eye(2)), Matrix(np.zeros((2, 2))),
                      Matrix(np.eye(2)), np.array([1.0, 1.0]))
        wp = wellposedness_certificate(plant, Matrix(np.zeros((2, 2))))
        assert abs(wp.tau - 1.01) < 1e-12
        assert all(v > 0.0 for v in wp.slacks.values())

    def test_delta_validation(self, demo_plant, demo_gain):
        with pytest.raises(ValueError):
            wellposedness_certificate(demo_plant, demo_gain, delta=0.0)
