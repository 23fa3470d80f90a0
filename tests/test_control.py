import dataclasses
import math

import numpy as np
import pytest

from hypiss import control, lmi, sdp
from hypiss.control import (
    BoundaryLaw,
    InfeasibleError,
    Plant,
    build_analysis_lmis,
    build_synthesis_lmis,
    closed_loop_boundary,
    deadzone,
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
        # H + B K formed once per run must give the bytes of forming it at
        # every call, on the strided outflow column a simulation passes,
        # for every shape including one input with n >= 4
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            for m in range(1, 4):
                plant = Plant(DiagMatrix(rng.uniform(0.5, 2.0, n)),
                              Matrix(rng.uniform(-0.5, 0.5, (n, n))),
                              Matrix(rng.standard_normal((n, m))),
                              Matrix(np.eye(n)), rng.uniform(0.2, 1.0, m))
                gain = Matrix(rng.standard_normal((m, n)))
                law = BoundaryLaw.of(plant, gain)
                h, b, k = plant.reflection.array, plant.input_map.array, gain.array
                # the second outflow lies along K's first row, so that
                # channel saturates
                for last, saturating in ((rng.uniform(-0.01, 0.01, n), False),
                                         (50.0 * k[0], True)):
                    state = np.column_stack([rng.uniform(-1.0, 1.0, (n, 8)), last])
                    x = state[:, -1]
                    assert np.any(np.abs(k @ x) > plant.u_max) == saturating
                    want = (h + b @ k) @ x + b @ deadzone(k @ x, plant.u_max)
                    assert np.array_equal(closed_loop_boundary(law, x), want)


class TestSynthesisLmis:
    def test_rejects_nonpositive_weights(self, demo_plant):
        with pytest.raises(ValueError):
            build_synthesis_lmis(demo_plant, 0.0, 0.5)
        with pytest.raises(ValueError):
            build_synthesis_lmis(demo_plant, 1.0, -0.5)

    def test_reported_point_satisfies_decay_block(self, demo_plant, demo_gain):
        # hand expansion of the decay inequality at the quoted design values:
        # eigenvalues of [[12.5(0.5-1)+4.07, 0.195], [0.195, 82(0.5-sqrt2)+36.3]]
        sf = lmi.vectorize(build_synthesis_lmis(demo_plant, 1.0, 0.5, eps=0.0))
        x = sf.pack({
            "lyap_inv": LYAP_INV,
            "sector_inv": np.array([1.0, 1.0]),
            "gain_scaled": demo_gain.array @ np.diag(LYAP_INV),
            "coupling": COUPLING_HAT,
            "peak": np.array([82.0]),
        })
        decay = next(blk for blk in sf.blocks if blk.label == "decay_block")
        m = lmi.margin(decay, x)
        assert abs(m - 2.1789) < 1e-3

    def test_reported_point_satisfies_all_blocks(self, demo_plant, demo_gain):
        sf = lmi.vectorize(build_synthesis_lmis(demo_plant, 1.0, 0.5))
        x = sf.pack({
            "lyap_inv": LYAP_INV,
            # inverse of the certified sector multiplier diag(0.085, 0.0543)
            "sector_inv": np.array([11.77, 18.42]),
            "gain_scaled": demo_gain.array @ np.diag(LYAP_INV),
            "coupling": COUPLING_HAT,
            "peak": np.array([82.0]),
        })
        margins = dict(zip((blk.label for blk in sf.blocks), lmi.problem_margins(sf, x)))
        # the quoted values are rounded to three figures, so allow a small dip
        assert all(v >= -0.05 for v in margins.values()), margins

    def test_zero_gain_point_admissible_without_reflection(self):
        # with no reflection the plant is already decaying, so Q = 3I,
        # S = I, W = 0, coupling 2I is an explicit feasible point
        sf = lmi.vectorize(build_synthesis_lmis(_reflectionless_plant(), 1.0, 0.1))
        x = sf.pack({
            "lyap_inv": np.array([3.0, 3.0]),
            "sector_inv": np.array([1.0, 1.0]),
            "gain_scaled": np.zeros((2, 2)),
            "coupling": 2.0 * np.eye(2),
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
        ref = iss_coefficients(invert_diag(c.lyap_inv), c.mu, c.alpha, 1.0)
        assert abs(c.kappa - ref.kappa) < 1e-12

    def test_gamma_is_the_iss_coefficient(self, demo_certificate):
        # verify recomputes gamma through iss_coefficients; the stored value
        # must be that number exactly, not an algebraically equal one
        c = demo_certificate
        ref = iss_coefficients(invert_diag(c.lyap_inv), c.mu, c.alpha, 1.0)
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

    def test_infeasible_weights_raise(self, demo_plant):
        with pytest.raises(InfeasibleError) as exc:
            synthesize(demo_plant, 1.0, 1.2)
        assert exc.value.solution.status is sdp.Status.INFEASIBLE


class TestIssCoefficients:
    def test_reported_design_values(self):
        # hand-computed from the quoted design: sqrt(82/12.5) e^{1/2} and
        # sqrt(82) e^{1/2}
        co = iss_coefficients(invert_diag(DiagMatrix(LYAP_INV)), 1.0, 0.5, 1.0)
        assert co.omega == 0.25
        assert abs(co.kappa - 4.2229) < 1e-3
        assert abs(co.gamma - 14.930) < 1e-3
        assert abs(co.kappa - math.sqrt(82.0 / 12.5) * math.exp(0.5)) < 1e-12
        assert abs(co.gamma - math.sqrt(82.0) * math.exp(0.5)) < 1e-12

    def test_scaling_invariance(self):
        p = DiagMatrix(np.array([0.4, 1.9, 0.02]))
        a = iss_coefficients(p, 0.7, 0.3, 2.0)
        b = iss_coefficients(DiagMatrix(4.0 * p.diagonal), 0.7, 0.3, 2.0)
        assert abs(a.kappa - b.kappa) < 1e-12  # overshoot ignores scale
        assert abs(b.gamma - a.gamma / 2.0) < 1e-12

    def test_supply_scales_gain_linearly(self):
        p = DiagMatrix(np.array([1.0, 2.0]))
        a = iss_coefficients(p, 1.0, 0.5, 1.0)
        b = iss_coefficients(p, 1.0, 0.5, 3.0)
        assert abs(b.gamma - 3.0 * a.gamma) < 1e-12
        assert b.kappa == a.kappa and b.omega == a.omega

    def test_validation(self):
        with pytest.raises(ValueError):
            iss_coefficients(DiagMatrix(np.array([1.0])), 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            iss_coefficients(DiagMatrix(np.array([-1.0])), 1.0, 0.5, 1.0)


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

    def test_failed_cell_keeps_its_reason(self, demo_plant, monkeypatch):
        real = control.build_synthesis_lmis
        calls = []

        def build(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:  # the cell (0.5, 1.2); the sweep goes on
                raise FloatingPointError("injected at one cell")
            return real(*args, **kwargs)

        monkeypatch.setattr(control, "build_synthesis_lmis", build)
        fm = grid_search(demo_plant, [0.5, 1.0], [0.5, 1.2])
        reasons = {(c.mu, c.alpha): (c.status, c.reason) for c in fm.cells}
        assert reasons == {
            (0.5, 0.5): ("infeasible", None),
            (0.5, 1.2): ("failed", "FloatingPointError: injected at one cell"),
            (1.0, 0.5): ("feasible", None),
            (1.0, 1.2): ("infeasible", None),
        }
        assert (fm.best.mu, fm.best.alpha) == (1.0, 0.5)

    def test_optimal_cell_whose_point_fails_the_recheck_fails(self, demo_plant,
                                                              monkeypatch):
        mus, alphas = [0.5, 1.0], [0.1, 0.5]
        honest = grid_search(demo_plant, mus, alphas)
        real = sdp.minimize_batch

        def minimize_batch(forms):
            forms = list(forms)
            solutions = real(forms)
            # the solver claims the cell (1.0, 0.5) optimal at a point whose
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
            1.0, 0.5, "failed", None, None)
        assert bad.reason.startswith("SolverFailureError: re-checked margins dip")
        assert bad.newton_steps == honest.cells[3].newton_steps
        assert honest.cells[3].status == "feasible"
        assert fm.cells[:3] == honest.cells[:3]
        assert (fm.best.mu, fm.best.alpha) == (honest.best.mu, honest.best.alpha) == (0.5, 0.1)

    def test_failing_batch_fails_every_cell(self, demo_plant, monkeypatch):
        def minimize_batch(forms):
            raise FloatingPointError("injected in the batch")

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        fm = grid_search(demo_plant, [0.5, 1.0], [0.5])
        assert [(c.status, c.reason, c.newton_steps) for c in fm.cells] == [
            ("failed", "FloatingPointError: injected in the batch", None)] * 2
        assert fm.best is None

    def test_matches_synthesize_cell_by_cell(self, demo_plant):
        mus, alphas = [0.25, 0.5, 0.75], [0.1, 0.3, 0.5]
        fm = grid_search(demo_plant, mus, alphas)
        designs = {}
        for cell in fm.cells:
            assert cell.newton_steps[0] > 0
            try:
                cert = synthesize(demo_plant, cell.mu, cell.alpha)
            except InfeasibleError:
                assert cell.status == "infeasible"
                assert cell.newton_steps[1] == 0
                continue
            assert cell.status == "feasible"
            assert cell.peak == pytest.approx(cert.peak, rel=1e-9)
            designs[(cell.mu, cell.alpha)] = cert
        best = min(designs.values(), key=lambda c: (c.gamma, c.mu, c.alpha))
        assert (best.mu, best.alpha) == (fm.best.mu, fm.best.alpha) == (0.5, 0.1)
        assert fm.best.peak == pytest.approx(best.peak, rel=1e-9)
        assert fm.best.gamma == pytest.approx(best.gamma, rel=1e-9)
        assert sum(fm.best.newton_steps) > 0

    def test_grid_validation(self, demo_plant):
        with pytest.raises(ValueError):
            grid_search(demo_plant, [], [0.5])
        with pytest.raises(ValueError):
            grid_search(demo_plant, [1.0, 0.5], [0.5])
        with pytest.raises(ValueError):
            grid_search(demo_plant, [1.0], [-0.5])


class TestVerifyAnalysis:
    @staticmethod
    def _reported(cert, gain=REPORTED_GAIN):
        # the quoted design values in the certificate form, at mu=1, alpha=0.5
        return dataclasses.replace(
            cert, lyap_inv=DiagMatrix(LYAP_INV), sector_inv=DiagMatrix(REPORTED_SECTOR_INV),
            coupling=SymMatrix(COUPLING_HAT), gain=Matrix(gain), mu=1.0, alpha=0.5)

    def test_reported_design_certifies(self, demo_plant, demo_certificate):
        margins = verify_analysis(demo_plant, self._reported(demo_certificate))
        assert min(margins.values()) >= -0.05
        # margins frozen from an independent convex solver run
        assert abs(margins["boundary_block"] - 0.00165) < 5e-5
        assert abs(margins["disturbance_block"] - 0.005247) < 5e-5
        assert abs(margins["decay_block"] - 0.005746) < 5e-5
        assert margins["t_pos"] > 0.0

    def test_destabilizing_gain_fails(self, demo_plant, demo_certificate):
        bad = self._reported(demo_certificate, np.array([[3.0, 0.0], [0.0, 3.0]]))
        margins = verify_analysis(demo_plant, bad)
        assert min(margins.values()) < -0.05
        assert margins["boundary_block"] < -0.05

    def test_synthesized_design_certifies(self, demo_plant, demo_certificate):
        # at the certificate's own sector multiplier, with no search
        margins = verify_analysis(demo_plant, demo_certificate)
        assert len(margins) == 7
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
    def test_feasible_for_certified_gain(self, demo_plant, demo_gain):
        prob = build_analysis_lmis(demo_plant, demo_gain, 1.0, 0.5)
        # the smallest supply gain the gain admits
        sf = lmi.vectorize(dataclasses.replace(prob, objective=((("supply_sq", 0), 1.0),)))
        sol = sdp.minimize(sf)
        assert sol.status is sdp.Status.OPTIMAL
        assert min(lmi.problem_margins(sf, sol.x)) >= -1e-9

    def test_reported_point_admissible(self, demo_plant, demo_gain):
        p = invert_diag(DiagMatrix(LYAP_INV))
        gamma = SymMatrix.symmetrized(p.array @ COUPLING_HAT @ p.array)
        sf = lmi.vectorize(build_analysis_lmis(demo_plant, demo_gain, 1.0, 0.5))
        x = sf.pack({
            "lyap": p.diagonal,
            "sector": np.array([0.08498, 0.05428]),
            "coupling": gamma.array,
            "supply_sq": np.array([1.0]),
        })
        margins = lmi.problem_margins(sf, x)
        assert min(margins) >= -0.05


class TestAnalysisValues:
    def test_inverse_and_congruence(self, demo_plant, demo_certificate):
        # verify reads P = lyap_inv^-1, T = sector_inv^-1, Gamma = P coupling P
        sf = lmi.vectorize(build_analysis_lmis(demo_plant, demo_certificate.gain,
                                               demo_certificate.mu, demo_certificate.alpha,
                                               eps=0.0))
        x = analysis_point(sf, demo_certificate)
        values = sf.unpack(x)
        p, t, gamma = values["lyap"], values["sector"], values["coupling"]
        assert np.allclose(p @ demo_certificate.lyap_inv.array, np.eye(2), atol=1e-12)
        assert np.allclose(t @ demo_certificate.sector_inv.array, np.eye(2), atol=1e-12)
        expect = p @ demo_certificate.coupling.array @ p
        assert np.allclose(gamma, expect, atol=1e-12)
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
