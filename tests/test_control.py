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
    elimination_minimizer,
    form_bytes,
    full_start,
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
        # alpha < mu min(lambda): the row decides, and its verdict comes back
        # before the design's problem is solved
        with pytest.raises(InfeasibleError) as exc:
            synthesize(reflection_plant, 1.0, 0.5)
        row = exc.value.row
        assert row.verdict == "infeasible" and row.bound > control._RESOLUTION
        assert str(exc.value) == row.reason and exc.value.solution is None
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
        # with the coupling as a variable, the full synthesis problem of
        # each of these ended NUMERICAL_FAILURE, its phase-2 residual
        # stalled; synthesize solves the projected problem, so the full one
        # goes to the solver here, and its optimum is certified as a design
        plant = cli._build_plant({"plant": random_plant_config(np.random.default_rng(n), n, 1.0)})
        alpha = ratio * float(np.min(plant.speeds.diagonal))
        cert = _full_solve_certificate(plant, 1.0, alpha)
        assert min(verify_analysis(plant, cert).values()) >= 0.0
        cert = synthesize(plant, 1.0, alpha)
        assert min(verify_analysis(plant, cert).values()) >= 0.0

    def test_design_that_needs_phase_one_refinement_certifies(self):
        # default_rng(5) draws n = 4, lambda, H scaled to norm 0.6257, B, N
        # and u_max; the full synthesis problem of this design once ended
        # NUMERICAL_FAILURE unless a feasibility phase refined its corrector.
        # synthesize solves the projected problem, so the full one goes to
        # the solver here, from its closed-form start; both reach the same
        # peak
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
        for cert in (_full_solve_certificate(plant, 1.5, 0.1), synthesize(plant, 1.5, 0.1)):
            assert cert.peak == pytest.approx(6.60336, rel=1e-5)
            assert min(verify_analysis(plant, cert).values()) >= 0.0

    def test_demo_at_the_mu_edge_certifies(self, demo_plant):
        # the full synthesis problem ends NUMERICAL_FAILURE at (2.5, 0.1),
        # inside the demo's feasible region (mu < -2 ln 0.25); the projected
        # one solves, and synth and grid certify the same design there
        cert = synthesize(demo_plant, 2.5, 0.1)
        fm = grid_search(demo_plant, [2.5], [0.1])
        assert [c.status for c in fm.cells] == ["feasible"]
        assert _certificate_key(fm.best) == _certificate_key(cert)
        assert cert.peak == pytest.approx(126.119, rel=1e-5)
        assert min(cert.margins.values()) >= 0.0
        assert min(verify_analysis(demo_plant, cert).values()) >= 0.0


def _full_solve_certificate(plant, mu, alpha, eps=lmi.DEFAULT_EPS):
    """The certificate of the full synthesis problem's own optimum: its form
    solved by sdp.minimize from the closed-form start (t q-hat, 2 eps I, 0,
    c0), its point re-checked and certified as synthesize certifies a point
    (control._certify, control._certificate)."""
    sf = lmi.vectorize(build_synthesis_lmis(plant, mu, alpha, eps=eps))
    solution = sdp.minimize(sf, full_start(sf, plant, mu, alpha, eps))
    assert solution.status is sdp.Status.OPTIMAL
    [margins] = control._certify([(sf, solution, mu, alpha, (sf, solution.x))])
    assert isinstance(margins, dict), margins
    return control._certificate(plant, sf, solution.x, solution, None, mu, alpha, eps, margins)


def _projected_optimum(plant, mu, alpha, eps=lmi.DEFAULT_EPS):
    """lyap_inv at the projected problem's optimum, solved from its
    closed-form start."""
    sf = lmi.vectorize(control.build_projected_lmis(plant, mu, alpha, eps=eps))
    [row] = control._rows(plant, [mu])
    sol = sdp.minimize(sf, sf.pack(control._start(plant, row, mu, alpha, eps)))
    assert sol.status is sdp.Status.OPTIMAL
    return np.diagonal(sf.unpack(sol.x)["lyap_inv"])


class TestGainRule:
    """control.gain_rule: the elimination lemma's minimizer W*(sigma) in
    closed form, and the sector scale sigma the design takes with it."""

    EPS = lmi.DEFAULT_EPS

    @staticmethod
    def _boundary_margins(plant, q, sigma, gains, eps=EPS):
        """boundary_block's margin at (Q, sigma I, W) for each W of gains,
        from the full synthesis form (alpha does not enter the block)."""
        sf = lmi.vectorize(build_synthesis_lmis(plant, 1.0, 0.1, eps=eps))
        at = [blk.label for blk in sf.blocks].index("boundary_block")
        points = [(sf, sf.pack({"lyap_inv": q, "sector_inv": np.full(plant.m, sigma),
                                "gain_scaled": w, "peak": [np.max(q)]})) for w in gains]
        return [margins[at] for margins in lmi.margins_batch(points)]

    @staticmethod
    def _plants(random_plant_config):
        return [cli._build_plant({"plant": random_plant_config(np.random.default_rng(n), n, 1.0)})
                for n in range(1, 7)]

    def test_block_fails_at_every_w_where_it_fails_at_the_minimizer(self,
                                                                    random_plant_config):
        # Q = t Lambda D, D a random diagonal, and sigma up to 100 put the
        # block on either side of its edge; random W, near W* and far from
        # it, never pass where W* fails
        rng = np.random.default_rng(17)
        verdicts = []
        for plant in self._plants(random_plant_config):
            for _ in range(12):
                q = rng.uniform(0.3, 3.0) * plant.speeds.diagonal * rng.uniform(0.2, 5.0, plant.n)
                sigma = 10.0 ** rng.uniform(-4.0, 2.0)
                w_star = elimination_minimizer(plant, q, sigma, self.EPS)
                shape = w_star.shape
                draws = [w_star + scale * rng.standard_normal(shape)
                         for scale in (1e-6, 1e-3, 1e-1, 1.0) for _ in range(3)]
                draws += [10.0 * rng.standard_normal(shape), np.zeros(shape)]
                at_star, *others = self._boundary_margins(plant, q, sigma, [w_star, *draws])
                verdicts.append(at_star >= 0.0)
                if at_star < 0.0:
                    assert max(others) < 0.0, (plant.n, sigma, at_star, max(others))
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    def test_minimizer_at_eps_passes_where_the_completion_does(self, demo_plant,
                                                               random_plant_config):
        # at sigma = eps, W* = 0 in closed form; its general form passes
        # wherever (eps I, 0) passes, at random Q and at projected optima
        rng = np.random.default_rng(23)
        cases = []
        for plant in [demo_plant, *self._plants(random_plant_config)]:
            low = float(np.min(plant.speeds.diagonal))
            cases.append((plant, _projected_optimum(plant, 1.0, 0.5 * low)))
            cases += [(plant, rng.uniform(0.3, 3.0) * plant.speeds.diagonal) for _ in range(6)]
        passed = 0
        for plant, q in cases:
            w_star = elimination_minimizer(plant, q, self.EPS, self.EPS)
            assert np.max(np.abs(w_star)) <= 1e-12 * max(1.0, np.max(q))
            completion, at_star = self._boundary_margins(
                plant, q, self.EPS, [np.zeros((plant.m, plant.n)), w_star])
            if completion >= 0.0:
                passed += 1
                assert at_star >= 0.0, (plant.n, completion, at_star)
        assert passed >= 7

    def test_rule_is_the_lemma_in_closed_form(self, demo_plant, random_plant_config):
        # the rule's W is the general W* at its sigma, K = W Q^-1, and the
        # block holds there with sigma >= eps
        for plant in [demo_plant, *self._plants(random_plant_config)]:
            low = float(np.min(plant.speeds.diagonal))
            q = _projected_optimum(plant, 1.0, 0.5 * low)
            sigma, w = control.gain_rule(plant, DiagMatrix(q), 1.0, self.EPS)
            want = elimination_minimizer(plant, q, sigma, self.EPS)
            assert sigma > self.EPS
            assert np.allclose(w.array, want, rtol=1e-7, atol=1e-9 * np.max(np.abs(want)))
            assert np.any(w.array != 0.0)
            [margin] = self._boundary_margins(plant, q, sigma, [w.array])
            assert margin >= 0.0
        # a lyap_inv too small for P~ = Q Lambda^-1 - eps I > 0 gets sigma = eps
        # and W = 0, the completion
        sigma, w = control.gain_rule(demo_plant, DiagMatrix(np.full(2, 1e-7)), 1.0, self.EPS)
        assert (sigma, np.any(w.array)) == (self.EPS, False)

    def test_certificates_of_the_seeded_and_random_designs(self, random_plant_config):
        # the seeded-designs and random-draws sets of tools/solver_digest.py:
        # every OPTIMAL projected solve gives a certificate whose synthesis
        # and analysis margins are all >= 0
        def designs():
            for n in range(1, 11):
                plant = cli._build_plant({"plant": random_plant_config(
                    np.random.default_rng(n), n, 1.0)})
                for ratio in (0.5, 0.9, 0.99, 0.999, 0.9999):
                    yield plant, ratio * float(np.min(plant.speeds.diagonal))
            rng = np.random.default_rng(20261019)
            for _ in range(200):
                plant = cli._build_plant({"plant": random_plant_config(
                    rng, int(rng.integers(1, 11)), 1.0)})
                yield plant, rng.uniform(0.9, 1.02) * float(np.min(plant.speeds.diagonal))

        certified = 0
        for plant, alpha in designs():
            try:
                cert = synthesize(plant, 1.0, alpha)
            except control.SynthesisError as e:
                assert e.solution is None or e.solution.status is not sdp.Status.OPTIMAL, e
                continue
            certified += 1
            assert min(cert.margins.values()) >= 0.0, (plant.n, alpha, cert.margins)
            assert min(control.synthesis_margins(plant, cert).values()) >= 0.0
            assert min(verify_analysis(plant, cert).values()) >= 0.0, (plant.n, alpha)
        assert certified == 216


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


def _cell_batch(forms) -> bool:
    """Whether a batch of sdp.minimize_batch holds designs, not rows."""
    return ("peak", 0) in forms[0].refs


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
        # while on the uncontrolled reflection each row is infeasible and no
        # cell is built
        real = control.build_synthesis_lmis
        calls = []

        def build(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:  # the cell (1.0, 0.1); the sweep goes on
                raise FloatingPointError("injected at one cell")
            return real(*args, **kwargs)

        monkeypatch.setattr(control, "build_synthesis_lmis", build)
        failed = ("failed", "FloatingPointError: injected at one cell")
        fm = grid_search(demo_plant, [0.5, 1.0], [0.1, 0.5])
        reasons = {(c.mu, c.alpha): (c.status, c.reason) for c in fm.cells}
        assert reasons == {
            (0.5, 0.1): ("feasible", None),
            (0.5, 0.5): ("infeasible",
                         control._decay_bound(demo_plant, 0.5, 0.5, lmi.DEFAULT_EPS)),
            (1.0, 0.1): failed,
            (1.0, 0.5): ("feasible", None),
        }
        assert reasons[(0.5, 0.5)][1] is not None
        assert (fm.best.mu, fm.best.alpha) == (0.5, 0.1)
        assert len(calls) == 3
        fm = grid_search(reflection_plant, [0.5, 1.0], [0.1, 0.5])
        rows = {r.mu: r.reason for r in fm.rows}
        assert {(c.mu, c.alpha): (c.status, c.reason) for c in fm.cells} == {
            (0.5, 0.1): ("infeasible", rows[0.5]),
            (0.5, 0.5): ("infeasible",
                         control._decay_bound(reflection_plant, 0.5, 0.5, lmi.DEFAULT_EPS)),
            (1.0, 0.1): ("infeasible", rows[1.0]),
            (1.0, 0.5): ("infeasible", rows[1.0]),
        }
        assert fm.best is None and len(calls) == 3

    def test_optimal_cell_whose_point_fails_the_recheck_fails(self, demo_plant,
                                                              monkeypatch):
        # every cell is below the decay bound, so all four reach the solver
        mus, alphas = [0.5, 1.0], [0.1, 0.4]
        honest = grid_search(demo_plant, mus, alphas)
        real = sdp.minimize_batch

        def minimize_batch(forms, *args):
            forms = list(forms)
            solutions = real(forms, *args)
            if not _cell_batch(forms):
                return solutions
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

        def minimize_batch(forms, *args):
            forms = list(forms)
            solutions = solve(forms, *args)
            if not _cell_batch(forms):
                return solutions
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

    def test_best_cell_whose_rule_point_fails_gives_way_to_the_next(self, demo_plant,
                                                                    monkeypatch):
        # the rule's point at the best cell (0.5, 0.1) is doctored to a gain
        # that breaks boundary_block: that cell fails with the re-check's
        # reason, and the next cell by gamma carries synthesize's certificate
        mus, alphas = [0.5, 1.0], [0.1, 0.4]
        honest = grid_search(demo_plant, mus, alphas)
        real, calls = control.gain_rule, []

        def gain_rule(plant, lyap_inv, mu, eps):
            sigma, w = real(plant, lyap_inv, mu, eps)
            calls.append(mu)
            return sigma, Matrix(w.array + 100.0) if len(calls) == 1 else w

        monkeypatch.setattr(control, "gain_rule", gain_rule)
        fm = grid_search(demo_plant, mus, alphas)
        monkeypatch.undo()
        assert calls == [0.5, 1.0]
        bad = fm.cells[0]
        assert (bad.mu, bad.alpha, bad.status, bad.peak, bad.gamma) == (
            0.5, 0.1, "failed", None, None)
        assert bad.reason.startswith("SolverFailureError: re-checked margins dip")
        assert _outcome_key(bad.solution) == _outcome_key(honest.cells[0].solution)
        assert _same_cells(fm.cells[1:], honest.cells[1:])
        ranked = sorted((c.gamma, c.mu, c.alpha) for c in honest.cells if c.status == "feasible")
        assert (fm.best.mu, fm.best.alpha) == ranked[1][1:] == (1.0, 0.1)
        assert _certificate_key(fm.best) == _certificate_key(synthesize(demo_plant, 1.0, 0.1))

    def test_failing_batch_fails_every_cell(self, demo_plant, monkeypatch):
        # the batch of row solves raises first
        def minimize_batch(forms, *args):
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
                    assert (cell.solution, cell.reason, e.solution) == (None, str(e), None)
                    if e.row is None:  # past the decay bound: no solver ran
                        implied.append((cell.mu, cell.alpha))
                    else:
                        assert e.row in fm.rows and e.row.steps > 0
                    continue
                assert cell.solution.newton_steps > 0
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
        assert fm.best.solution.newton_steps > 0 and fm.best.row in fm.rows
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

        def minimize_batch(forms, starts, level=-np.inf):
            solutions = solve(forms, starts, level)
            outcomes.extend(zip(forms, starts, [level] * len(forms), solutions))
            return solutions

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        cells = [c for mu, alpha in grids for c in grid_search(plant, mu, alpha).cells]
        monkeypatch.undo()
        designs = [sol for sf, _, _, sol in outcomes if _cell_batch([sf])]
        assert designs == [c.solution for c in cells if c.solution is not None]
        assert len(designs) == solved
        # the row solves too are each the bits of their lone solve
        for form, start, level, sol in outcomes:
            assert _outcome_key(sol) == _outcome_key(sdp.minimize(form, start, level))

    def test_one_call_recheck_matches_each_cell_alone(self, demo_plant, monkeypatch):
        # the demo grid re-checks the completions (Q, eps I, 0, c) of its 41
        # optimal cells in one stacked call, in the full synthesis form, and
        # every margin is the same bits as the cell's own re-check; a second
        # call re-checks the best cell's rule point alone
        real, calls = lmi.margins_batch, []

        def margins_batch(points):
            points = list(points)
            calls.append((points, real(points)))
            return calls[-1][1]

        monkeypatch.setattr(lmi, "margins_batch", margins_batch)
        fm = grid_search(demo_plant, np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8))
        monkeypatch.undo()
        [(points, margins), ([(best_sf, best_x)], [best_margins])] = calls
        feasible = [c for c in fm.cells if c.status == "feasible"]
        assert len(points) == len(feasible) == 41
        eps = lmi.DEFAULT_EPS
        for (sf, x), got, cell in zip(points, margins, feasible):
            assert [blk.label for blk in sf.blocks] == list(fm.best.margins)
            projected = lmi.vectorize(control.build_projected_lmis(demo_plant, cell.mu,
                                                                   cell.alpha))
            want, values = projected.unpack(cell.solution.x), sf.unpack(x)
            assert np.array_equal(values["lyap_inv"], want["lyap_inv"])
            assert np.array_equal(values["peak"], want["peak"])
            assert np.array_equal(values["sector_inv"], eps * np.eye(2))
            assert not np.any(values["gain_scaled"])
            assert _bits(got) == _bits(lmi.problem_margins(sf, x)), (cell.mu, cell.alpha)
            assert min(got) >= -1e-9
        assert best_x.tobytes() == synthesis_point(best_sf, fm.best).tobytes()
        assert _bits(best_margins) == _bits(list(fm.best.margins.values()))

    @pytest.mark.parametrize("case, below", [("demo", 41), ("reflection", 41),
                                             ("seeded", 44), ("demo-eps0", 41)])
    def test_solver_gets_each_cells_own_form_bit_for_bit(self, case, below, demo_plant,
                                                         reflection_plant,
                                                         random_plant_config, monkeypatch):
        # a row's cells share its projected form but for
        # disturbance_decay_block, and each is the same bits as the cell's
        # own vectorize; so is each full form a completion is re-checked in;
        # only the best cell's certificate is built.  Every cell below the
        # decay bound has its row solved, and the cells of a feasible row
        # are solved: none of the uncontrolled reflection's, some of the
        # seeded plant's
        plant = {"demo": demo_plant, "demo-eps0": demo_plant, "reflection": reflection_plant,
                 "seeded": cli._build_plant({"plant": random_plant_config(
                     np.random.default_rng(4), 4, 1.0)})}[case]
        eps = 0.0 if case == "demo-eps0" else lmi.DEFAULT_EPS
        solve, batches, made = sdp.minimize_batch, [], []
        recheck, rechecked = lmi.margins_batch, []
        certificate = control.SynthesisCertificate

        def minimize_batch(forms, *args):
            batches.append(list(forms))
            return solve(batches[-1], *args)

        def margins_batch(points):
            rechecked.append(list(points))
            return recheck(rechecked[-1])

        def counted_certificate(**fields):
            made.append(certificate(**fields))
            return made[-1]

        monkeypatch.setattr(sdp, "minimize_batch", minimize_batch)
        monkeypatch.setattr(lmi, "margins_batch", margins_batch)
        monkeypatch.setattr(control, "SynthesisCertificate", counted_certificate)
        fm = grid_search(plant, np.linspace(0.25, 2.0, 8), np.linspace(0.1, 1.5, 8), eps=eps)
        monkeypatch.undo()
        rows, *designs = batches
        assert [sf.refs for sf in rows] == [rows[0].refs] * 8 and not _cell_batch(rows)
        forms = designs[0] if designs else []
        cells = [c for c in fm.cells if c.solution is not None]
        feasible_rows = [r.mu for r in fm.rows if r.verdict == "feasible"]
        open_cells = [c for c in fm.cells
                      if control._decay_bound(plant, c.mu, c.alpha, eps) is None]
        assert len(open_cells) == below
        assert len(forms) == len(cells) == sum(c.mu in feasible_rows for c in open_cells)
        firsts = {}
        for sf, cell in zip(forms, cells):
            own = lmi.vectorize(control.build_projected_lmis(plant, cell.mu, cell.alpha,
                                                             eps=eps))
            assert form_bytes(sf) == form_bytes(own), (cell.mu, cell.alpha)
            first = firsts.setdefault(cell.mu, sf)
            assert [a is b for a, b in zip(sf.blocks, first.blocks)] == [
                sf is first or blk.label != "disturbance_decay_block" for blk in sf.blocks]
        assert len(firsts) == len(feasible_rows)
        feasible = [c for c in cells if c.status == "feasible"]
        assert [len(points) for points in rechecked] == ([len(feasible), 1] if feasible else [])
        for (full, _), cell in zip(rechecked[0] if rechecked else [], feasible):
            own = lmi.vectorize(build_synthesis_lmis(plant, cell.mu, cell.alpha, eps=eps))
            assert form_bytes(full) == form_bytes(own), (cell.mu, cell.alpha)
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
        calls = {"build": [], "project": [], "row": [], "vectorize": [], "decay": [],
                 "restate": [], "solve": [], "recheck": []}

        def counted(name, real, count):
            def wrapper(*args, **kwargs):
                calls[name].append(count(*args))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(control, "build_synthesis_lmis", counted(
            "build", control.build_synthesis_lmis, lambda plant, mu, alpha: (mu, alpha)))
        monkeypatch.setattr(control, "build_projected_lmis", counted(
            "project", control.build_projected_lmis, lambda plant, mu, alpha: (mu, alpha)))
        monkeypatch.setattr(control, "build_row_lmis", counted(
            "row", control.build_row_lmis, lambda plant, mu: mu))
        monkeypatch.setattr(lmi, "vectorize", counted("vectorize", lmi.vectorize,
                                                      lambda problem: 1))
        monkeypatch.setattr(control, "_disturbance_decay", counted(
            "decay", control._disturbance_decay, lambda plant, mu, alpha, eps: (mu, alpha)))
        monkeypatch.setattr(lmi, "restate", counted("restate", lmi.restate,
                                                    lambda sf, con, eps: con.label))
        monkeypatch.setattr(sdp, "minimize_batch", counted(
            "solve", sdp.minimize_batch, lambda forms, starts, level=None: len(forms)))
        monkeypatch.setattr(lmi, "margins_batch", counted("recheck", lmi.margins_batch, len))
        fm = grid_search(demo_plant, self.DEMO_MU, self.DEMO_ALPHA)
        below = [(c.mu, c.alpha) for c in fm.cells if c.alpha < c.mu]
        assert len(below) == 41
        # one row problem per mu, the 8 solved in one batch; one build of
        # each form per mu row, at its first cell below the bound (alpha =
        # 0.1 in every row), whose two builders pose its decay block; each
        # of the row's other 33 cells poses its decay block alone and
        # restates the row's two forms with it; no cell past the bound poses
        # one.  The 41 completions are re-checked in one call, the best
        # cell's rule point in another
        firsts = [(mu, self.DEMO_ALPHA[0]) for mu in self.DEMO_MU]
        assert calls == {"build": firsts, "project": firsts, "row": list(self.DEMO_MU),
                         "vectorize": [1] * 24,
                         "decay": [w for w in below for _ in range(1 + (w in firsts))],
                         "restate": ["disturbance_decay_block"] * 66, "solve": [8, 41],
                         "recheck": [41, 1]}
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
        # the cell below reaches the solver, but its start needs Q of about
        # 1e16 (min_i q-hat_i (mu lambda_i - alpha) is about 1e-16), past the
        # solver's box, so it ends there at once
        assert fm.cells[0].solution is not None
        assert fm.cells[0].status == "failed" and fm.cells[0].solution.newton_steps == 0
        assert np.max(fm.cells[0].solution.x) >= sdp._BOX
        assert (fm.cells[1].status, fm.cells[1].solution) == ("infeasible", None)

    def test_eps_zero_reaches_the_solver(self, demo_plant, reflection_plant):
        # below the bound, eps = 0 poses every block without slack, and the
        # row and the design still go to the solver
        assert control._decay_bound(demo_plant, 1.0, 0.5, 0.0) is None
        [cell] = grid_search(demo_plant, [1.0], [0.5], eps=0.0).cells
        assert cell.solution.newton_steps > 0
        assert cell.reason is None
        with pytest.raises(InfeasibleError) as exc:
            synthesize(reflection_plant, 1.0, 0.5, eps=0.0)
        assert exc.value.row.verdict == "infeasible" and exc.value.row.steps > 0

    def test_eps_zero_past_the_bound_has_no_strictly_feasible_point(self, demo_plant):
        # q_1 > 0 and q_1 (mu lambda_1 - alpha) > 0 cannot both hold, so the
        # solver would have no start: the closed-form verdict stands
        reason = control._decay_bound(demo_plant, 1.0, 1.2, 0.0)
        assert reason == ("alpha=1.2 >= mu*lambda_1=1.0, so no strictly feasible point: "
                          "q_1 > 0 keeps entry 1 of disturbance_decay_block at 0 or below")
        [cell] = grid_search(demo_plant, [1.0], [1.2], eps=0.0).cells
        assert (cell.status, cell.reason, cell.solution) == ("infeasible", reason, None)
        with pytest.raises(InfeasibleError, match="no strictly feasible point"):
            synthesize(demo_plant, 1.0, 1.2, eps=0.0)


class TestRows:
    """The row problem (control.build_row_lmis), its verdicts and the
    closed-form starts it gives the designs of its row."""

    @staticmethod
    def _plants(demo_plant, random_plant_config):
        return [demo_plant] + [cli._build_plant({"plant": random_plant_config(
            np.random.default_rng(n), n, 1.0)}) for n in range(1, 11)]

    def test_every_block_has_room_at_the_starts(self, demo_plant, random_plant_config):
        # the row form at its start and the projected form at the start
        # built from the row's solve: every block's margin is positive
        designs = [(plant, 1.0, 0.5 * float(np.min(plant.speeds.diagonal)))
                   for plant in self._plants(demo_plant, random_plant_config)]
        designs += [(demo_plant, 2.5, 0.1), (demo_plant, 2.7, 0.1)]
        for plant, mu, alpha in designs:
            [row] = control._rows(plant, [mu])
            assert row.verdict == "feasible", (plant.n, mu)
            if plant.n > 1:
                sf = lmi.vectorize(control.build_row_lmis(plant, mu))
                q = np.full(plant.n, 1.0 / plant.n)
                top = np.linalg.eigvalsh(control._open_loop(plant, mu)(np.diag(q)))[-1]
                x = sf.pack({"lyap_share": q[1:], "row_margin": [top + control._ROW_START]})
                assert min(lmi.problem_margins(sf, x)) > 0.0, (plant.n, mu)
            sf = lmi.vectorize(control.build_projected_lmis(plant, mu, alpha))
            x = sf.pack(control._start(plant, row, mu, alpha, lmi.DEFAULT_EPS))
            assert min(lmi.problem_margins(sf, x)) > 0.0, (plant.n, mu, alpha)

    def test_one_state_row_is_the_eigenvalue(self, random_plant_config):
        # the simplex of one state is q = 1, so s* = lambda_max(OL(1)), with
        # no solve
        plant = cli._build_plant({"plant": random_plant_config(np.random.default_rng(1), 1, 1.0)})
        for mu in (0.5, 1.0, 3.0):
            [row] = control._rows(plant, [mu])
            top = np.linalg.eigvalsh(control._open_loop(plant, mu)(np.eye(1)))[-1]
            assert (row.s, row.bound, row.steps, row.direction) == (top, top, 0, (1.0,))
        with pytest.raises(ValueError, match="one state"):
            control.build_row_lmis(plant, 1.0)

    def test_rows_decide_on_either_side_of_the_resolution(self, demo_plant):
        # the demo's mu edge is -2 ln 0.25: its rows are feasible below the
        # band around s* = 0, undecided in it and infeasible past it
        rows = control._rows(demo_plant, [2.0, 2.7, 2.76, 2.78])
        assert [r.verdict for r in rows] == ["feasible", "feasible", "failed", "infeasible"]
        assert rows[0].s < 0.0 and rows[1].s < -control._RESOLUTION
        assert rows[2].reason == f"row margin s = {rows[2].s:.3e} within resolution 1e-07"
        assert rows[3].bound > control._RESOLUTION and rows[3].reason.startswith(
            "row bound s - gap = ")
        [cell] = grid_search(demo_plant, [2.76], [0.1]).cells
        assert (cell.status, cell.reason, cell.solution) == ("failed", rows[2].reason, None)


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
        # the smallest supply gain the gain admits, from the reported point
        # of the next test, which is strictly inside
        sf = lmi.vectorize(dataclasses.replace(prob, objective=((("supply_sq", 0), 1.0),)))
        start = sf.pack({"lyap": 1.0 / LYAP_INV, "sector": np.array([0.08498, 0.05428]),
                         "supply_sq": np.array([1.0])})
        assert min(lmi.problem_margins(sf, start)) > 0.0
        sol = sdp.minimize(sf, start)
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
        # the start and the solver's last x in each of the 41 cells below the
        # decay bound
        weights = [(mu, alpha) for mu in np.linspace(0.25, 2.0, 8)
                   for alpha in np.linspace(0.1, 1.5, 8) if alpha < mu]
        problems = [build_synthesis_lmis(demo_plant, *w) for w in weights]
        forms = [lmi.vectorize(p) for p in problems]
        starts = [full_start(sf, demo_plant, *w) for sf, w in zip(forms, weights)]
        solutions = sdp.minimize_batch(forms, starts)
        assert {sol.status for sol in solutions} == {sdp.Status.OPTIMAL}
        for problem, sf, start, sol in zip(problems, forms, starts, solutions):
            for x in (start, sol.x):
                assert _bits(lmi.problem_margins(sf, x)) == _bits(
                    reference_margins(problem, sf, x))


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
