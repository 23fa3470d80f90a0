from __future__ import annotations

import math

import numpy as np
import pytest

from hypiss import lmi
from hypiss.lmi import (
    GEQ,
    LEQ,
    Constraint,
    IncompletePointError,
    LmiProblem,
    MatExpr,
    Point,
    VarSpec,
    evaluate,
    margin,
    sym_block,
    vectorize,
)
from identities import block_value, vector


def _demo_specs():
    return (
        VarSpec.diagonal("q", 2),
        VarSpec.diagonal("s", 2),
        VarSpec.full("w", 2, 2),
        VarSpec.symmetric("g", 2),
        VarSpec.scalar("c"),
    )


def _demo_point(specs):
    return Point.build(specs, {
        "q": [12.5, 82.0],
        "s": [1.0, 1.0],
        "w": np.array([[-0.24, 0.0], [0.33, -0.08]]) @ np.diag([12.5, 82.0]),
        "g": np.array([[4.07, 0.195], [0.195, 36.3]]),
        "c": [82.0],
    })


class TestVarSpec:
    def test_entry_counts(self):
        assert VarSpec.scalar("a").n_entries == 1
        assert VarSpec.diagonal("b", 4).n_entries == 4
        assert VarSpec.full("c", 2, 3).n_entries == 6
        assert VarSpec.symmetric("d", 3).n_entries == 6

    def test_symmetric_round_trip(self):
        spec = VarSpec.symmetric("g", 3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2.0
        e = spec.entries_from_matrix(a)
        assert np.array_equal(spec.matrix_from_entries(e), a)

    def test_full_row_major(self):
        spec = VarSpec.full("w", 2, 3)
        e = np.arange(6.0)
        assert np.array_equal(spec.matrix_from_entries(e),
                              [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            VarSpec("x", "dense", 2, 2)


class TestExpressions:
    def test_constant_expr(self):
        e = MatExpr.constant(np.array([[2.0, 1.0], [1.0, 2.0]]))
        m = evaluate(e, Point({}))
        assert np.array_equal(m.array, [[2.0, 1.0], [1.0, 2.0]])

    def test_affine_algebra_matches_dense(self):
        # random affine pipeline evaluated two ways
        rng = np.random.default_rng(3)
        spec = VarSpec.full("w", 2, 3)
        left = rng.standard_normal((4, 2))
        right = rng.standard_normal((3, 4))
        shift = rng.standard_normal((4, 4))
        e = left @ MatExpr.from_var(spec) @ right + shift
        w = rng.standard_normal((2, 3))
        p = Point.build([spec], {"w": w})
        assert np.allclose(e.value(p), left @ w @ right + shift, atol=1e-13)

    def test_affinity_property(self):
        rng = np.random.default_rng(4)
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        g = MatExpr.from_var(specs[3])
        expr = q @ np.diag([0.5, -0.9]) + g
        for _ in range(20):
            pa = Point.build(specs[:1] + specs[3:4], {
                "q": rng.standard_normal(2), "g": rng.standard_normal((3,))})
            pb = Point.build(specs[:1] + specs[3:4], {
                "q": rng.standard_normal(2), "g": rng.standard_normal((3,))})
            th = rng.uniform()
            mix = Point({
                "q": th * pa.entries["q"] + (1 - th) * pb.entries["q"],
                "g": th * pa.entries["g"] + (1 - th) * pb.entries["g"]})
            lhs = evaluate(expr, mix).array
            rhs = th * evaluate(expr, pa).array + (1 - th) * evaluate(expr, pb).array
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_evaluate_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        spec = VarSpec.full("w", 3, 3)
        c = rng.standard_normal((3, 3))
        e = c.T @ MatExpr.from_var(spec) @ c
        p = Point.build([spec], {"w": rng.standard_normal((3, 3))})
        m = evaluate(e, p).array
        assert np.array_equal(m, m.T)

    def test_decay_block_demo_values(self):
        # Q*(alpha*I - mu*Lambda) + G at the bundled demo values, against a
        # hand expansion with plain scalar arithmetic
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        g = MatExpr.from_var(specs[3])
        lam = np.array([1.0, math.sqrt(2.0)])
        mu, alpha = 1.0, 0.5
        expr = q @ np.diag(alpha - mu * lam) + g
        got = evaluate(expr, _demo_point(specs)).array
        expected = np.array([
            [12.5 * (0.5 - 1.0) + 4.07, 0.195],
            [0.195, 82.0 * (0.5 - math.sqrt(2.0)) + 36.3],
        ])
        assert np.allclose(got, expected, atol=1e-12)

    def test_nonaffine_product_rejected(self):
        a = MatExpr.from_var(VarSpec.diagonal("q", 2))
        with pytest.raises(TypeError):
            a @ a


class TestSymBlock:
    def test_mirrors_upper_triangle(self):
        rng = np.random.default_rng(6)
        spec = VarSpec.full("w", 2, 2)
        w = rng.standard_normal((2, 2))
        a = rng.standard_normal((2, 2))
        d1 = rng.standard_normal((2, 2))
        d1 = d1 + d1.T
        d2 = rng.standard_normal((2, 2))
        d2 = d2 + d2.T
        expr = sym_block([[d1, MatExpr.from_var(spec) + a], [None, d2]])
        p = Point.build([spec], {"w": w})
        got = evaluate(expr, p).array
        top = w + a
        expected = np.block([[d1, top], [top.T, d2]])
        assert np.allclose(got, expected, atol=1e-13)

    def test_missing_diagonal_rejected(self):
        with pytest.raises(ValueError):
            sym_block([[None, np.eye(2)], [None, np.eye(2)]])

    def test_lower_triangle_must_be_none(self):
        with pytest.raises(ValueError):
            sym_block([[np.eye(2), None], [np.eye(2), np.eye(2)]])


class TestMargin:
    def test_scalar_leq_example(self):
        expr = MatExpr.constant(np.array([[1.0]]))
        eps = 1e-6
        assert margin(expr, LEQ, Point({}), eps=eps) == pytest.approx(-1.0 - eps, abs=1e-15)

    def test_zero_matrix_both_senses(self):
        expr = MatExpr.constant(np.zeros((2, 2)))
        assert margin(expr, LEQ, Point({}), eps=0.0) == pytest.approx(0.0, abs=1e-15)
        assert margin(expr, GEQ, Point({}), eps=0.0) == pytest.approx(0.0, abs=1e-15)

    def test_demo_margin_value(self):
        a = np.diag([6.25, 74.97]) - np.array([[4.07, 0.195], [0.195, 36.3]])
        expr = MatExpr.constant(a)
        assert margin(expr, GEQ, Point({}), eps=0.0) == pytest.approx(2.17895, abs=5e-3)

    def test_negation_duality(self):
        rng = np.random.default_rng(7)
        spec = VarSpec.symmetric("g", 3)
        e = MatExpr.from_var(spec) + rng.standard_normal((3, 3)).round(3)
        p = Point.build([spec], {"g": rng.standard_normal(6)})
        for eps in (0.0, 1e-6, 0.1):
            assert margin(e, LEQ, p, eps=eps) == pytest.approx(
                margin(-e, GEQ, p, eps=eps), abs=1e-12)


class TestCanonicalForm:
    def _raw(self):
        # terms out of order, non-symmetric, and one with a zero coefficient
        rng = np.random.default_rng(12)
        coeffs = {("w", 1): rng.standard_normal((3, 3)),
                  ("a", 0): np.zeros((3, 3)),
                  ("g", 2): rng.standard_normal((3, 3)),
                  ("g", 0): rng.standard_normal((3, 3))}
        return MatExpr((3, 3), rng.standard_normal((3, 3)), coeffs)

    def test_constraint_stores_canonical_form(self):
        raw = self._raw()
        expr = Constraint(raw, LEQ, "c").expr
        assert list(expr.coeffs) == [("g", 0), ("g", 2), ("w", 1)]
        assert np.array_equal(expr.const, expr.const.T)
        assert np.array_equal(expr.const, (raw.const + raw.const.T) / 2.0)
        for ref, coeff in expr.coeffs.items():
            assert np.array_equal(coeff, coeff.T)
            assert np.array_equal(coeff, (raw.coeffs[ref] + raw.coeffs[ref].T) / 2.0)

    def test_evaluates_term_by_term_in_sorted_order(self):
        raw = self._raw()
        expr = Constraint(raw, LEQ, "c").expr
        p = Point({"a": np.array([3.0]), "g": np.array([0.5, -1.0, 2.0]),
                   "w": np.array([1.5, -0.25])})
        m = (raw.const + raw.const.T) / 2.0
        for ref in sorted(raw.coeffs):
            m += p.entry(ref) * ((raw.coeffs[ref] + raw.coeffs[ref].T) / 2.0)
        got = evaluate(expr, p).array
        assert np.array_equal(got, (m + m.T) / 2.0)
        assert np.allclose(got, evaluate(raw, p).array, rtol=0.0, atol=1e-12)

    def test_canonical_form_is_a_fixed_point(self):
        expr = Constraint(self._raw(), LEQ, "c").expr
        again = Constraint(expr, LEQ, "c").expr
        assert list(again.coeffs) == list(expr.coeffs)
        assert np.array_equal(again.const, expr.const)
        for ref, coeff in expr.coeffs.items():
            assert np.array_equal(again.coeffs[ref], coeff)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Constraint(MatExpr.constant(np.ones((2, 3))), GEQ, "wide")


class TestProblem:
    def _problem(self):
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        g = MatExpr.from_var(specs[3])
        cons = (
            Constraint(q @ np.diag([-0.5, -0.9]) + g, LEQ, "decay"),
            Constraint(q, GEQ, "q_pos"),
            Constraint(q - MatExpr.scalar_identity("c", 2), LEQ,
                       "peak_cap", eps=0.0),
        )
        return LmiProblem(specs, cons, objective=((("c", 0), 1.0),))

    def test_entry_count(self):
        assert self._problem().n_entries == 12

    def test_undeclared_reference_rejected(self):
        spec = VarSpec.diagonal("q", 2)
        bad = Constraint(MatExpr.scalar_identity("zz", 2), GEQ)
        with pytest.raises(ValueError):
            LmiProblem((spec,), (bad,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LmiProblem((VarSpec.scalar("a"), VarSpec.diagonal("a", 2)), ())

    def test_eps_override(self):
        prob = self._problem()
        assert prob.resolved_eps(prob.constraints[0]) == lmi.DEFAULT_EPS
        assert prob.resolved_eps(prob.constraints[2]) == 0.0

    def test_missing_point_entry(self):
        prob = self._problem()
        p = Point({"q": np.array([1.0, 1.0])})
        with pytest.raises(IncompletePointError):
            lmi.problem_margins(prob, p)


class TestVectorize:
    def test_declaration_order_and_initial(self):
        sf = vectorize(LmiProblem(_demo_specs(), ()))
        assert len(sf.refs) == 12
        assert [r for r in sf.refs[:2]] == [("q", 0), ("q", 1)]
        # diagonal variables start at 1, everything else at 0
        expected = [1.0] * 4 + [0.0] * 8
        assert np.array_equal(sf.initial, expected)

    def test_round_trip_blockwise(self):
        rng = np.random.default_rng(9)
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        w = MatExpr.from_var(specs[2])
        g = MatExpr.from_var(specs[3])
        h = rng.standard_normal((2, 2))
        cons = (
            Constraint(sym_block([[q @ np.diag([-1.0, -2.0]), h @ w],
                                  [None, -2.0 * MatExpr.from_var(specs[1])]]), LEQ, "big"),
            Constraint(g + np.eye(2), GEQ, "g_shift"),
            Constraint(q - MatExpr.scalar_identity("c", 2), LEQ, "cap"),
        )
        prob = LmiProblem(specs, cons, objective=((("c", 0), 1.0),))
        sf = vectorize(prob)
        for _ in range(100):
            x = rng.standard_normal(sf.n)
            p = sf.point(x)
            assert np.array_equal(vector(sf, p), x)
            for blk, con in zip(sf.blocks, prob.constraints):
                # sense and eps are folded in: the block reads value(x) > 0
                sign = -1.0 if con.sense == LEQ else 1.0
                want = (sign * evaluate(con.expr, p).array
                        - prob.resolved_eps(con) * np.eye(blk.dim))
                assert np.allclose(block_value(blk, x), want, atol=1e-12)

    def test_objective_vector(self):
        specs = _demo_specs()
        prob = LmiProblem(specs, (), objective=((("c", 0), 1.0),))
        sf = vectorize(prob)
        assert sf.objective is not None
        assert sf.objective.sum() == 1.0
        assert sf.objective[sf.refs.index(("c", 0))] == 1.0
