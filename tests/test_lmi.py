from __future__ import annotations

import math

import numpy as np
import pytest

from hypiss import lmi
from hypiss.lmi import (
    GEQ,
    LEQ,
    Constraint,
    LmiProblem,
    MatExpr,
    VarSpec,
    margin,
    sym_block,
    vectorize,
)
from identities import expr_value, form_bytes


def _demo_specs():
    return (
        VarSpec.diagonal("q", 2),
        VarSpec.diagonal("s", 2),
        VarSpec.full("w", 2, 2),
        VarSpec.diagonal("g", 2),
        VarSpec.scalar("g12"),
        VarSpec.scalar("c"),
    )


def _coupling(specs):
    """The symmetric 2x2 coupling of the demo specs: its diagonal g and
    its off-diagonal entry g12."""
    return (MatExpr.from_var(specs[3])
            + MatExpr.scalar_identity("g12", 2) @ np.array([[0.0, 1.0], [1.0, 0.0]]))


_DEMO_VALUES = {
    "q": [12.5, 82.0],
    "s": [1.0, 1.0],
    "w": np.array([[-0.24, 0.0], [0.33, -0.08]]) @ np.diag([12.5, 82.0]),
    "g": [4.07, 36.3],
    "g12": [0.195],
    "c": [82.0],
}


def _block(expr, sense=GEQ, specs=(), eps=0.0):
    """The standard-form block of the one constraint `expr sense eps I`."""
    return vectorize(LmiProblem(specs, (Constraint(expr, sense, eps=eps),))).blocks[0]


def _value(expr, specs=(), values=None):
    """The value of a square expression at the point, as the library
    evaluates it: the block of `expr >= 0` at the packed entry vector."""
    sf = vectorize(LmiProblem(specs, (Constraint(expr, GEQ),)))
    return sf.blocks[0].value(sf.pack(values or {}))


def _expr_at(expr, specs, values):
    """The reference value of any expression at the point."""
    sf = vectorize(LmiProblem(specs, ()))
    return expr_value(expr, sf, sf.pack(values))


class TestVarSpec:
    def test_entry_counts(self):
        assert VarSpec.scalar("a").n_entries == 1
        assert VarSpec.diagonal("b", 4).n_entries == 4
        assert VarSpec.full("c", 2, 3).n_entries == 6

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
        m = _value(e)
        assert np.array_equal(m, [[2.0, 1.0], [1.0, 2.0]])

    def test_affine_algebra_matches_dense(self):
        # random affine pipeline evaluated two ways
        rng = np.random.default_rng(3)
        spec = VarSpec.full("w", 2, 3)
        left = rng.standard_normal((4, 2))
        right = rng.standard_normal((3, 4))
        shift = rng.standard_normal((4, 4))
        e = left @ MatExpr.from_var(spec) @ right + shift
        w = rng.standard_normal((2, 3))
        assert np.allclose(_expr_at(e, [spec], {"w": w}), left @ w @ right + shift,
                           atol=1e-13)

    def test_affinity_property(self):
        rng = np.random.default_rng(4)
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        blk = _block(q @ np.diag([0.5, -0.9]) + _coupling(specs), LEQ, specs[:1] + specs[3:5])
        for _ in range(20):
            xa, xb = rng.standard_normal(5), rng.standard_normal(5)
            th = rng.uniform()
            lhs = blk.value(th * xa + (1 - th) * xb)
            rhs = th * blk.value(xa) + (1 - th) * blk.value(xb)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_evaluate_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        spec = VarSpec.full("w", 3, 3)
        c = rng.standard_normal((3, 3))
        e = c.T @ MatExpr.from_var(spec) @ c
        m = _value(e, [spec], {"w": rng.standard_normal((3, 3))})
        assert np.array_equal(m, m.T)

    def test_decay_block_demo_values(self):
        # Q*(alpha*I - mu*Lambda) + G at the bundled demo values, against a
        # hand expansion with plain scalar arithmetic
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        lam = np.array([1.0, math.sqrt(2.0)])
        mu, alpha = 1.0, 0.5
        expr = q @ np.diag(alpha - mu * lam) + _coupling(specs)
        got = _value(expr, specs, _DEMO_VALUES)
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
        got = _value(expr, [spec], {"w": w})
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
        blk = _block(expr, LEQ, eps=eps)
        assert margin(blk, np.zeros(0)) == pytest.approx(-1.0 - eps, abs=1e-15)

    def test_zero_matrix_both_senses(self):
        expr = MatExpr.constant(np.zeros((2, 2)))
        assert margin(_block(expr, LEQ), np.zeros(0)) == pytest.approx(0.0, abs=1e-15)
        assert margin(_block(expr, GEQ), np.zeros(0)) == pytest.approx(0.0, abs=1e-15)

    def test_demo_margin_value(self):
        a = np.diag([6.25, 74.97]) - np.array([[4.07, 0.195], [0.195, 36.3]])
        expr = MatExpr.constant(a)
        assert margin(_block(expr), np.zeros(0)) == pytest.approx(2.17895, abs=5e-3)

    def test_negation_duality(self):
        rng = np.random.default_rng(7)
        spec = VarSpec.full("g", 3, 3)
        e = MatExpr.from_var(spec) + rng.standard_normal((3, 3)).round(3)
        x = rng.standard_normal(9)
        for eps in (0.0, 1e-6, 0.1):
            assert margin(_block(e, LEQ, [spec], eps), x) == pytest.approx(
                margin(_block(-e, GEQ, [spec], eps), x), abs=1e-12)


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
        specs = (VarSpec.scalar("a"), VarSpec.diagonal("g", 3), VarSpec.full("w", 1, 2))
        sf = vectorize(LmiProblem(specs, (Constraint(raw, GEQ, "c"),)))
        values = {"a": [3.0], "g": [0.5, -1.0, 2.0], "w": np.array([[1.5, -0.25]])}
        x = sf.pack(values)
        m = (raw.const + raw.const.T) / 2.0
        for ref in sorted(raw.coeffs):
            m += x[sf.refs.index(ref)] * ((raw.coeffs[ref] + raw.coeffs[ref].T) / 2.0)
        got = sf.blocks[0].value(x)
        assert np.array_equal(got, m)
        assert np.array_equal(got, (m + m.T) / 2.0)
        ref = expr_value(raw, sf, x)
        assert np.allclose(got, (ref + ref.T) / 2.0, rtol=0.0, atol=1e-12)

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
        cons = (
            Constraint(q @ np.diag([-0.5, -0.9]) + _coupling(specs), LEQ, "decay"),
            Constraint(q, GEQ, "q_pos"),
            Constraint(q - MatExpr.scalar_identity("c", 2), LEQ,
                       "peak_cap", eps=0.0),
        )
        return LmiProblem(specs, cons, objective=((("c", 0), 1.0),))

    def test_entry_count(self):
        assert vectorize(self._problem()).n == 12

    def test_undeclared_reference_rejected(self):
        spec = VarSpec.diagonal("q", 2)
        bad = Constraint(MatExpr.scalar_identity("zz", 2), GEQ)
        with pytest.raises(ValueError):
            LmiProblem((spec,), (bad,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LmiProblem((VarSpec.scalar("a"), VarSpec.diagonal("a", 2)), ())

    def test_eps_override(self):
        blocks = vectorize(self._problem()).blocks
        assert blocks[0].eps == lmi.DEFAULT_EPS
        assert blocks[2].eps == 0.0

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="constraint eps"):
            Constraint(MatExpr.constant(np.eye(1)), GEQ, eps=float("nan"))
        with pytest.raises(ValueError, match="problem eps"):
            LmiProblem((), (), eps=float("nan"))

    def test_pack_rejects_an_unknown_variable(self):
        sf = vectorize(self._problem())
        with pytest.raises(ValueError, match="no variable named 'coupling'"):
            sf.pack(dict(_DEMO_VALUES, coupling=np.eye(2)))

    def test_missing_point_entry(self):
        sf = vectorize(self._problem())
        with pytest.raises(ValueError, match="no value given for variable 's'"):
            sf.pack({"q": np.array([1.0, 1.0])})

    def test_pack_checks_shapes_and_finiteness(self):
        sf = vectorize(self._problem())
        good = dict(_DEMO_VALUES)
        assert sf.pack(good).shape == (12,)
        with pytest.raises(ValueError, match="expected 2 entries"):
            sf.pack(dict(good, q=[1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            sf.pack(dict(good, w=np.ones((2, 3))))
        with pytest.raises(ValueError, match="non-finite"):
            sf.pack(dict(good, g12=[np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            sf.pack(dict(good, c=[np.inf]))

    def test_pack_refuses_a_diagonal_variable_off_its_diagonal(self):
        sf = vectorize(self._problem())
        good = dict(_DEMO_VALUES)
        assert np.array_equal(sf.pack(dict(good, q=np.diag([12.5, 82.0]))), sf.pack(good))
        for off in (np.nan, 5.0):
            with pytest.raises(ValueError, match="variable q: diagonal, but an entry off"):
                sf.pack(dict(good, q=[[12.5, off], [0.0, 82.0]]))


class TestVectorize:
    def test_declaration_order_and_initial(self):
        sf = vectorize(LmiProblem(_demo_specs(), ()))
        assert len(sf.refs) == 12
        assert [r for r in sf.refs[:2]] == [("q", 0), ("q", 1)]
        # diagonal variables start at 1, everything else at 0
        expected = [1.0] * 4 + [0.0] * 4 + [1.0] * 2 + [0.0] * 2
        assert np.array_equal(sf.initial, expected)

    def test_round_trip_blockwise(self):
        rng = np.random.default_rng(9)
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        w = MatExpr.from_var(specs[2])
        g = _coupling(specs)
        h = rng.standard_normal((2, 2))
        cons = (
            Constraint(sym_block([[q @ np.diag([-1.0, -2.0]), h @ w],
                                  [None, -2.0 * MatExpr.from_var(specs[1])]]), LEQ, "big"),
            Constraint(g + np.eye(2), GEQ, "g_shift"),
            Constraint(q - MatExpr.scalar_identity("c", 2), LEQ, "cap"),
        )
        prob = LmiProblem(specs, cons, objective=((("c", 0), 1.0),), eps=1e-3)
        sf = vectorize(prob)
        assert [blk.label for blk in sf.blocks] == ["big", "g_shift", "cap"]
        assert [blk.eps for blk in sf.blocks] == [1e-3, 1e-3, 1e-3]
        for _ in range(100):
            x = rng.standard_normal(sf.n)
            assert np.array_equal(sf.pack(sf.unpack(x)), x)
            for blk, con in zip(sf.blocks, prob.constraints):
                # the sense is folded into the sign, bit for bit
                sign = -1.0 if con.sense == LEQ else 1.0
                assert np.array_equal(blk.value(x), sign * expr_value(con.expr, sf, x))

    def test_objective_vector(self):
        specs = _demo_specs()
        prob = LmiProblem(specs, (), objective=((("c", 0), 1.0),))
        sf = vectorize(prob)
        assert sf.objective is not None
        assert sf.objective.sum() == 1.0
        assert sf.objective[sf.refs.index(("c", 0))] == 1.0

    def test_each_block_says_whether_it_is_diagonal(self):
        specs = _demo_specs()
        q = MatExpr.from_var(specs[0])
        cons = (Constraint(q, GEQ, "diag"),
                Constraint(q - MatExpr.scalar_identity("c", 2), LEQ, "cap", eps=0.0),
                Constraint(_coupling(specs), GEQ, "coupled"),
                Constraint(q + np.array([[1.0, 0.5], [0.5, 1.0]]), GEQ, "offbase"))
        sf = vectorize(LmiProblem(specs, cons))
        assert [blk.diagonal for blk in sf.blocks] == [True, True, False, False]


def _restate_problem(rate: float, eps: float = 1e-3) -> LmiProblem:
    """A problem whose constraint "rated" alone depends on rate."""
    specs = _demo_specs()
    q, s = MatExpr.from_var(specs[0]), MatExpr.from_var(specs[1])
    cons = (
        Constraint(q - MatExpr.scalar_identity("c", 2), LEQ, "cap", eps=0.0),
        Constraint(sym_block([[q @ np.diag([rate, 2.0 * rate]), np.eye(2)],
                              [None, s]]), GEQ, "rated"),
        Constraint(_coupling(specs), GEQ, "coupled"),
    )
    return LmiProblem(specs, cons, objective=((("c", 0), 1.0),), eps=eps)


class TestRestate:
    def test_is_the_members_own_vectorize_and_shares_the_rest(self):
        first = vectorize(_restate_problem(0.5))
        for rate in (0.5, 0.7, 3.25):
            member = _restate_problem(rate)
            sf = lmi.restate(first, member.constraints[1], member.eps)
            assert form_bytes(sf) == form_bytes(vectorize(member)), rate
            assert [a is b for a, b in zip(sf.blocks, first.blocks)] == [True, False, True]
            assert all(getattr(sf, f) is getattr(first, f)
                       for f in ("refs", "initial", "objective", "variables"))
        # the problem-wide slack reaches the restated block, not the others
        sf = lmi.restate(first, _restate_problem(0.7).constraints[1], 0.25)
        assert [blk.eps for blk in sf.blocks] == [0.0, 0.25, 1e-3]

    def test_refuses_what_the_form_cannot_take(self):
        sf = vectorize(_restate_problem(0.5))
        con = _restate_problem(0.7).constraints[1]
        with pytest.raises(ValueError, match="one block labelled 'other'"):
            lmi.restate(sf, Constraint(con.expr, GEQ, "other"), 1e-3)
        with pytest.raises(ValueError, match="problem eps"):
            lmi.restate(sf, con, float("nan"))
        stray = MatExpr.scalar_identity("stray", 4)
        with pytest.raises(ValueError, match="stray"):
            lmi.restate(sf, Constraint(stray, GEQ, "rated"), 1e-3)
