from __future__ import annotations

import math

import numpy as np
import pytest

from hypiss import linalg, lmi, sdp
from hypiss.control import Plant, build_synthesis_lmis
from hypiss.linalg import (
    ConvergenceError,
    DiagMatrix,
    Matrix,
    SingularMatrixError,
    SymMatrix,
    invert_diag,
    sym_eig,
)
from identities import full_start


def _random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return SymMatrix.symmetrized(a + a.T)


class TestTypes:
    def test_matrix_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Matrix([1.0, 2.0])

    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            Matrix([[float("nan")]])

    def test_matrix_is_readonly(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 9.0

    def test_sym_requires_exact_symmetry(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0], [2.0 + 1e-14, 1.0]])

    def test_symmetrized_is_bitwise_symmetric(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        s = SymMatrix.symmetrized(a)
        assert np.array_equal(s.array, s.array.T)

    def test_diag_full_array(self):
        d = DiagMatrix([2.0, -1.0])
        assert np.array_equal(d.array, [[2.0, 0.0], [0.0, -1.0]])


class TestSymEig:
    def test_identity(self):
        [w] = sym_eig([SymMatrix(np.eye(3))])
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        [w] = sym_eig([SymMatrix(DiagMatrix([3.0, -5.0, 1.0]).array)])
        assert np.allclose(w, [-5.0, 1.0, 3.0])

    def test_two_by_two_closed_form(self):
        # eigenvalues of [[a, b], [b, d]] from the quadratic formula
        a, b, d = 4.07, 0.195, 36.3
        mean = (a + d) / 2.0
        rad = math.sqrt(((a - d) / 2.0) ** 2 + b * b)
        expected = [mean - rad, mean + rad]
        [w] = sym_eig([SymMatrix([[a, b], [b, d]])])
        assert np.allclose(w, expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        # S = V diag(w) V^T with V orthonormal means tr S = sum w and
        # |S|_F^2 = sum w^2, which the eigenvalues alone can show
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 6, 8):
            for _ in range(5):
                s = _random_sym(rng, n)
                [w] = sym_eig([s])
                scale = max(np.linalg.norm(s.array), 1.0)
                assert abs(w.sum() - np.trace(s.array)) <= 1e-9 * scale
                assert abs(w @ w - np.sum(s.array ** 2)) <= 1e-9 * scale ** 2
                assert np.all(np.diff(w) >= -1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = _random_sym(rng, 6)
            [w] = sym_eig([s])
            assert np.allclose(w, np.linalg.eigvalsh(s.array), atol=1e-10)

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(3)
        s = _random_sym(rng, 5)
        lo, hi = sym_eig([s])[0][[0, -1]]
        for _ in range(100):
            x = rng.standard_normal(5)
            r = float(x @ s.array @ x) / float(x @ x)
            assert lo - 1e-9 <= r <= hi + 1e-9

    def test_rejected_basis_raises(self, monkeypatch):
        rng = np.random.default_rng(1)
        s = _random_sym(rng, 6)
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        with pytest.raises(ConvergenceError, match=r"matrix 0 \(6x6\) fails the orthonormality"):
            sym_eig([s])

    def test_off_diagonal_mass_over_tolerance_raises(self, monkeypatch):
        # with no tolerance a random matrix keeps some rounding off the
        # diagonal of V^T A V; a diagonal one keeps none
        rng = np.random.default_rng(1)
        monkeypatch.setattr(linalg, "DEFAULT_TOL", 0.0)
        with pytest.raises(ConvergenceError, match=r"matrix 0 \(6x6\) fails the off-diagonal"):
            sym_eig([_random_sym(rng, 6)])
        [w] = sym_eig([SymMatrix(np.diag([3.0, -1.0, 2.0, 0.0, 5.0, -4.0]))])
        assert w.tolist() == [-4.0, -1.0, 0.0, 2.0, 3.0, 5.0]


class TestStackedEig:
    """sym_eig on a sequence takes its matrices one size at a time and
    returns the eigenvalues of each in the order of the sequence."""

    @staticmethod
    def _mixed_stack():
        rng = np.random.default_rng(20)
        mats = [_random_sym(rng, n) for n in range(1, 11)]
        mats += [SymMatrix(np.zeros((4, 4))),
                 SymMatrix(DiagMatrix([2.0, -7.0, 0.5]).array),
                 SymMatrix([[-3.0]]), _random_sym(rng, 8)]
        return mats

    def test_stack_agrees_with_stack_of_one_and_numpy(self):
        mats = self._mixed_stack()
        stacked = sym_eig(mats)
        assert len(stacked) == len(mats)
        for s, w in zip(mats, stacked):
            scale = np.linalg.norm(s.array)
            [alone] = sym_eig([s])
            assert w.shape == (s.dim,)
            assert np.max(np.abs(w - alone)) <= 1e-10 * scale
            assert np.max(np.abs(w - np.linalg.eigvalsh(s.array))) <= 1e-10 * scale

    def test_padding_never_shows_up(self):
        # a negative definite 3x3 beside a 9x9: a zero from padding it to
        # the 9x9's size would be its largest eigenvalue; a positive
        # definite 1x1 padded likewise would show it as its smallest
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        neg = SymMatrix.symmetrized(-(a @ a.T) - np.eye(3))
        w_neg, w_pos, _ = sym_eig([neg, SymMatrix([[2.5]]), _random_sym(rng, 9)])
        assert w_neg.shape == (3,)
        assert w_neg[-1] < -0.5
        assert np.allclose(w_neg, np.linalg.eigvalsh(neg.array), atol=1e-12)
        assert w_pos.tolist() == [2.5]

    def test_stack_with_rejected_basis_raises(self, monkeypatch):
        # even the 1x1, whose basis is [[1.0]], goes through the test
        rng = np.random.default_rng(2)
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        with pytest.raises(ConvergenceError, match=r"matrix 0 \(1x1\) fails the orthonormality"):
            sym_eig([SymMatrix([[1.0]]), _random_sym(rng, 6)])


def _bits(values) -> list[bytes]:
    return [np.asarray(w, dtype=float).tobytes() for w in values]


class TestSeededEig:
    """sym_eig keeps the basis np.linalg.eigh proposes, and each matrix's
    eigenvalues are the same bits whatever its signed zeros, its sign and
    the rest of the stack."""

    def test_signed_zeros_give_the_same_bits(self):
        # about half the entries zero, as in the blocks of an LMI; LAPACK's
        # basis for some of these depends on the signs of their zeros
        rng = np.random.default_rng(6)
        for n in [2, 3, 4, 5, 6] * 4:
            a = _random_sym(rng, n).array.copy()
            zero = rng.random((n, n)) < 0.5
            zero |= zero.T
            a[zero] = 0.0
            b = a.copy()
            b[zero] = -0.0
            assert _bits(sym_eig([SymMatrix(a)])) == _bits(sym_eig([SymMatrix(b)]))

    def test_negation_mirrors_bit_for_bit(self):
        rng = np.random.default_rng(7)
        traceless = _random_sym(rng, 4).array.copy()
        traceless[3, 3] = -np.trace(traceless[:3, :3])
        assert np.trace(traceless) == 0.0
        for a in (_random_sym(rng, 6).array, traceless, np.diag([0.0, -2.0, 3.0])):
            [w] = sym_eig([SymMatrix(a)])
            [mirror] = sym_eig([SymMatrix(-a)])
            assert _bits([mirror]) == _bits([-w[::-1]])

    def test_alone_and_in_a_stack_give_the_same_bits(self):
        rng = np.random.default_rng(8)
        mats = [_random_sym(rng, n) for n in (5, 6, 2, 10, 6, 1, 3, 8, 4, 9, 7)]
        for s, w in zip(mats, sym_eig(mats)):
            assert _bits([w]) == _bits(sym_eig([s])), s.dim

    def test_failed_eigh_raises(self, monkeypatch):
        def no_basis(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_basis)
        with pytest.raises(ConvergenceError, match=r"no eigenbasis for the 3x3"):
            sym_eig([_random_sym(np.random.default_rng(9), 3)])


def _random_plant(cfg: dict) -> Plant:
    return Plant(DiagMatrix(np.array(cfg["lambda"])), Matrix(np.array(cfg["H"])),
                 Matrix(np.array(cfg["B"])), Matrix(np.array(cfg["N"])),
                 np.array(cfg["u_max"]))


class TestProblemMargins:
    """problem_margins re-checks every block in one stacked call; each
    margin equals the one-block margin of its constraint."""

    @staticmethod
    def _agree(plant, mu, alpha):
        sf = lmi.vectorize(build_synthesis_lmis(plant, mu, alpha))
        x = sdp.minimize(sf, full_start(sf, plant, mu, alpha)).x
        stacked = lmi.problem_margins(sf, x)
        for blk, m in zip(sf.blocks, stacked):
            alone = lmi.margin(blk, x)
            assert abs(m - alone) <= 1e-12 * np.linalg.norm(blk.value(x)), blk.label

    def test_demo_problem(self, demo_plant):
        self._agree(demo_plant, 1.0, 0.5)

    def test_seeded_five_state_plant(self, random_plant_config):
        cfg = random_plant_config(np.random.default_rng(5), 5, 1.0)
        alpha = 0.5 * min(cfg["lambda"])
        self._agree(_random_plant(cfg), 1.0, alpha)


def _spectral_norm(a) -> float:
    """The largest singular value of A, from the top eigenvalue of A^T A."""
    a = np.asarray(a, dtype=float)
    return math.sqrt(max(float(sym_eig([SymMatrix.symmetrized(a.T @ a)])[0][-1]), 0.0))


class TestScalars:
    def test_spectral_norm_diag(self):
        assert _spectral_norm([[3.0, 0.0], [0.0, -4.0]]) == pytest.approx(4.0, abs=1e-12)

    def test_spectral_norm_demo_closed_loop(self):
        # reflection + gain of the bundled demo system; oracle is the top
        # eigenvalue of A^T A computed independently by numpy
        h = np.array([[0.25, 0.0], [-1.0, 0.25]])
        k = np.array([[-0.24, 0.0], [0.33, -0.08]])
        a = h + k
        oracle = math.sqrt(np.linalg.eigvalsh(a.T @ a).max())
        got = _spectral_norm(a)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.6912987434049391, abs=1e-9)

    def test_spectral_norm_transpose(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 5))
        assert _spectral_norm(a) == pytest.approx(_spectral_norm(a.T), abs=1e-12)

    def test_min_eig_demo_block(self):
        # diag(6.25, 74.97) minus the symmetrized demo coupling matrix
        a = np.diag([6.25, 74.97]) - np.array([[4.07, 0.195], [0.195, 36.3]])
        got = sym_eig([SymMatrix.symmetrized(a)])[0][0]
        tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        oracle = (tr - math.sqrt(tr * tr - 4.0 * det)) / 2.0
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(2.17895, abs=5e-3)


class TestSolve:
    def test_invert_diag(self):
        inv = invert_diag(DiagMatrix([12.5, 82.0]))
        assert np.allclose(inv.diagonal, [0.08, 1.0 / 82.0], atol=1e-15)

    def test_invert_diag_zero_entry(self):
        with pytest.raises(SingularMatrixError):
            invert_diag(DiagMatrix([1.0, 0.0]))
