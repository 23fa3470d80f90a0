from __future__ import annotations

import math

import numpy as np
import pytest

from hypiss import linalg
from hypiss.linalg import (
    ConvergenceError,
    DiagMatrix,
    Matrix,
    SingularMatrixError,
    SymMatrix,
    invert_diag,
    max_eig,
    min_eig,
    spectral_norm,
    sym_eig,
)


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
        w, v = sym_eig(SymMatrix(np.eye(3)))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = sym_eig(SymMatrix(DiagMatrix([3.0, -5.0, 1.0]).array))
        assert np.allclose(w, [-5.0, 1.0, 3.0])

    def test_two_by_two_closed_form(self):
        # eigenvalues of [[a, b], [b, d]] from the quadratic formula
        a, b, d = 4.07, 0.195, 36.3
        mean = (a + d) / 2.0
        rad = math.sqrt(((a - d) / 2.0) ** 2 + b * b)
        expected = [mean - rad, mean + rad]
        w, _ = sym_eig(SymMatrix([[a, b], [b, d]]))
        assert np.allclose(w, expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 6, 8):
            for _ in range(5):
                s = _random_sym(rng, n)
                w, v = sym_eig(s)
                scale = max(linalg.frobenius(s.array), 1.0)
                assert np.max(np.abs(v @ np.diag(w) @ v.T - s.array)) <= 1e-9 * scale
                assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
                assert np.all(np.diff(w) >= -1e-12)

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(7)
        s = _random_sym(rng, 5)
        w, v = sym_eig(s)
        fro = linalg.frobenius(s.array)
        for i in range(5):
            res = np.linalg.norm(s.array @ v[:, i] - w[i] * v[:, i])
            assert res <= 1e-10 * fro

    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = _random_sym(rng, 6)
            w, _ = sym_eig(s)
            assert np.allclose(w, np.linalg.eigvalsh(s.array), atol=1e-10)

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(3)
        s = _random_sym(rng, 5)
        lo, hi = min_eig(s), max_eig(s)
        for _ in range(100):
            x = rng.standard_normal(5)
            r = float(x @ s.array @ x) / float(x @ x)
            assert lo - 1e-9 <= r <= hi + 1e-9

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(1)
        s = _random_sym(rng, 6)
        with pytest.raises(ConvergenceError):
            sym_eig(s, tol=1e-18, max_sweeps=1)


class TestScalars:
    def test_spectral_norm_diag(self):
        assert spectral_norm(Matrix([[3.0, 0.0], [0.0, -4.0]])) == pytest.approx(4.0, abs=1e-12)

    def test_spectral_norm_demo_closed_loop(self):
        # reflection + gain of the bundled demo system; oracle is the top
        # eigenvalue of A^T A computed independently by numpy
        h = np.array([[0.25, 0.0], [-1.0, 0.25]])
        k = np.array([[-0.24, 0.0], [0.33, -0.08]])
        a = h + k
        oracle = math.sqrt(np.linalg.eigvalsh(a.T @ a).max())
        got = spectral_norm(Matrix(a))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.6912987434049391, abs=1e-9)

    def test_spectral_norm_transpose(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 5))
        m = Matrix(a)
        assert spectral_norm(m) == pytest.approx(spectral_norm(Matrix(a.T)), abs=1e-12)

    def test_min_eig_demo_block(self):
        # diag(6.25, 74.97) minus the symmetrized demo coupling matrix
        a = np.diag([6.25, 74.97]) - np.array([[4.07, 0.195], [0.195, 36.3]])
        got = min_eig(SymMatrix.symmetrized(a))
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
