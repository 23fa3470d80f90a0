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

    def test_iteration_cap_raises(self, monkeypatch):
        # the proposed basis leaves no sweep to do; rejecting it makes the
        # sweeps start from the matrix itself
        rng = np.random.default_rng(1)
        s = _random_sym(rng, 6)
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            sym_eig([s])


class TestStackedEig:
    """sym_eig on a sequence pads every matrix to one even size and runs
    one parallel-ordered Jacobi over the stack."""

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
        # a negative definite 3x3 padded to 10: a zero from the padding
        # would be its largest eigenvalue; a positive definite 1x1 padded
        # likewise would show it as its smallest
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        neg = SymMatrix.symmetrized(-(a @ a.T) - np.eye(3))
        w_neg, w_pos, _ = sym_eig([neg, SymMatrix([[2.5]]), _random_sym(rng, 9)])
        assert w_neg.shape == (3,)
        assert w_neg[-1] < -0.5
        assert np.allclose(w_neg, np.linalg.eigvalsh(neg.array), atol=1e-12)
        assert w_pos.tolist() == [2.5]

    def test_stack_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(2)
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            sym_eig([SymMatrix([[1.0]]), _random_sym(rng, 6)])


def _bits(values) -> list[bytes]:
    return [np.asarray(w, dtype=float).tobytes() for w in values]


@pytest.fixture(params=["seeded", "identity"])
def start(request, monkeypatch):
    """The proposed basis kept, or rejected so that the sweeps do the work."""
    if request.param == "identity":
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)


class TestSeededEig:
    """sym_eig starts its sweeps from the basis np.linalg.eigh proposes,
    and each matrix's eigenvalues are the same bits whatever its signed
    zeros, its sign and the rest of the stack, from either start."""

    def test_signed_zeros_give_the_same_bits(self, start):
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

    def test_converged_matrices_are_not_swept(self, monkeypatch):
        # from the identity start the identity and the diagonal matrix are
        # converged, so every sweep rotates the random matrix alone
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        real, swept = linalg._sweep, []
        monkeypatch.setattr(linalg, "_sweep", lambda A: swept.append(len(A)) or real(A))
        rng = np.random.default_rng(10)
        sym_eig([SymMatrix(np.eye(6)), _random_sym(rng, 6), SymMatrix(np.diag([3.0, 1.0, 2.0]))])
        assert len(swept) > 1 and set(swept) == {1}

    def test_negation_mirrors_bit_for_bit(self, start):
        rng = np.random.default_rng(7)
        traceless = _random_sym(rng, 4).array.copy()
        traceless[3, 3] = -np.trace(traceless[:3, :3])
        assert np.trace(traceless) == 0.0
        for a in (_random_sym(rng, 6).array, traceless, np.diag([0.0, -2.0, 3.0])):
            [w] = sym_eig([SymMatrix(a)])
            [mirror] = sym_eig([SymMatrix(-a)])
            assert _bits([mirror]) == _bits([-w[::-1]])

    def test_alone_and_in_a_stack_give_the_same_bits(self, start):
        # the stack pads every matrix to 6; alone, the 5x5 and the 6x6 pad
        # to 6 too, and each of the others does beside an identity of 6
        rng = np.random.default_rng(8)
        mats = [_random_sym(rng, n) for n in (5, 6, 2, 6, 1, 3, 4)]
        for s, w in zip(mats, sym_eig(mats)):
            alone = sym_eig([s] if s.dim >= 5 else [s, SymMatrix(np.eye(6))])[0]
            assert _bits([w]) == _bits([alone]), s.dim

    def test_rejected_basis_falls_back_to_plain_sweeps(self, monkeypatch):
        rng = np.random.default_rng(9)
        mats = [_random_sym(rng, n) for n in (2, 3, 6, 9)]
        seeded = sym_eig(mats)
        monkeypatch.setattr(linalg, "_ORTHO_ULPS", -1.0)
        plain = sym_eig(mats)
        monkeypatch.undo()

        def no_basis(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_basis)
        for s, w, p, q in zip(mats, seeded, plain, sym_eig(mats)):
            assert np.max(np.abs(p - w)) <= 1e-12 * np.linalg.norm(s.array)
            assert p.tobytes() == q.tobytes()


def _random_plant(cfg: dict) -> Plant:
    return Plant(DiagMatrix(np.array(cfg["lambda"])), Matrix(np.array(cfg["H"])),
                 Matrix(np.array(cfg["B"])), Matrix(np.array(cfg["N"])),
                 np.array(cfg["u_max"]))


class TestProblemMargins:
    """problem_margins re-checks every block in one stacked call; each
    margin equals the one-block margin of its constraint."""

    @staticmethod
    def _agree(problem):
        sf = lmi.vectorize(problem)
        x = sdp.minimize(sf).x
        stacked = lmi.problem_margins(sf, x)
        for blk, m in zip(sf.blocks, stacked):
            alone = lmi.margin(blk, x)
            assert abs(m - alone) <= 1e-12 * np.linalg.norm(blk.value(x)), blk.label

    def test_demo_problem(self, demo_plant):
        self._agree(build_synthesis_lmis(demo_plant, 1.0, 0.5))

    def test_seeded_five_state_plant(self, random_plant_config):
        cfg = random_plant_config(np.random.default_rng(5), 5, 1.0)
        alpha = 0.5 * min(cfg["lambda"])
        self._agree(build_synthesis_lmis(_random_plant(cfg), 1.0, alpha))


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
