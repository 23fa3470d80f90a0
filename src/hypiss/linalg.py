"""Small dense real linear algebra used by the synthesis and validation code.

Everything here is sized for control-synthesis blocks (dimensions of a few
to ~10), so the eigensolver is a plain cyclic Jacobi iteration: simple,
deterministic, and accurate enough to trust certificate margins computed
from it.  Tolerances are relative to the Frobenius norm of the input.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12
_MAX_SWEEPS = 60


class LinalgError(Exception):
    """Base class for numerical failures raised by this module."""


class ConvergenceError(LinalgError):
    """Iteration cap reached before the requested accuracy."""


class SingularMatrixError(LinalgError):
    """Singular or numerically singular input.

    ``condition`` carries a condition-number estimate when one is available
    (may be ``inf``).
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Matrix:
    """Immutable dense real matrix."""

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim == 1:
            raise ValueError("matrix entries must be 2-D; got a 1-D array")
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"matrix must be 2-D and nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        self._a = _frozen(a)

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))

    def __repr__(self):
        return f"{type(self).__name__}({self._a.tolist()!r})"


class SymMatrix:
    """Immutable symmetric matrix; entries are bitwise symmetric.

    The constructor requires exact symmetry.  Use :meth:`symmetrized` to
    canonicalize a nearly symmetric array as (A + A^T)/2, which is exactly
    symmetric in IEEE arithmetic.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"symmetric matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("entries are not exactly symmetric; use SymMatrix.symmetrized")
        self._a = _frozen(a)

    @classmethod
    def symmetrized(cls, entries) -> "SymMatrix":
        a = np.asarray(entries, dtype=float)
        return cls((a + a.T) / 2.0)

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}({self._a.tolist()!r})"


class DiagMatrix:
    """Immutable diagonal matrix stored by its diagonal."""

    __slots__ = ("_d",)

    def __init__(self, diagonal):
        d = np.array(diagonal, dtype=float)
        if d.ndim != 1 or d.shape[0] < 1:
            raise ValueError(f"diagonal must be a nonempty 1-D array, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal entries must be finite")
        self._d = _frozen(d)

    @property
    def diagonal(self) -> np.ndarray:
        return self._d

    @property
    def dim(self) -> int:
        return self._d.shape[0]

    @property
    def array(self) -> np.ndarray:
        return np.diag(self._d)

    def __repr__(self):
        return f"{type(self).__name__}({self._d.tolist()!r})"


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def sym_eig(a: SymMatrix, tol: float = DEFAULT_TOL,
            max_sweeps: int = _MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors in the columns of ``v``.  Off-diagonal mass is annihilated
    pairwise until it drops below ``tol`` times the Frobenius norm of the
    input; a matrix that has not converged after ``max_sweeps`` sweeps
    raises :class:`ConvergenceError`.
    """
    A = a.array.copy()
    n = a.dim
    V = np.eye(n)
    if n == 1:
        return A[0, :1].copy(), V

    fro = frobenius(A)
    if fro == 0.0:
        return np.zeros(n), V
    off_target = tol * fro
    rotate_floor = 1e-300  # only guards the division below

    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(A, 1) ** 2))
        if off <= off_target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= rotate_floor:
                    continue
                # rotation angle chosen to zero the (p, q) entry
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                app, aqq = A[p, p], A[q, q]
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                # stable closed forms for the rotated pair
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0

                v_p = V[:, p].copy()
                v_q = V[:, q].copy()
                V[:, p] = c * v_p - s * v_q
                V[:, q] = s * v_p + c * v_q
    else:
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
            f"(off-diagonal {off:.3e} vs target {off_target:.3e})")

    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def max_eig(a: SymMatrix) -> float:
    w, _ = sym_eig(a)
    return float(w[-1])


def min_eig(a: SymMatrix) -> float:
    w, _ = sym_eig(a)
    return float(w[0])


def spectral_norm(a: Matrix) -> float:
    """Largest singular value, via the top eigenvalue of A^T A."""
    g = SymMatrix.symmetrized(a.array.T @ a.array)
    top = max_eig(g)
    return float(np.sqrt(max(top, 0.0)))


def invert_diag(d: DiagMatrix) -> DiagMatrix:
    """Entrywise inverse of a diagonal matrix."""
    dd = d.diagonal
    if np.any(dd == 0.0):
        raise SingularMatrixError("diagonal matrix has a zero entry",
                                  condition=float("inf"))
    return DiagMatrix(1.0 / dd)
