"""Small dense real linear algebra used by the synthesis and validation code.

Everything here is sized for control-synthesis blocks (dimensions of a few
to a few dozen).  The eigensolver takes a whole stack, such as every block
of an LMI problem, so a margin re-check is one call, and returns
eigenvalues only.  Tolerances are relative to the Frobenius norm of each
input matrix.

LAPACK (np.linalg.eigh) proposes an eigenbasis V for each matrix A, and
what a margin rests on is checked here: V is kept only when
|V^T V - I|_F <= _ORTHO_ULPS d u, and B = V^T A V only when its
off-diagonal mass |B - diag(B)|_F is at most DEFAULT_TOL |A|_F; the
eigenvalues returned are the diagonal of B.  For such a V the eigenvalues
of B are those of A to within a relative |V^T V - I|_2 (Ostrowski's
theorem), and by Weyl's inequality each sorted diagonal entry of B is
within the off-diagonal mass of an eigenvalue of B (Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998), apart from the rounding of
forming B.  A matrix that fails either check raises ConvergenceError.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_TOL = 1e-12
_UNIT = np.finfo(float).eps / 2.0  # unit roundoff u
_ORTHO_ULPS = 16.0  # a proposed basis V is kept when |V^T V - I|_F <= this d u


class ConvergenceError(Exception):
    """LAPACK proposed no eigenbasis, or one that fails an in-package check."""


class SingularMatrixError(Exception):
    """Singular or numerically singular input."""


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


def _odd_sign(x: np.ndarray) -> np.ndarray:
    """+1 or -1 for each matrix of a stack, with s(-A) = -s(A): the sign of
    its first nonzero entry in row-major order, +1 for a zero matrix."""
    flat = x.reshape(len(x), -1)
    lead = flat[np.arange(len(x)), np.argmax(flat != 0.0, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def sym_eig(mats: Sequence[SymMatrix]) -> list[np.ndarray]:
    """Eigenvalues of each symmetric matrix of a sequence, ascending, from
    the eigenbasis LAPACK proposes, once it passes the in-package checks.

    The matrices are taken one size at a time.  Each matrix A enters as
    X = s A, its zeros made +0.0 and s its :func:`_odd_sign`, so that A
    and -A, and A and its twin with -0.0 entries, give the same X and
    mirrored eigenvalues s eig(X), bit for bit.  np.linalg.eigh proposes
    a basis V for every X of a size in one call, and the eigenvalues of X
    are the diagonal of B = V^T X V, made exactly symmetric, once V passes
    the orthonormality test |V^T V - I|_F <= _ORTHO_ULPS d u and the
    off-diagonal mass of B is at most DEFAULT_TOL |X|_F.  So a matrix's
    eigenvalues depend on that matrix alone, not on the rest of the
    sequence.  A matrix that fails either test, or a size for which LAPACK
    proposes no basis, raises :class:`ConvergenceError` naming the matrix,
    its size and the test.
    """
    mats = list(mats)
    dims = [m.dim for m in mats]
    out: dict[int, np.ndarray] = {}
    # a set, not np.unique, whose first call adds about 0.9 MiB to the
    # resident memory of the process (numpy 2.4)
    for d in sorted(set(dims)):
        ks = [k for k, dim in enumerate(dims) if dim == d]
        X = np.stack([mats[k].array for k in ks])
        sign = _odd_sign(X)
        X = sign[:, None, None] * X + 0.0
        try:
            V = np.linalg.eigh(X)[1]
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(
                f"LAPACK proposed no eigenbasis for the {d}x{d} matrices: {e}") from e
        Vt = V.transpose(0, 2, 1)
        B = Vt @ X @ V
        B = (B + B.transpose(0, 2, 1)) / 2.0
        drift = np.sqrt(np.sum((Vt @ V - np.eye(d)) ** 2, axis=(1, 2)))
        off = np.sqrt(np.sum((B * (1.0 - np.eye(d))) ** 2, axis=(1, 2)))
        target = DEFAULT_TOL * np.sqrt(np.sum(X * X, axis=(1, 2)))
        for test, value, bound in (
                ("orthonormality test |V^T V - I|_F", drift,
                 np.full(len(ks), _ORTHO_ULPS * d * _UNIT)),
                ("off-diagonal test |B - diag(B)|_F", off, target)):
            # a NaN fails a test too
            failed = np.flatnonzero(~(value <= bound))
            if failed.size:
                j = failed[0]
                raise ConvergenceError(
                    f"matrix {ks[j]} ({d}x{d}) fails the {test}: "
                    f"{value[j]:.3e} > {bound[j]:.3e}")
        w = sign[:, None] * np.diagonal(B, axis1=1, axis2=2)
        w.sort(axis=1, kind="stable")
        out.update(zip(ks, w))
    return [out[k] for k in range(len(mats))]


def invert_diag(d: DiagMatrix) -> DiagMatrix:
    """Entrywise inverse of a diagonal matrix."""
    dd = d.diagonal
    if np.any(dd == 0.0):
        raise SingularMatrixError("diagonal matrix has a zero entry")
    return DiagMatrix(1.0 / dd)
