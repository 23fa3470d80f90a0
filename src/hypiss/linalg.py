"""Small dense real linear algebra used by the synthesis and validation code.

Everything here is sized for control-synthesis blocks (dimensions of a few
to a few dozen), so the eigensolver is a Jacobi iteration: simple,
deterministic, and accurate enough to trust certificate margins computed
from it.  It takes a whole stack, such as every block of an LMI problem,
and rotates all matrices at once in the parallel (round-robin) order, so a
margin re-check is one call.  It returns eigenvalues only.  Tolerances are
relative to the Frobenius norm of each input matrix.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_TOL = 1e-12
_MAX_SWEEPS = 60
_MINUS_PLUS = np.array([[-1.0], [1.0]])
_TINY = 1e-300  # keeps 0/0 out of a padded or already-diagonal pair


class ConvergenceError(Exception):
    """Iteration cap reached before the requested accuracy."""


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


def _round_robin(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Parallel (round-robin) Jacobi ordering of an even dimension: dim - 1
    rounds of dim/2 disjoint pairs p < q, together covering every pair once.

    This is the circle method of Brent and Luk: index 0 stays put and the
    others move one seat round the table after each round.
    """
    seats = list(range(dim))
    rounds = []
    for _ in range(dim - 1):
        rounds.append([sorted((seats[i], seats[dim - 1 - i])) for i in range(dim // 2)])
        seats = [seats[0], seats[-1]] + seats[1:-1]
    pairs = np.array(rounds)
    return pairs[:, :, 0], pairs[:, :, 1]


def sym_eig(mats: Sequence[SymMatrix]) -> list[np.ndarray]:
    """Eigenvalues of each symmetric matrix of a sequence, ascending, by
    parallel-ordered Jacobi sweeps over the whole stack.

    Every matrix is padded with zero rows and columns to one even size; a
    pair that touches the padding has a_pq = 0, so its rotation is the
    identity and the padding never mixes into a matrix.  A sweep is the
    rounds of :func:`_round_robin`, each rotating all its disjoint pairs of
    every matrix at once, A <- (G A) G^T.  Sweeps continue until every
    matrix's off-diagonal mass is at most DEFAULT_TOL times its own
    Frobenius norm; a stack that has not converged after _MAX_SWEEPS sweeps
    raises :class:`ConvergenceError`.
    """
    mats = list(mats)
    if not mats:
        return []
    count = len(mats)
    dim = max(m.dim for m in mats)
    dim += dim % 2
    A = np.zeros((count, dim, dim))
    for k, m in enumerate(mats):
        A[k, :m.dim, :m.dim] = m.array
    off_target = DEFAULT_TOL * np.sqrt(np.sum(A * A, axis=(1, 2)))
    off_mask = 1.0 - np.eye(dim)

    # flat positions of the (p, p), (q, q), (p, q), (q, p) entries of every
    # round, the same in A and in G (stride dim^2 per matrix)
    P, Q = _round_robin(dim)
    entries = np.stack([P * dim + P, Q * dim + Q, P * dim + Q, Q * dim + P], axis=1)
    at = entries[:, None] + (dim * dim * np.arange(count))[:, None, None]
    # G's entries at those positions, (c, c, -s, s) = (1, 1, -t, t) * c
    rot = np.ones((count, 4, dim // 2))

    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum((A * off_mask) ** 2, axis=(1, 2)))
        if np.all(off <= off_target):
            break
        for at_r in at:
            pair = A.take(at_r[:, :3])
            app, aqq, apq = pair[:, 0], pair[:, 1], pair[:, 2]
            # t = sgn(tau) / (|tau| + sqrt(1 + tau^2)) with tau = (a_qq -
            # a_pp) / (2 a_pq), multiplied through by |2 a_pq|: no quotient
            # can overflow, and t = 0 where a_pq = 0
            d = aqq - app
            two = apq + apq
            t = two / (d + np.copysign(np.hypot(d, two) + _TINY, d))
            rot[:, 2] = -t
            rot[:, 3] = t
            G = np.zeros((count, dim, dim))
            G.put(at_r, rot / np.hypot(1.0, t)[:, None])
            A = (G @ A) @ G.transpose(0, 2, 1)
            # stable closed forms for the rotated pairs: a_pp - t a_pq and
            # a_qq + t a_pq
            A.put(at_r[:, :2], pair[:, :2] + _MINUS_PLUS * (t * apq)[:, None])
            A.put(at_r[:, 2:], 0.0)
    else:
        worst = int(np.argmax(off / np.maximum(off_target, _TINY)))
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps "
            f"(matrix {worst}: off-diagonal {off[worst]:.3e} "
            f"vs target {off_target[worst]:.3e})")

    return [np.sort(np.diagonal(A[k])[:m.dim], kind="stable") for k, m in enumerate(mats)]


def invert_diag(d: DiagMatrix) -> DiagMatrix:
    """Entrywise inverse of a diagonal matrix."""
    dd = d.diagonal
    if np.any(dd == 0.0):
        raise SingularMatrixError("diagonal matrix has a zero entry")
    return DiagMatrix(1.0 / dd)
