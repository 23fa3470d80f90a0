"""Small dense real linear algebra used by the synthesis and validation code.

Everything here is sized for control-synthesis blocks (dimensions of a few
to a few dozen), so the eigensolver is a Jacobi iteration: simple,
deterministic, and accurate enough to trust certificate margins computed
from it.  It takes a whole stack, such as every block of an LMI problem,
and rotates all matrices at once in the parallel (round-robin) order, so a
margin re-check is one call.  It returns eigenvalues only.  Tolerances are
relative to the Frobenius norm of each input matrix.

The sweeps start from the eigenbasis V that LAPACK (np.linalg.eigh)
proposes, which leaves most matrices diagonal to rounding and so needs no
sweep.  What a margin rests on is still checked here: V is kept only when
|V^T V - I|_F <= _ORTHO_ULPS d u, the sweeps run on V^T A V until its
off-diagonal mass is under the tolerance, and a V that fails the test is
replaced by I, the plain Jacobi iteration.  A Jacobi method started from
an orthonormal basis keeps its accuracy and its a-posteriori test
(Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992; Drmac & Veselic,
SIAM J. Matrix Anal. Appl. 29, 2008).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_TOL = 1e-12
_MAX_SWEEPS = 60
_MINUS_PLUS = np.array([[-1.0], [1.0]])
_TINY = 1e-300  # keeps 0/0 out of a padded or already-diagonal pair
_UNIT = np.finfo(float).eps / 2.0  # unit roundoff u
_ORTHO_ULPS = 16.0  # a proposed basis V is kept when |V^T V - I|_F <= this d u


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


def _round_robin(dim: int) -> np.ndarray:
    """Parallel (round-robin) Jacobi ordering of an even dimension: dim - 1
    rounds of dim/2 disjoint pairs p < q, together covering every pair once,
    as the flat positions of their (p, p), (q, q), (p, q), (q, p) entries
    in a dim x dim matrix, (rounds, 4, dim/2).

    This is the circle method of Brent and Luk: index 0 stays put and the
    others move one seat round the table after each round.
    """
    seats = list(range(dim))
    rounds = []
    for _ in range(dim - 1):
        rounds.append([sorted((seats[i], seats[dim - 1 - i])) for i in range(dim // 2)])
        seats = [seats[0], seats[-1]] + seats[1:-1]
    pairs = np.array(rounds)
    P, Q = pairs[:, :, 0], pairs[:, :, 1]
    return np.stack([P * dim + P, Q * dim + Q, P * dim + Q, Q * dim + P], axis=1)


def _odd_sign(x: np.ndarray) -> np.ndarray:
    """+1 or -1 for each matrix of a stack, with s(-A) = -s(A): the sign of
    its first nonzero entry in row-major order, +1 for a zero matrix."""
    flat = x.reshape(len(x), -1)
    lead = flat[np.arange(len(x)), np.argmax(flat != 0.0, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def _seeded(x: np.ndarray) -> np.ndarray:
    """V^T X V, made exactly symmetric, for each matrix X of a stack of one
    size, with V the eigenbasis LAPACK proposes for X; X itself where V
    fails the orthonormality test |V^T V - I|_F <= _ORTHO_ULPS d u, and
    for the whole stack when LAPACK proposes none."""
    d = x.shape[-1]
    try:
        v = np.linalg.eigh(x)[1]
    except np.linalg.LinAlgError:
        return x
    vt = v.transpose(0, 2, 1)
    drift = np.sqrt(np.sum((vt @ v - np.eye(d)) ** 2, axis=(1, 2)))
    b = vt @ x @ v
    b = (b + b.transpose(0, 2, 1)) / 2.0
    return np.where((drift <= _ORTHO_ULPS * d * _UNIT)[:, None, None], b, x)


def _sweep(A: np.ndarray) -> np.ndarray:
    """One parallel-ordered Jacobi sweep over a stack: the rounds of
    :func:`_round_robin`, each rotating all its disjoint pairs of every
    matrix at once, A <- (G A) G^T."""
    count, dim = len(A), A.shape[-1]
    # the pairs' positions in every matrix of the stack (stride dim^2), in
    # A and in G
    at = _round_robin(dim)[:, None] + (dim * dim * np.arange(count))[:, None, None]
    # G's entries at those positions, (c, c, -s, s) = (1, 1, -t, t) * c
    rot = np.ones((count, 4, dim // 2))
    for at_r in at:
        pair = A.take(at_r[:, :3])
        app, aqq, apq = pair[:, 0], pair[:, 1], pair[:, 2]
        # t = sgn(tau) / (|tau| + sqrt(1 + tau^2)) with tau = (a_qq - a_pp)
        # / (2 a_pq), multiplied through by |2 a_pq|: no quotient can
        # overflow, and t = 0 where a_pq = 0
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
    return A


def sym_eig(mats: Sequence[SymMatrix]) -> list[np.ndarray]:
    """Eigenvalues of each symmetric matrix of a sequence, ascending, by
    parallel-ordered Jacobi sweeps over the whole stack, started from the
    eigenbasis LAPACK proposes.

    Each matrix A enters as X = s A, its zeros made +0.0 and s its
    :func:`_odd_sign`, so that A and -A, and A and its twin with -0.0
    entries, give the same X and mirrored eigenvalues s eig(X), bit for
    bit.  np.linalg.eigh proposes a basis V for every X, one call per
    matrix size, and the sweeps start from B = V^T X V (:func:`_seeded`),
    or from X itself where V fails the orthonormality test.  Every B is
    padded with zero rows and columns to one even size; a pair that
    touches the padding has b_pq = 0, so its rotation is the identity and
    the padding never mixes into a matrix.  A matrix is swept
    (:func:`_sweep`) until its off-diagonal mass is at most DEFAULT_TOL
    times its own Frobenius norm, and is left alone from then on, so its
    eigenvalues do not depend on the rest of the stack, only on its padded
    size.  A well-proposed V leaves B diagonal to rounding, and most
    matrices need no sweep.  A stack that has not converged after
    _MAX_SWEEPS sweeps raises :class:`ConvergenceError`.
    """
    mats = list(mats)
    if not mats:
        return []
    dims = np.array([m.dim for m in mats])
    dim = int(dims.max())
    dim += dim % 2
    X = np.zeros((len(mats), dim, dim))
    for k, m in enumerate(mats):
        X[k, :m.dim, :m.dim] = m.array
    sign = _odd_sign(X)
    X = sign[:, None, None] * X + 0.0
    off_target = DEFAULT_TOL * np.sqrt(np.sum(X * X, axis=(1, 2)))
    A = np.zeros_like(X)
    # a set, not np.unique, whose first call adds about 0.9 MiB to the
    # resident memory of the process (numpy 2.4)
    for size in sorted(set(dims.tolist())):
        ks = np.flatnonzero(dims == size)
        A[ks, :size, :size] = _seeded(X[ks, :size, :size])
    off_mask = 1.0 - np.eye(dim)
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum((A * off_mask) ** 2, axis=(1, 2)))
        busy = off > off_target
        if not busy.any():
            break
        A[busy] = _sweep(A[busy])
    else:
        worst = int(np.argmax(off / np.maximum(off_target, _TINY)))
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps "
            f"(matrix {worst}: off-diagonal {off[worst]:.3e} "
            f"vs target {off_target[worst]:.3e})")

    # +inf in the padding sorts after every eigenvalue
    w = np.where(np.arange(dim) < dims[:, None],
                 sign[:, None] * np.diagonal(A, axis1=1, axis2=2), np.inf)
    w.sort(axis=1, kind="stable")
    return [w[k, :d] for k, d in enumerate(dims.tolist())]


def invert_diag(d: DiagMatrix) -> DiagMatrix:
    """Entrywise inverse of a diagonal matrix."""
    dd = d.diagonal
    if np.any(dd == 0.0):
        raise SingularMatrixError("diagonal matrix has a zero entry")
    return DiagMatrix(1.0 / dd)
