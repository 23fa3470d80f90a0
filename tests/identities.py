"""Identities the tests check the library against.

They restate properties the theory guarantees (the global sector bound of
the deadzone, the derivative of the quadratic Lyapunov functional) in
terms of the library's public functions, so a test can sweep them over
random inputs.  The standard-form readers (`vector`, `block_value`) let a
test evaluate what `lmi.vectorize` produced against the expressions it came
from.
"""

from __future__ import annotations

import numpy as np

from hypiss.control import deadzone
from hypiss.linalg import DiagMatrix
from hypiss.lmi import Point, StandardBlock, StandardForm
from hypiss.pde import Grid, lyapunov_value


def vector(sf: StandardForm, point: Point) -> np.ndarray:
    """The point as the flat entry vector of the standard form."""
    return np.array([point.entry(r) for r in sf.refs])


def block_value(blk: StandardBlock, x: np.ndarray) -> np.ndarray:
    """base + sum_k x[idx[k]] coeffs[k], positive definite where the
    constraint holds."""
    out = blk.base.copy()
    if len(blk.idx):
        out += np.tensordot(x[blk.idx], blk.coeffs, axes=1)
    return out


def sector_value(nu, u_max, sector: DiagMatrix) -> float:
    """Quadratic form phi^T T (phi + nu) with phi the deadzone of nu.

    Nonpositive for every nu and every positive diagonal T, which is the
    global sector property the synthesis leans on.
    """
    nu = np.asarray(nu, dtype=float)
    phi = deadzone(nu, u_max)
    return float(phi @ (sector.diagonal * (phi + nu)))


def frechet_check(lyap: DiagMatrix, mu: float, state, direction,
                  stepsize: float, grid: Grid) -> float:
    """Relative gap between the central difference of the functional along
    the direction and the closed-form derivative 2 int e^{-mu z} <PX, h> dz.

    The functional is quadratic, so the gap is rounding noise for any
    stepsize.  The scale for the relative error is max(|derivative|, V(h)),
    which stays meaningful at X = 0.
    """
    if stepsize <= 0.0:
        raise ValueError("stepsize must be positive")
    x = np.atleast_2d(np.asarray(state, dtype=float))
    h = np.atleast_2d(np.asarray(direction, dtype=float))
    if not np.any(h != 0.0):
        raise ValueError("direction must be nonzero")
    plus = lyapunov_value(x + stepsize * h, lyap, mu, grid)
    minus = lyapunov_value(x - stepsize * h, lyap, mu, grid)
    fd = (plus - minus) / (2.0 * stepsize)
    weight = np.exp(-mu * grid.centers)
    exact = 2.0 * float(np.sum(weight * np.sum(
        lyap.diagonal[:, None] * x * h, axis=0))) * grid.dz
    scale = max(abs(exact), lyapunov_value(h, lyap, mu, grid))
    return abs(fd - exact) / scale
