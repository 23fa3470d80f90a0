"""Print one sha1 per probe set over every solver outcome it produces.

Each probe set runs designs through `hypiss.control` as a user would, and
every `sdp.Solution` that `sdp.minimize_batch` returns is digested in
order: its status, the bytes of x, the Newton steps, the gap and the
objective.  The solver is given the row problems (`control.build_row_lmis`,
one per mu, each batch of them solved before the designs) and the
projected synthesis problems (`control.build_projected_lmis`); the full
ones are re-checked, never solved.  Two builds of the solver that
print the same lines returned the same bits on every probe cell, so a
change meant to keep the solver's arithmetic can be checked by running
this before and after it on one machine.  LAPACK builds differ in their
last bits, so the digests of two machines need not agree.

A cell's outcome does not depend on the batch it is solved in: each is
the bits of `sdp.minimize` on the cell's own form (the test
`test_each_cell_has_the_bits_of_its_own_solve` holds the solver to it).
So a grid's digest also stands for the same cells solved alone or in
any split of the grid, and the probe sets need not cover batch layouts.

    PYTHONPATH=src python tools/solver_digest.py

Output: one line per probe set, `name solver-cells sha1`, the cells rows
and designs together, then the line `forms 86 sha1` over the compiled
problems themselves, with no solver: the synthesis, projected synthesis
and analysis forms (`lmi.vectorize`) of the demo plant and the seeded
plants n = 1..10, at two weights each, the analysis at a seeded gain, and
the row forms at those weights of every plant with more than one state.
It digests each form's entry vector and each block's label, size, slack,
entries, base and coefficients, the arrays plus 0.0, so that the sign of a
zero does not count: no reader of a form sees it (the solver meets the
coefficients only in sums, and `linalg.sym_eig` clears it).  A change to
how problems are posed that keeps every compiled value keeps this line.
Uses numpy and hypiss only; the whole run takes about ten seconds on one
core.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from hypiss import control, lmi, sdp
from hypiss.control import Plant, SynthesisError
from hypiss.linalg import DiagMatrix, Matrix

_DEMO_MU = np.linspace(0.25, 2.0, 8)     # the demo grid of `hypiss --seed-configs`
_DEMO_ALPHA = np.linspace(0.1, 1.5, 8)
_RATIOS = (0.5, 0.9, 0.99, 0.999, 0.9999)
_PROBE_MU = (0.25, 0.5, 0.69, 0.75, 1.0, 1.3, 1.5, 2.0, 3.0)


def _plant(lam, h, b, n_map, u_max) -> Plant:
    return Plant(DiagMatrix(np.asarray(lam, dtype=float)), Matrix(np.asarray(h, dtype=float)),
                 Matrix(np.asarray(b, dtype=float)), Matrix(np.asarray(n_map, dtype=float)),
                 np.asarray(u_max, dtype=float))


def _demo() -> Plant:
    return _plant([1.0, math.sqrt(2.0)], [[0.25, 0.0], [-1.0, 0.25]], np.eye(2), np.eye(2),
                  [0.3, 0.3])


def _seeded(rng: np.random.Generator, n: int, mu: float = 1.0) -> Plant:
    """The random plant rule of the test suite: H scaled to spectral norm
    0.8 e^{-mu/2}, m = ceil(n/2) controls, n disturbances."""
    m = (n + 1) // 2
    lam = rng.uniform(1.0, 2.0, n)
    h = rng.standard_normal((n, n))
    h *= 0.8 * math.exp(-mu / 2.0) / np.linalg.norm(h, 2)
    return _plant(lam, h, rng.standard_normal((n, m)),
                  rng.standard_normal((n, n)) / math.sqrt(n), rng.uniform(0.2, 1.0, m))


def _probe_plants() -> list[Plant]:
    """30 plants of n = 2..5 with ||H||_2 in 0.3..1.5, then the rotation
    plant, whose designs turn infeasible past mu = ln 2."""
    rng = np.random.default_rng(5)
    plants = []
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = (n + 1) // 2
        lam = rng.uniform(1.0, 2.0, n)
        h = rng.standard_normal((n, n))
        h *= rng.uniform(0.3, 1.5) / np.linalg.norm(h, 2)
        plants.append(_plant(lam, h, rng.standard_normal((n, m)),
                             rng.standard_normal((n, n)) / math.sqrt(n),
                             rng.uniform(0.2, 1.0, m)))
    plants.append(_plant([1.0, math.sqrt(2.0)], [[0.5, 0.5], [-0.5, 0.5]], [[1.0], [0.0]],
                         np.eye(2), [0.3]))
    return plants


def _synthesize(plant: Plant, mu: float, alpha: float) -> None:
    try:
        control.synthesize(plant, mu, alpha)
    except SynthesisError:
        pass


def _demo_grid():
    control.grid_search(_demo(), _DEMO_MU, _DEMO_ALPHA)


def _demo_synth():
    _synthesize(_demo(), 1.0, 0.5)


def _seeded_designs():
    """n = 1..10 at mu = 1 and alpha a ratio of min lambda up to the edge."""
    for n in range(1, 11):
        plant = _seeded(np.random.default_rng(n), n)
        for ratio in _RATIOS:
            _synthesize(plant, 1.0, ratio * float(np.min(plant.speeds.diagonal)))


def _random_draws():
    """200 draws of n in 1..10 at mu = 1 and alpha 0.9..1.02 of min lambda;
    the draws past the decay bound never reach the solver."""
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        plant = _seeded(rng, int(rng.integers(1, 11)))
        _synthesize(plant, 1.0, rng.uniform(0.9, 1.02) * float(np.min(plant.speeds.diagonal)))


def _probe_grids():
    for plant in _probe_plants():
        control.grid_search(plant, _PROBE_MU, [0.1])


def _n10_grid():
    plant = _seeded(np.random.default_rng(10), 10)
    low = float(np.min(plant.speeds.diagonal))
    control.grid_search(plant, np.linspace(0.5, 1.25, 4), np.linspace(0.2, 0.8, 4) * low)


PROBES = (("demo-grid", _demo_grid), ("demo-synth", _demo_synth),
          ("seeded-designs", _seeded_designs), ("random-draws", _random_draws),
          ("probe-grids", _probe_grids), ("n10-grid", _n10_grid))


def _forms() -> tuple[int, str]:
    """The count and sha1 of the compiled synthesis, projected, analysis and
    row forms (see the module docstring)."""
    h, count = hashlib.sha1(), 0
    plants = [_demo()] + [_seeded(np.random.default_rng(n), n) for n in range(1, 11)]
    for i, plant in enumerate(plants):
        low = float(np.min(plant.speeds.diagonal))
        gain = Matrix(np.random.default_rng(100 + i).standard_normal((plant.m, plant.n)))
        for mu, alpha in ((1.0, 0.5 * low), (0.5, 0.1 * low)):
            rows = [control.build_row_lmis(plant, mu)] if plant.n > 1 else []
            for problem in (control.build_synthesis_lmis(plant, mu, alpha),
                            control.build_projected_lmis(plant, mu, alpha),
                            control.build_analysis_lmis(plant, gain, mu, alpha), *rows):
                sf = lmi.vectorize(problem)
                h.update(repr(sf.refs).encode())
                for blk in sf.blocks:
                    h.update(repr((blk.label, blk.dim, blk.eps, blk.idx.tolist())).encode())
                    h.update((blk.base + 0.0).tobytes())
                    h.update((blk.coeffs + 0.0).tobytes())
                count += 1
    return count, h.hexdigest()


def _digest(solution: sdp.Solution, h) -> None:
    h.update(repr((solution.status.value, solution.newton_steps, solution.gap,
                   solution.objective)).encode())
    h.update(np.ascontiguousarray(solution.x).tobytes())


def main() -> None:
    solve = sdp.minimize_batch
    for name, run in PROBES:
        h, count = hashlib.sha1(), 0

        def recorded(forms, *args):
            nonlocal count
            solutions = solve(forms, *args)
            for solution in solutions:
                _digest(solution, h)
            count += len(solutions)
            return solutions

        sdp.minimize_batch = recorded
        try:
            run()
        finally:
            sdp.minimize_batch = solve
        print(f"{name} {count} {h.hexdigest()}", flush=True)
    print("forms %d %s" % _forms(), flush=True)


if __name__ == "__main__":
    main()
