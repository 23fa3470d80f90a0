"""Fixed reference kernel that turns wall times into normalised times.

On a shared two-core host the same code runs at two or more speeds that
switch every few seconds, whatever CPU the process sits on, and the
switch is not visible as preemption.  Every timed region is therefore
bracketed by two short slices of this kernel, run in the same process,
and the region's wall time is divided by their mean.  The ratio is then
scaled back to seconds at NOMINAL_S, the kernel time of a quiet run on
the reference host, so normalised figures read as seconds.

The kernel is fixed: its inputs never depend on the workload seed and it
calls nothing in hypiss, so a change to the program cannot move it.  It
mixes the three kinds of work the program does: numpy calls on tiny
matrices, branchy interpreter code with a large footprint (compiling a
fixed module text) and allocation-heavy Python (sorting tuples).  A
kernel of tiny Cholesky factorisations alone slows down by 1.75-1.85x in
the host's slow phase while the program's operations slow by 1.35-1.6x,
so it over-corrected; the mix slows by about 1.6x.
"""

from __future__ import annotations

import random
import time

import numpy as np

NOMINAL_S = 0.008   # seconds one slice takes when the host runs fast
_REPS = 30          # passes over the 16 matrices per slice


class RefKernel:
    """Cholesky factorisations of sixteen fixed 6x6 SPD matrices, one
    compilation of a fixed 60-function module text, and one sort of 6000
    fixed (float, str) pairs."""

    def __init__(self):
        rng = np.random.default_rng(20220517)
        a = rng.standard_normal((16, 6, 6))
        self._mats = list(a @ a.transpose(0, 2, 1) + 6.0 * np.eye(6))
        self._source = "\n".join(
            f"def f{i}(x, y):\n    z = x * {i} + y\n    if z > {i}:\n"
            f"        return [z, x, y]\n    return {{'a': z, 'b': (x, y)}}\n"
            for i in range(60))
        r = random.Random(20220517)
        self._items = [(r.random(), repr(r.random())) for _ in range(6000)]
        self()   # first-call set-up happens here, outside any timed slice

    def __call__(self) -> float:
        """Run one slice and return its wall time in seconds."""
        chol = np.linalg.cholesky
        mats = self._mats
        t0 = time.perf_counter()
        for _ in range(_REPS):
            for s in mats:
                chol(s)
        compile(self._source, "<refkernel>", "exec")
        sorted(self._items)
        return time.perf_counter() - t0


def normalise(wall: float, before: float, after: float) -> float:
    """Wall time rescaled to the nominal kernel speed, from the two kernel
    slices run just before and just after the timed region."""
    return wall * NOMINAL_S / (0.5 * (before + after))
