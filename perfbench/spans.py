"""Spans recorded from outside the program, around calls into each layer.

Each public function is wrapped at the name its caller looks it up by:
cli imports synthesize, verify_analysis and simulate by name, pde imports
closed_loop_boundary and saturate by name, while control, sdp and lmi
call through module attributes.  A wrapper records (name, parent, start,
end) into an in-memory list; nothing is written until the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of one operation add up to the duration of
its root span (cli.main).  Spans nested in the envelope evaluation
(disturbance sampling and norms for the energy integral) are charged to
pde.envelope, not to the per-step figures.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from hypiss import cli, control, linalg, lmi, pde, sdp

ROOT = "cli.main"
ENVELOPE = "pde.envelope"

# (owner, attribute, span name); the layer is the part before the dot
TARGETS = (
    (cli, "synthesize", "control.synthesize"),
    (cli, "verify_analysis", "control.verify_analysis"),
    (cli, "wellposedness_certificate", "control.wellposedness"),
    (cli, "iss_coefficients", "control.iss_coefficients"),
    (control, "grid_search", "control.grid_search"),
    (control, "build_synthesis_lmis", "control.build"),
    (sdp, "minimize", "sdp.solve"),
    (lmi, "vectorize", "lmi.vectorize"),
    (lmi, "problem_margins", "lmi.margins"),
    (lmi, "margin", "lmi.margin"),
    (linalg, "sym_eig", "linalg.eig"),
    (cli, "simulate", "pde.simulate"),
    (pde, "step", "pde.step"),
    (pde.SignalSpec, "sample", "pde.sample"),
    (pde, "closed_loop_boundary", "pde.boundary"),
    (pde, "l2_norm", "pde.record"),
    (pde, "lyapunov_value", "pde.record"),
    (pde, "saturate", "pde.record"),
    (pde, "iss_bound_params", ENVELOPE),
    (pde, "disturbance_energy", ENVELOPE),
    (pde, "iss_rhs", ENVELOPE),
)

SDP_STATUSES = ("optimal", "feasible", "infeasible", "numerical_failure")


class Tracer:
    """Records spans while installed; `call` runs one traced operation."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end, status]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name
            if parent >= 0 and spans[parent][0] == ENVELOPE and name.startswith("pde."):
                label = ENVELOPE
            idx = len(spans)
            span = [label, parent, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            span[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf()
                stack.pop()
            if label == "sdp.solve":
                span[4] = result.status.value
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root(self, main):
        """main wrapped as a root span; pass it to the traced operation."""
        return self._wrap(ROOT, main)

    def call(self, fn, *args):
        """Run fn(*args) with every layer wrapped; return its result and the
        index of the first span it recorded."""
        first = len(self.spans)
        self.install()
        try:
            return fn(*args), first
        finally:
            self.uninstall()


def layer_metrics(spans: list[list], first: int, scale: float):
    """Per-layer counts and times of the spans recorded from index `first`
    on (one operation), with times multiplied by `scale`, the operation's
    normalisation factor.

    sdp.solve_s and pde.step_s are inclusive durations, as a caller sees a
    solve or a step; every other time is a self time.  Returns the metrics
    and the list of solve durations.
    """
    ops = spans[first:]
    child = [0.0] * len(ops)
    for s in ops:
        if s[1] >= first:
            child[s[1] - first] += s[3] - s[2]
    self_t: dict[str, float] = defaultdict(float)
    dur_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    solves = []
    for k, s in enumerate(ops):
        name, dur = s[0], (s[3] - s[2]) * scale
        calls[name] += 1
        dur_t[name] += dur
        self_t[name] += dur - child[k] * scale
        if name == "sdp.solve":
            calls["sdp." + s[4]] += 1
            solves.append(dur)

    def layer_self(layer):
        return sum(v for k, v in self_t.items() if k.startswith(layer + "."))

    out = {
        "cli.main_calls": calls[ROOT],
        "cli.self_s": self_t[ROOT],
        "control.build_calls": calls["control.build"],
        "control.build_s": self_t["control.build"],
        "control.verify_analysis_s": self_t["control.verify_analysis"],
        "control.wellposedness_s": self_t["control.wellposedness"],
        "control.self_s": layer_self("control"),
        "lmi.vectorize_calls": calls["lmi.vectorize"],
        "lmi.vectorize_s": self_t["lmi.vectorize"],
        "lmi.margins_calls": calls["lmi.margin"],
        "lmi.margins_s": self_t["lmi.margins"] + self_t["lmi.margin"],
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.eig_s": self_t["linalg.eig"],
        "sdp.solve_calls": calls["sdp.solve"],
        "sdp.solve_s": dur_t["sdp.solve"],
        "sdp.self_s": self_t["sdp.solve"],
        **{f"sdp.{st}": calls["sdp." + st] for st in SDP_STATUSES},
        "pde.simulate_calls": calls["pde.simulate"],
        "pde.step_calls": calls["pde.step"],
        "pde.step_s": dur_t["pde.step"],
        "pde.sample_calls": calls["pde.sample"],
        "pde.sample_s": self_t["pde.sample"],
        "pde.boundary_s": self_t["pde.boundary"],
        "pde.record_s": self_t["pde.record"],
        "pde.envelope_s": self_t[ENVELOPE],
        "pde.self_s": layer_self("pde"),
    }
    return out, solves


def root_total(spans: list[list], first: int) -> float:
    """Summed duration of the root spans recorded from index `first` on."""
    return sum(s[3] - s[2] for s in spans[first:] if s[1] < 0)


def layer_total(metrics: dict[str, float]) -> float:
    """Sum of the self times of all layers; equals the root spans' time."""
    return (metrics["cli.self_s"] + metrics["control.self_s"]
            + metrics["lmi.vectorize_s"] + metrics["lmi.margins_s"]
            + metrics["linalg.eig_s"] + metrics["sdp.self_s"] + metrics["pde.self_s"])


def save(path, spans: list[list]) -> None:
    """Write the recorded spans as arrays: name codes, parent, start, end."""
    names = sorted({s[0] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    np.savez(path,
             names=np.array(names),
             name=np.array([code[s[0]] for s in spans], dtype=np.int16),
             parent=np.array([s[1] for s in spans], dtype=np.int64),
             start=np.array([s[2] for s in spans]),
             end=np.array([s[3] for s in spans]))
