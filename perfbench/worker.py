"""One workload in a fresh Python process, started by run.py.

The process imports hypiss from the checkout's src/, builds the
workload's inputs (its set-up), then repeats whole rounds of the
workload's operations until the run length is reached.  Every operation
is bracketed by two slices of the reference kernel and timed with tracing
off; with --trace 1 it is then run a second time with every layer wrapped.
Outputs are checked after each round, outside the timed regions.  The
result goes to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--parent-kernel", type=float, required=True,
                   help="reference-kernel slice the parent ran just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _quiet():
    """The commands print progress lines; keep them off the result stream."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def _succeeded(op, codes) -> bool:
    return len(codes) == len(op.commands) and all(
        c in accept for c, accept in zip(codes, op.accept))


def _run_commands(main, op) -> list[int]:
    codes = []
    for argv, accept in zip(op.commands, op.accept):
        codes.append(main(argv))
        if codes[-1] not in accept:
            break
    return codes


def _measure(workload, main, ref, seconds: float, trace: bool) -> dict:
    import kernel
    import spans

    tracer = spans.Tracer() if trace else None
    traced_main = tracer.root(main) if trace else None
    plain, plain_wall, traced, slices = [], [], [], []
    by_op: dict[str, list[float]] = {}
    layer_sum: dict[str, float] = {}
    solves: list[float] = []
    problems: list[str] = []
    attempted = failed = rounds = 0
    start = time.monotonic()

    def timed(run):
        gc.collect()
        before = ref()
        t0 = time.perf_counter()
        out = run()
        wall = time.perf_counter() - t0
        after = ref()
        slices.extend((before, after))
        return out, wall, kernel.normalise(wall, before, after)

    while rounds == 0 or time.monotonic() - start < seconds:
        done = []
        for op in workload.ops:
            with _quiet():
                codes, wall, norm = timed(lambda: _run_commands(main, op))
            plain.append(norm)
            plain_wall.append(wall)
            by_op.setdefault(op.name, []).append(norm)
            attempted += 1
            ok = _succeeded(op, codes)
            failed += not ok
            if tracer is not None:
                with _quiet():
                    (traced_codes, first), wall_t, norm_t = timed(
                        lambda: tracer.call(_run_commands, traced_main, op))
                traced.append(norm_t)
                attempted += 1
                failed += not _succeeded(op, traced_codes)
                if traced_codes != codes:
                    problems.append(f"{op.name}: traced exit codes {traced_codes} "
                                    f"differ from {codes}")
                scale = norm_t / wall_t
                per_op, op_solves = spans.layer_metrics(tracer.spans, first, scale)
                total = spans.root_total(tracer.spans, first) * scale
                if abs(spans.layer_total(per_op) - total) > 1e-9 * total:
                    problems.append(f"{op.name}: layer self times do not add up")
                for key, value in per_op.items():
                    layer_sum[key] = layer_sum.get(key, 0.0) + value
                solves.extend(op_solves)
            if ok:
                done.append((op, codes))
        if rounds == 0:
            # the checks below load whole output files; take the program's
            # peak before they run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with _quiet():
            for op, codes in done:
                problems += op.check(codes)
            problems += workload.round_check()
        rounds += 1

    result = {
        "attempted": attempted, "failed": failed, "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "run_s": sum(plain) / rounds,
        "op_p50_s": statistics.median(plain),
        "wall_run_s": sum(plain_wall) / rounds,
        "ref_kernel_s": statistics.median(slices),
        "op_medians": {k: statistics.median(v) for k, v in by_op.items()},
    }
    if tracer is not None:
        per_layer = {k: v / rounds for k, v in layer_sum.items()}
        steps = per_layer.pop("pde.step_s")
        per_layer["pde.step_us"] = 1e6 * steps / per_layer["pde.step_calls"] \
            if per_layer["pde.step_calls"] else 0.0
        per_layer["sdp.solve_p50_s"] = statistics.median(solves) if solves else 0.0
        per_layer["bench.ref_kernel_s"] = result["ref_kernel_s"]
        per_layer["bench.wall_run_s"] = result["wall_run_s"]
        per_layer["bench.traced_run_s"] = sum(traced) / rounds
        per_layer["bench.trace_overhead"] = sum(traced) / sum(plain)
        result["per_layer"] = per_layer
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    from hypiss import cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: hypiss was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import kernel
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    with _quiet():
        workload = workloads.BUILDERS[args.workload](args.seed, workdir, cli.main)
    ready = time.monotonic()
    ref = kernel.RefKernel()
    after = ref()
    setup_wall = ready - args.spawned_at
    result = {
        "setup_s": kernel.normalise(setup_wall, args.parent_kernel, after),
        "setup_wall_s": setup_wall,
        "problems": list(workload.setup_problems),
    }
    if not args.setup_only:
        measured = _measure(workload, cli.main, ref, args.seconds, bool(args.trace))
        measured["problems"] = result["problems"] + measured["problems"]
        result.update(measured)
    span_list = result.pop("spans", None)
    if span_list:
        import spans
        spans.save(Path(args.result).with_name("spans.npz"), span_list)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
