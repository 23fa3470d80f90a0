"""Benchmark for hypiss: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The workload runs in fresh
Python processes (perfbench/worker.py) that import hypiss from src/ with
BLAS pinned to one thread.  Set-up is timed in several processes and the
median is reported; the last process also times whole rounds of the
workload's operations and checks every output.  The last line printed is
one JSON object: correct, attempted, failed and the metrics, which are the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1.  Names, units and workloads are read from
BENCHMARK.json.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7        # processes whose set-up is timed; the last one also measures
DEADLINE_S = 170  # the whole run, including every process it starts

# one BLAS thread: the figures stay comparable across hosts with different
# core counts, and a second thread would only fight the workload for the
# host's two cores
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    started = time.monotonic()
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "hypiss" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a hypiss checkout; {src / 'hypiss'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    os.environ.update(PINNED)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(HERE))
    from kernel import RefKernel   # numpy loads after the pinning above
    ref = RefKernel()

    out_dir = HERE / "out" / args.workload
    work = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for i in range(SETUPS):
            result_path = out_dir / f"result-{os.getpid()}-{i}.json"
            cmd = [sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--workdir", str(work / f"p{i}"), "--result", str(result_path)]
            if i < SETUPS - 1:
                cmd.append("--setup-only")
            cmd += ["--parent-kernel", repr(ref())]
            cmd += ["--spawned-at", repr(time.monotonic())]
            remaining = DEADLINE_S - (time.monotonic() - started)
            try:
                proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                      timeout=max(remaining, 1.0), check=False)
            except subprocess.TimeoutExpired:
                return _fail(f"worker {i} did not finish within the deadline")
            if proc.returncode != 0:
                return _fail(f"worker {i} exited with code {proc.returncode}")
            results.append(json.loads(result_path.read_text()))
            result_path.unlink()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = results[-1]
    problems = [p for r in results for p in r["problems"]]
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    if args.trace:
        values = measured["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "run_s": measured["run_s"],
            "op_p50_s": measured["op_p50_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, value in measured["op_medians"].items():
        print(f"# op {name}: median {value:.4f} s")
    print(f"# {args.workload} seed {args.seed}: {measured['rounds']} rounds, "
          f"setup wall {[round(r['setup_wall_s'], 3) for r in results]}, "
          f"kernel {measured['ref_kernel_s']:.4f} s, raw run {measured['wall_run_s']:.3f} s")
    print(json.dumps({"correct": not problems, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
