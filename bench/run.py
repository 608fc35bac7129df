"""Benchmark command: one workload, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a process of its own
with one BLAS thread; set-up is timed in separate processes started the same
way.  Prints progress lines, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` swaps in one small operation per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

WORKLOADS = ("thermal-ode", "coherent-dense", "gap-sweep")

#: timed set-up-only processes before and after the workload process; the
#: median of these and of the workload's own set-up is setup_s.  One untimed
#: warm-up goes first: it fills the file cache and the bytecode cache, which a
#: fresh checkout lacks.  Samples on both sides of the workload spread them
#: over the run, so one slow spell of the machine does not set the median.
SETUP_SAMPLES = 4

#: every child must be done by then, so the command ends within 180 s
DEADLINE_S = 170.0

ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)


def child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; returns (monotonic start time, its last JSON line)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} did not finish before the deadline")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def time_setup(args: list[str], deadline: float) -> float:
    # time.monotonic reads CLOCK_MONOTONIC, one clock for every process on Linux
    start, res = child(args, deadline)
    return res["ready"] - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "atomcavity" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'atomcavity'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    outdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setup_only = common + ["--setup-only", "--out", str(outdir)]
    try:
        child(setup_only, deadline)
        samples = 0 if args.trace else SETUP_SAMPLES
        setup = [time_setup(setup_only, deadline) for _ in range(samples)]
        start, res = child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(outdir)],
            deadline,
        )
        setup.append(res["ready"] - start)
        setup += [time_setup(setup_only, deadline) for _ in range(samples)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "run_s": {"value": statistics.median(res["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
