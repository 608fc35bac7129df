"""One workload process: set up, run whole rounds of operations, check them.

Started by ``run.py``; prints one JSON line.  With ``--setup-only`` it stops
where the first operation would start, so that ``run.py`` can time set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (imports atomcavity, numpy and scipy)


def run_round(ops, round_check, outdir: Path, tracer, rnd: int) -> tuple[float, int, list[str]]:
    """Run every operation once; returns (wall seconds, failures, problems).

    Only the operations themselves are timed; their checks run afterwards.
    """
    failed = 0
    problems: list[str] = []
    done = []
    for op in ops:
        op.record.clear()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        opdir = outdir / f"op{i}"
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run(opdir)
            else:
                tracer.op, tracer.round = op.name, rnd
                result = tracer.call("bench.operation", op.run, (opdir,))
            error = None
        except Exception as exc:  # an operation failure is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        done.append((op, opdir, result, error, time.perf_counter() - t0))
    run_s = time.perf_counter() - start
    for op, opdir, result, error, seconds in done:
        if error is None:
            try:
                found = op.check(opdir, result)
            except Exception:
                found = ["check raised " + traceback.format_exc(limit=2)]
        else:
            found = [error]
        shutil.rmtree(opdir, ignore_errors=True)
        status = "ok" if not found else ("known fault" if op.known_fault else "FAILED")
        print(f"round {rnd} {op.name}: {seconds:.3f} s, {status}", flush=True)
        if found:
            failed += 1
            if not op.known_fault:
                problems += [f"{op.name}: {p}" for p in found]
            else:
                print(f"  {found[0][:200]}", flush=True)
    problems += round_check(ops)
    return run_s, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops, round_check = workloads.build(args.workload, args.seed, smoke=args.smoke)
    tracer = None
    if args.trace:
        from tracing import METRICS, Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    outdir = Path(args.out)
    rounds: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    # whole rounds, as many as fit in --seconds going by the last one, at least one
    while not rounds or sum(rounds) + rounds[-1] <= args.seconds:
        run_s, n_failed, found = run_round(ops, round_check, outdir, tracer, len(rounds))
        if tracer is not None:
            layers.append(tracer.round_metrics(len(rounds), run_s))
        rounds.append(run_s)
        attempted += len(ops)
        failed += n_failed
        problems += found
    shutil.rmtree(outdir, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(outdir.parent / f"trace-{args.workload}-seed{args.seed}.json", layers)
    for p in problems:
        print("PROBLEM " + p, flush=True)
    print(json.dumps({
        "ready": ready,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": {
            name: {"value": statistics.median(r[name] for r in layers), "unit": unit}
            for name, unit in METRICS.items()
        } if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
