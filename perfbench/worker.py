"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload certify --seed 1 --seconds 30 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

Run from the root of a checkout; `run.py` spawns it.  Prints one JSON
object on its last line.  With --setup-only it stops after set-up and
reports the set-up time alone.

Set-up is the program's part of getting ready: from the spawn through the
import of `twistdual`, then the loading of the first round's program-side
inputs (each op's `prepare`).  Generating the inputs and the expected
answers with `oracle` is the benchmark's own work; it is timed apart and
reported as `generate_s`, not counted in `setup_s`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402

MIN_OPS = 100        # op_p90_ms needs ten ops beyond it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def rescaled(norm, fn):
    """Run fn; return its result and its time, less the reference samples
    taken inside it, rescaled to the reference speed."""
    spent, t0 = norm.spent, time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    return out, (t1 - t0 - (norm.spent - spent)) * norm.factor(t0, t1)


def prepare_all(ops):
    for op in ops:
        if op.prepare:
            op.prepare()


def run_rounds(workload, ops, seconds, norm, tracer):
    """Run whole rounds: untraced, until another round would pass
    `seconds` and at least MIN_OPS ops ran; traced, until MIN_OPS ops ran,
    a number of rounds fixed by the workload, so that the counts repeat
    exactly for a seed.  Returns each op's time, rescaled by `norm`."""
    verdicts = {"ok": 0, "failed": 0, "wrong": 0}
    problems = {}
    spans = []              # (start, end, seconds) of each op
    k = 0
    started = time.perf_counter()
    while True:
        gc.collect()
        round_started = time.perf_counter()
        for op in ops:
            if op.prepare:
                op.prepare()
            run = tracer.span("cli.main", op.run) if tracer and op.cli else op.run
            if tracer:
                tracer.active = True
            spent = norm.spent
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception:  # an op that raises counts as failed; the run goes on
                verdict = "failed"
                problems.setdefault(op.kind, traceback.format_exc(limit=3))
            else:
                verdict = None
            t1 = time.perf_counter()
            if tracer:
                tracer.active = False
            spans.append((t0, t1, t1 - t0 - (norm.spent - spent)))
            if verdict is None:
                verdict = op.check(out)
                if verdict != "ok":
                    problems.setdefault(f"{op.kind}/{verdict}", repr(out)[:400])
            verdicts[verdict] += 1
        k += 1
        round_s = time.perf_counter() - round_started
        if tracer:
            if len(spans) >= MIN_OPS:
                break
        elif time.perf_counter() - started + round_s > seconds and len(spans) >= MIN_OPS:
            break
        ops = workload.round(k)
    times = [dt * norm.factor(t0, t1) for t0, t1, dt in spans]
    return times, [dt for _, _, dt in spans], verdicts, k, problems


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def latency(times, completed):
    """ops_per_s, op_p50_ms and op_p90_ms of op times given in seconds."""
    return {"ops_per_s": completed / sum(times),
            "op_p50_ms": statistics.median(times) * 1000,
            "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1000}


def main(argv=None):
    args = parse_args(argv)
    norm = reference.Normaliser()
    workdir = Path(".perfbench_work") / f"{args.workload}-{os.getpid()}"
    try:
        import workloads     # imports twistdual
        now = time.perf_counter()
        import_s = ((time.monotonic() - args.spawned_at - norm.spent)
                    * norm.factor(norm.stamps[0] if norm.stamps else now, now))

        def generate():
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            return workload, workload.round(0)

        (workload, ops), generate_s = rescaled(norm, generate)
        _, prepare_s = rescaled(norm, lambda: prepare_all(ops))
        setup_s = import_s + prepare_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "generate_s": generate_s}))
            return 0
        tracer = None
        if args.trace:
            import layers
            tracer = layers.Tracer().install(extra=(workloads,))
        times, raw, verdicts, rounds, problems = run_rounds(
            workload, ops, args.seconds, norm, tracer)
    finally:
        norm.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:         # another worker's files are still there
            pass
    for kind, text in sorted(problems.items()):
        print(f"worker: {kind}: {text}", file=sys.stderr)
    attempted = len(times)
    completed = attempted - verdicts["failed"]
    result = {"correct": verdicts["wrong"] == 0, "attempted": attempted,
              "failed": verdicts["failed"], "rounds": rounds, "setup_s": setup_s,
              "generate_s": generate_s,
              "factor": norm.median_factor(), "op_s_total": sum(times),
              "raw": latency(raw, completed)}
    if tracer is not None:
        result["metrics"] = tracer.metrics(norm.median_factor())
    else:
        result["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                             for name, value in latency(times, completed).items()}
        result["metrics"]["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
