"""Benchmark of twistdual: certification and Satake sweeps.

    python3 perfbench/run.py --workload certify|satake|highrank --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (`worker.py`).  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run instead.  See
README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# extra processes that only set up, for setup_s: many where set-up is a
# few tenths of a second of imports, few where it is seconds of Weyl closures
SETUP_PROBES = {"certify": 9, "satake": 9, "highrank": 3}
WORKER_TIMEOUT_S = 150


def spawn(args, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="twistdual benchmark")
    p.add_argument("--workload", required=True, choices=("certify", "satake", "highrank"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = Path("src") / "twistdual"
    if not (src / "__init__.py").is_file():
        print("run.py: run from the root of a twistdual checkout (no src/twistdual)",
              file=sys.stderr)
        return 2
    # compile once here, so that no timed process pays for compilation
    if not (compileall.compile_dir(str(src), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1)):
        print("run.py: compilation failed", file=sys.stderr)
        return 2
    probes = [] if args.trace else [spawn(args, setup_only=True)
                                    for _ in range(SETUP_PROBES[args.workload])]
    result = spawn(args)
    probes.append(result)
    setups = [p["setup_s"] for p in probes]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"reference factor {result['factor']:.3f}  op time {result['op_s_total']:.3f} s  "
          f"input generation (not in setup_s) "
          f"{statistics.median(p['generate_s'] for p in probes):.4f} s")
    print("  raw (not rescaled): " + "  ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    for name, m in sorted(metrics.items()):
        print(f"  {name:55s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
