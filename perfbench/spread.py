"""Print the run-to-run spread of every end-to-end metric, to set and
re-check the bounds.

    python3 perfbench/spread.py --workload satake

Runs run.py once for each of the seeds 1 to 10, from the root of a
checkout, with the run length of BENCHMARK.json, and prints for each
metric its median, its quartiles and the spread (third quartile minus
first, as a share of the median), which must stay below a third of the
metric's bound; and the share of failed ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main(argv=None):
    p = argparse.ArgumentParser(description="run-to-run spread of the benchmark")
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, set()
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.strip().startswith("raw (not rescaled):"):
                for pair in line.split(":", 1)[1].split():
                    k, v = pair.split("=")
                    values.setdefault(f"raw {k}", []).append(float(v))
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct {result['correct']}  attempted {result['attempted']}"
              f"  failed {result['failed']}  "
              + "  ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed shares: {sorted(shares)}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:55s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:7.2%}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
