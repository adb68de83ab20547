"""Steadiness self-check: run one workload several times on one commit.

Usage, from the repository root::

    python3 repobench/steadiness.py --workload served --runs 5 [--first-seed 1]

Each run gets its own seed.  For every end-to-end metric the check prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, against the metric's bound in
``BENCHMARK.json``.  A spread wider than the bound means two commits cannot
be told apart on that metric: report it as unresolved, not as unchanged.
Exits 1 if any spread other than ``setup_s`` exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={vals[-1]:.4g}" for name, vals in values.items()),
              flush=True)
    steady = True
    print(f"\n{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3:
            steady = False
            flag = "  > bound/3"
        print(f"{m['name']:<16} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} "
              f"{spread:>7.3f} {m['bound']:>6.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
