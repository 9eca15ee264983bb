"""Run one workload k times with consecutive seeds and print each metric's spread.

    python3 perfbench/spread.py --workload evaluate-topk --runs 10 [--first-seed 1]

Each run is untraced and lasts ``run_seconds`` from BENCHMARK.json, the runs
the bounds are set for. For every metric it prints the median, the quartiles
(``statistics.quantiles`` with n=4), min and max, and the inter-quartile
distance as a share of the median, which is what a metric's bound in
BENCHMARK.json is compared against.
It also prints the failed share of operations over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.splitlines()[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(row), flush=True)

    print(f"\n{'metric':<32} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, "")
        print(f"{name:<32} {units[name]:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{min(vals):>11.5g} {max(vals):>11.5g} {rel:>8.3f} {bound:>6}")
    print(f"\nfailed share: {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
