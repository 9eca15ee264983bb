"""Benchmark entry point: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates (or reuses) the workload's inputs from the seed, then starts the
workload process. ``setup_s`` is the wall time from starting a process until
it reports that the first operation can start (interpreter start,
``import dptext`` and loading the files); it is taken in several processes
and the median is reported. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("privinfer-rantext", "evaluate-topk", "verify-suite")
# set-up is timed in at least SETUP_MIN processes, and in more (up to SETUP_MAX)
# until SETUP_BUDGET_S seconds have gone into the extra ones, so a cheap set-up,
# where interpreter start dominates and jitters most, gets more samples
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 6.0
GRACE_S = 100  # the last operation and its checks may overrun the deadline
# one thread per numeric library; the pipeline's own pool has MAX_CONCURRENT = 2
ENV_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# glibc's static default mmap threshold, set explicitly, which turns its dynamic
# threshold off: under the dynamic one, whether each distances_from call got its
# two 1.5 MB evaluate-topk temporaries from warm heap or from fresh pages
# flipped with small changes of heap layout, from none to 421,000 minor faults
# per operation on the same inputs
ENV_MALLOC = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def start_worker(args, data_dir, setup_only: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT_DIR]
    if data_dir:
        cmd += ["--data", data_dir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **ENV_THREADS, **ENV_MALLOC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    return proc, t0


def finish(proc, timeout: float) -> tuple[list[str], int]:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return [], -1
    return out.splitlines(), proc.returncode


def timed_setup(args, data_dir, setup_only: bool):
    """Start a worker and return (process, seconds until it printed READY)."""
    proc, t0 = start_worker(args, data_dir, setup_only)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, 10)
        raise RuntimeError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be a 64-bit unsigned integer")

    if not os.path.isfile(os.path.join(ROOT, "src", "dptext", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    data_dir = gen.ensure(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        setups = []
        # extra untraced processes that stop after set-up, for a steadier median
        while not args.trace and len(setups) < SETUP_MAX - 1 and (
                len(setups) < SETUP_MIN - 1 or sum(setups) < SETUP_BUDGET_S):
            proc, setup = timed_setup(args, data_dir, setup_only=True)
            setups.append(setup)
            finish(proc, 30)
        proc, setup = timed_setup(args, data_dir, setup_only=False)
        setups.append(setup)
        lines, code = finish(proc, args.seconds + GRACE_S)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if code != 0 or not lines:
        print(f"workload process failed (exit {code})", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    for err in res["errors"]:
        print(f"error: {err}", file=sys.stderr)

    lat = res["latencies_s"]
    print(f"workload={args.workload} seed={args.seed} attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']}")
    if args.trace:
        values = dict(res["layers"])
        values["trace.ops_per_s"] = len(lat) / sum(lat) if lat else 0.0
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in units("per_layer").items()}
        print(f"trace written to {res['trace_file']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "latency_p50_ms": statistics.median(lat) * 1000.0 if lat else 0.0,
            "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units("end_to_end").items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
