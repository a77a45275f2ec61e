"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) on each
workload with the settings in BENCHMARK.json, then prints, per metric,
the median and the quartile spread (Q3 - Q1) / median with
statistics.quantiles(values, n=4).  A spread above a third of the
metric's bound is flagged, and the exit code is then 3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    from importlib.metadata import version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"], help="run length to try")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    summary = {}
    for w in args.workloads:
        values: dict[str, list[float]] = {k: [] for k in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
                steady = False
            for k in bounds:
                values[k].append(res["metrics"][k]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={values[k][-1]:.5g}" for k in bounds), flush=True)
        summary[w] = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = spread > bounds[k] / 3
            steady &= not flag
            summary[w][k] = {"median": med, "spread": spread}
            print(f"  {w:9s} {k:13s} median {med:12.6g}  spread {spread:6.3f}  bound {bounds[k]}{'  WIDE' if flag else ''}")
    print(json.dumps({"machine": machine(), "run_seconds": args.seconds,
                      "seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": summary}))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
