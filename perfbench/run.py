"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: presets, sweep, analyze, numerics (see README.md).  The
checkout is the directory above this file; panet is imported from its
src/ only, and every file the run writes goes under .perfbench_work/.

Each role runs in a fresh interpreter (child.py), so peak RSS never
carries over between workloads or from set-up into the timed passes:

  --trace 0  one process that runs closed-loop passes for --seconds (and
             at least three) and reports pass_s, work_per_s and
             peak_rss_mib, with set-up processes before and after it (the
             median of their times is setup_s).  Times are in reference
             seconds: wall seconds scaled by a fixed speed probe timed
             beside them (calibrate.py).
  --trace 1  one process that runs the traced suite (traced.py) and
             reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are a
human-readable summary, including failed_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("presets", "sweep", "analyze", "numerics")
DEFAULT_SEED = 20240901  # the package's default scenario root seed
SETUP_REPEATS = {"analyze": 5}  # others: 7
# Every child of one run together: just under the 180 s a run may take,
# so that a slow tree is measured rather than cut off short of that.
TIME_LIMIT_S = 175.0


class BenchError(Exception):
    pass


def run_child(role: str, args, workdir: Path, deadline: float, *extra: str) -> dict:
    """Run child.py ROLE in a fresh interpreter; return its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        role,
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        *extra,
    ]  # fmt: skip
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"{role} process exceeded the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}:\n{err.strip()[-3000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no result")
    return json.loads(lines[-1])


def measured(args, workdir: Path, deadline: float) -> dict:
    # Half the set-ups run before the passes and half after, so that
    # setup_s samples the machine's speed over the whole run, as pass_s does.
    reps = SETUP_REPEATS.get(args.workload, 7)
    before = (reps + 1) // 2

    def set_up(i: int) -> dict:
        extra = ["--reference"] if i == before - 1 else []  # inputs for the passes
        return run_child("setup", args, workdir, deadline, *extra)

    setups = [set_up(i) for i in range(before)]
    m = run_child("measure", args, workdir, deadline, "--seconds", str(args.seconds))
    setups += [set_up(i) for i in range(before, reps)]
    passes = m["passes"]
    # The mean, not the median, of the run's passes: with four to seven
    # passes a run, it varies less from run to run.
    wall_pass_s = statistics.fmean(passes)
    pass_s = wall_pass_s * m["scale"]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    wall_setup_s = statistics.median(s["wall_s"] for s in setups)
    print(
        f"{args.workload} seed={args.seed}: wall pass mean {wall_pass_s:.4f} s over {len(passes)} passes "
        f"(min {min(passes):.4f}, max {max(passes):.4f}), probe mean {m['probe_s']:.4f} s; "
        f"wall setup median {wall_setup_s:.4f} s over {reps} set-ups; "
        f"{m['work_per_pass']} {m['work_unit']} per pass"
    )
    return {
        "attempted": m["attempted"],
        "failed": m["failed"],
        "problems": m["problems"],
        "metrics": {
            "pass_s": {"value": pass_s, "unit": "s"},
            "work_per_s": {"value": m["work_per_pass"] / pass_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": m["peak_rss_mib"], "unit": "MiB"},
        },
    }


def traced(args, workdir: Path, deadline: float) -> dict:
    t = run_child("trace", args, workdir, deadline)
    print(f"{args.workload} seed={args.seed}: traced run, spans in .perfbench_work/trace-{args.workload}-{args.seed}.jsonl")
    return t


def parse_args(argv):
    ap = argparse.ArgumentParser(description="panet benchmark: one workload, one seed")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "panet" / "__init__.py").is_file():
        print(f"error: no panet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        res = (traced if args.trace else measured)(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in res["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    frac = res["failed"] / res["attempted"]
    print(f"failed_frac {res['failed']}/{res['attempted']} = {frac:.4g}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": res["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
