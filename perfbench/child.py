"""One benchmark process.  run.py starts each role in a fresh interpreter
and reads the JSON object on the last line of its standard output.

  setup    import panet and build the workload's inputs; print the time
           taken, in wall and in reference seconds (calibrate.py).  With
           --reference, afterwards (untimed) compute the triangle
           reference for the analyze inputs.
  measure  closed-loop passes until --seconds have gone by and at least
           three passes are done, with speed probes before the first pass
           and after each; print the time of each pass and probe, the
           factor from wall to reference seconds, attempts, failures and
           peak RSS.
  trace    the traced run (see traced.py); print the per-layer metrics.

Usage: python3 perfbench/child.py ROLE --root DIR --workload NAME
       --seed N --workdir DIR [--seconds S] [--reference]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

MIN_PASSES = 3  # so that a run never rests on a single pass
PROBES_PER_GAP = 5  # probes before the first pass and after each pass
SETUP_PROBES = 3  # probes after a set-up


def _use_checkout(root: Path) -> None:
    """Put the checkout's src/ and this directory first on the path."""
    sys.path.insert(0, str((root / "src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _check_origin(root: Path) -> None:
    """Fail unless panet was imported from the checkout's src/."""
    import panet

    src = (root / "src").resolve()
    if not Path(panet.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"panet imported from {panet.__file__}, not from {src}")


def setup(args) -> dict:
    t0 = perf_counter()
    import workloads
    from tracing import NullTracer

    if args.workload == "analyze":
        workloads.analyze_setup(args.seed, args.workdir, NullTracer())
    workloads.passes(args.seed, args.workdir, refs=None)
    setup_s = perf_counter() - t0
    _check_origin(args.root)
    import calibrate  # set-up is one process: probe one core

    probe = calibrate.Probe(1)
    scale = probe.scale([probe() for _ in range(SETUP_PROBES)])
    if args.reference and args.workload == "analyze":
        workloads.analyze_reference(args.workdir)
    return {"wall_s": setup_s, "setup_s": setup_s * scale}


def measure(args) -> dict:
    import calibrate
    import workloads
    from tracing import NullTracer

    _check_origin(args.root)
    refs = workloads.load_reference(args.workdir) if args.workload == "analyze" else None
    run_pass, work = workloads.passes(args.seed, args.workdir, refs)[args.workload]
    passes = []
    attempted = failed = 0
    problems: list[str] = []
    # The probe keeps as many cores busy as the pass: run_scenario's pool
    # for presets and sweep, one core for analyze and numerics.
    probe = calibrate.Probe(workloads.WORKERS if args.workload in ("presets", "sweep") else 1)
    try:
        probes = [probe() for _ in range(PROBES_PER_GAP)]
        start = perf_counter()
        while True:
            ops = workloads.Ops(NullTracer())
            run_pass(ops)
            passes.append(ops.seconds)
            probes += [probe() for _ in range(PROBES_PER_GAP)]
            attempted += ops.attempted
            failed += ops.failed
            problems += ops.problems
            if perf_counter() - start >= args.seconds and len(passes) >= MIN_PASSES:
                break
        # Before the probe's workers end, so that they never count here.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        probe.close()
    return {
        "passes": passes,
        "probes": probes,
        "scale": probe.scale(probes),
        "probe_s": statistics.fmean(probes),
        "work_per_pass": work,
        "work_unit": workloads.WORK_UNIT[args.workload],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mib": (own + worker) / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def trace(args) -> dict:
    import traced

    _check_origin(args.root)
    return traced.run_suite(args.workload, args.seed, args.workdir)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "measure", "trace"))
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    _use_checkout(args.root)
    out = {"setup": setup, "measure": measure, "trace": trace}[args.role](args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
