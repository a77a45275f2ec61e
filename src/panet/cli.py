"""Command-line interface.

Subcommands:
  generate    grow one graph and write its edge list
  metrics     degree/clustering statistics of an edge list, as CSV
  theory      closed-form curve table, as CSV
  oracle      recurrence integration vs closed form, as CSV
  experiment  run a scenario file or a named figure preset

Experiment tables follow each scenario's output tags; presets add --check.
Exit codes: 0 success, 2 invalid parameters, 3 check failure (--check).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    PRESETS,
    Scenario,
    ScenarioResult,
    check_preset,
    make_preset,
    run_scenario,
)
from .graphgen import export_edge_list, generate, import_edge_list
from .metrics import clustering, degree_profile, dnn_empirical, pearson_assortativity
from .oracle import compare_closed_form, integrate_S
from .params import (
    GeneratorParams,
    derive_generator_params,
    derive_model_params,
    make_model_params,
)
from .theory import build_theory_curve, dnn_overlay, theory_tables

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_CHECK_FAILED = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".10g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _resolve_generator(args) -> GeneratorParams:
    by_model = args.A is not None or args.D is not None
    by_knobs = args.beta is not None or args.c is not None
    if by_model == by_knobs:
        raise ValueError("give either --A and --D, or --beta and --c")
    if by_model:
        if args.A is None or args.D is None:
            raise ValueError("--A and --D must be given together")
        return derive_generator_params(args.m, args.A, args.D)
    if args.beta is None or args.c is None:
        raise ValueError("--beta and --c must be given together")
    return GeneratorParams(m=args.m, beta=args.beta, c=args.c)


def _cmd_generate(args) -> int:
    gp = _resolve_generator(args)
    p = derive_model_params(gp)
    g = generate(gp, args.n, args.seed)
    export_edge_list(g, args.out)
    print(
        f"wrote {g.num_edges} edges ({g.n} vertices) to {args.out} "
        f"[m={p.m} A={p.A:.6g} B={p.B:.6g} D={p.D:.6g}]"
    )
    return _EXIT_OK


def _cmd_metrics(args) -> int:
    g = import_edge_list(getattr(args, "in"))
    prof = degree_profile(g)
    cp = clustering(g)
    rows = [
        (d, prof.N[d], prof.S[d], dnn_empirical(prof, d), cp.C_by_degree.get(d, 0.0))
        for d in sorted(prof.N)
    ]
    _write_csv(Path(args.out), ["d", "N", "S", "dnn", "C_of_d"], rows)
    r = pearson_assortativity(prof)
    print(f"n={prof.n} edges={prof.num_edges} W={prof.W}")
    print(f"C1={cp.C1:.6g} C2={cp.C2:.6g} pearson={r:.6g}")
    print(f"wrote per-degree table to {args.out}")
    return _EXIT_OK


def _cmd_theory(args) -> int:
    p = make_model_params(args.m, args.A, args.D)
    rows = theory_tables(p, args.d_max, n_list=args.n or ())
    _write_csv(Path(args.out), list(rows[0]), [r.values() for r in rows])
    print(f"wrote {len(rows)} theory rows to {args.out}")
    return _EXIT_OK


def _cmd_oracle(args) -> int:
    p = make_model_params(args.m, args.A, args.D)
    # The closed form needs A < 1/2: build it first, so such A fails at once.
    curve = build_theory_curve(p, np.arange(p.m, args.d_max + 1))
    report = compare_closed_form(integrate_S(p, args.n_end, args.d_max), curve)
    rows = [
        (int(r["n"]), d, r["S_over_n"], r["M_closed"], r["rel_err_S"])
        for d, r in report.items()
    ]
    _write_csv(Path(args.out), ["n", "d", "S_over_n", "M_closed", "rel_err"], rows)
    worst = max(r["rel_err_S"] for r in report.values())
    print(f"wrote {len(rows)} oracle rows to {args.out} (max rel err {worst:.3e})")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Experiment output writers.


def _scenario_tables(res: ScenarioResult):
    """(kind, file name, header, rows) of each table a simulated scenario
    writes: one d-sweep per size, then the n-sweep at the probe degree."""
    s, C = res.scenario, res.fitted_constant or 1.0
    for n in s.n_list:
        ds = res.populated_degrees(n)
        theory = dnn_overlay(s.model, np.asarray(ds), n, C).tolist()
        rows = [(d, res.pooled_N[n][d], res.dnn_pooled(n, d), t) for d, t in zip(ds, theory)]
        header = ["d", "N_pooled", "dnn_mean", "dnn_theory"]
        yield "dnn_vs_d", f"{s.name}_dnn_vs_d_n{n}.csv", header, rows
    if len(s.n_list) > 1 or "dnn_vs_n" in s.outputs or "err_vs_n" in s.outputs:
        d0 = s.probe_degree
        rows = []
        for n in s.n_list:
            mean, overlay = res.probe_mean(n), dnn_overlay(s.model, d0, n, C)
            rows.append((n, d0, mean, res.probe_stderr(n), overlay, abs(mean - overlay)))
        header = ["n", "d0", "dnn_mean", "dnn_stderr", "overlay", "err"]
        yield "dnn_vs_n", f"{s.name}_dnn_vs_n.csv", header, rows


_GNUPLOT_TEMPLATES = {
    "dnn_vs_d": (
        'set logscale x\nset xlabel "d"\nset ylabel "d_nn(d)"\n'
        'plot "{csv}" using 1:3 with points title "simulation", '
        '"{csv}" using 1:4 with lines title "theory"\n'
    ),
    "dnn_vs_n": (
        'set logscale x\nset xlabel "n"\nset ylabel "d_nn(d0)"\n'
        'plot "{csv}" using 1:3:4 with yerrorbars title "simulation", '
        '"{csv}" using 1:5 with lines title "overlay"\n'
    ),
    "dnn_vs_D": (
        'set xlabel "D"\nset ylabel "d_nn(d0)"\n'
        'plot "{csv}" using 1:3:4 with yerrorbars title "simulation"\n'
    ),
}


def _emit_gnuplot(tables: list[tuple], out_dir: Path, label: str) -> Path:
    """A script plotting each (kind, file name, header, rows) table by its
    kind's template; kinds without one (theory tables) are left out."""
    lines = ["set terminal pngcairo size 800,600", ""]
    for kind, name, _, _ in tables:
        if kind in _GNUPLOT_TEMPLATES:
            lines.append(f'set output "{Path(name).stem}.png"')
            lines.append(_GNUPLOT_TEMPLATES[kind].format(csv=name))
    path = out_dir / f"{label}.gp"
    path.write_text("\n".join(lines) + "\n")
    return path


def _cmd_experiment(args) -> int:
    if args.mode == "run":
        payload = json.loads(Path(args.scenario).read_text())
        payload = payload if isinstance(payload, list) else [payload]
        if not payload:
            raise ValueError("the scenario file lists no scenario")
        scenarios = [Scenario.from_json(json.dumps(p)) for p in payload]
        names = [s.name for s in scenarios]
        if len(set(names)) < len(names):
            raise ValueError(f"scenario names must be unique, got {', '.join(names)}")
        label = "scenario"
    else:
        scenarios = make_preset(args.name, full=args.full, n=args.n, seeds=args.seeds)
        label = args.name
    # Every table is built before --out-dir is made, so a scenario that
    # raises leaves no directory and no file.
    out_dir = Path(args.out_dir)
    results: list[ScenarioResult] = []
    tables = []  # (kind, file name, header, rows), in write order
    lines = []  # stdout, printed once every table is written
    sweep_rows = []  # per dnn_vs_D scenario: d_nn at its probe degree and largest size
    for s in scenarios:
        if "theory_only" in s.outputs:
            rows = theory_tables(s.model, 10**4 if s.A < 0.5 else 100, s.n_list)
            name = f"{s.name}_theory.csv"
            tables.append(("theory", name, list(rows[0]), [r.values() for r in rows]))
            lines.append(f"{s.name}: wrote {out_dir / name}")
            continue
        res = run_scenario(s)
        results.append(res)
        mine = list(_scenario_tables(res))
        tables += mine
        if "dnn_vs_D" in s.outputs:
            n = s.n_list[-1]
            sweep_rows.append((s.D, s.probe_degree, res.probe_mean(n), res.probe_stderr(n)))
        fit = res.fitted_constant
        extra = "" if fit is None else f" (fitted constant {fit:.4g})"
        lines.append(f"{s.name}: wrote {', '.join(t[1] for t in mine)}{extra}")
    if sweep_rows:
        name = f"{label}_dnn_vs_D.csv"
        tables.append(("dnn_vs_D", name, ["D", "d0", "dnn_mean", "dnn_stderr"], sweep_rows))
        lines.append(f"wrote {out_dir / name}")

    out_dir.mkdir(parents=True, exist_ok=True)
    for _, name, header, rows in tables:
        _write_csv(out_dir / name, header, rows)
    if args.gnuplot:
        lines.append(f"wrote {_emit_gnuplot(tables, out_dir, label)}")
    print("\n".join(lines))

    if args.mode == "preset" and args.check:
        if not results:
            print(f"CHECK SKIP [{label}]: theory-only preset, no rule")
            return _EXIT_OK
        fails = check_preset(label, results)
        if fails:
            for msg in fails:
                print(f"CHECK FAIL [{label}]: {msg}", file=sys.stderr)
            return _EXIT_CHECK_FAILED
        print(f"CHECK PASS [{label}]")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="panet",
        description="Preferential-attachment multigraph simulator with "
        "triangle steps: generation, metrics, closed-form theory and "
        "figure-reproduction experiments.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="grow a graph, write an edge list")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--A", type=float)
    g.add_argument("--D", type=float)
    g.add_argument("--beta", type=float)
    g.add_argument("--c", type=float)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    mt = sub.add_parser("metrics", help="per-degree statistics of an edge list")
    mt.add_argument("--in", dest="in", required=True)
    mt.add_argument("--out", required=True)
    mt.set_defaults(func=_cmd_metrics)

    th = sub.add_parser("theory", help="closed-form curve table")
    th.add_argument("--m", type=int, required=True)
    th.add_argument("--A", type=float, required=True)
    th.add_argument("--D", type=float, required=True)
    th.add_argument("--d-max", type=int, required=True)
    th.add_argument("--n", type=int, nargs="*", help="sizes for hypothesis columns (A >= 1/2)")
    th.add_argument("--out", required=True)
    th.set_defaults(func=_cmd_theory)

    orc = sub.add_parser("oracle", help="recurrence integration vs closed form")
    orc.add_argument("--m", type=int, required=True)
    orc.add_argument("--A", type=float, required=True)
    orc.add_argument("--D", type=float, required=True)
    orc.add_argument("--n-end", type=int, required=True)
    orc.add_argument("--d-max", type=int, required=True)
    orc.add_argument("--out", required=True)
    orc.set_defaults(func=_cmd_oracle)

    ex = sub.add_parser("experiment", help="run scenarios / figure presets")
    exsub = ex.add_subparsers(dest="mode", required=True)
    run_p = exsub.add_parser("run", help="run a scenario JSON file")
    run_p.add_argument("scenario")
    pre_p = exsub.add_parser("preset", help="run a named figure preset")
    pre_p.add_argument("name", choices=PRESETS)
    pre_p.add_argument("--full", action="store_true", help="reference sizes (n = 1e6)")
    pre_p.add_argument("--n", type=int, help="override every size (desk testing)")
    pre_p.add_argument("--seeds", type=int, help="override seed count")
    pre_p.add_argument("--check", action="store_true", help="verify figure invariants")
    for p in (run_p, pre_p):
        p.add_argument("--out-dir", default=".")
        p.add_argument("--gnuplot", action="store_true", help="emit a gnuplot script")
        p.set_defaults(func=_cmd_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
