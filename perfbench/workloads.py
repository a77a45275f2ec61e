"""The four workloads: inputs made from the seed, one closed-loop pass
through the public API or the CLI, and the output checks of each call.

Only the calls into panet are timed.  Output checks run after each call,
outside its timed span, and a failed check counts the call as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import panet.cli
from panet import (
    M_exact,
    Scenario,
    build_theory_curve,
    child_seed,
    compare_closed_form,
    derive_generator_params,
    dnn_asymptotic,
    dnn_theory,
    export_edge_list,
    generate,
    integrate_S,
    make_model_params,
    make_preset,
    run_scenario,
    theory_tables,
)
from scipy.special import gammaln

import checks

WORKERS = 2  # nproc of the reference machine; never more

PRESET_NAMES = ("fig1a", "fig5a", "fig5b")

SWEEP_M, SWEEP_D, SWEEP_A = 2, 0.2, (0.3, 0.5)
SWEEP_N = (1000, 5000, 30_000)
SWEEP_SEEDS = (200, 60, 30)

ANALYZE_M, ANALYZE_N = 2, 200_000
# (tag, A, D): AC09's few-hub regime and a supercritical one with big hubs
ANALYZE_GRAPHS = (("sub", 0.25, 0.3), ("super", 0.6, 0.2))
ANALYZE_EDGES = len(ANALYZE_GRAPHS) * ANALYZE_M * ANALYZE_N

ORACLE = dict(m=2, A=0.25, D=0.3, n_end=100_000, d_max=300, record_at=(1000, 10_000, 100_000))
CURVE = dict(m=2, A=0.2, D=0.3, d_lo=2, d_hi=100_000)
AC02 = dict(m=2, A=0.4, D=0.3, d=(10**6, 10**7))
TABLES = dict(m=2, D=0.2, A=(0.5, 0.6), d_max=1000, n_list=(10**4, 10**5, 10**6))


class Ops:
    """Runs the calls of one pass: counts attempts and failures and sums
    the time spent inside the calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, name, fn, *args, tag=None, **kwargs):
        """Time fn(*args, **kwargs); return (ok, result)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with self.tracer.span(name, tag):
                out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self.seconds += perf_counter() - t0
            self.failed += 1
            self.problems.append(f"{name}[{tag}]: {type(exc).__name__}: {exc}")
            return False, None
        self.seconds += perf_counter() - t0
        return True, out

    def check(self, problems: list[str]) -> None:
        """Record the output check of the call made last."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def regime(gp) -> str:
    return "cpos" if gp.c > 0 else ("czero" if gp.c == 0 else "cneg")


# ---------------------------------------------------------------------------
# presets and sweep: run_scenario with two workers.


def preset_scenarios(seed: int) -> list[Scenario]:
    return [dataclasses.replace(make_preset(name)[0], root_seed=seed) for name in PRESET_NAMES]


def sweep_scenarios(seed: int) -> list[Scenario]:
    return [
        Scenario(
            name=f"sweep_A{A:g}",
            m=SWEEP_M,
            A=A,
            D=SWEEP_D,
            n_list=SWEEP_N,
            seeds=SWEEP_SEEDS,
            root_seed=seed,
        )
        for A in SWEEP_A
    ]


def scenario_pass(scenarios, ops: Ops, after=None) -> None:
    """run_scenario per scenario; ``after(s, res)`` runs untimed after each
    call (the traced run replays the scenario's jobs there)."""
    for s in scenarios:
        ok, res = ops.call("experiments.run_scenario", run_scenario, s, workers=WORKERS, tag=s.name)
        if ok:
            problems = checks.pooled_invariants(res)
            if s.name == "fig1a":
                problems += checks.ac04_bound(res)
            ops.check(problems)
        if after is not None:
            after(s, res)


def scenario_edges(scenarios) -> int:
    return sum(s.m * n * k for s in scenarios for n, k in zip(s.n_list, s.seeds_for_n))


# ---------------------------------------------------------------------------
# analyze: `panet metrics` on two edge lists made in set-up.


def analyze_files(workdir: Path) -> list[tuple[str, Path, Path]]:
    return [(tag, workdir / f"{tag}.edges", workdir / f"{tag}.csv") for tag, _, _ in ANALYZE_GRAPHS]


def analyze_setup(seed: int, workdir: Path, tracer) -> None:
    """Grow both inputs and export their edge lists."""
    workdir.mkdir(parents=True, exist_ok=True)
    for i, (tag, A, D) in enumerate(ANALYZE_GRAPHS):
        gp = derive_generator_params(ANALYZE_M, A, D)
        with tracer.span("graphgen.generate", tag):
            g = generate(gp, ANALYZE_N, child_seed(seed, i))
        with tracer.span("graphgen.export_edge_list", tag):
            export_edge_list(g, str(workdir / f"{tag}.edges"))
        del g


def analyze_reference(workdir: Path) -> None:
    refs = {tag: checks.triangle_reference(edges) for tag, edges, _ in analyze_files(workdir)}
    (workdir / "reference.json").write_text(json.dumps(refs))


def load_reference(workdir: Path) -> dict:
    refs = json.loads((workdir / "reference.json").read_text())
    for ref in refs.values():
        ref["C_of_d"] = {int(d): v for d, v in ref["C_of_d"].items()}
    return refs


def analyze_pass(workdir: Path, refs: dict, ops: Ops) -> None:
    for tag, edges, out_csv in analyze_files(workdir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ok, rc = ops.call(
                "cli.main", panet.cli.main, ["metrics", "--in", str(edges), "--out", str(out_csv)], tag=tag
            )
        if ok:
            ops.check(checks.cli_metrics_output(rc, buf.getvalue(), out_csv, refs[tag], ANALYZE_M))


# ---------------------------------------------------------------------------
# numerics: oracle and theory, no simulation.


def oracle_cells() -> int:
    """Recurrence cells one integrate_S call updates: steps x (d_max+1)."""
    return (ORACLE["n_end"] - (ORACLE["m"] + 1)) * (ORACLE["d_max"] + 1)


def numerics_pass(ops: Ops) -> None:
    p = make_model_params(ORACLE["m"], ORACLE["A"], ORACLE["D"])
    ok, tab = ops.call(
        "oracle.integrate_S", integrate_S, p, ORACLE["n_end"], ORACLE["d_max"], record_at=ORACLE["record_at"]
    )
    if ok:
        problems = checks.oracle_table(tab, ORACLE["record_at"])
        if not problems:
            problems = checks.ac03_gaps(tab, build_theory_curve(p, np.arange(2, 11)))
        ops.check(problems)
        ok, report = ops.call("oracle.compare_closed_form", compare_closed_form, tab)
        if ok:
            ops.check(checks.compare_report(report))

    pc = make_model_params(CURVE["m"], CURVE["A"], CURVE["D"])
    ok, curve = ops.call(
        "theory.build_theory_curve", build_theory_curve, pc, np.arange(CURVE["d_lo"], CURVE["d_hi"] + 1)
    )
    if ok:
        ops.check(checks.theory_curve_sums(curve, pc.m))

    # AC02's parameters: M(d) against its log-corrected asymptote and
    # dnn(d) against its ln d asymptote, at d = 1e6 and 1e7.
    pa = make_model_params(AC02["m"], AC02["A"], AC02["D"])
    m, A, B = pa.m, pa.A, pa.B
    m_target = (A * m + B) / A**2 * math.exp(gammaln(m + (B + 1) / A) - gammaln(m + B / A))
    for d in AC02["d"]:
        ok, M = ops.call("theory.M_exact", M_exact, pa, d, tag=f"d{d:.0e}")
        if ok:
            ops.check(checks.ratio_within(f"M({d})", M * d ** (1 / A) / math.log(d), m_target, 0.03))
        ok, dnn = ops.call("theory.dnn_theory", dnn_theory, pa, d, tag=f"d{d:.0e}")
        if ok:
            ops.check(checks.ratio_within(f"dnn({d})", dnn, dnn_asymptotic(pa, d), 0.05))

    for A in TABLES["A"]:
        pt = make_model_params(TABLES["m"], A, TABLES["D"])
        ok, rows = ops.call(
            "theory.theory_tables", theory_tables, pt, TABLES["d_max"], n_list=TABLES["n_list"], tag=f"A{A:g}"
        )
        if ok:
            expected = (TABLES["d_max"] - pt.m + 1) * len(TABLES["n_list"])
            ops.check(checks.theory_rows(rows, expected))


# ---------------------------------------------------------------------------
# Workload name -> (pass, work per pass).

WORK_UNIT = {
    "presets": "edges generated",
    "sweep": "edges generated",
    "analyze": "edges analysed",
    "numerics": "recurrence cells",
}


def passes(seed: int, workdir: Path, refs: dict | None) -> dict:
    """Each workload's pass and the work units it does (see WORK_UNIT).
    A pass takes an Ops; the presets and sweep passes also take ``after``
    (see scenario_pass).  ``refs`` is the analyze triangle reference, read
    with load_reference; only the analyze pass uses it."""
    presets, sweep = preset_scenarios(seed), sweep_scenarios(seed)
    return {
        "presets": (functools.partial(scenario_pass, presets), scenario_edges(presets)),
        "sweep": (functools.partial(scenario_pass, sweep), scenario_edges(sweep)),
        "analyze": (functools.partial(analyze_pass, workdir, refs), ANALYZE_EDGES),
        "numerics": (numerics_pass, oracle_cells()),
    }
