"""Traced run: the same inputs once more, with spans around every call
into graphgen, metrics, theory, oracle, experiments and cli, reduced to
the per-layer metrics.

run_scenario is opaque from outside (its jobs run in worker processes),
so its jobs are replayed serially through the public calls with the same
seeds: child_seed, derive_generator_params, generate, degree_profile.
The replay must pool to exactly what run_scenario returned.  The layers
that ``panet metrics`` calls are timed by swapping span-recording
wrappers into ``panet.cli`` for the length of the traced pass.
"""

from __future__ import annotations

import statistics
import tracemalloc
from pathlib import Path

import panet.cli
from panet import (
    ScenarioResult,
    child_seed,
    degree_profile,
    derive_generator_params,
    generate,
    import_edge_list,
)

import checks
from tracing import NullTracer, Tracer
from workloads import (
    ANALYZE_GRAPHS,
    ANALYZE_M,
    ANALYZE_N,
    WORKERS,
    Ops,
    analyze_files,
    analyze_reference,
    analyze_setup,
    load_reference,
    oracle_cells,
    passes,
    preset_scenarios,
    regime,
)

CLI_LAYERS = {
    "import_edge_list": "graphgen.import_edge_list",
    "degree_profile": "metrics.degree_profile",
    "clustering": "metrics.clustering",
    "pearson_assortativity": "metrics.pearson_assortativity",
}

# name -> unit of every per-layer metric, in report order
UNITS = {
    "graphgen.generate.s.cpos": "s",
    "graphgen.generate.s.czero": "s",
    "graphgen.generate.s.cneg": "s",
    "graphgen.generate.s.n1000": "s",
    "graphgen.generate.alloc_bytes_per_edge": "B/edge",
    "graphgen.import_edge_list.s.sub": "s",
    "graphgen.import_edge_list.s.super": "s",
    "graphgen.import_edge_list.alloc_bytes_per_edge": "B/edge",
    "graphgen.export_edge_list.s": "s",
    "metrics.clustering.s.sub": "s",
    "metrics.clustering.s.super": "s",
    "metrics.clustering.triangles.sub": "count",
    "metrics.clustering.triangles.super": "count",
    "metrics.clustering.simple_edges.sub": "count",
    "metrics.clustering.simple_edges.super": "count",
    "metrics.degree_profile.s": "s",
    "metrics.degree_profile.s.n1000": "s",
    "metrics.pearson_assortativity.s": "s",
    "experiments.jobs.presets": "count",
    "experiments.jobs.sweep": "count",
    "experiments.parallel_efficiency.presets": "ratio",
    "experiments.parallel_efficiency.sweep": "ratio",
    "experiments.overhead_s_per_job.sweep": "s",
    "cli.metrics.overhead_s": "s",
    "theory.build_theory_curve.s": "s",
    "theory.M_exact.s": "s",
    "theory.theory_tables.s": "s",
    "oracle.integrate_S.s": "s",
    "oracle.integrate_S.cells_per_s": "1/s",
    "oracle.compare_closed_form.s": "s",
    "trace.overhead_frac": "ratio",
}


def serial_replay(s, tracer: Tracer) -> ScenarioResult:
    """run_scenario's jobs, one after another, pooled the same way."""
    res = ScenarioResult(scenario=s)
    for n, n_seeds in zip(s.n_list, s.seeds_for_n):
        pn = res.pooled_N.setdefault(n, {})
        ps = res.pooled_S.setdefault(n, {})
        for i in range(n_seeds):
            with tracer.span("experiments.job"):
                with tracer.span("graphgen.child_seed"):
                    seed = child_seed(s.root_seed, n, i)
                with tracer.span("params.derive_generator_params"):
                    gp = derive_generator_params(s.m, s.A, s.D)
                tag = f"{regime(gp)}.n{n}"
                with tracer.span("graphgen.generate", tag):
                    g = generate(gp, n, seed)
                with tracer.span("metrics.degree_profile", tag):
                    prof = degree_profile(g)
            del g
            for d, c in prof.N.items():
                pn[d] = pn.get(d, 0) + c
                ps[d] = ps.get(d, 0) + prof.S[d]
            res.W_per_seed.setdefault(n, []).append(prof.W)
    return res


def alloc_bytes_per_edge(fn, edges: int) -> float:
    """tracemalloc peak of one call, per edge (never inside a timed span)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak / edges


def _median_where(tracer: Tracer, name: str, pass_id: str, tag_suffix: str) -> float:
    vals = [
        s["end"] - s["start"]
        for s in tracer.select(name, pass_id=pass_id)
        if s["tag"] is not None and s["tag"].endswith(tag_suffix)
    ]
    if not vals:
        raise LookupError(f"no span {name!r} tagged *{tag_suffix} in pass {pass_id!r}")
    return statistics.median(vals)


def run_suite(workload: str, seed: int, workdir: Path) -> dict:
    """Run every workload's pass traced, then one untraced pass of
    ``workload`` for the tracing overhead; return the per-layer metrics
    with attempt and failure counts."""
    tracer = Tracer()
    total = Ops(tracer)  # attempts and failures across the suite

    def absorb(ops: Ops) -> None:
        total.attempted += ops.attempted
        total.failed += ops.failed
        total.problems += ops.problems

    def replay(s, res, w: str, ops: Ops) -> None:
        tracer.pass_id = f"{w}.serial"
        serial = serial_replay(s, tracer)
        tracer.pass_id = w
        ops.attempted += 1
        ops.check(["run_scenario failed"] if res is None else checks.same_pooled(res, serial))

    tracer.pass_id = "analyze.setup"
    analyze_setup(seed, workdir, tracer)
    analyze_reference(workdir)
    refs = load_reference(workdir)
    runs = passes(seed, workdir, refs)

    # The requested workload's traced pass goes last, straight before its
    # untraced pass, so that both run warm and side by side.
    traced_s = {}
    for w in sorted(runs, key=lambda w: w == workload):
        tracer.pass_id = w
        ops = Ops(tracer)
        run_pass = runs[w][0]
        if w == "analyze":
            with tracer.patched(panet.cli, CLI_LAYERS):
                run_pass(ops)
            for tag, _, _ in ANALYZE_GRAPHS:
                ops.attempted += 1
                cp = tracer.captured.get(("metrics.clustering", tag))
                ops.check(["traced clustering call missing"] if cp is None else checks.clustering_vs_reference(cp, refs[tag]))
        elif w in ("presets", "sweep"):
            # Replay each scenario right after its run_scenario call, so the
            # serial and parallel timings see the same machine conditions.
            run_pass(ops, after=lambda s, res: replay(s, res, w, ops))
        else:
            run_pass(ops)
        traced_s[w] = ops.seconds
        absorb(ops)
    tracer.captured.clear()
    plain = Ops(NullTracer())
    runs[workload][0](plain)
    absorb(plain)

    tracer.pass_id = "alloc"
    fig1a = preset_scenarios(seed)[0]
    gen_alloc = alloc_bytes_per_edge(
        lambda: generate(derive_generator_params(fig1a.m, fig1a.A, fig1a.D), fig1a.n_list[0], child_seed(seed, 0)),
        fig1a.m * fig1a.n_list[0],
    )
    _, sub_edges, _ = analyze_files(workdir)[0]
    imp_alloc = alloc_bytes_per_edge(lambda: import_edge_list(str(sub_edges)), ANALYZE_M * ANALYZE_N)

    metrics = layer_metrics(tracer, refs, gen_alloc, imp_alloc)
    metrics["trace.overhead_frac"] = traced_s[workload] / plain.seconds - 1.0
    tracer.dump(workdir.parent / f"trace-{workload}-{seed}.jsonl")
    return {
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items()},
        "attempted": total.attempted,
        "failed": total.failed,
        "problems": total.problems[:20],
    }


def layer_metrics(tracer: Tracer, refs, gen_alloc: float, imp_alloc: float) -> dict:
    t = tracer
    out = {}
    for rg in ("cpos", "czero", "cneg"):
        out[f"graphgen.generate.s.{rg}"] = _median_where(t, "graphgen.generate", "presets.serial", f"{rg}.n100000")
    out["graphgen.generate.s.n1000"] = _median_where(t, "graphgen.generate", "sweep.serial", ".n1000")
    out["graphgen.generate.alloc_bytes_per_edge"] = gen_alloc
    out["graphgen.import_edge_list.alloc_bytes_per_edge"] = imp_alloc
    out["graphgen.export_edge_list.s"] = t.median("graphgen.export_edge_list", pass_id="analyze.setup")
    for tag, _, _ in ANALYZE_GRAPHS:
        out[f"graphgen.import_edge_list.s.{tag}"] = t.median("graphgen.import_edge_list", tag, "analyze")
        out[f"metrics.clustering.s.{tag}"] = t.median("metrics.clustering", tag, "analyze")
        # Reference counts of the input (checks.triangle_reference), not
        # figures of panet; the traced call's C1 must match them (see above).
        out[f"metrics.clustering.triangles.{tag}"] = refs[tag]["triangles"]
        out[f"metrics.clustering.simple_edges.{tag}"] = refs[tag]["simple_edges"]
    out["metrics.degree_profile.s"] = _median_where(t, "metrics.degree_profile", "presets.serial", ".n100000")
    out["metrics.degree_profile.s.n1000"] = _median_where(t, "metrics.degree_profile", "sweep.serial", ".n1000")
    out["metrics.pearson_assortativity.s"] = t.median("metrics.pearson_assortativity", pass_id="analyze")

    for w in ("presets", "sweep"):
        jobs = t.durations("experiments.job", pass_id=f"{w}.serial")
        wall = t.total("experiments.run_scenario", pass_id=w)
        out[f"experiments.jobs.{w}"] = len(jobs)
        out[f"experiments.parallel_efficiency.{w}"] = sum(jobs) / (WORKERS * wall)
        if w == "sweep":
            out["experiments.overhead_s_per_job.sweep"] = (WORKERS * wall - sum(jobs)) / len(jobs)

    mains = t.select("cli.main", pass_id="analyze")
    out["cli.metrics.overhead_s"] = statistics.median(t.self_time(s) for s in mains)

    out["theory.build_theory_curve.s"] = t.total("theory.build_theory_curve", pass_id="numerics")
    out["theory.M_exact.s"] = t.total("theory.M_exact", pass_id="numerics")
    out["theory.theory_tables.s"] = t.total("theory.theory_tables", pass_id="numerics")
    integrate = t.total("oracle.integrate_S", pass_id="numerics")
    out["oracle.integrate_S.s"] = integrate
    out["oracle.integrate_S.cells_per_s"] = oracle_cells() / integrate
    out["oracle.compare_closed_form.s"] = t.total("oracle.compare_closed_form", pass_id="numerics")
    return out
