"""Scenario runner: multi-seed generation, pooled statistics, theory
overlays (theory.dnn_overlay, the one theory name used here) and
regression fits, reproducing the reference figures at desk scale (n = 1e5
by default instead of 1e6; pass full=True to presets for the original
sizes).  A theory_only scenario is not run here: its table is
theory.theory_tables.

Determinism: every (n, seed-index) run derives its generator seed from the
scenario root seed, and aggregation folds results in (n, seed-index) order,
so output bytes do not depend on worker scheduling.  How jobs are cut
into chunks and spread over the CPUs is parallel's: parallel.runs and the
warm pool behind parallel.process_map.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import parallel
from .graphgen import child_seed, generate
from .metrics import degree_profile, dnn_empirical
from .params import ModelParams, derive_generator_params, make_model_params
from .theory import dnn_overlay

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "fit_power_exponent",
    "fit_hypothesis_constant",
    "PRESETS",
    "make_preset",
    "check_preset",
]

OUTPUTS = ("dnn_vs_d", "dnn_vs_n", "err_vs_n", "dnn_vs_D", "theory_only")

# Scenario key -> (JSON types of the value, exact types of it or of each of
# its list items, description); type() excludes booleans.
_JSON_TYPES = {
    "name": (str, (str,), "a string"),
    "m": (int, (int,), "an integer"),
    "A": ((int, float), (int, float), "a number"),
    "D": ((int, float), (int, float), "a number"),
    "n_list": (list, (int,), "a list of integers"),
    "seeds": ((int, list), (int,), "an integer or a list of integers"),
    "d0": ((int, type(None)), (int, type(None)), "an integer or null"),
    "outputs": (list, (str,), "a list of strings"),
    "support_threshold": (int, (int,), "an integer"),
    "root_seed": (int, (int,), "an integer"),
}


@dataclass(frozen=True)
class Scenario:
    """One experiment: fixed model parameters, a list of sizes, seed count."""

    name: str
    m: int
    A: float
    D: float
    n_list: tuple[int, ...]
    seeds: int | tuple[int, ...] = 10  # one count, or one per entry of n_list
    d0: int | None = None  # probe degree, default m+1
    outputs: tuple[str, ...] = ("dnn_vs_d",)
    support_threshold: int = 10
    root_seed: int = 20240901

    def __post_init__(self):
        # name prefixes every output file, so it must stay one path component.
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ValueError(
                f"scenario name {self.name!r} must be one path component: "
                "not empty, . or .., no / or \\"
            )
        if not self.n_list:
            raise ValueError("n_list must name at least one size")
        for i, n in enumerate(self.n_list):
            if n in self.n_list[:i]:  # its seeds would be pooled twice
                raise ValueError(f"size {n} appears twice in n_list")
        if self.probe_degree <= self.m:
            raise ValueError(f"probe degree must exceed m = {self.m}")
        seeds = self.seeds_for_n
        if any(s < 1 for s in seeds):
            raise ValueError("seeds must be >= 1")
        if any(n < self.m + 1 for n in self.n_list):
            raise ValueError(f"all sizes must be >= seed size m+1 = {self.m + 1}")
        if self.root_seed < 0:
            raise ValueError(f"root_seed must be >= 0, got {self.root_seed}")
        for tag in self.outputs:
            if tag not in OUTPUTS:
                raise ValueError(f"unknown outputs tag {tag!r} (known: {', '.join(OUTPUTS)})")
        self.model  # m, A and D must make a ModelParams
        if "theory_only" not in self.outputs:  # a simulated one also needs a generator
            derive_generator_params(self.m, self.A, self.D)

    @property
    def probe_degree(self) -> int:
        return self.d0 if self.d0 is not None else self.m + 1

    @property
    def seeds_for_n(self) -> tuple[int, ...]:
        if isinstance(self.seeds, int):
            return tuple([self.seeds] * len(self.n_list))
        if len(self.seeds) != len(self.n_list):
            raise ValueError("per-size seed list must match n_list length")
        return tuple(self.seeds)

    @property
    def model(self) -> ModelParams:
        return make_model_params(self.m, self.A, self.D)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a scenario must be a JSON object")
        known = {f.name: f for f in fields(Scenario)}
        for key, value in d.items():
            if key not in known:
                raise ValueError(f"unknown scenario key {key!r}")
            kinds, item, what = _JSON_TYPES[key]
            items = value if isinstance(value, list) else [value]
            if not isinstance(value, kinds) or any(type(x) not in item for x in items):
                raise ValueError(f"scenario key {key!r} must be {what}, got {value!r}")
        for key, f in known.items():
            if key not in d and f.default is MISSING:
                raise ValueError(f"scenario key {key!r} is missing")
        d["n_list"] = tuple(d["n_list"])
        if isinstance(d.get("seeds"), list):
            d["seeds"] = tuple(d["seeds"])
        d["outputs"] = tuple(d.get("outputs", ("dnn_vs_d",)))
        return Scenario(**d)


@dataclass
class ScenarioResult:
    scenario: Scenario
    # per size n: pooled degree histogram / neighbor-degree sums over seeds
    pooled_N: dict[int, dict[int, int]] = field(default_factory=dict)
    pooled_S: dict[int, dict[int, int]] = field(default_factory=dict)
    # per size n: per-seed probe values and W_n
    probe_per_seed: dict[int, list[float]] = field(default_factory=dict)
    W_per_seed: dict[int, list[int]] = field(default_factory=dict)
    fitted_constant: float | None = None

    def dnn_pooled(self, n: int, d: int) -> float:
        N = self.pooled_N[n].get(d, 0)
        if N == 0:
            return math.nan
        return self.pooled_S[n][d] / (N * d)

    def populated_degrees(self, n: int, threshold: int | None = None) -> list[int]:
        thr = self.scenario.support_threshold if threshold is None else threshold
        return sorted(d for d, c in self.pooled_N[n].items() if c >= thr)

    def probe_mean(self, n: int) -> float:
        vals = self.probe_per_seed[n]
        return float(np.mean(vals))

    def probe_stderr(self, n: int) -> float:
        vals = self.probe_per_seed[n]
        if len(vals) < 2:
            return math.nan
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def _run_one(args) -> tuple[int, dict[int, int], dict[int, int], int, float]:
    m, A, D, n, seed, d0 = args
    gp = derive_generator_params(m, A, D)
    g = generate(gp, n, seed)
    prof = degree_profile(g)
    return n, prof.N, prof.S, prof.W, dnn_empirical(prof, d0)


def _run_chunk(chunk) -> list[tuple[int, dict[int, int], dict[int, int], int, float]]:
    return [_run_one(args) for args in chunk]


# A pool chunk holds consecutive tasks of at most this many edges (m*n
# per task), or one bigger task: one chunk per big graph, so equal jobs
# split evenly over the workers, and many small graphs per chunk, so
# dispatch costs stay small.
_CHUNK_EDGES = 1 << 17


def run_scenario(s: Scenario, workers: int | None = None) -> ScenarioResult:
    """Generate seeds x sizes graphs, pool per-degree statistics, keep
    per-seed probe values for error bars.  workers=None: one per CPU
    (parallel.cpu_count), at most one per pool chunk (see _CHUNK_EDGES).
    Raises ValueError if a graph has no vertex of the probe degree."""
    d0 = s.probe_degree
    tasks = []
    for n, n_seeds in zip(s.n_list, s.seeds_for_n):
        for i in range(n_seeds):
            tasks.append((s.m, s.A, s.D, n, child_seed(s.root_seed, n, i), d0))
    edges = np.cumsum([0] + [task[0] * task[3] for task in tasks])
    chunks = [tasks[lo:hi] for lo, hi in parallel.runs(edges, _CHUNK_EDGES)]
    raws = [raw for chunk in parallel.process_map(_run_chunk, chunks, workers) for raw in chunk]

    res = ScenarioResult(scenario=s)
    for n, N, S, W, probe in raws:  # task order == (n, seed) order
        pn = res.pooled_N.setdefault(n, {})
        ps = res.pooled_S.setdefault(n, {})
        for d, c in N.items():
            pn[d] = pn.get(d, 0) + c
            ps[d] = ps.get(d, 0) + S[d]
        res.W_per_seed.setdefault(n, []).append(W)
        res.probe_per_seed.setdefault(n, []).append(probe)
    for n, probes in res.probe_per_seed.items():
        missing = sum(math.isnan(x) for x in probes)
        if missing:
            raise ValueError(
                f"probe degree d0 = {d0} is missing from {missing} of {len(probes)} graphs at n = {n}"
            )

    if s.A >= 0.5:
        res.fitted_constant = fit_hypothesis_constant(res)
    return res


def fit_power_exponent(points) -> tuple[float, float, float]:
    """Least-squares line through (ln x, ln y): returns (slope, intercept,
    slope standard error).  All inputs must be positive."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("power-law fit needs positive x and y")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.ptp(lx) == 0:
        raise ValueError("degenerate x-range")
    mx, my = float(lx.mean()), float(ly.mean())
    sxx = float(np.dot(lx - mx, lx - mx))
    slope = float(np.dot(lx - mx, ly - my) / sxx)
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    stderr = math.sqrt(float(np.dot(resid, resid)) / max(len(pts) - 2, 1) / sxx)
    return slope, intercept, stderr


def fit_hypothesis_constant(res: ScenarioResult) -> float:
    """Least-squares scale factor of the hypothesis predictor (A >= 1/2)
    against the pooled empirical curve over every populated (d, n) cell.
    One constant serves both the d-sweep and the n-sweep outputs."""
    p = res.scenario.model
    if p.A < 0.5:
        raise ValueError(f"hypothesis fit needs A >= 1/2, got A={p.A}")
    num = den = 0.0
    cells = 0
    for n in res.pooled_N:
        ds = res.populated_degrees(n)
        for d, u in zip(ds, dnn_overlay(p, np.asarray(ds), n, 1.0).tolist()):
            num += u * res.dnn_pooled(n, d)
            den += u * u
        cells += len(ds)
    if cells == 0:
        raise ValueError("no populated (d, n) cells to fit")
    return num / den


# ---------------------------------------------------------------------------
# Figure presets, defined only here (desk scale; full=True: reference sizes).

def _sizes(full: bool, *desk: int) -> tuple[int, ...]:
    return tuple(10 * x for x in desk) if full else desk


def make_preset(name: str, full: bool = False, n: int | None = None, seeds: int | None = None):
    """Build the scenario list for a named figure preset.

    Returns a list of Scenario (sweep figures expand into one scenario per
    swept parameter value).  n/seeds override every entry (desk testing).
    """
    base_n = 10**6 if full else 10**5
    if n is not None:
        base_n = n

    def sc(tag, m, A, D, n_list, seeds_default, **kw):
        return Scenario(
            name=f"{name}{tag}",
            m=m,
            A=A,
            D=D,
            n_list=tuple(n_list),
            seeds=seeds if seeds is not None else seeds_default,
            **kw,
        )

    if name == "fig1a":
        return [sc("", 2, 0.2, 0.3, [base_n], 10)]
    if name == "fig1b":
        return [sc("", 2, 0.4, 0.3, [base_n], 10)]
    if name == "fig2":
        ns = _sizes(full, 10**3, 10**4, 10**5) if n is None else (base_n,)
        return [
            sc(f"_A{A:g}", 2, A, 0.2, ns, 10, outputs=("err_vs_n",))
            for A in (0.2, 0.3, 1 / 3, 0.4)
        ]
    if name == "fig3":
        return [sc("", 2, 0.2, 0.3, [base_n], 1, outputs=("theory_only",))]
    if name == "fig4":
        return [
            sc(f"_D{D:g}", 2, 0.25, D, [base_n], 10, outputs=("dnn_vs_D",))
            for D in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)
        ]
    if name == "fig5a":
        return [sc("", 2, 0.5, 0.2, [base_n], 10)]
    if name == "fig5b":
        return [sc("", 2, 0.6, 0.2, [base_n], 10)]
    if name in ("fig6a", "fig6b"):
        A = 0.5 if name == "fig6a" else 0.6
        if n is not None:
            return [sc("", 2, A, 0.2, (base_n,), 10, outputs=("dnn_vs_n",))]
        ns = _sizes(full, 10**4, 2 * 10**4, 4 * 10**4, 7 * 10**4, 10**5)
        # fig6a's ln-n correlation needs AC11's per-size schedule to clear
        # its 0.99 gate at the default root seed by more than luck.
        schedule = (150, 100, 60, 50, 45) if name == "fig6a" else 10
        return [sc("", 2, A, 0.2, ns, schedule, outputs=("dnn_vs_n",))]
    raise ValueError(f"unknown preset {name!r}")


PRESETS = (
    "fig1a",
    "fig1b",
    "fig2",
    "fig3",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
)


# ---------------------------------------------------------------------------
# Preset --check rules (the invariants each figure is meant to exhibit).


def check_preset(preset: str, results: list[ScenarioResult]) -> list[str]:
    """Failure messages of a preset's figure invariants (empty = pass).

    fig1a also doubles as the CCDF sanity figure; fig3 is theory-only and
    has no rule.  A rule that cannot be computed (too few sizes, degrees
    or points, as at a small --n) fails with one message saying why.
    """
    try:
        return _rule_failures(preset, results)
    except ValueError as exc:
        return [f"cannot compute the check: {exc}"]


def _rule_failures(preset: str, results: list[ScenarioResult]) -> list[str]:
    fails: list[str] = []

    def expect(ok: bool, msg: str) -> None:
        if not ok:
            fails.append(msg)

    if preset == "fig1a":
        res = results[0]
        n = res.scenario.n_list[-1]
        ds = res.populated_degrees(n, threshold=500)
        if not ds:
            raise ValueError(f"no degree with pooled N >= 500 at n={n}")
        theory = dnn_overlay(res.scenario.model, np.asarray(ds), n, 1.0)
        for d, t in zip(ds, theory):
            rel = abs(res.dnn_pooled(n, d) / t - 1.0)
            expect(rel <= 0.10, f"d={d}: dnn off theory by {rel:.1%} (> 10%)")
    elif preset == "fig1b":
        res = results[0]
        n = res.scenario.n_list[-1]
        ds = res.populated_degrees(n)
        theory = dnn_overlay(res.scenario.model, np.asarray(ds), n, 1.0)
        below = sum(1 for d, t in zip(ds, theory) if res.dnn_pooled(n, d) <= t)
        frac = below / len(ds)
        expect(frac >= 0.90, f"only {frac:.0%} of bins below theory (< 90%)")
    elif preset == "fig2":
        final_errs = {}
        for res in results:
            s = res.scenario
            t = dnn_overlay(s.model, s.probe_degree, s.n_list[-1], 1.0)
            errs = [abs(res.probe_mean(n) - t) for n in s.n_list]
            expect(
                all(a > b for a, b in zip(errs, errs[1:])),
                f"{s.name}: err(m+1) not strictly decreasing: {errs}",
            )
            final_errs[s.A] = errs[-1]
        if 0.2 in final_errs and 0.4 in final_errs:
            expect(
                final_errs[0.4] > final_errs[0.2],
                "A=0.4 error not above A=0.2 error at the largest n",
            )
    elif preset == "fig4":
        n = results[0].scenario.n_list[-1]
        pts = [(res.scenario.D, res.probe_mean(n)) for res in results]
        vals = [y for _, y in pts]
        rel_var = (max(vals) - min(vals)) / min(vals)
        expect(rel_var <= 0.15, f"dnn(d0) varies {rel_var:.1%} across D (> 15%)")
        slope = np.polyfit([x for x, _ in pts], vals, 1)[0]
        expect(abs(slope) <= 1.0, f"dnn(d0)-vs-D slope {slope:.3f} not small")
    elif preset == "fig5a":
        res = results[0]
        n = res.scenario.n_list[-1]
        pts = [(d, res.dnn_pooled(n, d)) for d in res.populated_degrees(n) if 15 <= d <= 150]
        slope, _, _ = fit_power_exponent(pts)
        expect(abs(slope) <= 0.08, f"critical d-slope {slope:.3f} (|.| > 0.08)")
    elif preset == "fig5b":
        res = results[0]
        s = res.scenario
        n = s.n_list[-1]
        pts = [(d, res.dnn_pooled(n, d)) for d in res.populated_degrees(n) if 4 <= d <= 100]
        slope, _, _ = fit_power_exponent(pts)
        target = 1.0 / s.A - 2.0
        expect(
            abs(slope - target) <= 0.15,
            f"supercritical d-slope {slope:.3f} vs {target:.3f} +/- 0.15",
        )
    elif preset == "fig6a":
        res = results[0]
        s = res.scenario
        if len(s.n_list) < 3:
            raise ValueError(f"corr(dnn, ln n) needs at least 3 sizes, got {len(s.n_list)}")
        xs = np.log(np.asarray(s.n_list, dtype=float))
        ys = np.array([res.probe_mean(n) for n in s.n_list])
        corr = float(np.corrcoef(xs, ys)[0, 1])
        expect(corr >= 0.99, f"corr(dnn, ln n) = {corr:.4f} (< 0.99)")
    elif preset == "fig6b":
        res = results[0]
        s = res.scenario
        pts = [(n, res.probe_mean(n)) for n in s.n_list]
        slope, _, _ = fit_power_exponent(pts)
        target = 2.0 * s.A - 1.0
        expect(
            abs(slope - target) <= 0.1,
            f"supercritical n-slope {slope:.3f} vs {target:.3f} +/- 0.1",
        )
    return fails
