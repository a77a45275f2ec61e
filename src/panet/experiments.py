"""Scenario runner: multi-seed generation, pooled statistics, theory
overlays (theory.dnn_overlay, the finite-n d_nn; rules on the n -> oo
closed form read theory.build_theory_curve; nothing is fitted) and
power-law fits, reproducing the reference figures at desk scale (n = 1e5
by default instead of 1e6; full=True: the original sizes).  A theory_only
scenario is not run here: its table is theory.theory_tables.

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
from .params import ModelParams, derive_generator_params, integer, make_model_params, sizes
from .theory import build_theory_curve, dnn_overlay

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "fit_power_exponent",
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
        model = self.model  # m, A and D must make a ModelParams
        # Each field keeps the int its params rule returns: 1.5 is never read as 1.
        one = np.ndim(self.seeds) == 0
        seeds = [integer(k, "seeds", 1) for k in ((self.seeds,) if one else self.seeds)]
        object.__setattr__(self, "m", model.m)
        object.__setattr__(self, "n_list", sizes(self.n_list, model.m))
        object.__setattr__(self, "seeds", seeds[0] if one else tuple(seeds))
        object.__setattr__(self, "root_seed", integer(self.root_seed, "root_seed", 0))
        if self.d0 is not None:
            object.__setattr__(self, "d0", integer(self.d0, "probe degree d0", model.m + 1))
        if not one and len(seeds) != len(self.n_list):
            raise ValueError("per-size seed list must match n_list length")
        for tag in self.outputs:
            if tag not in OUTPUTS:
                raise ValueError(f"unknown outputs tag {tag!r} (known: {', '.join(OUTPUTS)})")
        if "theory_only" not in self.outputs:  # a simulated one also needs a generator
            derive_generator_params(self.m, self.A, self.D)

    @property
    def probe_degree(self) -> int:
        return self.d0 if self.d0 is not None else self.m + 1

    @property
    def seeds_for_n(self) -> tuple[int, ...]:
        return (self.seeds,) * len(self.n_list) if isinstance(self.seeds, int) else self.seeds

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
    Raises ValueError if a graph has no vertex of the probe degree, or a
    size has no degree with pooled N >= the support threshold."""
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
        if not res.populated_degrees(n):
            raise ValueError(f"no degree has pooled N >= {s.support_threshold} at n = {n}")
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


# ---------------------------------------------------------------------------
# Figure presets, defined only here (desk scale; full=True: reference sizes).
# Each entry holds the (name suffix, A, D) of each of its scenarios, all at
# m = 2; its desk sizes, ten times each under full; its seeds, a count or
# one per size; and its output tags.

_FIG6_SIZES = (10**4, 2 * 10**4, 4 * 10**4, 7 * 10**4, 10**5)
_PRESET_TABLE = {
    "fig1a": ((("", 0.2, 0.3),), (10**5,), 10, ("dnn_vs_d",)),
    "fig1b": ((("", 0.4, 0.3),), (10**5,), 10, ("dnn_vs_d",)),
    "fig2": (
        tuple((f"_A{A:g}", A, 0.2) for A in (0.2, 0.3, 1 / 3, 0.4)),
        (10**3, 10**4, 10**5),
        10,
        ("err_vs_n",),
    ),
    "fig3": ((("", 0.2, 0.3),), (10**5,), 1, ("theory_only",)),
    "fig4": (
        tuple((f"_D{D:g}", 0.25, D) for D in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)),
        (10**5,),
        10,
        ("dnn_vs_D",),
    ),
    "fig5a": ((("", 0.5, 0.2),), (10**5,), 10, ("dnn_vs_d",)),
    "fig5b": ((("", 0.6, 0.2),), (10**5,), 10, ("dnn_vs_d",)),
    # fig6a's ln-n correlation needs AC11's per-size schedule to clear
    # its 0.99 gate at the default root seed by more than luck.
    "fig6a": ((("", 0.5, 0.2),), _FIG6_SIZES, (150, 100, 60, 50, 45), ("dnn_vs_n",)),
    "fig6b": ((("", 0.6, 0.2),), _FIG6_SIZES, 10, ("dnn_vs_n",)),
}
PRESETS = tuple(_PRESET_TABLE)


def make_preset(name: str, full: bool = False, n: int | None = None, seeds: int | None = None):
    """Build the scenario list for a named figure preset.

    Returns a list of Scenario (sweep figures expand into one scenario per
    swept parameter value).  n/seeds override every entry (desk testing);
    under n a per-size seed schedule gives way to 10 seeds.
    """
    if name not in _PRESET_TABLE:
        raise ValueError(f"unknown preset {name!r}")
    scenarios, desk, count, outputs = _PRESET_TABLE[name]
    n_list = (n,) if n is not None else tuple(10 * x for x in desk) if full else desk
    if seeds is None:
        seeds = 10 if n is not None and not isinstance(count, int) else count
    return [
        Scenario(name=name + suffix, m=2, A=A, D=D, n_list=n_list, seeds=seeds, outputs=outputs)
        for suffix, A, D in scenarios
    ]


# ---------------------------------------------------------------------------
# Preset --check rules (the invariants each figure is meant to exhibit).


def check_preset(preset: str, results: list[ScenarioResult]) -> list[str]:
    """Failure messages of a preset's figure invariants (empty = pass).

    fig1a also doubles as the CCDF sanity figure; fig3 is theory-only and
    has no rule.  A rule that cannot be computed (too few sizes, degrees
    or points, as at a small --n) fails with one message saying why.
    """
    try:
        return [msg for holds, msg in _invariants(preset, results) if not holds]
    except ValueError as exc:
        return [f"cannot compute the check: {exc}"]


def _power_slope(pts, target: float, tol: float, msg: str) -> tuple[bool, str]:
    """(holds, message) of the power-law slope of pts lying within tol of
    target; msg formats {slope} and {target}."""
    slope = fit_power_exponent(pts)[0]
    return abs(slope - target) <= tol, msg.format(slope=slope, target=target)


def _invariants(preset: str, results: list[ScenarioResult]):
    """(holds, message) of each invariant of the preset's figure, read from
    the first result's largest size unless the rule sweeps results or sizes."""
    if not results:  # a theory-only preset (fig3): nothing simulated, no rule
        return
    res = results[0]
    s = res.scenario
    n = s.n_list[-1]
    if preset == "fig1a":
        ds = res.populated_degrees(n, threshold=500)
        if not ds:
            raise ValueError(f"no degree with pooled N >= 500 at n={n}")
        for d, t in zip(ds, build_theory_curve(s.model, ds).dnn_exact):
            rel = abs(res.dnn_pooled(n, d) / t - 1.0)
            yield rel <= 0.10, f"d={d}: dnn off theory by {rel:.1%} (> 10%)"
    elif preset == "fig1b":
        ds = res.populated_degrees(n)
        theory = build_theory_curve(s.model, ds).dnn_exact
        frac = sum(1 for d, t in zip(ds, theory) if res.dnn_pooled(n, d) <= t) / len(ds)
        yield frac >= 0.90, f"only {frac:.0%} of bins below theory (< 90%)"
    elif preset == "fig2":
        final_errs = {}
        for r in results:
            s, d0 = r.scenario, r.scenario.probe_degree
            for k in s.n_list:
                if not r.probe_stderr(k) > 0:
                    raise ValueError(f"{s.name}: a z-score at n={k} needs at least 2 seeds that differ")
                z = (r.probe_mean(k) - dnn_overlay(s.model, d0, k)) / r.probe_stderr(k)
                yield abs(z) <= 4.0, f"{s.name}: d_nn({d0}) at n={k} is {z:+.2f} stderr off the finite-n theory (|z| > 4)"
            final_errs[s.A] = abs(r.probe_mean(s.n_list[-1]) - build_theory_curve(s.model, [d0]).dnn_exact[0])
        if 0.2 in final_errs and 0.4 in final_errs:
            yield final_errs[0.4] > final_errs[0.2], "A=0.4 error not above A=0.2 error at the largest n"
    elif preset == "fig4":
        Ds = [r.scenario.D for r in results]
        vals = [r.probe_mean(n) for r in results]
        rel_var = (max(vals) - min(vals)) / min(vals)
        yield rel_var <= 0.15, f"dnn(d0) varies {rel_var:.1%} across D (> 15%)"
        slope = np.polyfit(Ds, vals, 1)[0]
        yield abs(slope) <= 1.0, f"dnn(d0)-vs-D slope {slope:.3f} not small"
    elif preset == "fig5a":
        pts = [(d, res.dnn_pooled(n, d)) for d in res.populated_degrees(n) if 15 <= d <= 150]
        yield _power_slope(pts, 0.0, 0.08, "critical d-slope {slope:.3f} (|.| > 0.08)")
    elif preset == "fig5b":
        pts = [(d, res.dnn_pooled(n, d)) for d in res.populated_degrees(n) if 4 <= d <= 100]
        msg = "supercritical d-slope {slope:.3f} vs {target:.3f} +/- 0.15"
        yield _power_slope(pts, 1.0 / s.A - 2.0, 0.15, msg)
    elif preset == "fig6a":
        if len(s.n_list) < 3:
            raise ValueError(f"corr(dnn, ln n) needs at least 3 sizes, got {len(s.n_list)}")
        xs = np.log(np.asarray(s.n_list, dtype=float))
        corr = float(np.corrcoef(xs, [res.probe_mean(k) for k in s.n_list])[0, 1])
        yield corr >= 0.99, f"corr(dnn, ln n) = {corr:.4f} (< 0.99)"
    elif preset == "fig6b":
        pts = [(k, res.probe_mean(k)) for k in s.n_list]
        msg = "supercritical n-slope {slope:.3f} vs {target:.3f} +/- 0.1"
        yield _power_slope(pts, 2.0 * s.A - 1.0, 0.1, msg)
