"""Slow, plainly written references that tests compare panet against:
the masked slot decode for draw_slots, per-vertex adjacency traversal for
degree_profile, the set-based triangle loop for clustering, the
edge-endpoint sums for pearson_assortativity, the line
scanner that defines the edge-list format for import_edge_list and the
per-edge writer for export_edge_list.  The paper's d_nn formulas as it
states them, for build_theory_curve and dnn_hypothesis: the boundary
constant X, the critical predictor and the c(m,d) form of the supercritical
one.  Also the helpers only tests use: the scenario file writer, the pooled
degree CCDF and its tail slope, and log-binning."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from panet.experiments import Scenario, ScenarioResult, fit_power_exponent
from panet.graphgen import Multigraph
from panet.metrics import ClusteringProfile, DegreeProfile
from panet.params import GeneratorParams, ModelParams
from panet.theory import Y_term, c_exact

BRUTE_FORCE_CAP = 10_000


def draw_slots_masked(gp: GeneratorParams, t, rng: np.random.Generator) -> np.ndarray:
    """graphgen.draw_slots with the decode written as two masked ufuncs:
    j // m where the slot holds a vertex, ~j where it holds a pointer.
    Same RNG calls, so its result must equal draw_slots exactly."""
    m, k, beta = gp.m, gp.k, gp.beta
    p_ptr = m / (2 * m + gp.c)
    out = rng.integers(np.repeat(m * np.asarray(t, dtype=np.int64), m)).reshape(-1, m)
    x = rng.random(out.shape)
    ptr = x < p_ptr
    if k:
        a = x[:, 0 : 2 * k : 2]
        copy = a < beta
        ptr[:, 0 : 2 * k : 2] = (a >= beta) & (a < beta + p_ptr * (1.0 - beta))
        np.copyto(out[:, 1 : 2 * k : 2], out[:, 0 : 2 * k : 2], where=copy)
        ptr[:, 1 : 2 * k : 2] |= copy
    np.floor_divide(out, m, out=out, where=~ptr)
    np.invert(out, out=out, where=ptr)
    return out


def adjacency(g: Multigraph) -> list[list[int]]:
    """Neighbor lists with multiplicity."""
    adj = [[] for _ in range(g.n)]
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    return adj


def brute_force_profile(g: Multigraph) -> DegreeProfile:
    """Independent recomputation of N, S, W by per-vertex adjacency
    traversal.  Capped at n <= 10^4; the oracle for degree_profile."""
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force profile capped at n <= {BRUTE_FORCE_CAP}")
    adj = adjacency(g)
    degrees = [len(neighbors) for neighbors in adj]
    N: dict[int, int] = {}
    S: dict[int, int] = {}
    W = 0
    for v in range(g.n):
        d = degrees[v]
        N[d] = N.get(d, 0) + 1
        S[d] = S.get(d, 0) + sum(degrees[w] for w in adj[v])
        W += d * d
    return DegreeProfile(N=N, S=S, W=W, n=g.n, num_edges=g.num_edges)


def sum_squares(g: Multigraph) -> int:
    """Sum of squared multigraph degrees."""
    return sum(d * d for d in g.degree_array().tolist())


def sum_in_order(values) -> float:
    """Left-to-right float sum, on every Python: sum() of floats
    compensates its rounding from Python 3.12 on."""
    total = 0.0
    for x in values:
        total += x
    return total


def local_clustering_loop(g: Multigraph) -> tuple[list[int], list[int], list[float]]:
    """Per vertex of the simple projection, by neighbor sets and a
    per-edge loop: triangles, pairs of distinct neighbors and the local
    coefficient (0 below two neighbors)."""
    us, vs = g.u.tolist(), g.v.tolist()
    adj = [set() for _ in range(g.n)]
    for a, b in zip(us, vs):
        adj[a].add(b)
        adj[b].add(a)
    tri = [0] * g.n
    for a, b in {(min(u, v), max(u, v)) for u, v in zip(us, vs)}:
        # Each triangle {a, b, w} with a < b < w is found exactly once here.
        for w in adj[a] & adj[b]:
            if w > b:
                tri[a] += 1
                tri[b] += 1
                tri[w] += 1
    p2 = [len(s) * (len(s) - 1) // 2 for s in adj]
    local = [t / p if p > 0 else 0.0 for t, p in zip(tri, p2)]
    return tri, p2, local


def clustering_loop(g: Multigraph) -> ClusteringProfile:
    """metrics.clustering from local_clustering_loop, summing in vertex
    order, so its results must equal the vectorized ones exactly."""
    tri, p2, local = local_clustering_loop(g)
    C1 = 3.0 * (sum(tri) // 3) / sum(p2) if sum(p2) > 0 else 0.0
    C2 = sum_in_order(local) / g.n if g.n > 0 else 0.0
    by_degree: dict[int, list[float]] = {}
    for v, d in enumerate(g.degree_array().tolist()):
        by_degree.setdefault(d, []).append(local[v])
    C_by_degree = {d: sum_in_order(vals) / len(vals) for d, vals in sorted(by_degree.items())}
    return ClusteringProfile(C1=C1, C2=C2, C_by_degree=C_by_degree)


def pearson_edges(g: Multigraph) -> float:
    """Pearson correlation of the symmetrized edge-endpoint degree pairs
    (x, y), from sums over the edges in exact integers:
    r = (2E sum xy - (sum x)^2) / (2E sum x^2 - (sum x)^2); NaN when the
    degree variance over endpoints is zero (regular graphs)."""
    deg = g.degree_array().tolist()
    pairs = [(deg[a], deg[b]) for a, b in zip(g.u.tolist(), g.v.tolist())]
    two_e = 2 * len(pairs)
    sx = sum(a + b for a, b in pairs)
    sxx = sum(a * a + b * b for a, b in pairs)
    sxy = sum(2 * a * b for a, b in pairs)
    den = two_e * sxx - sx * sx
    return math.nan if den == 0 else (two_e * sxy - sx * sx) / den


def scan_edge_list(source) -> tuple[list[int], list[int]]:
    """The edge-list format, line by line from a text stream: the (u, v)
    id lists, or the ValueError import_edge_list must raise."""
    us: list[int] = []
    vs: list[int] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer id in {line!r}")
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at {u}")
        us.append(u)
        vs.append(v)
    if not us:
        raise ValueError("empty edge list")
    top = max(max(us), max(vs))
    if top >= 2 * len(us):
        raise ValueError(f"vertex id {top} is not below 2E = {2 * len(us)} (twice the edge count)")
    return us, vs


def write_edge_list(g: Multigraph, sink) -> None:
    """One f-string per edge: the bytes export_edge_list must write."""
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        sink.write(f"{a} {b}\n")


def X_const(p: ModelParams) -> float:
    """The paper's boundary constant X of the M(d) closed form, A < 1/2
    (pole at A = 1/2)."""
    m, A, B, D = p.m, p.A, p.B, p.D
    bracket = B - D / m + (A * (m - 1) + 2.0 * B + 1.0) * (A * m + B + 1.0) / (1.0 - 2.0 * A)
    return m / (A * (m - 1) + B + 1.0) * bracket


def dnn_closed_form(p: ModelParams, d: np.ndarray) -> np.ndarray:
    """The paper's n -> oo d_nn(d) = (Ad+B+1)/d (X/(Am+B+1) + sum_{i=m+1}^d
    Y(i)) at the integer degrees d >= m, summed in order from m+1."""
    y = np.cumsum(Y_term(p, np.arange(p.m + 1, d.max() + 1)))
    prefix = np.r_[0.0, y][d - p.m]
    return (p.A * d + p.B + 1.0) / d * (X_const(p) / (p.A * p.m + p.B + 1.0) + prefix)


def dnn_hypothesis_critical(p: ModelParams, d, n: int, C2: float, form: str = "preasymptotic"):
    """The paper's A = 1/2 predictor: C2/(2(m+1)) log(n), times the finite-d
    factor (d+2)/d in its preasymptotic form."""
    base = C2 / (2.0 * (p.m + 1.0)) * np.log(n)
    d = np.asarray(d, dtype=float)
    return np.full_like(d, base) if form == "asymptotic" else base * (d + 2.0) / d


def dnn_hypothesis_supercritical(p: ModelParams, d, n: int, C1: float) -> np.ndarray:
    """The paper's preasymptotic A > 1/2 predictor, with c(m,d) as it states
    it: A C1 (Am+B) n^(2A-1) / ((Ad+B)(A(d+1)+B) d c(m,d))."""
    m, A, B = p.m, p.A, p.B
    d = np.asarray(d, dtype=float)
    return A * C1 * (A * m + B) * n ** (2.0 * A - 1.0) / ((A * d + B) * (A * (d + 1.0) + B) * d * c_exact(p, d))


def scenario_json(s: Scenario) -> str:
    """A scenario file that Scenario.from_json reads back as s."""
    return json.dumps(dataclasses.asdict(s), indent=2, sort_keys=True) + "\n"


def pooled_ccdf(res: ScenarioResult, n: int) -> dict[int, float]:
    """Empirical degree CCDF P(deg >= d) pooled over seeds at size n."""
    N = res.pooled_N[n]
    total = sum(N.values())
    out = {}
    acc = 0
    for d in sorted(N, reverse=True):
        acc += N[d]
        out[d] = acc / total
    return dict(sorted(out.items()))


def ccdf_slope(res: ScenarioResult, n: int, d_min: int = 10, min_count: int = 20):
    """Log-binned power-law fit of the pooled CCDF tail (d >= d_min)."""
    ccdf = pooled_ccdf(res, n)
    total = sum(res.pooled_N[n].values())
    pts = {d: v for d, v in ccdf.items() if d >= d_min and v * total >= min_count}
    binned = log_binned_curve(pts, bins_per_decade=4)
    return fit_power_exponent([(c, v) for c, v, _ in binned])


def log_binned_curve(
    points: dict[int, float], bins_per_decade: int, weights: dict[int, float] | None = None
) -> list[tuple[float, float, int]]:
    """Geometric binning of a degree-indexed curve.

    Returns (bin center, weighted mean value, point count) per nonempty
    bin; weights default to 1 (pass N(d) for population weighting).
    """
    if bins_per_decade < 1:
        raise ValueError(f"bins_per_decade must be >= 1, got {bins_per_decade}")
    out: dict[int, list[float]] = {}
    for d, val in points.items():
        if d <= 0:
            raise ValueError(f"degrees must be positive, got {d}")
        if isinstance(val, float) and math.isnan(val):
            continue
        b = math.floor(math.log10(d) * bins_per_decade)
        w = 1.0 if weights is None else float(weights.get(d, 0.0))
        if w <= 0.0:
            continue
        acc = out.setdefault(b, [0.0, 0.0, 0])
        acc[0] += w * val
        acc[1] += w
        acc[2] += 1
    curve = []
    for b in sorted(out):
        total, wsum, count = out[b]
        center = 10.0 ** ((b + 0.5) / bins_per_decade)
        curve.append((center, total / wsum, count))
    return curve
