"""Exact graph statistics: degree histogram N(d), neighbor-degree sums
S(d), average neighbor degree, sum of squared degrees, clustering
coefficients, Pearson assortativity and log-binned curves.

Degree-indexed quantities use the multigraph degree (parallel edges count).
Clustering works on the simple projection: triangle counts over multi-edges
have no single convention, and the d*C(d) ~ 2D/(Am) comparison comes from
simple-graph analysis (its finite-d profile is theory.expected_triangles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphgen import Multigraph

__all__ = [
    "DegreeProfile",
    "ClusteringProfile",
    "degree_profile",
    "brute_force_profile",
    "dnn_empirical",
    "clustering",
    "pearson_assortativity",
    "sum_squares",
    "log_binned_curve",
]

_BRUTE_FORCE_CAP = 10_000


@dataclass(frozen=True)
class DegreeProfile:
    """Per-degree aggregates plus the scalar invariants they must satisfy:
    sum N(d) = n, sum d*N(d) = 2*edges, sum S(d) = W."""

    N: dict[int, int]
    S: dict[int, int]
    W: int
    n: int
    num_edges: int


@dataclass(frozen=True)
class ClusteringProfile:
    C1: float
    C2: float
    C_by_degree: dict[int, float]


def degree_profile(g: Multigraph) -> DegreeProfile:
    """Single-pass N, S, W.  Each edge (u,v) contributes deg(v) to the
    S-bucket of deg(u) and vice versa, once per parallel edge."""
    deg = g.degree_array()
    nbr_sum = np.zeros(g.n, dtype=np.int64)
    np.add.at(nbr_sum, g.u, deg[g.v])
    np.add.at(nbr_sum, g.v, deg[g.u])
    counts = np.bincount(deg)
    sums = np.bincount(deg, weights=nbr_sum).astype(np.int64)
    N = {int(d): int(c) for d, c in enumerate(counts) if c > 0}
    S = {int(d): int(s) for d, s in enumerate(sums) if counts[d] > 0}
    return DegreeProfile(
        N=N,
        S=S,
        W=int(np.sum(deg.astype(np.int64) ** 2)),
        n=g.n,
        num_edges=g.num_edges,
    )


def brute_force_profile(g: Multigraph) -> DegreeProfile:
    """Independent recomputation of N, S, W by per-vertex adjacency
    traversal.  Capped at n <= 10^4; used as the oracle for degree_profile."""
    if g.n > _BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force profile capped at n <= {_BRUTE_FORCE_CAP}")
    adj = g.adjacency()
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


def dnn_empirical(profile: DegreeProfile, d: int) -> float:
    """Average neighbor degree S(d)/(N(d)*d); NaN where N(d) = 0 so callers
    can skip unpopulated bins."""
    if profile.N.get(d, 0) == 0:
        return math.nan
    return profile.S[d] / (profile.N[d] * d)


def clustering(g: Multigraph) -> ClusteringProfile:
    """Global C1, average local C2 and per-degree C(d) on the simple
    projection.  Vertices with fewer than two distinct neighbors contribute
    local coefficient 0.  C_by_degree is keyed by multigraph degree."""
    # One list conversion serves both passes: a second would allocate a
    # second set of int objects, which the neighbor sets keep alive.
    us, vs = g.u.tolist(), g.v.tolist()
    adj = [set() for _ in range(g.n)]
    for a, b in zip(us, vs):
        adj[a].add(b)
        adj[b].add(a)
    tri = [0] * g.n

    seen = set()
    for u, v in zip(us, vs):
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        a, b = key
        # Each triangle {a,b,w} with w > b is found exactly once here.
        small, large = (adj[a], adj[b]) if len(adj[a]) <= len(adj[b]) else (adj[b], adj[a])
        for w in small:
            if w > b and w in large:
                tri[a] += 1
                tri[b] += 1
                tri[w] += 1

    triangles = sum(tri) // 3
    p2_total = 0
    local = [0.0] * g.n
    for v in range(g.n):
        ds = len(adj[v])
        p2 = ds * (ds - 1) // 2
        p2_total += p2
        if p2 > 0:
            local[v] = tri[v] / p2
    C1 = 3.0 * triangles / p2_total if p2_total > 0 else 0.0
    C2 = sum(local) / g.n if g.n > 0 else 0.0

    by_degree: dict[int, list[float]] = {}
    for v, d in enumerate(g.degree_array().tolist()):
        by_degree.setdefault(d, []).append(local[v])
    C_by_degree = {d: sum(vals) / len(vals) for d, vals in sorted(by_degree.items())}
    return ClusteringProfile(C1=C1, C2=C2, C_by_degree=C_by_degree)


def pearson_assortativity(g: Multigraph) -> float:
    """Pearson correlation of the symmetrized edge-endpoint degree pairs;
    NaN when the degree variance over endpoints is zero (regular graphs)."""
    deg = g.degree_array().astype(float)
    du = deg[g.u]
    dv = deg[g.v]
    x = np.concatenate([du, dv])
    y = np.concatenate([dv, du])
    vx = np.var(x)
    if vx == 0.0:
        return math.nan
    return float(np.mean(x * y) - np.mean(x) * np.mean(y)) / vx


def sum_squares(g: Multigraph) -> int:
    """Sum of squared multigraph degrees."""
    deg = g.degree_array().astype(np.int64)
    return int(np.sum(deg * deg))


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
