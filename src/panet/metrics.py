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
    "dnn_empirical",
    "clustering",
    "pearson_assortativity",
    "log_binned_curve",
]


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


def dnn_empirical(profile: DegreeProfile, d: int) -> float:
    """Average neighbor degree S(d)/(N(d)*d); NaN where N(d) = 0 so callers
    can skip unpopulated bins, and at d = 0 (isolated vertices)."""
    if d == 0 or profile.N.get(d, 0) == 0:
        return math.nan
    return profile.S[d] / (profile.N[d] * d)


def clustering(g: Multigraph) -> ClusteringProfile:
    """Global C1, average local C2 and per-degree C(d) on the simple
    projection.  Vertices with fewer than two distinct neighbors contribute
    local coefficient 0.  C_by_degree is keyed by multigraph degree.

    Triangles are counted forward on a degree-ordered orientation (Latapy,
    TCS 407, 2008): each simple edge points from the lower to the higher
    (simple degree, id) rank, as the 0/1 matrix M.  A triangle x < y < z
    in rank is one entry (x, z) of (M@M)∘M, whose row and column sums
    credit x and z, and one entry (y, z) of (Mᵀ@M)∘M, whose row sums
    credit y.  The orientation bounds out-degrees by O(sqrt(E)).
    """
    from scipy import sparse  # ~0.2 s to import, and only clustering uses it

    n = g.n
    a, b = np.minimum(g.u, g.v), np.maximum(g.u, g.v)
    key = np.sort(a * n + b)
    a, b = np.divmod(key[np.diff(key, prepend=-1) > 0], n)
    sdeg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    # a < b, so (sdeg[a], a) < (sdeg[b], b) exactly when sdeg[a] <= sdeg[b].
    fwd = sdeg[a] <= sdeg[b]
    lo, hi = np.where(fwd, a, b), np.where(fwd, b, a)
    M = sparse.csr_array((np.ones(len(lo), dtype=np.int64), (lo, hi)), shape=(n, n))
    P, Q = (M @ M).multiply(M), (M.T @ M).multiply(M)
    tri = P.sum(axis=1) + P.sum(axis=0) + Q.sum(axis=1)
    p2 = sdeg * (sdeg - 1) // 2
    local = np.divide(tri, p2, out=np.zeros(n), where=p2 > 0)
    p2_total = int(p2.sum())
    C1 = 3.0 * (int(tri.sum()) // 3) / p2_total if p2_total > 0 else 0.0
    # Left-to-right sums, in vertex order, as the CSV digests expect.
    C2 = sum(local.tolist()) / n if n > 0 else 0.0
    deg = g.degree_array()
    count = np.bincount(deg)
    mean = np.bincount(deg, weights=local) / np.maximum(count, 1)
    C_by_degree = {d: float(mean[d]) for d in np.flatnonzero(count).tolist()}
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
