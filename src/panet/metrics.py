"""Exact graph statistics: degree histogram N(d), neighbor-degree sums
S(d), average neighbor degree, sum of squared degrees, clustering
coefficients and Pearson assortativity.

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
    (simple degree, id) rank, which bounds out-degrees by O(sqrt(E)).  A
    triangle x < y < z in rank is found once, at x: as the pair (y, z) of
    x's out-neighbors whose edge {y, z} is in the sorted simple-edge keys.
    It credits x, y and z.  Time and memory are O(E + wedges), where the
    wedges are the out-neighbor pairs, sum over x of C(out-degree, 2).
    """
    n = g.n
    a, b = np.minimum(g.u, g.v), np.maximum(g.u, g.v)
    key = np.sort(a * n + b)
    key = key[np.diff(key, prepend=-1) > 0]  # simple edges a*n + b, a < b
    a, b = np.divmod(key, n)
    sdeg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    # a < b, so (sdeg[a], a) < (sdeg[b], b) exactly when sdeg[a] <= sdeg[b].
    # Sorted, each source's out-list is contiguous and ascending.
    src, dst = np.divmod(np.sort(np.where(sdeg[a] <= sdeg[b], key, b * n + a)), n)
    # Wedge w pairs out-list positions first[w] < second[w] of one source.
    pos = np.arange(len(src))
    later = np.cumsum(np.bincount(src, minlength=n))[src] - pos - 1
    first = np.repeat(pos, later)
    second = np.arange(len(first)) + np.repeat(pos + 1 - (np.cumsum(later) - later), later)
    closing = dst[first] * n + dst[second]
    # searchsorted runs several times faster on sorted queries.
    order = np.argsort(closing)
    closing = closing[order]
    found = np.searchsorted(key, closing).clip(max=len(key) - 1)
    hit = order[key[found] == closing]
    first, second = first[hit], second[hit]
    tri = (
        np.bincount(src[first], minlength=n)
        + np.bincount(dst[first], minlength=n)
        + np.bincount(dst[second], minlength=n)
    )
    p2 = sdeg * (sdeg - 1) // 2
    local = np.divide(tri, p2, out=np.zeros(n), where=p2 > 0)
    p2_total = int(p2.sum())
    C1 = int(tri.sum()) / p2_total if p2_total > 0 else 0.0
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
