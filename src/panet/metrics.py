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
from .parallel import runs, thread_map

__all__ = [
    "DegreeProfile",
    "ClusteringProfile",
    "degree_profile",
    "dnn_empirical",
    "clustering",
    "pearson_assortativity",
]

_WEDGE_CHUNK = 1 << 16
_EDGE_CHUNK = 1 << 14


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
    """N, S and W from the degree array.  Each edge (u,v) adds deg(v) to
    S(deg(u)) and deg(u) to S(deg(v)), once per parallel edge, in exact
    int64; the sums are added _EDGE_CHUNK edges at a time, so memory is
    the degree array plus a fixed buffer, never an array over the edges.
    At m = 2 the tracemalloc peak is 8.0 B/edge at n = 1e5 and 1e6, the
    two bincounts of degree_array (16 B/edge with two gathers over all
    edges)."""
    deg = g.degree_array()
    counts = np.bincount(deg)
    sums = np.zeros(len(counts), dtype=np.int64)
    for lo in range(0, g.num_edges, _EDGE_CHUNK):
        du, dv = deg[g.u[lo : lo + _EDGE_CHUNK]], deg[g.v[lo : lo + _EDGE_CHUNK]]
        np.add.at(sums, du, dv)  # exact integers, where bincount's weights add float64
        np.add.at(sums, dv, du)
    ds = np.flatnonzero(counts)
    d_list = ds.tolist()
    return DegreeProfile(
        N=dict(zip(d_list, counts[ds].tolist())),
        S=dict(zip(d_list, sums[ds].tolist())),
        W=int(deg @ deg),
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
    It credits x, y and z.  Time is O(E + wedges), the wedges being the
    out-neighbor pairs.  Memory is a few int32/int64 arrays over the simple
    edges and vertices plus a fixed buffer per thread: wedges are listed
    for runs of sources costing at most _WEDGE_CHUNK, out-degree k costing
    k^2 (or for one costlier source).  parallel.runs cuts the runs first,
    and thread_map maps them over its threads, one run in hand per thread.  At m = 2 on two
    threads the tracemalloc peak is 27.5-28.5 B/edge at n = 2e5 (0.05-0.06
    s; 0.07 s on one thread) and 27 B/edge at n = 1e6 (0.32-0.36 s; 0.44-0.49
    s on one).
    """
    n = g.n
    ids = np.int32 if n < 2**31 else np.int64
    key = np.sort(np.minimum(g.u, g.v) * n + np.maximum(g.u, g.v))
    key = np.delete(key, np.flatnonzero(key[1:] == key[:-1]) + 1)  # simple edges a*n + b, a < b
    a, b = np.empty((2, len(key)), dtype=ids)
    np.divmod(key, n, out=(a, b), casting="unsafe")
    # add.at counts in place, where bincount first copies int32 ids to int64.
    sdeg = np.zeros(n, dtype=ids)
    np.add.at(sdeg, a, ids(1))
    np.add.at(sdeg, b, ids(1))
    # a < b, so (sdeg[a], a) > (sdeg[b], b) exactly when sdeg[a] > sdeg[b].
    flip = sdeg[a] > sdeg[b]
    src, dst = np.where(flip, b, a), np.where(flip, a, b)
    del a, b, flip
    okey = src.astype(np.int64) * n + dst
    # Sorted, each source's out-list is contiguous and ascending.
    okey.sort()
    np.divmod(okey, n, out=(src, dst), casting="unsafe")
    del okey
    # Source s holds positions ends[s] .. ends[s+1]-1, and sources lo .. hi-1
    # cost work[hi] - work[lo]: out-degree k costs k^2, its k positions plus
    # its k(k-1)/2 wedges twice over.
    work = np.zeros(n + 1, dtype=np.int64)
    np.add.at(work[1:], src, 1)  # out-degrees
    ends = np.cumsum(work)
    np.cumsum(np.square(work, out=work), out=work)
    wedge_runs = runs(work, _WEDGE_CHUNK)  # (lo, hi): sources lo .. hi-1
    del work

    def triangles(run):
        """The vertices of the triangles found at sources lo .. hi-1."""
        lo, hi = run
        # Wedge w pairs out-list positions first[w] < second[w] of one
        # source and is closed by the key dst[first[w]] * n + dst[second[w]].
        pos = np.arange(ends[lo], ends[hi])
        nxt = ends[src[ends[lo] : ends[hi]] + 1]  # one past pos's out-list
        later = nxt - pos
        later -= 1
        first = np.repeat(pos, later)
        del pos
        nxt -= np.cumsum(later)  # second[w] - w on pos's wedges
        second = np.repeat(nxt, later)
        del nxt, later
        second += np.arange(len(second))
        closing = dst[first].astype(np.int64)
        closing *= n
        closing += dst[second]
        del second
        # searchsorted runs several times faster on sorted queries.
        order = np.argsort(closing)
        closing = closing[order]
        hit = key.take(np.searchsorted(key, closing), mode="clip") == closing
        return np.concatenate((src[first[order[hit]]], *np.divmod(closing[hit], n)))

    hits = [np.empty(0, dtype=ids)] + thread_map(triangles, wedge_runs)
    del ends, key, src, dst
    tri = np.bincount(np.concatenate(hits), minlength=n)
    p2 = sdeg.astype(np.int64) * (sdeg - 1) // 2
    local = np.divide(tri, p2, out=np.zeros(n), where=p2 > 0)
    p2_total = int(p2.sum())
    C1 = int(tri.sum()) / p2_total if p2_total > 0 else 0.0
    # Left-to-right sum in vertex order, as the CSV digests expect: an
    # accumulate adds in order, where sum() of floats compensates from
    # Python 3.12 on and np.sum adds pairwise.
    C2 = float(np.cumsum(local)[-1]) / n if n > 0 else 0.0
    deg = g.degree_array()
    count = np.bincount(deg)
    mean = np.bincount(deg, weights=local) / np.maximum(count, 1)
    C_by_degree = {d: float(mean[d]) for d in np.flatnonzero(count).tolist()}
    return ClusteringProfile(C1=C1, C2=C2, C_by_degree=C_by_degree)


def pearson_assortativity(profile: DegreeProfile) -> float:
    """Pearson correlation of the symmetrized edge-endpoint degree pairs;
    NaN when the degree variance over endpoints is zero (regular graphs).

    Over the 2E endpoint pairs (x, y), sum x = W, sum x^2 = sum d^3 N(d)
    and sum xy = sum d S(d), so r = (2E sum d S(d) - W^2) /
    (2E sum d^3 N(d) - W^2), in exact integers up to one division.
    """
    two_e, W = 2 * profile.num_edges, profile.W
    den = two_e * sum(d**3 * c for d, c in profile.N.items()) - W * W
    if den == 0:
        return math.nan
    return (two_e * sum(d * s for d, s in profile.S.items()) - W * W) / den
