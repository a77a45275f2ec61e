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
    A chunk's degrees come from g.sources and g.targets: on a generated
    graph the sources' are a slice of the degree array repeated m times,
    with no gather.  At m = 2 and n = 1e6 the tracemalloc peak is 4.26-4.36
    B/edge on a generated graph, its degree array of one bincount plus the
    chunk buffer, 4.33-4.42 on an import's int32 ids, counted in place, and
    8.0 B/edge at n = 1e5 and 1e6 with int64 sources, the two bincounts of
    degree_array (16 B/edge with two gathers over all edges)."""
    deg = g.degree_array()
    counts = np.bincount(deg)
    sums = np.zeros(len(counts), dtype=np.int64)
    for lo in range(0, g.num_edges, _EDGE_CHUNK):
        du, dv = g.sources(lo, lo + _EDGE_CHUNK, deg), g.targets(lo, lo + _EDGE_CHUNK, deg)
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

    Triangles are counted forward on a degree order (Latapy, TCS 407,
    2008).  Vertices are renamed by rank in an argsort of their degrees
    (any total order by degree finds each triangle once), so x's k
    out-neighbors have degree >= deg(x) >= k, and k <= sqrt(2E).  Edge
    x < y has key x << s | y: one sort, repeats dropped, lists each out-list
    contiguous and ascending.  Triangle x < y < z is found at x, as the
    wedge (y, z) of x's out-list whose key y << s | z a branch-free lower
    bound finds in y's out-list, in bit_length(k_max - 1) halvings.  Runs
    of sources costing at most _WEDGE_CHUNK (k^2 for out-degree k, or one
    costlier source) list their wedges, and thread_map maps the runs that
    hold a wedge over its threads.  At m = 2 on two threads: 0.025-0.037 s
    and 25-27 B/edge (tracemalloc peak) at n = 2e5, 0.21-0.23 s and 24 B/edge
    at n = 1e6, 2.6-3.4 s at n = 1e7.
    """
    n = g.n
    ids = np.int32 if max(n, 2 * g.num_edges) < 2**31 else np.int64  # rank ids and degrees
    s = (n - 1).bit_length()  # simple edge {x, y}, x < y in rank, has key x << s | y
    low = (1 << s) - 1
    deg = g.degree_array().astype(ids)
    rank = np.empty(n, dtype=ids)
    rank[np.argsort(deg)] = np.arange(n, dtype=ids)
    a, b = g.sources(0, g.num_edges, rank), g.targets(0, g.num_edges, rank)
    key = np.minimum(a, b, dtype=np.int64)
    key <<= s
    key |= np.maximum(a, b, out=a)
    del a, b
    key.sort()
    key = np.delete(key, np.flatnonzero(key[1:] == key[:-1]) + 1)
    # Source x's out-list is key[ends[x] : ends[x+1]].
    work = np.zeros(n + 1, dtype=np.int64)
    np.add.at(work[1:], key >> s, 1)  # out-degrees
    halvings = int(work.max(initial=1) - 1).bit_length()
    ends = np.cumsum(work)
    # Sources lo .. hi-1 cost work[hi] - work[lo]: out-degree k costs k^2, k
    # positions and k(k-1)/2 wedges twice over; runs of positions alone are dropped.
    np.cumsum(np.square(work, out=work), out=work)
    wedge_runs = [(lo, hi) for lo, hi in runs(work, _WEDGE_CHUNK) if work[hi] - work[lo] > ends[hi] - ends[lo]]
    del work

    def triangles(run):
        """The keys of the edges xy, then xz, then yz of the triangles
        x < y < z found at sources x in lo .. hi-1."""
        lo, hi = run
        p0, p1 = int(ends[lo]), int(ends[hi])
        # Position p of x's out-list pairs with each later position q of it:
        # the wedge (y, z) = (key[p] & low, key[q] & low), closed by the key
        # y << s | z.
        nxt = ends[lo + 1 : hi + 1]  # one past p's out-list
        nxt = nxt.repeat(nxt - ends[lo:hi])
        later = nxt - np.arange(p0 + 1, p1 + 1)
        nxt -= later.cumsum()  # q - w on p's wedges w
        xy = key[p0:p1].repeat(later)  # key[p] of wedge w
        xz = key[nxt.repeat(later) + np.arange(len(xy))]
        y = xy & low
        closing = xz & low | y << s
        # Lower bound in y's out-list: base ends at the last key <= closing
        # among key[ends[y] : ends[y] + 2**halvings], which spans the list.
        # Past the list the keys only grow, and take's clip repeats the last.
        base = ends[y]
        for b in reversed(range(halvings)):
            mid = base + (1 << b)
            np.copyto(base, mid, where=key.take(mid, mode="clip") <= closing)
        hit = key.take(base, mode="clip") == closing
        return np.concatenate((xy[hit], xz[hit], closing[hit]))

    hits = np.concatenate([np.empty(0, dtype=np.int64), *thread_map(triangles, wedge_runs)])
    sdeg = np.diff(ends)  # simple degrees: out-degrees, plus in-degrees
    key &= low
    np.add.at(sdeg, key, 1)
    del key, ends
    # Each of a triangle's three edges credits both its ends: each corner twice.
    tri = (np.bincount(hits >> s, minlength=n) + np.bincount(hits & low, minlength=n)) // 2
    del hits
    p2 = sdeg * (sdeg - 1) // 2
    local = np.divide(tri, p2, out=np.zeros(n), where=p2 > 0)[rank]  # in vertex order
    p2_total = int(p2.sum())
    C1 = int(tri.sum()) / p2_total if p2_total > 0 else 0.0
    # Left-to-right sum in vertex order, as the CSV digests expect: an
    # accumulate adds in order, where sum() of floats compensates from
    # Python 3.12 on and np.sum adds pairwise.
    C2 = float(np.cumsum(local)[-1]) / n if n > 0 else 0.0
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
