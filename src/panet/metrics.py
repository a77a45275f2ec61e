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

from . import graphgen
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
    int64, one run of g.chunks(deg) at a time, so memory is the degree
    array plus a fixed buffer, never an array over the edges.  At m = 2
    and n = 1e6 the tracemalloc peak is 4.26 B/edge on a generated graph,
    4.33 on an import's int32 ids and 8.0 on int64 ones; inside
    g.held_degrees() only the sums and the buffer."""
    deg = g.degree_array()
    counts = np.bincount(deg)
    sums = np.zeros(len(counts), dtype=np.int64)
    for _, du, dv in g.chunks(deg):
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
    hold a wedge over its threads.  Keys are built from g.chunks(rank),
    then compacted and counted graphgen._EDGE_CHUNK at a time, in one
    array, the only one as long as the edges: at m = 2 the tracemalloc
    peak is 20.0 B/edge at n = 1e6 (degrees 4, int32 ranks 2, keys 8,
    out-degrees 4, int32 ends 2), 20.4-20.9 at n = 2e5 (22.6-23.4 on two
    threads).  Two threads take 0.025-0.037 s at n = 2e5, 0.21-0.23 s at
    n = 1e6, 2.6-3.4 s at n = 1e7.
    """
    n, E, chunk = g.n, g.num_edges, graphgen._EDGE_CHUNK
    ids = np.int32 if max(n, 2 * E) < 2**31 else np.int64  # rank ids, list ends and triangle corners
    s = (n - 1).bit_length()  # simple edge {x, y}, x < y in rank, has key x << s | y
    low = (1 << s) - 1
    deg = g.degree_array()
    rank = np.empty(n, dtype=ids)
    rank[np.argsort(deg)] = np.arange(n, dtype=ids)
    key = np.empty(E, dtype=np.int64)
    for lo, a, b in g.chunks(rank):
        key[lo : lo + len(a)] = np.minimum(a, b, dtype=np.int64) << s | np.maximum(a, b)
    key.sort()
    # Drop repeats in place, a chunk of keys at a time (the key before a
    # chunk is not yet overwritten), and count out-degrees: work[x + 1].
    work, k = np.zeros(n + 1, dtype=np.int64), 0
    for lo in range(0, E, chunk):
        new = key[lo : lo + chunk]
        new = new[new != (key[lo - 1 : lo - 1 + len(new)] if lo else np.r_[-1, new[:-1]])]
        key[k : k + len(new)] = new
        k += len(new)
        np.add.at(work[1:], new >> s, 1)  # an int64 target takes add.at's fast path
    key = key[:k]
    # Source x's out-list is key[ends[x] : ends[x+1]].
    halvings = int(work.max(initial=1) - 1).bit_length()
    ends = np.cumsum(work, out=work).astype(ids)  # a cast cumsum would copy work first
    # Sources lo .. hi-1 cost work[hi] - work[lo]: out-degree k costs k^2, k
    # positions and k(k-1)/2 wedges twice over; runs of positions alone are dropped.
    np.subtract(ends[1:], ends[:-1], out=work[1:])
    np.cumsum(np.square(work, out=work), out=work)
    wedge_runs = [(lo, hi) for lo, hi in runs(work, _WEDGE_CHUNK) if work[hi] - work[lo] > ends[hi] - ends[lo]]
    del work

    def triangles(run):
        """The corners x, then y, then z of the triangles x < y < z found
        at sources x in lo .. hi-1."""
        lo, hi = run
        p0, p1 = int(ends[lo]), int(ends[hi])
        # Position p of x's out-list pairs with each later position q of it:
        # the wedge (y, z) = (key[p] & low, key[q] & low), closed by the key
        # y << s | z.
        nxt = ends[lo + 1 : hi + 1].astype(np.int64)  # one past p's out-list
        nxt = nxt.repeat(nxt - ends[lo:hi])
        later = nxt - np.arange(p0 + 1, p1 + 1)
        nxt -= later.cumsum()  # q - w on p's wedges w
        closing = ((key[p0:p1] & low) << s).repeat(later)  # y << s of wedge w
        closing |= key[nxt.repeat(later) + np.arange(len(closing))] & low  # | z
        # Lower bound in y's out-list: base ends at the last key <= closing
        # among key[ends[y] : ends[y] + 2**halvings], which spans the list.
        # Past the list the keys only grow, and take's clip repeats the last.
        # Only closing and base are held over the wedges, each 8 B a wedge.
        base = ends.take(closing >> s).astype(np.int64)  # take reads int64 ids as they are
        for b in reversed(range(halvings)):
            mid = base + (1 << b)
            np.copyto(base, mid, where=key.take(mid, mode="clip") <= closing)
        hit = key.take(base, mode="clip") == closing
        closing = closing[hit]
        return np.concatenate(((key[p0:p1] >> s).repeat(later)[hit], closing >> s, closing & low), dtype=ids)

    hits = thread_map(triangles, wedge_runs)
    del ends  # before sdeg is made: key is the one edge-sized array left
    sdeg = np.zeros(n, dtype=np.int64)  # simple degrees
    for lo in range(0, k, chunk):
        np.add.at(sdeg, key[lo : lo + chunk] >> s, 1)
        np.add.at(sdeg, key[lo : lo + chunk] & low, 1)
    del key
    tri = np.zeros(n, dtype=np.int64)
    while hits:
        np.add.at(tri, hits.pop(), 1)
    sdeg *= sdeg - 1
    sdeg //= 2  # the pairs of distinct neighbors
    p2_total = int(sdeg.sum())
    C1 = int(tri.sum()) / p2_total if p2_total > 0 else 0.0
    local = np.divide(tri, sdeg, out=np.zeros(n), where=sdeg > 0)
    del tri, sdeg
    local = local[rank]  # in vertex order
    count = np.bincount(deg)
    mean = np.bincount(deg, weights=local) / np.maximum(count, 1)
    C_by_degree = {d: float(mean[d]) for d in np.flatnonzero(count).tolist()}
    # Left-to-right sum in vertex order, as the CSV digests expect: an
    # accumulate adds in order, where sum() of floats compensates from
    # Python 3.12 on and np.sum adds pairwise.  local is spent: it takes it.
    C2 = float(np.cumsum(local, out=local)[-1]) / n if n > 0 else 0.0
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
