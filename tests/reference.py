"""Slow, plainly written references that tests compare panet against:
per-vertex adjacency traversal for degree_profile, the set-based triangle
loop for clustering, and the line scanner that defines the edge-list
format for import_edge_list."""

from __future__ import annotations

from panet.graphgen import Multigraph
from panet.metrics import ClusteringProfile, DegreeProfile

BRUTE_FORCE_CAP = 10_000


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


def clustering_loop(g: Multigraph) -> ClusteringProfile:
    """metrics.clustering by neighbor sets and a per-edge loop, summing in
    vertex order, so its results must equal the vectorized ones exactly."""
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
    C1 = 3.0 * (sum(tri) // 3) / sum(p2) if sum(p2) > 0 else 0.0
    C2 = sum(local) / g.n if g.n > 0 else 0.0
    by_degree: dict[int, list[float]] = {}
    for v, d in enumerate(g.degree_array().tolist()):
        by_degree.setdefault(d, []).append(local[v])
    C_by_degree = {d: sum(vals) / len(vals) for d, vals in sorted(by_degree.items())}
    return ClusteringProfile(C1=C1, C2=C2, C_by_degree=C_by_degree)


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
