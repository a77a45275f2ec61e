"""Growing multigraph generator: shifted preferential attachment plus an
edge-copy triangle step, drawn in a few numpy calls per graph.

Each new vertex places m edges through k = floor(m/2) pair-slots and
r = m - 2k single slots.  A pair-slot is, with probability beta, an
edge-copy: both endpoints of a uniformly random existing edge get an edge
to the new vertex (closing at least one triangle through the copied edge).
Otherwise the slot makes two independent shifted-PA draws, where a vertex
is hit with probability (deg(v)+c)/(2E+cn).  Edge-copy is used rather than
copying a neighbor of the PA target because its per-vertex marginal is
exactly degree-proportional, which keeps the single-step increment
probability at A*d/n + B/n with no order-d/n bias.

Every vertex u owns the m edge slots u*m ... u*m+m-1 (the doubled-clique
seed is oriented that way), so edge e has source e // m, E = m*n exactly
and deg(v) + c = in(v) + (m + c).  A shifted-PA draw from the first t
vertices is therefore, with probability m/(2m+c), the target of a uniform
slot j < m*t, and otherwise a uniform vertex < t: one branch for every
c > -m.  An edge-copy draws a uniform slot f < m*t and takes its endpoints
(f // m, target of f).  Each draw is a literal vertex or a pointer to an
earlier slot and none depends on the graph grown so far, so all steps are
drawn at once and the pointers are then resolved by pointer jumping (the
copy-model trick of Batagelj & Brandes, PRE 71, 036113, 2005).  All draws
of one step read the graph before that step.  Multi-edges are kept
(degrees count multiplicity) and self-loops cannot occur, since a new
vertex only connects to older vertices.
"""

from __future__ import annotations

import io

import numpy as np

from .params import GeneratorParams

__all__ = [
    "Multigraph",
    "seed_graph",
    "draw_slots",
    "resolve_pointers",
    "generate",
    "export_edge_list",
    "import_edge_list",
    "child_seed",
]


class Multigraph:
    """n vertices and an edge multiset: edge e joins u[e] and v[e]."""

    def __init__(self, n: int, u, v):
        self.n = n
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)

    @property
    def num_edges(self) -> int:
        return len(self.u)

    def degree_array(self) -> np.ndarray:
        return np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)


def seed_graph(m: int) -> Multigraph:
    """Doubled complete graph on m+1 vertices: every pair joined by two
    parallel edges, so each degree is 2m and there are m(m+1) edges.
    Vertex u's slots u*m ... u*m+m-1 point at the other m vertices in
    order, so each pair's two edges have opposite owners."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    u = np.repeat(np.arange(m + 1), m)
    j = np.tile(np.arange(m), m + 1)
    return Multigraph(m + 1, u, j + (j >= u))


def draw_slots(gp: GeneratorParams, t, rng: np.random.Generator) -> np.ndarray:
    """The m slot draws of one growth step per entry of t, each step
    reading a graph of t[i] vertices: shape (len(t), m), holding a vertex
    id where the slot's target is that vertex and ~j (negative) where it
    is the target of edge slot j < m*t[i]."""
    m, k, beta = gp.m, gp.k, gp.beta
    p_ptr = m / (2 * m + gp.c)
    out = rng.integers(np.repeat(m * np.asarray(t, dtype=np.int64), m)).reshape(-1, m)
    x = rng.random(out.shape)
    ptr = x < p_ptr
    if k:
        # Column 2i decides the pair: an edge-copy below beta, else its own
        # PA draw with x rescaled from [beta, 1).  An edge-copy's pair is
        # (j // m, ~j) for column 2i's uniform slot j.
        a = x[:, 0 : 2 * k : 2]
        copy = a < beta
        ptr[:, 0 : 2 * k : 2] = (a >= beta) & (a < beta + p_ptr * (1.0 - beta))
        # second += (first - second) * copy: no masked copy (see below).
        second = out[:, 1 : 2 * k : 2]
        diff = out[:, 0 : 2 * k : 2] - second
        diff *= copy
        second += diff
        ptr[:, 1 : 2 * k : 2] |= copy
    # Decode ptr ? ~j : j // m as q + ptr * (~j - q), with no masked ufunc:
    # a mask over random bits mispredicts a branch on every element.  x is
    # spent, so its buffer takes q = j // m.
    q = np.floor_divide(out, m, out=x.view(np.int64))
    np.invert(out, out=out)
    out -= q
    out *= ptr
    out += q
    return out


def resolve_pointers(v: np.ndarray) -> None:
    """Replace, in place, every pointer ~j in v by the vertex its chain of
    pointers ends at (pointers must form a forest).

    Synchronous pointer jumping: each round gathers v at the pointed-to
    slots into a temporary before writing any of them, so every chain
    still open halves in length.
    """
    idx = np.flatnonzero(v < 0)
    while idx.size:
        nxt = v[~v[idx]]
        v[idx] = nxt
        idx = idx[nxt < 0]


def generate(gp: GeneratorParams, n: int, seed) -> Multigraph:
    """Grow a graph to n vertices; a fixed (gp, n, seed) gives a
    bit-identical edge list.  seed is a non-negative int."""
    m = gp.m
    if n < m + 1:
        raise ValueError(f"n must be >= seed size m+1 = {m + 1}, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    v = np.concatenate([seed_graph(m).v, draw_slots(gp, np.arange(m + 1, n), rng).ravel()])
    resolve_pointers(v)
    return Multigraph(n, np.repeat(np.arange(n), m), v)


_EXPORT_CHUNK = 1 << 16  # edges formatted by one % operation


def export_edge_list(g: Multigraph, path) -> None:
    """Write one "u v" line per edge (0-based ids, repeats = multiplicity)
    to the file at path (a str or os.PathLike)."""
    uv = np.column_stack((g.u, g.v)).ravel()
    with open(path, "w") as sink:
        for start in range(0, len(uv), 2 * _EXPORT_CHUNK):
            ids = uv[start : start + 2 * _EXPORT_CHUNK].tolist()
            sink.write("%d %d\n" * (len(ids) // 2) % tuple(ids))


def import_edge_list(path) -> Multigraph:
    """Read an edge list written by export_edge_list from the file at path
    (a str or os.PathLike).

    Rejects malformed lines, self-loops, negative ids, empty inputs and ids
    >= 2E (a graph with no isolated vertex has fewer than 2E vertices).
    A text of ASCII digits and whitespace is parsed and checked in numpy;
    any other text, or one that fails a check there, goes through the line
    scanner, which defines the format and names the offending line.  The
    file is read as text mode reads it, where a lone CR also ends a line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    uv = _parse_digits(data)
    if uv is None:
        uv = _scan_lines(io.TextIOWrapper(io.BytesIO(data)).read())  # as open(path) reads it
    u, v = uv
    return Multigraph(int(max(u.max(), v.max())) + 1, u, v)


def _parse_digits(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The (u, v) ids of a valid edge list made of ASCII digits, spaces,
    tabs, CRs and LFs, else None (the line scanner then decides).  One
    strtoll pass reads every id; an id beyond int64 saturates and fails
    the id < 2E bound."""
    if data.translate(None, b"0123456789 \t\r\n"):
        return None
    E = _pair_lines(np.frombuffer(data, dtype=np.uint8))
    if not E:  # None, or no line with ids
        return None
    uv = np.fromstring(data, dtype=np.int64, sep=" ")
    if uv.size != 2 * E or uv.max() >= uv.size:
        return None
    u, v = uv[0::2].copy(), uv[1::2].copy()
    if (u == v).any():
        return None
    return u, v


def _pair_lines(c: np.ndarray) -> int | None:
    """The number of lines holding two ids, when no line holds another
    number of ids but 0, in bytes c of digits and whitespace (CR and LF
    end lines); else None.

    One event per id (its first digit) and per line end, compressed to a
    byte each; a run of three ids, or an id with no id beside it, fails.
    """
    keep = c >= 48  # digits; every other byte left is whitespace
    keep[1:] &= c[:-1] < 48
    keep |= c == 10
    keep |= c == 13
    ids = c[keep] >= 48
    pair = ids[:-1] & ids[1:]  # events i and i+1 are ids on one line
    E = np.count_nonzero(pair)
    # With no run of three, every run of ids is a pair or a lone id.
    if (pair[:-1] & pair[1:]).any() or np.count_nonzero(ids) != 2 * E:
        return None
    return E


def _scan_lines(text: str) -> tuple[np.ndarray, np.ndarray]:
    us: list[int] = []
    vs: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def child_seed(root_seed: int, *key: int) -> int:
    """Deterministic per-run seed derived from a root seed and an index key.

    Uses a seed sequence so independent (n, seed-index) runs get
    statistically independent, platform-stable streams.
    """
    ss = np.random.SeedSequence([int(root_seed), *[int(x) for x in key]])
    return int(ss.generate_state(2, dtype=np.uint64)[0])
