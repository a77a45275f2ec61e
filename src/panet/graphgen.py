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
import itertools
import os
import re

import numpy as np

from .parallel import thread_map
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


_EXPORT_CHUNK = 1 << 16  # edges formatted by one pass of numpy calls


def export_edge_list(g: Multigraph, path) -> None:
    """Write one "u v" line per edge (0-based ids, repeats = multiplicity)
    to the file at path (a str or os.PathLike).  A negative id raises
    ValueError before the file is opened.

    Each chunk of edges is formatted in a fixed set of buffers: its ids
    in a (k, 2) block, their L digits (L from the largest id) peeled by
    floor division into a (k, 2, L+1) byte block whose last column holds
    the separator, and one boolean compress that drops the leading zeros.
    At m = 2 the tracemalloc peak is 2.2 B/edge at n = 1e6 (0.11-0.15 s),
    a buffer of 4.3 MB that does not grow with E; n = 2e5 takes 0.035 s
    and n = 1e7 2.0 s.
    """
    E = g.num_edges
    if min(g.u.min(initial=0), g.v.min(initial=0)) < 0:
        raise ValueError("negative vertex id")
    top = int(max(g.u.max(initial=0), g.v.max(initial=0)))
    L = len(str(top))
    k = min(E, _EXPORT_CHUNK)
    ids = np.empty((k, 2), np.uint32 if top < 2**32 else np.uint64)
    quot, rem = np.empty_like(ids), np.empty_like(ids)
    text = np.empty((k, 2, L + 1), np.uint8)
    text[:, :, L] = [ord(" "), ord("\n")]
    keep = np.ones((k, 2, L + 1), bool)
    with open(path, "wb") as sink:
        for start in range(0, E, _EXPORT_CHUNK):
            j = min(E - start, k)
            x, q, r = ids[:j], quot[:j], rem[:j]
            x[:, 0] = g.u[start : start + j]
            x[:, 1] = g.v[start : start + j]
            for i in range(L - 1, -1, -1):  # column i holds digit L-1-i
                if i < L - 1:
                    np.not_equal(x, 0, out=keep[:j, :, i])  # id >= 10**(L-1-i)
                np.floor_divide(x, 10, out=q)
                np.multiply(q, 10, out=r)
                np.subtract(x, r, out=r)
                np.add(r, ord("0"), out=text[:j, :, i], casting="unsafe")
                x, q = q, x
            sink.write(text[:j][keep[:j]])


def import_edge_list(path) -> Multigraph:
    """Read an edge list written by export_edge_list from the file at path
    (a str or os.PathLike).

    Rejects malformed lines, self-loops, negative ids, empty inputs and ids
    >= 2E (a graph with no isolated vertex has fewer than 2E vertices).
    A text of ASCII digits and whitespace is parsed and checked in numpy;
    any other text, or one that fails a check there, goes through the line
    scanner, which defines the format and names the offending line.  The
    file is read as text mode reads it, where a lone CR also ends a line.

    The numpy path cuts the file at line ends (CR or LF) into blocks of
    about _READ_BLOCK bytes and maps two passes over them on thread_map's
    threads: one counts each block's edges, the other parses the block
    again into its slice of u and v.  So no copy of the whole file is
    held: at m = 2 on two threads the tracemalloc peak is u and v
    (16 B/edge) plus 0.6-0.7 MiB, and n = 2e5 takes 0.03 s (0.05 s on one
    thread), n = 1e6 0.15-0.17 s (0.26-0.30 s on one).
    """
    with open(path, "rb") as fh:
        uv = _parse_digits(fh.fileno())
        if uv is None:  # fh is still at offset 0: the numpy path only preads
            uv = _scan_lines(io.TextIOWrapper(fh).read())  # as open(path) reads it
    u, v = uv
    return Multigraph(int(max(u.max(), v.max())) + 1, u, v)


_READ_BLOCK = 1 << 17  # bytes per block of the numpy path, before its cut at a line end
_LINE_ENDS = re.compile(rb"[\r\n]")


def _line_blocks(fd: int) -> list[tuple[int, int]]:
    """Byte ranges [start, end) that cover the file at fd in order, each
    ending just after its first CR or LF at or past _READ_BLOCK bytes, or
    at the end of the file."""
    size = os.fstat(fd).st_size
    blocks = []
    start = 0
    while start < size:
        end = start + _READ_BLOCK  # a line end at end - 1 or later closes the block
        while end < size:
            window = os.pread(fd, min(_READ_BLOCK, 4096), end - 1)
            cut = _LINE_ENDS.search(window)
            if cut:
                end += cut.start()
                break
            end += len(window) or size  # an empty read: the file has shrunk
        blocks.append((start, min(end, size)))
        start = blocks[-1][1]
    return blocks


def _parse_digits(fd: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The (u, v) ids of a valid edge list made of ASCII digits, spaces,
    tabs, CRs and LFs in the file at fd, else None (the line scanner then
    decides).  strtoll reads every id; an id beyond int64 saturates and
    fails the id < 2E bound."""
    blocks = _line_blocks(fd)

    def count(block):
        data = os.pread(fd, block[1] - block[0], block[0])
        if data.translate(None, b"0123456789 \t\r\n"):
            return None
        return _pair_lines(np.frombuffer(data, dtype=np.uint8))

    counts = thread_map(count, blocks)
    if None in counts or not sum(counts):  # a bad block, or no line with ids
        return None
    offsets = [0, *itertools.accumulate(counts)]  # block i fills offsets[i] .. offsets[i+1]-1
    E = offsets[-1]
    u, v = np.empty(E, dtype=np.int64), np.empty(E, dtype=np.int64)

    def parse(i):
        (start, end), lo, hi = blocks[i], offsets[i], offsets[i + 1]
        if lo == hi:
            return True
        uv = np.fromstring(os.pread(fd, end - start, start), dtype=np.int64, sep=" ")
        if uv.size != 2 * (hi - lo) or uv.max() >= 2 * E:
            return False
        u[lo:hi], v[lo:hi] = uv[0::2], uv[1::2]
        return not (u[lo:hi] == v[lo:hi]).any()

    return (u, v) if all(thread_map(parse, range(len(blocks)))) else None


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
