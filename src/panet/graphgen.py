"""Growing multigraph generator: shifted preferential attachment plus an
edge-copy triangle step, every step of a graph drawn at once in numpy.

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
drawn at once and the pointers are then resolved by pointer jumping, block
by block in slot order (the copy-model trick of Batagelj & Brandes, PRE
71, 036113, 2005).  The uniform slots are numpy's bounded integers,
computed in bulk from raw PCG64 words.  All draws of one step read the
graph before that step.  Multi-edges are kept
(degrees count multiplicity) and self-loops cannot occur, since a new
vertex only connects to older vertices.

A generated graph is its target array: generate fills one array of m*n
int64 targets in place, the seed clique's first, and Multigraph keeps the
sources implicit.  An imported graph holds its sources and targets as
int32 while 2E < 2**31 (8 B/edge), int64 above.  Only this module reads
the edge format or picks the id type; other readers take sources and
targets through Multigraph.sources and Multigraph.targets.
"""

from __future__ import annotations

import io
import itertools
import os
import re

import numpy as np

from .parallel import thread_map
from .params import GeneratorParams, integer, size, slot_count

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

_GATHER_CHUNK = 1 << 14  # ids per take of _gather


def _id_type(num_edges: int) -> type:
    """The dtype of an imported graph's ids: int32 while every id fits,
    which 2E < 2**31 ensures (ids are below 2E), else int64."""
    return np.int32 if 2 * num_edges < 2**31 else np.int64


def _gather(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """x[ids] by take, _GATHER_CHUNK ids at a time.  take copies its ids to
    intp first, so whole it would hold 8 B per int32 id; on a chunk it
    reads them faster than [] does, which widens them in a slower loop."""
    if len(ids) <= _GATHER_CHUNK:
        return x.take(ids)
    out = np.empty(len(ids), x.dtype)
    for lo in range(0, len(ids), _GATHER_CHUNK):
        out[lo : lo + _GATHER_CHUNK] = x.take(ids[lo : lo + _GATHER_CHUNK])  # faster than take's out=
    return out


def _ids(x) -> np.ndarray:
    """x as an id array: an int32 or int64 array as given, anything else
    converted to int64."""
    x = np.asarray(x)
    return x if x.dtype in (np.int32, np.int64) else x.astype(np.int64)


class Multigraph:
    """n vertices and an edge multiset: edge e joins u[e] and v[e].

    u is the array of sources, or the int m when vertex x owns the m edge
    slots x*m ... x*m+m-1, as a generated graph's vertices do: then edge e
    has source e // m, E = m*n, and the graph holds its targets v alone
    (8 B/edge).  Readers take the sources through sources(), which never
    builds the m*n of them, or through u, built on each read and never
    kept.  An int32 or int64 id array is kept as given, so an imported
    graph's int32 u and v hold 8 B/edge; any other is converted to int64.
    A bad shape raises ValueError."""

    def __init__(self, n: int, u, v):
        self.n = n
        self.v = _ids(v)
        if isinstance(u, (int, np.integer)):
            self.m, self._u = integer(u, "m", 1), None
            if n < 1:
                raise ValueError(f"a graph with implicit sources needs n >= 1 vertices, got {n}")
            if len(self.v) != self.m * n:
                raise ValueError(f"implicit sources need m*n = {self.m * n} targets, got {len(self.v)}")
        else:
            self.m, self._u = None, _ids(u)
            if len(self._u) != len(self.v):
                raise ValueError(f"u and v must have one length, got {len(self._u)} and {len(self.v)}")

    @property
    def num_edges(self) -> int:
        return len(self.v)

    @property
    def u(self) -> np.ndarray:
        """The sources; implicit ones are built anew on each read."""
        return self.sources(0, self.num_edges)

    def sources(self, lo: int, hi: int, x=None) -> np.ndarray:
        """u[lo:hi], or x[u[lo:hi]] for an array x over the vertices.
        With implicit sources that is a range of ids, or a slice of x, each
        repeated m times and trimmed to the edges lo .. hi-1: no gather."""
        if self.m is None:
            u = self._u[lo:hi]
            return u if x is None else _gather(x, u)
        m = self.m
        first = lo // m
        last = min(-(-hi // m), self.n)  # one past the source of edge hi - 1
        ids = np.arange(first, last) if x is None else x[first:last]
        return ids.repeat(m)[lo - first * m : hi - first * m]

    def targets(self, lo: int, hi: int, x=None) -> np.ndarray:
        """v[lo:hi], or x[v[lo:hi]] for an array x over the vertices."""
        v = self.v[lo:hi]
        return v if x is None else _gather(x, v)

    def degree_array(self) -> np.ndarray:
        """Each vertex's degree, int64.  np.bincount reads int64 ids as they
        are, but would copy int32 ones to intp first (8 B/edge), so those
        are counted in place by np.add.at, through a fixed 70 KB buffer,
        once none is negative: np.add.at would count one from the end, where
        np.bincount raises ValueError."""
        deg = None
        for ids in (self.v,) if self.m else (self.v, self._u):
            if ids.dtype == np.int64:
                counts = np.bincount(ids, minlength=self.n)
                deg = counts if deg is None else np.add(deg, counts, out=deg)  # two n-sized arrays at the peak
            elif ids.min(initial=0) < 0:
                raise ValueError("negative vertex id")
            else:
                deg = np.zeros(self.n, np.int64) if deg is None else deg
                np.add.at(deg, ids, 1)
        if self.m:
            deg += self.m  # every vertex owns m slots
        return deg


def seed_graph(m: int) -> Multigraph:
    """Doubled complete graph on m+1 vertices: every pair joined by two
    parallel edges, so each degree is 2m and there are m(m+1) edges.
    Vertex u's slots u*m ... u*m+m-1 point at the other m vertices in
    order, so each pair's two edges have opposite owners."""
    m = integer(m, "m", 1)
    j = np.arange(m)
    u = np.arange(m + 1)[:, None]  # one row of m slots per vertex
    return Multigraph(m + 1, m, (j + (j >= u)).ravel())


_DRAW_BLOCK = 1 << 15  # slot draws tried per block of 32-bit words
_RESOLVE_BLOCK = 1 << 14  # slots resolved per block, in slot order
_LOW = np.uint64(0xFFFFFFFF)


def _draw_below(b: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> None:
    """rng.integers(b) for uint64 bounds 2 <= b <= 2**32, drawn from raw
    PCG64 words: the same int64 values, and the same bit_generator.state
    after, buffered half-word included (numpy takes no word for b = 1).
    The values go to out, a contiguous int64 array of len(b).

    numpy's 32-bit Lemire step (Lemire, ACM TOMACS 29(1), 2019) takes one
    32-bit word w per try, the low half of each 64-bit output first, and
    returns (w*b) >> 32 unless (w*b) mod 2**32 < (2**32 - b) mod b, when it
    tries again with the next word.  Each block multiplies its draws by as
    many words at once and keeps those before its first rejection, which
    shifts every later draw by one word, so the next block starts at the
    rejected draw.  A block after a rejection spans about twice the draws
    kept and doubles while none is rejected, which bounds the work where
    rejections are frequent (b near 2**32).
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        raise TypeError(f"slot draws read PCG64 words, got {type(bg).__name__}")
    state = bg.state
    # buf[lo:hi] holds the words drawn and not yet read, a buffered high
    # half first; a pull moves them to the front and appends whole outputs.
    n = min(len(b), _DRAW_BLOCK)
    buf = np.empty(n + 1, np.uint64)
    prod, low, near = np.empty(n, np.uint64), np.empty(n, np.uint64), np.empty(n, bool)
    high = buf[0] = state["uinteger"]  # the last high half drawn
    lo, hi = 0, state["has_uint32"]
    words = out.view(np.uint64)
    done, block = 0, _DRAW_BLOCK
    while done < len(b):
        k = min(len(b) - done, block)
        if hi - lo < k:  # never a whole output more than the draws need
            hi -= lo
            buf[:hi] = buf[lo : lo + hi]
            raw = bg.random_raw((k - hi + 1) // 2)
            halves = buf[hi : hi + 2 * len(raw)].reshape(-1, 2)
            np.bitwise_and(raw, _LOW, out=halves[:, 0])
            np.right_shift(raw, 32, out=halves[:, 1])
            lo, hi, high = 0, hi + 2 * len(raw), int(raw[-1]) >> 32
        r = b[done : done + k]
        np.multiply(buf[lo : lo + k], r, out=prod[:k])
        np.bitwise_and(prod[:k], _LOW, out=low[:k])
        # The threshold (2**32 - r) mod r is below r: test low < r first.
        at = np.flatnonzero(np.less(low[:k], r, out=near[:k]))
        reject = at[low[at] < (_LOW - r[at] + 1) % r[at]]
        kept = int(reject[0]) if reject.size else k
        np.right_shift(prod[:kept], 32, out=words[done : done + kept])
        done += kept
        lo += kept + (kept < k)
        block = min(2 * block if kept == k else 2 * kept + 1, _DRAW_BLOCK)
    state = bg.state
    state["has_uint32"], state["uinteger"] = hi - lo, high
    bg.state = state


def draw_slots(gp: GeneratorParams, t, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """The m slot draws of one growth step per entry of t, each step
    reading a graph of t[i] vertices: shape (len(t), m), holding a vertex
    id where the slot's target is that vertex and ~j (negative) where it
    is the target of edge slot j < m*t[i].  They are written to out (a
    C-contiguous int64 array of that shape) when given.

    Each t[i] is a size (the seed's m+1 vertices at least) and m*t[i] at
    most 2**32, else ValueError.  The uniform slots j come from
    _draw_below, equal to rng.integers over the bounds m*t[i], and one
    rng.random call then decides every slot.  rng must be a PCG64
    Generator, as np.random.default_rng makes."""
    m, k, beta = gp.m, gp.k, gp.beta
    p_ptr = m / (2 * m + gp.c)
    t = np.asarray(t, dtype=np.int64)
    if t.size:
        size(t.min(), m)
        slot_count(m * int(t.max()), "m*t")
    if out is None:
        out = np.empty((len(t), m), np.int64)
    _draw_below(np.repeat(t.astype(np.uint64) * np.uint64(m), m), rng, out.reshape(-1))
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

    Synchronous pointer jumping, _RESOLVE_BLOCK slots at a time in slot
    order: each round gathers v at the pointed-to slots into a temporary
    before writing any of them, so every chain still open halves in
    length.  Earlier blocks are resolved already, so a pointer into one
    ends in one gather; a pointer forward only takes more rounds.
    """
    for lo in range(0, len(v), _RESOLVE_BLOCK):
        idx = np.flatnonzero(v[lo : lo + _RESOLVE_BLOCK] < 0)
        idx += lo
        while idx.size:
            nxt = v[~v[idx]]
            v[idx] = nxt
            idx = idx[nxt < 0]


def generate(gp: GeneratorParams, n: int, seed) -> Multigraph:
    """Grow a graph to n vertices; a fixed (gp, n, seed) gives a
    bit-identical edge list.  n is a size, seed an integer >= 0.  The
    graph holds its m*n targets alone (8 B/edge), its sources implicit.
    At m = 2 and n = 1e6 the tracemalloc peak is 25.9 B/edge, set inside
    draw_slots."""
    m = gp.m
    n, seed = size(n, m), integer(seed, "seed", 0)
    slot_count(m * (n - 1), "m*(n-1)")  # the last step's draw, before any allocation
    clique = seed_graph(m).v
    rng = np.random.default_rng(seed)
    v = np.empty(m * n, dtype=np.int64)
    v[: len(clique)] = clique
    draw_slots(gp, np.arange(m + 1, n), rng, v[len(clique) :].reshape(-1, m))
    resolve_pointers(v)
    return Multigraph(n, m, v)


_EXPORT_CHUNK = 1 << 16  # edges formatted by one pass of numpy calls


def export_edge_list(g: Multigraph, path) -> None:
    """Write one "u v" line per edge (0-based ids, repeats = multiplicity)
    to the file at path (a str or os.PathLike).  A negative id raises
    ValueError before the file is opened.

    Each chunk of edges is formatted in a fixed set of buffers: its ids
    in a (k, 2) block (implicit sources made for the chunk alone), their
    L digits (L from the largest id) peeled by floor division into a
    (k, 2, L+1) byte block whose last column holds the separator, and one
    boolean compress that drops the leading zeros.  At m = 2 the
    tracemalloc peak is 2.2 B/edge at n = 1e6 (0.11-0.15 s), a buffer of
    4.3 MB that does not grow with E; n = 2e5 takes 0.035 s and n = 1e7
    2.0 s.
    """
    E = g.num_edges
    u = g._u if g.m is None else np.array([0, g.n - 1])  # implicit sources span 0 .. n-1
    if min(u.min(initial=0), g.v.min(initial=0)) < 0:
        raise ValueError("negative vertex id")
    top = int(max(u.max(initial=0), g.v.max(initial=0)))
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
            x[:, 0] = g.sources(start, start + j)
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

    Either parser returns u and v as int32 while 2E < 2**31 (the ids are
    below 2E), else int64, so the graph's ids do not depend on which one
    read the text.

    The numpy path cuts the file at line ends (CR or LF) into blocks of
    about _READ_BLOCK bytes and maps two passes over them on thread_map's
    threads: one counts each block's edges, the other parses the block
    again into its slice of u and v.  So no copy of the whole file is
    held: at m = 2 on two threads the tracemalloc peak is u and v
    (8 B/edge as int32) plus 0.7 MiB, 9.8 B/edge at n = 2e5 and 8.4 at
    n = 1e6 (17.8 and 16.4 with int64 ids).  n = 2e5 takes 0.03 s (0.05 s
    on one thread), n = 1e6 0.13-0.17 s (0.26-0.30 s on one).
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
    u = np.empty(E, dtype=_id_type(E))
    v = np.empty_like(u)

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
    ids = _id_type(len(us))
    return np.array(us, dtype=ids), np.array(vs, dtype=ids)


def child_seed(root_seed: int, *key: int) -> int:
    """Deterministic per-run seed derived from a root seed and an index key,
    each an integer >= 0 (1.5 is rejected, never read as 1).

    Uses a seed sequence so independent (n, seed-index) runs get
    statistically independent, platform-stable streams.
    """
    ss = np.random.SeedSequence([integer(root_seed, "root_seed", 0), *[integer(x, "key", 0) for x in key]])
    return int(ss.generate_state(2, dtype=np.uint64)[0])
