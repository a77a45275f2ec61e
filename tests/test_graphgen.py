"""Generator: seed graph shape, determinism, structural invariants, the
slot draws behind the attachment conditions, pointer resolution against a
sequential reference, and edge-list IO."""

import io
import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from panet import graphgen, parallel
from panet.graphgen import (
    Multigraph,
    child_seed,
    draw_slots,
    export_edge_list,
    generate,
    import_edge_list,
    resolve_pointers,
    seed_graph,
)
from panet.metrics import clustering
from panet.params import GeneratorParams, derive_generator_params

from reference import draw_slots_masked, scan_edge_list, write_edge_list

GP = derive_generator_params(2, 0.2, 0.3)  # beta = 0.3, c = 24


def _resolved_steps(g, gp, steps, seed):
    """Targets of `steps` independent growth steps, each drawn from the
    whole of g: shape (steps, m)."""
    d = draw_slots(gp, np.full(steps, g.n), np.random.default_rng(seed))
    return np.where(d >= 0, d, g.v[~d])


class TestSeedGraph:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_doubled_clique_shape(self, m):
        g = seed_graph(m)
        assert g.n == m + 1
        assert g.num_edges == m * (m + 1)
        assert (g.degree_array() == 2 * m).all()
        # Vertex u owns slots u*m ... u*m+m-1, and every pair is joined by
        # two parallel edges with opposite owners.
        assert g.u.tolist() == [e // m for e in range(m * (m + 1))]
        assert Counter(zip(g.u.tolist(), g.v.tolist())) == {
            (a, b): 1 for a in range(m + 1) for b in range(m + 1) if a != b
        }

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            seed_graph(0)


class TestGenerate:
    def test_edge_count_invariant(self):
        g = generate(GP, 500, seed=1)
        assert g.n == 500
        assert g.num_edges == 2 * 500
        assert (g.u == np.arange(g.num_edges) // 2).all()
        assert g.degree_array().sum() == 2 * g.num_edges

    def test_determinism_and_seed_sensitivity(self):
        a = generate(GP, 300, seed=42)
        b = generate(GP, 300, seed=42)
        c = generate(GP, 300, seed=43)
        assert a.v.tolist() == b.v.tolist()
        assert a.v.tolist() != c.v.tolist()

    def test_new_edges_point_backwards(self):
        # Every non-seed edge joins the new vertex to a strictly older one,
        # so no self-loops and no intra-step targets.
        g = generate(GP, 200, seed=3)
        seed_edges = GP.m * (GP.m + 1)
        assert (g.v[seed_edges:] < g.u[seed_edges:]).all()
        assert (g.v >= 0).all()

    def test_matches_stepwise_reference(self):
        # generate must equal growing the graph one slot at a time from the
        # same draws, each pointer read from the slots already placed.
        n = 400
        for A, D in ((0.2, 0.3), (0.6, 0.2)):
            gp = derive_generator_params(2, A, D)
            draws = draw_slots(gp, np.arange(3, n), np.random.default_rng(5))
            targets = seed_graph(2).v.tolist()
            for x in draws.ravel().tolist():
                targets.append(x if x >= 0 else targets[~x])
            assert generate(gp, n, seed=5).v.tolist() == targets

    def test_too_small_n(self):
        with pytest.raises(ValueError, match="n must be"):
            generate(GP, 2, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            generate(GP, 10, seed=-1)

    @pytest.mark.parametrize("A, D", [(0.25, 0.0), (0.5, 0.2), (0.6, 0.2)])
    def test_other_regimes_run(self, A, D):
        gp = derive_generator_params(2, A, D)
        g = generate(gp, 400, seed=9)
        assert g.num_edges == 800

    def test_m1_generator(self):
        gp = derive_generator_params(1, 0.4, 0.0)
        g = generate(gp, 300, seed=2)
        assert g.num_edges == 300

    def test_triangle_density_monotone_in_beta(self):
        # More edge-copy slots mean more closed triangles.
        c1 = []
        for beta in (0.0, 0.5, 1.0):
            gp = GeneratorParams(m=2, beta=beta, c=5.0)
            vals = [clustering(generate(gp, 2000, seed=s)).C1 for s in range(5)]
            c1.append(sum(vals) / len(vals))
        assert c1[0] < c1[1] < c1[2]


@st.composite
def _slot_draws(draw):
    """Generator knobs over every slot layout (m = 1 has no pair-slot, odd
    m ends in a single slot), step arrays holding t = m + 1, and a seed."""
    m = draw(st.integers(1, 6))
    beta = 0.0 if m == 1 else draw(st.floats(0.0, 1.0))
    c = draw(st.just(0.0) | st.floats(-m, 50.0, exclude_min=True))
    t = draw(st.lists(st.integers(m + 1, 10**6), max_size=300))
    t.insert(draw(st.integers(0, len(t))), m + 1)
    return GeneratorParams(m, beta, c), t, draw(st.integers(0, 2**63))


class TestDrawSlots:
    @settings(max_examples=300, deadline=None)
    @given(case=_slot_draws())
    def test_equals_masked_decode(self, case):
        gp, t, seed = case
        got = draw_slots(gp, t, np.random.default_rng(seed))
        want = draw_slots_masked(gp, t, np.random.default_rng(seed))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestResolvePointers:
    @pytest.mark.parametrize("literal_frac", [0.0, 0.1, 0.5, 0.9])
    def test_matches_sequential_on_random_forests(self, literal_frac):
        """Exactly equal to following each slot's chain one pointer at a
        time, on forests whose pointers run both ways."""
        rng = np.random.default_rng(17)
        size = 2000
        for _ in range(5):
            # A forest with every pointer aimed at an earlier slot, then its
            # slots shuffled so pointers also point forward.
            v = rng.integers(0, 10**6, size)
            ptr = rng.random(size) >= literal_frac
            ptr[0] = False
            v[ptr] = ~rng.integers(0, np.flatnonzero(ptr))
            pos = rng.permutation(size)  # slot i moves to pos[i]
            shuffled = np.empty_like(v)
            shuffled[pos] = np.where(v >= 0, v, ~pos[~np.minimum(v, -1)])
            expected = []
            for x in shuffled.tolist():
                while x < 0:
                    x = int(shuffled[~x])
                expected.append(x)
            resolve_pointers(shuffled)
            assert shuffled.tolist() == expected

    def test_long_chain(self):
        v = np.array([7] + [~i for i in range(999)])
        resolve_pointers(v)
        assert (v == 7).all()


class TestShiftedPASampling:
    @pytest.mark.parametrize("c", [24.0, 0.0, -1.5])
    def test_marginal_distribution(self, c):
        """Chi-square test of P(v) = (deg(v)+c)/(2E+cn) on a fixed graph."""
        g = generate(GP, 50, seed=11)
        hits = _resolved_steps(g, GeneratorParams(m=2, beta=0.0, c=c), 100_000, 1234).ravel()
        counts = np.bincount(hits, minlength=g.n)
        total = 2 * g.num_edges + c * g.n
        expected = hits.size * (g.degree_array() + c) / total
        stat, p = chisquare(counts, expected)
        assert p > 0.01, f"c={c}: chi2={stat:.1f}, p={p:.4f}"

    def test_uniform_edge(self):
        """An edge-copy takes both endpoints of a uniform edge."""
        g = seed_graph(2)  # 6 edges, two per vertex pair
        pairs = np.sort(_resolved_steps(g, GeneratorParams(m=2, beta=1.0, c=0.0), 3000, 0), axis=1)
        counts = Counter(map(tuple, pairs.tolist()))
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        stat, p = chisquare(list(counts.values()))
        assert p > 0.01, f"chi2={stat:.1f}, p={p:.4f}"

    def test_empty_snapshot_rejected(self):
        with pytest.raises(ValueError):
            draw_slots(GP, [0], np.random.default_rng(0))


class TestStepIncrementProbabilities:
    def test_marginal_increment_probability(self):
        """One growth step hits vertex v with probability A*d(v)/n + B/n
        up to O(1/n^2); checked for a low- and a high-degree vertex."""
        g = generate(GP, 1000, seed=21)
        degs = g.degree_array()
        lo = int(np.flatnonzero(degs == 2)[0])
        hi = int(np.argmax(degs))
        trials = 400_000
        targets = _resolved_steps(g, GP, trials, 77)
        A, B, n = 0.2, 1.2, g.n
        for v in (lo, hi):
            hits = int((targets == v).any(axis=1).sum())
            p0 = (A * degs[v] + B) / n
            se = math.sqrt(p0 * (1 - p0) / trials)
            assert abs(hits / trials - p0) < 3 * se + 0.02 * p0, (
                f"v={v} deg={degs[v]}: got {hits / trials:.5f}, want {p0:.5f}"
            )

    def test_joint_increment_probability(self):
        """Both endpoints of an existing edge (i,j) gain degree together
        with probability ~ e_ij * D / (m*n)."""
        g = generate(GP, 2000, seed=31)
        i, j = int(g.u[500]), int(g.v[500])
        e_ij = int((((g.u == i) & (g.v == j)) | ((g.u == j) & (g.v == i))).sum())
        trials = 1_000_000
        targets = _resolved_steps(g, GP, trials, 99)
        joint = int(((targets == i).any(axis=1) & (targets == j).any(axis=1)).sum())
        p0 = e_ij * 0.3 / (2 * g.n)
        se = math.sqrt(p0 * (1 - p0) / trials)
        assert abs(joint / trials - p0) < 3 * se + 0.05 * p0, (
            f"e_ij={e_ij}: got {joint / trials:.3e}, want {p0:.3e}"
        )


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = generate(GP, 150, seed=8)
        path = str(tmp_path / "g.txt")
        export_edge_list(g, path)
        h = import_edge_list(path)
        assert h.u.tolist() == g.u.tolist() and h.v.tolist() == g.v.tolist()
        assert h.degree_array().tolist() == g.degree_array().tolist()

    @pytest.mark.parametrize("E", [0, 1, 2 * 2**16 + 123])
    def test_bytes_match_per_edge_writer(self, E, tmp_path):
        # Ids of seven digits and more, and a partial last chunk.
        rng = np.random.default_rng(E)
        u = rng.integers(10**6, 10**8, size=E)
        g = Multigraph(10**8, u, u + rng.integers(1, 10**6, size=E))
        want = io.StringIO()
        export_edge_list(g, tmp_path / "g.txt")
        write_edge_list(g, want)
        assert (tmp_path / "g.txt").read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("top", [2**32 - 1, 2**32, 2**63 - 1])
    def test_bytes_at_digit_boundaries(self, top, tmp_path):
        ids = sorted({0, 2**32 - 1, 2**32, 2**63 - 1} | {10**j + s for j in range(19) for s in (-1, 0)})
        ids = np.array([i for i in ids if i <= top], dtype=np.int64)
        g = Multigraph(len(ids), ids, ids[::-1])  # widths mixed on most lines
        _assert_exports_like_writer(g, tmp_path / "g.txt")

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("E", [0, 1, 6, 7, 8, 13, 14, 15])
    def test_bytes_across_chunk_ends(self, chunk, E, monkeypatch, tmp_path):
        monkeypatch.setattr(graphgen, "_EXPORT_CHUNK", chunk)
        u = np.arange(E) * 37
        _assert_exports_like_writer(Multigraph(37 * E + 1, u, u + 1 + E % 3), tmp_path / "g.txt")

    @settings(max_examples=80, deadline=None)
    @given(
        uv=st.lists(
            st.tuples(*[st.one_of(st.integers(0, 120), st.integers(0, 2**33), st.integers(0, 2**63 - 1))] * 2),
            max_size=30,
        ),
        chunk=st.sampled_from([1, 3, 7, 2**16]),
    )
    def test_bytes_match_writer_property(self, uv, chunk, tmp_path_factory):
        u, v = np.array(uv, dtype=np.int64).reshape(-1, 2).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphgen, "_EXPORT_CHUNK", chunk)
            _assert_exports_like_writer(Multigraph(0, u, v), tmp_path_factory.getbasetemp() / "w.txt")

    def test_negative_id_writes_nothing(self, tmp_path):
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError, match="negative vertex id"):
            export_edge_list(Multigraph(3, [0, 1], [2, -1]), path)
        assert not path.exists()

    @pytest.mark.parametrize("n", [200_000, 1_000_000])
    def test_export_peak_is_a_fixed_buffer(self, n, tmp_path):
        g = generate(GP, n, seed=3)
        tracemalloc.start()
        try:
            export_edge_list(g, tmp_path / "g.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"export peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0 1\n2 2\n", "self-loop"),
            ("0 1 2\n", "expected"),
            ("0 x\n", "non-integer"),
            ("-1 2\n", "negative"),
            ("", "empty"),
        ],
    )
    def test_malformed_inputs(self, text, match, tmp_path):
        (tmp_path / "g.txt").write_text(text)
        with pytest.raises(ValueError, match=match):
            import_edge_list(tmp_path / "g.txt")

    @settings(max_examples=60, deadline=None)
    @given(
        A=st.sampled_from([0.2, 0.25, 0.5, 0.6, 0.75]),
        n=st.integers(3, 400),
        seed=st.integers(0, 2**32),
    )
    def test_round_trip_property(self, A, n, seed, tmp_path_factory):
        g = generate(derive_generator_params(2, A, 0.2), n, seed=seed)
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        export_edge_list(g, path)
        h = import_edge_list(path)
        assert h.n == g.n
        assert h.u.tolist() == g.u.tolist() and h.v.tolist() == g.v.tolist()

    @pytest.fixture
    def no_scanner(self, monkeypatch):
        def fail(text):
            raise AssertionError("import_edge_list fell back to the line scanner")

        monkeypatch.setattr(graphgen, "_scan_lines", fail)

    @pytest.mark.parametrize("form", ["path", "crlf", "tabs", "blank_lines"])
    def test_exported_text_skips_scanner(self, form, no_scanner, tmp_path):
        g = generate(GP, 300, seed=9)
        path = tmp_path / "g.txt"
        export_edge_list(g, str(path))
        text = path.read_text()
        if form == "crlf":
            text = text.replace("\n", "\r\n")
        elif form == "tabs":
            text = text.replace(" ", "\t")
        elif form == "blank_lines":
            text = "\n \t\n" + text.replace("\n", "\n\n") + " \n\t"
        path.write_bytes(text.encode())
        h = import_edge_list(str(path))
        assert h.u.tolist() == g.u.tolist() and h.v.tolist() == g.v.tolist()

    @pytest.mark.parametrize(
        "text",
        [
            "12345678901234567890 1\n0 1\n",  # beyond int64: saturates, fails id < 2E
            "0 1 2\n3\n",  # an even id count on ragged lines
            "0 1\r2 3\n",  # a CR inside a line, which ends it in a file
            " \n\t\n0 1\n1 2\n \t \n\n",  # whitespace-only lines around the edges
        ],
        ids=["twenty_digits", "ragged", "inner_cr", "whitespace_lines"],
    )
    def test_pinned_texts_match_line_scanner(self, text, tmp_path):
        _assert_matches_line_scanner(text, tmp_path / "g.txt")


# Texts over digits, space, tab, CR, LF, '-', 'x' and '#': unstructured,
# and as lines that are mostly "u v" pairs of small ids, so that valid edge
# lists (and self-loops, ids >= 2E, stray tokens) come up often.
_SEP = st.sampled_from([" ", "\t", " \t ", "\r"])
_PAD = st.sampled_from(["", " ", "\t", "\r"])
_PAIR = (
    st.tuples(st.integers(0, 3), _SEP, st.integers(0, 3), _PAD)
    .filter(lambda t: t[0] != t[2])
    .map(lambda t: f"{t[3]}{t[0]}{t[1]}{t[2]}{t[3]}")
)
_TOKEN = st.one_of(st.integers(0, 9).map(str), st.sampled_from(["10", "007", "-1", "x", "#", "2x"]))
_LINE = st.tuples(st.lists(_TOKEN, max_size=3), _SEP, _PAD).map(lambda t: t[2] + t[1].join(t[0]) + t[2])
_LINES = st.tuples(
    st.lists(st.one_of(*[_PAIR] * 8, _LINE, st.just("")), min_size=1, max_size=8),
    st.sampled_from(["\n", "\n", "\r\n", "\r"]),
).map(lambda t: t[1].join(t[0]))
_TEXTS = st.one_of(st.text(alphabet="0123456789 \t\r\n-x#", max_size=30), _LINES, _LINES)


def _outcome(read):
    try:
        return read()
    except ValueError as exc:
        return str(exc)


def _assert_exports_like_writer(g, path) -> None:
    want = io.StringIO()
    write_edge_list(g, want)
    export_edge_list(g, path)
    assert path.read_bytes() == want.getvalue().encode()


def _assert_matches_line_scanner(text: str, path) -> None:
    """import_edge_list on a file holding text gives the ids the line
    scanner reads from it in text mode, or raises the scanner's message."""
    path.write_bytes(text.encode())
    with open(path) as fh:
        want = _outcome(lambda: scan_edge_list(fh))

    def read():
        g = import_edge_list(path)
        return g.u.tolist(), g.v.tolist()

    assert _outcome(read) == want


@settings(max_examples=400, deadline=None)
@given(text=_TEXTS, block=st.sampled_from([1, 2, 3, 7, 1 << 17]), threads=st.sampled_from([1, 2, 3]))
def test_importer_matches_line_scanner(text, block, threads, tmp_path_factory):
    """import_edge_list accepts exactly the texts the line scanner accepts,
    with the same ids, and otherwise raises the scanner's message; a lone
    CR ends a line, as in text mode.  So it does on 1, 2 or 3 threads and
    for blocks small enough to end inside every kind of line break."""
    with mock.patch.object(graphgen, "_READ_BLOCK", block), mock.patch.object(
        parallel, "cpu_count", lambda: threads
    ):
        _assert_matches_line_scanner(text, tmp_path_factory.getbasetemp() / "edges.txt")


# Malformed texts with the scanner's message for each: test_malformed_inputs'
# cases and the pinned texts that go through the scanner.
_MALFORMED = [
    "0 1\n2 2\n",
    "0 1 2\n",
    "0 x\n",
    "-1 2\n",
    "",
    "12345678901234567890 1\n0 1\n",
    "0 1 2\n3\n",
    " \n\t\n",
]


class TestThreadedImport:
    """The numpy path on 1, 2 and 3 threads (parallel.cpu_count patched),
    over blocks small enough to put block ends inside every kind of line
    break: the ids, and the scanner's message, never depend on either."""

    @pytest.fixture(params=[1, 2, 3], ids=lambda t: f"threads{t}")
    def threads(self, request, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_same_ids(self, threads, block, monkeypatch, tmp_path):
        g = generate(GP, 2000, seed=4)
        path = tmp_path / "g.txt"
        export_edge_list(g, path)
        monkeypatch.setattr(graphgen, "_READ_BLOCK", block)
        h = import_edge_list(path)
        assert h.n == g.n
        assert h.u.tolist() == g.u.tolist() and h.v.tolist() == g.v.tolist()

    @pytest.mark.parametrize("block", [1, 2, 7, 1 << 20])
    @pytest.mark.parametrize("text", _MALFORMED)
    def test_malformed_same_message(self, threads, block, text, monkeypatch, tmp_path):
        monkeypatch.setattr(graphgen, "_READ_BLOCK", block)
        _assert_matches_line_scanner(text, tmp_path / "g.txt")

    def test_blocks_cover_the_file_at_line_ends(self, monkeypatch, tmp_path):
        text = b"0 1\r\n2 3\r4 5\n\n\n6 7"
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        for block in range(1, len(text) + 2):
            monkeypatch.setattr(graphgen, "_READ_BLOCK", block)
            with open(path, "rb") as fh:
                blocks = graphgen._line_blocks(fh.fileno())
            assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
            assert blocks[-1][1] == len(text)
            for start, end in blocks:
                assert end - start >= block or end == len(text)
                # A block ends at its first line end from byte start + block - 1 on.
                tail = text[start + block - 1 : end]
                assert end == len(text) or (tail[-1:] in (b"\r", b"\n") and not any(c in tail[:-1] for c in b"\r\n"))

    def test_crlf_split_between_cr_and_lf(self, threads, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\r\n2 3\r\n")
        monkeypatch.setattr(graphgen, "_READ_BLOCK", 4)
        with open(path, "rb") as fh:
            assert graphgen._line_blocks(fh.fileno()) == [(0, 4), (4, 9), (9, 10)]
        self._assert_reads(path, [0, 2], [1, 3])

    def test_cr_only_line_ends(self, threads, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\r1 2\r2 0\r")
        monkeypatch.setattr(graphgen, "_READ_BLOCK", 3)
        self._assert_reads(path, [0, 1, 2], [1, 2, 0])

    def test_fewer_lines_than_threads(self, threads, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n")
        self._assert_reads(path, [0], [1])
        monkeypatch.setattr(graphgen, "_READ_BLOCK", 1)
        self._assert_reads(path, [0], [1])

    @pytest.mark.parametrize("block", [1, 5, 1 << 20])
    def test_blank_trailing_lines(self, threads, block, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n1 2\n\n \t\n\r\n\n")
        monkeypatch.setattr(graphgen, "_READ_BLOCK", block)
        self._assert_reads(path, [0, 1], [1, 2])

    @pytest.mark.parametrize("bad, match", [("7 x", "non-integer id in '7 x'"), ("5 5", "self-loop at 5")])
    def test_bad_line_in_last_block(self, threads, bad, match, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(("".join(f"{i} {i + 1}\n" for i in range(300)) + bad + "\n").encode())
        monkeypatch.setattr(graphgen, "_READ_BLOCK", 64)
        with pytest.raises(ValueError, match=f"^line 301: {match}"):
            import_edge_list(path)

    @pytest.mark.parametrize("n", [200_000, 1_000_000])
    def test_peak_is_the_ids_plus_a_buffer_per_thread(self, n, monkeypatch, tmp_path):
        # Two threads, each with one block and its parse in hand: u and v
        # (16 B/edge) and under 1 MiB.  A reader that held the whole file
        # (12-14 B/edge here), let alone a copy of its blocks, is over.
        path = tmp_path / "g.txt"
        export_edge_list(generate(GP, n, seed=3), path)
        E = 2 * n
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            import_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) > 2 * 2**20
        assert peak < 16 * E + 2 * 2**20, f"import peaked at {peak / E:.1f} B/edge"

    @staticmethod
    def _assert_reads(path, u, v):
        g = import_edge_list(path)
        assert (g.u.tolist(), g.v.tolist()) == (u, v)
        with open(path) as fh:
            assert scan_edge_list(fh) == (u, v)


class TestChildSeed:
    def test_deterministic_and_distinct(self):
        assert child_seed(7, 1, 2) == child_seed(7, 1, 2)
        seen = {child_seed(7, n, i) for n in range(5) for i in range(50)}
        assert len(seen) == 250
