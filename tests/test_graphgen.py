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

from panet import graphgen, metrics, parallel
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
from panet.metrics import clustering, degree_profile
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
        with pytest.raises(ValueError, match=r"^m must be an integer >= 1, got 2.5$"):
            seed_graph(2.5)


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

    def test_slot_count_checked_before_allocation(self):
        # At m = 2, n = 2**31 + 2 the last step draws over 2**32 + 2 slots,
        # past numpy's 32-bit draws; the check comes before the seed graph.
        with mock.patch.object(graphgen, "seed_graph", side_effect=AssertionError("allocated")):
            with pytest.raises(ValueError, match=r"^m\*\(n-1\) must count 1 to 2\*\*32 edge slots, got 4294967298$"):
                generate(GP, 2**31 + 2, seed=0)
            with pytest.raises(AssertionError, match="allocated"):  # 2**32 slots pass
                generate(GeneratorParams(1, 0.0, 0.0), 2**32 + 1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            generate(GP, 10, seed=-1)

    def test_integral_float_size_and_seed(self):
        # n = 1000.0 once gave a graph whose n was a float, which
        # degree_profile and clustering reject.
        g, ref = generate(GP, 1000.0, np.float64(1.0)), generate(GP, 1000, 1)
        assert g.n == 1000 and type(g.n) is int
        assert (g.u == ref.u).all() and (g.v == ref.v).all()

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (1000.5, 1, r"^size n must be an integer >= 3, got 1000.5$"),
            (1000, 1.5, r"^seed must be an integer >= 0, got 1.5$"),  # once numpy's TypeError
            (1000, True, r"^seed must be an integer >= 0, got True$"),
        ],
        ids=["n", "seed", "seed_bool"],
    )
    def test_non_integer_size_or_seed_rejected(self, n, seed, message):
        with pytest.raises(ValueError, match=message):
            generate(GP, n, seed)

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


def _explicit(g):
    """g with its sources held as an array."""
    return Multigraph(g.n, g.u, g.v)


class TestMultigraph:
    @pytest.mark.parametrize(
        "n, u, v, message",
        [
            (3, [0, 1, 2], [1, 2], r"^u and v must have one length, got 3 and 2$"),
            (3, [0], [1, 2, 0], r"^u and v must have one length, got 1 and 3$"),
            (3, 2, [1, 2, 0, 2, 0], r"^implicit sources need m\*n = 6 targets, got 5$"),
            (2, 3, [1] * 5, r"^implicit sources need m\*n = 6 targets, got 5$"),
            (0, 2, [], r"^a graph with implicit sources needs n >= 1 vertices, got 0$"),
            (3, 0, [], r"^m must be an integer >= 1, got 0$"),
        ],
        ids=["u_longer", "v_longer", "short_targets", "long_m", "no_vertices", "m_zero"],
    )
    def test_bad_shape_rejected(self, n, u, v, message):
        # Sources and targets of two lengths once reached degree_profile,
        # whose first np.add.at failed with "array is not broadcastable".
        with pytest.raises(ValueError, match=message):
            Multigraph(n, u, v)

    @pytest.mark.parametrize("ids", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "n, u, v", [(3, [0, -1], [1, 2]), (3, [0, 1], [2, -3]), (2, 1, [-1, 0])], ids=["source", "target", "implicit"]
    )
    def test_negative_id_rejected(self, n, u, v, ids):
        # np.add.at, which counts int32 ids, would count a negative one
        # from the end of the degrees; np.bincount, for int64 ids, raises.
        g = Multigraph(n, u if u == 1 else np.array(u, ids), np.array(v, ids))
        for read in (Multigraph.degree_array, degree_profile, clustering):
            with pytest.raises(ValueError, match="negative"):
                read(g)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sources_equal_explicit(self, m):
        g = generate(derive_generator_params(m, 0.3, 0.2 if m > 1 else 0.0), 9, seed=m)
        h, x = _explicit(g), np.arange(100, 100 + g.n) ** 2
        assert g.m == m and h.m is None
        assert g.u.tolist() == [e // m for e in range(g.num_edges)]
        for lo in range(g.num_edges + 1):
            for hi in range(lo, g.num_edges + 3):  # past the last edge too
                assert np.array_equal(g.sources(lo, hi), h.sources(lo, hi)), (lo, hi)
                assert np.array_equal(g.sources(lo, hi, x), x[h.u[lo:hi]]), (lo, hi)
        assert np.array_equal(g.degree_array(), h.degree_array())

    # Chunks of 1, 3 and 7 edges end inside a vertex's m slots at every m
    # here but 1.
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_readers_equal_on_explicit_copy(self, m, chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(metrics, "_EDGE_CHUNK", chunk)
        monkeypatch.setattr(graphgen, "_EXPORT_CHUNK", chunk)
        monkeypatch.setattr(graphgen, "_GATHER_CHUNK", chunk)
        g = generate(derive_generator_params(m, 0.3, 0.2 if m > 1 else 0.0), 60, seed=10 + m)
        _assert_exports_like_writer(g, tmp_path / "g.txt")
        # The int64 copy, and the int32 one an import makes, are kept as given.
        for ids in (np.int64, np.int32):
            h = Multigraph(g.n, g.u.astype(ids), g.v.astype(ids))
            assert h._u.dtype == h.v.dtype == ids
            assert degree_profile(g) == degree_profile(h)
            assert clustering(g) == clustering(h)
            export_edge_list(h, tmp_path / "h.txt")
            assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "h.txt").read_bytes()

    def test_generated_graph_is_its_targets(self):
        # v alone is 8 B/edge; the sources are never built into the graph,
        # so reading u, profiling and clustering leave nothing behind.
        # Measured: 8.00 after generate and 8.05 after the reads.
        generate(GP, 1000, seed=0)  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            g = generate(GP, 100_000, seed=1)
            held = tracemalloc.get_traced_memory()[0]
            assert len(g.u) == g.num_edges
            degree_profile(g)
            clustering(g)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 8.5 * g.num_edges, f"the graph holds {held / g.num_edges:.2f} B/edge"
        assert after <= 8.5 * g.num_edges, f"after its reads it holds {after / g.num_edges:.2f} B/edge"


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

    @pytest.mark.parametrize(
        "m, t",
        [
            (1, [3 * 2**30] * 501),  # rejects (2**32 mod b) / 2**32 = 1/4 of words
            (1, [3 * 2**30] * 500),
            (2, [2**30 + 1] * 250),  # b = 2**31 + 2 rejects almost 1/2
            (2, [2**30 + 1] * 20_001),  # many blocks, each cut by rejections
            (1, [2**32] * 7),  # b = 2**32 takes each word as it is
            (2, [2**31] * 4),
            (3, list(range(4, 40_003, 3))),  # 39999 draws over two blocks, no rejection
        ],
        ids=["quarter_odd", "quarter_even", "half", "half_blocks", "2**32_odd", "2**32_even", "odd"],
    )
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_equals_integers_values_and_state(self, m, t, buffered):
        """Against draw_slots_masked, which calls rng.integers: the same
        slots and the same bit_generator.state after, buffered half-word
        and all, so every later draw reads the same stream."""
        got = []
        for draw in (draw_slots, draw_slots_masked):
            rng = np.random.default_rng(2024)
            if buffered:
                rng.integers(10)  # takes the low half of one output, buffers the high
                assert rng.bit_generator.state["has_uint32"] == 1
            got.append((draw(GeneratorParams(m, 0.0, 0.0), t, rng), rng.bit_generator.state, rng.random()))
        (a, state_a, next_a), (b, state_b, next_b) = got
        assert np.array_equal(a, b) and state_a == state_b and next_a == next_b

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.lists(st.integers(2, 2**32) | st.integers(2, 50), max_size=60),
        buffered=st.booleans(),
        block=st.sampled_from([1, 3, 1 << 15]),
        seed=st.integers(0, 2**63),
    )
    def test_equals_integers_on_any_bounds(self, t, buffered, block, seed):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        if buffered:
            for rng in rngs:
                rng.integers(10)
        with mock.patch.object(graphgen, "_DRAW_BLOCK", block):
            got = draw_slots(GeneratorParams(1, 0.0, 0.0), t, rngs[0])
        want = draw_slots_masked(GeneratorParams(1, 0.0, 0.0), t, rngs[1])
        assert np.array_equal(got, want)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize(
        "m, t, message",
        [
            (1, [2**32 + 1], r"^m\*t must count 1 to 2\*\*32 edge slots, got 4294967297$"),
            (2, [5, 2**31 + 1], r"^m\*t must count 1 to 2\*\*32 edge slots, got 4294967298$"),
            (2, [5, 2], r"^size n must be an integer >= 3, got 2$"),
            (1, [-1], r"^size n must be an integer >= 2, got -1$"),
        ],
    )
    def test_out_of_range_steps_rejected(self, m, t, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            draw_slots(GeneratorParams(m, 0.0, 0.0), t, rng)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_other_bit_generator_rejected(self):
        with pytest.raises(TypeError, match="PCG64"):
            draw_slots(GP, [5], np.random.Generator(np.random.MT19937(0)))


def _random_forests(literal_frac, size=2000):
    """Five forests of `size` slots whose pointers run both ways, each
    with its slots resolved by following one pointer at a time."""
    rng = np.random.default_rng(17)
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
        yield shuffled, expected


class TestResolvePointers:
    @pytest.mark.parametrize("literal_frac", [0.0, 0.1, 0.5, 0.9])
    def test_matches_sequential_on_random_forests(self, literal_frac):
        """Exactly equal to following each slot's chain one pointer at a
        time, on forests whose pointers run both ways."""
        for v, expected in _random_forests(literal_frac):
            resolve_pointers(v)
            assert v.tolist() == expected

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("literal_frac", [0.0, 0.5])
    def test_blocks_match_sequential(self, literal_frac, block):
        """Forests of many blocks: chains cross block edges both ways."""
        with mock.patch.object(graphgen, "_RESOLVE_BLOCK", block):
            for v, expected in _random_forests(literal_frac):
                resolve_pointers(v)
                assert v.tolist() == expected

    def test_long_chain(self):
        v = np.array([7] + [~i for i in range(999)])
        resolve_pointers(v)
        assert (v == 7).all()

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_chains_across_blocks(self, block):
        back = np.array([7] + [~i for i in range(999)])  # slot i points at i-1
        forward = np.array([~(i + 1) for i in range(299)] + [7])  # slot i at i+1
        with mock.patch.object(graphgen, "_RESOLVE_BLOCK", block):
            resolve_pointers(back)
            resolve_pointers(forward)
        assert (back == 7).all() and (forward == 7).all()

    def test_generate_same_at_any_block(self):
        want = generate(GP, 500, seed=3).v
        with mock.patch.object(graphgen, "_RESOLVE_BLOCK", 5):
            assert np.array_equal(generate(GP, 500, seed=3).v, want)


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

    def test_id_type_rule(self):
        # Ids are below 2E, so 2E < 2**31 fits every one in int32.
        assert graphgen._id_type(2**30 - 1) is np.int32
        assert graphgen._id_type(2**30) is np.int64

    @pytest.mark.parametrize("text", ["0 1\n2 3\n", "+0 1\n2 3\n"], ids=["numpy_path", "line_scanner"])
    def test_both_parsers_follow_the_rule(self, text, monkeypatch, tmp_path):
        # No test file reaches 2E = 2**31, so the rule is patched to int64.
        monkeypatch.setattr(graphgen, "_id_type", lambda num_edges: np.int64)
        path = tmp_path / "g.txt"
        path.write_text(text)
        g = import_edge_list(path)
        assert g.u.dtype == g.v.dtype == np.int64
        assert (g.u.tolist(), g.v.tolist()) == ([0, 2], [1, 3])

    @pytest.mark.parametrize(
        "text",
        [
            "12345678901234567890 1\n0 1\n",  # beyond int64: saturates, fails id < 2E
            "0 1 2\n3\n",  # an even id count on ragged lines
            "0 1\r2 3\n",  # a CR inside a line, which ends it in a file
            " \n\t\n0 1\n1 2\n \t \n\n",  # whitespace-only lines around the edges
            "+0 1\n2 3\n",  # valid, read by the line scanner alone
        ],
        ids=["twenty_digits", "ragged", "inner_cr", "whitespace_lines", "plus_sign"],
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
    scanner reads from it in text mode, as int32 (2E < 2**31 here) from
    either parser, or raises the scanner's message."""
    path.write_bytes(text.encode())
    with open(path) as fh:
        want = _outcome(lambda: (*scan_edge_list(fh), np.int32, np.int32))

    def read():
        g = import_edge_list(path)
        return g.u.tolist(), g.v.tolist(), g.u.dtype, g.v.dtype

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
        assert h.u.dtype == h.v.dtype == np.int32

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
        # as int32 (8 B/edge) and under 1 MiB; measured 9.8 B/edge at
        # n = 2e5 and 8.4 at n = 1e6.  int64 ids (16 B/edge), or a reader
        # that held the whole file (12-14 B/edge here), are over.
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
        assert peak < 8 * E + 2 * 2**20, f"import peaked at {peak / E:.1f} B/edge"

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

    def test_integer_seeds_kept(self):
        assert child_seed(7, 1, 2) == 6837620415509415036
        assert child_seed(20240901, 100_000, 3) == 13449894854870675013
        assert child_seed(np.int64(7), 1.0, np.uint8(2)) == child_seed(7, 1, 2)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5, 3), r"^root_seed must be an integer >= 0, got 1.5$"),
            ((1, 2.5), r"^key must be an integer >= 0, got 2.5$"),
            ((1, -1), r"^key must be an integer >= 0, got -1$"),
            ((True, 3), r"^root_seed must be an integer >= 0, got True$"),
        ],
    )
    def test_non_integer_rejected(self, args, message):
        # child_seed(1.5, 3) was once child_seed(1, 3).
        with pytest.raises(ValueError, match=message):
            child_seed(*args)
