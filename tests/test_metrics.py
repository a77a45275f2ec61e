"""Graph statistics against hand-computed values on tiny graphs, the
brute-force and loop references, networkx, and the log-binning helper."""

import itertools
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panet import metrics, parallel
from panet.graphgen import Multigraph, export_edge_list, generate, import_edge_list, seed_graph
from panet.metrics import (
    ClusteringProfile,
    clustering,
    degree_profile,
    dnn_empirical,
    pearson_assortativity,
)
from panet.params import derive_generator_params

from reference import (
    brute_force_profile,
    clustering_loop,
    local_clustering_loop,
    log_binned_curve,
    pearson_edges,
    sum_in_order,
    sum_squares,
)


def _graph(n, edges):
    u, v = zip(*edges)
    return Multigraph(n, u, v)


def _doubled_clique(k):
    """Every pair of k vertices joined twice.  The degrees tie, and in rank
    order the out-degrees run from k-1 down to 0."""
    return _graph(k, [(i, j) for i in range(k) for j in range(i)] * 2)


# Out-degrees 4, 8 and 16 fill the searched span 2**halvings exactly.
_SPAN_FILLED = [_doubled_clique(5), _doubled_clique(9), _doubled_clique(17)]
# A triangle plus a pendant at 0, ranked 3 < 1, 2 < 0: the closing edge,
# from the later of 1 and 2 to 0, is the last simple edge, so the search
# steps past the end of the keys.
_LAST_EDGE_CLOSES = _graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
# Degrees 2, 3, 4, 5 for 0, 1, 2, 3 (the rest are leaves): 0 pairs 1 with 3,
# 1's out-list is empty, and the next out-list, 2's, is the edge to 3.
_EMPTY_FIRST = _graph(12, [(0, 1), (0, 3), (1, 4), (1, 5), (2, 3), (2, 6), (2, 7), (2, 8), (3, 9), (3, 10), (3, 11)])


def _imported(g, tmp_path):
    """g written out and read back: int32 ids, its sources explicit."""
    export_edge_list(g, tmp_path / "g.txt")
    h = import_edge_list(tmp_path / "g.txt")
    assert h._u.dtype == h.v.dtype == np.int32
    return h


def _traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def path3():
    return _graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star4():
    return _graph(4, [(0, 1), (0, 2), (0, 3)])


@st.composite
def _multigraphs(draw):
    """Random edges plus a clique of up to 30 and a star on shuffled ids,
    some edges repeated, in random order and orientation: parallel edges,
    isolated vertices, ties in simple degree and long out-lists."""
    n = draw(st.integers(1, 60))
    ids = st.integers(0, n - 1)
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(0, min(n, 30)))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=150))
    edges += [(perm[i], perm[j]) for i in range(k) for j in range(i)]
    edges += [(perm[-1], x) for x in draw(st.lists(ids, max_size=60))]
    edges = [e for e in edges if e[0] != e[1]]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=30))
    edges = draw(st.permutations(edges))
    return Multigraph(n, [a for a, _ in edges], [b for _, b in edges])


class TestDegreeProfile:
    def test_path_hand_values(self, path3):
        p = degree_profile(path3)
        # Degrees 1, 2, 1.  Each leaf's neighbor has degree 2; the center's
        # two neighbors have degree 1 each.
        assert p.N == {1: 2, 2: 1}
        assert p.S == {1: 4, 2: 2}
        assert p.W == 6
        assert dnn_empirical(p, 1) == pytest.approx(2.0)
        assert dnn_empirical(p, 2) == pytest.approx(1.0)

    def test_doubled_clique_hand_values(self):
        p = degree_profile(seed_graph(2))
        # 3 vertices of degree 4; each has 4 neighbor slots of degree 4.
        assert p.N == {4: 3}
        assert p.S == {4: 48}
        assert p.W == 48
        assert dnn_empirical(p, 4) == pytest.approx(4.0)

    def test_invariants_on_generated_graph(self):
        gp = derive_generator_params(2, 0.25, 0.3)
        g = generate(gp, 2000, seed=4)
        p = degree_profile(g)
        assert sum(p.N.values()) == p.n == 2000
        assert sum(d * c for d, c in p.N.items()) == 2 * p.num_edges
        assert sum(p.S.values()) == p.W == sum_squares(g)

    def test_missing_degree_is_nan(self, path3):
        assert math.isnan(dnn_empirical(degree_profile(path3), 7))

    def test_isolated_vertex_is_nan(self):
        p = degree_profile(_graph(4, [(0, 3), (1, 3)]))
        assert p.N[0] == 1 and math.isnan(dnn_empirical(p, 0))

    @pytest.mark.parametrize("A, D", [(0.25, 0.3), (0.6, 0.2)])
    def test_peak_memory_per_edge(self, A, D):
        # With sources held as an array, at m = 2 the peak is the degree
        # array's two bincounts, 8 B/edge (8.0 measured at n = 1e5); after
        # them the degree array takes 4 B/edge and one edge chunk's gathered
        # degrees 1.3 more.  The bound of 10 B/edge leaves no room for an
        # int64 gather over all edges (8 B/edge; the peak was 16 B/edge with
        # two), nor for per-vertex sums beside the degree array (10.65 B/edge
        # with them).
        g = generate(derive_generator_params(2, A, D), 100_000, seed=1)
        g = Multigraph(g.n, g.u, g.v)
        peak = _traced_peak(lambda: degree_profile(g))
        assert peak < 10 * g.num_edges, f"degree_profile peaked at {peak / g.num_edges:.2f} B/edge"

    @pytest.mark.parametrize("A, D", [(0.25, 0.3), (0.6, 0.2)])
    def test_peak_memory_per_edge_imported(self, A, D, tmp_path):
        # The same bound on an import's int32 ids, counted in place into
        # the degree array (4 B/edge) with no copy: measured 7.3-7.6 B/edge
        # at n = 1e5, a chunk's take copying its ids to intp.  It leaves no
        # room for np.bincount over all of them (their intp copy alone is
        # 8 B/edge).
        g = _imported(generate(derive_generator_params(2, A, D), 100_000, seed=1), tmp_path)
        peak = _traced_peak(lambda: degree_profile(g))
        assert peak < 10 * g.num_edges, f"degree_profile peaked at {peak / g.num_edges:.2f} B/edge"

    def test_peak_memory_per_edge_generated(self):
        # A generated graph's degree array is one bincount plus m, 4 B/edge
        # at m = 2, and each chunk's source degrees are a slice of it
        # repeated m times.  Measured at n = 1e6: 4.26 B/edge, the degree
        # array and one edge chunk's fixed buffer (0.53 MB).  The bound of
        # 4.5 B/edge leaves no room for a second bincount (8 B/edge at the
        # peak) nor for sources built over all edges (12 B/edge).
        g = generate(derive_generator_params(2, 0.25, 0.3), 1_000_000, seed=1)
        tracemalloc.start()
        try:
            degree_profile(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * g.num_edges, f"degree_profile peaked at {peak / g.num_edges:.2f} B/edge"


class TestBruteForceOracle:
    def test_equals_streaming_on_generated_graphs(self):
        gp = derive_generator_params(2, 0.2, 0.3)
        for seed in range(20):
            g = generate(gp, 500, seed=seed)
            fast = degree_profile(g)
            slow = brute_force_profile(g)
            assert fast.N == slow.N
            assert fast.S == slow.S
            assert fast.W == slow.W

    # Edge chunks of 1 or 7 edges put a chunk edge between parallel edges
    # and around every vertex's edges.
    @settings(max_examples=150, deadline=None)
    @given(g=_multigraphs(), chunk=st.sampled_from([1, 7]))
    def test_equals_brute_force_across_edge_chunks(self, g, chunk):
        with mock.patch.object(metrics, "_EDGE_CHUNK", chunk):
            fast = degree_profile(g)
        assert fast == brute_force_profile(g)
        assert list(fast.N) == sorted(fast.N) and list(fast.S) == list(fast.N)

    def test_size_cap(self):
        gp = derive_generator_params(2, 0.2, 0.3)
        with pytest.raises(ValueError, match="capped"):
            brute_force_profile(generate(gp, 10_001, seed=0))


class TestClustering:
    def test_triangle(self):
        cp = clustering(_graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert cp.C1 == pytest.approx(1.0)
        assert cp.C2 == pytest.approx(1.0)
        assert cp.C_by_degree == {2: pytest.approx(1.0)}

    def test_path_has_no_triangles(self, path3):
        cp = clustering(path3)
        assert cp.C1 == 0.0
        assert cp.C2 == 0.0

    def test_parallel_edges_collapse(self):
        # Doubled triangle: the simple projection is K3, clustering 1;
        # C_by_degree is keyed by the multigraph degree 4.
        cp = clustering(seed_graph(2))
        assert cp.C1 == pytest.approx(1.0)
        assert cp.C_by_degree == {4: pytest.approx(1.0)}

    def test_paw_graph(self):
        # Triangle {0,1,2} plus pendant 3 on vertex 0.
        g = _graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        cp = clustering(g)
        # 1 triangle; paths-of-2: deg 3,2,2,1 -> 3+1+1+0 = 5.
        assert cp.C1 == pytest.approx(3 / 5)
        assert cp.C2 == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)
        assert cp.C_by_degree[3] == pytest.approx(1 / 3)
        assert cp.C_by_degree[1] == 0.0


def _with_isolated_vertex(A, D, n, seed):
    """A generated graph (hubs at A > 1/2, parallel edges from the seed
    clique and edge copies) plus one isolated vertex."""
    g = generate(derive_generator_params(2, A, D), n, seed=seed)
    return Multigraph(g.n + 1, g.u, g.v)


GRAPHS = [(0.25, 0.3, 300, 1), (0.6, 0.2, 300, 2), (0.2, 0.0, 200, 3), (0.75, 0.1, 400, 4)]


class TestClusteringAgainstLoop:
    @pytest.mark.parametrize("A, D, n, seed", GRAPHS + [(0.25, 0.3, 20_000, 5), (0.6, 0.2, 20_000, 6)])
    def test_bit_identical(self, A, D, n, seed):
        g = _with_isolated_vertex(A, D, n, seed)
        fast, slow = clustering(g), clustering_loop(g)
        assert (fast.C1, fast.C2) == (slow.C1, slow.C2)
        assert list(fast.C_by_degree.items()) == list(slow.C_by_degree.items())
        assert all(type(x) is float for x in (fast.C1, fast.C2, *fast.C_by_degree.values()))

    def test_C2_sums_in_vertex_order(self):
        """C2 adds the local coefficients left to right, on every Python:
        on this graph a compensated sum (math.fsum, or sum() from Python
        3.12 on) rounds to another float."""
        g = generate(derive_generator_params(2, 0.25, 0.3), 300, seed=1)
        local = local_clustering_loop(g)[2]
        assert math.fsum(local) != sum_in_order(local)
        assert clustering(g).C2 == sum_in_order(local) / g.n

    def test_tiny_graphs(self):
        tiny = [_graph(2, [(0, 1)]), _graph(4, [(0, 3), (1, 3)]), _graph(3, [(0, 1), (1, 0), (0, 2)])]
        for g in tiny + [Multigraph(3, [], [])]:
            assert clustering(g) == clustering_loop(g)


class TestClusteringKernel:
    @settings(max_examples=150, deadline=None)
    @given(g=_multigraphs())
    @example(g=_SPAN_FILLED[0])
    @example(g=_SPAN_FILLED[1])
    @example(g=_SPAN_FILLED[2])
    @example(g=_LAST_EDGE_CLOSES)
    @example(g=_EMPTY_FIRST)
    def test_equals_loop(self, g):
        fast, slow = clustering(g), clustering_loop(g)
        assert (fast.C1, fast.C2) == (slow.C1, slow.C2)
        assert list(fast.C_by_degree.items()) == list(slow.C_by_degree.items())

    @pytest.mark.parametrize(
        "g, want",
        [
            (Multigraph(4, [], []), ClusteringProfile(0.0, 0.0, {0: 0.0})),
            (_graph(2, [(0, 1)]), ClusteringProfile(0.0, 0.0, {1: 0.0})),
            (
                _graph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]),
                ClusteringProfile(1.0, 1.0, {4: 1.0}),
            ),
        ],
        ids=["edgeless", "single_edge", "doubled_triangle"],
    )
    def test_exact_profile(self, g, want):
        assert clustering(g) == want

    # A source of out-degree k costs k^2, so chunks of cost 1 or 7 put
    # chunk edges between every pair of sources with out-edges, or a few
    # sources apart, and give each source of out-degree >= 2 (>= 3 at 7) a
    # chunk of its own.  K6 plus a pendant makes a source with 10 wedges.
    # The runs go to 1, 2 or 3 threads (parallel.cpu_count patched).
    @settings(max_examples=150, deadline=None)
    @given(g=_multigraphs(), chunk=st.sampled_from([1, 7]), threads=st.sampled_from([1, 2, 3]))
    @example(g=_graph(7, [(i, j) for i in range(6) for j in range(i)] + [(0, 6)]), chunk=7, threads=2)
    @example(g=_SPAN_FILLED[0], chunk=1, threads=3)
    @example(g=_SPAN_FILLED[1], chunk=7, threads=2)
    @example(g=_SPAN_FILLED[2], chunk=1, threads=2)
    @example(g=_SPAN_FILLED[2], chunk=7, threads=3)
    @example(g=_LAST_EDGE_CLOSES, chunk=1, threads=2)
    @example(g=_LAST_EDGE_CLOSES, chunk=7, threads=1)
    @example(g=_EMPTY_FIRST, chunk=1, threads=3)
    @example(g=_EMPTY_FIRST, chunk=7, threads=2)
    def test_small_wedge_chunks(self, g, chunk, threads):
        with mock.patch.object(metrics, "_WEDGE_CHUNK", chunk), mock.patch.object(
            parallel, "cpu_count", lambda: threads
        ):
            fast = clustering(g)
        slow = clustering_loop(g)
        assert (fast.C1, fast.C2) == (slow.C1, slow.C2)
        assert list(fast.C_by_degree.items()) == list(slow.C_by_degree.items())

    @pytest.mark.parametrize("A, D, n, seed", [(0.25, 0.3, 20_000, 5), (0.6, 0.2, 20_000, 6)])
    def test_small_wedge_chunks_generated(self, A, D, n, seed):
        g = _with_isolated_vertex(A, D, n, seed)
        slow = clustering_loop(g)
        for chunk, threads in itertools.product((1, 7), (1, 2, 3)):
            with mock.patch.object(metrics, "_WEDGE_CHUNK", chunk), mock.patch.object(
                parallel, "cpu_count", lambda: threads
            ):
                fast = clustering(g)
            assert (fast.C1, fast.C2) == (slow.C1, slow.C2), (chunk, threads)
            assert list(fast.C_by_degree.items()) == list(slow.C_by_degree.items()), (chunk, threads)

    def test_worker_exception_propagates(self):
        # Only the wedge runs' search calls np.copyto.  The caller's first
        # run waits there until a worker has raised in its own run, so the
        # error is a worker's, and clustering raises it.
        raised = threading.Event()
        copyto = np.copyto

        def failing_in_workers(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raised.wait(10)
                return copyto(*args, **kwargs)
            raised.set()
            raise RuntimeError("wedge run failed")

        g = _with_isolated_vertex(0.25, 0.3, 2000, 5)
        with mock.patch.object(parallel, "cpu_count", lambda: 2), mock.patch.object(
            metrics, "_WEDGE_CHUNK", 7
        ), mock.patch.object(np, "copyto", failing_in_workers):
            with pytest.raises(RuntimeError, match="wedge run failed"):
                clustering(g)
        assert raised.is_set()

    @pytest.mark.parametrize("A, D", [(0.25, 0.3), (0.6, 0.2)])
    def test_peak_memory_per_edge(self, A, D, monkeypatch):
        # The wedge pass holds a fixed buffer, not arrays over all wedges;
        # with them the peak was about 97 B/edge.  Each thread holds its own
        # buffer, so the bound holds for two threads, not for every CPU.
        g = generate(derive_generator_params(2, A, D), 100_000, seed=1)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        peak = _traced_peak(lambda: clustering(g))
        assert peak < 60 * g.num_edges, f"clustering peaked at {peak / g.num_edges:.2f} B/edge"

    @pytest.mark.parametrize("A, D", [(0.25, 0.3), (0.6, 0.2)])
    def test_peak_memory_per_edge_imported(self, A, D, monkeypatch, tmp_path):
        # The same bound on an import's int32 ids, gathered a chunk at a
        # time and never widened whole.
        g = _imported(generate(derive_generator_params(2, A, D), 100_000, seed=1), tmp_path)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        peak = _traced_peak(lambda: clustering(g))
        assert peak < 60 * g.num_edges, f"clustering peaked at {peak / g.num_edges:.2f} B/edge"

    def test_hub_makes_no_wedges(self):
        # Leaves point at the hub, so the hub has no out-neighbors and the
        # star has no wedge.  Pointed the other way, the hub's 2000
        # out-neighbors would make 2e6 wedges and about 90 MiB of arrays.
        g = Multigraph(2001, np.zeros(2000, dtype=np.int64), np.arange(1, 2001))
        tracemalloc.start()
        try:
            cp = clustering(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cp.C1 == 0.0
        assert peak < 2 * 2**20


@pytest.mark.parametrize("A, D, n, seed", GRAPHS)
class TestNetworkx:
    def _graphs(self, A, D, n, seed):
        nx = pytest.importorskip("networkx")
        g = _with_isolated_vertex(A, D, n, seed)
        mg = nx.MultiGraph()
        mg.add_nodes_from(range(g.n))
        mg.add_edges_from(zip(g.u.tolist(), g.v.tolist()))
        return nx, g, mg, nx.Graph(mg)

    def test_clustering(self, A, D, n, seed):
        nx, g, _, simple = self._graphs(A, D, n, seed)
        cp = clustering(g)
        assert cp.C1 == pytest.approx(nx.transitivity(simple), rel=1e-12)
        assert cp.C2 == pytest.approx(nx.average_clustering(simple), rel=1e-12)
        # C(d) from networkx's per-vertex triangle counts, keyed by the
        # multigraph degree.
        tri, deg = nx.triangles(simple), g.degree_array().tolist()
        by_degree: dict[int, list[float]] = {}
        for v in range(g.n):
            k = simple.degree(v)
            by_degree.setdefault(deg[v], []).append(tri[v] / (k * (k - 1) / 2) if k > 1 else 0.0)
        assert cp.C_by_degree == {d: pytest.approx(sum(c) / len(c), rel=1e-12) for d, c in by_degree.items()}
        assert sum(tri.values()) > 0

    def test_assortativity(self, A, D, n, seed):
        nx, g, mg, _ = self._graphs(A, D, n, seed)
        want = nx.degree_pearson_correlation_coefficient(mg)
        assert pearson_assortativity(degree_profile(g)) == pytest.approx(want, rel=1e-9)


class TestAssortativity:
    def test_star_is_minus_one(self, star4):
        assert pearson_assortativity(degree_profile(star4)) == pytest.approx(-1.0)
        assert pearson_edges(star4) == pytest.approx(-1.0)

    def test_regular_graph_is_nan(self):
        assert math.isnan(pearson_assortativity(degree_profile(seed_graph(2))))
        assert math.isnan(pearson_edges(seed_graph(2)))

    def test_generated_subcritical_sign(self):
        # Disassortative regime: high-degree vertices attach mostly to the
        # many low-degree ones.
        gp = derive_generator_params(2, 0.25, 0.3)
        r = pearson_assortativity(degree_profile(generate(gp, 20_000, seed=5)))
        assert -1.0 < r < 0.1

    @settings(max_examples=150, deadline=None)
    @given(g=_multigraphs())
    def test_equals_edge_sums(self, g):
        """Sums over the degree profile give exactly the correlation of the
        endpoint pairs summed over the edges, also with parallel edges,
        isolated vertices and no edges at all (NaN)."""
        got, want = pearson_assortativity(degree_profile(g)), pearson_edges(g)
        assert got == want or math.isnan(got) and math.isnan(want)

    @pytest.mark.parametrize("A, D, n, seed", GRAPHS)
    def test_equals_edge_sums_on_generated_graphs(self, A, D, n, seed):
        g = _with_isolated_vertex(A, D, n, seed)
        assert pearson_assortativity(degree_profile(g)) == pearson_edges(g)


class TestLogBinning:
    def test_synthetic_power_law_slope(self):
        points = {d: d**-2.0 for d in range(1, 1001)}
        curve = log_binned_curve(points, bins_per_decade=4)
        xs = np.log([c for c, _, _ in curve])
        ys = np.log([v for _, v, _ in curve])
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_weighting_and_nan_skip(self):
        points = {1: 10.0, 2: float("nan"), 3: 20.0}
        curve = log_binned_curve(points, bins_per_decade=1, weights={1: 1.0, 3: 3.0})
        assert len(curve) == 1
        _, value, count = curve[0]
        assert value == pytest.approx((10 + 60) / 4)
        assert count == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="bins_per_decade"):
            log_binned_curve({1: 1.0}, bins_per_decade=0)
        with pytest.raises(ValueError, match="positive"):
            log_binned_curve({0: 1.0}, bins_per_decade=2)
