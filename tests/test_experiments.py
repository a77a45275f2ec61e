"""Scenario runner and CLI: fit helpers, preset construction, determinism,
and end-to-end command behavior at small sizes."""

import csv
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import panet
from panet import cli, experiments, graphgen, metrics, parallel
from panet.cli import main
from panet.experiments import (
    _CHUNK_EDGES,
    PRESETS,
    Scenario,
    ScenarioResult,
    fit_power_exponent,
    make_preset,
    run_scenario,
)
from panet.graphgen import child_seed, generate
from panet.metrics import degree_profile
from panet.params import derive_generator_params, make_model_params
from panet.theory import expected_W, theory_tables

from reference import pooled_ccdf, scenario_json


class TestFitPowerExponent:
    def test_exact_power_law(self):
        pts = [(x, 5.0 * x**1.7) for x in range(1, 11)]
        slope, intercept, stderr = fit_power_exponent(pts)
        assert slope == pytest.approx(1.7, abs=1e-12)
        assert intercept == pytest.approx(math.log(5.0), abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_constant_gives_zero_slope(self):
        pts = [(x, 3.0) for x in (1, 10, 100)]
        assert fit_power_exponent(pts)[0] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        xs = np.logspace(0, 2, 20)
        pts = [(x, x**0.2 * math.exp(rng.normal(0, 0.05))) for x in xs]
        slope, _, stderr = fit_power_exponent(pts)
        assert slope == pytest.approx(0.2, abs=0.05)
        assert 0 < stderr < 0.05

    def test_input_validation(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_power_exponent([(1, 1), (2, 2)])
        with pytest.raises(ValueError, match="positive"):
            fit_power_exponent([(1, 1), (2, -1), (3, 2)])
        with pytest.raises(ValueError, match="degenerate"):
            fit_power_exponent([(2, 1), (2, 2), (2, 3)])


class TestScenario:
    def test_json_round_trip(self):
        s = Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(100, 200), seeds=(3, 2))
        assert Scenario.from_json(scenario_json(s)) == s

    def test_validation(self):
        with pytest.raises(ValueError, match="probe degree"):
            Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(100,), d0=2)
        with pytest.raises(ValueError, match="seeds"):
            Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(100,), seeds=0)
        with pytest.raises(ValueError, match="size n must be an integer >= 3, got 2"):
            Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(2,))
        with pytest.raises(ValueError, match=r"none twice, got \[400, 400\]"):
            Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(400, 400))
        # (A, D) = (0.1, 0.3) has a model but no generator: only a
        # theory_only scenario may hold it.
        with pytest.raises(ValueError, match="feasibility bound"):
            Scenario(name="t", m=2, A=0.1, D=0.3, n_list=(100,))
        Scenario(name="t", m=2, A=0.1, D=0.3, n_list=(100,), outputs=("theory_only",))

    @pytest.mark.parametrize(
        "kw, message",
        [
            # Once accepted, then a TypeError in run_scenario.
            ({"n_list": (1000.5,)}, r"^size n must be an integer >= 3, got 1000.5$"),
            # Once a TypeError: object of type 'float' has no len().
            ({"seeds": 2.5}, r"^seeds must be an integer >= 1, got 2.5$"),
            ({"n_list": (100, 200), "seeds": (3, 2.5)}, r"^seeds must be an integer >= 1, got 2.5$"),
            # Once ran as root seed 1: child_seed truncated it.
            ({"root_seed": 1.5}, r"^root_seed must be an integer >= 0, got 1.5$"),
            ({"m": 2.5}, r"^m must be an integer >= 1, got 2.5$"),
            # Once accepted, then missing from every graph run_scenario made.
            ({"d0": 3.5}, r"^probe degree d0 must be an integer >= 3, got 3.5$"),
            ({"d0": 2}, r"^probe degree d0 must be an integer >= 3, got 2$"),
        ],
        ids=["n_list", "seeds", "seed_list", "root_seed", "m", "d0", "d0_m"],
    )
    def test_non_integer_values_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            Scenario(**{"name": "t", "m": 2, "A": 0.3, "D": 0.1, "n_list": (100,), **kw})

    def test_fields_hold_python_ints(self):
        s = Scenario(
            name="t", m=2.0, A=0.3, D=0.1, n_list=[1000.0, np.int64(200)], seeds=[3.0, 2], d0=np.int64(4), root_seed=7.0
        )
        assert s == Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(1000, 200), seeds=(3, 2), d0=4, root_seed=7)
        assert [type(x) for x in (s.m, s.root_seed, s.d0, *s.n_list, *s.seeds)] == [int] * 7
        with pytest.raises(ValueError, match="per-size seed list"):
            Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(100, 200), seeds=(3,))

    def test_default_probe_degree(self):
        s = Scenario(name="t", m=2, A=0.3, D=0.1, n_list=(100,))
        assert s.probe_degree == 3


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESETS:
            assert len(make_preset(name)) >= 1

    def test_sweep_sizes(self):
        assert len(make_preset("fig2")) == 4
        assert len(make_preset("fig4")) == 6
        assert [s.D for s in make_preset("fig4")] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.45]

    def test_full_scales_sizes(self):
        desk = make_preset("fig1a")[0]
        full = make_preset("fig1a", full=True)[0]
        assert full.n_list == (10 * desk.n_list[0],)

    def test_fig6a_seed_schedule(self):
        s = make_preset("fig6a")[0]
        assert s.seeds_for_n == (150, 100, 60, 50, 45)
        assert make_preset("fig6a", n=800)[0].seeds == 10

    def test_overrides(self):
        s = make_preset("fig6a", n=500, seeds=2)[0]
        assert s.n_list == (500,) and s.seeds == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("fig99")


class TestRunScenario:
    S = Scenario(name="small", m=2, A=0.25, D=0.3, n_list=(500, 1500), seeds=3)

    def test_deterministic_and_worker_independent(self):
        a = run_scenario(self.S, workers=1)
        for b in (run_scenario(self.S, workers=2), run_scenario(self.S)):
            assert a.pooled_N == b.pooled_N
            assert a.pooled_S == b.pooled_S
            assert a.probe_per_seed == b.probe_per_seed

    def test_mixed_sizes_pooled_equals_serial(self):
        """The first pool chunk spans both sizes (50 graphs at n = 300, one
        at 40000) and the other four hold one graph each; pooled sums and
        per-seed lists, in (n, seed) order, equal the serial run's."""
        s = Scenario(name="mixed", m=2, A=0.25, D=0.3, n_list=(300, 40000), seeds=(50, 5))
        a, b = run_scenario(s, workers=1), run_scenario(s, workers=2)
        for attr in ("pooled_N", "pooled_S", "W_per_seed", "probe_per_seed"):
            assert getattr(a, attr) == getattr(b, attr)
        gp = derive_generator_params(2, 0.25, 0.3)
        W = [degree_profile(generate(gp, 40000, child_seed(s.root_seed, 40000, i))).W for i in range(5)]
        assert b.W_per_seed[40000] == W

    @pytest.mark.parametrize(
        "sizes, lengths",
        [
            ([300] * 50 + [40000] * 5, [51, 1, 1, 1, 1]),
            ([100_000] * 10, [1] * 10),  # a preset at n = 1e5: one graph per chunk
            ([1000] * 200 + [5000] * 60 + [30000] * 30, [65, 65, 65, 17, 13, 13, 13, 9] + [2] * 15),
            ([5], [1]),
        ],
    )
    def test_chunks_cover_tasks_in_order(self, sizes, lengths):
        """run_scenario's chunks (parallel.runs over the m*n prefix): each
        task once, in order; each chunk holds at most _CHUNK_EDGES edges
        or one bigger task, and the next task would not fit in it."""
        tasks = [(2, 0.25, 0.3, n, i, 3) for i, n in enumerate(sizes)]
        spans = parallel.runs(np.cumsum([0] + [m * n for m, _, _, n, _, _ in tasks]), _CHUNK_EDGES)
        chunks = [tasks[lo:hi] for lo, hi in spans]
        assert [t for c in chunks for t in c] == tasks
        assert [len(c) for c in chunks] == lengths
        edges = [[m * n for m, _, _, n, _, _ in c] for c in chunks]
        assert all(sum(e) <= _CHUNK_EDGES or len(e) == 1 for e in edges)
        assert all(sum(e) + nxt[0] > _CHUNK_EDGES for e, nxt in zip(edges, edges[1:]))

    def test_aggregation_shape(self):
        res = run_scenario(self.S, workers=1)
        for n in self.S.n_list:
            assert sum(res.pooled_N[n].values()) == 3 * n
            assert len(res.probe_per_seed[n]) == 3
            assert res.probe_stderr(n) > 0
        ccdf = pooled_ccdf(res, 1500)
        assert ccdf[2] == pytest.approx(1.0)

    def test_missing_probe_degree_raises(self):
        s = Scenario(name="p", m=2, A=0.25, D=0.3, n_list=(300, 600), seeds=4, d0=40)
        with pytest.raises(ValueError) as exc:
            run_scenario(s, workers=1)
        assert str(exc.value) == "probe degree d0 = 40 is missing from 4 of 4 graphs at n = 300"

    @pytest.mark.parametrize("A", [0.25, 0.6])
    def test_size_without_populated_degree_raises(self, A):
        # At n = 8 no degree reaches N >= 10; the curve below A = 1/2 once
        # failed with "no degrees to tabulate", the fit above it with "no
        # populated (d, n) cells", and without the fit a header-only table.
        s = Scenario(name="tiny", m=2, A=A, D=0.2, n_list=(8, 300), seeds=1)
        with pytest.raises(ValueError) as exc:
            run_scenario(s, workers=1)
        assert str(exc.value) == "no degree has pooled N >= 10 at n = 8"

    @pytest.mark.parametrize("A", [0.25, 0.5, 0.6])
    def test_W_per_seed_mean_is_expected_W(self, A):
        # |z| <= 4 was fixed before these seeds were run.  A = 0.8 is left
        # out: its heavy-tailed W makes the seed sd a poor error bar.
        n = 10**4
        s = Scenario(name="w", m=2, A=A, D=0.2, n_list=(n,), seeds=20, root_seed=4242)
        W = np.asarray(run_scenario(s, workers=1).W_per_seed[n], dtype=float)
        z = (W.mean() - expected_W(s.model, n)) / (W.std(ddof=1) / math.sqrt(len(W)))
        assert abs(z) <= 4.0, f"z = {z:.2f}"


POOL_DEADLINE_S = 120


@pytest.fixture
def deadline():
    """Fail a pool test that runs past POOL_DEADLINE_S instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"pool test ran past {POOL_DEADLINE_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(POOL_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _refaults() -> int:
    """Minor page faults while 16 MiB of numpy blocks, allocated and freed
    once before, are allocated and freed again."""
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        blocks = [np.ones(1 << 18) for _ in range(8)]
        del blocks
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _same_result(a: ScenarioResult, b: ScenarioResult) -> bool:
    attrs = ("pooled_N", "pooled_S", "W_per_seed", "probe_per_seed")
    return all(getattr(a, k) == getattr(b, k) for k in attrs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork and SIGALRM")
@pytest.mark.usefixtures("deadline")
class TestPool:
    """run_scenario's pooled calls share one pool per process (see
    parallel._pool)."""

    S = Scenario(name="pool", m=2, A=0.25, D=0.3, n_list=(70_000,), seeds=3)  # three chunks

    @pytest.fixture(scope="class")
    def serial(self):
        return run_scenario(self.S, workers=1)

    def test_calls_reuse_workers(self, serial):
        assert _same_result(run_scenario(self.S, workers=2), serial)
        pids = _worker_pids()
        assert len(pids) == 2
        assert _same_result(run_scenario(self.S, workers=2), serial)
        assert _worker_pids() == pids

    def test_other_worker_count_replaces_pool(self, serial):
        run_scenario(self.S, workers=2)
        old = _worker_pids()
        assert _same_result(run_scenario(self.S, workers=3), serial)
        new = _worker_pids()
        assert len(new) == 3 and not new & old
        assert not any(_alive(pid) for pid in old)

    def test_killed_worker_is_replaced(self, serial):
        run_scenario(self.S, workers=2)
        pids = _worker_pids()
        victim = min(pids)
        os.kill(victim, signal.SIGKILL)
        while _alive(victim):  # reaped once the pool has marked itself broken
            time.sleep(0.01)
        assert _same_result(run_scenario(self.S, workers=2), serial)
        assert not _worker_pids() & pids

    def test_forked_child_runs_its_own_pool(self, serial):
        run_scenario(self.S, workers=2)
        pid = os.fork()
        if pid == 0:  # the child: stop its own pool and never return into pytest
            code = 1
            try:
                code = 0 if _same_result(run_scenario(self.S, workers=2), serial) else 1
            finally:
                try:
                    parallel._pool(2).shutdown()
                finally:
                    os._exit(code)
        try:
            while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
                time.sleep(0.01)
        except TimeoutError:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        assert os.waitstatus_to_exitcode(waited[1]) == 0

    def test_exiting_process_leaves_no_worker(self):
        code = textwrap.dedent(
            """
            import multiprocessing
            from panet.experiments import Scenario, run_scenario
            run_scenario(Scenario(name="x", m=2, A=0.25, D=0.3, n_list=(70_000,), seeds=2), workers=2)
            print(" ".join(str(p.pid) for p in multiprocessing.active_children()))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(panet.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=POOL_DEADLINE_S
        )
        assert out.returncode == 0, out.stderr
        pids = [int(x) for x in out.stdout.split()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_workers_keep_freed_memory(self):
        run_scenario(self.S, workers=2)
        pool = parallel._pool(2)
        # 4096 pages when the freed blocks go back to the system
        assert pool.submit(_refaults).result() < 512
        assert pool.submit(parallel._keep_freed_memory).result() == (1, 1)


class TestTheoryTables:
    def test_subcritical_columns(self):
        rows = theory_tables(make_model_params(2, 0.2, 0.3), d_max=5)
        assert [r["d"] for r in rows] == [2, 3, 4, 5]
        assert set(rows[0]) == {"d", "c_exact", "c_asym", "M", "dnn_theory", "dnn_asym"}

    def test_single_row_at_d_max_m(self):
        rows = theory_tables(make_model_params(2, 0.2, 0.3), d_max=2)
        assert len(rows) == 1

    def test_hypothesis_columns(self):
        rows = theory_tables(make_model_params(2, 0.5, 0.2), d_max=3, n_list=(100, 200))
        assert len(rows) == 4
        assert "dnn_hyp" in rows[0] and "M" not in rows[0]

    def test_d_max_below_m_rejected(self):
        with pytest.raises(ValueError, match="d_max must be >= m = 3"):
            theory_tables(make_model_params(3, 0.2, 0.3), d_max=2)

    def test_A_one_rejected(self):
        # Once c = 1, 0, 0, ... and NaN dnn_hyp columns.
        with pytest.raises(ValueError, match="0 < A < 1"):
            theory_tables(make_model_params(2, 1.0, 0.0), d_max=6)

    def test_asymptotic_ratio_approaches_one_slowly(self):
        # dnn_theory/dnn_asym is still far from 1 at d ~ 1e3 and close
        # only in the 1e4+ range.
        rows = theory_tables(make_model_params(2, 0.2, 0.3), d_max=10**4)
        r = {row["d"]: row["dnn_theory"] / row["dnn_asym"] for row in rows}
        assert abs(r[100] - 1) > 0.15
        assert abs(r[10**4] - 1) < abs(r[10**3] - 1) < abs(r[10**2] - 1)


class TestCLI:
    def _run(self, *argv):
        return main(list(argv))

    def test_generate_metrics_pipeline(self, tmp_path):
        g = tmp_path / "g.txt"
        m = tmp_path / "m.csv"
        assert self._run(
            "generate", "--m", "2", "--A", "0.25", "--D", "0.3",
            "--n", "500", "--seed", "3", "--out", str(g),
        ) == 0
        assert self._run("metrics", "--in", str(g), "--out", str(m)) == 0
        with open(m) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["d"] == "2"
        assert sum(int(r["N"]) for r in rows) == 500

    @pytest.mark.parametrize("A, D", [(0.25, 0.3), (0.6, 0.2)])
    def test_metrics_peak_memory_per_edge(self, A, D, monkeypatch, tmp_path):
        # One whole `panet metrics` call at n = 2e5: the int32 ids of the
        # import (8 B/edge, held throughout), then clustering and the
        # profile.  On one CPU they run in turn: measured 32.3 B/edge on
        # both inputs, and 40.3 with int64 ids.  On two threads the peak
        # moves with how far the profile overlaps clustering's wedge pass:
        # 33.4-35.0 in 30 calls on each input, and about 40 should the two
        # peaks meet.  So the bound is taken on one CPU.
        path = tmp_path / "g.txt"
        graphgen.export_edge_list(generate(derive_generator_params(2, A, D), 200_000, seed=1), path)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        argv = ["metrics", "--in", str(path), "--out", str(tmp_path / "m.csv")]
        assert self._run(*argv) == 0  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            assert self._run(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        E = 2 * 200_000
        assert peak < 34 * E, f"panet metrics peaked at {peak / E:.1f} B/edge"

    def test_generate_by_knobs(self, tmp_path):
        out = tmp_path / "g.txt"
        assert self._run(
            "generate", "--m", "2", "--beta", "0.3", "--c", "24",
            "--n", "100", "--out", str(out),
        ) == 0

    def test_conflicting_param_styles_rejected(self, tmp_path):
        code = self._run(
            "generate", "--m", "2", "--A", "0.2", "--beta", "0.3",
            "--n", "100", "--out", str(tmp_path / "g.txt"),
        )
        assert code == 2

    def test_invalid_params_exit_2(self, tmp_path):
        code = self._run(
            "generate", "--m", "2", "--A", "0.1", "--D", "0.3",
            "--n", "100", "--out", str(tmp_path / "g.txt"),
        )
        assert code == 2

    def test_theory_and_oracle_csv(self, tmp_path):
        t = tmp_path / "t.csv"
        o = tmp_path / "o.csv"
        assert self._run(
            "theory", "--m", "2", "--A", "0.25", "--D", "0.3",
            "--d-max", "6", "--out", str(t),
        ) == 0
        assert self._run(
            "oracle", "--m", "2", "--A", "0.25", "--D", "0.3",
            "--n-end", "1000", "--d-max", "20", "--out", str(o),
        ) == 0
        with open(t) as fh:
            row = next(csv.DictReader(fh))
        assert float(row["dnn_theory"]) == pytest.approx(7.6)
        with open(o) as fh:
            row = next(csv.DictReader(fh))
        assert float(row["rel_err"]) < 0.05

    def test_oracle_supercritical_exit_2_before_integrating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before the closed-form check")

        monkeypatch.setattr(cli, "integrate_S", refuse)
        out = tmp_path / "o.csv"
        code, err = self._run_captured(
            capsys, "oracle", "--m", "2", "--A", "0.6", "--D", "0.2",
            "--n-end", "1000", "--d-max", "20", "--out", str(out),
        )
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "A < 1/2" in err
        assert not out.exists()

    def test_preset_outputs_and_gnuplot(self, tmp_path):
        out = tmp_path / "out"
        assert self._run(
            "experiment", "preset", "fig1a", "--n", "1000", "--seeds", "2",
            "--out-dir", str(out), "--gnuplot",
        ) == 0
        assert (out / "fig1a_dnn_vs_d_n1000.csv").exists()
        assert (out / "fig1a.gp").exists()

    def test_scenario_file_run(self, tmp_path):
        s = Scenario(name="mini", m=2, A=0.25, D=0.3, n_list=(400,), seeds=2)
        f = tmp_path / "s.json"
        f.write_text(scenario_json(s))
        assert self._run("experiment", "run", str(f), "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "mini_dnn_vs_d_n400.csv").exists()

    def test_scenario_file_writes_sweep_table(self, tmp_path):
        # The dnn_vs_D tag, not the preset name, selects the sweep table:
        # fig4's scenarios run from a file give fig4's table, one row per D.
        scenarios = make_preset("fig4", n=400, seeds=2)
        f = tmp_path / "s.json"
        f.write_text(json.dumps([json.loads(scenario_json(s)) for s in scenarios]))
        run_dir, preset_dir = tmp_path / "run", tmp_path / "preset"
        assert self._run("experiment", "run", str(f), "--out-dir", str(run_dir), "--gnuplot") == 0
        assert self._run(
            "experiment", "preset", "fig4", "--n", "400", "--seeds", "2", "--out-dir", str(preset_dir),
        ) == 0
        table = (run_dir / "scenario_dnn_vs_D.csv").read_text()
        assert table == (preset_dir / "fig4_dnn_vs_D.csv").read_text()
        assert [row.split(",")[0] for row in table.splitlines()[1:]] == [f"{s.D:g}" for s in scenarios]
        assert '"scenario_dnn_vs_D.csv"' in (run_dir / "scenario.gp").read_text()

    def test_gnuplot_template_follows_table_kind(self, tmp_path):
        # Templates were once picked by substring of the file name: this
        # scenario's n-sweep got the d-axis template (plotting dnn_stderr
        # as "theory"), and this theory table was plotted as n-axis error
        # bars.  A theory table gets no template.
        scenarios = [
            Scenario(name="run_dnn_vs_d", m=2, A=0.25, D=0.3, n_list=(300, 600), seeds=2),
            Scenario(name="th_dnn_vs_n", m=2, A=0.25, D=0.3, n_list=(300,), outputs=("theory_only",)),
        ]
        f = tmp_path / "s.json"
        f.write_text(json.dumps([json.loads(scenario_json(s)) for s in scenarios]))
        assert self._run("experiment", "run", str(f), "--out-dir", str(tmp_path), "--gnuplot") == 0
        blocks = (tmp_path / "scenario.gp").read_text().split('set output "')[1:]
        xlabels = {b.split(".png")[0]: b.split('set xlabel "')[1].split('"')[0] for b in blocks}
        assert xlabels == {
            "run_dnn_vs_d_dnn_vs_d_n300": "d",
            "run_dnn_vs_d_dnn_vs_d_n600": "d",
            "run_dnn_vs_d_dnn_vs_n": "n",
        }

    def test_run_rejects_check_before_running(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(scenario_json(Scenario(name="mini", m=2, A=0.25, D=0.3, n_list=(400,))))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            self._run("experiment", "run", str(f), "--check", "--out-dir", str(out))
        assert exc.value.code == 2
        assert "unrecognized arguments: --check" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_rerun_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert self._run(
                "experiment", "preset", "fig4", "--n", "600", "--seeds", "2",
                "--out-dir", str(d),
            ) == 0
        fa = sorted(p.name for p in dirs[0].iterdir())
        fb = sorted(p.name for p in dirs[1].iterdir())
        assert fa == fb
        for name in fa:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def _run_captured(self, capsys, *argv):
        code = self._run(*argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400], "bogus": 1}, "bogus"),
            ({"name": "s", "m": 2, "A": 0.25, "D": 0.3}, "n_list"),
            ({"m": 2, "A": 0.25, "D": 0.3, "n_list": [400]}, "name"),
            ([1, 2], "JSON object"),
            ({"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400], "root_seed": -1}, "root_seed"),
            (
                {"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400], "outputs": ["bogus"]},
                "outputs tag 'bogus'",
            ),
            ({"name": "s", "m": "2", "A": 0.25, "D": 0.3, "n_list": [400]}, "'m' must be an integer"),
            ({"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": 5}, "'n_list' must be a list of integers"),
            (
                {"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400], "outputs": "dnn_vs_D"},
                "'outputs' must be a list of strings",
            ),
            ({"name": "../x", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400]}, "scenario name '../x'"),
            ({"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": []}, "sizes must name at least one size and none twice, got []"),
            ({"name": "s", "m": 2, "A": math.nan, "D": 0.3, "n_list": [400]}, "A must satisfy 0 < A < 1, got nan"),
            ({"name": "s", "m": 2, "A": 0.25, "D": math.inf, "n_list": [400]}, "D must be a finite number"),
            (
                # The valid first scenario once wrote its CSV before the
                # second met the generator's feasibility check.
                [
                    {"name": "ok", "m": 2, "A": 0.25, "D": 0.3, "n_list": [300], "seeds": 2},
                    {"name": "bad", "m": 2, "A": 0.1, "D": 0.3, "n_list": [300], "seeds": 2},
                ],
                "lower feasibility bound",
            ),
            ([], "lists no scenario"),
            (
                # Both once ran, the second overwriting the first's table.
                [
                    {"name": "a", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400], "seeds": 2},
                    {"name": "a", "m": 2, "A": 0.3, "D": 0.3, "n_list": [400], "seeds": 2},
                ],
                "names must be unique",
            ),
            (
                # Once pooled the same seeds twice and wrote one table twice.
                {"name": "s", "m": 2, "A": 0.25, "D": 0.3, "n_list": [400, 800, 400], "seeds": 2},
                "none twice, got [400, 800, 400]",
            ),
            (
                # The theory-only table once failed after the simulated
                # scenario had written ok_dnn_vs_d_n300.csv.
                [
                    {"name": "ok", "m": 2, "A": 0.25, "D": 0.3, "n_list": [300], "seeds": 2},
                    {"name": "wide", "m": 150, "A": 0.6, "D": 0.0, "n_list": [1000], "outputs": ["theory_only"]},
                ],
                "error: d_max must be >= m = 150, got 100",
            ),
        ],
    )
    def test_bad_scenario_file_exit_2(self, tmp_path, capsys, payload, key):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code, err = self._run_captured(capsys, "experiment", "run", str(f), "--out-dir", str(out))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--m", "2", "--beta", "0.1", "--c", "nan", "--n", "100"], "c must exceed -m = -2 and be finite, got nan"),
            (["generate", "--m", "2", "--beta", "0.1", "--c", "inf", "--n", "100"], "c must exceed -m = -2 and be finite, got inf"),
            (["generate", "--m", "2", "--A", "nan", "--D", "0.2", "--n", "100"], "(m=2, A=nan, D=0.2) is outside the reachable region A in (0.1, 0.9)"),
            (["theory", "--m", "2", "--A", "0.2", "--D", "nan", "--d-max", "5"], "D must be a finite number >= 0, got nan"),
            (["theory", "--m", "2", "--A", "0.2", "--D", "inf", "--d-max", "5"], "D must be a finite number >= 0, got inf"),
            (["oracle", "--m", "2", "--A", "0.2", "--D", "nan", "--n-end", "100", "--d-max", "10"], "D must be a finite number >= 0, got nan"),
            (["oracle", "--m", "2", "--A", "0.2", "--D", "inf", "--n-end", "100", "--d-max", "10"], "D must be a finite number >= 0, got inf"),
            (["theory", "--m", "2", "--A", "0.6", "--D", "0.2", "--d-max", "3", "--n", "-4"], "size n must be an integer >= 3, got -4"),
            (["theory", "--m", "2", "--A", "0.6", "--D", "0.2", "--d-max", "3", "--n", "0"], "size n must be an integer >= 3, got 0"),
            (["theory", "--m", "2", "--A", "1", "--D", "0", "--d-max", "6"], "A must satisfy 0 < A < 1, got 1.0"),
            (["generate", "--m", "2", "--A", "0.25", "--n", "100"], "--A and --D must be given together"),
            (["generate", "--m", "2", "--beta", "0.3", "--n", "100"], "--beta and --c must be given together"),
            # Below m the theory curve once had no degree and said only that.
            (["oracle", "--m", "2", "--A", "0.25", "--D", "0.3", "--n-end", "100", "--d-max", "1"], "d_max must be >= 2m = 4 to hold the seed"),
            (["oracle", "--m", "2", "--A", "0.25", "--D", "0.3", "--n-end", "100", "--d-max", "3"], "d_max must be >= 2m = 4 to hold the seed"),
            # Once named an internal class and pointed to predictors the oracle cannot use.
            (["oracle", "--m", "2", "--A", "0.6", "--D", "0.2", "--n-end", "100", "--d-max", "10"], "the n -> oo closed form needs A < 1/2, got A=0.6"),
            # Once exited 0 with the closed-form table and no size column.
            (["theory", "--m", "2", "--A", "0.2", "--D", "0.3", "--d-max", "5", "--n", "1000"], "--n sizes the hypothesis columns, which need A >= 1/2, got A=0.2"),
        ],
        ids=[
            "generate_c_nan", "generate_c_inf", "generate_A_nan", "theory_D_nan", "theory_D_inf",
            "oracle_D_nan", "oracle_D_inf", "theory_n_negative", "theory_n_zero", "theory_A_one",
            "generate_A_without_D", "generate_beta_without_c", "oracle_d_max_below_m", "oracle_d_max_below_2m",
            "oracle_A_supercritical", "theory_n_subcritical",
        ],
    )
    def test_bad_numbers_exit_2(self, tmp_path, capsys, argv, message):
        # Each once wrote its file: an edge list before a late check, or
        # NaN, complex-cast or -inf columns with exit 0.
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._run_captured(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_probe_degree_exit_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        s = Scenario(name="nanprobe", m=2, A=0.25, D=0.3, n_list=(300, 600), seeds=4, d0=40)
        f.write_text(scenario_json(s))
        out = tmp_path / "out"
        code, err = self._run_captured(capsys, "experiment", "run", str(f), "--out-dir", str(out))
        assert code == 2
        assert err == "error: probe degree d0 = 40 is missing from 4 of 4 graphs at n = 300\n"
        assert not out.exists()

    def test_later_scenario_failing_writes_nothing(self, tmp_path, capsys):
        # The first scenario's CSVs were once written, and its line printed,
        # before the second scenario's probe degree was found missing.
        f = tmp_path / "s.json"
        f.write_text(
            json.dumps(
                [
                    {"name": "ok", "m": 2, "A": 0.25, "D": 0.3, "n_list": [300], "seeds": 2},
                    {"name": "nanprobe", "m": 2, "A": 0.25, "D": 0.3, "n_list": [300], "seeds": 2, "d0": 40},
                ]
            )
        )
        out = tmp_path / "out"
        code = self._run("experiment", "run", str(f), "--out-dir", str(out), "--gnuplot")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: probe degree d0 = 40 is missing from 2 of 2 graphs at n = 300\n"
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"name": "ok", "m": 2, "A": 0.25, "D": 0.3, "n_list": [300], "seeds": 2}))
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        code, err = self._run_captured(capsys, "experiment", "run", str(f), "--out-dir", str(out))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and str(out) in err
        assert out.read_text() == "not a directory\n"

    def test_size_below_seed_one_message(self, tmp_path, capsys):
        # Once three wordings: "n must be >= seed size m+1 = 3, got 2",
        # "all sizes must be >= seed size m+1 = 3", "n_end must be >= seed size 3, got 2".
        out = tmp_path / "x"
        model = ["--m", "2", "--A", "0.25", "--D", "0.3"]
        errs = [
            self._run_captured(capsys, *argv, "--out", str(out))
            for argv in (
                ["generate", *model, "--n", "2"],
                ["theory", "--m", "2", "--A", "0.6", "--D", "0.2", "--d-max", "5", "--n", "2"],
                ["oracle", *model, "--n-end", "2", "--d-max", "10"],
            )
        ]
        assert errs == [(2, "error: size n must be an integer >= 3, got 2\n")] * 3
        assert not out.exists()

    def test_scenario_file_not_json_names_the_file(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("not json\n")
        code, err = self._run_captured(capsys, "experiment", "run", str(f), "--out-dir", str(tmp_path / "out"))
        assert (code, err) == (2, f"error: {f}: Expecting value: line 1 column 1 (char 0)\n")
        assert not (tmp_path / "out").exists()

    def test_theory_repeated_size_exit_2(self, tmp_path, capsys):
        # Once exited 0, writing the n = 1000 block twice.
        out = tmp_path / "t.csv"
        code, err = self._run_captured(
            capsys, "theory", "--m", "2", "--A", "0.6", "--D", "0.2", "--d-max", "3",
            "--n", "1000", "1000", "--out", str(out),
        )
        assert code == 2
        assert err == "error: sizes must name at least one size and none twice, got [1000, 1000]\n"
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, err = self._run_captured(
            capsys, "generate", "--m", "2", "--A", "0.25", "--D", "0.3",
            "--n", "100", "--seed", "-1", "--out", str(out),
        )
        assert code == 2
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, why",
        [
            ("fig1a", "no degree with pooled N >= 500"),
            ("fig2", "needs at least 2 seeds"),
            ("fig5a", "need at least 3 points"),
            ("fig6a", "needs at least 3 sizes"),
            ("fig6b", "need at least 3 points"),
        ],
    )
    def test_uncomputable_check_fails_cleanly(self, tmp_path, capsys, name, why):
        # One size and few degrees at --n 200: the rule cannot be computed,
        # which is a failed check (exit 3, one line), not a traceback, an
        # "invalid parameters" exit or a nan statistic.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._run_captured(
                capsys, "experiment", "preset", name, "--n", "200", "--seeds", "1",
                "--check", "--out-dir", str(tmp_path),
            )
        assert code == 3
        assert err.startswith(f"CHECK FAIL [{name}]: cannot compute the check: ")
        assert err.count("\n") == 1 and why in err

    def test_theory_only_check_says_skip(self, tmp_path, capsys):
        # fig3 has no rule; its --check once printed CHECK PASS.
        code = self._run("experiment", "preset", "fig3", "--check", "--out-dir", str(tmp_path))
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "CHECK SKIP [fig3]: theory-only preset, no rule"
        assert "CHECK PASS" not in out

    @pytest.mark.parametrize("vid", ["99999999999999999999", "1000000000000"])
    def test_metrics_huge_vertex_id_exit_2(self, tmp_path, capsys, vid):
        # Ids >= 2E once ended in an int64 OverflowError or a multi-TiB
        # allocation; now one error line before any array is built.
        f = tmp_path / "g.txt"
        f.write_text(f"0 1\n1 {vid}\n")
        out = tmp_path / "m.csv"
        code, err = self._run_captured(capsys, "metrics", "--in", str(f), "--out", str(out))
        assert code == 2
        assert err == f"error: vertex id {vid} is not below 2E = 4 (twice the edge count)\n"
        assert not out.exists()

    def test_metrics_leaves_no_thread(self, tmp_path, capsys):
        # Three threads over several file blocks and wedge runs, all joined
        # before main returns.
        f = tmp_path / "g.txt"
        graphgen.export_edge_list(generate(derive_generator_params(2, 0.25, 0.3), 3000, seed=1), f)
        before = threading.active_count()
        with mock.patch.object(parallel, "cpu_count", lambda: 3), mock.patch.object(graphgen, "_READ_BLOCK", 4096):
            code, err = self._run_captured(capsys, "metrics", "--in", str(f), "--out", str(tmp_path / "m.csv"))
        assert (code, err) == (0, "")
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_metrics_profile_error_beside_clustering(self, tmp_path, capsys, threads):
        # degree_profile runs beside clustering, which maps its wedge runs
        # over threads of its own; an error in the profile still ends in
        # one line and exit 2, with no CSV and every thread joined.
        f = tmp_path / "g.txt"
        graphgen.export_edge_list(generate(derive_generator_params(2, 0.25, 0.3), 3000, seed=1), f)
        out = tmp_path / "m.csv"

        def failing_profile(g):
            raise ValueError("profile failed")

        before = threading.active_count()
        with mock.patch.object(parallel, "cpu_count", lambda: threads), mock.patch.object(
            metrics, "_WEDGE_CHUNK", 7
        ), mock.patch.object(cli, "degree_profile", failing_profile):
            code, err = self._run_captured(capsys, "metrics", "--in", str(f), "--out", str(out))
        assert (code, err) == (2, "error: profile failed\n")
        assert not out.exists()
        assert threading.active_count() == before

    def test_metrics_isolated_vertex(self, tmp_path, capsys):
        # Vertex 2 has degree 0: its row reads dnn = nan (was a
        # ZeroDivisionError traceback).
        f = tmp_path / "g.txt"
        f.write_text("0 3\n1 3\n")
        out = tmp_path / "m.csv"
        code, err = self._run_captured(capsys, "metrics", "--in", str(f), "--out", str(out))
        assert code == 0 and err == ""
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0] == {"d": "0", "N": "1", "S": "0", "dnn": "nan", "C_of_d": "0"}
        assert [r["d"] for r in rows] == ["0", "1", "2"]

    def test_theory_d_max_below_m_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, err = self._run_captured(
            capsys, "theory", "--m", "3", "--A", "0.2", "--D", "0.3",
            "--d-max", "2", "--out", str(out),
        )
        assert code == 2
        assert err == "error: d_max must be >= m = 3, got 2\n"
        assert not out.exists()

    def test_theory_only_A_one_exit_2(self, tmp_path, capsys):
        # Once exit 0 with RuntimeWarnings and NaN dnn_hyp columns; a
        # Scenario at A = 1 can no longer be built, so the file is by hand.
        payload = {"name": "one", "m": 2, "A": 1.0, "D": 0.0, "n_list": [1000], "outputs": ["theory_only"]}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(payload))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._run_captured(capsys, "experiment", "run", str(f), "--out-dir", str(out))
        assert code == 2
        assert err == "error: A must satisfy 0 < A < 1, got 1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("A", ["0", "1"])
    @pytest.mark.parametrize("entry", ["theory", "oracle", "run_simulated", "run_theory_only"])
    def test_attachment_slope_domain_exit_2(self, tmp_path, capsys, entry, A):
        # ModelParams admits 0 < A < 1 alone; `oracle --A 0` once exited 0
        # with a uniform-attachment table no simulation can check.
        out = tmp_path / "out"
        if entry == "theory":
            argv = ["theory", "--m", "2", "--A", A, "--D", "0", "--d-max", "6", "--out", str(out)]
        elif entry == "oracle":
            argv = ["oracle", "--m", "2", "--A", A, "--D", "0", "--n-end", "50", "--d-max", "6", "--out", str(out)]
        else:
            payload = {"name": "s", "m": 2, "A": float(A), "D": 0.0, "n_list": [300], "seeds": 1}
            if entry == "run_theory_only":
                payload["outputs"] = ["theory_only"]
            f = tmp_path / "s.json"
            f.write_text(json.dumps(payload))
            argv = ["experiment", "run", str(f), "--out-dir", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._run_captured(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "0 < A < 1" in err
        assert not out.exists()

    def test_theory_small_A_tail_overflows_to_inf(self, tmp_path, capsys):
        # c_asym exceeds the largest float at d = 2..14 and reads inf there,
        # without the RuntimeWarning it once printed; every other cell
        # stays finite.
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._run_captured(
                capsys, "theory", "--m", "2", "--A", "0.005", "--D", "0",
                "--d-max", "3000", "--out", str(out),
            )
        assert code == 0 and err == ""
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2999
        assert [int(r["d"]) for r in rows if r["c_asym"] == "inf"] == list(range(2, 15))
        for r in rows:
            cells = [v for k, v in r.items() if not (k == "c_asym" and v == "inf")]
            assert all(math.isfinite(float(v)) for v in cells), r

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the one dependency: importing the CLI and running theory
        # on both Gamma-ratio paths (c_asym below A = 1/2, the supercritical
        # asymptotic form above) loads no scipy module.
        code = textwrap.dedent(
            f"""
            import sys
            import panet, panet.cli
            for A, extra in (("0.2", []), ("0.6", ["--n", "1000"])):
                argv = ["theory", "--m", "2", "--A", A, "--D", "0.2", "--d-max", "50", *extra]
                assert panet.cli.main([*argv, "--out", {str(tmp_path / "t.csv")!r}]) == 0
            print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(panet.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    def test_theory_only_supercritical_writes_table(self, tmp_path):
        s = Scenario(
            name="hyp", m=2, A=0.6, D=0.2, n_list=(1000, 5000), seeds=1,
            outputs=("theory_only",),
        )
        f = tmp_path / "s.json"
        f.write_text(scenario_json(s))
        assert self._run("experiment", "run", str(f), "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "hyp_theory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["d", "n", "c_exact", "dnn_hyp", "dnn_hyp_asym"]
        assert [(r["d"], r["n"]) for r in rows[:1] + rows[-1:]] == [("2", "1000"), ("100", "5000")]
        assert len(rows) == 2 * 99
