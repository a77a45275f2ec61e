"""parallel: the CPU count, the run splitter, and thread_map on more
threads than CPUs: every item once, results in item order, a worker's
exception raised in the caller, and no thread left behind.  The process
pool is tested through run_scenario (test_experiments.TestPool), and here
for a worker that dies during a call."""

import os
import platform
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from panet import parallel


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_cpu_count_is_the_affinity_mask():
    assert parallel.cpu_count() == len(os.sched_getaffinity(0))


# Costs of 0 to 25 against limits of 1 to 12: zeros, items that fit
# several to a run, and items above the limit, which run alone.
@given(costs=st.lists(st.integers(0, 25)), limit=st.integers(1, 12))
@example(costs=[], limit=10)
@example(costs=[0, 0, 11, 0, 10, 0, 3], limit=10)
def test_runs_cover_items_in_order(costs, limit):
    total = np.cumsum([0] + costs)
    spans = parallel.runs(total, limit)
    assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(len(costs)))
    for lo, hi in spans:
        assert total[hi] - total[lo] <= limit or hi - lo == 1
        assert hi == len(costs) or total[hi + 1] - total[lo] > limit  # the next item does not fit
    assert (spans == []) == (costs == [])


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_each_item_once_in_item_order(threads, monkeypatch):
    # A switch every microsecond, so a lost update of the shared item
    # cursor would run an item twice or skip one.
    monkeypatch.setattr(parallel, "cpu_count", lambda: threads)
    seen, idents = [], set()

    def square(x):
        seen.append(x)
        idents.add(threading.get_ident())
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel.thread_map(square, range(3000))
    finally:
        sys.setswitchinterval(interval)
    assert out == [x * x for x in range(3000)]
    assert sorted(seen) == list(range(3000))
    assert len(idents) <= threads
    if threads == 1:  # one CPU: the caller alone, no thread started
        assert idents == {threading.get_ident()}


def test_items_run_at_once_and_all_finish(monkeypatch):
    # The first two items meet at a barrier, which only two threads can
    # pass; the other thread then lags, so the caller runs out of items
    # first and must wait for it.
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    before = threading.active_count()
    barrier = threading.Barrier(2, timeout=10)

    def meet(x):
        if x < 2:
            barrier.wait()
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        return threading.get_ident()

    idents = parallel.thread_map(meet, range(4))
    assert None not in idents and idents[0] != idents[1]
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_nested_maps_keep_order_and_join(threads, monkeypatch):
    # An item that maps again, as clustering does beside degree_profile
    # in `panet metrics`: each map returns in item order, and the threads
    # of both levels are joined when the outer map returns.
    monkeypatch.setattr(parallel, "cpu_count", lambda: threads)
    before = threading.active_count()

    def inner(x):
        return parallel.thread_map(lambda y: (x, y), range(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel.thread_map(inner, range(40))
    finally:
        sys.setswitchinterval(interval)
    assert out == [[(x, y) for y in range(x)] for x in range(40)]
    assert threading.active_count() == before


def test_worker_error_stops_the_map_and_joins(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 4)
    before = threading.active_count()
    done = []

    def fail_at_3(x):
        if x == 3:
            raise ValueError("item 3")
        done.append(x)

    with pytest.raises(ValueError, match="item 3"):
        parallel.thread_map(fail_at_3, range(10_000))
    assert threading.active_count() == before
    assert len(done) < 100  # each thread stops after the item in hand


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_threads_share_one_malloc_arena(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    parallel.thread_map(abs, [1, 2])
    assert parallel._one_arena() == 1


def test_worker_ending_mid_call_drops_the_pool():
    # The one task ends its worker after the call has handed it out, so the
    # pool breaks while its results are read: the call raises and forgets
    # the pool, and the next call runs on a new one.
    old = parallel._pool(2)
    with pytest.raises(BrokenProcessPool):
        parallel.process_map(os._exit, [3], workers=2)
    assert parallel._POOL is None
    assert parallel.process_map(abs, [-1, 2, -3], workers=2) == [1, 2, 3]
    assert parallel._pool(2) is not old
