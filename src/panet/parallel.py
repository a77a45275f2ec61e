"""How work is cut into runs and spread over the CPUs: the CPU count, the
run splitter, a map over threads that the caller takes part in, a map
over a warm process pool, and glibc's malloc tuning for both maps."""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

__all__ = ["cpu_count", "runs", "thread_map", "process_map"]


def cpu_count() -> int:
    """CPUs in this process's affinity mask (`taskset` narrows it), or
    os.cpu_count() where the mask cannot be read."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def runs(total, limit: int) -> list[tuple[int, int]]:
    """(lo, hi) for each run of items lo .. hi-1, in order, that covers the
    items once.  total is the prefix sum of the item costs from 0 (items
    lo .. hi-1 cost total[hi] - total[lo]).  Each run costs at most limit,
    or is one item that costs more, and takes every item that still fits."""
    total = np.asarray(total)
    out = []
    lo, n = 0, len(total) - 1
    while lo < n:
        hi = max(int(np.searchsorted(total, total[lo] + limit, side="right")) - 1, lo + 1)
        out.append((lo, hi))
        lo = hi
    return out


def thread_map(fn, items) -> list:
    """[fn(x) for x in items] on min(cpu_count(), len(items)) threads, the
    calling thread being one of them, so one CPU runs it on the caller
    alone.  Each thread takes the next item when it is done with one, so
    uneven items even out.  The first exception fn raises stops every
    thread from taking another item and is raised here; no thread outlives
    the call.  An fn that itself calls thread_map starts threads of its
    own, so while both maps run the threads may briefly exceed
    cpu_count()."""
    items = list(items)
    out = [None] * len(items)
    todo = iter(range(len(items)))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work():
        while not errors:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:  # raised in the caller, not lost with its thread
                errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(cpu_count(), len(items)) - 1)]
    if threads:
        _one_arena()
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return out


def process_map(fn, items, workers: int | None = None) -> list:
    """[fn(x) for x in items] on this process's pool of `workers` workers
    (see _pool), or in the caller for one worker.  workers=None: one per
    CPU, at most one per item.  A pool found broken before any item of
    this call ran (a worker died since the last call) is rebuilt once; one
    that breaks during the call is dropped and the error raised."""
    items = list(items)
    if workers is None:
        workers = min(cpu_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    pool = _pool(workers)
    try:
        done = pool.map(fn, items)
    except BrokenProcessPool:
        _drop_pool(pool)
        pool = _pool(workers)
        done = pool.map(fn, items)
    try:
        return list(done)
    except BrokenProcessPool:
        _drop_pool(pool)
        raise


def _keep_freed_memory() -> tuple[int | None, int | None]:
    """Pool initializer: numpy blocks up to 32 MiB come from the heap and
    stay there when freed, instead of being mapped and zeroed afresh for
    every job, and an idle worker returns its heap top only beyond 256 MiB
    free.  Returns glibc mallopt's two results (1 on success, None
    without mallopt).  Measured on 2 cores, the `presets` benchmark's
    pass_s read 0.428-0.448 reference s without it and 0.336-0.339 with
    it (about +30%), so measure before removing it."""
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h.
    return _mallopt(-3, 32 << 20), _mallopt(-1, 256 << 20)


# (pid of the process that made it, worker count, pool), or None.  The
# pool lives until interpreter exit, where concurrent.futures joins it.
_POOL: tuple[int, int, ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.Lock()


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` workers, made on first use.  One
    of another size is shut down and replaced; one inherited through
    os.fork belongs to the parent and is left alone."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[:2] == (os.getpid(), workers):
            return _POOL[2]
        if _POOL is not None and _POOL[0] == os.getpid():
            _POOL[2].shutdown()
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_memory)
        _POOL = (os.getpid(), workers, pool)
        return pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken pool, so that the next _pool call makes a new one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[2] is pool:
            _POOL = None
    pool.shutdown()


def _mallopt(param: int, value: int) -> int | None:
    """glibc's mallopt(param, value): 1 on success, None without mallopt
    (another C library)."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn(param, value)


@functools.cache
def _one_arena() -> int | None:
    """Serve every thread from one malloc arena (M_ARENA_MAX is -8 in
    glibc's malloc.h).  glibc gives each new thread an arena of its own,
    which keeps the blocks the thread frees: on two threads `panet
    metrics` at n = 2e5 held about 2 MiB more at its peak than on one,
    and with one arena it holds what one thread holds plus the buffers
    the threads have in hand at once."""
    return _mallopt(-8, 1)
