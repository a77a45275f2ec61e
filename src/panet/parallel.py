"""The CPU count that every parallel layer uses, a map over threads that
the calling thread takes part in, and glibc's malloc tuning."""

from __future__ import annotations

import ctypes
import functools
import os
import threading

__all__ = ["cpu_count", "thread_map", "mallopt"]


def cpu_count() -> int:
    """CPUs in this process's affinity mask (`taskset` narrows it), or
    os.cpu_count() where the mask cannot be read."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def thread_map(fn, items) -> list:
    """[fn(x) for x in items] on min(cpu_count(), len(items)) threads, the
    calling thread being one of them, so one CPU runs it on the caller
    alone.  Each thread takes the next item when it is done with one, so
    uneven items even out.  The first exception fn raises stops every
    thread from taking another item and is raised here; no thread outlives
    the call."""
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


def mallopt(param: int, value: int) -> int | None:
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
    return mallopt(-8, 1)
