"""Worker threads for the per-group evaluator, under single-threaded BLAS.

The per-group evaluator (:mod:`repro.core.backends.groupeval`) shares
its groups among threads of one process: numpy's ufuncs and its BLAS
release the GIL, so the sqrt, exp and ``1/r`` passes of two groups
overlap.  Three pieces live here.

* :func:`worker_count` -- how many threads an evaluation of ``n``
  groups runs on: the CPUs this process may run on
  (:func:`available_cpus`), capped at ``n``; 1 where no OpenBLAS
  thread setter is found, since the bytes would then depend on the
  BLAS threading.
* :func:`single_threaded_blas` -- a process-wide scope that sets numpy's
  bundled OpenBLAS to one thread (through ctypes, as
  ``benchmarks/e2e/run.py`` reads its count).  Idle OpenBLAS workers
  spin, so BLAS threads and evaluator threads would fight over the
  cores; and OpenBLAS rounds a GEMM or GEMV differently at 1 and 2
  threads, so pinning it makes the bytes independent of the machine's
  core count.  The scope is reference-counted behind a lock: nested or
  concurrent scopes (two user threads applying two sessions) set the
  count once and restore the caller's setting once, when the last one
  exits.
* :func:`run_ordered` -- the worker loop: tasks from one shared counter
  in ascending order, results consumed in task order whichever worker
  finishes first, the first exception raised after every thread joined.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "available_cpus",
    "blas_threads",
    "run_ordered",
    "single_threaded_blas",
    "worker_count",
]

#: ``(getter, setter)`` symbol pairs of OpenBLAS builds: numpy's own
#: (``scipy_openblas``, ILP64 suffixed), then plain OpenBLAS.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@functools.cache
def _openblas():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, or None
    when numpy ships no OpenBLAS with both symbols."""
    libs = glob.glob(
        os.path.join(
            os.path.dirname(np.__file__), os.pardir, "numpy.libs",
            "*openblas*",
        )
    )
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = (ctypes.c_int,)
                set_.restype = None
                return get, set_
    return None


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count now; None without the symbols."""
    api = _openblas()
    return None if api is None else int(api[0]())


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def worker_count(n_tasks: int) -> int:
    """Threads to evaluate ``n_tasks`` groups on: :func:`available_cpus`
    capped at ``n_tasks``, and 1 when the BLAS cannot be pinned."""
    if _openblas() is None:
        return 1
    return max(1, min(available_cpus(), int(n_tasks)))


_scope_lock = threading.Lock()
_scope_depth = 0
_scope_saved = None


@contextmanager
def single_threaded_blas():
    """Run the body with numpy's OpenBLAS on one thread, process-wide.

    The first scope to enter records the caller's count and sets 1; the
    last to exit restores the recorded count.  Without an OpenBLAS
    setter the body runs unchanged.
    """
    global _scope_depth, _scope_saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _scope_lock:
        if _scope_depth == 0:
            _scope_saved = get()
            set_(1)
        _scope_depth += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope_depth -= 1
            if _scope_depth == 0:
                set_(_scope_saved)


def run_ordered(body, states, n_tasks: int, consume) -> None:
    """``consume(body(i, state))`` for every ``i < n_tasks``, on one
    thread per entry of ``states``.

    The calling thread is the first worker and starts one thread for
    each further state.  Workers take tasks from one shared counter in
    ascending order and hand ``body`` their own state.  Results pass
    through an in-order reorder buffer: ``consume`` runs under a lock,
    on whichever worker completes the lowest outstanding task, so
    results are consumed in task order whatever the timing (a worker
    that finishes early parks its result).  The first exception, in
    ``body`` or ``consume``, stops every worker from taking further
    tasks; all threads are joined and it is raised here.
    """
    take_lock = threading.Lock()
    flush_lock = threading.Lock()
    next_task = 0
    next_flush = 0
    parked = {}
    failures = []

    def work(state):
        nonlocal next_task, next_flush
        while True:
            with take_lock:
                if failures or next_task == n_tasks:
                    return
                i = next_task
                next_task += 1
            try:
                result = body(i, state)
                with flush_lock:
                    parked[i] = result
                    while next_flush in parked:
                        consume(parked.pop(next_flush))
                        next_flush += 1
            except BaseException as exc:  # raised by the caller below
                with take_lock:
                    failures.append(exc)
                return

    threads = [
        threading.Thread(target=work, args=(state,))
        for state in states[1:]
    ]
    for thread in threads:
        thread.start()
    try:
        work(states[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
