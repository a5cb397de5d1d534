"""Multiprocessing backend: shard plan groups across a worker pool.

The paper's headline speedups come from executing the compiled
interaction work on parallel hardware (MPI ranks x GPU kernel
launches); this backend is the single-host analogue on the plan seam.
The compiled :class:`~repro.core.plan.ExecutionPlan` is exactly the
right shipping container for that: flat, immutable, picklable arrays
with CSR-style indices, and an injective ``out_index`` -- so contiguous
runs of groups touch disjoint target rows and shards never race on the
accumulator.

Execution model
---------------
* A **persistent** :class:`~concurrent.futures.ProcessPoolExecutor` is
  created lazily on first use and reused across ``execute`` calls, so
  repeated runs (benchmarks, time stepping) pay the fork cost once.
* Each sharded ``execute`` pickles the plan's flat arrays once and
  hands that payload to every shard's task.  Nothing is cached per
  plan, so a weight refresh, a geometry update or an RHS width change
  needs no bookkeeping: every execute ships the plan as it is now.
* Groups are split into contiguous shards balanced by the modeled
  interaction count (``group_size x seg_size`` summed per group).
  Shard boundaries never affect values: every target row is written by
  exactly one shard (``out_index`` is injective over groups), so any
  split produces bitwise-identical output.  Each worker -- and the
  inline path -- runs the per-group accumulation of
  :func:`~repro.core.backends.groupeval.eval_group_range` (one call of
  the per-block kernel driver ``Kernel.potential`` per group, with a
  forces accumulator when forces are on) with no mirror schedule (a
  mirrored block writes another group's rows, so it cannot be
  sharded), and the parent scatters each shard's rows
  through ``out_index``.  Results are therefore bitwise that function
  over all groups and roundoff-equal to
  :class:`~repro.core.backends.fused.FusedBackend`, which forms each
  mirrored direct block once (or, on a plan of small groups, runs
  stacked buckets).
* With one worker, or a plan below :data:`MIN_PARALLEL_ROWS` logical
  source rows, the evaluation runs inline: same arithmetic, no pool,
  its groups shared among threads as on the fused backend.  A shard
  runs its groups on one thread.  Both run under single-threaded BLAS
  and add every group into its own rows, so the thread count changes
  no bits.

Device accounting is unchanged: launches are charged from the
plan structure before the numerics start, exactly as the fused backend
charges them, so counters and simulated time stay backend-independent.

A worker that dies mid-apply breaks the pool.  The backend then
discards the pool (the next ``execute`` builds a fresh one) and raises
:class:`~repro.errors.WorkerCrashError` once, with the
``BrokenProcessPool`` chained.  It does not retry: a session under
``fallback="degrade"`` serves the apply from its fallback chain
(``"fused"``, then ``"numpy"``) and stays there.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ...errors import WorkerCrashError
from .base import Backend, accumulate_rows, start_execute
from .groupeval import eval_group_range, eval_plan, plan_arrays

__all__ = ["MultiprocessingBackend", "MIN_PARALLEL_ROWS"]

#: Below this many logical source rows the pool overhead dwarfs the
#: work; the backend computes inline (same arithmetic, same results).
#: Read at execute time.
MIN_PARALLEL_ROWS = 8_192


def _worker_run(payload, kernel, compute_forces, g_lo, g_hi):
    """Pool entry point: unpickle the plan arrays, run one shard.

    The shard arithmetic is :func:`.groupeval.eval_group_range` -- the
    same function the inline path runs over all groups, so results are
    bitwise identical at any split by construction.
    """
    return eval_group_range(
        pickle.loads(payload), kernel, compute_forces, g_lo, g_hi
    )


class MultiprocessingBackend(Backend):
    """Shard plan groups across a persistent process pool.

    Parameters
    ----------
    n_workers : worker processes; defaults to ``os.cpu_count()``.
    """

    name = "multiprocessing"
    needs_numerics = True
    # By-name lookups reuse one instance so the pool really persists
    # across compute() calls (see get_backend).
    share_instance = True

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers or (os.cpu_count() or 1))
        self._pool: ProcessPoolExecutor | None = None
        # Registry lookups share one instance (share_instance), so pool
        # creation must be race-free under concurrent first computes.
        self._pool_lock = threading.Lock()

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent; the next execute rebuilds it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- sharding -------------------------------------------------------
    def _shards(self, plan) -> list[tuple[int, int]]:
        """Contiguous group ranges with roughly equal modeled cost."""
        n_shards = min(self.n_workers, plan.n_groups)
        if n_shards <= 1:
            return [(0, plan.n_groups)]
        seg_sizes = np.diff(plan.seg_ptr).astype(np.float64)
        blocks = np.repeat(
            np.diff(plan.group_ptr), np.diff(plan.seg_group_ptr)
        ).astype(np.float64)
        cum_seg = np.concatenate(([0.0], np.cumsum(seg_sizes * blocks)))
        group_cost = (
            cum_seg[plan.seg_group_ptr[1:]] - cum_seg[plan.seg_group_ptr[:-1]]
        )
        cum = np.cumsum(group_cost)
        total = cum[-1]
        if total <= 0.0:
            bounds = np.linspace(0, plan.n_groups, n_shards + 1).astype(int)
        else:
            targets = total * np.arange(1, n_shards) / n_shards
            cuts = np.searchsorted(cum, targets, side="left") + 1
            bounds = np.concatenate(([0], cuts, [plan.n_groups]))
        shards = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lo, hi = int(lo), int(hi)
            if hi > lo:
                shards.append((lo, hi))
        return shards or [(0, plan.n_groups)]

    # -- execution ------------------------------------------------------
    def execute(
        self,
        plan,
        kernel,
        device,
        *,
        dtype=np.float64,
        compute_forces: bool = False,
        n_rhs: int | None = None,
    ):
        out, forces = start_execute(
            self, plan, kernel, device,
            dtype=dtype, compute_forces=compute_forces,
        )
        shards = self._shards(plan)
        if len(shards) > 1 and plan.n_source_rows >= MIN_PARALLEL_ROWS:
            results = self._run_sharded(plan, kernel, compute_forces, shards)
        else:
            # The plan's coincidence candidates (the scan's indices, so
            # the bitwise contract with the sharded path holds either
            # way); no mirror schedule, so the arithmetic is the
            # shards'.
            results = [eval_plan(plan, kernel, compute_forces, mirror=False)]
        for rows in results:
            accumulate_rows(plan, out, forces, *rows)
        return out, forces

    def _run_sharded(self, plan, kernel, compute_forces, shards):
        """Run every shard on the pool; a broken pool is discarded and
        surfaces as :class:`~repro.errors.WorkerCrashError`.

        Shard results merge into the output only after every future
        resolved, so a failed apply leaves nothing half-accumulated.
        """
        payload = pickle.dumps(
            {f: np.ascontiguousarray(a) for f, a in plan_arrays(plan).items()},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            pool = self._ensure_pool()
            futures = [
                pool.submit(
                    _worker_run, payload, kernel, compute_forces, g_lo, g_hi
                )
                for g_lo, g_hi in shards
            ]
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerCrashError(
                f"a multiprocessing worker died executing the plan ({exc}); "
                "the pool is rebuilt on the next execute",
                backend=self.name,
            ) from exc
