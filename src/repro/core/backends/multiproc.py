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
* Per plan the flat buffers are packed into **one POSIX shared-memory
  block**; workers attach by name, build zero-copy NumPy views for
  their shard, and detach before returning (groups are sharded into at
  most one range per worker, so there is nothing to cache between
  shards -- and detaching keeps unlinked blocks from lingering in the
  persistent workers after the run).  The shipment is **cached per
  plan** for the plan's lifetime: a second ``execute`` of the same plan
  ships nothing, and after
  :meth:`~repro.core.plan.ExecutionPlan.refresh_weights` (the
  prepare/apply session seam) only the ``src_weights`` region of the
  existing block is rewritten -- detected through the plan's
  ``weights_version``, never by re-creating the block.  The one
  exception is a multi-RHS width change (``(R,)`` <-> ``(R, n_rhs)``):
  the fixed layout cannot hold a re-shaped buffer, so the old block is
  unlinked immediately and the plan re-packed wholesale.  Blocks are
  unlinked when the plan is garbage-collected or the backend is closed.
  When shared memory is unavailable the buffers fall back to being
  pickled into each shard's task: one copy per shard through the
  executor pipe (re-pickled only when the weights version moves),
  trading bandwidth for portability.
* Groups are split into contiguous shards balanced by *estimated
  per-group cost*.  The first split uses the modeled interaction count
  (``group_size x seg_size`` summed per group); each sharded run then
  feeds the workers' measured shard wall times back into a per-group
  EWMA rate multiplier, so repeated executions of the same plan (a
  prepared session stepping charges) converge onto the machine's actual
  cost profile instead of the model's.  Shard boundaries never affect
  values: every target row is written by exactly one shard
  (``out_index`` is injective over groups), and the per-shard casts are
  elementwise, so any split produces bitwise-identical output.  Each
  worker -- and the inline path -- runs the per-group accumulation of
  :func:`~repro.core.backends.groupeval.eval_group_range` with no
  mirror schedule (a mirrored block writes another group's rows, so it
  cannot be sharded), and the parent scatters each shard's rows
  through ``out_index``.  Results are therefore bitwise that function
  over all groups and roundoff-equal to
  :class:`~repro.core.backends.fused.FusedBackend`, which forms each
  mirrored direct block once.

Device accounting is unchanged: launches are charged in bulk from the
plan structure before the numerics start, exactly as the fused backend
charges them, so counters and simulated time stay backend-independent.

The batched layout (including its zero-weight-padded near-field
buckets) is parent-side state and is **never shipped**: workers consume
only the flat CSR buffers through ``eval_group_range``, so structural
plan updates (``patch_groups``) and geometry refreshes keep shards
coherent purely through the version-gated re-pack above -- the
bucketing cannot go stale in a worker because no worker ever holds it.

Crash recovery / re-pack protocol
---------------------------------
A long-running session must survive a dying worker, so shard execution
runs under a bounded :class:`~repro.core.resilience.RetryPolicy`:

1. A ``BrokenProcessPool`` (a worker crashed mid-shard) or a shard
   timeout (``RetryPolicy.timeout``; a worker hung) aborts the apply's
   collection loop before any partial result is accumulated -- shard
   results only ever merge after *all* futures resolved, so a recovered
   apply is bitwise-identical to an uninterrupted one by construction.
2. ``_recover`` tears the broken pool down (``shutdown(wait=False,
   cancel_futures=True)``), **unlinks the plan's SHM shipment** (a dead
   worker may have held an attachment; re-packing from the parent's
   plan buffers is the only state that needs to survive), reclaims any
   orphaned blocks via :func:`audit_shared_memory`, and counts the
   rebuild in :meth:`MultiprocessingBackend.health_stats`.
3. The retry re-packs the shipment lazily, rebuilds the pool on first
   submit and re-runs *all* shards.  After ``RetryPolicy.max_attempts``
   total attempts a :class:`~repro.errors.WorkerCrashError` escapes
   with the original failure chained; the instance marks itself
   unhealthy so by-name registry lookups hand out a fresh one, and the
   session core degrades along its fallback chain.

Every SHM block this process creates is tracked in a module-level
registry; :func:`audit_shared_memory` inventories the live blocks and
(with ``reclaim=True``) unlinks orphans whose owning shipment died
without running its finalizer.  An ``atexit`` hook performs a final
sweep so no ``/dev/shm`` block outlives the interpreter.  Faults are
injectable deterministically through :mod:`repro.core.resilience`
(``REPRO_FAULT="mp_worker_crash:shard=2:times=1"``), so all of the
above is CI-testable without racing ``kill`` against the pool.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ...errors import ShipmentError, WorkerCrashError
from ..resilience import RetryPolicy, get_fault_injector
from .base import Backend, charge_plan_launches
from .groupeval import eval_group_range, plan_arrays

__all__ = ["MultiprocessingBackend", "audit_shared_memory"]

#: Below this many logical source rows the pool overhead dwarfs the
#: work; the backend computes inline (same arithmetic, same results).
MIN_PARALLEL_ROWS = 8_192


class _PlanCost:
    """Per-plan shard-cost state: modeled cost + learned rate multipliers.

    ``modeled`` is the interaction-count cost per group (fixed geometry);
    ``rate`` starts at one everywhere and is nudged by
    :meth:`MultiprocessingBackend._observe_shard_times` toward the
    measured relative cost, so the product is the adaptive estimate.
    """

    __slots__ = ("modeled", "rate")

    def __init__(self, modeled: np.ndarray, rate: np.ndarray) -> None:
        self.modeled = modeled
        self.rate = rate


# ----------------------------------------------------------------------
# Shared-memory block accounting: every block this process creates is
# registered here so leaks are auditable (and reclaimable) even when a
# shipment's finalizer never ran (a crashed apply, a hard interpreter
# teardown ordering).
# ----------------------------------------------------------------------

#: SHM block name -> weakref to the owning :class:`_Shipment`.
_SHM_BLOCKS: dict = {}
_SHM_BLOCKS_LOCK = threading.Lock()


def _register_block(name: str, ship: "_Shipment") -> None:
    with _SHM_BLOCKS_LOCK:
        _SHM_BLOCKS[name] = weakref.ref(ship)


def _unregister_block(name: str) -> None:
    with _SHM_BLOCKS_LOCK:
        _SHM_BLOCKS.pop(name, None)


def audit_shared_memory(*, reclaim: bool = False) -> dict:
    """Inventory the SHM blocks this process created and still owns.

    Returns ``{"live": [{"name", "size"}...], "live_bytes", "orphans",
    "reclaimed"}``.  A block is *live* while its owning shipment still
    holds it; it is an *orphan* when the shipment died (or was closed)
    without the block being unlinked -- which the shipment finalizers
    normally prevent, so a non-empty ``orphans`` list is itself a
    finding.  With ``reclaim=True`` orphaned blocks are unlinked on the
    spot (counted in ``"reclaimed"``); the pool-rebuild path and the
    interpreter-exit hook both sweep with it so a worker crash can
    never strand ``/dev/shm`` segments.
    """
    with _SHM_BLOCKS_LOCK:
        items = list(_SHM_BLOCKS.items())
    live, orphans = [], []
    for name, ref in items:
        ship = ref()
        shm = None if ship is None else ship.shm
        if shm is not None and shm.name == name:
            live.append({"name": name, "size": int(shm.size)})
        else:
            orphans.append(name)
    reclaimed = 0
    if reclaim and orphans:
        from multiprocessing import shared_memory

        for name in orphans:
            _unregister_block(name)
            try:
                blk = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError):
                continue  # already gone: nothing leaked
            try:
                blk.close()
                blk.unlink()
                reclaimed += 1
            except OSError:  # pragma: no cover - raced unlink
                pass
    return {
        "live": live,
        "live_bytes": sum(b["size"] for b in live),
        "orphans": orphans,
        "reclaimed": reclaimed,
    }


def _reclaim_at_exit() -> None:  # pragma: no cover - interpreter exit
    """Final sweep: unlink every block this process still owns."""
    with _SHM_BLOCKS_LOCK:
        items = list(_SHM_BLOCKS.items())
    for _, ref in items:
        ship = ref()
        if ship is not None:
            ship.close()
    audit_shared_memory(reclaim=True)


atexit.register(_reclaim_at_exit)


# ----------------------------------------------------------------------
# Plan shipping: the flat buffers packed into one shared-memory block.
# ----------------------------------------------------------------------


def _pack_shipment(plan):
    """Copy the plan's arrays into one SHM block; returns (shm, spec).

    ``spec`` maps field -> (offset, shape, dtype-str) plus the block
    name, everything a worker needs to rebuild read-only views.  Falls
    back to ``None`` (pickle shipping) when shared memory is unusable.
    """
    injector = get_fault_injector()
    if injector.fire("shipment_pack_fatal") is not None:
        raise OSError("injected fault: shipment_pack_fatal")
    arrays = {
        field: np.ascontiguousarray(arr)
        for field, arr in plan_arrays(plan).items()
    }
    total = sum(a.nbytes for a in arrays.values())
    if total == 0:
        return None, None
    try:
        from multiprocessing import shared_memory

        if injector.fire("shipment_pack") is not None:
            raise OSError("injected fault: shipment_pack")
        shm = shared_memory.SharedMemory(create=True, size=total)
    except (ImportError, OSError):
        return None, None
    layout = {}
    offset = 0
    for field, arr in arrays.items():
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf[offset:])
        view[...] = arr
        layout[field] = (offset, arr.shape, arr.dtype.str)
        offset += arr.nbytes
    return shm, {"shm_name": shm.name, "layout": layout}


def _pickle_payload(plan) -> bytes:
    """The pickle-shipping fallback: one self-contained task payload."""
    arrays = {
        f: np.ascontiguousarray(arr) for f, arr in plan_arrays(plan).items()
    }
    return pickle.dumps(arrays, protocol=pickle.HIGHEST_PROTOCOL)


class _Shipment:
    """One plan's shipped buffers, cached for the plan's lifetime.

    Either a shared-memory block (``shm``/``spec``) or a pickled
    payload; ``version`` mirrors the plan's ``weights_version`` at the
    last (re)ship, so :meth:`refresh` rewrites only the weight region
    (or re-pickles) when the session refreshed the charges in between.
    ``geom_version``/``struct_version`` mirror the plan's dynamic-
    geometry counters: an in-place geometry refresh rewrites only the
    targets/out_index/src_points regions, a structural patch (changed
    array shapes) unlinks the block and re-packs wholesale.
    """

    __slots__ = (
        "shm", "spec", "payload", "version", "geom_version",
        "struct_version", "__weakref__",
    )

    def __init__(
        self, shm, spec, payload, version: int,
        geom_version: int, struct_version: int,
    ) -> None:
        self.shm = shm
        self.spec = spec
        self.payload = payload
        self.version = version
        self.geom_version = geom_version
        self.struct_version = struct_version
        if shm is not None:
            _register_block(shm.name, self)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already released this shipment's state.

        A closed shipment must never be handed to workers: its SHM
        block is unlinked and its payload dropped.  The shipment cache
        re-packs when it finds one (``close()`` -> ``apply()`` safety).
        """
        return self.shm is None and self.payload is None

    @classmethod
    def pack(cls, plan, *, use_shared_memory: bool) -> "_Shipment":
        shm = spec = payload = None
        if use_shared_memory:
            shm, spec = _pack_shipment(plan)
        if spec is None:
            payload = _pickle_payload(plan)
        return cls(
            shm, spec, payload, plan.weights_version,
            getattr(plan, "geometry_version", 0),
            getattr(plan, "structure_version", 0),
        )

    def refresh(self, plan) -> None:
        """Re-ship only the charge-dependent weight buffer."""
        if self.shm is not None:
            offset, shape, dtype = self.spec["layout"]["src_weights"]
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self.shm.buf[offset:]
            )
            view[...] = plan.src_weights
        else:
            self.payload = _pickle_payload(plan)
        self.version = plan.weights_version

    def refresh_geometry(self, plan) -> None:
        """Rewrite the in-place-refreshed geometry regions of the block.

        Only valid when the plan's structure (hence every region's
        shape) is unchanged -- the caller gates on ``struct_version``
        first.  The pickle fallback re-ships everything, so it also
        brings the weight version current.
        """
        if self.shm is not None:
            for fld in ("targets", "out_index", "src_points"):
                offset, shape, dtype = self.spec["layout"][fld]
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=self.shm.buf[offset:]
                )
                view[...] = getattr(plan, fld)
        else:
            self.payload = _pickle_payload(plan)
            self.version = plan.weights_version
        self.geom_version = plan.geometry_version

    def close(self) -> None:
        """Release the block (idempotent; safe from a GC finalizer)."""
        shm, self.shm = self.shm, None
        if shm is not None:
            _unregister_block(shm.name)
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already unlinked
                pass
        self.payload = None


def _attach_shipment(spec):
    """Attach the parent's SHM block; returns ``(shm, arrays)`` views.

    The parent owns the block's lifetime: workers fork after the
    parent's create has started the (shared) resource tracker, so
    attach-side registrations land in the same tracker set and the
    parent's unlink() performs the single matching unregister.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=spec["shm_name"])
    arrays = {}
    for field, (offset, shape, dtype) in spec["layout"].items():
        arrays[field] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf[offset:]
        )
    return shm, arrays


def _worker_run(
    spec, payload, kernel, dtype, compute_forces, g_lo, g_hi, fault=None
):
    """Pool entry point: attach (or unpickle) the plan, run one shard.

    The shard arithmetic is :func:`.groupeval.eval_group_range` -- the
    same function the inline path runs over all groups, so results are
    bitwise identical at any split by construction.  The evaluation
    wall time (attach / unpickle overhead excluded -- it is
    per-shard-constant, not per-group) is appended to the result tuple
    so the parent's adaptive shard sizing learns the measured per-group
    cost.

    ``fault`` is the parent-decided injection token (deterministic:
    the parent's injector matched this shard): ``("crash", _)`` kills
    the process before the shipment is touched -- the real-worker-death
    path, surfacing parent-side as ``BrokenProcessPool`` -- and
    ``("hang", seconds)`` sleeps first, exercising the shard timeout.
    """
    if fault is not None:
        kind, arg = fault
        if kind == "crash":
            os._exit(17)
        elif kind == "hang":
            time.sleep(arg)
    if spec is None:
        arrays = pickle.loads(payload)
        t0 = time.perf_counter()
        result = eval_group_range(
            arrays, kernel, dtype, compute_forces, g_lo, g_hi
        )
        return result + (time.perf_counter() - t0,)
    shm, arrays = _attach_shipment(spec)
    try:
        # The returned phi/force blocks are freshly allocated; only the
        # transient per-shard views reference the mapping.
        t0 = time.perf_counter()
        result = eval_group_range(
            arrays, kernel, dtype, compute_forces, g_lo, g_hi
        )
        return result + (time.perf_counter() - t0,)
    finally:
        del arrays
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view outlived the call
            pass


# ----------------------------------------------------------------------


class MultiprocessingBackend(Backend):
    """Shard plan groups across a persistent process pool.

    Parameters
    ----------
    n_workers : worker processes; defaults to ``os.cpu_count()``.  With
        one worker (or a plan below :data:`MIN_PARALLEL_ROWS` logical
        rows) the shard evaluation runs inline -- identical results,
        no pool spin-up.
    use_shared_memory : ship plan buffers through one POSIX SHM block
        (the default); ``False`` pickles them into each shard's task,
        which is slower but exercises the portable path.
    adaptive_shards : refine the shard split from measured shard wall
        times (per-plan EWMA over the modeled per-group cost; the
        default).  ``False`` keeps the purely modeled
        interaction-count split.
    shard_ewma_alpha : weight of the newest observation in the EWMA.
    retry : bounded-recovery policy for worker crashes and hangs (see
        the module docstring's crash-recovery protocol); defaults to
        ``RetryPolicy()`` -- 3 total attempts, exponential backoff, no
        shard timeout.  ``RetryPolicy(timeout=...)`` additionally
        bounds how long one apply waits on its shard futures.
    """

    name = "multiprocessing"
    needs_numerics = True
    # By-name lookups reuse one instance so the pool really persists
    # across compute() calls (see get_backend).
    share_instance = True

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        use_shared_memory: bool = True,
        min_parallel_rows: int = MIN_PARALLEL_ROWS,
        adaptive_shards: bool = True,
        shard_ewma_alpha: float = 0.5,
        retry: RetryPolicy | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not (0.0 < shard_ewma_alpha <= 1.0):
            raise ValueError(
                f"shard_ewma_alpha must lie in (0, 1], got {shard_ewma_alpha}"
            )
        self.n_workers = int(n_workers or (os.cpu_count() or 1))
        self.use_shared_memory = bool(use_shared_memory)
        self.min_parallel_rows = int(min_parallel_rows)
        self.adaptive_shards = bool(adaptive_shards)
        self.shard_ewma_alpha = float(shard_ewma_alpha)
        self.retry = retry if retry is not None else RetryPolicy()
        #: Recovery counters surfaced through :meth:`health_stats`.
        self._health = {"retries": 0, "pool_rebuilds": 0, "last_error": None}
        #: Set when bounded recovery was exhausted: the instance keeps
        #: working (the next apply still tries) but :meth:`is_healthy`
        #: reports False so by-name registry lookups -- e.g. a session
        #: restored from a pickle -- get a fresh instance instead.
        self._poisoned = False
        #: plan -> _PlanCost (modeled per-group cost + learned rates).
        self._cost_state: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._pool: ProcessPoolExecutor | None = None
        # Registry lookups share one instance (share_instance), so pool
        # creation must be race-free under concurrent first computes.
        self._pool_lock = threading.Lock()
        #: plan -> _Shipment; plans hash by identity and the weak keys
        #: let a plan's block be unlinked as soon as the plan dies.
        self._shipments: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._ship_lock = threading.Lock()

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down and unlink cached shipments (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._ship_lock:
            ships = list(self._shipments.values())
            self._shipments.clear()
        for ship in ships:
            ship.close()

    # -- health ---------------------------------------------------------
    def health_stats(self) -> dict:
        """Recovery counters: retries, pool rebuilds, last error seen."""
        return dict(self._health)

    def is_healthy(self) -> bool:
        """False once bounded recovery was exhausted (pool poisoned).

        :func:`repro.registry.shared_backend_instance` consults this so
        a session resolving the backend by name -- e.g. one restored
        from a pickle -- transparently gets a fresh healthy instance
        instead of the broken shared one.
        """
        return not self._poisoned

    # -- shipment cache -------------------------------------------------
    def _pack_checked(self, plan) -> _Shipment:
        """Pack a fresh shipment; unexpected failures become
        :class:`~repro.errors.ShipmentError` (the pickle fallback
        absorbs *expected* SHM unavailability before this point)."""
        try:
            return _Shipment.pack(
                plan, use_shared_memory=self.use_shared_memory
            )
        except Exception as exc:
            raise ShipmentError(
                f"packing the plan shipment failed: {exc}",
                backend=self.name,
            ) from exc

    def _get_shipment(self, plan) -> _Shipment:
        """The plan's cached shipment, weight-refreshed if stale."""
        with self._ship_lock:
            ship = self._shipments.get(plan)
            if ship is not None and ship.closed:
                # close() -> apply() safety: a shipment released behind
                # the cache's back (backend close, recovery teardown,
                # a finalizer) must never reach a worker -- its block
                # is unlinked.  Drop the stale entry and re-pack.
                ship = None
            if ship is None:
                ship = self._pack_checked(plan)
                self._shipments[plan] = ship
                # Unlink the block when the plan is collected; the
                # finalizer holds the shipment, not the plan.
                weakref.finalize(plan, ship.close)
                return ship
            if ship.struct_version != getattr(plan, "structure_version", 0):
                # A group patch changed the plan arrays' shapes: the
                # fixed-layout block cannot be rewritten region by
                # region, so unlink it and re-pack wholesale (no leaked
                # block; the new shipment gets its own plan finalizer).
                ship.close()
                ship = self._pack_checked(plan)
                self._shipments[plan] = ship
                weakref.finalize(plan, ship.close)
                return ship
            if ship.geom_version != getattr(plan, "geometry_version", 0):
                # In-place geometry refresh: same shapes, new values.
                ship.refresh_geometry(plan)
            if ship.version != plan.weights_version:
                if ship.shm is not None and tuple(
                    ship.spec["layout"]["src_weights"][1]
                ) != tuple(plan.src_weights.shape):
                    # The RHS width changed: the fixed-layout block
                    # cannot hold the re-shaped weight buffer, so unlink
                    # it and re-pack wholesale (no leaked block; the new
                    # shipment gets its own plan finalizer).
                    ship.close()
                    ship = self._pack_checked(plan)
                    self._shipments[plan] = ship
                    weakref.finalize(plan, ship.close)
                else:
                    ship.refresh(plan)
            return ship

    def shipment_nbytes(self, plan) -> int:
        """Bytes held by the plan's cached shipment (0 when unshipped).

        Memory-accounting hook for session eviction: the SHM block size
        when shared memory backs the shipment, the pickled payload size
        on the fallback path.
        """
        with self._ship_lock:
            ship = self._shipments.get(plan)
        if ship is None:
            return 0
        if ship.shm is not None:
            return int(ship.shm.size)
        if ship.payload is not None:
            return len(ship.payload)
        return 0

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- sharding -------------------------------------------------------
    def _plan_cost(self, plan) -> "_PlanCost":
        """The plan's cached cost state (modeled cost + learned rates)."""
        state = self._cost_state.get(plan)
        if state is None:
            seg_sizes = np.diff(plan.seg_ptr).astype(np.float64)
            blocks = np.repeat(
                np.diff(plan.group_ptr), np.diff(plan.seg_group_ptr)
            ).astype(np.float64)
            per_seg = seg_sizes * blocks
            cum_seg = np.concatenate(([0.0], np.cumsum(per_seg)))
            modeled = cum_seg[plan.seg_group_ptr[1:]] - cum_seg[
                plan.seg_group_ptr[:-1]
            ]
            state = _PlanCost(modeled, np.ones(plan.n_groups))
            self._cost_state[plan] = state
        return state

    def _observe_shard_times(self, plan, shards, seconds) -> None:
        """Fold measured shard wall times into the per-group EWMA rates.

        Each shard's observed seconds-per-modeled-interaction, normalized
        over this run's shards (only relative cost matters for the
        split), nudges the rate of every group it covered; the next
        :meth:`_shards` call balances ``modeled x rate`` instead of the
        bare model.  The fallback is structural: with no observations the
        rates are all one and the split is exactly the modeled
        interaction-count split.
        """
        state = self._plan_cost(plan)
        work = np.array(
            [float(state.modeled[lo:hi].sum()) for lo, hi in shards]
        )
        secs = np.asarray(seconds, dtype=np.float64)
        ok = (work > 0.0) & (secs > 0.0)
        if ok.sum() < 2:
            return
        rates = secs[ok] / work[ok]
        rates /= rates.mean()
        a = self.shard_ewma_alpha
        for (lo, hi), r in zip(
            (s for s, use in zip(shards, ok) if use), rates
        ):
            state.rate[lo:hi] = (1.0 - a) * state.rate[lo:hi] + a * r

    def _shards(self, plan) -> list[tuple[int, int]]:
        """Contiguous group ranges with roughly equal estimated cost."""
        n_shards = min(self.n_workers, plan.n_groups)
        if n_shards <= 1:
            return [(0, plan.n_groups)]
        state = self._plan_cost(plan)
        group_cost = state.modeled
        if self.adaptive_shards:
            group_cost = group_cost * state.rate
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
        if not plan.has_numerics:
            raise ValueError(
                f"backend {self.name!r} needs a plan compiled with numerics"
            )
        width = plan.rhs_width
        charge_plan_launches(
            plan, kernel, device,
            dtype=dtype, compute_forces=compute_forces, bulk=True,
            n_rhs=width or 1,
        )
        out = np.zeros(
            plan.out_size if width is None else (plan.out_size, width),
            dtype=np.float64,
        )
        forces = (
            np.zeros(
                (plan.out_size, 3)
                if width is None
                else (plan.out_size, 3, width),
                dtype=np.float64,
            )
            if compute_forces
            else None
        )
        shards = self._shards(plan)
        parallel = (
            len(shards) > 1 and plan.n_source_rows >= self.min_parallel_rows
        )
        if not parallel:
            # cast_geometry: the plan's dtype-keyed cast caches
            # (elementwise-identical values, so the bitwise contract
            # with the sharded path holds either way); no mirror
            # schedule, so the arithmetic is the shards'.
            results = [
                eval_group_range(
                    plan_arrays(plan, cast_geometry=dtype), kernel, dtype,
                    compute_forces, 0, plan.n_groups,
                )
            ]
        else:
            results = self._run_sharded(plan, kernel, dtype, compute_forces, shards)
        for t_lo, t_hi, phi, f_blk in results:
            idx = plan.out_index[t_lo:t_hi]
            out[idx] += phi
            if forces is not None and f_blk is not None:
                forces[idx] += f_blk
        return out, forces

    def _run_sharded(self, plan, kernel, dtype, compute_forces, shards):
        """Submit all shards and collect results, recovering from a
        broken or hung pool under the retry policy.

        Shard results only merge into the output after *every* future
        resolved, so a recovered apply (pool torn down, shipment
        unlinked and re-packed, all shards re-run) returns exactly the
        bits an uninterrupted apply would have.
        """
        policy = self.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._submit_shards(
                    plan, kernel, dtype, compute_forces, shards
                )
            except (BrokenProcessPool, FutureTimeoutError, OSError) as exc:
                self._health["last_error"] = f"{type(exc).__name__}: {exc}"
                # Tear down + reclaim even when out of attempts: the
                # escaping error must not leave a broken pool or an SHM
                # block attached to dead workers behind.
                self._recover(plan)
                if attempt >= policy.max_attempts:
                    self._poisoned = True
                    raise WorkerCrashError(
                        f"multiprocessing pool failed {attempt} time(s) "
                        f"executing the plan (last: {self._health['last_error']}); "
                        "recovery attempts exhausted",
                        backend=self.name,
                        attempts=attempt,
                    ) from exc
                self._health["retries"] += 1
                delay = policy.delay(attempt)
                if delay > 0.0:
                    time.sleep(delay)

    def _submit_shards(self, plan, kernel, dtype, compute_forces, shards):
        injector = get_fault_injector()
        if injector.fire("mp_pool_broken") is not None:
            raise BrokenProcessPool("injected fault: mp_pool_broken")
        pool = self._ensure_pool()
        ship = self._get_shipment(plan)
        futures = []
        for i, (g_lo, g_hi) in enumerate(shards):
            fault = None
            spec = injector.fire("mp_worker_crash", shard=i)
            if spec is not None:
                fault = ("crash", 0.0)
            else:
                spec = injector.fire("mp_worker_hang", shard=i)
                if spec is not None:
                    fault = ("hang", float(spec.get("seconds", 30.0)))
            futures.append(
                pool.submit(
                    _worker_run,
                    ship.spec, ship.payload, kernel, dtype, compute_forces,
                    g_lo, g_hi, fault,
                )
            )
        deadline = (
            None
            if self.retry.timeout is None
            else time.monotonic() + self.retry.timeout
        )
        results = []
        seconds = []
        for f in futures:
            remaining = (
                None
                if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            t_lo, t_hi, phi, f_blk, dt = f.result(timeout=remaining)
            results.append((t_lo, t_hi, phi, f_blk))
            seconds.append(dt)
        if self.adaptive_shards:
            self._observe_shard_times(plan, shards, seconds)
        return results

    def _recover(self, plan) -> None:
        """Tear down after a pool failure: discard the pool, unlink the
        plan's shipment (dead workers may have held attachments) and
        reclaim any orphaned SHM blocks.  The next attempt re-packs and
        rebuilds lazily through ``_ensure_pool``/``_get_shipment``."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        with self._ship_lock:
            ship = self._shipments.pop(plan, None)
        if ship is not None:
            ship.close()
        audit_shared_memory(reclaim=True)
        self._health["pool_rebuilds"] += 1
