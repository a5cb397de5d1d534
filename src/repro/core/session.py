"""The session core shared by every prepared driver shell.

All four drivers -- the single-device BLTC, the distributed driver and
the two Sec. 5 extension schemes -- run the same per-apply cycle on
fixed geometry: upload the charges, re-run the moment kernels on cached
cluster grids, rewrite the plan's weight buffer in place, and execute
the plan through a pluggable backend.  This module holds that cycle
once:

* :class:`GeometryState` bundles the charge-independent state one
  device evaluates (tree, batches, interaction lists, moment grids and
  the compiled plan skeleton) and derives a stable
  :meth:`~GeometryState.geometry_key` content hash, the cache key a
  service layer can use for a prepared-session LRU.
* :class:`SessionCore` owns charge validation/multi-RHS widening,
  charge upload, ``refresh_moments``/``refresh_weights``, backend
  dispatch and memory accounting.  The ``Prepared*`` classes are thin
  shells over one (or, distributed, one per rank) of these: the
  distributed shell adds the LET re-ship between precompute and
  execute, the extension shells add their downward interpolation
  passes after it.
* :class:`PreparedSession` is the base of the three single-device
  shells (BLTC, cluster-particle, dual-tree): the core delegation, the
  ``update_geometry`` bookkeeping and the repr live there once; the
  distributed shell (a list of cores) stays separate.
* A weight source translates a driver's weight-slot keys into
  refreshed weight rows: :class:`BatchChargeWeightSource` and
  :class:`DualTreeWeightSource` here for the two extension schemes,
  and :class:`~repro.core.bltc_keys.BLTCWeightSource` -- next to the
  key vocabulary :func:`~repro.core.plan.compile_plan` writes -- for
  both BLTC drivers.  They are stateless and picklable -- the closures
  handed to :meth:`~repro.core.plan.ExecutionPlan.refresh_weights` are
  built transiently per apply and never stored.

Sessions pickle: :meth:`SessionCore.__getstate__` drops the resolved
backend instance whenever it can be re-resolved by registry name, so
the pickle never ships worker pools or locks; the first post-unpickle
apply re-resolves through the process-wide shared store in
:mod:`repro.registry` (two restored sessions selecting
``"multiprocessing"`` therefore share one pool), and dropped caches
(bucket stacks, coincidence candidates, the mirror schedule)
repopulate lazily.

Fault tolerance: this fallback chain is the package's only recovery
path.  A backend failure inside an apply -- a pool worker that died
(:class:`~repro.errors.WorkerCrashError`; the pool itself does not
retry), a stacked layout that failed to build, a backend that cannot
exist in this process (:class:`~repro.errors.BackendUnavailableError`,
e.g. a session restored where its registered backend cannot be
constructed) -- does not have to kill the session.  Under
``TreecodeParams(fallback="degrade")`` (the default)
:meth:`SessionCore.execute_plan` walks the backend's fallback chain
(:data:`FALLBACK_CHAIN`: ``"multiprocessing"`` -> ``"fused"`` ->
``"numpy"``),
emits exactly one :class:`~repro.errors.BackendDegradedWarning` per
transition, records the event (visible in
:meth:`SessionCore.health_stats` and every ``Prepared*`` repr) and
keeps serving through the fallback -- sticky, so later applies skip
the broken backend.  A degraded session returns bitwise what a session
prepared on the fallback backend returns.  ``fallback="strict"``
restores raise-on-failure with the original cause chained.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import (
    BackendDegradedWarning,
    BackendExecutionError,
    GeometryUpdateError,
)
from ..util import as_charge_block
from .backends import Backend, get_backend
from .moments import ClusterMoments, refresh_moments
from .plan import ExecutionPlan

__all__ = [
    "GeometryState",
    "SessionCore",
    "PreparedSession",
    "BatchChargeWeightSource",
    "DualTreeWeightSource",
    "FALLBACK_CHAIN",
    "format_memory_stats",
    "format_health_stats",
]

FLOAT_BYTES = 8

#: Graceful-degradation order per backend name: on failure (or failed
#: by-name resolution) the session tries these, left to right.  Every
#: chain ends in ``"numpy"`` -- the dependency-free reference backend
#: that always exists -- so a degrading session can always keep
#: serving.  Backends not listed (``"numpy"``, ``"model"``, custom
#: registrations) have no fallback: their failures always raise.  A
#: failed execute looks up the backend's ``name``, so the ``"batched"``
#: alias of the plan evaluator degrades as ``"fused"`` does -- a
#: layout build that fails moves the session to ``"numpy"``.
FALLBACK_CHAIN: dict = {
    "multiprocessing": ("fused", "numpy"),
    "fused": ("numpy",),
}

#: The plan fields hashed into a geometry key / counted as plan memory
#: (everything charge-independent; ``src_weights`` is accounted
#: separately as the weight-slot buffer).
_PLAN_GEOMETRY_FIELDS = (
    "group_ptr",
    "seg_group_ptr",
    "seg_kind",
    "seg_ptr",
    "seg_src_lo",
    "out_index",
    "targets",
    "src_points",
)


@dataclass
class GeometryState:
    """Charge-independent state of one device's prepared evaluation.

    ``tree`` is the tree the moments live on (the source tree for the
    BLTC and dual-tree schemes, the target tree for cluster-particle);
    ``aux`` carries driver-specific geometry (a rank's LET, an
    extension's traversal/grouping record).  Everything here is plain
    data -- pickling a session ships it verbatim.
    """

    plan: ExecutionPlan
    tree: Any = None
    batches: Any = None
    lists: Any = None
    moments: ClusterMoments | None = None
    aux: Any = None

    def geometry_key(self) -> str:
        """Stable content hash of the compiled geometry.

        Two sessions prepared from identical positions and parameters
        hash identically (the plan's index arrays and gathered
        coordinate buffers determine every geometry-dependent byte of
        an apply), so a service layer can key a prepared-session LRU
        cache on it.  Charge state (``src_weights``) is excluded.

        The raw position arrays are hashed alongside the plan buffers:
        after ``update_geometry`` a moved particle need not alter any
        plan byte (an interior particle of an approximated cluster
        leaves boxes, lists and gathered rows untouched), but the key
        must still change -- it is the staleness signal session caches
        rely on.
        """
        h = hashlib.sha256()
        plan = self.plan
        h.update(repr(plan.kind_names).encode())
        h.update(str(plan.out_size).encode())
        for name in _PLAN_GEOMETRY_FIELDS:
            arr = getattr(plan, name)
            h.update(name.encode())
            if arr is None:
                h.update(b"<none>")
                continue
            arr = np.ascontiguousarray(arr)
            h.update(arr.dtype.str.encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        for label, arr in (
            ("tree.positions", getattr(self.tree, "positions", None)),
            ("batches.positions", getattr(self.batches, "positions", None)),
            ("aux.target_pos", getattr(self.aux, "target_pos", None)),
            ("aux.source_pos", getattr(self.aux, "source_pos", None)),
        ):
            if arr is None:
                continue
            h.update(label.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


class BatchChargeWeightSource:
    """Cluster-particle weight keys: the source-batch index ``b`` ->
    that batch's charges (the scheme has no moment stage)."""

    def provider(self, geometry: GeometryState, charges: np.ndarray):
        batches = geometry.batches

        def provide(b):
            return charges[batches.batch_indices(b)]

        return provide


class DualTreeWeightSource:
    """Dual-tree weight keys: ``("moments", si)`` -> the source
    cluster's modified charges, ``("particles", si)`` -> its particle
    charges (``geometry.tree`` is the source tree)."""

    def provider(self, geometry: GeometryState, charges: np.ndarray):
        moments = geometry.moments
        s_tree = geometry.tree

        def provide(key):
            what, si = key
            if what == "moments":
                return moments.charges(si)
            return charges[s_tree.node_indices(si)]

        return provide


class SessionCore:
    """The shared per-device session: charges in, potentials out.

    Owns the apply cycle's charge-side half for one device: charge
    validation and multi-RHS widening (:meth:`charge_block`), the
    precompute phase (upload + moment kernels, :meth:`precompute`),
    the weight refresh and backend execution (:meth:`execute_plan`)
    and memory accounting (:meth:`memory_stats`).  Driver shells
    insert their specific steps between these calls (LET re-ship,
    downward passes) and keep their own stats/result assembly.

    ``backend`` may be a registry name or a ready-made
    :class:`~repro.core.backends.Backend` instance; names resolve
    lazily (and re-resolve after unpickling) through
    :func:`~repro.core.backends.get_backend`, so pool-carrying
    backends stay process-wide singletons.
    """

    def __init__(
        self,
        *,
        kernel,
        params,
        backend: str | Backend,
        device,
        geometry: GeometryState,
        weight_source,
        n_charges: int,
        first_upload_nbytes: int = 0,
        moments_download: bool = True,
        geometry_updater=None,
    ) -> None:
        self.kernel = kernel
        self.params = params
        self.device = device
        self.geometry = geometry
        self.weight_source = weight_source
        #: Strategy object behind :meth:`update_geometry` (see
        #: :mod:`repro.core.dynamic`); None means the driver has no
        #: update path (the distributed session rebuilds via prepare).
        self.geometry_updater = geometry_updater
        #: Bytes of transient working state the last incremental
        #: geometry update held (re-bin scratch + the cached traversal
        #: decision record); surfaces in :meth:`memory_stats`.
        self.update_scratch_bytes = 0
        #: Length of the charge vectors this session accepts.
        self.n_charges = int(n_charges)
        #: Extra bytes the first apply uploads (the monolithic
        #: pipeline ships the full source data once); 0 means every
        #: apply uploads only the charges.
        self.first_upload_nbytes = int(first_upload_nbytes)
        #: Whether precompute downloads the modified charges (the BLTC
        #: drivers do; the dual-tree scheme consumes them on-device).
        self.moments_download = bool(moments_download)
        self.n_applies = 0
        self._backend_spec = backend
        self._backend: Backend | None = (
            backend if isinstance(backend, Backend) else None
        )
        #: Sticky fallback backend: set once a degraded apply succeeds,
        #: so later applies skip the broken backend entirely.  Dropped
        #: on pickling (the restored process re-probes from the top --
        #: its environment may be healthy).
        self._degraded: Backend | None = None
        #: Recorded degradation transitions, each
        #: ``{"from", "to", "error"}`` (see :meth:`health_stats`).
        self._fallback_events: list = []
        self._last_error: str | None = None
        #: Set when an ``update_geometry`` fails midway (the state may be
        #: half patched): applies refuse and the next update rebuilds.
        #: Pickles with the session.
        self.geometry_stale = False

    # -- backend resolution ---------------------------------------------
    @property
    def backend(self) -> Backend:
        """The resolved backend instance (lazy; re-resolves by name
        after unpickling, through the process-wide shared store).

        A failed by-name resolution -- the registered name raising
        :class:`~repro.errors.BackendUnavailableError` (a session
        restored where its backend cannot be constructed), or a name
        unknown in this process --
        degrades along :data:`FALLBACK_CHAIN` under
        ``fallback="degrade"`` instead of raising.
        """
        b = self._backend
        if b is None:
            spec = self._backend_spec
            try:
                b = get_backend(spec)
            except (ValueError, BackendExecutionError) as exc:
                if self._strict:
                    raise
                name = spec if isinstance(spec, str) else getattr(
                    spec, "name", repr(spec)
                )
                b = self._resolve_fallback(name, exc)
            self._backend = b
        return b

    @property
    def _strict(self) -> bool:
        return getattr(self.params, "fallback", "degrade") == "strict"

    def _resolve_fallback(self, failed_name: str, cause) -> Backend:
        """First resolvable member of ``failed_name``'s fallback chain;
        records the transition and warns once.  Re-raises ``cause``
        when the name has no chain or the whole chain is unresolvable
        (cannot happen for built-in chains: they end in ``"numpy"``)."""
        chain = FALLBACK_CHAIN.get(failed_name)
        if not chain:
            raise cause
        for candidate in chain:
            try:
                b = get_backend(candidate)
            except Exception:
                continue
            self._record_fallback(failed_name, b.name, cause)
            self._degraded = b
            return b
        raise cause

    def _record_fallback(self, from_name: str, to_name: str, cause) -> None:
        self._last_error = f"{type(cause).__name__}: {cause}"
        self._fallback_events.append(
            {"from": from_name, "to": to_name, "error": self._last_error}
        )
        warnings.warn(
            f"backend {from_name!r} failed "
            f"({self._last_error}); session degraded to {to_name!r} -- "
            "results stay correct, performance may differ "
            '(TreecodeParams(fallback="strict") raises instead)',
            BackendDegradedWarning,
            stacklevel=3,
        )

    @property
    def plan(self) -> ExecutionPlan:
        return self.geometry.plan

    # -- pickling -------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        spec = state["_backend_spec"]
        if not isinstance(spec, str) and getattr(
            spec, "share_instance", False
        ):
            # Pool-carrying backend instances hold process-local state
            # (executors, locks); ship the name instead
            # and let the restored session re-resolve through the
            # process-wide store -- restored sessions then share one
            # pool with each other and with live sessions.
            spec = spec.name
            state["_backend_spec"] = spec
        if isinstance(spec, str):
            state["_backend"] = None
        # A restored session re-probes the configured backend from the
        # top: the new process may be healthy where this one degraded.
        state["_degraded"] = None
        return state

    # -- the apply cycle ------------------------------------------------
    def charge_block(self, charges) -> tuple[np.ndarray, bool, int]:
        """Validate charges; returns ``(block, multi, n_rhs)``.

        The first step of every apply, so it is where a stale session
        (see :meth:`update_geometry`) refuses to serve.
        """
        if self.geometry_stale:
            raise GeometryUpdateError(
                "the last update_geometry failed midway and left this "
                "session's geometry stale; re-prepare or update again"
            )
        charges = as_charge_block(charges, self.n_charges)
        multi = charges.ndim == 2
        n_rhs = int(charges.shape[1]) if multi else 1
        return charges, multi, n_rhs

    def precompute(
        self, charges: np.ndarray, phases, *, n_rhs: int = 1
    ) -> None:
        """Charge upload + moment kernels; closes the precompute phase.

        The first apply ships ``first_upload_nbytes`` extra (the full
        source data, exactly as the monolithic pipelines do); later
        applies re-ship only the charge block.  When the geometry
        carries moment grids the paper's two moment kernels run (and,
        for drivers that read the modified charges back, their DtH
        copy is charged per RHS column).
        """
        device = self.device
        if self.n_applies == 0 and self.first_upload_nbytes:
            device.upload(
                self.first_upload_nbytes + charges.nbytes,
                label="source data",
            )
        else:
            device.upload(charges.nbytes, label="charges")
        moments = self.geometry.moments
        if moments is not None:
            refresh_moments(
                moments, self.geometry.tree, charges, self.params,
                device=device, numerics=self.plan.has_numerics,
            )
            if self.moments_download:
                mbytes = (
                    moments.n_clusters
                    * self.params.n_interpolation_points
                    * FLOAT_BYTES
                    * n_rhs
                )
                device.download(mbytes, label="modified charges")
        phases.precompute += device.take_phase()

    def refresh_weights(self, charges: np.ndarray) -> None:
        """Rewrite the plan's weight buffer for this charge block."""
        if self.plan.has_numerics:
            self.plan.refresh_weights(
                self.weight_source.provider(self.geometry, charges)
            )

    def execute_plan(
        self,
        charges: np.ndarray,
        phases,
        *,
        compute_forces: bool = False,
        multi: bool = False,
        n_rhs: int = 1,
        download_potentials: bool = True,
    ):
        """Weight refresh + backend execution; closes the compute phase.

        The plan runs on the session backend, the one its geometry was
        compiled for (a model session's plan carries no numerics).  The
        ``n_rhs`` kwarg reaches the backend only on the multi path, so
        user-registered backends with the single-vector signature keep
        working unchanged.
        ``download_potentials=False`` skips the DtH copies (extension
        shells download after their downward pass instead); the
        compute phase closes either way.

        Failure handling: a :class:`~repro.errors.BackendExecutionError`
        from the session backend (a pool worker that died, a layout
        build that failed) triggers the fallback chain under
        ``fallback="degrade"`` -- the apply is retried on the next chain
        member and the transition becomes sticky for later applies.
        Note the failed backend may already have charged launches
        against the simulated device before dying, so a *degraded*
        apply's counters/timings can include the aborted attempt;
        numerical results are unaffected (backends accumulate into
        fresh output buffers, and the multiprocessing backend merges
        shard results only after every future resolves).
        """
        backend = self._degraded or self.backend
        self.refresh_weights(charges)
        extra = {"n_rhs": n_rhs} if multi else {}
        device = self.device
        try:
            potential, forces = backend.execute(
                self.plan,
                self.kernel,
                device,
                dtype=self.params.dtype,
                compute_forces=compute_forces,
                **extra,
            )
        except BackendExecutionError as exc:
            if self._strict:
                raise
            potential, forces = self._degrade_and_execute(
                backend, exc,
                compute_forces=compute_forces, extra=extra,
            )
        if download_potentials:
            device.download(potential.nbytes, label="potentials")
            if forces is not None:
                device.download(forces.nbytes, label="forces")
        phases.compute += device.take_phase()
        return potential, forces

    def _degrade_and_execute(
        self, failed: Backend, cause, *, compute_forces: bool, extra: dict
    ):
        """Walk ``failed``'s fallback chain until an execute succeeds.

        The successful fallback becomes sticky (``self._degraded``);
        one :class:`~repro.errors.BackendDegradedWarning` is emitted
        per transition.  Chain exhausted (or no chain) re-raises the
        last structured error.
        """
        chain = FALLBACK_CHAIN.get(failed.name)
        if not chain:
            raise cause
        last_exc = cause
        from_name = failed.name
        for candidate in chain:
            try:
                b = get_backend(candidate)
            except Exception:
                continue
            try:
                result = b.execute(
                    self.plan,
                    self.kernel,
                    self.device,
                    dtype=self.params.dtype,
                    compute_forces=compute_forces,
                    **extra,
                )
            except BackendExecutionError as exc:
                self._record_fallback(from_name, b.name, last_exc)
                from_name = b.name
                last_exc = exc
                continue
            self._record_fallback(from_name, b.name, last_exc)
            self._degraded = b
            return result
        raise last_exc

    # -- dynamic geometry -----------------------------------------------
    def update_geometry(self, new_positions, *, targets=None):
        """Move the session to new particle positions without a cold
        re-prepare.

        Delegates to the driver's geometry updater (see
        :mod:`repro.core.dynamic`): the BLTC session re-bins, patches
        its lists incrementally and recompiles the plan (falling back
        to a full rebuild past ``params.rebuild_threshold``), the
        extension sessions rebuild wholesale.  After the call every
        ``apply()`` is bitwise equal to a cold ``prepare()`` at the new
        positions, and :meth:`geometry_key` reflects the move.
        ``targets`` overrides the target positions; same-object
        sessions (targets defaulted to the sources at prepare) move
        both sets together.

        A failure past input validation raises
        :class:`~repro.errors.GeometryUpdateError` and marks the session
        stale (``geometry_stale``): applies refuse until an update
        succeeds, and the BLTC's next update is a full rebuild.
        """
        if self.geometry_updater is None:
            raise NotImplementedError(
                "this session has no geometry updater; re-prepare the "
                "driver at the new positions instead"
            )
        try:
            result = self.geometry_updater.update(
                self, new_positions, targets=targets
            )
        except (ValueError, TypeError, NotImplementedError):
            # Input-validation errors keep their precise type (callers
            # and tests match on them): they are raised before anything
            # moves.  Every other failure may leave the geometry
            # partially patched, so it marks the session stale.
            raise
        except GeometryUpdateError:
            self.geometry_stale = True
            raise
        except Exception as exc:
            self.geometry_stale = True
            raise GeometryUpdateError(
                "geometry update failed mid-flight; the session's "
                "geometry may be partially patched and stays stale until "
                "it is re-prepared or updated again "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        self.geometry_stale = False
        return result

    # -- accounting -----------------------------------------------------
    def geometry_key(self) -> str:
        return self.geometry.geometry_key()

    def health_stats(self) -> dict:
        """Fault-tolerance counters of this session (the robustness
        ledger next to :meth:`memory_stats`).

        ``backend`` is the configured backend name; ``degraded_to``
        the sticky fallback currently serving applies (None while
        healthy); ``fallbacks`` the recorded degradation transitions;
        ``last_error`` the most recent failure that caused one.
        """
        spec = self._backend_spec
        name = spec if isinstance(spec, str) else getattr(
            spec, "name", repr(spec)
        )
        return {
            "backend": name,
            "degraded_to": (
                self._degraded.name if self._degraded is not None else None
            ),
            "fallbacks": list(self._fallback_events),
            "last_error": self._last_error,
        }

    def memory_stats(self) -> dict:
        """Resident bytes by category (the session-eviction ledger).

        ``plan_bytes`` covers the plan's charge-independent index and
        coordinate arrays; ``weight_slot_bytes`` the weight buffer
        (scales with the current RHS width); ``moment_bytes`` the
        packed modified charges ``qhat``, the cluster grids and the
        upward pass's owner bases and transfer matrices;
        ``update_scratch_bytes`` the incremental-update working state
        (traversal decision record + re-bin scratch; 0 until the first
        ``update_geometry``); ``batched_pad_bytes`` the padding
        overhead of the batched layout's zero-weight-padded buckets
        (pad index/weight slots, validity masks, scatter maps; 0 when
        no layout is attached); ``coincident_cache_bytes`` the candidate
        coincident entries the plan evaluator derives by one neighbour
        pass on its first apply on a geometry, one index array per
        evaluated path, which each block's noise-floor test
        is limited to (0 before that apply and again after
        ``update_geometry``; see :mod:`repro.core.coincidence`).
        Read-only: accounting never resolves the backend, so it cannot
        trigger a fallback.

        The evaluation workspace of the plan evaluator is
        transient and not counted in ``total_bytes``: its buffers live
        for one execute only, and nothing of it stays on the plan.
        """
        plan = self.plan
        plan_bytes = 0
        for name in _PLAN_GEOMETRY_FIELDS:
            arr = getattr(plan, name)
            if arr is not None:
                plan_bytes += int(arr.nbytes)
        weight_bytes = (
            0 if plan.src_weights is None else int(plan.src_weights.nbytes)
        )
        moments = self.geometry.moments
        moment_bytes = 0 if moments is None else moments.nbytes()
        update_bytes = int(getattr(self, "update_scratch_bytes", 0))
        pad_bytes = (
            0 if plan.batched_layout is None
            else int(plan.batched_layout.padding_nbytes())
        )
        coincident_bytes = plan.coincident_nbytes()
        return {
            "plan_bytes": plan_bytes,
            "weight_slot_bytes": weight_bytes,
            "moment_bytes": moment_bytes,
            "update_scratch_bytes": update_bytes,
            "batched_pad_bytes": pad_bytes,
            "coincident_cache_bytes": coincident_bytes,
            "total_bytes": (
                plan_bytes + weight_bytes + moment_bytes + update_bytes
                + pad_bytes + coincident_bytes
            ),
        }


class PreparedSession:
    """Base of the single-device ``Prepared*`` shells.

    A shell is one driver's view of a :class:`SessionCore`: everything
    that only forwards to the core lives here once; subclasses add their
    ``apply()`` and the accessors of their own geometry (and provide
    ``n_sources`` / ``n_targets`` for the repr).  ``phases`` is the
    setup-phase cost charged at prepare time plus every later
    ``update_geometry``.
    """

    def __init__(self, *, driver, core: SessionCore, phases, wall_seconds):
        self.driver = driver
        self.core = core
        #: Setup-phase cost charged once at prepare time.
        self.phases = phases
        self.wall_seconds = wall_seconds

    @property
    def backend(self) -> Backend:
        return self.core.backend

    @property
    def device(self):
        return self.core.device

    @property
    def plan(self) -> ExecutionPlan:
        return self.core.geometry.plan

    @property
    def n_applies(self) -> int:
        return self.core.n_applies

    def geometry_key(self) -> str:
        """Stable content hash of the prepared geometry (cache key)."""
        return self.core.geometry_key()

    def memory_stats(self) -> dict:
        """Resident bytes by category (see ``SessionCore.memory_stats``)."""
        return self.core.memory_stats()

    def health_stats(self) -> dict:
        """Fault-tolerance counters (see ``SessionCore.health_stats``)."""
        return self.core.health_stats()

    def update_geometry(self, new_positions, *, targets=None):
        """Move the session to new particle positions in place.

        The warm-start path for MD time-stepping (see
        :mod:`repro.core.dynamic`): the BLTC session re-bins only
        particles that left their leaf box, rebuilds only dirtied moment
        grids, re-traverses only batches whose recorded MAC decisions no
        longer hold and recompiles the plan from the patched lists --
        falling back to a wholesale rebuild when the tree topology cannot be
        preserved or more than ``params.rebuild_threshold`` of the
        particles re-binned; the extension sessions always rebuild
        wholesale (the result says which happened and why).  Either way
        every subsequent ``apply()`` is bitwise equal to a cold
        ``prepare()`` at the new positions, on every backend.
        Sessions prepared with targets defaulted to the sources move
        both sets together; pass ``targets`` to move a disjoint target
        set explicitly (omitting it leaves disjoint targets where they
        are).

        The simulated setup cost of the update accrues to
        ``self.phases``; :meth:`geometry_key` changes whenever any
        position moved.
        """
        result = self.core.update_geometry(new_positions, targets=targets)
        if result.phases is not None:
            self.phases += result.phases
        self.wall_seconds += result.wall_seconds
        return result

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} n_sources={self.n_sources} "
            f"n_targets={self.n_targets} n_applies={self.n_applies} "
            f"{format_memory_stats(self.memory_stats())} "
            f"{format_health_stats(self.health_stats())}>"
        )


def format_memory_stats(stats: dict) -> str:
    """Compact ``k=v`` rendering of :meth:`SessionCore.memory_stats`
    for the ``Prepared*`` reprs."""
    return (
        f"plan={stats['plan_bytes']}B "
        f"weights={stats['weight_slot_bytes']}B "
        f"moments={stats['moment_bytes']}B "
        f"update={stats.get('update_scratch_bytes', 0)}B "
        f"pad={stats.get('batched_pad_bytes', 0)}B "
        f"coincident={stats.get('coincident_cache_bytes', 0)}B"
    )


def format_health_stats(stats: dict) -> str:
    """Compact rendering of :meth:`SessionCore.health_stats` for the
    ``Prepared*`` reprs: ``health=ok`` while nothing has gone wrong,
    otherwise the non-trivial counters in one bracket."""
    parts = []
    if stats.get("degraded_to"):
        parts.append(f"degraded_to={stats['degraded_to']}")
    if stats.get("fallbacks"):
        parts.append(f"fallbacks={len(stats['fallbacks'])}")
    if not parts:
        return "health=ok"
    return "health=[" + " ".join(parts) + "]"
