"""Fault-injection matrix for the fault-tolerant execution layer.

Every failure mode is injected deterministically through
:mod:`repro.core.resilience` (no real ``kill`` racing a pool), and
every recovery contract from the module docstrings is asserted:

* a worker crash mid-apply (single RHS, multi-RHS, and after
  ``update_geometry``) recovers automatically with bitwise-identical
  results, zero leaked SHM blocks and exactly one pool rebuild;
* a persistently crashing pool exhausts bounded recovery and the
  session degrades along the fallback chain (one structured warning),
  still returning correct results;
* ``fallback="strict"`` raises :class:`~repro.errors.WorkerCrashError`
  with the original ``BrokenProcessPool`` chained;
* ``close()`` -> ``apply()`` re-packs the unlinked shipment;
* a pickle-restored session whose shared pool member is broken
  transparently resolves a fresh healthy instance.
"""

from __future__ import annotations

import pickle
import warnings
import weakref

import numpy as np
import pytest

from repro import registry
from repro.config import TreecodeParams
from repro.core.backends import get_backend
from repro.core.backends import multiproc
from repro.core.backends.groupeval import eval_group_range, plan_arrays
from repro.core.backends.multiproc import (
    MultiprocessingBackend,
    _Shipment,
    _unregister_block,
    audit_shared_memory,
)
from repro.core.resilience import (
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    configure_faults,
    get_fault_injector,
)
from repro.core.session import FALLBACK_CHAIN, format_health_stats
from repro.core.treecode import BarycentricTreecode
from repro.errors import (
    BackendDegradedWarning,
    BackendExecutionError,
    BackendUnavailableError,
    GeometryUpdateError,
    ShipmentError,
    WorkerCrashError,
)
from repro.kernels.coulomb import CoulombKernel
from repro.perf.timer import PhaseTimes
from repro.workloads import random_cube


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with no armed faults."""
    configure_faults(None)
    yield
    configure_faults(None)


@pytest.fixture(scope="module")
def cube():
    return random_cube(400, seed=77)


def _params(**overrides) -> TreecodeParams:
    # Small leaves/batches so the plan has enough groups to shard even
    # at N=400 (the 1-core CI container still forces 2 workers).
    base = dict(theta=0.8, degree=3, max_leaf_size=40, max_batch_size=40)
    base.update(overrides)
    return TreecodeParams(**base)


def _mp_backend(**kw) -> MultiprocessingBackend:
    kw.setdefault("n_workers", 2)
    kw.setdefault("min_parallel_rows", 1)
    return MultiprocessingBackend(**kw)


def _prepare(cube, backend, **overrides):
    drv = BarycentricTreecode(
        CoulombKernel(), _params(backend=backend, **overrides)
    )
    return drv.prepare(cube)


def _drift(positions, scale=0.004, seed=3):
    rng = np.random.default_rng(seed)
    return positions + rng.normal(scale=scale, size=positions.shape)


# ----------------------------------------------------------------------
# Fault-spec parsing and the injector
# ----------------------------------------------------------------------


class TestFaultSpecs:
    def test_parse_site_qualifiers_and_times(self):
        spec = FaultSpec.parse("mp_worker_crash:shard=2:times=1")
        assert spec.site == "mp_worker_crash"
        assert spec.params == {"shard": 2}
        assert spec.times == 1

    def test_values_coerce_int_float_str(self):
        spec = FaultSpec.parse("site:a=2:b=0.5:c=text")
        assert spec.params == {"a": 2, "b": 0.5, "c": "text"}

    def test_bad_qualifier_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultSpec.parse("site:garbage")

    def test_from_string_splits_entries(self):
        inj = FaultInjector.from_string(
            "mp_worker_crash:shard=0,shipment_pack:times=2"
        )
        assert [s.site for s in inj.specs] == [
            "mp_worker_crash", "shipment_pack",
        ]

    def test_fire_matches_context_and_counts(self):
        inj = FaultInjector.from_string("mp_worker_crash:shard=1:times=1")
        assert inj.fire("mp_worker_crash", shard=0) is None
        assert inj.fire("mp_worker_crash", shard=1) is not None
        # times=1: the spec is exhausted after one hit.
        assert inj.fire("mp_worker_crash", shard=1) is None

    def test_non_context_keys_are_payload(self):
        inj = FaultInjector.from_string("mp_worker_hang:seconds=2.5")
        spec = inj.fire("mp_worker_hang", shard=0)
        assert spec is not None
        assert spec.get("seconds") == 2.5

    def test_configure_and_clear_global_injector(self):
        configure_faults("mp_pool_broken:times=1")
        assert get_fault_injector().active("mp_pool_broken")
        assert get_fault_injector().fire("mp_pool_broken") is not None
        assert not get_fault_injector().active("mp_pool_broken")
        configure_faults(None)
        assert not get_fault_injector().specs

    def test_env_var_initializes_injector(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "shipment_pack:times=3")
        inj = FaultInjector.from_env()
        assert inj.active("shipment_pack")


class TestRetryPolicy:
    def test_exponential_delay(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_attempts": 0},
            {"backoff": -1.0},
            {"backoff_factor": 0.5},
            {"timeout": 0.0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)


# ----------------------------------------------------------------------
# Worker-crash recovery (the tentpole acceptance matrix)
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_crash_mid_apply_recovers_bitwise(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend)
            ref = sess.apply(cube.charges).potential
            configure_faults("mp_worker_crash:shard=0:times=1")
            out = sess.apply(cube.charges).potential
            assert np.array_equal(ref, out)
            health = sess.health_stats()
            assert health["retries"] == 1
            assert health["pool_rebuilds"] == 1
            assert health["degraded_to"] is None
            assert "BrokenProcessPool" in health["last_error"]
            assert backend.is_healthy()
            assert audit_shared_memory()["orphans"] == []
        finally:
            backend.close()

    def test_crash_multi_rhs_recovers_bitwise(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend)
            block = np.stack(
                [cube.charges, 2.0 * cube.charges, cube.charges - 1.0],
                axis=1,
            )
            ref = sess.apply(block, compute_forces=True)
            configure_faults("mp_worker_crash:shard=0:times=1")
            out = sess.apply(block, compute_forces=True)
            assert np.array_equal(ref.potential, out.potential)
            assert np.array_equal(ref.forces, out.forces)
            assert sess.health_stats()["pool_rebuilds"] == 1
            assert audit_shared_memory()["orphans"] == []
        finally:
            backend.close()

    def test_crash_after_update_geometry_recovers_bitwise(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend)
            sess.apply(cube.charges)
            sess.update_geometry(_drift(cube.positions))
            ref = sess.apply(cube.charges).potential
            configure_faults("mp_worker_crash:shard=0:times=1")
            out = sess.apply(cube.charges).potential
            assert np.array_equal(ref, out)
            assert sess.health_stats()["pool_rebuilds"] == 1
            assert audit_shared_memory()["orphans"] == []
        finally:
            backend.close()

    def test_recovery_repacks_a_fresh_shm_block(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend)
            sess.apply(cube.charges)
            ship = backend._shipments.get(sess.core.plan)
            name_before = ship.shm.name
            configure_faults("mp_worker_crash:shard=0:times=1")
            sess.apply(cube.charges)
            ship_after = backend._shipments.get(sess.core.plan)
            # The teardown unlinked the old block; the retry packed a
            # new one (the old shipment must never reach a worker).
            assert ship_after is not ship
            assert ship.closed
            assert ship_after.shm.name != name_before
            names = [b["name"] for b in audit_shared_memory()["live"]]
            assert name_before not in names
        finally:
            backend.close()

    def test_hang_times_out_and_recovers_bitwise(self, cube):
        # A hung worker sleeps past the shard deadline; the timeout
        # counts as a pool failure and triggers the same
        # teardown/re-pack/retry path a crash does.  The sleep is kept
        # short so the abandoned worker exits promptly.
        backend = _mp_backend(
            retry=RetryPolicy(backoff=0.0, timeout=2.0)
        )
        try:
            sess = _prepare(cube, backend)
            ref = sess.apply(cube.charges).potential
            configure_faults("mp_worker_hang:shard=0:seconds=6.0:times=1")
            out = sess.apply(cube.charges).potential
            assert np.array_equal(ref, out)
            health = sess.health_stats()
            assert health["retries"] == 1
            assert health["pool_rebuilds"] == 1
        finally:
            backend.close()

    def test_pool_broken_before_submit_recovers(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend)
            ref = sess.apply(cube.charges).potential
            configure_faults("mp_pool_broken:times=2")
            out = sess.apply(cube.charges).potential
            assert np.array_equal(ref, out)
            assert sess.health_stats()["retries"] == 2
        finally:
            backend.close()

    def test_strict_raises_worker_crash_error_with_cause(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend, fallback="strict")
            sess.apply(cube.charges)
            configure_faults("mp_worker_crash:times=99")
            with pytest.raises(WorkerCrashError) as excinfo:
                sess.apply(cube.charges)
            err = excinfo.value
            assert err.backend == "multiprocessing"
            assert err.attempts == RetryPolicy().max_attempts
            assert type(err.__cause__).__name__ == "BrokenProcessPool"
            # Exhausted recovery poisons the instance for by-name reuse.
            assert not backend.is_healthy()
            # Nothing leaked even though the error escaped.
            assert audit_shared_memory()["orphans"] == []
        finally:
            backend.close()

    def test_exhausted_recovery_degrades_to_fused(self, cube):
        backend = _mp_backend(retry=RetryPolicy(backoff=0.0))
        try:
            sess = _prepare(cube, backend)
            ref = sess.apply(cube.charges).potential
            configure_faults("mp_worker_crash:times=99")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = sess.apply(cube.charges).potential
            configure_faults(None)
            degraded = [
                w for w in caught
                if issubclass(w.category, BackendDegradedWarning)
            ]
            assert len(degraded) == 1
            # Fused arithmetic on the same plan: correct to roundoff.
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
            health = sess.health_stats()
            assert health["degraded_to"] == "fused"
            assert health["fallbacks"] == [
                {
                    "from": "multiprocessing",
                    "to": "fused",
                    "error": health["fallbacks"][0]["error"],
                }
            ]
            assert "WorkerCrashError" in health["fallbacks"][0]["error"]
            # Sticky: the next apply serves from the fallback with no
            # new warning and bitwise-stable results.
            with warnings.catch_warnings(record=True) as again:
                warnings.simplefilter("always")
                out2 = sess.apply(cube.charges).potential
            assert not [
                w for w in again
                if issubclass(w.category, BackendDegradedWarning)
            ]
            assert np.array_equal(out, out2)
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Shipment lifecycle (satellite: close() -> apply() safety)
# ----------------------------------------------------------------------


class TestShipmentLifecycle:
    def test_close_then_apply_repacks_bitwise(self, cube):
        backend = _mp_backend()
        try:
            sess = _prepare(cube, backend)
            ref = sess.apply(cube.charges).potential
            backend.close()  # unlinks the cached shipment + pool
            out = sess.apply(cube.charges).potential
            assert np.array_equal(ref, out)
            assert backend.shipment_nbytes(sess.core.plan) > 0
        finally:
            backend.close()

    def test_shm_pack_failure_falls_back_to_pickle(self, cube):
        backend = _mp_backend()
        try:
            sess = _prepare(cube, backend)
            configure_faults("shipment_pack:times=1")
            out = sess.apply(cube.charges).potential
            # The pickled-payload path ran (no SHM block for this plan)
            # and produced the same bits the per-group arithmetic does
            # on the apply-refreshed weight buffer.
            plan = sess.core.plan
            ship = backend._shipments.get(plan)
            assert ship.shm is None and ship.payload is not None
            t_lo, t_hi, phi, _ = eval_group_range(
                plan_arrays(plan, cast_geometry=np.float64),
                CoulombKernel(), np.float64, False, 0, plan.n_groups,
            )
            ref = np.zeros(plan.out_size)
            ref[plan.out_index[t_lo:t_hi]] += phi
            assert np.array_equal(out, ref)
        finally:
            backend.close()

    def test_fatal_pack_failure_is_shipment_error(self, cube):
        backend = _mp_backend()
        try:
            sess = _prepare(cube, backend, fallback="strict")
            configure_faults("shipment_pack_fatal:times=1")
            with pytest.raises(ShipmentError) as excinfo:
                sess.apply(cube.charges)
            assert excinfo.value.backend == "multiprocessing"
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            backend.close()

    def test_audit_reclaims_orphaned_block(self, cube):
        plan = _prepare(cube, "fused").core.plan
        ship = _Shipment.pack(plan, use_shared_memory=True)
        name = ship.shm.name
        # Simulate a finalizer that never ran: drop the handle without
        # unlinking, then re-register the dangling name.
        ship.shm.close()
        ship.shm = None
        ship.payload = None
        with multiproc._SHM_BLOCKS_LOCK:
            multiproc._SHM_BLOCKS[name] = weakref.ref(ship)
        audit = audit_shared_memory()
        assert name in audit["orphans"]
        swept = audit_shared_memory(reclaim=True)
        assert swept["reclaimed"] >= 1
        assert name not in [b["name"] for b in audit_shared_memory()["live"]]
        _unregister_block(name)


# ----------------------------------------------------------------------
# Shared-instance health (satellite: pickle-restored sessions)
# ----------------------------------------------------------------------


class TestSharedInstanceHealth:
    def test_restored_session_gets_fresh_healthy_instance(self, cube):
        registry.clear_shared_instances()
        try:
            sess = _prepare(cube, "multiprocessing")
            # Too small to shard in-pool, but the shared instance is
            # still resolved and cached by name.
            ref = sess.apply(cube.charges).potential
            blob = pickle.dumps(sess)
            broken = sess.core.backend
            assert isinstance(broken, MultiprocessingBackend)
            broken._poisoned = True  # injected break

            restored = pickle.loads(blob)
            fresh = restored.core.backend
            assert fresh is not broken
            assert fresh.is_healthy()
            out = restored.apply(cube.charges).potential
            assert np.array_equal(ref, out)
            fresh.close()
            broken.close()
        finally:
            registry.clear_shared_instances()

    def test_unhealthy_shared_instance_replaced_on_lookup(self):
        registry.clear_shared_instances()
        try:
            first = get_backend("multiprocessing")
            assert get_backend("multiprocessing") is first
            first._poisoned = True
            second = get_backend("multiprocessing")
            assert second is not first
            assert second.is_healthy()
            first.close()
            second.close()
        finally:
            registry.clear_shared_instances()


# ----------------------------------------------------------------------
# Fallback chain (satellite: missing backends degrade)
# ----------------------------------------------------------------------


class TestFallbackChain:
    def test_chains_end_in_numpy(self):
        for name, chain in FALLBACK_CHAIN.items():
            assert chain[-1] == "numpy", name

    def test_unresolvable_backend_name_degrades(self, cube, monkeypatch):
        # A session restored where its backend's name is not registered
        # (e.g. an accelerator session on a host without the device):
        # the resolution itself degrades along the name's chain.
        monkeypatch.setitem(FALLBACK_CHAIN, "ghost", ("fused", "numpy"))
        sess = _prepare(cube, "fused")
        ref = sess.apply(cube.charges).potential
        sess.core._backend_spec = "ghost"
        sess.core._backend = None
        sess.core._degraded = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        degraded = [
            w for w in caught
            if issubclass(w.category, BackendDegradedWarning)
        ]
        assert len(degraded) == 1
        assert "ghost" in str(degraded[0].message)
        assert np.array_equal(ref, out)  # degraded to fused == ref
        assert sess.health_stats()["degraded_to"] == "fused"

    @pytest.mark.parametrize("name", ("multiprocessing", "batched", "fused"))
    def test_unavailable_backend_instance_degrades(
        self, cube, name, monkeypatch
    ):
        # A registered backend whose construction fails in this process
        # (e.g. a session restored on a host without the dependency it
        # needs) resolves to the first member of its chain instead.
        class UnavailableBackend:
            share_instance = False

            def __init__(self):
                raise BackendUnavailableError(
                    f"{name} cannot run here", backend=name
                )

        fallback = FALLBACK_CHAIN[name][0]
        sess = _prepare(cube, fallback)
        ref = sess.apply(cube.charges).potential
        monkeypatch.setitem(registry._BACKEND_TYPES, name, UnavailableBackend)
        sess.core._backend_spec = name
        sess.core._backend = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        assert [
            w for w in caught
            if issubclass(w.category, BackendDegradedWarning)
        ]
        assert sess.health_stats()["degraded_to"] == fallback
        assert np.array_equal(ref, out)

    def test_strict_resolution_failure_raises(self, cube, monkeypatch):
        monkeypatch.setitem(FALLBACK_CHAIN, "ghost", ("fused", "numpy"))
        sess = _prepare(cube, "fused", fallback="strict")
        sess.apply(cube.charges)
        sess.core._backend_spec = "ghost"
        sess.core._backend = None
        with pytest.raises(ValueError, match="unknown backend"):
            sess.apply(cube.charges)

    def test_batched_layout_failure_degrades(self, cube):
        sess = _prepare(cube, "batched")
        ref = sess.apply(cube.charges).potential
        sess.core._degraded = None  # a fresh look at the chain
        configure_faults("batched_layout:times=1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        assert [
            w for w in caught
            if issubclass(w.category, BackendDegradedWarning)
        ]
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_explicit_override_never_degrades(self, cube):
        sess = _prepare(cube, "fused")

        class FailingBackend:
            name = "batched"
            needs_numerics = True

            def execute(self, *a, **kw):
                raise BackendExecutionError("boom", backend=self.name)

            def health_stats(self):
                return {}

        with pytest.raises(BackendExecutionError, match="boom"):
            sess.core.execute_plan(
                cube.charges, PhaseTimes(), backend=FailingBackend()
            )

    def test_fallback_param_validation(self):
        with pytest.raises(ValueError, match="fallback"):
            TreecodeParams(fallback="maybe")


# ----------------------------------------------------------------------
# Geometry-update errors and observability
# ----------------------------------------------------------------------


class TestGeometryUpdateErrors:
    def test_mid_update_failure_wraps_with_cause(self, cube):
        sess = _prepare(cube, "fused")
        sess.apply(cube.charges)

        class ExplodingUpdater:
            def update(self, core, new_positions, *, targets=None):
                raise OSError("disk on fire")

        sess.core.geometry_updater = ExplodingUpdater()
        with pytest.raises(GeometryUpdateError, match="partially patched"):
            sess.update_geometry(_drift(cube.positions))

    def test_validation_errors_keep_their_type(self, cube):
        sess = _prepare(cube, "fused")
        with pytest.raises(ValueError):
            sess.update_geometry(np.zeros((3, 2)))


class TestObservability:
    def test_health_stats_in_repr(self, cube):
        sess = _prepare(cube, "fused")
        sess.apply(cube.charges)
        assert "health=ok" in repr(sess)
        stats = sess.health_stats()
        assert stats["backend"] == "fused"
        assert stats["degraded_to"] is None
        assert stats["fallbacks"] == []

    def test_format_health_stats_degraded_form(self):
        text = format_health_stats(
            {
                "degraded_to": "fused",
                "retries": 2,
                "pool_rebuilds": 1,
                "fallbacks": [{"from": "a", "to": "b", "error": "x"}],
            }
        )
        assert text == (
            "health=[degraded_to=fused retries=2 pool_rebuilds=1 "
            "fallbacks=1]"
        )

    def test_pickle_drops_degraded_state(self, cube, monkeypatch):
        monkeypatch.setitem(FALLBACK_CHAIN, "ghost", ("fused", "numpy"))
        sess = _prepare(cube, "fused")
        ref = sess.apply(cube.charges).potential
        sess.core._backend_spec = "ghost"
        sess.core._backend = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendDegradedWarning)
            sess.apply(cube.charges)
        assert sess.core._degraded is not None
        restored = pickle.loads(pickle.dumps(sess))
        # The restored process re-probes from the top -- its
        # environment may be healthy where this one degraded.
        assert restored.core._degraded is None
