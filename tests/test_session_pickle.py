"""Pickle round-trips for prepared sessions (all four drivers).

A prepared session is plain data plus transient process-local caches:
the pickle must drop the worker pools and bucket stacks, and a
restored session's first apply must rebuild them lazily and reproduce
the live session's results bitwise.  Backends
selected by name re-resolve through the process-wide shared store in
:mod:`repro.registry`, so two restored sessions share one pool.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    ClusterParticleTreecode,
    CoulombKernel,
    DistributedBLTC,
    DualTreeTreecode,
    TreecodeParams,
    random_cube,
    registry,
)
from repro.core.backends import get_backend
from repro.core.session import FALLBACK_CHAIN

DRIVERS = ("treecode", "distributed", "cluster_particle", "dual_tree")
BACKENDS = ("numpy", "per-group", "stacked", "multiprocessing")


def _params(backend, **kw):
    base = dict(
        theta=0.7, degree=3, max_leaf_size=100, max_batch_size=100,
        backend=backend,
    )
    base.update(kw)
    return TreecodeParams(**base)


def _prepare(driver, backend, cube, **kw):
    params = _params(backend, **kw)
    kernel = CoulombKernel()
    if driver == "treecode":
        return BarycentricTreecode(kernel, params).prepare(cube)
    if driver == "distributed":
        return DistributedBLTC(kernel, params, n_ranks=2).prepare(cube)
    if driver == "cluster_particle":
        return ClusterParticleTreecode(kernel, params).prepare(cube)
    return DualTreeTreecode(kernel, params).prepare(cube)


@pytest.fixture(scope="module")
def cube():
    return random_cube(700, seed=1234)


@pytest.fixture(scope="module")
def new_charges(cube):
    rng = np.random.default_rng(77)
    return rng.uniform(-1.0, 1.0, cube.n)


class TestRoundTrip:
    """pickle.loads(pickle.dumps(session)).apply == live apply, bitwise."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_bitwise_equal_after_roundtrip(
        self, driver, backend, cube, new_charges, use_backend
    ):
        live = _prepare(driver, use_backend(backend), cube)
        live.apply(cube.charges)  # fill the skeleton's weights + caches
        restored = pickle.loads(pickle.dumps(live))
        res_live = live.apply(new_charges)
        res_restored = restored.apply(new_charges)
        assert np.array_equal(res_live.potential, res_restored.potential)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_roundtrip_before_first_apply(self, driver, cube):
        # A never-applied (still-zeroed skeleton) session must survive.
        live = _prepare(driver, "fused", cube)
        restored = pickle.loads(pickle.dumps(live))
        a = live.apply(cube.charges)
        b = restored.apply(cube.charges)
        assert np.array_equal(a.potential, b.potential)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_multi_rhs_roundtrip(self, driver, cube):
        rng = np.random.default_rng(5)
        block = rng.uniform(-1.0, 1.0, (cube.n, 16))
        live = _prepare(driver, "numpy", cube)
        restored = pickle.loads(pickle.dumps(live))
        res_live = live.apply(block)
        res_restored = restored.apply(block)
        assert res_live.potential.shape[1] == 16
        assert np.array_equal(res_live.potential, res_restored.potential)

    @pytest.mark.parametrize(
        "protocol", [2, pickle.HIGHEST_PROTOCOL], ids=["proto2", "highest"]
    )
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_protocols(self, driver, protocol, cube, new_charges):
        live = _prepare(driver, "fused", cube)
        live.apply(cube.charges)
        restored = pickle.loads(pickle.dumps(live, protocol=protocol))
        a = live.apply(new_charges)
        b = restored.apply(new_charges)
        assert np.array_equal(a.potential, b.potential)


class TestDroppedState:
    """Process-local caches leave the pickle and repopulate lazily."""

    def test_batched_bucket_stacks_dropped(
        self, cube, new_charges, use_backend
    ):
        live = _prepare("treecode", use_backend("stacked"), cube)
        live.apply(cube.charges)
        assert all(
            b._stacks is not None for b in live.plan.batched_layout.buckets
        )
        restored = pickle.loads(pickle.dumps(live))
        layout = restored.plan.batched_layout
        assert layout is not None
        for bucket in layout.buckets:
            assert bucket._stacks is None
        a = live.apply(new_charges)
        b = restored.apply(new_charges)
        assert np.array_equal(a.potential, b.potential)
        for bucket in layout.buckets:  # repopulated by the apply
            tgt, src = bucket._stacks
            assert tgt.shape == (bucket.n_entries, bucket.m_max, 3)
            assert src.shape == (bucket.n_entries, bucket.k, 3)

    def test_multiprocessing_pickle_carries_no_pool(self, cube):
        live = _prepare("treecode", "multiprocessing", cube)
        live.apply(cube.charges)  # may create pool state
        payload = pickle.dumps(live)
        restored = pickle.loads(payload)
        # The restored core re-resolves the backend by name, lazily.
        assert restored.core._backend is None
        assert restored.core._backend_spec == "multiprocessing"
        assert restored.backend is get_backend("multiprocessing")


class TestSharedPool:
    """Restored sessions share one process-wide backend instance."""

    def test_two_restored_sessions_share_one_backend(self, cube, new_charges):
        a_live = _prepare("treecode", "multiprocessing", cube)
        b_live = _prepare("cluster_particle", "multiprocessing", cube)
        a_live.apply(cube.charges)
        b_live.apply(cube.charges)
        a = pickle.loads(pickle.dumps(a_live))
        b = pickle.loads(pickle.dumps(b_live))
        assert a.backend is b.backend
        assert a.backend is get_backend("multiprocessing")
        res_a = a.apply(new_charges)
        res_b = b.apply(new_charges)
        assert np.array_equal(res_a.potential, a_live.apply(new_charges).potential)
        assert np.array_equal(res_b.potential, b_live.apply(new_charges).potential)

    def test_distributed_rank_cores_share_one_backend(self, cube):
        live = _prepare("distributed", "multiprocessing", cube)
        restored = pickle.loads(pickle.dumps(live))
        backends = {id(core.backend) for core in restored.cores}
        assert len(backends) == 1
        a = live.apply(cube.charges)
        b = restored.apply(cube.charges)
        assert np.array_equal(a.potential, b.potential)


class TestSessionAccounting:
    """geometry_key and memory_stats across the pickle seam."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_geometry_key_stable_across_roundtrip(self, driver, cube):
        live = _prepare(driver, "fused", cube)
        restored = pickle.loads(pickle.dumps(live))
        assert live.geometry_key() == restored.geometry_key()

    def test_geometry_key_differs_across_workloads(self, cube):
        other = random_cube(700, seed=4321)
        a = _prepare("treecode", "fused", cube)
        b = _prepare("treecode", "fused", other)
        assert a.geometry_key() != b.geometry_key()

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_memory_stats_in_repr(self, driver, cube):
        live = _prepare(driver, "fused", cube)
        stats = live.memory_stats()
        assert stats["plan_bytes"] > 0
        assert stats["total_bytes"] >= stats["plan_bytes"]
        text = repr(live)
        assert f"plan={stats['plan_bytes']}B" in text

    def test_accounting_never_resolves_the_backend(
        self, cube, monkeypatch, use_backend
    ):
        # A session restored where its backend name is not registered:
        # memory_stats() and repr() are read-only and must not degrade
        # the session (no warning, no recorded fallback).
        live = _prepare("treecode", use_backend("stacked"), cube)
        live.apply(cube.charges)
        payload = pickle.dumps(live)
        monkeypatch.delitem(registry._BACKEND_TYPES, "fused")
        restored = pickle.loads(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert restored.memory_stats()["total_bytes"] > 0
            assert "health=ok" in repr(restored)
        assert restored.health_stats()["fallbacks"] == []
        assert restored.core._backend is None

    @pytest.mark.parametrize("backend", ("fused", "multiprocessing"))
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_unregistered_backend_degrades_on_apply_not_on_accounting(
        self, driver, backend, cube, new_charges, monkeypatch
    ):
        # Accounting leaves the session untouched; the first apply is
        # the one that resolves the name, degrades along its chain and
        # returns bitwise what a session on the fallback returns.
        live = _prepare(driver, backend, cube)
        live.apply(cube.charges)
        payload = pickle.dumps(live)
        monkeypatch.delitem(registry._BACKEND_TYPES, backend)
        restored = pickle.loads(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored.memory_stats()
            repr(restored)
        cores = getattr(restored, "cores", None) or [restored.core]
        assert all(core._backend is None for core in cores)
        assert restored.health_stats()["fallbacks"] == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = restored.apply(new_charges).potential
        assert caught
        fallback = FALLBACK_CHAIN[backend][0]
        health = restored.health_stats()
        assert health["degraded_to"] == fallback
        assert health["fallbacks"][0]["from"] == backend
        ref = _prepare(driver, fallback, cube)
        ref.apply(cube.charges)
        assert np.array_equal(out, ref.apply(new_charges).potential)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_memory_stats_categories(self, driver, cube):
        # Resident bytes only: no category depends on the backend.
        live = _prepare(driver, "multiprocessing", cube)
        live.apply(cube.charges)
        stats = live.memory_stats()
        parts = {
            "plan_bytes", "weight_slot_bytes", "moment_bytes",
            "update_scratch_bytes", "batched_pad_bytes",
            "coincident_cache_bytes",
        }
        assert set(stats) == parts | {"total_bytes"}
        assert stats["total_bytes"] == sum(stats[k] for k in parts)
        assert "shipments=" not in repr(live)

    def test_pickle_payload_bounded_by_resident_bytes(self, cube):
        # The pickle carries the session's data, not its caches: the
        # payload stays within a small factor of the resident bytes.
        live = _prepare("treecode", "fused", cube, degree=4)
        live.apply(cube.charges)
        payload = pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)
        assert 0 < len(payload) < 4 * live.memory_stats()["total_bytes"]


class TestDynamicGeometryAcrossPickle:
    """update_geometry composes with the pickle seam in either order."""

    UPDATABLE = ("treecode", "cluster_particle", "dual_tree")

    @staticmethod
    def _drift(cube):
        rng = np.random.default_rng(99)
        return cube.positions + rng.normal(
            scale=0.004, size=cube.positions.shape
        )

    @pytest.mark.parametrize("driver", UPDATABLE)
    def test_geometry_key_changes_after_update(self, driver, cube):
        live = _prepare(driver, "fused", cube)
        key = live.geometry_key()
        live.update_geometry(self._drift(cube))
        assert live.geometry_key() != key

    @pytest.mark.parametrize("driver", UPDATABLE)
    def test_update_then_pickle_and_pickle_then_update(
        self, driver, cube, new_charges
    ):
        # Both orderings must land on the live session's exact state:
        # same geometry key, bitwise-equal applies.
        new_pos = self._drift(cube)
        live = _prepare(driver, "fused", cube)
        live.apply(cube.charges)
        pickled_first = pickle.loads(pickle.dumps(live))

        live.update_geometry(new_pos)
        pickled_first.update_geometry(new_pos)          # pickle -> update
        updated_first = pickle.loads(pickle.dumps(live))  # update -> pickle

        reference = live.apply(new_charges).potential
        assert np.array_equal(
            pickled_first.apply(new_charges).potential, reference
        )
        assert np.array_equal(
            updated_first.apply(new_charges).potential, reference
        )
        assert (
            pickled_first.geometry_key()
            == updated_first.geometry_key()
            == live.geometry_key()
        )
