"""Backend degradation: the session's fallback chain is the one
recovery path.

No failure here is injected from inside the package:

* a pool worker is really killed (``SIGKILL``) between applies.  The
  next apply of a ``"multiprocessing"`` session degrades to ``"fused"``
  with exactly one :class:`~repro.errors.BackendDegradedWarning` and
  returns bitwise what a fused session returns;
  ``fallback="strict"`` raises :class:`~repro.errors.WorkerCrashError`
  with the ``BrokenProcessPool`` chained, and the backend's next
  execute runs on a fresh pool (the shared by-name instance is never
  replaced); in a distributed session only the rank whose execute hit
  the dead worker degrades;
* the stacked layout build fails (the builder is monkeypatched) and
  the plan evaluator's session degrades to ``"numpy"`` the same way;
* backends that cannot be resolved or constructed degrade at
  resolution time, and explicit per-apply overrides never degrade.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import registry
from repro.config import TreecodeParams
from repro.core import plan as plan_module
from repro.core.backends import get_backend, multiproc
from repro.core.backends.groupeval import eval_group_range, plan_arrays
from repro.core.backends.multiproc import MultiprocessingBackend
from repro.core.session import FALLBACK_CHAIN, format_health_stats
from repro.core.treecode import BarycentricTreecode
from repro.distributed.driver import DistributedBLTC
from repro.errors import (
    BackendDegradedWarning,
    BackendExecutionError,
    BackendUnavailableError,
    GeometryUpdateError,
    WorkerCrashError,
)
from repro.gpu.device import GpuDevice
from repro.kernels.coulomb import CoulombKernel
from repro.perf.machine import GPU_TITAN_V
from repro.workloads import random_cube


@pytest.fixture(scope="module")
def cube():
    return random_cube(400, seed=77)


def _params(**overrides) -> TreecodeParams:
    # Small leaves/batches so the plan has enough groups to shard.
    base = dict(theta=0.8, degree=3, max_leaf_size=40, max_batch_size=40)
    base.update(overrides)
    return TreecodeParams(**base)


def _prepare(cube, backend, **overrides):
    drv = BarycentricTreecode(
        CoulombKernel(), _params(backend=backend, **overrides)
    )
    return drv.prepare(cube)


def _drift(positions, scale=0.004, seed=3):
    rng = np.random.default_rng(seed)
    return positions + rng.normal(scale=scale, size=positions.shape)


def _degraded_warnings(caught):
    return [
        w for w in caught if issubclass(w.category, BackendDegradedWarning)
    ]


# ----------------------------------------------------------------------
# A real worker death
# ----------------------------------------------------------------------


@pytest.fixture
def pool(monkeypatch):
    """A two-worker pool that shards even the small test plans."""
    monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)
    backend = MultiprocessingBackend(n_workers=2)
    yield backend
    backend.close()


def _kill_one_worker(backend):
    """SIGKILL one live worker of the backend's pool and wait until the
    executor has marked itself broken.

    Without the wait the next submit can race the executor's manager
    thread: the surviving worker may finish every shard before the dead
    one's sentinel is read, and the apply would succeed.  (The manager
    thread also reaps the victim, so ``is_alive()`` is no signal here.)
    """
    executor = backend._pool
    victim = next(iter(executor._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while not executor._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert executor._broken


def _per_group(plan):
    """``eval_group_range`` over every group, scattered to the output."""
    t_lo, t_hi, phi, _ = eval_group_range(
        plan_arrays(plan), CoulombKernel(), False, 0, plan.n_groups
    )
    out = np.zeros(plan.out_size)
    out[plan.out_index[t_lo:t_hi]] += phi
    return out


class TestWorkerCrash:
    def test_dead_worker_degrades_to_fused(self, cube, pool):
        sess = _prepare(cube, pool)
        sess.apply(cube.charges)  # starts the pool's workers
        _kill_one_worker(pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        assert len(_degraded_warnings(caught)) == 1
        health = sess.health_stats()
        assert health["degraded_to"] == "fused"
        assert [(e["from"], e["to"]) for e in health["fallbacks"]] == [
            ("multiprocessing", "fused")
        ]
        assert "WorkerCrashError" in health["last_error"]
        ref = _prepare(cube, "fused").apply(cube.charges).potential
        assert np.array_equal(out, ref)
        # Sticky: the next apply is served by fused, with no new warning.
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            out2 = sess.apply(cube.charges).potential
        assert not _degraded_warnings(again)
        assert np.array_equal(out2, ref)

    def test_strict_raises_worker_crash_error(self, cube, pool):
        sess = _prepare(cube, pool, fallback="strict")
        sess.apply(cube.charges)
        _kill_one_worker(pool)
        with pytest.raises(WorkerCrashError) as excinfo:
            sess.apply(cube.charges)
        assert excinfo.value.backend == "multiprocessing"
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)

    def test_next_execute_runs_on_a_fresh_pool(self, cube, pool):
        sess = _prepare(cube, "fused")
        sess.apply(cube.charges)  # fills the skeleton's weights
        plan = sess.plan
        kernel = CoulombKernel()
        pool.execute(plan, kernel, GpuDevice(GPU_TITAN_V))
        broken = pool._pool
        _kill_one_worker(pool)
        with pytest.raises(WorkerCrashError):
            pool.execute(plan, kernel, GpuDevice(GPU_TITAN_V))
        assert pool._pool is None
        phi, _ = pool.execute(plan, kernel, GpuDevice(GPU_TITAN_V))
        assert pool._pool is not None and pool._pool is not broken
        assert np.array_equal(phi, _per_group(plan))

    def test_dead_worker_multi_rhs_forces_degrade_bitwise(self, cube, pool):
        block = np.stack(
            [cube.charges, 2.0 * cube.charges, cube.charges - 1.0], axis=1
        )
        sess = _prepare(cube, pool)
        sess.apply(block, compute_forces=True)
        _kill_one_worker(pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(block, compute_forces=True)
        assert len(_degraded_warnings(caught)) == 1
        assert sess.health_stats()["degraded_to"] == "fused"
        ref = _prepare(cube, "fused").apply(block, compute_forces=True)
        assert np.array_equal(out.potential, ref.potential)
        assert np.array_equal(out.forces, ref.forces)

    def test_dead_worker_after_update_geometry_degrades_bitwise(
        self, cube, pool
    ):
        moved = _drift(cube.positions)
        sess = _prepare(cube, pool)
        sess.apply(cube.charges)
        sess.update_geometry(moved)
        sess.apply(cube.charges)
        _kill_one_worker(pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        assert len(_degraded_warnings(caught)) == 1
        ref_sess = _prepare(cube, "fused")
        ref_sess.apply(cube.charges)
        ref_sess.update_geometry(moved)
        assert np.array_equal(out, ref_sess.apply(cube.charges).potential)

    def test_strict_session_keeps_its_backend_after_a_crash(self, cube, pool):
        # strict raises once and records nothing; the pool is rebuilt
        # by the next apply, which is the per-group arithmetic again.
        sess = _prepare(cube, pool, fallback="strict")
        ref = sess.apply(cube.charges).potential
        _kill_one_worker(pool)
        with pytest.raises(WorkerCrashError):
            sess.apply(cube.charges)
        health = sess.health_stats()
        assert health["degraded_to"] is None
        assert health["fallbacks"] == []
        out = sess.apply(cube.charges).potential
        assert pool._pool is not None
        assert np.array_equal(out, ref)
        assert np.array_equal(out, _per_group(sess.plan))

    def test_shared_instance_survives_a_crash(self, cube, monkeypatch):
        # No health probe: the by-name instance is never replaced, and
        # after a crash it serves the next execute on a fresh pool.
        monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)
        shared = get_backend("multiprocessing")
        shared.close()
        # Two workers even on a one-core host, so the plan shards.
        monkeypatch.setattr(shared, "n_workers", max(shared.n_workers, 2))
        sess = _prepare(cube, "fused")
        sess.apply(cube.charges)
        plan = sess.plan
        try:
            shared.execute(plan, CoulombKernel(), GpuDevice(GPU_TITAN_V))
            _kill_one_worker(shared)
            with pytest.raises(WorkerCrashError):
                shared.execute(plan, CoulombKernel(), GpuDevice(GPU_TITAN_V))
            assert get_backend("multiprocessing") is shared
            phi, _ = shared.execute(
                plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
        finally:
            shared.close()
        assert np.array_equal(phi, _per_group(plan))

    def test_distributed_session_degrades_only_the_failing_rank(
        self, cube, pool
    ):
        sess = DistributedBLTC(
            CoulombKernel(), _params(backend=pool), n_ranks=2
        ).prepare(cube)
        sess.apply(cube.charges)
        _kill_one_worker(pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        assert len(_degraded_warnings(caught)) == 1
        assert [c.health_stats()["degraded_to"] for c in sess.cores] == [
            "fused", None,
        ]
        health = sess.health_stats()
        assert health["degraded_to"] == "fused"
        assert len(health["fallbacks"]) == 1
        # Rank 0 on fused, rank 1 on the rebuilt pool: roundoff-equal
        # to an all-fused session.
        assert pool._pool is not None
        ref = DistributedBLTC(
            CoulombKernel(), _params(backend="fused"), n_ranks=2
        ).prepare(cube).apply(cube.charges).potential
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)

    def test_worker_crash_error_is_a_backend_execution_error(self):
        err = WorkerCrashError("x", backend="multiprocessing")
        assert isinstance(err, BackendExecutionError)
        assert err.backend == "multiprocessing"


# ----------------------------------------------------------------------
# Fallback chain
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

    @pytest.mark.parametrize("name", ("multiprocessing", "fused"))
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

    @pytest.mark.parametrize("name", ("fused", "batched"))
    def test_layout_failure_degrades_to_numpy(
        self, cube, monkeypatch, use_backend, name
    ):
        # The layout is built lazily by the first stacked execute; a
        # failing build surfaces as BackendExecutionError and the apply
        # is served by the evaluator's fallback, numpy, instead.  The
        # "batched" alias has no chain of its own: a failed execute
        # looks up the resolved backend's name, so it degrades as
        # "fused" does.
        def broken_layout(plan):
            raise RuntimeError("layout build failed")

        monkeypatch.setattr(plan_module, "build_batched_layout", broken_layout)
        use_backend("stacked")
        sess = _prepare(cube, name)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sess.apply(cube.charges).potential
        assert len(_degraded_warnings(caught)) == 1
        health = sess.health_stats()
        assert health["degraded_to"] == "numpy"
        assert "layout build failed" in health["last_error"]
        ref = _prepare(cube, "numpy").apply(cube.charges).potential
        assert np.array_equal(out, ref)

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
                "fallbacks": [{"from": "a", "to": "b", "error": "x"}],
            }
        )
        assert text == "health=[degraded_to=fused fallbacks=1]"

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
