"""Backend-equivalence suite for the execution-plan architecture.

The contract of :mod:`repro.core.backends`: on the same compiled plan,
every backend records identical device counters (launches, interactions,
bytes, per-kind breakdown), the numpy / fused (per-group and stacked
paths) / multiprocessing backends return roundoff-close potentials *and forces*
(the fused-family arithmetic evaluates the temporary-free
``pairwise_fused`` r^2 accumulation, so it matches the blocked
reference to ``rtol=1e-9`` on potentials and ``rtol=1e-8`` on forces,
not bitwise), the multiprocessing backend is *bitwise* the per-group
arithmetic (``eval_group_range`` over all groups) at any shard split
and roundoff-equal to fused (which forms mirrored direct blocks once),
and the model backend returns zeros while charging the same simulated
time.  The de-duplicated (shared-segment) source layout must reproduce
the duplicated layout bitwise on every executing backend.
"""

import os

import numpy as np
import pytest

from repro import registry
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    DistributedBLTC,
    FusedBackend,
    ModelBackend,
    MultiprocessingBackend,
    NumpyBackend,
    TreecodeParams,
    YukawaKernel,
    available_backends,
    compile_plan,
    direct_sum,
    get_backend,
    random_cube,
    register_backend,
    relative_l2_error,
)
from repro.core.backends import Backend, multiproc
from repro.core.backends.groupeval import eval_group_range, plan_arrays
from repro.core.bltc_keys import BLTCSources
from repro.core.interaction_lists import build_interaction_lists
from repro.core.moments import precompute_moments
from repro.core.plan import PlanBuilder, build_batched_layout
from repro.gpu.device import CpuDevice, GpuDevice
from repro.perf.machine import CPU_XEON_X5650, GPU_TITAN_V
from repro.tree.batches import TargetBatches
from repro.tree.octree import ClusterTree

from test_kernels import AnisotropicCoulomb


def _params(**kw):
    base = dict(theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150)
    base.update(kw)
    return TreecodeParams(**base)


def _filled(plan, weights):
    """``plan`` with its weight buffer filled through ``refresh_weights``
    -- the one way weights reach a plan -- from ``weights(share_key)``."""
    if plan.has_numerics:
        plan.refresh_weights(weights)
    return plan


def _keyed_plan(groups):
    """A hand-built plan of ``[(targets, [(kind, points, weights), ...])]``.

    Groups take consecutive output slots; every segment gets its own
    share key, and its weights go in through :func:`_filled`.
    """
    b = PlanBuilder(sum(t.shape[0] for t, _ in groups))
    weights = []
    row = 0
    for targets, segs in groups:
        b.add_group(
            targets=targets, out_index=np.arange(row, row + len(targets))
        )
        row += len(targets)
        for kind, points, w in segs:
            b.add_segment(kind, points=points, share_key=len(weights))
            weights.append(w)
    return _filled(b.build(), weights.__getitem__)


def _compile(sources, params=None, *, targets=None, numerics=True):
    """The BLTC plan of ``sources`` on ``targets`` (default: the
    sources), its weights filled from ``sources.charges``."""
    params = _params() if params is None else params
    targets = sources.positions if targets is None else targets
    tree = ClusterTree(sources.positions, params.max_leaf_size)
    batches = TargetBatches(targets, params.max_batch_size)
    moments = precompute_moments(
        tree, sources.charges, params, numerics=numerics
    )
    lists = build_interaction_lists(batches, tree, params)
    plan = compile_plan(tree, batches, moments, lists, numerics=numerics)
    sources_of = BLTCSources(tree, moments)
    return _filled(
        plan, lambda key: sources_of.weights(key, sources.charges)
    )


def _per_group(plan, kernel, *, forces=False):
    """``eval_group_range`` over every group, scattered to the output:
    the multiprocessing backend's arithmetic at any shard split."""
    t_lo, t_hi, phi_rows, f_rows = eval_group_range(
        plan_arrays(plan, cast_geometry=np.float64), kernel, np.float64,
        forces, 0, plan.n_groups,
    )
    idx = plan.out_index[t_lo:t_hi]
    phi = np.zeros(plan.out_size)
    phi[idx] += phi_rows
    f = None
    if forces:
        f = np.zeros((plan.out_size, 3))
        f[idx] += f_rows
    return phi, f


@pytest.fixture(scope="module")
def cube():
    return random_cube(2500, seed=501)


@pytest.fixture(scope="module")
def shared_plan(cube):
    """One compiled plan reused by every backend."""
    return _compile(cube)


class TestRegistry:
    def test_builtin_backends(self):
        assert set(available_backends()) == {
            "numpy", "fused", "batched", "multiprocessing", "model"
        }

    def test_lookup_returns_instances(self):
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("fused"), FusedBackend)
        assert isinstance(get_backend("model"), ModelBackend)
        assert isinstance(
            get_backend("multiprocessing"), MultiprocessingBackend
        )

    def test_instance_passthrough(self):
        be = FusedBackend()
        assert get_backend(be) is be

    def test_multiprocessing_lookup_shares_instance(self):
        # The pooled backend resolves to one shared instance so its
        # worker pool really persists across by-name compute() calls.
        assert get_backend("multiprocessing") is get_backend("multiprocessing")
        assert get_backend("numpy") is not get_backend("numpy")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_unknown_backend_rejected_at_construction(self):
        # The bugfix: a bad name must fail when the params are built,
        # naming the available backends -- not deep inside compute().
        with pytest.raises(ValueError, match="unknown backend.*available"):
            _params(backend="nope")

    def test_backend_instance_accepted_by_params(self):
        params = _params(backend=FusedBackend())
        assert isinstance(params.backend, FusedBackend)

    def test_register_custom_backend(self, cube):
        class EchoBackend(ModelBackend):
            name = "test-echo"

        register_backend(EchoBackend)
        try:
            assert "test-echo" in available_backends()
            res = BarycentricTreecode(
                CoulombKernel(), _params(backend="test-echo")
            ).compute(cube)
            assert np.all(res.potential == 0.0)
        finally:
            registry.unregister_backend_type("test-echo")

    def test_register_rejects_anonymous(self):
        with pytest.raises(ValueError):
            register_backend(Backend)

    def test_config_rejects_non_string(self):
        with pytest.raises(ValueError):
            TreecodeParams(backend="")


class TestPlanLevelEquivalence:
    """All three backends on one plan: identical DeviceCounters."""

    def _run(self, backend, plan, *, forces=False, dtype=np.float64):
        device = GpuDevice(GPU_TITAN_V)
        out, f = backend.execute(
            plan, CoulombKernel(), device,
            dtype=dtype, compute_forces=forces,
        )
        return out, f, device

    @pytest.mark.parametrize("forces", [False, True], ids=["pot", "forces"])
    def test_identical_counters(self, shared_plan, forces):
        devices = {}
        for name in ("numpy", "fused", "model", "multiprocessing"):
            _, _, devices[name] = self._run(
                get_backend(name), shared_plan, forces=forces
            )
        ref = devices["numpy"].counters
        for name in ("fused", "model", "multiprocessing"):
            c = devices[name].counters
            assert c.launches == ref.launches, name
            assert c.interactions == ref.interactions, name
            assert c.bytes_h2d == ref.bytes_h2d, name
            assert c.bytes_d2h == ref.bytes_d2h, name
            assert {k: tuple(v) for k, v in c.by_kind.items()} == {
                k: tuple(v) for k, v in ref.by_kind.items()
            }, name
            assert devices[name].elapsed() == pytest.approx(
                devices["numpy"].elapsed()
            ), name

    def test_numpy_fused_roundoff_close(self, shared_plan):
        # The fused path evaluates the temporary-free pairwise_fused r^2
        # accumulation: roundoff-close, not bitwise vs the blocked
        # reference.
        phi_np, f_np, _ = self._run(
            get_backend("numpy"), shared_plan, forces=True
        )
        phi_fu, f_fu, _ = self._run(
            get_backend("fused"), shared_plan, forces=True
        )
        assert np.allclose(phi_np, phi_fu, rtol=1e-9, atol=1e-12)
        assert np.allclose(f_np, f_fu, rtol=1e-8, atol=1e-11)

    def test_multiprocessing_is_the_per_group_arithmetic(self, shared_plan):
        phi_mp, f_mp, _ = self._run(
            get_backend("multiprocessing"), shared_plan, forces=True
        )
        phi_g, f_g = _per_group(shared_plan, CoulombKernel(), forces=True)
        assert np.array_equal(phi_mp, phi_g)
        assert np.array_equal(f_mp, f_g)
        # Fused forms each mirrored block once: roundoff-equal.
        phi_fu, f_fu, _ = self._run(
            get_backend("fused"), shared_plan, forces=True
        )
        assert np.allclose(phi_fu, phi_mp, rtol=1e-9, atol=1e-12)
        assert np.allclose(f_fu, f_mp, rtol=1e-8, atol=1e-11)

    def test_model_returns_zeros(self, shared_plan):
        phi, f, _ = self._run(get_backend("model"), shared_plan, forces=True)
        assert np.all(phi == 0.0)
        assert np.all(f == 0.0)

    def test_model_runs_structure_only_plan(self, cube):
        plan = _compile(cube, numerics=False)
        assert not plan.has_numerics
        _, _, dev = self._run(get_backend("model"), plan)
        assert dev.counters.launches == plan.n_segments
        for name in ("numpy", "fused", "multiprocessing"):
            with pytest.raises(ValueError, match="needs a plan"):
                self._run(get_backend(name), plan)

    def test_float32_halves_busy_time(self, shared_plan):
        _, _, d64 = self._run(get_backend("model"), shared_plan)
        _, _, d32 = self._run(
            get_backend("model"), shared_plan, dtype=np.float32
        )
        busy64 = sum(d64.counters.busy_by_kind.values())
        busy32 = sum(d32.counters.busy_by_kind.values())
        assert busy32 == pytest.approx(0.5 * busy64)


class TestSelfTargetRegimes:
    """Every backend on self-target plans from many small shallow
    batches (the overhead-bound case of the paper's Sec. 3.2 batching
    discussion) to larger, deeper ones."""

    #: (n, theta, degree, NB=NL, compute_forces)
    REGIMES = {
        "small batches": (6_000, 0.8, 2, 60, False),
        "balanced": (6_000, 0.8, 3, 100, False),
        "small + forces": (4_000, 0.8, 2, 60, True),
    }
    BACKENDS = ("numpy", "per-group", "stacked", "multiprocessing", "model")

    @pytest.fixture(scope="class", params=list(REGIMES))
    def regime_run(self, request, evaluator_path):
        """``(plan, forces, {backend: (phi, f, device)})`` per regime."""
        n, theta, degree, leaf, forces = self.REGIMES[request.param]
        plan = _compile(random_cube(n, seed=900), _params(
            theta=theta, degree=degree, max_leaf_size=leaf,
            max_batch_size=leaf,
        ))
        runs = {}
        for name in self.BACKENDS:
            device = GpuDevice(GPU_TITAN_V)
            with evaluator_path(name) as backend:
                phi, f = get_backend(backend).execute(
                    plan, CoulombKernel(), device, compute_forces=forces
                )
            runs[name] = (phi, f, device)
        return plan, forces, runs

    def test_executing_backends_match_numpy_reference(self, regime_run):
        # Roundoff-level agreement with the blocked reference, amplified
        # on targets whose potential nearly cancels -- far below the
        # treecode approximation error these regimes carry.
        _, forces, runs = regime_run
        phi_np, f_np, _ = runs["numpy"]
        for name in self.BACKENDS:
            if name in ("numpy", "model"):
                continue
            phi, f, _ = runs[name]
            assert np.allclose(phi_np, phi, rtol=1e-8, atol=1e-10), name
            if forces:
                assert np.allclose(f_np, f, rtol=1e-7, atol=1e-8), name

    def test_multiprocessing_is_the_per_group_arithmetic(self, regime_run):
        plan, forces, runs = regime_run
        phi_mp, f_mp, _ = runs["multiprocessing"]
        phi_g, f_g = _per_group(plan, CoulombKernel(), forces=forces)
        assert np.array_equal(phi_mp, phi_g)
        phi_fu, f_fu, _ = runs["per-group"]
        assert np.allclose(phi_fu, phi_mp, rtol=1e-9, atol=1e-12)
        if forces:
            assert np.array_equal(f_mp, f_g)
            assert np.allclose(f_fu, f_mp, rtol=1e-8, atol=1e-11)

    def test_counters_and_simulated_time_identical(self, regime_run):
        # The model backend returns zeros but charges the same launches,
        # interactions and simulated time as the executing backends.
        _, _, runs = regime_run
        assert np.all(runs["model"][0] == 0.0)
        ref = runs["numpy"][2]
        for name in self.BACKENDS:
            dev = runs[name][2]
            assert dev.counters.launches == ref.counters.launches, name
            assert (
                dev.counters.interactions == ref.counters.interactions
            ), name
            assert dev.elapsed() == pytest.approx(ref.elapsed()), name

    def test_shared_gather_shrinks_buffers(self, regime_run):
        # Clusters shared across batches are stored once: strictly fewer
        # physical rows than logical (per-segment aliased) rows.
        plan, _, _ = regime_run
        assert plan.source_buffer_rows < plan.n_source_rows


def _hand_plan(tgt, approx_pairs, direct_pairs):
    """One group of ``tgt`` rows; one segment per (points, weights) pair."""
    return _keyed_plan([(tgt, [
        (kind, pts, wts)
        for kind, pairs in (("approx", approx_pairs), ("direct", direct_pairs))
        for pts, wts in pairs
    ])])


class TestNumpyBackendHandBuiltPlan:
    """The reference backend on hand-built one-group plans (ported from
    the retired per-batch executor's tests).  Its "model charging ==
    real execution" case is ``TestPlanLevelEquivalence.
    test_identical_counters``."""

    def test_launch_accounting(self):
        # One launch per (batch, cluster) pair; potentials == manual sum.
        rng = np.random.default_rng(0)
        tgt = rng.uniform(-1, 1, (8, 3))
        pairs_a = [(rng.uniform(2, 3, (5, 3)), rng.normal(size=5))
                   for _ in range(3)]
        pairs_d = [(rng.uniform(-3, -2, (7, 3)), rng.normal(size=7))
                   for _ in range(2)]
        kernel = CoulombKernel()
        dev = GpuDevice(GPU_TITAN_V)
        phi, _ = NumpyBackend().execute(
            _hand_plan(tgt, pairs_a, pairs_d), kernel, dev
        )
        assert dev.counters.by_kind["approx"][0] == 3
        assert dev.counters.by_kind["direct"][0] == 2
        assert dev.counters.by_kind["approx"][1] == 8 * 5 * 3
        assert dev.counters.by_kind["direct"][1] == 8 * 7 * 2
        manual = sum(
            kernel.potential(tgt, pts, q) for pts, q in pairs_a + pairs_d
        )
        assert np.allclose(phi, manual)

    def test_empty_batch(self):
        # Zero targets, or targets with empty lists: no launch, zeros.
        src = (np.ones((5, 3)), np.ones(5))
        dev = GpuDevice(GPU_TITAN_V)
        phi, _ = NumpyBackend().execute(
            _hand_plan(np.zeros((0, 3)), [src], [src]), CoulombKernel(), dev
        )
        assert phi.shape == (0,)
        assert dev.counters.launches == 0
        tgt = np.random.default_rng(0).uniform(size=(4, 3))
        phi, _ = NumpyBackend().execute(
            _hand_plan(tgt, [], []), CoulombKernel(), dev
        )
        assert np.array_equal(phi, np.zeros(4))
        assert dev.counters.launches == 0

    def test_float32_mode_close_to_float64(self):
        rng = np.random.default_rng(0)
        plan = _hand_plan(
            rng.uniform(-1, 1, (30, 3)), [],
            [(rng.uniform(2, 4, (40, 3)), rng.normal(size=40))],
        )
        dev = CpuDevice(CPU_XEON_X5650)
        full, _ = NumpyBackend().execute(
            plan, CoulombKernel(), dev, dtype=np.float64
        )
        single, _ = NumpyBackend().execute(
            plan, CoulombKernel(), dev, dtype=np.float32
        )
        assert np.allclose(full, single, rtol=1e-4)
        assert not np.array_equal(full, single)
        assert single.dtype == np.float64  # accumulator stays double

    def test_yukawa_cost_multiplier_charged(self):
        rng = np.random.default_rng(0)
        plan = _hand_plan(
            rng.uniform(-1, 1, (10, 3)), [],
            [(rng.uniform(2, 3, (10, 3)), rng.normal(size=10))],
        )
        dev_c = CpuDevice(CPU_XEON_X5650)
        dev_y = CpuDevice(CPU_XEON_X5650)
        NumpyBackend().execute(plan, CoulombKernel(), dev_c)
        NumpyBackend().execute(plan, YukawaKernel(), dev_y)
        assert dev_y.elapsed() > dev_c.elapsed()


class TestSharedSourceGather:
    """The single plan layout: de-duplicated source buffers."""

    def test_buffers_deduplicated_on_shared_workload(self, shared_plan):
        # Clusters referenced by many batches are stored once: strictly
        # fewer physical rows than logical (aliased) rows.
        assert shared_plan.source_buffer_rows < shared_plan.n_source_rows

    def test_aliased_segments_share_physical_rows(self, shared_plan):
        # Every segment's physical range lies inside the de-duplicated
        # buffer, and at least two segments alias the same rows.
        ranges = [
            shared_plan.segment_source_range(s)
            for s in range(shared_plan.n_segments)
        ]
        rows = shared_plan.source_buffer_rows
        assert all(0 <= lo <= hi <= rows for lo, hi in ranges)
        assert len(set(ranges)) < len(ranges)

    def test_builder_reuse_skips_regather(self):
        b = PlanBuilder(4, numerics=True)
        pts = np.arange(6.0).reshape(2, 3)
        b.add_group(targets=np.zeros((2, 3)), out_index=np.array([0, 1]))
        assert not b.has_shared(("direct", 7))
        b.add_segment("direct", points=pts, share_key=("direct", 7))
        b.add_group(targets=np.zeros((2, 3)), out_index=np.array([2, 3]))
        assert b.has_shared(("direct", 7))
        b.add_segment("direct", share_key=("direct", 7))
        plan = b.build()
        assert plan.n_segments == 2
        assert plan.n_source_rows == 4          # logical: 2 rows x 2 aliases
        assert plan.source_buffer_rows == 2     # physical: stored once
        assert np.array_equal(plan.segment_points(0), plan.segment_points(1))

    def test_builder_requires_arrays_for_new_key(self):
        b = PlanBuilder(2, numerics=True)
        b.add_group(targets=np.zeros((2, 3)), out_index=np.array([0, 1]))
        with pytest.raises(ValueError, match="points"):
            b.add_segment("direct", share_key=("direct", 0))


class TestMultiprocessingBackend:
    @pytest.fixture
    def shard_small_plans(self, monkeypatch):
        monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)

    def test_pool_sharded_run_is_the_per_group_arithmetic(
        self, cube, shared_plan, shard_small_plans
    ):
        # Force real worker shards.
        backend = MultiprocessingBackend(n_workers=2)
        try:
            dev = GpuDevice(GPU_TITAN_V)
            phi, f = backend.execute(
                shared_plan, YukawaKernel(0.5), dev, compute_forces=True
            )
            # Pool persistence: a second plan reuses the same workers.
            dev2 = GpuDevice(GPU_TITAN_V)
            phi2, _ = backend.execute(shared_plan, YukawaKernel(0.5), dev2)
        finally:
            backend.close()
        phi_ref, f_ref = _per_group(
            shared_plan, YukawaKernel(0.5), forces=True
        )
        assert np.array_equal(phi, phi_ref)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(phi2, phi_ref)
        ref_dev = GpuDevice(GPU_TITAN_V)
        phi_fu, f_fu = get_backend("fused").execute(
            shared_plan, YukawaKernel(0.5), ref_dev, compute_forces=True
        )
        assert np.allclose(phi_fu, phi, rtol=1e-9, atol=1e-12)
        assert np.allclose(f_fu, f, rtol=1e-8, atol=1e-11)
        assert dev.counters.launches == ref_dev.counters.launches

    def test_shards_cover_all_groups_balanced(self, shared_plan):
        backend = MultiprocessingBackend(n_workers=3)
        shards = backend._shards(shared_plan)
        assert shards[0][0] == 0
        assert shards[-1][1] == shared_plan.n_groups
        for (_, hi), (lo, _) in zip(shards[:-1], shards[1:]):
            assert hi == lo
        assert len(shards) <= 3

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            MultiprocessingBackend(0)

    @pytest.mark.parametrize("n_workers", (2, 3))
    def test_sharded_runs_stay_bitwise_at_any_split(
        self, shared_plan, shard_small_plans, n_workers
    ):
        backend = MultiprocessingBackend(n_workers=n_workers)
        try:
            assert len(backend._shards(shared_plan)) == n_workers
            phi1, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
            # A repeated run on the warm pool: values must not move.
            phi2, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
        finally:
            backend.close()
        phi_ref, _ = _per_group(shared_plan, CoulombKernel())
        assert np.array_equal(phi1, phi_ref)
        assert np.array_equal(phi2, phi_ref)
        phi_fu, _ = get_backend("fused").execute(
            shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
        )
        assert np.allclose(phi_fu, phi1, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n_workers", (None, 1, 3))
    def test_worker_count_is_the_only_setting(self, n_workers):
        backend = MultiprocessingBackend(n_workers)
        expected = n_workers or (os.cpu_count() or 1)
        assert backend.n_workers == expected
        with pytest.raises(TypeError):
            MultiprocessingBackend(2, min_parallel_rows=1)

    @pytest.mark.parametrize("n_workers", (2, 3, 4, 6))
    def test_shards_balance_the_modeled_cost(self, shared_plan, n_workers):
        # The split is the modeled interaction count: contiguous shards
        # whose cost differs from the even share by at most one group.
        backend = MultiprocessingBackend(n_workers=n_workers)
        shards = backend._shards(shared_plan)
        assert len(shards) == n_workers
        seg_cost = np.diff(shared_plan.seg_ptr) * np.repeat(
            np.diff(shared_plan.group_ptr), np.diff(shared_plan.seg_group_ptr)
        )
        group_cost = np.add.reduceat(
            seg_cost, shared_plan.seg_group_ptr[:-1]
        )
        share = group_cost.sum() / n_workers
        for lo, hi in shards:
            assert hi > lo
            assert abs(group_cost[lo:hi].sum() - share) <= group_cost.max()
        # Deterministic: the split is a function of the plan alone.
        assert backend._shards(shared_plan) == shards

    def test_more_workers_than_groups(self):
        plan = _uniform_groups_plan([5, 5])
        shards = MultiprocessingBackend(n_workers=5)._shards(plan)
        assert shards == [(0, 1), (1, 2)]

    def test_single_worker_runs_inline_without_a_pool(self, shared_plan):
        backend = MultiprocessingBackend(n_workers=1)
        phi, f = backend.execute(
            shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V),
            compute_forces=True,
        )
        assert backend._pool is None
        phi_ref, f_ref = _per_group(
            shared_plan, CoulombKernel(), forces=True
        )
        assert np.array_equal(phi, phi_ref)
        assert np.array_equal(f, f_ref)

    def test_min_parallel_rows_read_at_execute_time(
        self, shared_plan, monkeypatch
    ):
        backend = MultiprocessingBackend(n_workers=2)
        try:
            monkeypatch.setattr(
                multiproc, "MIN_PARALLEL_ROWS", shared_plan.n_source_rows + 1
            )
            inline, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
            assert backend._pool is None
            monkeypatch.setattr(
                multiproc, "MIN_PARALLEL_ROWS", shared_plan.n_source_rows
            )
            sharded, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
            assert backend._pool is not None
        finally:
            backend.close()
        assert np.array_equal(inline, sharded)

    def test_close_is_idempotent_and_execute_rebuilds_the_pool(
        self, shared_plan, shard_small_plans
    ):
        backend = MultiprocessingBackend(n_workers=2)
        try:
            ref, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
            first = backend._pool
            backend.close()
            backend.close()
            assert backend._pool is None
            out, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )
            assert backend._pool is not None
            assert backend._pool is not first
        finally:
            backend.close()
        assert np.array_equal(ref, out)

    def test_sharded_float32_is_the_per_group_arithmetic(
        self, shared_plan, shard_small_plans
    ):
        backend = MultiprocessingBackend(n_workers=2)
        try:
            phi, _ = backend.execute(
                shared_plan, CoulombKernel(), GpuDevice(GPU_TITAN_V),
                dtype=np.float32,
            )
        finally:
            backend.close()
        t_lo, t_hi, rows, _ = eval_group_range(
            plan_arrays(shared_plan, cast_geometry=np.float32),
            CoulombKernel(), np.float32, False, 0, shared_plan.n_groups,
        )
        ref = np.zeros(shared_plan.out_size)
        ref[shared_plan.out_index[t_lo:t_hi]] += rows
        assert np.array_equal(phi, ref)

    def test_sharded_multi_rhs_forces_are_the_per_group_arithmetic(
        self, cube, shard_small_plans
    ):
        backend = MultiprocessingBackend(n_workers=2)
        try:
            sess = BarycentricTreecode(
                CoulombKernel(), _params(backend=backend)
            ).prepare(cube)
            block = np.stack(
                [cube.charges, 2.0 * cube.charges, cube.charges - 1.0],
                axis=1,
            )
            res = sess.apply(block, compute_forces=True)
            assert backend._pool is not None
        finally:
            backend.close()
        plan = sess.plan
        assert plan.rhs_width == 3
        t_lo, t_hi, rows, f_rows = eval_group_range(
            plan_arrays(plan, cast_geometry=np.float64), CoulombKernel(),
            np.float64, True, 0, plan.n_groups,
        )
        idx = plan.out_index[t_lo:t_hi]
        phi = np.zeros((plan.out_size, 3))
        phi[idx] += rows
        f = np.zeros((plan.out_size, 3, 3))
        f[idx] += f_rows
        assert np.array_equal(res.potential, phi)
        assert np.array_equal(res.forces, f)

    def test_rejects_plan_without_numerics(self, cube):
        plan = _compile(cube, numerics=False)
        with pytest.raises(ValueError, match="numerics"):
            MultiprocessingBackend(n_workers=2).execute(
                plan, CoulombKernel(), GpuDevice(GPU_TITAN_V)
            )


def _uniform_groups_plan(m_sizes, *, seg_rows=5, n_segs=1, ragged_group=False):
    """Synthetic plan: one uniform-signature run per group.

    ``m_sizes`` sets the per-group target counts (padding behaviour);
    ``ragged_group`` appends a group whose run mixes segment sizes.
    """
    rng = np.random.default_rng(7)
    groups = [
        (rng.random((m, 3)) + 2.0, [
            ("approx", rng.random((seg_rows, 3)), rng.random(seg_rows))
            for _ in range(n_segs)
        ])
        for m in m_sizes
    ]
    if ragged_group:
        groups.append((rng.random((3, 3)) + 2.0, [
            ("direct", rng.random((k, 3)), rng.random(k)) for k in (4, 9)
        ]))
    return _keyed_plan(groups)


#: (n, theta, degree, NB=NL, target x-shift): disjoint [-1,1]^3 clouds at
#: shift 2.5 (pure far field, shallow and deeper degree), a near-field
#: sliver at 2.2 and fully overlapping clouds at 0.0 -- the last one
#: carried by zero-weight-padded near-field buckets.
LAYOUT_REGIMES = {
    "far-field": (40_000, 0.8, 2, 50, 2.5),
    "far-field deep": (30_000, 0.8, 3, 100, 2.5),
    "near-far mix": (30_000, 0.8, 2, 60, 2.2),
    "near-field heavy": (20_000, 0.6, 2, 40, 0.0),
    "far-field NB=60": (15_000, 0.8, 2, 60, 2.5),
}


@pytest.fixture(scope="module", params=list(LAYOUT_REGIMES))
def layout_regime_plan(request):
    """``(regime, plan)``: one displaced-target plan with its layout."""
    n, theta, degree, leaf, shift = LAYOUT_REGIMES[request.param]
    plan = _compile(
        random_cube(n, seed=900),
        _params(
            theta=theta, degree=degree, max_leaf_size=leaf,
            max_batch_size=leaf,
        ),
        targets=random_cube(n, seed=901).positions + [shift, 0.0, 0.0],
    )
    plan.ensure_batched_layout()
    return request.param, plan


def _ragged_groups_plan(shapes, *, kind="direct", seed=13):
    """Synthetic plan of ragged runs: ``shapes = [(m, [seg sizes]), ...]``.

    One group per entry, each with one equal-kind run whose segments
    carry the listed (generally unequal) row counts -- the raw material
    of the zero-weight-padded near-field buckets.
    """
    rng = np.random.default_rng(seed)
    return _keyed_plan([
        (rng.random((m, 3)) + 2.0, [
            (kind, rng.random((sz, 3)), rng.random(sz)) for sz in seg_sizes
        ])
        for m, seg_sizes in shapes
    ])


class TestBatchedLayout:
    """The shape-bucketed layout: partition, padding rule, fallbacks."""

    def test_compile_time_layout_and_lazy_build(self, cube):
        # Compiling attaches no layout; ensure_batched_layout() is the
        # one way to get one (built on demand, then cached).
        plan = _compile(cube)
        assert plan.batched_layout is None
        layout = plan.ensure_batched_layout()
        assert plan.batched_layout is layout
        assert plan.ensure_batched_layout() is layout  # cached

    def test_layout_partitions_all_interactions(self, shared_plan):
        # Buckets + ragged runs must cover every (group, segment) pair
        # exactly once: their interaction counts add up to the plan's.
        plan = shared_plan
        layout = plan.ensure_batched_layout()
        assert layout.buckets, "BLTC plans must produce approx buckets"
        seg_sizes = np.diff(plan.seg_ptr)
        ragged = sum(
            plan.group_size(int(g)) * int(seg_sizes[s_lo:s_hi].sum())
            for g, s_lo, s_hi in layout.ragged_runs
        )
        assert layout.batched_interactions() + ragged == int(
            plan.interactions_total()
        )

    def test_bucket_scatter_is_injective(self, shared_plan):
        for bucket in shared_plan.ensure_batched_layout().buckets:
            assert np.unique(bucket.out_slots).size == bucket.out_slots.size
            assert bucket.out_slots.size <= bucket.n_entries * bucket.m_max

    def test_bucket_signature_shapes(self, shared_plan):
        n_ip = _params().n_interpolation_points
        for bucket in shared_plan.ensure_batched_layout().buckets:
            assert bucket.tgt_index.shape == (bucket.n_entries, bucket.m_max)
            if bucket.n_segments:
                # Uniform-signature bucket; approx segments always carry
                # the (p+1)^3 grid rows.
                assert bucket.src_index.shape == (
                    bucket.n_entries,
                    bucket.n_segments * bucket.rows_per_segment,
                )
                if bucket.kind == "approx":
                    assert bucket.rows_per_segment == n_ip
                assert bucket.padding_waste <= 0.25 + 1e-12
                continue
            # Ragged-pool bucket: no uniform signature; combined
            # target+source padding bounded by the stack-waste rule,
            # pad positions holding weight exactly 0.0.
            real, total = bucket.stack_cells()
            assert 1.0 - real / total <= 0.25 + 1e-12
            if bucket.is_padded:
                assert bucket.src_valid.shape == bucket.src_index.shape
                assert np.all(bucket.weights[~bucket.src_valid] == 0.0)

    def test_mild_padding_keeps_one_bucket(self):
        plan = _uniform_groups_plan([10, 10, 10, 8])
        layout = build_batched_layout(plan)
        assert len(layout.buckets) == 1
        (bucket,) = layout.buckets
        assert bucket.m_max == 10
        assert bucket.scatter_pos is not None  # padded entries excluded
        assert bucket.out_slots.size == 38
        assert layout.ragged_runs.shape == (0, 3)

    def test_heavy_padding_splits_equal_m_sub_buckets(self):
        plan = _uniform_groups_plan([10, 10, 2, 2])
        layout = build_batched_layout(plan)  # one m_max would waste 40%
        assert len(layout.buckets) == 2
        assert sorted(b.m_max for b in layout.buckets) == [2, 10]
        for bucket in layout.buckets:
            assert bucket.scatter_pos is None  # equal-m: no padding left

    def test_ragged_run_falls_back(self):
        plan = _uniform_groups_plan([6, 6, 6], ragged_group=True)
        layout = build_batched_layout(plan)
        assert len(layout.buckets) == 1
        assert layout.ragged_runs.shape == (1, 3)
        g, s_lo, s_hi = layout.ragged_runs[0]
        assert plan.seg_size(int(s_lo)) != plan.seg_size(int(s_hi) - 1)

    def test_sub_minimum_bucket_falls_back(self):
        plan = _uniform_groups_plan([6])
        layout = build_batched_layout(plan)
        assert not layout.buckets
        assert layout.ragged_runs.shape == (1, 3)

    def test_adjacent_ragged_runs_merge_per_group(self):
        # A group with a ragged direct run following a sub-minimum
        # approx run must cost one fused-style call, not two.
        plan = _uniform_groups_plan([6], ragged_group=True)
        layout = build_batched_layout(plan)
        assert not layout.buckets
        assert layout.ragged_runs.shape == (2, 3)  # one run per group

    def test_unbatchable_group_becomes_single_merged_run(self):
        # approx run below the bucket minimum + ragged direct run, same
        # group: the fallback must evaluate the whole group in one
        # fused-style span, exactly like FusedBackend would.
        rng = np.random.default_rng(11)
        layout = build_batched_layout(_keyed_plan([(rng.random((4, 3)), [
            (kind, rng.random((k, 3)), rng.random(k))
            for kind, k in (("approx", 5), ("direct", 2), ("direct", 7))
        ])]))
        assert not layout.buckets
        assert layout.ragged_runs.tolist() == [[0, 0, 3]]

    def test_ragged_runs_bucket_with_source_padding(self):
        # Similar-k ragged runs must bucket with zero-weight pads
        # instead of dropping to the per-group path.
        plan = _ragged_groups_plan(
            [(6, [4, 5]), (6, [7, 2]), (6, [8]), (6, [3, 3, 3])]
        )
        layout = build_batched_layout(plan)
        assert len(layout.buckets) == 1
        assert layout.ragged_runs.shape == (0, 3)
        assert layout.coverage() == 1.0
        (bucket,) = layout.buckets
        assert bucket.is_padded
        assert bucket.kind == "direct"
        assert bucket.k == 9  # padded to the widest run
        # Entries are sorted by (m, k): the k=8 run leads, then the 9s.
        np.testing.assert_array_equal(
            bucket.src_valid.sum(axis=1), [8, 9, 9, 9]
        )
        # Pad columns repeat the entry's first source row and hold
        # weight exactly zero.
        for i in range(bucket.n_entries):
            kv = int(bucket.src_valid[i].sum())
            assert np.all(
                bucket.src_index[i, kv:] == bucket.src_index[i, 0]
            )
            assert np.all(bucket.weights[i, kv:] == 0.0)

    def test_source_padding_waste_rule_splits(self):
        # Wildly different k in one pool: padding the small runs to the
        # large k would waste >25% of the stack, so two slabs form.
        plan = _ragged_groups_plan(
            [(5, [3, 1]), (5, [2, 2]), (5, [30, 10]), (5, [25, 16])]
        )
        layout = build_batched_layout(plan)
        assert len(layout.buckets) == 2
        assert layout.ragged_runs.shape == (0, 3)
        ks = sorted(b.k for b in layout.buckets)
        assert ks == [4, 41]
        for bucket in layout.buckets:
            real, total = bucket.stack_cells()
            assert 1.0 - real / total <= 0.25 + 1e-12

    def test_padded_bucket_duplicate_group_guard(self):
        # Two same-kind runs of one group may never share a bucket's
        # fancy-indexed scatter; with interleaved kinds the pool must
        # keep them apart (separate buckets or ragged), injectively.
        rng = np.random.default_rng(17)
        layout = build_batched_layout(_keyed_plan([
            (rng.random((4, 3)) + 2.0, [
                (kind, rng.random((k, 3)), rng.random(k))
                for kind, k in (("direct", 3), ("approx", 5), ("direct", 3))
            ])
            for _ in range(3)
        ]))
        assert len(layout.buckets) >= 2  # second runs bucket separately
        for bucket in layout.buckets:
            assert np.unique(bucket.groups).size == bucket.n_entries
            assert np.unique(bucket.out_slots).size == bucket.out_slots.size

    def test_coverage_and_padding_metrics(self):
        uniform = build_batched_layout(_uniform_groups_plan([6, 6, 6]))
        assert uniform.coverage() == 1.0
        assert uniform.padding_waste() == 0.0
        assert uniform.padding_nbytes() == 0
        padded = build_batched_layout(
            _ragged_groups_plan([(6, [4, 5]), (6, [7, 2]), (5, [8])])
        )
        assert padded.coverage() == 1.0
        assert 0.0 < padded.padding_waste() <= 0.25 + 1e-12
        assert padded.padding_nbytes() > 0
        lone = build_batched_layout(_uniform_groups_plan([6]))
        assert lone.coverage() == 0.0  # one run, nothing bucketable
        assert lone.ragged_rows == 6

    def test_bucketed_rows_dominate_on_far_and_near_field_plans(
        self, layout_regime_plan
    ):
        # The ragged fused path is a thin remainder, not a second
        # execution path, and the zero-weight padding stays bounded.
        regime, plan = layout_regime_plan
        layout = plan.ensure_batched_layout()
        assert layout.coverage() >= 0.95
        assert 0.0 <= layout.padding_waste() <= 0.25
        if regime == "far-field":
            batched = layout.batched_interactions()
            assert batched > 0.9 * plan.interactions_total()

    def test_model_plan_has_no_layout(self, cube):
        plan = _compile(cube, numerics=False)
        with pytest.raises(ValueError, match="model-only"):
            plan.ensure_batched_layout()

    def test_geometry_cast_caches(self, shared_plan):
        assert shared_plan.targets_as(np.float64) is shared_plan.targets
        assert (
            shared_plan.src_points_as(np.float64) is shared_plan.src_points
        )
        t32 = shared_plan.targets_as(np.float32)
        assert t32.dtype == np.float32
        assert shared_plan.targets_as(np.float32) is t32  # cached
        assert np.array_equal(
            t32, shared_plan.targets.astype(np.float32)
        )


class TestStackedPath:
    """The plan evaluator's stacked bucket path against its per-group
    path on the same plan (each pinned by the cut): roundoff-close,
    deterministic."""

    @pytest.fixture(autouse=True)
    def _pins(self, use_backend):
        self._use_backend = use_backend

    def _run(self, name, plan, *, forces=True, dtype=np.float64, kernel=None):
        device = GpuDevice(GPU_TITAN_V)
        out, f = get_backend(self._use_backend(name)).execute(
            plan, kernel or YukawaKernel(0.5), device,
            dtype=dtype, compute_forces=forces,
        )
        return out, f, device

    def test_matches_per_group_within_roundoff(self, shared_plan):
        plan = shared_plan
        phi_f, f_f, dev_f = self._run("per-group", plan)
        phi_b, f_b, dev_b = self._run("stacked", plan)
        assert np.allclose(phi_f, phi_b, rtol=1e-9, atol=1e-12)
        assert np.allclose(f_f, f_b, rtol=1e-8, atol=1e-11)
        assert dev_b.counters.launches == dev_f.counters.launches
        assert dev_b.counters.interactions == dev_f.counters.interactions
        assert dev_b.elapsed() == pytest.approx(dev_f.elapsed())

    def test_float32_matches_per_group(self, shared_plan):
        # The near field is bucketed too, so float32 stacked and
        # per-group do not share one summation order; both must sit at
        # single-precision accuracy against the float64 reference, and
        # stacked must not be the less accurate one (beyond ordering
        # noise).
        phi64, f64, _ = self._run("per-group", shared_plan, dtype=np.float64)
        phi_f, f_f, _ = self._run("per-group", shared_plan, dtype=np.float32)
        phi_b, f_b, _ = self._run("stacked", shared_plan, dtype=np.float32)
        assert relative_l2_error(phi_f, phi_b) < 1e-4
        assert relative_l2_error(f_f, f_b) < 1e-3
        assert relative_l2_error(phi64, phi_b) < 2 * relative_l2_error(
            phi64, phi_f
        )
        assert relative_l2_error(f64, f_b) < 2 * relative_l2_error(f64, f_f)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    def test_bitwise_run_to_run_determinism(self, shared_plan, dtype):
        phi_a, f_a, _ = self._run("stacked", shared_plan, dtype=dtype)
        phi_b, f_b, _ = self._run("stacked", shared_plan, dtype=dtype)
        assert np.array_equal(phi_a, phi_b)
        assert np.array_equal(f_a, f_b)

    def test_counters_match_numpy_reference(self, shared_plan):
        _, _, dev_np = self._run("numpy", shared_plan)
        _, _, dev_b = self._run("stacked", shared_plan)
        ref = dev_np.counters
        c = dev_b.counters
        assert c.launches == ref.launches
        assert c.interactions == ref.interactions
        assert {k: tuple(v) for k, v in c.by_kind.items()} == {
            k: tuple(v) for k, v in ref.by_kind.items()
        }

    def test_rejects_model_plan(self, cube):
        plan = _compile(cube, numerics=False)
        with pytest.raises(ValueError, match="needs a plan"):
            self._run("stacked", plan)

    def test_synthetic_padded_bucket_matches_per_group(self):
        # Heterogeneous group sizes force a padded bucket; the padded
        # rows must never leak into the output.
        plan = _uniform_groups_plan(
            [10, 9, 10, 8, 10], seg_rows=6, n_segs=3, ragged_group=True
        )
        phi_f, f_f, _ = self._run("per-group", plan, kernel=CoulombKernel())
        phi_b, f_b, _ = self._run("stacked", plan, kernel=CoulombKernel())
        assert np.allclose(phi_f, phi_b, rtol=1e-9, atol=1e-12)
        assert np.allclose(f_f, f_b, rtol=1e-8, atol=1e-11)

    def test_layout_regime_matches_per_group(self, layout_regime_plan):
        # Displaced targets: the stacked far-field GEMMs and, on the
        # overlapping clouds, the padded near-field buckets.
        regime, plan = layout_regime_plan
        forces = regime == "far-field NB=60"
        kernel = CoulombKernel()
        phi_f, f_f, _ = self._run("per-group", plan, forces=forces, kernel=kernel)
        phi_b, f_b, _ = self._run(
            "stacked", plan, forces=forces, kernel=kernel
        )
        assert np.allclose(phi_f, phi_b, rtol=1e-8, atol=1e-10)
        if forces:
            assert np.allclose(f_f, f_b, rtol=1e-7, atol=1e-8)

    def test_layout_regime_float32_tracks_per_group(self, layout_regime_plan):
        # The f32 error itself is regime-dependent (the overlapping
        # clouds cancel heavily, so any f32 evaluation sits near 3e-2
        # relative there); padded buckets must stay finite and as
        # accurate against the f64 result as per-group f32, within 2x.
        _, plan = layout_regime_plan
        kernel = CoulombKernel()
        phi64, _, _ = self._run("per-group", plan, forces=False, kernel=kernel)
        rel = {}
        for name in ("per-group", "stacked"):
            phi32, _, _ = self._run(
                name, plan, forces=False, dtype=np.float32, kernel=kernel
            )
            assert np.isfinite(phi32).all(), name
            rel[name] = relative_l2_error(phi64, phi32)
        assert rel["stacked"] < 2 * rel["per-group"] + 1e-7, rel

    def test_pipeline_compute(self, cube):
        params = _params(backend=self._use_backend("stacked"))
        res = BarycentricTreecode(YukawaKernel(0.5), params).compute(
            cube, compute_forces=True
        )
        ref = BarycentricTreecode(YukawaKernel(0.5), _params()).compute(
            cube, compute_forces=True
        )
        assert np.allclose(
            res.potential, ref.potential, rtol=1e-9, atol=1e-12
        )
        assert np.allclose(res.forces, ref.forces, rtol=1e-8, atol=1e-11)
        assert res.phases.compute == pytest.approx(ref.phases.compute)
        for key in ("launches", "kernel_evaluations", "by_kind"):
            assert res.stats[key] == ref.stats[key], key

    def test_batched_names_the_plan_evaluator(self):
        # "batched" survives only as a second name of the one evaluator.
        assert "batched" in available_backends()
        assert type(get_backend("batched")) is type(get_backend("fused"))
        assert type(get_backend("fused")) is FusedBackend


class TestNonRadialKernel:
    """A kernel that is not radial (``AnisotropicCoulomb``, a generic
    ``Kernel``) through a session on every backend, forces on and off.
    It has no stacked arithmetic, so the plan evaluator runs per group
    even with its cut pinned to ``stacked``; it declares no symmetry,
    so it forms no mirrored blocks and is the per-group arithmetic the
    multiprocessing backend's shards run."""

    BACKENDS = ("numpy", "per-group", "stacked", "multiprocessing")

    @pytest.fixture(scope="class")
    def runs(self, evaluator_path):
        cube = random_cube(1200, seed=31)
        kernel = AnisotropicCoulomb()
        pool = MultiprocessingBackend(n_workers=2)
        runs = {}
        with pytest.MonkeyPatch.context() as patch:
            # Real worker shards, not the inline path.
            patch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)
            try:
                for name in self.BACKENDS:
                    with evaluator_path(name) as backend:
                        params = TreecodeParams(
                            theta=0.7, degree=4, max_leaf_size=100,
                            max_batch_size=100,
                            backend=(
                                pool if name == "multiprocessing"
                                else backend
                            ),
                        )
                        sess = BarycentricTreecode(kernel, params).prepare(
                            cube
                        )
                        runs[name] = (
                            sess.apply(cube.charges),
                            sess.apply(cube.charges, compute_forces=True),
                        )
                        assert sess.plan.batched_layout is None
            finally:
                pool.close()
        return runs

    def test_stacked_and_multiprocessing_are_per_group_bitwise(self, runs):
        _, ref = runs["per-group"]
        for name in ("stacked", "multiprocessing"):
            off, on = runs[name]
            assert off.potential.tobytes() == ref.potential.tobytes()
            assert on.forces.tobytes() == ref.forces.tobytes()

    def test_every_backend_within_roundoff_of_numpy(self, runs):
        _, ref = runs["numpy"]
        for name in self.BACKENDS[1:]:
            _, on = runs[name]
            np.testing.assert_allclose(on.potential, ref.potential, rtol=1e-10)
            np.testing.assert_allclose(
                on.forces, ref.forces, rtol=1e-10,
                atol=1e-10 * float(np.abs(ref.forces).max()),
            )

    def test_potentials_ignore_forces(self, runs):
        for name in self.BACKENDS:
            off, on = runs[name]
            assert off.forces is None
            assert on.potential.tobytes() == off.potential.tobytes()


class TestPaddedBucketNaNSafety:
    """Coincidences through zero-weight pad rows: finite, per-group-close.

    Padded near-field buckets repeat real source rows as pads; a pad
    (or a true self-interaction) coincident with a target produces an
    exact r^2 = 0 inside the stacked chunk and must flow through the
    kernels' noise-floor patching -- never a NaN, never a spurious
    contribution.
    """

    def _coincident_plan(self):
        # Ragged self-target groups: every group's targets ARE leading
        # rows of its first source segment, so the stacked r2 contains
        # exact zeros from both true coincidences and repeated pads.
        rng = np.random.default_rng(29)
        shapes = [(4, [4, 6]), (4, [7, 2]), (4, [5]), (4, [6, 3])]
        groups = []
        for m, seg_sizes in shapes:
            pts = [rng.random((sz, 3)) for sz in seg_sizes]
            groups.append((pts[0][:m].copy(), [
                ("direct", p, rng.random(p.shape[0])) for p in pts
            ]))
        return _keyed_plan(groups)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    def test_coincident_self_targets_finite_and_per_group_close(
        self, dtype, use_backend
    ):
        plan = self._coincident_plan()
        layout = plan.ensure_batched_layout()
        assert any(b.is_padded for b in layout.buckets)
        device = GpuDevice(GPU_TITAN_V)
        phi_b, f_b = get_backend(use_backend("stacked")).execute(
            plan, CoulombKernel(), device, dtype=dtype, compute_forces=True
        )
        phi_f, f_f = get_backend(use_backend("per-group")).execute(
            plan, CoulombKernel(), GpuDevice(GPU_TITAN_V), dtype=dtype,
            compute_forces=True,
        )
        assert np.isfinite(phi_b).all() and np.isfinite(f_b).all()
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert relative_l2_error(phi_f, phi_b) < tol
        assert relative_l2_error(f_f, f_b) < tol * 10

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    def test_duplicate_particles_near_field_cube(self, dtype, use_backend):
        # End to end: exact duplicate particle positions in a
        # near-field-heavy self-target run exercise coincidences inside
        # padded direct buckets on the whole treecode pipeline.
        from repro.workloads import ParticleSet

        cube = random_cube(800, seed=41)
        pos = cube.positions.copy()
        pos[1] = pos[0]
        pos[101] = pos[100]
        ps = ParticleSet(pos, cube.charges)
        kw = dict(
            theta=0.6, degree=2, max_leaf_size=40, max_batch_size=40,
            dtype=dtype,
        )
        prep = BarycentricTreecode(
            CoulombKernel(),
            TreecodeParams(backend=use_backend("stacked"), **kw),
        ).prepare(ps)
        layout = prep.plan.ensure_batched_layout()
        assert any(
            b.kind == "direct" and b.is_padded for b in layout.buckets
        )
        res = prep.apply(ps.charges, compute_forces=True)
        ref = BarycentricTreecode(
            CoulombKernel(),
            TreecodeParams(backend=use_backend("per-group"), **kw),
        ).compute(ps, compute_forces=True)
        assert np.isfinite(res.potential).all()
        assert np.isfinite(res.forces).all()
        tol = 1e-12 if dtype == np.float64 else 1e-4
        assert relative_l2_error(ref.potential, res.potential) < tol
        assert relative_l2_error(ref.forces, res.forces) < tol * 10


class TestPipelineEquivalence:
    """End-to-end compute() with each backend on shared workloads."""

    @pytest.fixture(scope="class")
    def runs(self, cube):
        params = _params(degree=5)
        out = {}
        for name in ("numpy", "fused", "model", "multiprocessing"):
            out[name] = BarycentricTreecode(
                YukawaKernel(0.5), params.with_(backend=name)
            ).compute(cube, compute_forces=True)
        return out

    def test_potentials_and_forces_close(self, runs, cube):
        a, b = runs["numpy"], runs["fused"]
        assert np.allclose(a.potential, b.potential, rtol=1e-9, atol=1e-12)
        assert np.allclose(a.forces, b.forces, rtol=1e-8, atol=1e-11)
        # multiprocessing runs the per-group arithmetic, fused the
        # mutual blocks: roundoff-equal.
        mp = runs["multiprocessing"]
        assert np.allclose(mp.potential, b.potential, rtol=1e-9, atol=1e-12)
        assert np.allclose(mp.forces, b.forces, rtol=1e-8, atol=1e-11)
        ref = direct_sum(
            cube.positions, cube.positions, cube.charges, YukawaKernel(0.5)
        )
        assert relative_l2_error(ref, b.potential) < 1e-5

    def test_identical_stats_and_phases(self, runs):
        ref = runs["numpy"]
        for name in ("fused", "model", "multiprocessing"):
            res = runs[name]
            for key in (
                "launches", "kernel_evaluations", "bytes_h2d", "bytes_d2h",
                "by_kind", "n_approx_interactions", "n_direct_interactions",
            ):
                assert res.stats[key] == ref.stats[key], (name, key)
            assert res.phases.setup == pytest.approx(ref.phases.setup)
            assert res.phases.precompute == pytest.approx(
                ref.phases.precompute
            )
            assert res.phases.compute == pytest.approx(ref.phases.compute)

    def test_model_zeroes_potential(self, runs):
        assert np.all(runs["model"].potential == 0.0)

    def test_dry_run_forces_model_backend(self, cube):
        res = BarycentricTreecode(
            CoulombKernel(), _params(backend="fused")
        ).compute(cube, dry_run=True)
        assert np.all(res.potential == 0.0)

    def test_distributed_backend_param(self, cube):
        params = _params()
        base = DistributedBLTC(
            CoulombKernel(), params, n_ranks=2
        ).compute(cube)
        fused = DistributedBLTC(
            CoulombKernel(), params.with_(backend="fused"), n_ranks=2
        ).compute(cube)
        assert np.allclose(
            base.potential, fused.potential, rtol=1e-9, atol=1e-12
        )
        assert fused.total_seconds == pytest.approx(base.total_seconds)

    def test_distributed_multiprocessing_identical(self, cube):
        params = _params()
        base = DistributedBLTC(
            CoulombKernel(), params, n_ranks=2
        ).compute(cube)
        shared = DistributedBLTC(
            CoulombKernel(),
            params.with_(backend="multiprocessing"),
            n_ranks=2,
        ).compute(cube)
        assert np.allclose(
            base.potential, shared.potential, rtol=1e-9, atol=1e-12
        )
        assert shared.total_seconds == pytest.approx(base.total_seconds)

    def test_mixed_precision_fused(self, cube):
        params = _params(degree=5, dtype=np.float32)
        a = BarycentricTreecode(
            CoulombKernel(), params
        ).compute(cube)
        b = BarycentricTreecode(
            CoulombKernel(), params.with_(backend="fused")
        ).compute(cube)
        assert relative_l2_error(a.potential, b.potential) < 1e-6
        assert a.phases.compute == pytest.approx(b.phases.compute)


class TestPlanStructure:
    def test_csr_export_roundtrip(self, cube):
        params = _params()
        tree = ClusterTree(cube.positions, params.max_leaf_size)
        batches = TargetBatches(cube.positions, params.max_batch_size)
        lists = build_interaction_lists(batches, tree, params)
        a_ptr, a_ids, d_ptr, d_ids = lists.csr()
        assert a_ptr[-1] == lists.n_approx
        assert d_ptr[-1] == lists.n_direct
        for b in range(len(batches)):
            assert np.array_equal(a_ids[a_ptr[b]:a_ptr[b + 1]], lists.approx[b])
            assert np.array_equal(d_ids[d_ptr[b]:d_ptr[b + 1]], lists.direct[b])

    def test_plan_counts_match_lists(self, cube, shared_plan):
        params = _params()
        tree = ClusterTree(cube.positions, params.max_leaf_size)
        batches = TargetBatches(cube.positions, params.max_batch_size)
        lists = build_interaction_lists(batches, tree, params)
        counts = shared_plan.segment_counts_by_kind()
        assert counts.get("approx", 0) == lists.n_approx
        assert counts.get("direct", 0) == lists.n_direct
        assert shared_plan.n_groups == len(batches)
        assert shared_plan.n_target_rows == batches.n_targets

    def test_interactions_total_matches_device(self, shared_plan):
        device = GpuDevice(GPU_TITAN_V)
        get_backend("model").execute(shared_plan, CoulombKernel(), device)
        assert shared_plan.interactions_total() == pytest.approx(
            device.counters.interactions
        )

    def test_builder_validation(self):
        b = PlanBuilder(10, numerics=True)
        with pytest.raises(ValueError, match="add_group"):
            b.add_segment("approx", points=np.zeros((2, 3)), share_key=0)
        with pytest.raises(ValueError, match="targets"):
            b.add_group(size=4)
        m = PlanBuilder(10, numerics=False)
        with pytest.raises(ValueError, match="size"):
            m.add_group()

    def test_batches_max_level_public(self, cube):
        batches = TargetBatches(cube.positions, 200)
        assert batches.max_level == batches._tree.max_level
        assert batches.max_level >= 1
