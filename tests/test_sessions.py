"""The prepared-session seam: prepare()/apply() across every driver.

Contracts under test:

* ``compute()`` IS ``prepare()`` + one ``apply()`` on every
  single-device driver -- bitwise-identical potentials/forces, equal
  stats, phases that add up; the distributed ``compute()`` agrees on
  every number but keeps the paper's one-shot phase schedule.
* a second ``apply()`` with mutated charges equals a fresh ``compute()``
  with those charges bitwise, and charges **zero setup-phase device
  time** (the amortization the session exists for).
* ``refresh_weights`` rewrites the plan's weight buffer in place, and
  the multiprocessing backend's next execute of the same plan object
  sees the new weights.
* a ``backend="model"`` session runs the timing model alone.
* the distributed session reuses the RCB partition and LET geometry and
  re-ships only charges.
* both extension schemes expose the same session seam.
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    ClusterParticleTreecode,
    CoulombKernel,
    DistributedBLTC,
    DualTreeTreecode,
    MultiprocessingBackend,
    ParticleSet,
    TreecodeParams,
    YukawaKernel,
    charge_waveform,
    random_cube,
)
from repro.core.backends import multiproc
from repro.core.plan import assemble_plan

from plan_factory import listed_plan

EXEC_BACKENDS = ["numpy", "per-group", "stacked", "multiprocessing"]


def _params(**kw):
    base = dict(theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150)
    base.update(kw)
    return TreecodeParams(**base)


#: driver, compute()/prepare() positional arguments, compute/apply kwargs.
COMPUTE_CASES = {
    "treecode": lambda: (
        BarycentricTreecode(CoulombKernel(), _params()),
        (random_cube(2000, seed=71),),
        dict(compute_forces=True),
    ),
    "cluster-particle": lambda: (
        ClusterParticleTreecode(CoulombKernel(), _params()),
        (random_cube(900, seed=75), random_cube(2400, seed=76)),
        {},
    ),
    "dual-tree": lambda: (
        DualTreeTreecode(
            YukawaKernel(0.5),
            _params(degree=3, max_leaf_size=120, max_batch_size=120),
        ),
        (random_cube(2600, seed=78),),
        {},
    ),
}


@pytest.fixture(scope="module")
def cube():
    return random_cube(2000, seed=71)


@pytest.fixture(scope="module")
def new_charges(cube):
    rng = np.random.default_rng(72)
    return rng.uniform(-1.0, 1.0, cube.n)


class TestSingleDeviceSession:
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_apply_matches_fresh_compute_bitwise(
        self, cube, new_charges, backend, use_backend
    ):
        params = _params(backend=use_backend(backend))
        tc = BarycentricTreecode(YukawaKernel(0.5), params)
        prepared = tc.prepare(cube)
        first = prepared.apply(cube.charges, compute_forces=True)
        ref = tc.compute(cube, compute_forces=True)
        assert np.array_equal(first.potential, ref.potential)
        assert np.array_equal(first.forces, ref.forces)
        # Charge refresh: same geometry, new charges.
        second = prepared.apply(new_charges, compute_forces=True)
        ref2 = tc.compute(
            ParticleSet(cube.positions, new_charges), compute_forces=True
        )
        assert np.array_equal(second.potential, ref2.potential)
        assert np.array_equal(second.forces, ref2.forces)

    @pytest.mark.parametrize("case", list(COMPUTE_CASES))
    def test_compute_is_prepare_plus_apply(self, case):
        # The one contract every single-device driver's compute() obeys
        # (the distributed driver keeps a schedule of its own: see
        # TestDistributedSession.test_compute_keeps_the_papers_schedule).
        driver, args, kw = COMPUTE_CASES[case]()
        res = driver.compute(*args, **kw)
        prepared = driver.prepare(*args)
        manual = prepared.apply(args[0].charges, **kw)
        assert np.array_equal(res.potential, manual.potential)
        if kw:
            assert np.array_equal(res.forces, manual.forces)
        assert res.phases == prepared.phases + manual.phases
        # The first apply reports the one-shot counters exactly.
        assert res.stats == manual.stats

    def test_second_apply_charges_no_setup_time(self, cube, new_charges):
        prepared = BarycentricTreecode(
            CoulombKernel(), _params(backend="fused")
        ).prepare(cube)
        first = prepared.apply(cube.charges)
        second = prepared.apply(new_charges)
        assert first.phases.setup == 0.0
        assert second.phases.setup == 0.0
        # An apply re-ships only the charge vector: its precompute phase
        # is strictly cheaper than the first (full source upload) one.
        assert second.phases.precompute < first.phases.precompute
        # ... and cheaper than a whole fresh pipeline by at least that
        # pipeline's setup phase.
        tc = BarycentricTreecode(CoulombKernel(), _params(backend="fused"))
        fresh = tc.compute(ParticleSet(cube.positions, new_charges))
        assert second.phases.total < fresh.phases.total
        assert (
            fresh.phases.total - second.phases.total
            >= 0.9 * fresh.phases.setup
        )
        # Over the two-step trajectory prepare() + two applies costs less
        # simulated time than one compute() per step.
        session = (
            prepared.phases.total + first.phases.total + second.phases.total
        )
        assert session < tc.compute(cube).phases.total + fresh.phases.total
        assert second.stats["n_applies"] == 2

    def test_session_device_accumulates(self, cube, new_charges):
        prepared = BarycentricTreecode(
            CoulombKernel(), _params()
        ).prepare(cube)
        a = prepared.apply(cube.charges)
        b = prepared.apply(new_charges)
        assert b.stats["launches"] > a.stats["launches"]

    def test_model_apply_on_prepared_session(self, cube):
        model = BarycentricTreecode(
            CoulombKernel(), _params(backend="model")
        ).prepare(cube)
        res = model.apply(cube.charges)
        assert np.all(res.potential == 0.0)
        assert res.phases.setup == 0.0
        assert res.phases.compute > 0.0
        # Each apply is charged as a numerics session's apply, and the
        # numerics session's potentials are exact.
        fused = BarycentricTreecode(
            CoulombKernel(), _params(backend="fused")
        ).prepare(cube)
        real = fused.apply(cube.charges)
        assert res.phases.precompute == pytest.approx(real.phases.precompute)
        assert res.phases.compute == pytest.approx(real.phases.compute)
        ref = BarycentricTreecode(
            CoulombKernel(), _params(backend="fused")
        ).compute(cube)
        assert np.array_equal(real.potential, ref.potential)

    def test_model_prepared_session_runs_model(self, cube):
        tc = BarycentricTreecode(CoulombKernel(), _params(backend="model"))
        prepared = tc.prepare(cube)
        res = prepared.apply(cube.charges)
        ref = tc.compute(cube)
        assert np.all(res.potential == 0.0)
        assert res.stats["launches"] == ref.stats["launches"]
        assert res.stats["kernel_evaluations"] == pytest.approx(
            ref.stats["kernel_evaluations"]
        )
        assert (
            prepared.phases.total + res.phases.total
            == pytest.approx(ref.phases.total)
        )

    def test_apply_rejects_wrong_length(self, cube):
        prepared = BarycentricTreecode(
            CoulombKernel(), _params()
        ).prepare(cube)
        with pytest.raises(ValueError, match="charges"):
            prepared.apply(np.ones(cube.n + 1))

    def test_waveform_steps_stay_exact(self, cube):
        params = _params(backend="fused")
        tc = BarycentricTreecode(CoulombKernel(), params)
        prepared = tc.prepare(cube)
        for charges in charge_waveform(cube, 3, seed=5):
            res = prepared.apply(charges)
            ref = tc.compute(ParticleSet(cube.positions, charges))
            assert np.array_equal(res.potential, ref.potential)

    def test_yukawa_session_refresh(self, cube, new_charges):
        params = _params(backend="fused")
        tc = BarycentricTreecode(YukawaKernel(0.5), params)
        prepared = tc.prepare(cube)
        prepared.apply(cube.charges)
        res = prepared.apply(new_charges)
        ref = tc.compute(ParticleSet(cube.positions, new_charges))
        assert np.array_equal(res.potential, ref.potential)


class TestStackedSession:
    """apply()/refresh_weights on plans carrying the bucketed layout
    (the plan evaluator pinned to its stacked path)."""

    @pytest.fixture(autouse=True)
    def _stacked_path(self, use_backend):
        use_backend("stacked")

    def test_repeated_applies_bitwise_equal(self, cube):
        # The acceptance contract: a prepared stacked session is
        # bitwise-reproducible across applies of the same charges.
        params = _params(backend="fused")
        prepared = BarycentricTreecode(YukawaKernel(0.5), params).prepare(cube)
        prepared.plan.ensure_batched_layout()  # up front, not on first use
        a = prepared.apply(cube.charges, compute_forces=True)
        b = prepared.apply(cube.charges, compute_forces=True)
        assert np.array_equal(a.potential, b.potential)
        assert np.array_equal(a.forces, b.forces)

    def test_charge_refresh_matches_fresh_compute(self, cube, new_charges):
        params = _params(backend="fused")
        tc = BarycentricTreecode(CoulombKernel(), params)
        prepared = tc.prepare(cube)
        prepared.apply(cube.charges)
        res = prepared.apply(new_charges)
        ref = tc.compute(ParticleSet(cube.positions, new_charges))
        assert np.array_equal(res.potential, ref.potential)

    def test_refresh_rewrites_bucket_weight_views(self, cube):
        # After every apply the bucket weight matrices must equal a
        # fresh gather from the flat (refreshed) weight buffer.
        params = _params(backend="fused")
        prepared = BarycentricTreecode(CoulombKernel(), params).prepare(cube)
        plan = prepared.plan
        layout = plan.ensure_batched_layout()
        assert layout.buckets
        for bucket in layout.buckets:  # skeleton: still zeroed
            assert np.all(bucket.weights == 0.0)
        prepared.apply(cube.charges)
        for bucket in layout.buckets:
            expect = plan.src_weights[bucket.src_index]
            if bucket.src_valid is not None:
                # Padded buckets gather only their valid columns; the
                # zero-weight pads never pick up the repeated row's
                # charge.
                expect = np.where(bucket.src_valid, expect, 0.0)
            assert np.array_equal(bucket.weights, expect)
            assert np.any(bucket.weights != 0.0)

    def test_lazy_layout_session_without_params_flag(self, cube):
        # The layout is built on first execute and weight refreshes keep
        # maintaining it afterwards.
        params = _params(backend="fused")
        tc = BarycentricTreecode(CoulombKernel(), params)
        prepared = tc.prepare(cube)
        assert prepared.plan.batched_layout is None
        first = prepared.apply(cube.charges)
        assert prepared.plan.batched_layout is not None
        rng = np.random.default_rng(3)
        q2 = rng.uniform(-1.0, 1.0, cube.n)
        res = prepared.apply(q2)
        ref = tc.compute(ParticleSet(cube.positions, q2))
        assert np.array_equal(res.potential, ref.potential)
        assert np.array_equal(
            first.potential, tc.compute(cube).potential
        )

    def test_yukawa_stacked_session_refresh(self, cube, new_charges):
        params = _params(backend="fused")
        tc = BarycentricTreecode(YukawaKernel(0.5), params)
        prepared = tc.prepare(cube)
        prepared.apply(cube.charges)
        res = prepared.apply(new_charges)
        ref = tc.compute(ParticleSet(cube.positions, new_charges))
        assert np.array_equal(res.potential, ref.potential)


class TestWeightRefresh:
    """The plan-level geometry/weight split."""

    def _plan(self):
        return listed_plan(
            [
                (np.zeros((2, 3)), [("direct", "a")]),
                (np.zeros((2, 3)), [("direct", "a"), ("approx", "b")]),
            ],
            {
                "a": np.arange(6.0).reshape(2, 3),
                "b": np.arange(6.0, 15.0).reshape(3, 3),
            },
        )

    def test_refresh_overwrites_every_alias(self):
        plan = self._plan()
        plan.refresh_weights(
            lambda k: {"a": np.ones(2), "b": np.ones(3)}[k]
        )
        weights = {"a": np.array([10.0, 20.0]), "b": np.array([30.0, 40.0, 50.0])}
        plan.refresh_weights(lambda k: weights[k])
        for s in range(plan.n_segments):
            lo, hi = plan.segment_source_range(s)
            expected = weights["a" if hi - lo == 2 else "b"]
            assert np.array_equal(plan.src_weights[lo:hi], expected)

    def test_built_plan_starts_zeroed(self):
        plan = self._plan()
        assert plan.src_weights.shape == (5,)
        assert np.all(plan.src_weights == 0.0)
        assert [(lo, hi) for _, lo, hi in plan.weight_slots] == [
            (0, 2), (2, 5)
        ]
        plan.refresh_weights(
            lambda k: {"a": np.ones(2), "b": np.ones(3)}[k]
        )
        assert np.all(plan.src_weights == 1.0)

    def test_share_keys_default_to_key_codes(self):
        # Every segment names its rows by a key code; without a
        # share_keys decoder the codes themselves key the weight slots.
        plan = assemble_plan(
            2, [2], [0, 0], [0, 0], ("direct",), [5, 3], np.full(6, 2),
            targets=np.zeros((2, 3)), out_index=np.arange(2),
            key_points=lambda codes: np.zeros((4, 3)),
        )
        assert plan.weight_slots == ((5, 0, 2), (3, 2, 4))
        assert all(type(key) is int for key, _, _ in plan.weight_slots)

    def test_refresh_validates_row_count(self):
        plan = self._plan()
        with pytest.raises(ValueError, match="rows"):
            plan.refresh_weights(lambda k: np.zeros(7))

    def test_model_plan_has_no_weights(self):
        plan = listed_plan([(2, [("direct", 0)])], {0: 2}, numerics=False)
        with pytest.raises(ValueError, match="model-only"):
            plan.refresh_weights(lambda k: np.zeros(2))

    def test_multiprocessing_shipment_refreshes_in_place(
        self, cube, monkeypatch
    ):
        # Pool-sharded execution of the SAME plan object across a weight
        # refresh must pick up the new weights, not stale ones.
        monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)
        params = _params(backend="fused")
        tc = BarycentricTreecode(YukawaKernel(0.5), params)
        prepared = tc.prepare(cube)
        backend = MultiprocessingBackend(n_workers=2)
        try:
            from repro.gpu.device import GpuDevice
            from repro.perf.machine import GPU_TITAN_V

            prepared.apply(cube.charges)  # fills the skeleton's weights
            phi1, _ = backend.execute(
                prepared.plan, YukawaKernel(0.5), GpuDevice(GPU_TITAN_V)
            )
            rng = np.random.default_rng(3)
            q2 = rng.uniform(-1, 1, cube.n)
            prepared.apply(q2)  # refreshes weights in place
            phi2, _ = backend.execute(
                prepared.plan, YukawaKernel(0.5), GpuDevice(GPU_TITAN_V)
            )
        finally:
            backend.close()
        # The per-group arithmetic (fused forms mirrored blocks once and
        # is only roundoff-equal).
        ref = BarycentricTreecode(
            YukawaKernel(0.5), _params(backend="multiprocessing")
        )
        ref1 = ref.compute(cube)
        ref2 = ref.compute(ParticleSet(cube.positions, q2))
        assert np.array_equal(phi1, ref1.potential)
        assert np.array_equal(phi2, ref2.potential)
        assert not np.array_equal(phi1, phi2)


class TestFusedPairwisePrimitive:
    """The temporary-free r^2 accumulation (fused-only path)."""

    def test_matches_reference_to_roundoff(self):
        cube = random_cube(800, seed=9)
        t, s = cube.positions[:300], cube.positions[300:]
        for k in (CoulombKernel(), YukawaKernel(0.5)):
            ref = k.pairwise(t, s)
            fus = k.pairwise_fused(t, s)
            assert np.allclose(ref, fus, rtol=1e-9, atol=1e-12)

    def test_coincident_pairs_identical_classification(self):
        k = CoulombKernel()
        pts = np.array([[0.25, 0.5, 0.75], [0.5, 0.5, 0.5]])
        ref = k.pairwise(pts, pts)
        fus = k.pairwise_fused(pts, pts)
        assert ref[0, 0] == fus[0, 0] == k.evaluate_r0()
        assert ref[1, 1] == fus[1, 1] == k.evaluate_r0()
        assert np.isfinite(fus).all()

    def test_reference_path_untouched_by_flag(self):
        cube = random_cube(500, seed=10)
        k = CoulombKernel()
        a = k.potential(cube.positions, cube.positions, cube.charges)
        b = k.potential(
            cube.positions, cube.positions, cube.charges, fused=False
        )
        assert np.array_equal(a, b)

    def test_fused_driver_with_forces_close(self):
        cube = random_cube(700, seed=12)
        k = YukawaKernel(0.5)
        pot_ref = k.potential(cube.positions, cube.positions, cube.charges)
        f_ref = k.force(cube.positions, cube.positions, cube.charges)
        f_fus = np.zeros_like(f_ref)
        pot_fus = k.potential(
            cube.positions, cube.positions, cube.charges, forces=f_fus,
            fused=True,
        )
        assert np.allclose(pot_ref, pot_fus, rtol=1e-9, atol=1e-12)
        assert np.allclose(f_ref, f_fus, rtol=1e-8, atol=1e-11)


class TestVectorizedLetBytes:
    def test_matches_set_based_accounting(self, cube):
        from repro.core.interaction_lists import build_interaction_lists
        from repro.tree.batches import TargetBatches
        from repro.tree.octree import ClusterTree

        params = _params()
        tree = ClusterTree(cube.positions, params.max_leaf_size)
        batches = TargetBatches(cube.positions, params.max_batch_size)
        lists = build_interaction_lists(batches, tree, params)
        # Reference: the original per-entry Python set loops.
        direct_nodes, approx_nodes = set(), set()
        for d in lists.direct:
            direct_nodes.update(int(c) for c in d)
        for a in lists.approx:
            approx_nodes.update(int(c) for c in a)
        expected = (
            sum(tree.node_counts[c] for c in direct_nodes) * 4 * 8
            + len(approx_nodes) * params.n_interpolation_points * 8
        )
        assert (
            BarycentricTreecode._let_bytes(tree, lists, params) == expected
        )


class TestDistributedSession:
    @pytest.fixture(scope="class")
    def big(self):
        return random_cube(4000, seed=73)

    def test_compute_keeps_the_papers_schedule(self, big):
        # Why DistributedBLTC.compute is not prepare()+apply(): the
        # one-shot run builds the whole LET after the moments (paper
        # Sec. 3.1), the session ships the LET geometry at prepare and
        # re-ships charges per apply.  Same numbers, same traffic, same
        # launches -- a different phase split.
        d = DistributedBLTC(CoulombKernel(), _params(), n_ranks=3)
        ref = d.compute(big, compute_forces=True)
        sess = d.prepare(big)
        res = sess.apply(big.charges, compute_forces=True)
        assert np.array_equal(ref.potential, res.potential)
        assert np.array_equal(ref.forces, res.forces)
        assert (
            ref.stats["total_rma_bytes"] == res.stats["total_rma_bytes"]
        )
        for one, two in zip(ref.stats["per_rank"], res.stats["per_rank"]):
            assert one["rma_ops"] == two["rma_ops"]
            assert one["launches"] == two["launches"]
        for one, prepared in zip(ref.rank_phases, sess.phases):
            assert one.setup > prepared.setup

    def test_apply_matches_compute_bitwise(self, big, new_charges_big):
        d = DistributedBLTC(CoulombKernel(), _params(), n_ranks=3)
        sess = d.prepare(big)
        res = sess.apply(big.charges)
        # Refresh: only charges travel; result still exact.
        rma_before = res.stats["total_rma_bytes"]
        res2 = sess.apply(new_charges_big)
        fresh = d.compute(ParticleSet(big.positions, new_charges_big))
        assert np.array_equal(fresh.potential, res2.potential)
        reship = res2.stats["total_rma_bytes"] - rma_before
        assert 0 < reship < rma_before  # strictly less than a full LET
        assert all(p.setup == 0.0 for p in res2.rank_phases)
        assert res2.total_seconds < fresh.total_seconds

    @pytest.fixture(scope="class")
    def new_charges_big(self, big):
        rng = np.random.default_rng(74)
        return rng.uniform(-1.0, 1.0, big.n)

    @pytest.mark.parametrize("backend", ["fused", "multiprocessing"])
    def test_backend_sessions_match_compute(self, big, backend):
        params = _params(backend=backend)
        d = DistributedBLTC(YukawaKernel(0.5), params, n_ranks=2)
        ref = d.compute(big)
        res = d.prepare(big).apply(big.charges)
        assert np.array_equal(ref.potential, res.potential)

    def test_model_session(self, big):
        d = DistributedBLTC(
            CoulombKernel(), _params(backend="model"), n_ranks=2
        )
        sess = d.prepare(big)
        res = sess.apply(big.charges)
        ref = d.compute(big)
        assert np.all(res.potential == 0.0)
        launches = lambda r: [  # noqa: E731
            p["launches"] for p in r.stats["per_rank"]
        ]
        assert launches(res) == launches(ref)

    def test_overlap_comm_session(self, big):
        d = DistributedBLTC(
            CoulombKernel(), _params(), n_ranks=2, overlap_comm=True
        )
        sess = d.prepare(big)
        res = sess.apply(big.charges)
        ref = d.compute(big)
        assert np.array_equal(ref.potential, res.potential)


class TestExtensionSessions:
    def test_cluster_particle_session(self):
        srcs = random_cube(900, seed=75)
        tgts = random_cube(2400, seed=76)
        params = _params()
        cp = ClusterParticleTreecode(CoulombKernel(), params)
        sess = cp.prepare(srcs, tgts)
        sess.apply(srcs.charges)
        rng = np.random.default_rng(77)
        q2 = rng.uniform(-1, 1, srcs.n)
        res2 = sess.apply(q2)
        fresh = cp.compute(ParticleSet(srcs.positions, q2), tgts)
        assert np.array_equal(fresh.potential, res2.potential)
        assert res2.phases.setup == 0.0
        assert res2.phases.total < fresh.phases.total

    def test_dual_tree_session(self):
        cube = random_cube(2600, seed=78)
        params = _params(degree=3, max_leaf_size=120, max_batch_size=120)
        dt = DualTreeTreecode(YukawaKernel(0.5), params)
        sess = dt.prepare(cube)
        sess.apply(cube.charges)
        rng = np.random.default_rng(79)
        q2 = rng.uniform(-1, 1, cube.n)
        res2 = sess.apply(q2)
        fresh = dt.compute(ParticleSet(cube.positions, q2))
        assert np.array_equal(fresh.potential, res2.potential)
        assert res2.phases.setup == 0.0

    def test_extension_sessions_reject_bad_length(self):
        cube = random_cube(600, seed=80)
        cp = ClusterParticleTreecode(CoulombKernel(), _params())
        with pytest.raises(ValueError, match="charges"):
            cp.prepare(cube).apply(np.ones(3))
        dt = DualTreeTreecode(CoulombKernel(), _params())
        with pytest.raises(ValueError, match="charges"):
            dt.prepare(cube).apply(np.ones(3))


class TestChargeWaveform:
    def test_deterministic_and_shaped(self, cube):
        a = list(charge_waveform(cube, 4, seed=1))
        b = list(charge_waveform(cube, 4, seed=1))
        assert len(a) == 4
        for qa, qb in zip(a, b):
            assert qa.shape == (cube.n,)
            assert np.array_equal(qa, qb)
        # Different steps really differ.
        assert not np.array_equal(a[0], a[1])

    def test_validation(self, cube):
        with pytest.raises(ValueError, match="steps"):
            list(charge_waveform(cube, 0))
        with pytest.raises(ValueError, match="amplitude"):
            list(charge_waveform(cube, 2, amplitude=-0.1))
