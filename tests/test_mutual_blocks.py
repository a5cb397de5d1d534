"""Mutual near-field blocks on the plan evaluator's per-group path.

Where the targets are the sources, the per-group path forms each
mirrored direct block once and applies it both ways, following the
plan's :class:`~repro.core.plan.MirrorSchedule`.  Every test here pins
that path, whatever the plan's group sizes.  The contract:

* roundoff-equal to the ``numpy`` reference (rtol 1e-9 on potentials,
  1e-8 on forces in float64), identical device counters;
* bitwise within fused: apply == compute, column j == solo apply,
  pickle round-trip, and update == cold prepare through every
  ``update_geometry`` tier;
* a plan whose schedule pairs nothing (disjoint targets) evaluates
  bitwise as the per-group arithmetic (``eval_group_range``);
* the schedule is geometry: ``refresh_geometry`` and ``patch_groups``
  each drop it on their own, and pickling does not carry it.
"""

import pickle

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    TreecodeParams,
    YukawaKernel,
    get_backend,
    random_cube,
)
from repro.core.backends.groupeval import eval_group_range, plan_arrays
from repro.core.plan import MIRROR_SKIP
from repro.gpu.device import GpuDevice
from repro.perf.machine import GPU_TITAN_V
from repro.workloads import ParticleSet


def _params(backend="fused", **kw):
    base = dict(
        theta=0.7, degree=3, max_leaf_size=60, max_batch_size=60,
        backend=backend,
    )
    base.update(kw)
    return TreecodeParams(**base)


def _driver(backend="fused", kernel=None, **kw):
    return BarycentricTreecode(
        kernel or YukawaKernel(0.5), _params(backend, **kw)
    )


def _same(a, b) -> bool:
    if not np.array_equal(a.potential, b.potential):
        return False
    if a.forces is None:
        return b.forces is None
    return np.array_equal(a.forces, b.forces)


def _execute(name, plan, kernel, *, dtype=np.float64, forces=True):
    device = GpuDevice(GPU_TITAN_V)
    phi, f = get_backend(name).execute(
        plan, kernel, device, dtype=dtype, compute_forces=forces
    )
    return phi, f, device


def _per_group(plan, kernel, *, dtype=np.float64, forces=True):
    """The per-group arithmetic over the whole plan, scattered."""
    t_lo, t_hi, phi_rows, f_rows = eval_group_range(
        plan_arrays(plan, cast_geometry=dtype), kernel, dtype, forces,
        0, plan.n_groups,
    )
    idx = plan.out_index[t_lo:t_hi]
    phi = np.zeros((plan.out_size,) + phi_rows.shape[1:])
    phi[idx] += phi_rows
    f = None
    if forces:
        f = np.zeros((plan.out_size,) + f_rows.shape[1:])
        f[idx] += f_rows
    return phi, f


def _assert_roundoff_equal(phi, phi_ref, f, f_ref, rtol_phi=1e-9, rtol_f=1e-8):
    """Elementwise closeness, absolute slack scaled to the field: a
    potential that nearly cancels keeps only absolute accuracy."""
    np.testing.assert_allclose(
        phi, phi_ref, rtol=rtol_phi, atol=rtol_phi * np.abs(phi_ref).max()
    )
    np.testing.assert_allclose(
        f, f_ref, rtol=rtol_f, atol=rtol_f * np.abs(f_ref).max()
    )


@pytest.fixture(scope="module")
def cube():
    return random_cube(1500, seed=41)


@pytest.fixture(autouse=True)
def _per_group_path(use_backend):
    use_backend("per-group")


def _plan(cube, **kw):
    """A fused session's plan with the cube's charges in its weights."""
    sess = _driver(**kw).prepare(cube)
    sess.apply(cube.charges)
    return sess.plan


class TestAgainstNumpy:
    @pytest.mark.parametrize(
        "dtype, rtol_phi, rtol_f",
        ((np.float64, 1e-9, 1e-8), (np.float32, 1e-5, 1e-4)),
        ids=("f64", "f32"),
    )
    def test_roundoff_equal(self, cube, dtype, rtol_phi, rtol_f):
        fused = _driver("fused", dtype=dtype).prepare(cube)
        out = fused.apply(cube.charges, compute_forces=True)
        assert fused.plan.mirror_schedule().n_pairs > 0
        ref = _driver("numpy", dtype=dtype).prepare(cube).apply(
            cube.charges, compute_forces=True
        )
        _assert_roundoff_equal(
            out.potential, ref.potential, out.forces, ref.forces,
            rtol_phi, rtol_f,
        )

    def test_differs_from_the_per_group_arithmetic(self, cube):
        # The schedule is really taken: the summation order moved.
        plan = _plan(cube)
        kernel = YukawaKernel(0.5)
        phi, f, _ = _execute("fused", plan, kernel)
        phi_g, f_g = _per_group(plan, kernel)
        assert not np.array_equal(phi, phi_g)
        _assert_roundoff_equal(phi, phi_g, f, f_g)

    @pytest.mark.parametrize("forces", (False, True), ids=("pot", "forces"))
    def test_counters_identical(self, cube, forces):
        plan = _plan(cube)
        kernel = YukawaKernel(0.5)
        _, _, dev = _execute("fused", plan, kernel, forces=forces)
        _, _, ref = _execute("numpy", plan, kernel, forces=forces)
        c, r = dev.counters, ref.counters
        assert c.launches == r.launches
        assert c.interactions == r.interactions
        assert c.bytes_h2d == r.bytes_h2d and c.bytes_d2h == r.bytes_d2h
        assert {k: tuple(v) for k, v in c.by_kind.items()} == {
            k: tuple(v) for k, v in r.by_kind.items()
        }
        assert dev.elapsed() == pytest.approx(ref.elapsed())


class TestBitwiseWithinFused:
    def test_apply_equals_compute(self, cube):
        drv = _driver()
        applied = drv.prepare(cube).apply(cube.charges, compute_forces=True)
        computed = drv.compute(cube, compute_forces=True)
        assert _same(applied, computed)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_column_equals_solo(self, cube, dtype):
        rng = np.random.default_rng(3)
        block = rng.uniform(-1.0, 1.0, (cube.n, 16))
        sess = _driver(dtype=dtype).prepare(cube)
        wide = sess.apply(block, compute_forces=True)
        for j in (0, 7, 15):
            solo = sess.apply(block[:, j].copy(), compute_forces=True)
            assert np.array_equal(solo.potential, wide.potential[:, j])
            assert np.array_equal(solo.forces, wide.forces[:, :, j])

    def test_pickle_round_trip(self, cube):
        live = _driver().prepare(cube)
        first = live.apply(cube.charges, compute_forces=True)
        assert live.plan._mirrors is not None
        restored = pickle.loads(pickle.dumps(live))
        assert restored.plan._mirrors is None
        assert _same(restored.apply(cube.charges, compute_forces=True), first)
        assert restored.plan.mirror_schedule().n_pairs == (
            live.plan.mirror_schedule().n_pairs
        )


def _leaf_mates(sess):
    """``(i, j, k)``: particles i, j share a leaf, k sits in another."""
    leaf_map = sess.tree.leaf_map()
    members = np.nonzero(leaf_map == leaf_map[0])[0]
    other = np.nonzero(leaf_map != leaf_map[0])[0]
    return int(members[0]), int(members[1]), int(other[0])


#: tier -> (rebuild_threshold, move within the leaf?)
TIERS = {
    "refresh_geometry": (1.0, True),
    "patch_groups": (1.0, False),
    "rebuild": (0.0, False),
}


class TestUpdateEqualsColdPrepare:
    @pytest.mark.parametrize("tier", TIERS)
    def test_every_tier(self, tier, cube):
        threshold, same_leaf = TIERS[tier]
        drv = _driver(rebuild_threshold=threshold)
        q = cube.charges
        sess = drv.prepare(cube)
        sess.apply(q, compute_forces=True)
        i, mate, stranger = _leaf_mates(sess)
        moved = cube.positions.copy()
        moved[i] = moved[mate if same_leaf else stranger]
        result = sess.update_geometry(moved)
        assert result.rebuilt == (tier == "rebuild")
        assert (result.n_patched_groups > 0) == (tier == "patch_groups")
        warm = sess.apply(q, compute_forces=True)
        assert sess.plan.mirror_schedule().n_pairs > 0
        cold = drv.prepare(ParticleSet(moved, q)).apply(
            q, compute_forces=True
        )
        assert _same(warm, cold)


class TestEmptySchedule:
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_disjoint_targets_are_the_per_group_arithmetic(self, cube, dtype):
        rng = np.random.default_rng(12)
        targets = rng.uniform(0.0, 1.0, (700, 3)) + 0.05
        sess = _driver(dtype=dtype).prepare(cube, targets)
        out = sess.apply(cube.charges, compute_forces=True)
        plan = sess.plan
        assert plan.mirror_schedule().n_pairs == 0
        assert not np.any(plan.mirror_schedule().partner == MIRROR_SKIP)
        phi, f = _per_group(plan, YukawaKernel(0.5), dtype=dtype)
        assert np.array_equal(out.potential, phi)
        assert np.array_equal(out.forces, f)


class TestDuplicatesAcrossMirroredLeaves:
    def test_finite_and_matches_numpy(self, cube):
        # Two copies of one point, one ulp apart across the root's x
        # split: they land in different leaves, yet sit under the
        # noise floor, so the pair is coincident in both directions.
        drv = _driver(kernel=CoulombKernel())
        mid = drv.prepare(cube).tree.nodes[0].box.center
        pos = cube.positions.copy()
        pos[0] = [mid[0], pos[5, 1], pos[5, 2]]
        pos[1] = [np.nextafter(mid[0], np.inf), pos[5, 1], pos[5, 2]]
        particles = ParticleSet(pos, cube.charges)
        sess = drv.prepare(particles)
        plan = sess.plan
        row_of = np.argsort(plan.out_index)
        a, b = sorted(
            int(np.searchsorted(plan.group_ptr, row_of[i], "right")) - 1
            for i in (0, 1)
        )
        assert a != b
        sched = plan.mirror_schedule()
        segs = range(int(plan.seg_group_ptr[a]), int(plan.seg_group_ptr[a + 1]))
        assert any(int(sched.partner[s]) == b for s in segs)
        out = sess.apply(cube.charges, compute_forces=True)
        assert np.isfinite(out.potential).all()
        assert np.isfinite(out.forces).all()
        ref = _driver("numpy", kernel=CoulombKernel()).prepare(
            particles
        ).apply(cube.charges, compute_forces=True)
        _assert_roundoff_equal(out.potential, ref.potential, out.forces, ref.forces)


class TestScheduleLifecycle:
    """Each plan method drops the schedule on its own; a stale one
    pairs blocks that are no longer mirrors, which shows in the values."""

    def test_refresh_geometry_drops_it(self, cube):
        plan = _plan(cube)
        kernel = YukawaKernel(0.5)
        _execute("fused", plan, kernel)
        assert plan.mirror_schedule().n_pairs > 0
        # Targets no longer sit on their slots: nothing is mirrored.
        plan.refresh_geometry(targets=plan.targets * 1.001)
        phi, f, _ = _execute("fused", plan, kernel)
        phi_ref, f_ref = _per_group(plan, kernel)
        assert np.array_equal(phi, phi_ref)
        assert np.array_equal(f, f_ref)
        assert plan.mirror_schedule().n_pairs == 0

    def test_patch_groups_drops_it(self, cube):
        plan = _plan(cube)
        kernel = YukawaKernel(0.5)
        _execute("fused", plan, kernel)
        sched = plan.mirror_schedule()
        n_pairs = sched.n_pairs
        seg_group = np.repeat(
            np.arange(plan.n_groups), np.diff(plan.seg_group_ptr)
        )
        # A group that only receives mirrored blocks, re-described with
        # its segments reversed: same work, new segment order and
        # first-use physical rows.
        g = int(max(
            set(seg_group[sched.partner == MIRROR_SKIP])
            - set(seg_group[sched.partner >= 0])
        ))
        slots = {key: (lo, hi) for key, lo, hi in plan.weight_slots}
        key_at = {lo: key for key, (lo, _) in slots.items()}
        points = {k: plan.src_points[lo:hi].copy() for k, (lo, hi) in slots.items()}
        weights = {k: plan.src_weights[lo:hi].copy() for k, (lo, hi) in slots.items()}
        targets = plan.targets.copy()
        t_lo, t_hi = int(plan.group_ptr[g]), int(plan.group_ptr[g + 1])
        s_lo, s_hi = int(plan.seg_group_ptr[g]), int(plan.seg_group_ptr[g + 1])
        segs = [
            (plan.kind_names[plan.seg_kind[s]], key_at[int(plan.seg_src_lo[s])])
            for s in range(s_lo, s_hi)
        ]
        plan.patch_groups(
            {g: (plan.out_index[t_lo:t_hi].copy(), segs[::-1])},
            lambda key: slots[key][1] - slots[key][0],
        )
        # Refill the zeroed buffers without refresh_geometry.
        plan.targets[...] = targets
        for key, lo, hi in plan.weight_slots:
            plan.src_points[lo:hi] = points[key]
        plan.refresh_weights(weights.__getitem__)
        phi, f, _ = _execute("fused", plan, kernel)
        assert plan.mirror_schedule().n_pairs == n_pairs
        phi_ref, f_ref = _per_group(plan, kernel)
        _assert_roundoff_equal(phi, phi_ref, f, f_ref)
