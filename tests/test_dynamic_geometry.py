"""Warm-start ``update_geometry``: incremental re-prepare for drift.

The contract under test: after ``session.update_geometry(new_positions)``
every ``apply()`` is **bitwise equal** to a cold ``prepare()`` at the new
positions -- on every executing backend and for whole
``(N, n_rhs)`` charge blocks -- whether the update took the incremental
path (re-bin + list verify + plan recompile) or fell back to a full
rebuild.  Plus the control surface around it: the zero-motion no-op, the
``rebuild_threshold`` trigger, geometry-key staleness and the
``update_scratch`` memory category.
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    ClusterParticleTreecode,
    CoulombKernel,
    DistributedBLTC,
    DualTreeTreecode,
    InverseMultiquadricKernel,
    TreecodeParams,
    random_cube,
)
from repro.workloads import ParticleSet

BACKENDS = ("numpy", "per-group", "stacked", "multiprocessing")


def _params(backend="fused", **kw):
    base = dict(
        theta=0.7, degree=3, max_leaf_size=50, max_batch_size=50,
        backend=backend,
    )
    base.update(kw)
    return TreecodeParams(**base)


@pytest.fixture(scope="module")
def cube():
    return random_cube(600, seed=31)


def _drift(rng, pos, scale):
    return pos + rng.normal(scale=scale, size=pos.shape)


class TestWarmColdParity:
    """update_geometry + apply == cold prepare + apply, bitwise."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend(self, backend, cube, use_backend):
        rng = np.random.default_rng(11)
        drv = BarycentricTreecode(
            CoulombKernel(), _params(use_backend(backend))
        )
        sess = drv.prepare(cube)
        sess.apply(cube.charges)
        pos = cube.positions.copy()
        for _ in range(3):
            pos = _drift(rng, pos, 0.004)
            result = sess.update_geometry(pos)
            assert not result.noop
            warm = sess.apply(cube.charges)
            cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
                cube.charges
            )
            assert np.array_equal(warm.potential, cold.potential)

    def test_multi_rhs_block(self, cube, use_backend):
        rng = np.random.default_rng(13)
        block = rng.uniform(-1.0, 1.0, (cube.n, 5))
        drv = BarycentricTreecode(
            CoulombKernel(), _params(use_backend("stacked"))
        )
        sess = drv.prepare(cube)
        sess.apply(block)  # widen the weight buffer before the update
        pos = _drift(rng, cube.positions, 0.004)
        sess.update_geometry(pos)
        warm = sess.apply(block)
        cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(block)
        assert warm.potential.shape == (cube.n, 5)
        assert np.array_equal(warm.potential, cold.potential)

    def test_forces(self, cube):
        rng = np.random.default_rng(14)
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        pos = _drift(rng, cube.positions, 0.004)
        sess.update_geometry(pos)
        warm = sess.apply(cube.charges, compute_forces=True)
        cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
            cube.charges, compute_forces=True
        )
        assert np.array_equal(warm.forces, cold.forces)

    def test_disjoint_targets(self, cube):
        rng = np.random.default_rng(15)
        targets = rng.random((300, 3))
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube, targets)
        # Sources move, disjoint targets stay put...
        pos = _drift(rng, cube.positions, 0.004)
        sess.update_geometry(pos)
        warm = sess.apply(cube.charges)
        cold = drv.prepare(ParticleSet(pos, cube.charges), targets).apply(
            cube.charges
        )
        assert np.array_equal(warm.potential, cold.potential)
        # ... then both sets move.
        pos = _drift(rng, pos, 0.004)
        tgt2 = _drift(rng, targets, 0.003)
        sess.update_geometry(pos, targets=tgt2)
        warm = sess.apply(cube.charges)
        cold = drv.prepare(ParticleSet(pos, cube.charges), tgt2).apply(
            cube.charges
        )
        assert np.array_equal(warm.potential, cold.potential)


class TestRebuildControls:
    """The no-op fast path and the drift-threshold rebuild trigger."""

    def test_zero_motion_noop(self, cube):
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        key = sess.geometry_key()
        before = sess.apply(cube.charges)
        result = sess.update_geometry(cube.positions.copy())
        assert result.noop and not result.rebuilt
        assert sess.geometry_key() == key
        after = sess.apply(cube.charges)
        assert np.array_equal(before.potential, after.potential)

    def test_threshold_zero_forces_rebuild(self, cube):
        rng = np.random.default_rng(16)
        drv = BarycentricTreecode(
            CoulombKernel(), _params(rebuild_threshold=0.0)
        )
        sess = drv.prepare(cube)
        pos = _drift(rng, cube.positions, 0.02)  # re-bins at least one
        result = sess.update_geometry(pos)
        assert result.rebuilt
        assert "threshold" in result.reason
        warm = sess.apply(cube.charges)
        cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
            cube.charges
        )
        assert np.array_equal(warm.potential, cold.potential)

    def test_threshold_one_small_drift_stays_incremental(self, cube):
        rng = np.random.default_rng(17)
        drv = BarycentricTreecode(
            CoulombKernel(), _params(rebuild_threshold=1.0)
        )
        sess = drv.prepare(cube)
        pos = _drift(rng, cube.positions, 1e-5)
        result = sess.update_geometry(pos)
        assert not result.rebuilt and not result.noop
        warm = sess.apply(cube.charges)
        cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
            cube.charges
        )
        assert np.array_equal(warm.potential, cold.potential)

    def test_large_drift_still_bitwise(self, cube):
        # Scrambling every position exceeds any topology-preserving
        # re-bin; whichever fallback fires, parity must hold.
        rng = np.random.default_rng(18)
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        pos = rng.random(cube.positions.shape)
        result = sess.update_geometry(pos)
        assert result.rebuilt
        warm = sess.apply(cube.charges)
        cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
            cube.charges
        )
        assert np.array_equal(warm.potential, cold.potential)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="rebuild_threshold"):
            _params(rebuild_threshold=-0.1)
        with pytest.raises(ValueError, match="rebuild_threshold"):
            _params(rebuild_threshold=1.5)

    def test_bad_shape_rejected(self, cube):
        sess = BarycentricTreecode(CoulombKernel(), _params()).prepare(cube)
        with pytest.raises(ValueError, match="shape"):
            sess.update_geometry(cube.positions[:-1])


class TestNonFinitePositions:
    """A NaN or inf coordinate is refused before the session changes:
    the next apply is bitwise the apply before the refused update.  The
    update used to hang in the tree build."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("what", ["positions", "targets"])
    @pytest.mark.parametrize(
        "make",
        [BarycentricTreecode, ClusterParticleTreecode],
        ids=["treecode", "cluster_particle"],
    )
    def test_refused_update_leaves_session_unchanged(
        self, make, what, bad, cube
    ):
        rng = np.random.default_rng(25)
        sess = make(CoulombKernel(), _params()).prepare(cube)
        before = sess.apply(cube.charges)
        key = sess.geometry_key()
        moved = _drift(rng, cube.positions, 0.004)
        broken = moved.copy()
        broken[17, 2] = bad
        with pytest.raises(ValueError, match=f"{what} must be finite"):
            if what == "positions":
                sess.update_geometry(broken)
            else:
                sess.update_geometry(moved, targets=broken)
        assert sess.geometry_key() == key
        after = sess.apply(cube.charges)
        assert after.potential.tobytes() == before.potential.tobytes()


class TestMultiStepStress:
    """Randomized drift trajectory with per-step cold comparison."""

    def test_mixed_steps(self, cube):
        rng = np.random.default_rng(19)
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        pos = cube.positions.copy()
        scales = [0.002, 0.0, 0.01, 0.002, 0.2, 0.002, 0.0005, 0.05]
        seen_incremental = seen_rebuild = seen_noop = False
        for scale in scales:
            pos = _drift(rng, pos, scale) if scale else pos.copy()
            result = sess.update_geometry(pos)
            seen_incremental |= not result.rebuilt and not result.noop
            seen_rebuild |= result.rebuilt
            seen_noop |= result.noop
            warm = sess.apply(cube.charges)
            cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
                cube.charges
            )
            assert np.array_equal(warm.potential, cold.potential)
        assert seen_incremental and seen_rebuild and seen_noop

    def test_mixed_steps_batched_near_field_buckets(self, cube, use_backend):
        # Regression for the full-plan bucketed layout: a trajectory
        # mixing incremental patches and full rebuilds must keep the
        # zero-weight-padded near-field buckets coherent -- every warm
        # apply bitwise equal to a cold prepare, with direct-kind
        # buckets actually present (the self-target cube is
        # near-field-heavy at this theta).
        rng = np.random.default_rng(23)
        params = _params(backend=use_backend("stacked"))
        drv = BarycentricTreecode(CoulombKernel(), params)
        sess = drv.prepare(cube)
        sess.apply(cube.charges)
        pos = cube.positions.copy()
        seen_incremental = seen_rebuild = False
        for scale in [0.002, 0.01, 0.2, 0.002, 0.05]:
            pos = _drift(rng, pos, scale)
            result = sess.update_geometry(pos)
            seen_incremental |= not result.rebuilt and not result.noop
            seen_rebuild |= result.rebuilt
            # Every update compiles a fresh plan; its layout builds here.
            layout = sess.plan.ensure_batched_layout()
            assert any(
                b.kind == "direct" for b in layout.buckets
            ), "near field must stay bucketed across updates"
            for b in layout.buckets:
                if b.src_valid is not None:
                    assert np.all(b.weights[~b.src_valid] == 0.0)
            warm = sess.apply(cube.charges)
            cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
                cube.charges
            )
            assert np.array_equal(warm.potential, cold.potential)
            assert np.isfinite(warm.potential).all()
        assert seen_incremental and seen_rebuild

    def test_velocity_verlet_drift_stays_incremental(self):
        # Small-drift MD: a per-step displacement of ~2e-5 against leaf
        # boxes of ~0.2.  Every step matches a cold prepare bitwise, each
        # re-bins at most 5% of the particles, and at most one step may
        # rebuild (a cluster count sitting exactly at the leaf threshold
        # can legitimately flip the topology).
        n, dt = 1000, 0.002
        drv = BarycentricTreecode(
            InverseMultiquadricKernel(c=0.05),
            _params(theta=0.3, degree=2, max_leaf_size=30, max_batch_size=30),
        )
        pos = random_cube(n, seed=700).positions.copy()
        vel = np.random.default_rng(701).normal(0.0, 0.01, size=pos.shape)
        mass = np.full(n, 1.0 / n)
        sess = drv.prepare(ParticleSet(pos, mass))
        acc = -sess.apply(mass, compute_forces=True).forces
        results = []
        for _ in range(4):
            vel += 0.5 * dt * acc
            pos = pos + dt * vel
            results.append(sess.update_geometry(pos))
            warm = sess.apply(mass, compute_forces=True)
            cold = drv.prepare(ParticleSet(pos, mass)).apply(
                mass, compute_forces=True
            )
            assert np.array_equal(warm.potential, cold.potential)
            acc = -warm.forces
            vel += 0.5 * dt * acc
        assert sum(r.rebuilt for r in results) <= 1
        assert max(r.rebinned_fraction for r in results) <= 0.05


class TestExtensions:
    """Sec. 5 sessions update through the rebuild-based path."""

    @pytest.mark.parametrize(
        "make",
        [ClusterParticleTreecode, DualTreeTreecode],
        ids=["cluster_particle", "dual_tree"],
    )
    def test_rebuild_parity(self, make, cube):
        rng = np.random.default_rng(20)
        drv = make(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        sess.apply(cube.charges)
        key = sess.geometry_key()
        assert sess.update_geometry(cube.positions.copy()).noop
        pos = _drift(rng, cube.positions, 0.004)
        result = sess.update_geometry(pos)
        assert result.rebuilt
        assert sess.geometry_key() != key
        warm = sess.apply(cube.charges)
        cold = drv.prepare(ParticleSet(pos, cube.charges)).apply(
            cube.charges
        )
        assert np.array_equal(warm.potential, cold.potential)

    def test_distributed_has_no_updater(self, cube):
        sess = DistributedBLTC(
            CoulombKernel(), _params(), n_ranks=2
        ).prepare(cube)
        with pytest.raises(NotImplementedError):
            sess.cores[0].update_geometry(cube.positions + 0.01)


class TestAccounting:
    """geometry_key staleness and update_scratch memory."""

    def test_geometry_key_changes_after_update(self, cube):
        rng = np.random.default_rng(22)
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        keys = {sess.geometry_key()}
        pos = cube.positions.copy()
        for _ in range(3):
            pos = _drift(rng, pos, 0.003)
            sess.update_geometry(pos)
            keys.add(sess.geometry_key())
        assert len(keys) == 4

    def test_single_interior_particle_changes_key(self, cube):
        # One particle nudged within its leaf box can leave every plan
        # byte untouched; the key must still move.
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        key = sess.geometry_key()
        pos = cube.positions.copy()
        pos[0] += 1e-12
        result = sess.update_geometry(pos)
        assert not result.noop
        assert sess.geometry_key() != key

    def test_update_scratch_in_memory_stats(self, cube):
        rng = np.random.default_rng(23)
        drv = BarycentricTreecode(CoulombKernel(), _params())
        sess = drv.prepare(cube)
        stats = sess.memory_stats()
        assert stats["update_scratch_bytes"] == 0
        sess.update_geometry(_drift(rng, cube.positions, 0.001))
        stats = sess.memory_stats()
        assert stats["update_scratch_bytes"] > 0
        assert stats["total_bytes"] >= stats["update_scratch_bytes"]
        assert "update=" in repr(sess)

    @pytest.mark.parametrize(
        "make",
        [ClusterParticleTreecode, DualTreeTreecode],
        ids=["cluster_particle", "dual_tree"],
    )
    def test_update_scratch_in_extension_reprs(self, make, cube):
        sess = make(CoulombKernel(), _params()).prepare(cube)
        assert "update_scratch_bytes" in sess.memory_stats()
        assert "update=" in repr(sess)
