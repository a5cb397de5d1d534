"""Edge-case tests for the treecode drivers."""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    GaussianKernel,
    ParticleSet,
    TreecodeParams,
    direct_sum,
    random_cube,
    relative_l2_error,
)


def _params(**kw):
    base = dict(theta=0.7, degree=3, max_leaf_size=50, max_batch_size=50)
    base.update(kw)
    return TreecodeParams(**base)


class TestSmallSystems:
    def test_single_particle(self):
        p = ParticleSet(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(p)
        assert res.potential.shape == (1,)
        assert res.potential[0] == 0.0  # only self-interaction

    def test_two_particles(self):
        p = ParticleSet(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([2.0, 3.0]),
        )
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(p)
        assert res.potential[0] == pytest.approx(3.0)
        assert res.potential[1] == pytest.approx(2.0)

    def test_n_below_leaf_size(self):
        p = random_cube(30, seed=1)
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(p)
        ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
        assert np.allclose(res.potential, ref)

    def test_coincident_particles(self):
        """Duplicate positions: self-terms zero, cross-terms singular ->
        the duplicate pair contributes zero to each other (r == 0)."""
        pos = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])
        p = ParticleSet(pos, np.array([1.0, 1.0, 1.0]))
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(p)
        d = np.sqrt(0.75)
        assert res.potential[2] == pytest.approx(2.0 / d)
        assert res.potential[0] == pytest.approx(1.0 / d)


class TestDegenerateGeometry:
    def test_planar_particles(self):
        """All particles in a plane: degenerate box dimension."""
        rng = np.random.default_rng(2)
        pos = rng.uniform(-1, 1, size=(800, 3))
        pos[:, 2] = 0.25
        p = ParticleSet(pos, rng.uniform(-1, 1, size=800))
        res = BarycentricTreecode(CoulombKernel(), _params(degree=5)).compute(p)
        ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
        assert relative_l2_error(ref, res.potential) < 1e-3

    def test_collinear_particles(self):
        rng = np.random.default_rng(3)
        pos = np.zeros((300, 3))
        pos[:, 0] = rng.uniform(-1, 1, size=300)
        p = ParticleSet(pos, rng.uniform(-1, 1, size=300))
        res = BarycentricTreecode(CoulombKernel(), _params(degree=4)).compute(p)
        assert np.all(np.isfinite(res.potential))

    def test_extreme_charge_magnitudes(self):
        rng = np.random.default_rng(4)
        p = ParticleSet(
            rng.uniform(-1, 1, size=(500, 3)),
            rng.uniform(-1, 1, size=500) * 1e150,
        )
        res = BarycentricTreecode(CoulombKernel(), _params(degree=4)).compute(p)
        ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
        assert relative_l2_error(ref, res.potential) < 1e-3


class TestZeroCharges:
    def test_zero_charges_zero_potential(self):
        p = ParticleSet(
            random_cube(400, seed=5).positions, np.zeros(400)
        )
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(p)
        assert np.array_equal(res.potential, np.zeros(400))

    def test_smooth_kernel_with_coincident_targets(self):
        """Non-singular kernel: self-interaction contributes g(0)."""
        p = ParticleSet(
            np.array([[0.0, 0.0, 0.0]]), np.array([2.0])
        )
        kernel = GaussianKernel(sigma=1.0)
        res = BarycentricTreecode(kernel, _params()).compute(p)
        assert res.potential[0] == pytest.approx(2.0)  # g(0) = 1


class TestInputHandling:
    def test_target_array_vs_particleset(self):
        src = random_cube(300, seed=6)
        tgt = random_cube(100, seed=7)
        tc = BarycentricTreecode(CoulombKernel(), _params())
        a = tc.compute(src, targets=tgt.positions)
        b = tc.compute(src, targets=tgt)
        assert np.array_equal(a.potential, b.potential)

    @pytest.mark.parametrize("n_targets", [40, 500], ids=["one-batch", "many"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_targets_rejected(self, n_targets, bad):
        # One batch used to return NaN potentials silently; more than
        # max_batch_size targets hung in the target tree's build.
        src = random_cube(300, seed=6)
        tgt = random_cube(n_targets, seed=7).positions.copy()
        tgt[3, 0] = bad
        tc = BarycentricTreecode(CoulombKernel(), _params())
        with pytest.raises(ValueError, match="finite"):
            tc.prepare(src, tgt)

    def test_results_deterministic(self):
        p = random_cube(600, seed=8)
        tc = BarycentricTreecode(CoulombKernel(), _params())
        a = tc.compute(p)
        b = tc.compute(p)
        assert np.array_equal(a.potential, b.potential)
        assert a.phases.total == pytest.approx(b.phases.total)
