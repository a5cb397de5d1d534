"""Tests for modified charges (paper eqs. 12, 14-15, Sec. 2.3)."""

import numpy as np
import pytest

from repro.config import TreecodeParams
from repro.core.moments import (
    modified_charges,
    moment_flop_counts,
    precompute_moments,
    prepare_moment_grids,
)
from repro.gpu.device import GpuDevice
from repro.interpolation import ChebyshevGrid3D
from repro.kernels import CoulombKernel, YukawaKernel
from repro.perf.machine import GPU_TITAN_V
from repro.tree import ClusterTree
from repro.workloads import random_cube


class TestModifiedCharges:
    def test_total_charge_conserved(self):
        """sum_k qhat_k == sum_j q_j: the basis is a partition of unity in
        each dimension, so the tensor product sums to one per source."""
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(80, 3))
        q = rng.normal(size=80)
        grid = ChebyshevGrid3D.for_box(
            pts.min(axis=0), pts.max(axis=0), degree=5
        )
        qhat = modified_charges(pts, q, grid)
        assert qhat.sum() == pytest.approx(q.sum(), rel=1e-10)

    def test_single_source_at_grid_point(self):
        """A source exactly on a grid point puts all charge there
        (removable singularity handling, Sec. 2.3)."""
        grid = ChebyshevGrid3D.for_box(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]), degree=4
        )
        k = 17  # arbitrary grid point
        pts = grid.points[k:k + 1]
        qhat = modified_charges(pts, np.array([2.5]), grid)
        expected = np.zeros(grid.n_points)
        expected[k] = 2.5
        assert np.array_equal(qhat, expected)

    def test_boundary_particles_coincide(self):
        """With minimal boxes the extreme particles coincide with
        Chebyshev endpoints; the result must stay finite and conservative."""
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(50, 3))
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        grid = ChebyshevGrid3D.for_box(lo, hi, degree=6)
        q = rng.normal(size=50)
        qhat = modified_charges(pts, q, grid)
        assert np.all(np.isfinite(qhat))
        assert qhat.sum() == pytest.approx(q.sum(), rel=1e-9)

    def test_moment_approximation_accuracy(self):
        """eq. 11 vs eq. 9: the approximation through modified charges must
        converge to the exact particle-cluster interaction as n grows."""
        rng = np.random.default_rng(2)
        src = rng.uniform(-0.5, 0.5, size=(200, 3))
        q = rng.normal(size=200)
        target = np.array([[5.0, 4.0, 3.0]])  # well separated
        kernel = CoulombKernel()
        exact = kernel.potential(target, src, q)[0]
        errs = []
        for n in (2, 4, 8):
            grid = ChebyshevGrid3D.for_box(
                src.min(axis=0), src.max(axis=0), degree=n
            )
            qhat = modified_charges(src, q, grid)
            approx = kernel.potential(target, grid.points, qhat)[0]
            errs.append(abs(approx - exact) / abs(exact))
        assert errs[2] < errs[0]
        assert errs[2] < 1e-10

    def test_yukawa_moment_accuracy(self):
        rng = np.random.default_rng(3)
        src = rng.uniform(-0.5, 0.5, size=(150, 3))
        q = rng.normal(size=150)
        target = np.array([[4.0, -4.0, 2.0]])
        kernel = YukawaKernel(kappa=0.5)
        exact = kernel.potential(target, src, q)[0]
        grid = ChebyshevGrid3D.for_box(
            src.min(axis=0), src.max(axis=0), degree=10
        )
        qhat = modified_charges(src, q, grid)
        approx = kernel.potential(target, grid.points, qhat)[0]
        assert abs(approx - exact) / abs(exact) < 1e-9

    def test_shape_mismatch(self):
        grid = ChebyshevGrid3D.for_box(np.zeros(3), np.ones(3), degree=2)
        with pytest.raises(ValueError):
            modified_charges(np.zeros((3, 3)), np.zeros(4), grid)


class TestFlopCounts:
    def test_formulas(self):
        ops1, ops2 = moment_flop_counts(n_cluster=100, degree=8)
        assert ops1 == 3 * 9 * 100
        assert ops2 == 9**3 * 100


class TestPrecomputeMoments:
    def test_skips_small_clusters(self):
        p = random_cube(400, seed=4)
        tree = ClusterTree(p.positions, 50)
        params = TreecodeParams(
            theta=0.8, degree=8, max_leaf_size=50, max_batch_size=50
        )
        moments = precompute_moments(tree, p.charges, params)
        # (n+1)^3 = 729 > 400 >= every cluster -> nothing qualifies.
        assert moments.n_clusters == 0
        assert moments.qhat.shape == (0, 729)

    def test_computes_for_qualifying_clusters(self):
        p = random_cube(1200, seed=5)
        tree = ClusterTree(p.positions, 100)
        params = TreecodeParams(
            theta=0.8, degree=3, max_leaf_size=100, max_batch_size=100
        )
        moments = precompute_moments(tree, p.charges, params)
        n_ip = params.n_interpolation_points
        expected = set(np.flatnonzero(tree.node_counts > n_ip).tolist())
        assert set(moments.ids.tolist()) == expected
        assert moments.qhat.shape == (len(expected), n_ip)
        for i in expected:
            assert moments.charges(i).shape == (n_ip,)
            assert i in moments

    def test_all_clusters_without_size_check(self):
        p = random_cube(300, seed=6)
        tree = ClusterTree(p.positions, 40)
        params = TreecodeParams(
            theta=0.8, degree=5, max_leaf_size=40, max_batch_size=40,
            size_check=False,
        )
        moments = precompute_moments(tree, p.charges, params)
        assert moments.ids.tolist() == list(range(len(tree)))

    def test_device_charged_two_kernels_per_cluster(self):
        p = random_cube(1000, seed=7)
        tree = ClusterTree(p.positions, 100)
        params = TreecodeParams(
            theta=0.8, degree=2, max_leaf_size=100, max_batch_size=100
        )
        dev = GpuDevice(GPU_TITAN_V)
        moments = precompute_moments(tree, p.charges, params, device=dev)
        assert dev.counters.launches == 2 * moments.n_clusters
        assert dev.counters.by_kind["moments-1"][0] == moments.n_clusters
        assert dev.counters.by_kind["moments-2"][0] == moments.n_clusters

    def test_packed_layout(self):
        p = random_cube(900, seed=8)
        tree = ClusterTree(p.positions, 80)
        params = TreecodeParams(
            theta=0.8, degree=2, max_leaf_size=80, max_batch_size=80
        )
        moments = precompute_moments(tree, p.charges, params)
        packed = moments.packed(len(tree))
        assert packed.shape == (len(tree), 27)
        for i in range(len(tree)):
            expected = moments.charges(i) if i in moments else np.zeros(27)
            assert np.array_equal(packed[i], expected)

    def test_charge_count_mismatch(self):
        p = random_cube(100, seed=9)
        tree = ClusterTree(p.positions, 30)
        params = TreecodeParams(degree=2)
        with pytest.raises(ValueError):
            precompute_moments(tree, np.zeros(99), params)

    def test_cluster_grid_spans_node_box(self):
        p = random_cube(200, seed=10)
        tree = ClusterTree(p.positions, 50)
        params = TreecodeParams(degree=4, size_check=False)
        moments = prepare_moment_grids(tree, params)
        view = tree.view()
        for i, grid in moments.grids.items():
            assert np.allclose(grid.points.min(axis=0), view.lo[i])
            assert np.allclose(grid.points.max(axis=0), view.hi[i])
