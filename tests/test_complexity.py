"""Complexity verification: the BLTC's O(N log N) operation count.

"The BLTC algorithm requires O(N log N) operations compared to the
O(N^2) operations for direct summation" (paper Sec. 2.4).  We measure
kernel-evaluation counts over an N sweep (model runs -- exact counts, no
numerics) and check the growth exponent sits near 1, far from 2.
Also: distributed force evaluation correctness.
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    DistributedBLTC,
    TreecodeParams,
    random_cube,
)
from repro.experiments.common import clean_leaf_size


class TestComplexity:
    @pytest.fixture(scope="class")
    def sweep(self):
        """Kernel evals for N in a geometric sweep at fixed accuracy."""
        counts = {}
        for n in (10_000, 40_000, 160_000, 640_000):
            nl = clean_leaf_size(n, target=500)
            params = TreecodeParams(
                theta=0.8, degree=4, max_leaf_size=nl, max_batch_size=nl,
                backend="model",
            )
            p = random_cube(n, seed=131)
            res = BarycentricTreecode(CoulombKernel(), params).compute(p)
            counts[n] = res.stats["kernel_evaluations"]
        return counts

    def test_growth_exponent_near_linear(self, sweep):
        ns = sorted(sweep)
        # Effective exponent over the largest decade:
        # log(evals ratio) / log(N ratio).
        lo, hi = ns[0], ns[-1]
        exponent = np.log(sweep[hi] / sweep[lo]) / np.log(hi / lo)
        assert exponent < 1.5, (exponent, sweep)
        assert exponent > 0.8, (exponent, sweep)

    def test_fraction_of_direct_sum_decays(self, sweep):
        """The treecode's advantage over O(N^2) grows with N: at small N
        (shallow trees) it degenerates to direct summation, at large N
        it does a vanishing fraction of the direct-sum work."""
        ns = sorted(sweep)
        fracs = [sweep[n] / (float(n) * n) for n in ns]
        assert fracs == sorted(fracs, reverse=True)
        assert fracs[-1] < 0.2

    def test_per_particle_work_grows_slowly(self, sweep):
        """Work per particle ~ log N: grows, but by far less than N."""
        ns = sorted(sweep)
        per_particle = [sweep[n] / n for n in ns]
        assert per_particle[-1] > per_particle[0] * 0.5
        assert per_particle[-1] < per_particle[0] * 10.0


class TestDistributedForces:
    def test_matches_direct_force_sum(self):
        p = random_cube(2000, seed=132)
        params = TreecodeParams(
            theta=0.6, degree=6, max_leaf_size=150, max_batch_size=150
        )
        res = DistributedBLTC(
            CoulombKernel(), params, n_ranks=3
        ).compute(p, compute_forces=True)
        ref = CoulombKernel().force(p.positions, p.positions, p.charges)
        err = np.linalg.norm(res.forces - ref) / np.linalg.norm(ref)
        assert err < 1e-5

    def test_forces_none_by_default(self):
        p = random_cube(600, seed=133)
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=100, max_batch_size=100
        )
        res = DistributedBLTC(CoulombKernel(), params, n_ranks=2).compute(p)
        assert res.forces is None

    def test_distributed_matches_single_device_forces(self):
        p = random_cube(1500, seed=134)
        params = TreecodeParams(
            theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150
        )
        dist = DistributedBLTC(
            CoulombKernel(), params, n_ranks=1
        ).compute(p, compute_forces=True)
        single = BarycentricTreecode(CoulombKernel(), params).compute(
            p, compute_forces=True
        )
        assert np.allclose(dist.forces, single.forces)
