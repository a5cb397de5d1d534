"""Tests for the experiment-harness helpers (repro.experiments.common).

The re-timing helpers must agree with actually re-running the pipeline
on the other device/kernel -- that equivalence is what justifies using
them in the figure harnesses.
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    CPU_XEON_X5650,
    DistributedBLTC,
    GPU_P100,
    GPU_TITAN_V,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)
from repro.experiments.common import (
    clean_leaf_size,
    cpu_time_from_stats,
    kernel_time_delta,
    retime_distributed,
    scaled_machine,
)


@pytest.fixture(scope="module")
def model_runs():
    """GPU model run + matching CPU model run of the same configuration."""
    p = random_cube(30_000, seed=71)
    params = TreecodeParams(
        theta=0.8, degree=6, max_leaf_size=1000, max_batch_size=1000,
        backend="model",
    )
    gpu = BarycentricTreecode(
        CoulombKernel(), params, machine=GPU_TITAN_V
    ).compute(p)
    cpu = BarycentricTreecode(
        CoulombKernel(), params, machine=CPU_XEON_X5650
    ).compute(p)
    yuk = BarycentricTreecode(
        YukawaKernel(0.5), params, machine=GPU_TITAN_V
    ).compute(p)
    return gpu, cpu, yuk


class TestCpuTimeFromStats:
    def test_matches_real_cpu_model_run(self, model_runs):
        gpu, cpu, _ = model_runs
        derived = cpu_time_from_stats(gpu.stats, CoulombKernel(), CPU_XEON_X5650)
        assert derived == pytest.approx(cpu.phases.total, rel=0.02)


class TestKernelTimeDelta:
    def test_matches_real_yukawa_model_run(self, model_runs):
        gpu, _, yuk = model_runs
        derived = gpu.phases.total + kernel_time_delta(
            gpu.stats["busy_by_kind"], CoulombKernel(), YukawaKernel(0.5),
            GPU_TITAN_V,
        )
        assert derived == pytest.approx(yuk.phases.total, rel=0.01)

    def test_same_kernel_zero_delta(self, model_runs):
        gpu, _, _ = model_runs
        delta = kernel_time_delta(
            gpu.stats["busy_by_kind"], CoulombKernel(), CoulombKernel(),
            GPU_TITAN_V,
        )
        assert delta == pytest.approx(0.0, abs=1e-12)


class TestRetimeDistributed:
    def test_matches_real_distributed_yukawa(self):
        p = random_cube(12_000, seed=72)
        params = TreecodeParams(
            theta=0.8, degree=5, max_leaf_size=500, max_batch_size=500,
            backend="model",
        )
        base = DistributedBLTC(
            CoulombKernel(), params, n_ranks=3, machine=GPU_P100
        ).compute(p)
        real = DistributedBLTC(
            YukawaKernel(0.5), params, n_ranks=3, machine=GPU_P100
        ).compute(p)
        derived_total, derived_agg = retime_distributed(
            base, CoulombKernel(), YukawaKernel(0.5), GPU_P100
        )
        assert derived_total == pytest.approx(real.total_seconds, rel=0.01)
        assert derived_agg.compute == pytest.approx(
            real.aggregate_phases().compute, rel=0.01
        )

    def test_identity_retiming(self):
        p = random_cube(6_000, seed=73)
        params = TreecodeParams(
            theta=0.8, degree=4, max_leaf_size=400, max_batch_size=400,
            backend="model",
        )
        res = DistributedBLTC(
            CoulombKernel(), params, n_ranks=2, machine=GPU_P100
        ).compute(p)
        total, _ = retime_distributed(
            res, CoulombKernel(), CoulombKernel(), GPU_P100
        )
        assert total == pytest.approx(res.total_seconds, rel=1e-9)


class TestScaledMachine:
    def test_preserves_ratio(self):
        m = scaled_machine(GPU_P100, nl=500, paper_nl=4000)
        assert m.saturation_blocks == pytest.approx(
            GPU_P100.saturation_blocks / 8, abs=1
        )
        assert m.interaction_rate == GPU_P100.interaction_rate

    def test_floor(self):
        m = scaled_machine(GPU_P100, nl=1)
        assert m.saturation_blocks >= 8


class TestCleanLeafSize:
    def test_lands_on_level(self):
        nl = clean_leaf_size(1_000_000, target=2000)
        # 1M / 8^3 = 1953 is log-closest to 2000.
        assert 1953 < nl < 2400

    def test_small_n(self):
        assert clean_leaf_size(500, target=2000) >= 500

    def test_headroom_avoids_extra_split(self):
        from repro.tree import ClusterTree

        p = random_cube(200_000, seed=74)
        nl = clean_leaf_size(200_000, target=2000)
        tree = ClusterTree(p.positions, nl)
        sizes = tree.node_counts[tree.view().is_leaf]
        # Leaves should cluster near one level's population, not be
        # fragmented 8x below it.
        assert np.median(sizes) > nl / 4

    def test_respects_cap(self):
        nl = clean_leaf_size(9_000, target=2000, cap=4500)
        # 9000/8 = 1125 is the only level under the cap.
        assert nl < 4500
