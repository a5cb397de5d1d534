"""Model-backend consistency for the distributed driver.

A ``backend="model"`` run must reproduce the numerics run's launch
counts, interaction counts, RMA traffic and simulated times exactly --
it is the basis of the scaling benchmarks.
"""

import numpy as np
import pytest

from repro import (
    CoulombKernel,
    DistributedBLTC,
    TreecodeParams,
    random_cube,
)


@pytest.fixture(scope="module")
def pair():
    p = random_cube(5000, seed=121)
    params = TreecodeParams(
        theta=0.7, degree=4, max_leaf_size=300, max_batch_size=300
    )
    driver = DistributedBLTC(CoulombKernel(), params, n_ranks=3)
    real = driver.compute(p)
    model = DistributedBLTC(
        CoulombKernel(), params.with_(backend="model"), n_ranks=3
    ).compute(p)
    return real, model


class TestModelConsistency:
    def test_same_total_time(self, pair):
        real, model = pair
        assert model.total_seconds == pytest.approx(real.total_seconds)

    def test_same_phase_times(self, pair):
        real, model = pair
        for pr, pd in zip(real.rank_phases, model.rank_phases):
            assert pd.setup == pytest.approx(pr.setup)
            assert pd.precompute == pytest.approx(pr.precompute)
            assert pd.compute == pytest.approx(pr.compute)

    def test_same_rma_traffic(self, pair):
        real, model = pair
        assert (
            model.stats["total_rma_bytes"] == real.stats["total_rma_bytes"]
        )

    def test_same_launch_counts(self, pair):
        real, model = pair
        for sr, sd in zip(real.stats["per_rank"], model.stats["per_rank"]):
            assert sd["launches"] == sr["launches"]
            assert sd["kernel_evaluations"] == pytest.approx(
                sr["kernel_evaluations"]
            )

    def test_model_potential_zero(self, pair):
        real, model = pair
        assert np.all(model.potential == 0.0)
        assert np.any(real.potential != 0.0)
