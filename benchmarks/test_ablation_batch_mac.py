"""Ablation: batch-level MAC vs per-target MAC (paper Sec. 3.2).

"While applying the MAC uniformly is sub-optimal for individual targets,
it is nearly optimal because the batch consists of localized target
particles; moreover the increased GPU performance that comes from
avoiding thread divergence more than compensates."

A per-target MAC is equivalent to singleton batches (batch radius zero):
slightly fewer kernel evaluations per target and slightly smaller error,
but catastrophic occupancy/launch overhead on the GPU.  We verify both
halves of the claim.
"""

import pytest

from conftest import write_result
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    direct_sum,
    random_cube,
    relative_l2_error,
    TreecodeParams,
)
from repro.analysis import format_table


@pytest.fixture(scope="module")
def ablation():
    p = random_cube(3000, seed=31)
    ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
    out = {}
    for label, nb in (("batch-MAC (NB=200)", 200), ("per-target MAC (NB=1)", 1)):
        params = TreecodeParams(
            theta=0.7, degree=4, max_leaf_size=200, max_batch_size=nb
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(p)
        out[label] = {
            "res": res,
            "err": relative_l2_error(ref, res.potential),
        }
    return out


def test_batch_mac_regenerate(ablation, results_dir):
    rows = []
    for label, d in ablation.items():
        res = d["res"]
        rows.append(
            [label, d["err"], res.phases.compute,
             res.stats["launches"],
             res.stats["kernel_evaluations"]]
        )
    write_result(
        results_dir,
        "ablation_batch_mac.txt",
        format_table(
            ["mode", "error", "GPU compute (s)", "launches", "kernel evals"],
            rows,
            title="Batch-level vs per-target MAC (N=3000, theta=0.7, n=4)",
        ),
    )


def test_batch_mac_is_conservative(ablation):
    """The batch MAC inflates the criterion by the batch radius r_B, so
    it does *more* kernel evaluations than the per-target MAC (r_B = 0)
    and lands at a *smaller* error -- "sub-optimal for individual
    targets" in cost, conservative in accuracy (Sec. 3.2)."""
    batch = ablation["batch-MAC (NB=200)"]["res"]
    per_t = ablation["per-target MAC (NB=1)"]["res"]
    assert (
        per_t.stats["kernel_evaluations"]
        <= batch.stats["kernel_evaluations"] * 1.05
    )
    assert (
        ablation["batch-MAC (NB=200)"]["err"]
        <= ablation["per-target MAC (NB=1)"]["err"] + 1e-15
    )
    # Both stay within the accuracy class set by theta.
    assert ablation["per-target MAC (NB=1)"]["err"] < 1e-3


def test_batch_mac_wins_on_gpu_time(ablation):
    """...but the batched version is far faster on the GPU model."""
    batch = ablation["batch-MAC (NB=200)"]["res"]
    per_t = ablation["per-target MAC (NB=1)"]["res"]
    assert batch.phases.compute < per_t.phases.compute / 5.0
    assert batch.stats["launches"] < per_t.stats["launches"] / 10.0
