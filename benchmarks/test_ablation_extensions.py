"""Ablations for the paper's Sec. 5 future-work items.

* Mixed-precision arithmetic: float32 kernel evaluation with float64
  accumulation -- errors degrade to single-precision levels while the
  structure is unchanged (on real hardware this buys ~2x throughput;
  the numerics here demonstrate the accuracy side of the trade).
* Overlapping communication and computation: the distributed driver can
  hide LET communication behind the local precompute phase.
"""

import numpy as np
import pytest

from conftest import write_result
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    DistributedBLTC,
    direct_sum,
    random_cube,
    relative_l2_error,
    TreecodeParams,
)
from repro.analysis import format_table


@pytest.fixture(scope="module")
def precision_runs():
    p = random_cube(5000, seed=61)
    ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
    out = {}
    for label, dtype in (("float64", np.float64), ("float32", np.float32)):
        params = TreecodeParams(
            theta=0.7, degree=6, max_leaf_size=250, max_batch_size=250,
            dtype=dtype,
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(p)
        out[label] = {"res": res, "err": relative_l2_error(ref, res.potential)}
    return out


@pytest.fixture(scope="module")
def overlap_runs():
    p = random_cube(60_000, seed=62)
    params = TreecodeParams(
        theta=0.8, degree=8, max_leaf_size=1000, max_batch_size=1000
    )
    out = {}
    for label, overlap in (("no overlap", False), ("comm/compute overlap", True)):
        res = DistributedBLTC(
            CoulombKernel(), params, n_ranks=8, overlap_comm=overlap
        ).compute(p, dry_run=True)
        out[label] = res
    return out


def test_extensions_regenerate(precision_runs, overlap_runs, results_dir):
    lines = [
        format_table(
            ["precision", "error", "simulated time (s)"],
            [[label, d["err"], d["res"].phases.total]
             for label, d in precision_runs.items()],
            title="Mixed-precision extension (Sec. 5 future work)",
        ),
        "",
        format_table(
            ["mode", "total (s)", "max setup (s)", "comm (s, rank 0)"],
            [[label, r.total_seconds, r.aggregate_phases().setup,
              r.comm_seconds[0]] for label, r in overlap_runs.items()],
            title="Communication/computation overlap extension (8 ranks)",
        ),
    ]
    write_result(results_dir, "ablation_extensions.txt", "\n".join(lines))


def test_float32_accuracy_band(precision_runs):
    """Single precision lands at single-precision-level relative error."""
    err64 = precision_runs["float64"]["err"]
    err32 = precision_runs["float32"]["err"]
    assert err32 > err64
    assert 1e-8 < err32 < 1e-3


def test_float32_faster_on_device_model(precision_runs):
    """DP:SP = 1:2 on the modeled GPUs -> fp32 compute is cheaper."""
    t64 = precision_runs["float64"]["res"].phases.compute
    t32 = precision_runs["float32"]["res"].phases.compute
    assert t32 < t64


def test_float32_same_structure(precision_runs):
    s64 = precision_runs["float64"]["res"].stats
    s32 = precision_runs["float32"]["res"].stats
    assert s64["launches"] == s32["launches"]
    assert s64["n_approx_interactions"] == s32["n_approx_interactions"]


def test_overlap_hides_communication(overlap_runs):
    plain = overlap_runs["no overlap"]
    overlapped = overlap_runs["comm/compute overlap"]
    assert overlapped.total_seconds < plain.total_seconds
    # The hidden time is bounded by the communication actually performed.
    saved = plain.total_seconds - overlapped.total_seconds
    assert saved <= max(plain.comm_seconds) + 1e-9
