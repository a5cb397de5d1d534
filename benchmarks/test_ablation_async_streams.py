"""Ablation: asynchronous streams (paper Sec. 3.2).

"Asynchronous streams reduce the computation time in a typical case by
about 25%" for the 1M-particle test.  We run the paper-scale model run with
async queueing on and off and check the improvement band.
"""

import pytest

from conftest import write_result
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    GPU_TITAN_V,
    TreecodeParams,
    random_cube,
)
from repro.analysis import format_table


@pytest.fixture(scope="module")
def ablation():
    # NL = 2187 is the paper's NL = 2000 with headroom so the octree
    # lands exactly as theirs did (1M / 8^3 = 1953-particle leaves);
    # NL = 2000 exactly would fragment ~half the leaves and double the
    # launch count, overstating the async-stream gain.
    params = TreecodeParams(
        theta=0.8, degree=8, max_leaf_size=2187, max_batch_size=2187,
        backend="model",
    )
    p = random_cube(1_000_000, seed=21)
    out = {}
    for mode, async_streams in (("async-4-streams", True), ("synchronous", False)):
        res = BarycentricTreecode(
            CoulombKernel(), params, machine=GPU_TITAN_V,
            async_streams=async_streams,
        ).compute(p)
        out[mode] = res
    return out


def test_async_streams_regenerate(ablation, results_dir):
    rows = []
    for mode, res in ablation.items():
        rows.append(
            [mode, res.phases.compute, res.phases.total,
             res.stats["launches"]]
        )
    sync = ablation["synchronous"].phases.compute
    fast = ablation["async-4-streams"].phases.compute
    rows.append(
        ["improvement", (sync - fast) / sync, 0.0, 0]
    )
    write_result(
        results_dir,
        "ablation_async_streams.txt",
        format_table(
            ["mode", "compute (s)", "total (s)", "launches"],
            rows,
            title=(
                "Async-stream ablation, 1M particles, theta=0.8, n=8 "
                "(paper: ~25% compute-time reduction)"
            ),
        ),
    )


def test_async_improvement_in_paper_band(ablation):
    sync = ablation["synchronous"].phases.compute
    fast = ablation["async-4-streams"].phases.compute
    improvement = (sync - fast) / sync
    # Paper reports ~25%; accept a 10-45% band for the model.
    assert 0.10 < improvement < 0.45, improvement
