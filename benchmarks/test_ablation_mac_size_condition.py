"""Ablation: the cluster-size MAC condition ``(n+1)^3 < N_C`` (eq. 13).

"If the cluster contains fewer source particles than interpolation
points, it is both faster and more accurate to compute the exact
interaction."  We disable the condition and verify both halves: error
gets worse (approximating tiny clusters) and the device does more work
per unit accuracy.
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
    p = random_cube(6000, seed=41)
    ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
    out = {}
    # Degree 7 -> 512 interpolation points vs leaves of <= 150 particles:
    # without the size check, every well-separated leaf is "approximated"
    # by a grid 3x denser than its particles.
    for label, size_check in (("with size check", True), ("without", False)):
        params = TreecodeParams(
            theta=0.9, degree=7, max_leaf_size=150, max_batch_size=150,
            size_check=size_check,
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(p)
        out[label] = {
            "res": res,
            "err": relative_l2_error(ref, res.potential),
        }
    return out


def test_mac_size_condition_regenerate(ablation, results_dir):
    rows = [
        [label, d["err"], d["res"].phases.compute,
         d["res"].stats["kernel_evaluations"],
         d["res"].stats["n_approx_interactions"],
         d["res"].stats["n_direct_interactions"]]
        for label, d in ablation.items()
    ]
    write_result(
        results_dir,
        "ablation_mac_size_condition.txt",
        format_table(
            ["mode", "error", "compute (s)", "kernel evals", "approx",
             "direct"],
            rows,
            title=(
                "Cluster-size MAC condition ablation (N=6000, theta=0.9, "
                "n=7, NL=150: (n+1)^3=512 > NL)"
            ),
        ),
    )


def test_size_check_more_accurate(ablation):
    """Exact interaction beats approximating an undersized cluster."""
    assert (
        ablation["with size check"]["err"]
        < ablation["without"]["err"]
    )


def test_size_check_less_work(ablation):
    """(n+1)^3 > N_C means the approximation costs MORE kernel evals."""
    with_check = ablation["with size check"]["res"]
    without = ablation["without"]["res"]
    assert (
        with_check.stats["kernel_evaluations"]
        < without.stats["kernel_evaluations"]
    )
    assert with_check.phases.compute < without.phases.compute
