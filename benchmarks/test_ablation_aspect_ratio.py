"""Ablation: sqrt(2) aspect-ratio splitting rule (paper Sec. 3.1).

"Typically a cluster is divided into eight children; however, a cluster
may be divided into only two or four children if dividing into more
would result in aspect ratios greater than sqrt(2)."  Elongated RCB
partitions are exactly where this matters: on a slab domain, naive
8-way splitting makes thin high-aspect clusters whose radii inflate the
MAC and degrade the accuracy/cost frontier.
"""

import numpy as np
import pytest

from conftest import write_result
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    ParticleSet,
    direct_sum,
    relative_l2_error,
    TreecodeParams,
)
from repro.analysis import format_table
from repro.tree import ClusterTree
from repro.util import default_rng


def _slab(n: int, seed: int) -> ParticleSet:
    """An 8:1:1 slab -- like an RCB partition of a bigger domain."""
    rng = default_rng(seed)
    pos = rng.uniform(0, 1, size=(n, 3))
    pos[:, 0] *= 8.0
    return ParticleSet(pos, rng.uniform(-1, 1, size=n))


@pytest.fixture(scope="module")
def ablation():
    p = _slab(6000, seed=51)
    ref = direct_sum(p.positions, p.positions, p.charges, CoulombKernel())
    out = {}
    for label, aspect in (("sqrt(2) rule", True), ("always 8-way", False)):
        params = TreecodeParams(
            theta=0.7, degree=5, max_leaf_size=200, max_batch_size=200,
            aspect_ratio_splitting=aspect,
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(p)
        tree = ClusterTree(
            p.positions, 200, aspect_ratio_splitting=aspect
        )
        ratios = [
            nd.box.aspect_ratio
            for nd in tree.nodes
            if np.isfinite(nd.box.aspect_ratio)
        ]
        out[label] = {
            "res": res,
            "err": relative_l2_error(ref, res.potential),
            "max_aspect": max(ratios),
            "nodes": len(tree),
        }
    return out


def test_aspect_ratio_regenerate(ablation, results_dir):
    rows = [
        [label, d["err"], d["res"].phases.compute, d["nodes"],
         d["max_aspect"], d["res"].stats["kernel_evaluations"]]
        for label, d in ablation.items()
    ]
    write_result(
        results_dir,
        "ablation_aspect_ratio.txt",
        format_table(
            ["mode", "error", "compute (s)", "tree nodes", "max aspect",
             "kernel evals"],
            rows,
            title="Aspect-ratio splitting ablation on an 8:1:1 slab domain",
        ),
    )


def test_rule_controls_cluster_elongation(ablation):
    assert ablation["sqrt(2) rule"]["max_aspect"] < (
        ablation["always 8-way"]["max_aspect"]
    )


def test_rule_reduces_work(ablation):
    """The rule's payoff is cost: better-shaped clusters mean fewer
    kernel evaluations and less simulated compute on elongated domains."""
    ruled = ablation["sqrt(2) rule"]
    naive = ablation["always 8-way"]
    assert ruled["res"].phases.compute < naive["res"].phases.compute
    assert (
        ruled["res"].stats["kernel_evaluations"]
        < naive["res"].stats["kernel_evaluations"]
    )


def test_rule_keeps_accuracy_class(ablation):
    """...while the error stays in the same accuracy class (within an
    order of magnitude at the same (theta, n))."""
    ruled = ablation["sqrt(2) rule"]
    naive = ablation["always 8-way"]
    assert ruled["err"] < 10.0 * naive["err"] + 1e-15
    assert ruled["err"] < 1e-3
