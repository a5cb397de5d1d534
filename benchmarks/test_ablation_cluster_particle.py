"""Ablation: particle-cluster (BLTC) vs cluster-particle vs dual-tree.

Paper Sec. 5: "We will also explore GPU acceleration of barycentric
cluster-particle and cluster-cluster treecodes", citing Boateng & Krasny
(ref. [32]) who showed cluster-particle wins for disjoint target/source
sets with many more targets than sources.  We compare the three schemes
in that regime and in the symmetric one.
"""

import pytest

from conftest import write_result
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    TreecodeParams,
    random_cube,
    relative_l2_error,
    sphere_surface,
)
from repro.analysis import format_table
from repro.extensions import ClusterParticleTreecode, DualTreeTreecode

SCHEMES = (
    ("particle-cluster", BarycentricTreecode),
    ("cluster-particle", ClusterParticleTreecode),
    ("dual-tree", DualTreeTreecode),
)


@pytest.fixture(scope="module")
def ablation():
    kernel = CoulombKernel()
    out = {}

    # Regime A: many targets, few sources (cluster-particle's home turf,
    # ref. [32]): 20k targets on a far shell, 1.5k sources in the cube.
    sources = random_cube(1500, seed=91)
    targets = sphere_surface(20_000, seed=92, radius=2.5)
    ref = kernel.potential(targets.positions, sources.positions, sources.charges)
    params = TreecodeParams(
        theta=0.7, degree=4, max_leaf_size=150, max_batch_size=500
    )
    for label, cls in SCHEMES:
        res = cls(kernel, params).compute(sources, targets=targets.positions)
        out[f"A:{label}"] = {
            "res": res,
            "err": relative_l2_error(ref, res.potential),
        }
    params = TreecodeParams(
        theta=0.7, degree=5, max_leaf_size=400, max_batch_size=400
    )

    # Regime B: symmetric targets == sources (the paper's setting).
    particles = random_cube(5000, seed=93)
    from repro import direct_sum

    ref_b = direct_sum(
        particles.positions, particles.positions, particles.charges, kernel
    )
    for label, cls in SCHEMES:
        res = cls(kernel, params).compute(particles)
        out[f"B:{label}"] = {
            "res": res,
            "err": relative_l2_error(ref_b, res.potential),
        }
    return out


def test_cluster_particle_regenerate(ablation, results_dir):
    rows = [
        [label, d["err"], d["res"].phases.total,
         d["res"].stats["kernel_evaluations"],
         d["res"].stats["launches"]]
        for label, d in ablation.items()
    ]
    write_result(
        results_dir,
        "ablation_cluster_particle.txt",
        format_table(
            ["regime:scheme", "error", "sim time (s)", "kernel evals",
             "launches"],
            rows,
            title=(
                "Treecode scheme comparison (A: 20k targets / 1.5k "
                "sources;  B: 5k == 5k)"
            ),
        ),
    )


def test_all_schemes_accurate(ablation):
    for label, d in ablation.items():
        assert d["err"] < 1e-3, (label, d["err"])


def test_cluster_particle_cheaper_with_many_targets(ablation):
    """Regime A: interpolating over the (large) target side amortizes
    better than interpolating over the (small) source side (ref. [32])."""
    cp = ablation["A:cluster-particle"]["res"]
    pc = ablation["A:particle-cluster"]["res"]
    assert (
        cp.stats["kernel_evaluations"] < pc.stats["kernel_evaluations"]
    )


def test_dual_tree_does_least_kernel_work(ablation):
    """The cluster-cluster interactions' population-independent cost
    gives the dual traversal the lowest kernel-evaluation count."""
    dt = ablation["A:dual-tree"]["res"]
    pc = ablation["A:particle-cluster"]["res"]
    cp = ablation["A:cluster-particle"]["res"]
    assert dt.stats["kernel_evaluations"] < pc.stats["kernel_evaluations"]
    assert dt.stats["kernel_evaluations"] < cp.stats["kernel_evaluations"]
