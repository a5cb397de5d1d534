"""Figure 5: weak scaling of the distributed BLTC on 1-32 GPUs.

Paper setting: NVIDIA P100s on Comet, MAC theta = 0.8, degree n = 8,
NL = NB = 4000 (5-6 digit accuracy), 8/16/32 million particles per GPU,
1 to 32 GPUs; largest system 1.024 billion particles (345 s Coulomb,
380 s Yukawa).  Run times increase only modestly with rank count --
the O(N log N) signature.

Reproduction strategy: per-GPU particle counts are scaled down by
``scale_divisor`` (default 128: 62.5k/125k/250k per rank) and the leaf
cap is scaled to keep the paper's N-per-rank/NL ratio of 2000; the runs
are model-only (``backend="model"``) through the full distributed
pipeline -- RCB, local trees, real RMA traffic through the simulated
windows, LET construction, per-rank device accounting.  A separate small real-numerics run verifies
the 5-6 digit accuracy claim at the same (theta, n).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.errors import sampled_error
from ..config import TreecodeParams
from ..distributed.driver import DistributedBLTC
from ..kernels.base import Kernel
from ..kernels.coulomb import CoulombKernel
from ..kernels.yukawa import YukawaKernel
from ..perf.machine import GPU_P100, MachineSpec
from ..workloads import random_cube
from .common import (
    clean_leaf_size,
    retime_distributed,
    scaled_degree,
    scaled_machine,
)

__all__ = ["Fig5Config", "Fig5Row", "run_fig5"]

#: The paper's per-rank-N to NL ratio (8M per GPU min / NL 4000 = 2000).
#: Scaled runs cannot honour it exactly (NL would collapse below the
#: occupancy floor); see ``Fig5Config.leaf_size`` for the compromise.
PAPER_N_OVER_NL = 2000.0


@dataclass(frozen=True)
class Fig5Config:
    """Scales for the Fig. 5 reproduction."""

    #: Divide the paper's per-GPU particle counts by this factor.
    scale_divisor: int = 128
    #: Paper per-GPU counts (8, 16, 32 million).
    particles_per_gpu: tuple = (8_000_000, 16_000_000, 32_000_000)
    #: GPU counts along the x-axis.
    gpu_counts: tuple = (1, 2, 4, 8, 16, 32)
    theta: float = 0.8
    degree: int = 8
    machine: MachineSpec = GPU_P100
    #: Particle count of the real-numerics accuracy verification run.
    n_verify: int = 30_000
    verify_ranks: int = 4
    seed: int = 55

    def quick(self) -> "Fig5Config":
        return Fig5Config(
            scale_divisor=256,
            particles_per_gpu=(8_000_000, 32_000_000),
            gpu_counts=(1, 4, 16, 32),
            theta=self.theta,
            degree=self.degree,
            machine=self.machine,
            n_verify=self.n_verify,
            verify_ranks=self.verify_ranks,
            seed=self.seed,
        )

    def leaf_size(self, n_per_rank: int) -> int:
        """Leaf cap landing the per-rank octree cleanly (see common).

        The target of ~1000 keeps >= 64 batches per rank, so batch radii
        stay small relative to the rank's domain and the MAC separates
        remote work the way the paper's (much deeper) trees do.
        """
        return clean_leaf_size(n_per_rank, target=1000)


@dataclass
class Fig5Row:
    """One point of one weak-scaling curve."""

    kernel: str
    paper_per_gpu: int
    n_per_gpu: int
    n_gpus: int
    n_total: int
    time: float
    setup: float
    precompute: float
    compute: float
    rma_bytes: int


def run_fig5(
    cfg: Fig5Config = Fig5Config(),
    *,
    kernels: tuple[Kernel, ...] | None = None,
    progress=None,
) -> dict:
    """Regenerate the Fig. 5 series (plus the accuracy verification)."""
    if kernels is None:
        kernels = (CoulombKernel(), YukawaKernel(kappa=0.5))

    # One model run per configuration with the structure-defining kernel
    # (Coulomb); other kernels' times are derived from the recorded
    # per-kind busy seconds -- the tree, lists and communication are
    # kernel-independent.
    base_kernel = kernels[0]
    rows: list[Fig5Row] = []
    for paper_n in cfg.particles_per_gpu:
        n_rank = paper_n // cfg.scale_divisor
        nl = cfg.leaf_size(n_rank)
        params = TreecodeParams(
            theta=cfg.theta,
            # Degree scaled with NL to preserve the paper's
            # interpolation-points-to-leaf ratio (see common.scaled_degree).
            degree=scaled_degree(nl, paper_degree=cfg.degree),
            max_leaf_size=nl,
            max_batch_size=nl,
            backend="model",
        )
        machine = scaled_machine(cfg.machine, nl)
        for n_gpus in cfg.gpu_counts:
            if progress is not None:
                progress(base_kernel.name, paper_n, n_gpus)
            n_total = n_rank * n_gpus
            particles = random_cube(n_total, seed=cfg.seed)
            driver = DistributedBLTC(
                base_kernel,
                params,
                n_ranks=n_gpus,
                machine=machine,
            )
            res = driver.compute(particles)
            for kernel in kernels:
                total, agg = retime_distributed(
                    res, base_kernel, kernel, machine
                )
                rows.append(
                    Fig5Row(
                        kernel=kernel.name,
                        paper_per_gpu=paper_n,
                        n_per_gpu=n_rank,
                        n_gpus=n_gpus,
                        n_total=n_total,
                        time=total,
                        setup=agg.setup,
                        precompute=agg.precompute,
                        compute=agg.compute,
                        rma_bytes=res.stats["total_rma_bytes"],
                    )
                )

    # Accuracy verification: real numerics at a reduced scale with the
    # paper's (theta, n); the paper reports 5-6 digits (e.g. 7.6e-6).
    verify = {}
    vparams = TreecodeParams(
        theta=cfg.theta,
        degree=cfg.degree,
        max_leaf_size=2000,
        max_batch_size=2000,
    )
    vparticles = random_cube(cfg.n_verify, seed=cfg.seed + 1)
    for kernel in kernels:
        res = DistributedBLTC(
            kernel, vparams, n_ranks=cfg.verify_ranks, machine=cfg.machine
        ).compute(vparticles)
        verify[kernel.name] = sampled_error(
            res.potential,
            vparticles.positions,
            vparticles.positions,
            vparticles.charges,
            kernel,
            n_samples=1000,
        )

    return {"rows": rows, "verify_error": verify, "config": cfg}
