"""Figure 6: strong scaling and phase-time distribution on 1-32 GPUs.

Paper setting: 16M and 64M particles, P100s, theta = 0.8, n = 8,
NL = NB = 4000.  Findings: (a,b) strong-scaling efficiency at 32 GPUs is
64%/73% (16M, Coulomb/Yukawa) and 83%/84% (64M); (c,d) the compute phase
dominates at few ranks, and the setup + precompute fractions grow with
rank count (communication grows; the modified-charge kernels stop
saturating the GPU as per-rank work shrinks).

Reproduction strategy: particle counts scaled by ``scale_divisor``
(default 128: 125k and 500k), model-only runs through the full
distributed pipeline; efficiency is measured against the 1-GPU run of
the same system, exactly as the paper defines it.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["Fig6Config", "Fig6Row", "run_fig6"]


@dataclass(frozen=True)
class Fig6Config:
    """Scales for the Fig. 6 reproduction."""

    scale_divisor: int = 128
    #: Paper totals: 16M and 64M particles.
    totals: tuple = (16_000_000, 64_000_000)
    gpu_counts: tuple = (1, 2, 4, 8, 16, 32)
    theta: float = 0.8
    degree: int = 8
    machine: MachineSpec = GPU_P100
    seed: int = 77

    def quick(self) -> "Fig6Config":
        return Fig6Config(
            scale_divisor=128,
            totals=(16_000_000, 64_000_000),
            gpu_counts=(1, 4, 16, 32),
            theta=self.theta,
            degree=self.degree,
            machine=self.machine,
            seed=self.seed,
        )

    def leaf_size(self, n_total: int) -> int:
        # The paper uses one NL per system regardless of rank count; pick
        # a cap that lands the mid-sweep per-rank octrees cleanly.
        return clean_leaf_size(n_total // 8, target=1000)


@dataclass
class Fig6Row:
    """One point of one strong-scaling curve."""

    kernel: str
    paper_total: int
    n_total: int
    n_gpus: int
    time: float
    efficiency: float
    setup_frac: float
    precompute_frac: float
    compute_frac: float


def run_fig6(
    cfg: Fig6Config = Fig6Config(),
    *,
    kernels: tuple[Kernel, ...] | None = None,
    progress=None,
) -> dict:
    """Regenerate the Fig. 6 series (efficiency + phase distribution)."""
    if kernels is None:
        kernels = (CoulombKernel(), YukawaKernel(kappa=0.5))

    # One model run per configuration; other kernels' rows are derived by
    # re-timing (the run structure is kernel-independent).
    base_kernel = kernels[0]
    rows: list[Fig6Row] = []
    for paper_total in cfg.totals:
        n_total = paper_total // cfg.scale_divisor
        nl = cfg.leaf_size(n_total)
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
        particles = random_cube(n_total, seed=cfg.seed)
        base_times: dict[str, float] = {}
        for n_gpus in cfg.gpu_counts:
            if progress is not None:
                progress(base_kernel.name, paper_total, n_gpus)
            res = DistributedBLTC(
                base_kernel,
                params,
                n_ranks=n_gpus,
                machine=machine,
            ).compute(particles)
            for kernel in kernels:
                t, agg = retime_distributed(res, base_kernel, kernel, machine)
                if kernel.name not in base_times:
                    # Efficiency is measured against the smallest GPU
                    # count in the sweep (the paper uses 1 GPU).
                    base_times[kernel.name] = t * cfg.gpu_counts[0]
                eff = base_times[kernel.name] / (n_gpus * t)
                fracs = agg.fractions()
                rows.append(
                    Fig6Row(
                        kernel=kernel.name,
                        paper_total=paper_total,
                        n_total=n_total,
                        n_gpus=n_gpus,
                        time=t,
                        efficiency=eff,
                        setup_frac=fracs["setup"],
                        precompute_frac=fracs["precompute"],
                        compute_frac=fracs["compute"],
                    )
                )
    return {"rows": rows, "config": cfg}
