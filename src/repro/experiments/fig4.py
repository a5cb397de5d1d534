"""Figure 4: run time versus error, single GPU vs 6-core CPU.

Paper setting: 1M random particles in the cube, Coulomb (4a) and Yukawa
(4b) kernels, batch/leaf size NB = NL = 2000, curves of constant MAC
theta in {0.5, 0.7, 0.9} with the degree swept n = 1:2:13, plus direct-sum
reference lines; CPU is a 6-core Xeon X5650, GPU a Titan V.

Reproduction strategy (DESIGN.md):

* *Errors* are measured with real numerics at ``n_error`` particles
  against direct summation -- eq. 16 exactly.  Leaf/batch caps scale with
  N to keep the paper's N/NL ratio, so the MAC/size-condition interplay
  matches.
* *Run times* come from the device model (``backend="model"``) at the
  paper's true scale (``n_model`` = 1M, NL = NB = 2000): the launch
  counts, interaction counts and occupancy are those of the real data
  structures at the real size.  The CPU-model time is derived from the
  identical model-run statistics (no launch latency, no transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.errors import relative_l2_error
from ..config import TreecodeParams
from ..core.direct import direct_sum
from ..core.treecode import BarycentricTreecode
from ..kernels.base import Kernel
from ..kernels.coulomb import CoulombKernel
from ..kernels.yukawa import YukawaKernel
from ..perf.machine import CPU_XEON_X5650, GPU_TITAN_V, MachineSpec
from ..workloads import random_cube
from .common import cpu_time_from_stats, kernel_time_delta

__all__ = ["Fig4Config", "Fig4Row", "run_fig4"]


@dataclass(frozen=True)
class Fig4Config:
    """Scales and sweeps for the Fig. 4 reproduction."""

    #: Particle count for measured-error runs (real numerics).
    n_error: int = 8_000
    #: Leaf/batch cap for the error runs (keeps N/NL near the paper's 500).
    nl_error: int = 200
    #: Particle count for the model-scale runs (the paper's 1M).
    n_model: int = 1_000_000
    #: Leaf/batch cap for the model runs: the paper's 2000 with headroom
    #: so the octree lands as theirs did (1M / 8^3 = 1953-particle
    #: leaves) instead of fragmenting half the leaves one level deeper.
    nl_model: int = 2187
    #: MAC parameters (the paper's three curves).
    thetas: tuple = (0.5, 0.7, 0.9)
    #: Interpolation degrees (the paper's n = 1:2:13).
    degrees: tuple = (1, 3, 5, 7, 9, 11, 13)
    gpu: MachineSpec = GPU_TITAN_V
    cpu: MachineSpec = CPU_XEON_X5650
    seed: int = 2020

    def quick(self) -> "Fig4Config":
        """Reduced sweep for CI-speed benchmark runs."""
        return Fig4Config(
            n_error=self.n_error,
            nl_error=self.nl_error,
            n_model=self.n_model,
            nl_model=self.nl_model,
            thetas=(0.5, 0.9),
            degrees=(1, 5, 9, 13),
            gpu=self.gpu,
            cpu=self.cpu,
            seed=self.seed,
        )


@dataclass
class Fig4Row:
    """One point of one curve: (kernel, theta, degree)."""

    kernel: str
    theta: float
    degree: int
    error: float
    gpu_time: float
    cpu_time: float
    n_approx: int
    n_direct: int

    @property
    def speedup(self) -> float:
        return self.cpu_time / self.gpu_time if self.gpu_time > 0 else 0.0


def run_fig4(
    cfg: Fig4Config = Fig4Config(),
    *,
    kernels: tuple[Kernel, ...] | None = None,
    progress=None,
) -> dict:
    """Regenerate the Fig. 4 series.

    Returns ``{"rows": [Fig4Row...], "direct": {kernel: {"gpu": t,
    "cpu": t}}, "config": cfg}`` where ``direct`` holds the modeled
    direct-summation reference times (the red horizontal lines).
    """
    if kernels is None:
        kernels = (CoulombKernel(), YukawaKernel(kappa=0.5))

    error_particles = random_cube(cfg.n_error, seed=cfg.seed)
    model_particles = random_cube(cfg.n_model, seed=cfg.seed + 1)

    # Model-scale runs: the tree, interaction lists and launch
    # structure are kernel-independent, so one model run per (theta, n)
    # serves every kernel -- times for other kernels are derived from the
    # recorded per-kind busy seconds (see experiments.common).
    base_kernel = CoulombKernel()
    model_runs: dict[tuple[float, int], object] = {}
    for theta in cfg.thetas:
        for degree in cfg.degrees:
            if progress is not None:
                progress("model", theta, degree)
            model_params = TreecodeParams(
                theta=theta,
                degree=degree,
                max_leaf_size=cfg.nl_model,
                max_batch_size=cfg.nl_model,
                backend="model",
            )
            model_runs[(theta, degree)] = BarycentricTreecode(
                base_kernel, model_params, machine=cfg.gpu
            ).compute(model_particles)

    rows: list[Fig4Row] = []
    direct_times: dict[str, dict[str, float]] = {}

    for kernel in kernels:
        reference = direct_sum(
            error_particles.positions,
            error_particles.positions,
            error_particles.charges,
            kernel,
        )
        n = float(cfg.n_model)
        direct_times[kernel.name] = {
            # One launch of the batch-cluster direct-sum kernel over
            # everything (paper Sec. 4).
            "gpu": cfg.gpu.interaction_time(
                n * n,
                flops_per_interaction=kernel.flops_per_interaction,
                cost_multiplier=kernel.cost_multiplier(
                    cfg.gpu.transcendental_penalty
                ),
                blocks=cfg.n_model,
            )
            + cfg.gpu.launch_latency,
            "cpu": cfg.cpu.interaction_time(
                n * n,
                flops_per_interaction=kernel.flops_per_interaction,
                cost_multiplier=kernel.cost_multiplier(
                    cfg.cpu.transcendental_penalty
                ),
            ),
        }

        for theta in cfg.thetas:
            for degree in cfg.degrees:
                if progress is not None:
                    progress(kernel.name, theta, degree)
                err_params = TreecodeParams(
                    theta=theta,
                    degree=degree,
                    max_leaf_size=cfg.nl_error,
                    max_batch_size=cfg.nl_error,
                )
                res = BarycentricTreecode(
                    kernel, err_params, machine=cfg.gpu
                ).compute(error_particles)
                err = relative_l2_error(reference, res.potential)

                gpu_res = model_runs[(theta, degree)]
                gpu_time = gpu_res.phases.total + kernel_time_delta(
                    gpu_res.stats["busy_by_kind"], base_kernel, kernel,
                    cfg.gpu,
                )
                rows.append(
                    Fig4Row(
                        kernel=kernel.name,
                        theta=theta,
                        degree=degree,
                        error=err,
                        gpu_time=gpu_time,
                        cpu_time=cpu_time_from_stats(
                            gpu_res.stats, kernel, cfg.cpu
                        ),
                        n_approx=gpu_res.stats["n_approx_interactions"],
                        n_direct=gpu_res.stats["n_direct_interactions"],
                    )
                )

    return {"rows": rows, "direct": direct_times, "config": cfg}
