"""Machine specifications for the analytic performance model.

Each :class:`MachineSpec` describes one execution device (a GPU or a
multicore CPU) by a small set of published/derivable hardware parameters.
The simulated devices in :mod:`repro.gpu.device` convert the exact
per-launch interaction counts of the real algorithm into simulated seconds
using these parameters.

Calibration notes
-----------------
* ``interaction_rate`` is the saturated pairwise kernel-evaluation
  throughput for a ~20-flop kernel (Coulomb) in double precision.  For the
  Titan V (7.45 TFLOP/s DP peak) a sustained efficiency near 70% on this
  compute-bound kernel gives ~2.6e11 interactions/s (GPU N-body direct
  sums are famously near-peak, cf. the paper's refs. [1][2]); for the
  P100 (4.7 TFLOP/s DP) ~1.65e11; for the 6-core Xeon X5650 (2.67 GHz,
  Westmere SSE2, 64 GFLOP/s DP peak, ~34% sustained with OpenMP) ~1.1e9.
  The resulting GPU/CPU ratio of ~120x at the 1M-particle operating point
  matches the paper's ">= 100x" observation (Fig. 4).
* ``transcendental_penalty`` is tuned so the Yukawa kernel (one exp per
  interaction) costs ~1.8x Coulomb on the CPU and ~1.5x on the GPU, the
  ratios reported in Sec. 4.
* ``launch_latency`` of ~10 us/kernel and 4 streams reproduce the ~25%
  async-stream improvement quoted in Sec. 3.2 at the 1M-particle scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MachineSpec", "GPU_TITAN_V", "GPU_P100", "CPU_XEON_X5650"]

#: Reference flop count the interaction_rate is quoted against.
BASE_FLOPS_PER_INTERACTION = 20.0


@dataclass(frozen=True)
class MachineSpec:
    """One execution device of the simulated heterogeneous system."""

    name: str
    #: "gpu" or "cpu"; decides launch/transfer accounting.
    kind: str
    #: Saturated pairwise interaction throughput (20-flop kernel), 1/s.
    interaction_rate: float
    #: Cost multiplier applied to a kernel's transcendental fraction; see
    #: :meth:`repro.kernels.base.Kernel.cost_multiplier`.
    transcendental_penalty: float
    #: Per-kernel-launch fixed latency in seconds (GPU only).
    launch_latency: float = 0.0
    #: Number of asynchronous streams available (GPU only; paper uses 4).
    n_streams: int = 1
    #: Host<->device transfer bandwidth, bytes/s (GPU only; PCIe gen3).
    transfer_bandwidth: float = 12.0e9
    #: Host<->device transfer latency per data region, seconds.
    transfer_latency: float = 20.0e-6
    #: Thread blocks required to saturate the device; launches with fewer
    #: blocks run at proportionally reduced efficiency (occupancy model).
    saturation_blocks: int = 1
    #: Threads per block used by the compute kernels (Sec. 3.2).
    threads_per_block: int = 128
    #: Floor on the occupancy efficiency factor.
    min_efficiency: float = 0.02
    #: CPU tree-operation rate: traversal/bookkeeping steps per second,
    #: used for the host-side setup phase (tree build, interaction lists).
    host_op_rate: float = 5.0e7
    #: Single-precision throughput relative to double precision
    #: (DP:SP = 1:``sp_dp_ratio``).  2.0 for the paper's Titan V / P100
    #: class of devices; a future DP:SP != 1:2 machine changes only this.
    sp_dp_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise ValueError(f"kind must be 'cpu' or 'gpu', got {self.kind!r}")
        if self.interaction_rate <= 0:
            raise ValueError("interaction_rate must be positive")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if self.saturation_blocks < 1:
            raise ValueError("saturation_blocks must be >= 1")
        if self.sp_dp_ratio <= 0:
            raise ValueError("sp_dp_ratio must be positive")

    def precision_multiplier(self, dtype) -> float:
        """Busy-time factor for kernels evaluated at ``dtype``.

        ``float32`` runs ``sp_dp_ratio``-times faster than the double-
        precision baseline (the paper's mixed-precision future-work mode);
        every other dtype costs the double-precision baseline.  This is
        the single home of the half-cost rule: the executor, the plan
        charger and the direct-sum baseline all consult it.
        """
        if np.dtype(dtype) == np.float32:
            return 1.0 / self.sp_dp_ratio
        return 1.0

    def occupancy(self, blocks: int) -> float:
        """Efficiency factor in (0, 1] for a launch with ``blocks`` blocks.

        High occupancy requires enough resident thread blocks to cover all
        compute units (Sec. 3.2, "Target Batching"); a launch with few
        blocks leaves most of the device idle.
        """
        if blocks <= 0:
            return self.min_efficiency
        return max(self.min_efficiency, min(1.0, blocks / self.saturation_blocks))

    def interaction_time(
        self,
        n_interactions: float,
        *,
        flops_per_interaction: float = BASE_FLOPS_PER_INTERACTION,
        cost_multiplier: float = 1.0,
        blocks: int | None = None,
    ) -> float:
        """Simulated compute time for ``n_interactions`` kernel evaluations."""
        eff = 1.0 if blocks is None else self.occupancy(blocks)
        rate = self.interaction_rate * eff
        scale = flops_per_interaction / BASE_FLOPS_PER_INTERACTION
        return n_interactions * scale * cost_multiplier / rate

    def interaction_times(
        self,
        n_interactions: np.ndarray,
        blocks: np.ndarray | None,
        *,
        flops_per_interaction: float = BASE_FLOPS_PER_INTERACTION,
        cost_multiplier: float = 1.0,
    ) -> np.ndarray:
        """Vectorized :meth:`interaction_time` over arrays of launches.

        Elementwise results are bitwise-identical to the scalar method
        (same operation order), so a plan's launch sequence charged
        through :meth:`~repro.gpu.device.Device.launch_many` records
        exactly what one scalar launch per segment would.
        """
        n_interactions = np.asarray(n_interactions, dtype=np.float64)
        if blocks is None:
            eff = 1.0
        else:
            eff = np.maximum(
                self.min_efficiency,
                np.minimum(
                    1.0,
                    np.asarray(blocks, dtype=np.float64)
                    / self.saturation_blocks,
                ),
            )
        rate = self.interaction_rate * eff
        scale = flops_per_interaction / BASE_FLOPS_PER_INTERACTION
        return n_interactions * scale * cost_multiplier / rate

    def transfer_time(self, nbytes: float) -> float:
        """Simulated host<->device copy time (zero for CPU devices)."""
        if self.kind == "cpu":
            return 0.0
        return self.transfer_latency + nbytes / self.transfer_bandwidth


#: NVIDIA Titan V (Fig. 4 single-GPU study): 80 SMs, 7.45 TFLOP/s DP.
GPU_TITAN_V = MachineSpec(
    name="NVIDIA Titan V",
    kind="gpu",
    interaction_rate=2.6e11,
    transcendental_penalty=0.5,
    launch_latency=8.0e-6,
    n_streams=4,
    transfer_bandwidth=12.0e9,
    saturation_blocks=640,  # 80 SMs x 8 resident 128-thread blocks
)

#: NVIDIA P100 (Comet scaling studies, Figs. 5-6): 56 SMs, 4.7 TFLOP/s DP.
GPU_P100 = MachineSpec(
    name="NVIDIA P100",
    kind="gpu",
    interaction_rate=1.65e11,
    transcendental_penalty=0.5,
    launch_latency=8.0e-6,
    n_streams=4,
    transfer_bandwidth=10.0e9,
    saturation_blocks=448,  # 56 SMs x 8 resident 128-thread blocks
)

#: 6-core 2.67 GHz Intel Xeon X5650 with OpenMP (Fig. 4 CPU reference).
CPU_XEON_X5650 = MachineSpec(
    name="Intel Xeon X5650 (6 cores, OpenMP)",
    kind="cpu",
    interaction_rate=1.1e9,
    transcendental_penalty=0.8,
)
