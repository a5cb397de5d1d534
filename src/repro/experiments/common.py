"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

from dataclasses import replace

from ..kernels.base import Kernel
from ..perf.machine import MachineSpec
from ..perf.timer import PhaseTimes

__all__ = [
    "cpu_time_from_stats",
    "kernel_time_delta",
    "retime_distributed",
    "scaled_machine",
    "scaled_degree",
    "clean_leaf_size",
    "KIND_FLOPS",
]

#: The leaf/batch cap of the paper's scaling studies (NL = NB = 4000).
PAPER_SCALING_NL = 4000

#: Flops-per-interaction of the non-kernel-specific launch kinds (the two
#: modified-charge kernels; see repro.core.moments).
KIND_FLOPS = {"moments-1": 8.0, "moments-2": 7.0}


def cpu_time_from_stats(
    stats: dict, kernel: Kernel, cpu: MachineSpec
) -> float:
    """Derive the CPU-model run time from a GPU model run's statistics.

    The CPU executes the identical interaction counts with no launch
    latency, no transfers and no occupancy effects, so its time is fully
    determined by the per-kind interaction totals plus the host-side
    bookkeeping -- both recorded in the run stats.  A direct CPU model run
    gives the same number (tested); this avoids running the pipeline
    twice per configuration.
    """
    total = 0.0
    for kind, (_launches, interactions) in stats["by_kind"].items():
        if kind in KIND_FLOPS:
            flops = KIND_FLOPS[kind]
            cost = 1.0
        else:
            flops = kernel.flops_per_interaction
            cost = kernel.cost_multiplier(cpu.transcendental_penalty)
        total += cpu.interaction_time(
            interactions, flops_per_interaction=flops, cost_multiplier=cost
        )
    # Host-side setup: tree + batch builds and the MAC traversal, same
    # accounting the treecode driver charges.
    n_src = stats["n_sources"]
    n_tgt = stats["n_targets"]
    depth = stats["tree_depth"]
    total += (n_src + n_tgt) * (depth + 1) / cpu.host_op_rate
    total += stats["mac_evals"] * 4 / cpu.host_op_rate
    return total


def _mult_ratio(old: Kernel, new: Kernel, machine: MachineSpec) -> float:
    """Busy-time ratio between two kernels on one device.

    Covers both the transcendental cost multiplier and the per-kernel
    flop count (busy time is proportional to flops x multiplier).
    """
    penalty = machine.transcendental_penalty
    old_cost = old.flops_per_interaction * old.cost_multiplier(penalty)
    new_cost = new.flops_per_interaction * new.cost_multiplier(penalty)
    return new_cost / old_cost


def kernel_time_delta(
    busy_by_kind: dict, old: Kernel, new: Kernel, machine: MachineSpec
) -> float:
    """Extra busy seconds when swapping ``old`` for ``new``.

    The tree, interaction lists, launch counts and communication of a
    BLTC run are kernel-independent; only the potential-evaluation busy
    time (kinds ``approx`` and ``direct``) scales with the kernel's cost.
    This lets a harness derive e.g. the Yukawa run time from a Coulomb
    model run instead of re-running the whole pipeline.
    """
    ratio = _mult_ratio(old, new, machine)
    busy = busy_by_kind.get("approx", 0.0) + busy_by_kind.get("direct", 0.0)
    return busy * (ratio - 1.0)


def retime_distributed(
    result, old: Kernel, new: Kernel, machine: MachineSpec
) -> tuple[float, PhaseTimes]:
    """Re-time a distributed model run for a different kernel.

    Returns ``(total_seconds, aggregate_phases)`` with each rank's
    compute phase rescaled by the kernel cost ratio and the run total
    recomputed with the same precompute/LET dependency barrier the
    driver uses.
    """
    splits = result.stats["phase_split"]
    per_rank = result.stats["per_rank"]
    first = 0.0
    second = 0.0
    agg = PhaseTimes()
    for split, phases, rstats in zip(splits, result.rank_phases, per_rank):
        delta = kernel_time_delta(
            rstats["busy_by_kind"], old, new, machine
        )
        compute = phases.compute + delta
        first = max(first, split["setup_local"] + phases.precompute)
        second = max(second, split["let_setup"] + compute)
        agg = agg.max_with(
            PhaseTimes(
                setup=phases.setup,
                precompute=phases.precompute,
                compute=compute,
            )
        )
    return first + second, agg


def scaled_machine(machine: MachineSpec, nl: int, paper_nl: int = PAPER_SCALING_NL) -> MachineSpec:
    """Rescale per-launch device constants for a scaled-down NL.

    The scaling studies shrink the paper's particle counts (and therefore
    NL/NB) by a large factor.  Two *dimensionless* ratios govern how the
    device model responds to a launch, and both must be preserved for the
    scaled runs to sit in the paper's operating regime:

    * ``NB / saturation_blocks`` -- the occupancy margin.  Keeping it
      stops artificially tiny batches from starving the simulated GPU.
    * ``launch_latency x interaction_rate / NL^2`` -- launch overhead
      relative to per-launch work (each launch performs ~NB x NC ~ NL^2
      interactions).  Keeping it stops launch latency from swamping the
      scaled runs the way it never did at 4000-particle batches.
    """
    factor = nl / paper_nl
    sat = max(8, int(round(machine.saturation_blocks * factor)))
    latency = machine.launch_latency * factor * factor
    return replace(
        machine, saturation_blocks=sat, launch_latency=latency
    )


def scaled_degree(nl: int, *, paper_degree: int = 8, paper_nl: int = PAPER_SCALING_NL) -> int:
    """Interpolation degree preserving the paper's (n+1)^3 / NL ratio.

    The cluster-size MAC condition ``(n+1)^3 < N_C`` partitions clusters
    into approximable and direct-only; its behaviour is governed by the
    dimensionless ratio of interpolation points to leaf population
    (729/4000 ~ 0.18 in the paper's scaling studies).  Scaled-down runs
    with the paper's absolute degree but much smaller leaves would flip
    the condition for entire leaf levels, distorting every interaction
    list; keeping the ratio keeps the algorithm in the paper's regime.
    """
    import math

    ratio = (paper_degree + 1) ** 3 / paper_nl
    m = (ratio * nl) ** (1.0 / 3.0)
    return max(1, int(round(m)) - 1)


def clean_leaf_size(
    n: int, *, target: int = 2000, cap: int = 4500, headroom: float = 1.12
) -> int:
    """Leaf/batch cap that lands the octree cleanly for ``n`` particles.

    Uniform octrees subdivide by ~8x per level, so the realized leaf size
    is ``n / 8^k`` for the first level k at or below the cap -- an
    unlucky cap can leave leaves 8x smaller than intended (e.g. NL = 2000
    with n = 200k gives ~390-particle leaves).  The paper's runs land
    cleanly (1M / 8^3 = 1953 with NL = 2000); this helper picks the level
    whose realized leaf size is log-closest to ``target`` (capped) and
    adds headroom so statistical overshoot does not trigger an extra
    split.  Used by the scaling harnesses so that scaled-down runs keep
    paper-like batch sizes.
    """
    import math

    if n <= target:
        return max(1, int(n * headroom))
    best = None
    best_dist = None
    size = float(n)
    while size >= 1.0:
        size /= 8.0
        if size > cap:
            continue
        dist = abs(math.log(size / target))
        if best_dist is None or dist < best_dist:
            best, best_dist = size, dist
    assert best is not None
    return max(8, int(best * headroom))
