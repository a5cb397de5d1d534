"""Backend protocol and the one device-charging path for execution plans.

A backend turns an :class:`~repro.core.plan.ExecutionPlan` into numbers
(or, for the model backend, into nothing but simulated time).  All
backends charge the simulated device through
:func:`charge_plan_launches` -- the single place that converts plan
segments into :meth:`~repro.gpu.device.Device.launch` calls -- so every
backend records byte-identical :class:`~repro.gpu.device.DeviceCounters`
on the same plan by construction.

The numerics backends share one execute head, :func:`start_execute`:
refuse a model-only plan, charge the device, zero the output
accumulators and open the execute's evaluation
:class:`~repro.kernels.workspace.Workspace` (which the evaluators size
for the plan's largest block; freed when the execute returns).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ...kernels.workspace import Workspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...gpu.device import Device
    from ...kernels.base import Kernel
    from ..plan import ExecutionPlan

__all__ = [
    "Backend",
    "launch_cost_multiplier",
    "charge_segment_launches",
    "charge_plan_launches",
    "start_execute",
    "accumulate_rows",
]

#: Gradient kernels cost roughly 2x the potential kernel (three
#: components sharing one distance evaluation).
FORCE_FLOP_FACTOR = 2.0


def launch_cost_multiplier(kernel: "Kernel", device: "Device", dtype) -> float:
    """Combined per-launch cost factor: transcendental mix x precision.

    The float32 half-cost rule lives on
    :meth:`~repro.perf.machine.MachineSpec.precision_multiplier`; this
    helper is the one call site pattern all executors share.
    """
    return kernel.cost_multiplier(
        device.spec.transcendental_penalty
    ) * device.spec.precision_multiplier(dtype)


def charge_segment_launches(
    device: "Device",
    kernel: "Kernel",
    n_targets: int,
    sizes,
    kind: str,
    *,
    cost_multiplier: float,
    flops_factor: float = 1.0,
    n_rhs: int = 1,
) -> None:
    """Charge one launch per segment size against the device.

    ``n_rhs`` scales the interaction count for multi-RHS execution: the
    widened GEMV evaluates every charge column against the same kernel
    block, so one launch carries ``n_rhs`` times the work (block count
    is unchanged -- the launch grid is the target rows either way).
    """
    for sz in sizes:
        interactions = float(n_targets) * float(sz)
        if n_rhs != 1:
            interactions *= float(n_rhs)
        device.launch(
            interactions,
            blocks=n_targets,
            kind=kind,
            flops_per_interaction=flops_factor * kernel.flops_per_interaction,
            cost_multiplier=cost_multiplier,
        )


def charge_plan_launches(
    plan: "ExecutionPlan",
    kernel: "Kernel",
    device: "Device",
    *,
    dtype=np.float64,
    compute_forces: bool = False,
    bulk: bool = False,
    n_rhs: int = 1,
) -> None:
    """Charge the device for every launch the plan describes.

    Per group: one launch per segment with ``group_size x seg_size``
    interactions and ``group_size`` thread blocks, potential kinds first;
    with ``compute_forces`` the same segments are charged again as
    ``<kind>-force`` launches at :data:`FORCE_FLOP_FACTOR` flops.
    ``n_rhs > 1`` multiplies every launch's interaction count (multi-RHS
    execution evaluates that many charge columns per kernel block;
    block counts are unchanged).

    ``bulk=True`` computes every launch duration in one vectorized pass
    and streams them to :meth:`~repro.gpu.device.Device.launch_many` --
    byte-identical counters and simulated time (the vector math mirrors
    the scalar operation order and accumulation stays in launch order),
    at a fraction of the per-launch accounting cost.  The reference
    backend keeps the scalar path, which is the seed implementation's
    behaviour; the fused and model backends charge in bulk.
    """
    cost_mult = launch_cost_multiplier(kernel, device, dtype)
    if bulk:
        _charge_bulk(plan, kernel, device, cost_mult, compute_forces, n_rhs)
        return
    seg_sizes = np.diff(plan.seg_ptr)
    for g in range(plan.n_groups):
        m = plan.group_size(g)
        if m == 0:
            continue
        for kind, s_lo, s_hi in plan.group_kind_runs(g):
            charge_segment_launches(
                device, kernel, m, seg_sizes[s_lo:s_hi], kind,
                cost_multiplier=cost_mult,
                n_rhs=n_rhs,
            )
        if compute_forces:
            for kind, s_lo, s_hi in plan.group_kind_runs(g):
                charge_segment_launches(
                    device, kernel, m, seg_sizes[s_lo:s_hi], f"{kind}-force",
                    cost_multiplier=cost_mult,
                    flops_factor=FORCE_FLOP_FACTOR,
                    n_rhs=n_rhs,
                )


def _charge_bulk(plan, kernel, device, cost_mult, compute_forces, n_rhs=1) -> None:
    spec = device.spec
    seg_sizes = np.diff(plan.seg_ptr).astype(np.float64)
    blocks = np.repeat(
        np.diff(plan.group_ptr), np.diff(plan.seg_group_ptr)
    )
    interactions = blocks.astype(np.float64) * seg_sizes
    if n_rhs != 1:
        interactions *= float(n_rhs)
    occ_blocks = blocks if spec.kind == "gpu" else None
    pot_dur = spec.interaction_times(
        interactions,
        occ_blocks,
        flops_per_interaction=kernel.flops_per_interaction,
        cost_multiplier=cost_mult,
    )
    kinds = [plan.kind_names[k] for k in plan.seg_kind.tolist()]
    force_dur = None
    force_kinds = None
    if compute_forces:
        force_dur = spec.interaction_times(
            interactions,
            occ_blocks,
            flops_per_interaction=(
                FORCE_FLOP_FACTOR * kernel.flops_per_interaction
            ),
            cost_multiplier=cost_mult,
        )
        force_kinds = [f"{k}-force" for k in kinds]
    seg_group_ptr = plan.seg_group_ptr
    group_sizes = np.diff(plan.group_ptr)
    for g in range(plan.n_groups):
        if group_sizes[g] == 0:
            continue
        lo, hi = int(seg_group_ptr[g]), int(seg_group_ptr[g + 1])
        if hi == lo:
            continue
        device.launch_many(
            kinds[lo:hi], interactions[lo:hi], pot_dur[lo:hi]
        )
        if compute_forces:
            device.launch_many(
                force_kinds[lo:hi], interactions[lo:hi], force_dur[lo:hi]
            )


def start_execute(
    backend: "Backend",
    plan: "ExecutionPlan",
    kernel: "Kernel",
    device: "Device",
    *,
    dtype,
    compute_forces: bool,
) -> tuple[np.ndarray, np.ndarray | None, Workspace]:
    """The common head of a numerics backend's ``execute``.

    Refuses a plan compiled without numerics, charges the device in bulk
    for every launch the plan describes, and returns the zeroed float64
    accumulators ``out`` (``(out_size,)`` or ``(out_size, n_rhs)``) and
    ``forces`` (``(out_size, 3[, n_rhs])``, None without forces) plus the
    execute's empty :class:`~repro.kernels.workspace.Workspace`.  The
    evaluators reserve the plan's largest block in it, so every slot is
    allocated once; it holds no memory until the first block takes a
    slot and frees it when the caller drops it.
    """
    if not plan.has_numerics:
        raise ValueError(
            f"backend {backend.name!r} needs a plan compiled with numerics"
        )
    width = plan.rhs_width
    charge_plan_launches(
        plan, kernel, device,
        dtype=dtype, compute_forces=compute_forces, bulk=True,
        n_rhs=width or 1,
    )
    rhs = () if width is None else (width,)
    out = np.zeros((plan.out_size,) + rhs, dtype=np.float64)
    forces = (
        np.zeros((plan.out_size, 3) + rhs, dtype=np.float64)
        if compute_forces
        else None
    )
    return out, forces, Workspace()


def accumulate_rows(plan, out, forces, t_lo, t_hi, phi, f_rows) -> None:
    """Scatter the contiguous target rows ``[t_lo, t_hi)`` of a per-group
    evaluation into ``out`` / ``forces`` through ``plan.out_index``."""
    idx = plan.out_index[t_lo:t_hi]
    out[idx] += phi
    if forces is not None and f_rows is not None:
        forces[idx] += f_rows


class Backend(abc.ABC):
    """Evaluation backend: executes a compiled plan on a device.

    ``needs_numerics`` tells the pipeline whether moments and plan
    buffers must carry floating-point data (False for the model-only
    backend, which lets the timing model run at paper scale).
    """

    #: Registry name (``TreecodeParams(backend=...)``).
    name: str = "abstract"
    #: Whether the pipeline must compute moments / gather plan buffers.
    needs_numerics: bool = True
    #: Reuse one shared instance for by-name registry lookups.  Set True
    #: on backends whose state is expensive to recreate (a worker pool,
    #: a JIT cache); stateless backends keep fresh instances per lookup.
    share_instance: bool = False

    @abc.abstractmethod
    def execute(
        self,
        plan: "ExecutionPlan",
        kernel: "Kernel",
        device: "Device",
        *,
        dtype=np.float64,
        compute_forces: bool = False,
        n_rhs: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run the plan; returns ``(out, forces_or_None)``.

        ``out`` has length ``plan.out_size`` (accumulated through
        ``plan.out_index``); ``forces`` is ``(out_size, 3)`` when
        requested.  Implementations must charge the device exclusively
        via :func:`charge_plan_launches`.

        Multi-RHS: numerics backends detect a widened weight buffer
        through ``plan.rhs_width`` and return ``(out_size, n_rhs)`` /
        ``(out_size, 3, n_rhs)``; the ``n_rhs`` parameter exists so
        sessions can tell buffer-free executions (the model backend,
        whose plan may carry stale or absent weights) how many columns
        to charge and shape for.  Sessions only pass it on the multi
        path, so externally registered backends with the pre-multi-RHS
        signature keep working for single-vector applies.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
