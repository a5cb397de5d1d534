"""Backend protocol and the one device-charging path for execution plans.

A backend turns an :class:`~repro.core.plan.ExecutionPlan` into numbers
(or, for the model backend, into nothing but simulated time).  All
backends charge the simulated device through
:func:`charge_plan_launches`, which turns the plan's segments into one
launch sequence -- kind codes, interactions and durations as arrays in
launch order -- and records it with a single
:meth:`~repro.gpu.device.Device.launch_many` call, so every backend
records byte-identical :class:`~repro.gpu.device.DeviceCounters` on the
same plan by construction.

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


def charge_plan_launches(
    plan: "ExecutionPlan",
    kernel: "Kernel",
    device: "Device",
    *,
    dtype=np.float64,
    compute_forces: bool = False,
    n_rhs: int = 1,
) -> None:
    """Charge the device for every launch the plan describes.

    Per group: one launch per segment with ``group_size x seg_size``
    interactions and ``group_size`` thread blocks, potential kinds first;
    with ``compute_forces`` the same segments are charged again as
    ``<kind>-force`` launches at :data:`FORCE_FLOP_FACTOR` flops.
    Groups without target rows launch nothing.  ``n_rhs > 1``
    multiplies every launch's interaction count (multi-RHS execution
    evaluates that many charge columns per kernel block; block counts
    are unchanged).

    The launch sequence is built as arrays in launch order and handed
    to :meth:`~repro.gpu.device.Device.launch_many` in one call, which
    records bitwise what one :meth:`~repro.gpu.device.Device.launch`
    per launch would.
    """
    spec = device.spec
    cost_mult = launch_cost_multiplier(kernel, device, dtype)
    seg_groups = np.repeat(
        np.arange(plan.n_groups), np.diff(plan.seg_group_ptr)
    )
    blocks = np.diff(plan.group_ptr)[seg_groups]
    interactions = blocks.astype(np.float64) * np.diff(plan.seg_ptr)
    if n_rhs != 1:
        interactions *= float(n_rhs)
    occ_blocks = blocks if spec.kind == "gpu" else None
    durations = spec.interaction_times(
        interactions,
        occ_blocks,
        flops_per_interaction=kernel.flops_per_interaction,
        cost_multiplier=cost_mult,
    )
    kinds, names = plan.seg_kind, plan.kind_names
    if compute_forces:
        force_durations = spec.interaction_times(
            interactions,
            occ_blocks,
            flops_per_interaction=(
                FORCE_FLOP_FACTOR * kernel.flops_per_interaction
            ),
            cost_multiplier=cost_mult,
        )
        # Each group's force launches follow its potential launches.
        order = np.argsort(np.tile(seg_groups, 2), kind="stable")
        kinds = np.concatenate([kinds, kinds + len(names)])[order]
        names = names + tuple(f"{k}-force" for k in names)
        blocks = np.tile(blocks, 2)[order]
        interactions = np.tile(interactions, 2)[order]
        durations = np.concatenate([durations, force_durations])[order]
    live = blocks > 0
    device.launch_many(
        kinds[live], names, interactions[live], durations[live]
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

    Refuses a plan compiled without numerics, charges the device for
    every launch the plan describes, and returns the zeroed float64
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
        dtype=dtype, compute_forces=compute_forces, n_rhs=width or 1,
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
        via :func:`charge_plan_launches`.  ``dtype`` is the precision
        the simulated device is charged at; the numerics are float64.

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
