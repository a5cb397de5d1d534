"""Fused backend: zero-copy evaluation straight from the plan buffers.

The plan compiler already gathered every group's sources behind
per-segment ``seg_src_lo`` offsets into de-duplicated buffers, so this
backend evaluates each group with *one* blocked accumulation over its
whole source range -- no per-batch ``np.concatenate`` when the aliases
land contiguously and at most one dtype cast of the buffers for the
whole run.  That accumulation is one call of the per-block kernel
driver, ``Kernel.potential``, and forces are the same call with a
``forces`` accumulator: for radial kernels each row block forms r^2,
``g`` and ``g'(r)/r`` once and contracts the force in the factored
form ``(f q) S - t * rowsum(f q)``, with no ``(M, K, 3)`` gradient
tensor.  The row blocks do not depend on forces, so potentials are
bitwise the same with forces on or off.

Where the targets are the sources (every named workload), a direct
block ``(A, B)`` usually has its mirror ``(B, A)`` in the plan.  For
symmetric kernels this backend forms each such kernel matrix once and
applies it both ways -- ``G q_B`` to batch ``A``, ``G^T q_A`` to batch
``B`` (Newton's third law at cell level, as in Dehnen's falcON) --
following the plan's :class:`~repro.core.plan.MirrorSchedule`; the
mirrored force ``(F q_A)^T T_A - S_B * colsum(F q_A)`` comes from the
same radial factor ``F``.  The
arithmetic lives in :mod:`.groupeval`.  Results agree with
:class:`~.numpy_backend.NumpyBackend` and with the per-group
arithmetic the multiprocessing backend runs to floating-point roundoff
(``rtol=1e-9`` on potentials, ``1e-8`` on forces); a plan whose
schedule pairs nothing evaluates bitwise as that per-group arithmetic.
Repeated applies, column ``j`` of a block apply against a solo apply,
and an updated session against a cold prepare are bitwise equal.  The
recorded device counters are identical to every other backend's, since
launch charging derives from the plan, not from how the numerics are
blocked.

Each execute opens one evaluation
:class:`~repro.kernels.workspace.Workspace` (:func:`~.base.start_execute`)
and every group's row blocks write their r^2, ``g`` and ``g'(r)/r`` into
its buffers, so a run of thousands of blocks allocates each of those
arrays once -- sized for the plan's largest row block -- instead of
once per block.  The buffers go when the execute returns; results are
bitwise those without a workspace.
"""

from __future__ import annotations

import numpy as np

from .base import Backend, accumulate_rows, start_execute
from .groupeval import eval_plan

__all__ = ["FusedBackend"]


class FusedBackend(Backend):
    """One fused accumulation per group over pre-gathered buffers."""

    name = "fused"
    needs_numerics = True

    def execute(
        self,
        plan,
        kernel,
        device,
        *,
        dtype=np.float64,
        compute_forces: bool = False,
        n_rhs: int | None = None,
    ):
        out, forces, workspace = start_execute(
            self, plan, kernel, device,
            dtype=dtype, compute_forces=compute_forces,
        )
        accumulate_rows(
            plan, out, forces,
            *eval_plan(plan, kernel, dtype, compute_forces, workspace),
        )
        return out, forces
