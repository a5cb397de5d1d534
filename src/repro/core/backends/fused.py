"""Fused backend: zero-copy evaluation straight from the plan buffers.

The plan compiler already gathered every group's sources behind
per-segment ``seg_src_lo`` offsets into de-duplicated buffers, so this
backend evaluates each group with *one* blocked accumulation over its
whole source range -- no per-batch ``np.concatenate`` when the aliases
land contiguously and at most one dtype cast of the buffers for the
whole run.  Forces reuse the same gathered buffers and the same pass:
for radial kernels each row block forms r^2, ``g`` and ``g'(r)/r``
once (``Kernel.potential_and_force``) and contracts the force in the
factored form ``(f q) S - t * rowsum(f q)``, with no ``(M, K, 3)``
gradient tensor.  Its row blocks are the potential-only pass's, so
potentials are bitwise the same with forces on or off.

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
"""

from __future__ import annotations

import numpy as np

from .base import Backend, charge_plan_launches
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
        if not plan.has_numerics:
            raise ValueError(
                f"backend {self.name!r} needs a plan compiled with numerics"
            )
        width = plan.rhs_width
        charge_plan_launches(
            plan, kernel, device,
            dtype=dtype, compute_forces=compute_forces, bulk=True,
            n_rhs=width or 1,
        )
        out = np.zeros(
            plan.out_size if width is None else (plan.out_size, width),
            dtype=np.float64,
        )
        forces = (
            np.zeros(
                (plan.out_size, 3)
                if width is None
                else (plan.out_size, 3, width),
                dtype=np.float64,
            )
            if compute_forces
            else None
        )
        t_lo, t_hi, phi, f_rows = eval_plan(
            plan, kernel, dtype, compute_forces
        )
        idx = plan.out_index[t_lo:t_hi]
        out[idx] += phi
        if forces is not None and f_rows is not None:
            forces[idx] += f_rows
        return out, forces
