"""Reference NumPy backend: the seed implementation's blocked semantics.

Per group, per kind: concatenate the segment sources, one blocked
:meth:`~repro.kernels.base.Kernel.potential` accumulation --
exactly the arithmetic (and the same floating-point summation order) as
the original per-batch executor loop, so results are byte-for-byte
stable across the refactor.  This backend is the correctness reference
the fused backend is tested against.
"""

from __future__ import annotations

import numpy as np

from .base import Backend, start_execute

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Per-group, per-kind blocked evaluation (the reference)."""

    name = "numpy"
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
        # Multi-RHS is a property of the plan's weight state; the n_rhs
        # parameter is for buffer-free backends (see Backend.execute).
        out, forces, _ = start_execute(
            self, plan, kernel, device,
            dtype=dtype, compute_forces=compute_forces,
        )
        width = plan.rhs_width
        # Hoisted locals keep the per-segment range resolution out of
        # the (potentially 100k+-segment) hot loop.
        seg_src_lo = plan.seg_src_lo
        seg_sizes = np.diff(plan.seg_ptr)
        for g in range(plan.n_groups):
            t_lo, t_hi = int(plan.group_ptr[g]), int(plan.group_ptr[g + 1])
            m = t_hi - t_lo
            if m == 0:
                continue
            tgt = plan.targets[t_lo:t_hi]
            idx = plan.out_index[t_lo:t_hi]
            phi = np.zeros(
                m if width is None else (m, width), dtype=np.float64
            )
            f_acc = (
                np.zeros(
                    (m, 3) if width is None else (m, 3, width),
                    dtype=np.float64,
                )
                if compute_forces
                else None
            )
            for _, s_lo, s_hi in plan.group_kind_runs(g):
                # Re-concatenating per kind reproduces the seed executor's
                # per-batch gather (same values: the physical rows are
                # exact copies of the cluster arrays, resolved through the
                # per-segment ``seg_src_lo`` offsets).
                ranges = [
                    (seg_src_lo[s], seg_src_lo[s] + seg_sizes[s])
                    for s in range(s_lo, s_hi)
                ]
                src = np.concatenate(
                    [plan.src_points[lo:hi] for lo, hi in ranges], axis=0
                )
                q = np.concatenate(
                    [plan.src_weights[lo:hi] for lo, hi in ranges]
                )
                kernel.potential(tgt, src, q, out=phi)
                if f_acc is not None:
                    kernel.force(tgt, src, q, out=f_acc)
            out[idx] += phi
            if f_acc is not None:
                forces[idx] += f_acc
        return out, forces
