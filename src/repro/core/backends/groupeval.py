"""The fused per-group evaluation shared by the fused and mp backends.

One implementation of the per-group "gather sources, one blocked
kernel accumulation" arithmetic, operating on a plain dict of the
plan's flat arrays so it runs identically in-process (FusedBackend, the
multiprocessing backend's inline path) and inside pool workers (which
rebuild the dict from shared memory).  Keeping it single-sourced is
what makes the multiprocessing backend's "bitwise == fused" contract a
structural property instead of a hand-synchronized one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PLAN_ARRAY_FIELDS",
    "plan_arrays",
    "RunOperands",
    "eval_group_range",
]

#: The ExecutionPlan fields a group evaluation needs.
PLAN_ARRAY_FIELDS = (
    "targets",
    "out_index",
    "src_points",
    "src_weights",
    "group_ptr",
    "seg_group_ptr",
    "seg_ptr",
    "seg_src_lo",
)


def plan_arrays(plan, *, cast_geometry=None) -> dict:
    """The plan's non-None flat arrays keyed by field name.

    ``cast_geometry`` is the evaluation dtype of an in-process
    execution: it swaps in the plan's dtype-keyed cast caches for the
    geometry-constant buffers (targets / source points), so
    mixed-precision executions cast once per plan instead of per call,
    and adds the plan's coincident-pair cache under ``"coincident"``,
    so each block's noise-floor scan runs once per geometry instead of
    once per apply.  Leave it None when shipping buffers elsewhere (the
    multiprocessing shipment): workers cast their own shard slices and
    scan every block, which is elementwise-identical.
    """
    arrays = {
        f: getattr(plan, f)
        for f in PLAN_ARRAY_FIELDS
        if getattr(plan, f) is not None
    }
    if cast_geometry is not None:
        arrays["targets"] = plan.targets_as(cast_geometry)
        arrays["src_points"] = plan.src_points_as(cast_geometry)
        arrays["coincident"] = plan.coincident_cache
    return arrays


def run_source_slices(arrays, s_lo: int, s_hi: int):
    """Physical (lo, hi) source row ranges of segments ``[s_lo, s_hi)``.

    One range per segment, resolved through the per-segment
    ``seg_src_lo`` offsets (aliases may scatter).
    """
    seg_ptr = arrays["seg_ptr"]
    seg_src_lo = arrays["seg_src_lo"]
    out = []
    for s in range(s_lo, s_hi):
        lo = int(seg_src_lo[s])
        out.append((lo, lo + int(seg_ptr[s + 1] - seg_ptr[s])))
    return out


class RunOperands:
    """Kernel operands of the fused per-group arithmetic.

    What :func:`eval_group_range` (whole groups) and the batched
    backend's ragged remainder (explicit segment runs) share: which r^2
    arithmetic the dtype gets, the once-per-execution cast of the source
    buffers, and per (group, segment run) the gathered rows plus the
    slot the kernel keeps that block's coincident pairs in.
    """

    def __init__(self, arrays, dtype):
        self.arrays = arrays
        self.dtype = np.dtype(dtype)
        # The temporary-free r^2 primitive reorders the three-term sum;
        # at double precision the difference sits at the coincidence
        # noise floor, but at single precision that cancellation
        # dominates the mixed-precision error budget -- so float32 keeps
        # the reference operation order and only the float64 path opts
        # in (on kernels that provide the primitive; the reference numpy
        # backend never asks, keeping the byte-stable path untouched).
        self.fused = self.dtype == np.float64
        # Cast once; float64 passes through as views.  The shared
        # layout's physical rows are scattered through ``seg_src_lo``
        # aliases (and already de-duplicated), so the cast covers the
        # full -- compact -- buffers.
        self.src_all = np.ascontiguousarray(arrays["src_points"], dtype=dtype)
        self.q_all = np.ascontiguousarray(arrays["src_weights"], dtype=dtype)

    def __call__(self, g: int, s_lo: int, s_hi: int):
        """``(targets, sources, weights, coincident)`` of group ``g``
        against its segments ``[s_lo, s_hi)``; None when either side is
        empty.  ``coincident`` is the dict ``Kernel.potential`` /
        ``force`` take (None without a plan-side cache, i.e. in pool
        workers)."""
        arrays = self.arrays
        group_ptr = arrays["group_ptr"]
        t_lo, t_hi = int(group_ptr[g]), int(group_ptr[g + 1])
        if t_hi == t_lo:
            return None
        slices = [
            (lo, hi)
            for lo, hi in run_source_slices(arrays, s_lo, s_hi)
            if hi > lo
        ]
        if not slices:
            return None
        # Contiguity fast path: one run of rows needs no gather at all.
        if all(a[1] == b[0] for a, b in zip(slices, slices[1:])):
            lo, hi = slices[0][0], slices[-1][1]
            src, q = self.src_all[lo:hi], self.q_all[lo:hi]
        else:
            src = np.concatenate([self.src_all[lo:hi] for lo, hi in slices])
            q = np.concatenate([self.q_all[lo:hi] for lo, hi in slices])
        tgt = np.ascontiguousarray(
            arrays["targets"][t_lo:t_hi], dtype=self.dtype
        )
        cache = arrays.get("coincident")
        coincident = (
            None if cache is None
            else cache.setdefault(
                (self.dtype.str, self.fused, g, s_lo, s_hi), {}
            )
        )
        return tgt, src, q, coincident


def eval_group_range(arrays, kernel, dtype, compute_forces, g_lo, g_hi):
    """Fused per-group accumulation over groups ``[g_lo, g_hi)``.

    Returns ``(t_lo, t_hi, phi, forces)`` where ``phi`` covers the
    contiguous target rows of the range; the caller scatters through
    ``out_index`` (injective, so shards of disjoint group ranges never
    race on the output).

    A 2-D weight buffer widens ``phi`` to ``(rows, n_rhs)`` and
    ``forces`` to ``(rows, 3, n_rhs)``: the kernel hoists each group's
    pairwise matrix / gradient once and contracts all columns against
    it -- this is where the per-group GEMV grows into a GEMM.
    """
    group_ptr = arrays["group_ptr"]
    seg_group_ptr = arrays["seg_group_ptr"]
    t_lo_all = int(group_ptr[g_lo])
    t_hi_all = int(group_ptr[g_hi])
    rows = t_hi_all - t_lo_all
    rhs = arrays["src_weights"].shape[1:]
    phi = np.zeros((rows,) + rhs, dtype=np.float64)
    f_out = (
        np.zeros((rows, 3) + rhs, dtype=np.float64) if compute_forces else None
    )
    operands = RunOperands(arrays, dtype)
    for g in range(g_lo, g_hi):
        ops = operands(g, int(seg_group_ptr[g]), int(seg_group_ptr[g + 1]))
        if ops is None:
            continue
        tgt, src, q, coincident = ops
        rows_g = slice(
            int(group_ptr[g]) - t_lo_all, int(group_ptr[g + 1]) - t_lo_all
        )
        kernel.potential(
            tgt, src, q, out=phi[rows_g],
            fused=operands.fused, coincident=coincident,
        )
        if f_out is not None:
            kernel.force(
                tgt, src, q, out=f_out[rows_g],
                fused=operands.fused, coincident=coincident,
            )
    return t_lo_all, t_hi_all, phi, f_out
