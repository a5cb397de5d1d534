"""Batched backend: shape-bucketed stacked evaluation of a plan.

The far field of a compiled plan is thousands of identically shaped
small interactions (every approximation segment of a degree-``p`` plan
carries ``(p+1)^3`` rows).  The fused backend still walks them one group
at a time -- a Python-loop iteration, a handful of small array calls and
a tiny GEMV per group.  This backend consumes the plan's
:class:`~repro.core.plan.BatchedLayout` instead: equal-kind segment runs
are evaluated per *bucket* with the stacked kernel driver
(:meth:`~repro.kernels.base.RadialKernel.potential_batched`, one call
per chunk; with a forces accumulator the same call forms r^2 and the
radial factors once and contracts the force as ``(f w) S - t *
rowsum(f w)``), one fancy-indexed output scatter per bucket, and no
per-group Python iteration.  Force chunks hold a quarter of a
potential chunk's entries, one per live ``(g, m, k)`` stack with
forces, so both stay within :data:`~.batcheval.BUCKET_BLOCK_ELEMENTS`.
The near field -- ragged runs with per-cluster row counts -- is bucketed
too, padded to a common source width with zero-weight repeats of real
points (see the plan module docstring); on the default regimes over 95%
of the plan's rows execute inside buckets (``BatchedLayout.coverage``),
and only sub-minimum slab leftovers fall back to the fused per-group
arithmetic inside the same ``execute()``.

This is the single-core analogue of the paper's uniform cluster-kernel
batching: the GPU gets its throughput from launching many identical
blocks at once; on the numpy substrate the equivalent move is a few
large GEMMs over compile-time shape buckets.

Results agree with the fused backend to the established roundoff
tolerance (the bucketed accumulation splits a group's approx/direct
halves into separate sums and shares one coincidence noise floor per
bucket chunk); repeated executions are bitwise identical (the layout,
chunking and scatter order are all deterministic functions of the plan).
A kernel that is not a :class:`~repro.kernels.base.RadialKernel` has
no stacked arithmetic and falls back to the fused evaluation wholesale
-- bitwise what :class:`~.fused.FusedBackend` returns.  Device
accounting derives from the plan alone (bulk charging), so counters and
simulated time match every other backend by construction.

Each execute opens one evaluation
:class:`~repro.kernels.workspace.Workspace` (:func:`~.base.start_execute`)
that every bucket chunk and ragged run writes its r^2, ``g`` and
``g'(r)/r`` stacks into, so the chunk loop allocates none of them; the
slots are allocated once, for the layout's largest chunk, and freed when
the execute returns.  Chunk boundaries do not depend on the workspace, so
results are bitwise those without one.
"""

from __future__ import annotations

import numpy as np

from ...errors import BackendExecutionError
from ...kernels.base import RadialKernel
from .base import Backend, accumulate_rows, start_execute
from .batcheval import eval_bucket, eval_ragged_runs, layout_block_elements
from .groupeval import eval_plan, plan_arrays

__all__ = ["BatchedBackend"]


class BatchedBackend(Backend):
    """Stacked bucket evaluation with a fused fallback for ragged work."""

    name = "batched"
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
        if not isinstance(kernel, RadialKernel):
            # A generic kernel has no stacked arithmetic: evaluate the
            # whole plan as the fused backend does (bitwise ==
            # FusedBackend).
            accumulate_rows(
                plan, out, forces,
                *eval_plan(plan, kernel, dtype, compute_forces, workspace),
            )
            return out, forces
        # cast_geometry: repeated applies of a prepared session stop
        # re-casting targets/points every step.
        arrays = plan_arrays(plan, cast_geometry=dtype)
        try:
            layout = plan.ensure_batched_layout()
        except Exception as exc:
            # A failed (lazy) layout build is recoverable: the fused
            # arithmetic evaluates the same plan, so surface the
            # structured error and let the session degrade.
            raise BackendExecutionError(
                f"building the batched execution layout failed: {exc}",
                backend=self.name,
            ) from exc
        workspace.reserve(layout_block_elements(layout, arrays, compute_forces))
        for bucket in layout.buckets:
            eval_bucket(
                bucket, arrays["targets"], arrays["src_points"],
                kernel, dtype, compute_forces, out, forces,
                workspace=workspace,
            )
        eval_ragged_runs(
            arrays, layout.ragged_runs, kernel, dtype, compute_forces,
            out, forces, workspace=workspace,
        )
        return out, forces
