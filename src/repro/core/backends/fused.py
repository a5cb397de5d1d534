"""The plan evaluator: stacked or per-group evaluation, picked by shape.

One backend evaluates a compiled plan in process, and the plan's group
shape, not a user option, picks how: a plan whose mean target rows per
group fall below :data:`STACKED_MAX_MEAN_ROWS` runs the **stacked**
path under a :class:`~repro.kernels.base.RadialKernel`; every other
plan runs the **per-group** path.  The choice reads only
``plan.n_target_rows``, ``plan.n_groups`` and the kernel's type --
never the charge width, forces or call history -- so column
``j`` of a block apply is bitwise a solo apply, potentials are bitwise
the same with forces on or off, and an updated session picks what a
cold prepare at the new positions picks.  As in the paper, the target
batches' size decides how their direct sums are launched.

**Per-group.**  Every group is one call of the per-block kernel driver,
``Kernel.potential``, over its whole pre-gathered source range (the
plan's ``seg_src_lo`` offsets into de-duplicated buffers).  Forces are
the same call with a ``forces`` accumulator: a radial kernel forms r^2,
``g`` and ``g'(r)/r`` once per row block and contracts the force by
one BLAS product per charge column, ``f [q S | q]``.  Where the
targets are the sources, a direct block ``(A, B)`` usually has its
mirror ``(B, A)`` in the plan; for symmetric kernels each such kernel
matrix is formed once and applied both ways (``G q_B`` to ``A``,
``G^T q_A`` to ``B``; Newton's third law at cell level, as in Dehnen's
falcON), following the plan's
:class:`~repro.core.plan.MirrorSchedule`.  The arithmetic lives in
:mod:`.groupeval`; a plan whose schedule pairs nothing evaluates
bitwise as the per-group arithmetic the multiprocessing backend runs.

**Stacked.**  A per-group walk pays a Python iteration and a few small
array calls per group, which dominates on small groups.  The stacked
path consumes the plan's :class:`~repro.core.plan.BatchedLayout`
instead (built on its first stacked execute): equal-shape segment runs,
the near field padded with zero-weight repeats of real points, are
evaluated per *bucket* with
:meth:`~repro.kernels.base.RadialKernel.potential_batched` and one
output scatter per bucket; only sub-minimum leftovers run per group
inside the same execute (:mod:`.batcheval`).  A failed layout build
raises :class:`~repro.errors.BackendExecutionError`, which a degrading
session answers by moving to ``"numpy"``.

Both paths agree with :class:`~.numpy_backend.NumpyBackend` to
roundoff (``rtol=1e-9`` on potentials, ``1e-8`` on forces); repeated
applies are bitwise equal, and device counters are every other
backend's, since launch charging derives from the plan alone.  Each
execute opens one evaluation :class:`~repro.kernels.workspace.Workspace`
(:func:`~.base.start_execute`) sized for its largest row block or
bucket chunk, into which every block writes its r^2, ``g`` and
``g'(r)/r``; results are bitwise those without one.

Both paths compute in float64 whatever ``dtype`` the execute is handed:
that argument only prices the device's launches
(:meth:`~repro.perf.machine.MachineSpec.precision_multiplier`), so a
``float32`` session returns the float64 bytes at the modelled
single-precision cost.
"""

from __future__ import annotations

import numpy as np

from ...errors import BackendExecutionError
from ...kernels.base import RadialKernel
from .base import Backend, accumulate_rows, start_execute
from .batcheval import eval_bucket, eval_ragged_runs, layout_block_elements
from .groupeval import eval_plan, plan_arrays

__all__ = ["FusedBackend", "STACKED_MAX_MEAN_ROWS", "uses_stacked_path"]

#: Plans whose mean target rows per group fall below this run the
#: stacked path.  Warm executes, 2-core Xeon (stacked / per-group time):
#: Plummer 4 000, Yukawa degree 5 with forces, 0.85 at 14.9 rows and
#: 1.26 at 20.8; cube 6 400, Coulomb degree 2, 0.78 at 26 and 1.51 at
#: 70.  The cut sits at the force-kernel crossover.
STACKED_MAX_MEAN_ROWS = 20


def uses_stacked_path(plan, kernel) -> bool:
    """Whether :class:`FusedBackend` evaluates ``plan`` stacked."""
    return (
        isinstance(kernel, RadialKernel)
        and plan.n_target_rows < STACKED_MAX_MEAN_ROWS * plan.n_groups
    )


class FusedBackend(Backend):
    """Stacked buckets for small groups, one accumulation per group
    otherwise."""

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
        if not uses_stacked_path(plan, kernel):
            accumulate_rows(
                plan, out, forces,
                *eval_plan(plan, kernel, compute_forces, workspace),
            )
            return out, forces
        arrays = plan_arrays(plan)
        try:
            layout = plan.ensure_batched_layout()
        except Exception as exc:
            # A failed (lazy) layout build is recoverable: surface the
            # structured error and let the session degrade.
            raise BackendExecutionError(
                f"building the batched execution layout failed: {exc}",
                backend=self.name,
            ) from exc
        workspace.reserve(layout_block_elements(layout, arrays, compute_forces))
        candidates = plan.layout_candidates()
        for b, bucket in enumerate(layout.buckets):
            eval_bucket(
                bucket, arrays["targets"], arrays["src_points"],
                kernel, compute_forces, out, forces,
                workspace=workspace, candidates=candidates[b],
            )
        n_buckets = len(layout.buckets)
        eval_ragged_runs(
            arrays, layout.ragged_runs, kernel, compute_forces,
            out, forces, workspace=workspace,
            candidates=[
                candidates[n_buckets + r]
                for r in range(len(layout.ragged_runs))
            ],
        )
        return out, forces
