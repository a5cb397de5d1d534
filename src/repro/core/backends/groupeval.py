"""The fused per-group evaluation shared by the fused and mp backends.

One implementation of the per-group "gather sources, one call of the
kernel driver" arithmetic, operating on a plain dict of the plan's
flat arrays so it runs identically in-process (FusedBackend, the
multiprocessing backend's inline path) and inside pool workers (which
unpickle the dict from their shard task).  The driver,
:meth:`~repro.kernels.base.Kernel.potential`, is the same call with
forces on or off (a ``forces`` accumulator switches them on), so no
step here chooses between kernel methods.  The arithmetic is float64
throughout, on the temporary-free r^2 primitive (``fused=True``); the
evaluation dtype a backend is handed only prices the simulated device's
launches.

Evaluation order: a group gathers its segments in the order
:func:`~repro.core.plan.evaluation_order` gives, stored once per
geometry -- plan order, or with a mirror schedule the schedule's own
CSR ``order`` / ``order_ptr`` -- so no step per apply walks a group's
segments in Python: the gather drops empty segments in one mask, takes
one slice when the rows follow one another and one ``np.take``
otherwise.

Mutual blocks: given the plan's :class:`~repro.core.plan.MirrorSchedule`
(``arrays["mirrors"]``, in-process fused evaluation only), a group
forms each mirrored block once and applies it both ways -- its own
potential (and force) from the block, its partner's from the transpose
through the driver's ``mirror`` tuple -- and skips the blocks its
lower-numbered partners already applied to it (the schedule's order
leaves them out).  Its forward segments close its order, so they are
one trailing column block, and their transposed product is one
``(rows, ...)`` array per group (one more for forces), each partner row
once because the schedule gives every partner row exactly one source.
The summation order differs from the per-group arithmetic, so the two
agree to roundoff.  Without a schedule, or where the schedule pairs
nothing, every group evaluates exactly as compiled: that per-group
arithmetic is what the multiprocessing backend runs in both its inline
and sharded paths, so its results are bitwise invariant under any shard
split.

Workers: :func:`eval_group_range` shares its groups among ``workers``
threads (:func:`eval_plan` asks :func:`~repro.parallel.worker_count`:
the CPUs the process may run on, capped at the group count; a pool
shard runs one).  The calling thread is the first worker; all of them
take groups from one counter in group order, and numpy's ufuncs and
BLAS release the GIL, so the sqrt, exp and ``1/r`` passes of two
groups overlap.  Four rules keep the bytes the same for any worker
count and any thread timing:

* **Single-threaded BLAS.**  The workers run under
  :func:`~repro.parallel.single_threaded_blas`, so no GEMM or GEMV
  rounds by how many BLAS threads split it.
* **Disjoint target rows.**  A group's own rows of ``phi`` / ``forces``
  start from zero and take one kernel call, from one worker.
* **Ordered mirror sums.**  A group's mirrored products go into
  separate ``(rows, ...)`` accumulators through an in-order reorder
  buffer (:func:`~repro.parallel.run_ordered`): added in group order,
  whichever worker finishes first.  After the join the accumulators
  are added to the rows.
* **Caller-owned scratch.**  Each worker has its own
  :class:`~repro.kernels.workspace.Workspace`, reserved for the largest
  row block of the run (:func:`group_block_elements`, over the same
  evaluation order) and allocated by the calling thread before the
  workers start (:func:`worker_workspaces`, which the stacked path
  shares), so every row block writes its r^2, ``g`` and
  ``g'(r)/r`` into its worker's few buffers, each allocated once.
  Results are bitwise those without one.

A worker's exception stops the others from taking groups; every thread
is joined and the exception is raised to the caller.
"""

from __future__ import annotations

import numpy as np

from ...kernels.base import RadialKernel, block_rows
from ...kernels.workspace import Workspace
from ...parallel import run_ordered, single_threaded_blas, worker_count
from ...util import concat_ranges
from ..plan import evaluation_order

__all__ = [
    "PLAN_ARRAY_FIELDS",
    "plan_arrays",
    "RunOperands",
    "eval_group_range",
    "eval_plan",
    "group_block_elements",
    "worker_workspaces",
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


def plan_arrays(plan) -> dict:
    """The plan's non-None flat arrays keyed by field name."""
    return {
        f: getattr(plan, f)
        for f in PLAN_ARRAY_FIELDS
        if getattr(plan, f) is not None
    }


class RunOperands:
    """Kernel operands of the fused per-group arithmetic.

    What :func:`eval_group_range` (whole groups) and the stacked
    path's ragged runs (explicit segment runs) share: per
    (group, segments) the gathered rows.
    """

    def __init__(self, arrays):
        self.arrays = arrays
        self.src_all = arrays["src_points"]
        # Weights stay RHS-major (see ``weight_buffer``; a shard task's
        # C-order copy is put back): every column of ``q_all`` and of
        # its gathers is contiguous.
        self.q_all = np.asarray(arrays["src_weights"], order="F")
        self.seg_rows = np.diff(arrays["seg_ptr"])

    def gather(self, g: int, segments: np.ndarray):
        """``(targets, sources, weights)`` of group ``g`` against the
        segment ids ``segments`` in that order; None when either side
        is empty.

        Empty segments drop out; segments whose physical rows follow
        one another are one slice of the buffers (no copy), any others
        one gather of their rows.
        """
        arrays = self.arrays
        group_ptr = arrays["group_ptr"]
        t_lo, t_hi = int(group_ptr[g]), int(group_ptr[g + 1])
        if t_hi == t_lo:
            return None
        n = self.seg_rows[segments]
        lo = arrays["seg_src_lo"][segments]
        live = n > 0
        lo, n = lo[live], n[live]
        if lo.size == 0:
            return None
        if np.array_equal(lo[1:], lo[:-1] + n[:-1]):
            a, b = int(lo[0]), int(lo[-1] + n[-1])
            src, q = self.src_all[a:b], self.q_all[a:b]
        else:
            rows = concat_ranges(lo, n)
            src = np.take(self.src_all, rows, axis=0)
            # Taken along the last axis of the RHS-major transpose, so
            # the gathered columns stay contiguous too.
            q = np.take(self.q_all.T, rows, axis=-1).T
        return arrays["targets"][t_lo:t_hi], src, q


def group_block_elements(arrays, g_lo, g_hi) -> int:
    """Elements of the largest row block :func:`eval_group_range` forms
    over groups ``[g_lo, g_hi)``.

    A group's kernel call runs on the sources of its segments in
    evaluation order (:func:`~repro.core.plan.evaluation_order`: every
    segment, or with a mirror schedule all but the skipped ones), and
    its first row block, ``min(m, block_rows(k)) * k``, is its largest.
    """
    order, order_ptr = evaluation_order(
        arrays["seg_group_ptr"], arrays.get("mirrors")
    )
    lo, hi = order_ptr[g_lo], order_ptr[g_hi]
    rows_before = np.concatenate(
        ([0], np.cumsum(np.diff(arrays["seg_ptr"])[order[lo:hi]]))
    )
    ks = np.diff(rows_before[order_ptr[g_lo:g_hi + 1] - lo]).tolist()
    ms = np.diff(arrays["group_ptr"][g_lo:g_hi + 1]).tolist()
    return max(
        (min(m, block_rows(k)) * k for m, k in zip(ms, ks) if m),
        default=0,
    )


def worker_workspaces(kernel, compute_forces, capacity, workers) -> list:
    """One :class:`~repro.kernels.workspace.Workspace` per worker
    thread, reserved for ``capacity`` elements (the largest block the
    run forms) with the kernel's slots allocated: every worker's
    scratch at its final size, made by the calling thread before the
    workers start."""
    workspaces = []
    for _ in range(workers):
        workspace = Workspace()
        workspace.reserve(capacity)
        workspace.allocate(kernel.workspace_slots(compute_forces))
        workspaces.append(workspace)
    return workspaces


def eval_group_range(
    arrays, kernel, compute_forces, g_lo, g_hi, workers: int = 1
):
    """Fused per-group accumulation over groups ``[g_lo, g_hi)``.

    Returns ``(t_lo, t_hi, phi, forces)`` where ``phi`` covers the
    contiguous target rows of the range; the caller scatters through
    ``out_index`` (injective, so shards of disjoint group ranges never
    race on the output).

    Each group is one call of the per-block kernel driver,
    ``Kernel.potential``, handed the group's force rows as its
    ``forces`` accumulator when forces are on: radial kernels then form
    r^2, ``g`` and ``g'(r)/r`` once per row block and contract both from
    them (no ``(M, K, 3)`` gradient tensor).  The row blocks do not
    depend on forces, so potentials are bitwise the same with forces on
    or off.

    A 2-D weight buffer widens ``phi`` to ``(rows, n_rhs)`` and
    ``forces`` to ``(rows, 3, n_rhs)``: the kernel hoists each group's
    pairwise matrix / radial factors once and then runs one GEMV per
    column, on purpose -- a GEMM over the columns could change the
    summation order with ``n_rhs`` and so break column ``j`` ≡ a solo
    apply.  The weights are RHS-major, so each GEMV reads its column
    without a copy.

    A group gathers its segments in evaluation order (see the module
    docstring).  With a mirror schedule under ``arrays["mirrors"]``
    (whole plans only: a mirrored block writes its partner's rows) its
    trailing forward block goes to the driver's ``mirror`` tuple
    ``(col0, charges_t, out_t, forces_t)``, ``forces_t`` None with
    forces off, and ``out_t`` / ``forces_t`` are added into the mirror
    accumulators in group order.

    ``arrays["candidates"]``, when present, holds the candidate
    coincident entries of every group's block
    (:meth:`~repro.core.plan.ExecutionPlan.group_candidates`, in the
    same order); without it every block is scanned, to the same
    indices.

    ``workers`` threads share the groups under single-threaded BLAS,
    each with its own workspace (see the module docstring); the bytes
    are the same for any count.
    """
    group_ptr = arrays["group_ptr"]
    mirrors = arrays.get("mirrors")
    candidates = arrays.get("candidates")
    order, order_ptr = evaluation_order(arrays["seg_group_ptr"], mirrors)
    t_lo_all = int(group_ptr[g_lo])
    t_hi_all = int(group_ptr[g_hi])
    rows = t_hi_all - t_lo_all
    rhs = arrays["src_weights"].shape[1:]
    phi = np.zeros((rows,) + rhs, dtype=np.float64)
    f_out = (
        np.zeros((rows, 3) + rhs, dtype=np.float64) if compute_forces else None
    )
    operands = RunOperands(arrays)
    seg_rows = operands.seg_rows
    bounds = (group_ptr[g_lo:g_hi + 1] - t_lo_all).tolist()
    ptr = order_ptr[g_lo:g_hi + 1].tolist()
    # Forward segments per group: the tail of its order.
    n_forward = [0] * (g_hi - g_lo)
    if mirrors is not None:
        forward = np.concatenate(
            ([0], np.cumsum(mirrors.partner[order[ptr[0]:ptr[-1]]] >= 0))
        )
        n_forward = np.diff(forward[np.subtract(ptr, ptr[0])]).tolist()

    def evaluate(i, workspace):
        """Group ``g_lo + i`` into its own rows of ``phi`` / ``f_out``;
        returns its mirror products ``(rows, phi_t, f_t)`` or None."""
        g = g_lo + i
        segs = order[ptr[i]:ptr[i + 1]]
        ops = operands.gather(g, segs)
        if ops is None:
            return None
        tgt, src, q = ops
        t_lo, t_hi = bounds[i], bounds[i + 1]
        mirror = None
        if n_forward[i]:
            fwd = segs[len(segs) - n_forward[i]:]
            # The partners' rows, each once (see MirrorSchedule).
            mirror_rows = concat_ranges(
                group_ptr[mirrors.partner[fwd]] - t_lo_all, seg_rows[fwd]
            )
            n_fwd = len(mirror_rows)
            lo = int(mirrors.self_lo[g])
            phi_t = np.zeros((n_fwd,) + rhs)
            f_t = None if f_out is None else np.zeros((n_fwd, 3) + rhs)
            mirror = (
                len(src) - n_fwd, operands.q_all[lo:lo + len(tgt)], phi_t, f_t
            )
        kernel.potential(
            tgt, src, q, out=phi[t_lo:t_hi],
            forces=None if f_out is None else f_out[t_lo:t_hi],
            fused=True,
            coincident=None if candidates is None else candidates[g],
            mirror=mirror,
            workspace=workspace,
        )
        return None if mirror is None else (mirror_rows, phi_t, f_t)

    phi_m = f_m = None
    if any(n_forward):
        phi_m = np.zeros_like(phi)
        f_m = None if f_out is None else np.zeros_like(f_out)

    def add_mirror(products):
        if products is not None:
            mirror_rows, phi_t, f_t = products
            phi_m[mirror_rows] += phi_t
            if f_m is not None:
                f_m[mirror_rows] += f_t

    workspaces = worker_workspaces(
        kernel, compute_forces, group_block_elements(arrays, g_lo, g_hi),
        workers,
    )
    with single_threaded_blas():
        run_ordered(evaluate, workspaces, g_hi - g_lo, add_mirror)
    if phi_m is not None:
        phi += phi_m
        if f_m is not None:
            f_out += f_m
    return t_lo_all, t_hi_all, phi, f_out


def eval_plan(plan, kernel, compute_forces, *, mirror=True):
    """In-process fused evaluation of a whole plan.

    :func:`eval_group_range` over every group on
    :func:`~repro.parallel.worker_count` threads, for symmetric kernels
    (``Kernel.symmetric``) unless ``mirror`` is False its mirror
    schedule, so each mirrored direct block is formed once, and for
    radial kernels (the ones with a coincidence rule) its candidate
    coincident entries.  Returns what :func:`eval_group_range` does.
    """
    arrays = plan_arrays(plan)
    mirrors = None
    if mirror and getattr(kernel, "symmetric", False):
        mirrors = arrays["mirrors"] = plan.mirror_schedule()
    if isinstance(kernel, RadialKernel):
        arrays["candidates"] = plan.group_candidates(mirrors)
    return eval_group_range(
        arrays, kernel, compute_forces, 0, plan.n_groups,
        worker_count(plan.n_groups),
    )
