"""Shape-bucketed batched evaluation: the stacked path's numerics.

One task of the plan evaluator's stacked path
(:class:`~.fused.FusedBackend`) is one bucket (:func:`eval_bucket`) or
one ragged run (:func:`eval_ragged_run`).  Each function evaluates its
task into arrays of its own and returns the output rows with their
values, touching neither the output nor any other task's state, so
worker threads can run tasks side by side; the backend adds the
results into the output in task order
(:func:`~.base.scatter_rows`).

Per bucket chunk the evaluation is one call of the stacked kernel
driver (:meth:`~repro.kernels.base.RadialKernel.potential_batched`) --
one batched GEMM for the r^2 cross term, elementwise kernel passes over
the ``(G, m, k)`` stack, one batched GEMV against the bucket's weight
matrix, and with forces one batched GEMM per weight column of ``f =
g'(r)/r`` against ``[w S | w]`` from the same r^2, sqrt and radial
factors -- followed by a single fancy-indexed scatter of the valid
rows.  No per-group Python iteration, no per-group target-block
materialization.  Buckets are
chunked along the entry axis so the live ``(g, m, k)`` arrays stay
bounded (the same role :data:`~repro.kernels.base.DEFAULT_BLOCK_ELEMENTS`
plays in the blocked direct sum): a chunk's entry count divides
:data:`BUCKET_BLOCK_ELEMENTS` by ``m k`` times the live stacks of its
pass -- one for potentials, :data:`~repro.kernels.base.JOINT_LIVE_ARRAYS`
with forces.
Chunk boundaries depend only on the bucket shape, so repeated
executions are bitwise identical.

Workspace: given its worker's
:class:`~repro.kernels.workspace.Workspace`, every chunk of a bucket
(and every ragged run) writes its r^2, ``g`` and ``g'(r)/r`` stacks
into the same few buffers -- views of the leading elements, so a
smaller chunk after a larger one reuses the buffer -- instead of
allocating them per chunk.  :func:`layout_block_elements` is the
largest chunk or row block of a layout, which the backend reserves in
every worker's workspace before the workers start, so each buffer is
allocated once.  Bitwise the same results.

Padded (near-field) buckets need no special casing here: their pad
rows and columns repeat real rows, so the plan's candidate coincident
entries of a bucket cover its pads too (a pad pairs the same two rows
as the real entry it repeats), and each chunk's coincidence rule
patches any zero-distance pair (self-target groups, coincident pads)
to a zero kernel value (and zero force) exactly as it does for true
coincidences; the zero weight stored for every pad makes the
non-coincident pads contribute an exact ``0.0`` to the GEMV.  Direct
kinds therefore run through the same stacked passes as the far field.

The runs the layout could not bucket profitably (pool slabs below the
minimum entry count) are evaluated by :func:`eval_ragged_run` through
the same per-group fused arithmetic as :mod:`.groupeval`, one call of
the per-block driver (:meth:`~repro.kernels.base.Kernel.potential`) per
run -- a thin remainder, not the near-field path.
"""

from __future__ import annotations

import numpy as np

from ...kernels.base import JOINT_LIVE_ARRAYS, block_rows, candidate_rows
from ...util import chunk_ranges
from .groupeval import RunOperands

__all__ = [
    "BUCKET_BLOCK_ELEMENTS",
    "bucket_chunk",
    "layout_block_elements",
    "eval_bucket",
    "eval_ragged_run",
]

#: Cap on the number of (g, m, k) stack elements live per bucket chunk.
BUCKET_BLOCK_ELEMENTS = 4_000_000


def bucket_chunk(
    bucket, compute_forces: bool, block_elements: int = BUCKET_BLOCK_ELEMENTS
) -> int:
    """Entries per chunk of :func:`eval_bucket`: the budget over ``m k``
    times the live stacks of the pass (one for potentials,
    :data:`~repro.kernels.base.JOINT_LIVE_ARRAYS` with forces)."""
    live = JOINT_LIVE_ARRAYS if compute_forces else 1
    return max(1, block_elements // (bucket.m_max * max(bucket.k, 1) * live))


def layout_block_elements(layout, arrays, compute_forces: bool) -> int:
    """Elements of the largest ``(g, m, k)`` chunk or ``(rows, k)`` row
    block one execute of ``layout`` forms: its buckets' first chunks
    and its ragged runs' first row blocks (``arrays`` holds the plan's
    ``group_ptr`` / ``seg_ptr``)."""
    largest = max(
        (
            min(b.n_entries, bucket_chunk(b, compute_forces)) * b.m_max * b.k
            for b in layout.buckets
        ),
        default=0,
    )
    group_ptr = arrays["group_ptr"]
    seg_ptr = arrays["seg_ptr"]
    for g, s_lo, s_hi in layout.ragged_runs.tolist():
        m = int(group_ptr[g + 1] - group_ptr[g])
        k = int(seg_ptr[s_hi] - seg_ptr[s_lo])
        if m:
            largest = max(largest, min(m, block_rows(k)) * k)
    return largest


def eval_bucket(
    bucket,
    targets: np.ndarray,
    src_points: np.ndarray,
    kernel,
    compute_forces: bool,
    *,
    block_elements: int = BUCKET_BLOCK_ELEMENTS,
    workspace=None,
    candidates: np.ndarray | None = None,
):
    """Evaluate one bucket: ``(out_slots, vals, f_vals)`` to scatter.

    ``targets`` / ``src_points`` are the plan's coordinate buffers; the
    bucket gathers and caches its stacks from them.  The weight matrix
    is the bucket's own (refreshed in place by
    ``ExecutionPlan.refresh_weights``).  ``vals`` (and ``f_vals``, None
    without forces) hold the valid rows only, through the bucket's
    precomputed valid positions, so padded rows are computed but never
    accumulated; :func:`~.base.scatter_rows` adds them at ``out_slots``.

    Multi-RHS: a ``(G, k, n_rhs)`` bucket weight matrix hoists each
    chunk's kernel-matrix stack (and, with forces, its radial factors)
    once and re-contracts it per column with the identical
    single-column contractions on a contiguous column (the matrix is
    RHS-major, so no copy).  Chunk
    boundaries never depend on ``n_rhs`` (the coincidence noise floor
    derives from the chunk), so column ``j`` is bitwise the
    single-vector result on weight column ``j``.

    ``candidates`` holds the candidate coincident entries of the
    bucket's whole ``(G, m_max, k)`` stack (from
    :meth:`~repro.core.plan.ExecutionPlan.layout_candidates`); each
    chunk tests its own share, and without them each chunk is scanned,
    to the same indices.  ``workspace`` holds each chunk's kernel
    stacks (see the module docstring).
    """
    tgt, src = bucket.stacks(targets, src_points)
    w = bucket.weights
    multi = w.ndim == 3
    n_rhs = w.shape[2] if multi else 1
    n, m_max, _ = tgt.shape
    phi = np.empty((n, m_max, n_rhs) if multi else (n, m_max))
    f_stack = None
    if compute_forces:
        f_stack = np.zeros((n, m_max, 3, n_rhs) if multi else (n, m_max, 3))
    chunk = bucket_chunk(bucket, compute_forces, block_elements)
    entry_size = m_max * bucket.k
    for lo, hi in chunk_ranges(n, chunk):
        phi[lo:hi] = kernel.potential_batched(
            tgt[lo:hi], src[lo:hi], w[lo:hi],
            candidate_rows(candidates, lo, hi, n, entry_size),
            forces=None if f_stack is None else f_stack[lo:hi],
            workspace=workspace,
        )
    vals = phi.reshape((-1, n_rhs) if multi else -1)
    f_vals = None
    if f_stack is not None:
        f_vals = f_stack.reshape((-1, 3, n_rhs) if multi else (-1, 3))
    if bucket.scatter_pos is not None:
        vals = vals[bucket.scatter_pos]
        if f_vals is not None:
            f_vals = f_vals[bucket.scatter_pos]
    return bucket.out_slots, vals, f_vals


def eval_ragged_run(
    operands: RunOperands,
    g: int,
    s_lo: int,
    s_hi: int,
    kernel,
    compute_forces: bool,
    *,
    workspace=None,
    candidates: np.ndarray | None = None,
):
    """Evaluate one run the bucketing could not batch: group ``g``
    against segments ``[s_lo, s_hi)``.  ``(rows, phi, forces)`` to
    scatter, or None when either side is empty.

    Same fused per-group arithmetic as :func:`.groupeval.eval_group_range`
    (one ``Kernel.potential`` call on the temporary-free r^2 primitive,
    with a forces accumulator when forces are on), but scoped to an
    explicit segment run so a group whose approximation half went
    through a bucket is not double-counted.  ``candidates``, when
    given, holds the candidate coincident entries of the run's
    ``(m, k)`` matrix; ``workspace`` goes to the kernel call.
    """
    ops = operands.gather(g, np.arange(s_lo, s_hi))
    if ops is None:
        return None
    tgt, src, q = ops
    group_ptr = operands.arrays["group_ptr"]
    t_lo, t_hi = int(group_ptr[g]), int(group_ptr[g + 1])
    frc = np.zeros((len(tgt), 3) + q.shape[1:]) if compute_forces else None
    phi = kernel.potential(
        tgt, src, q, forces=frc, fused=True, coincident=candidates,
        workspace=workspace,
    )
    return operands.arrays["out_index"][t_lo:t_hi], phi, frc
