"""Coincident pairs as plan geometry: one neighbour pass per plan.

The kernels classify an entry of an r^2 block as coincident (``r ==
0``, the self-interaction convention) by one rule,
:func:`~repro.kernels.base._scan_coincident`: r^2 at or below
:data:`~repro.kernels.base.NOISE_FLOOR_EPS` ``* eps`` times the block's
squared coordinate scale.  A plan can say ahead of time which entries
may pass that test.  Let ``S = max|t|^2 + max|s|^2`` over its target
and source buffers.  ``S`` bounds every
block's own scale, so every block's floor is at most ``16 eps S``, and
the GEMM-expanded r^2 of a block is within about ``10 eps S`` of the
exact squared distance.  An entry at its block's floor is therefore a
(target row, physical source row) pair at exact squared distance at
most :data:`~repro.kernels.base.CANDIDATE_EPS` ``* eps * S`` (64 eps
S), and :func:`neighbour_pairs` finds every such pair in one pass over
a grid of cells no smaller than that radius.  Approximation rows
(Chebyshev points) are physical rows like any other, so no acceptance
criterion enters: theta = 1, LET and extension plans are covered alike.

:func:`group_candidates` and :func:`layout_candidates` turn the pairs
into each block's *candidates*: the ascending flat indices, into the
matrix or stack an evaluator forms, of the entries holding a pair.
Those are a group's ``(m, k)`` matrix on the per-group path (plan
order, or the mirror order of its
:class:`~repro.core.plan.MirrorSchedule`), a bucket's ``(G, m_max, k)``
stack -- pad rows and pad columns included: pads repeat real rows, so
a pair of rows covers them -- and a ragged run's ``(m, k)`` matrix.
Per apply, a block keeps the candidates its r^2 puts at its floor: the
same entries, floor and comparison as the full scan, so the same
indices, and bitwise the same potentials and forces.

A plan derives its candidates on its first execution, once per
geometry (:meth:`ExecutionPlan.group_candidates`,
:meth:`ExecutionPlan.layout_candidates`), as it derives its mirror
schedule and batched layout.  Physical source rows are located through
the plan's source slots: segments of one share key alias one physical
range, and different keys take disjoint ranges (see
:func:`~repro.core.plan.assemble_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.base import CANDIDATE_EPS
from ..util import concat_ranges
from .plan import evaluation_order

__all__ = [
    "BlockCandidates",
    "neighbour_pairs",
    "group_candidates",
    "layout_candidates",
]

#: Cells per axis of the neighbour grid, at most: cell keys fit in int64.
_GRID_CELLS = 1 << 20
#: (target, source) pairs the neighbour pass tests per piece, at most
#: (more only when one target's cells alone hold more).
_PASS_PAIRS = 1 << 22
#: The 2 x 2 columns of cells nearest a target, as ``(dx, dy)``.
_COLUMNS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True, eq=False)
class BlockCandidates:
    """Candidate flat indices of a sequence of blocks, CSR style: those
    of block ``b`` are ``flat[ptr[b]:ptr[b + 1]]``, ascending."""

    ptr: np.ndarray
    flat: np.ndarray

    def __getitem__(self, b: int) -> np.ndarray:
        return self.flat[self.ptr[b]:self.ptr[b + 1]]

    @property
    def nbytes(self) -> int:
        return int(self.ptr.nbytes + self.flat.nbytes)


def neighbour_pairs(targets, sources) -> tuple[np.ndarray, np.ndarray]:
    """``(t, s)``: every (target row, source row) pair whose exact
    squared distance is at most ``CANDIDATE_EPS * eps * S`` (float64's
    eps), sorted by target row, then source row.

    The grid's cells are at least twice the radius, so the sources
    within it of a target lie in the 2 x 2 x 2 cells nearest that
    target: two sorted key ranges (z pairs of cells) in each of two x
    and two y columns.
    """
    t = np.asarray(targets, dtype=np.float64)
    s = np.asarray(sources, dtype=np.float64)
    if len(t) == 0 or len(s) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    scale = float(
        np.einsum("ij,ij->i", t, t).max() + np.einsum("ij,ij->i", s, s).max()
    )
    radius2 = CANDIDATE_EPS * np.finfo(np.float64).eps * max(scale, 1e-300)
    lo = min(t.min(), s.min())
    extent = max(t.max(), s.max()) - lo
    # A 0.1% margin keeps a pair at exactly the radius inside the cells
    # whatever the rounding of the cell coordinates.
    cell = 1.001 * max(2.0 * np.sqrt(radius2), extent / _GRID_CELLS)
    n = int(extent / cell) + 3  # cells per axis, coordinates from 1
    source_cell = np.floor((s - lo) / cell).astype(np.int64) + 1
    # A target's nearest cells start, per axis, one cell lower when it
    # sits in the lower half of its own cell.
    target_cell = np.floor((t - lo) / cell - 0.5).astype(np.int64) + 1

    def keys(c):
        return (c[:, 0] * n + c[:, 1]) * n + c[:, 2]

    source_keys = keys(source_cell)
    order = np.argsort(source_keys)
    source_keys = source_keys[order]
    # Targets in key order: sorted queries search fastest.
    target_keys = keys(target_cell)
    by_key = np.argsort(target_keys)
    shifts = np.array([(dx * n + dy) * n for dx, dy in _COLUMNS])
    column = target_keys[by_key][None, :] + shifts[:, None]
    first = np.searchsorted(source_keys, column, side="left")
    count = np.searchsorted(source_keys, column + 1, side="right") - first
    ends = np.cumsum(count.sum(axis=0))
    found_t, found_s = [], []
    i0 = 0
    while i0 < len(t):
        budget = (ends[i0 - 1] if i0 else 0) + _PASS_PAIRS
        i1 = max(i0 + 1, int(np.searchsorted(ends, budget, side="right")))
        cnt = count[:, i0:i1].ravel()
        ti = np.repeat(np.tile(by_key[i0:i1], len(_COLUMNS)), cnt)
        si = order[concat_ranges(first[:, i0:i1].ravel(), cnt)]
        d = t[ti] - s[si]
        keep = np.einsum("ij,ij->i", d, d) <= radius2
        found_t.append(ti[keep])
        found_s.append(si[keep])
        i0 = i1
    ti, si = np.concatenate(found_t), np.concatenate(found_s)
    by_pair = np.argsort(ti * len(s) + si)
    return ti[by_pair], si[by_pair]


def _segment_hits(plan, t, p):
    """``(pair, segment)`` for every pair ``(t[i], p[i])`` and every
    segment of ``t[i]``'s group whose physical rows hold ``p[i]``."""
    lo, sizes = plan.seg_src_lo, np.diff(plan.seg_ptr)
    stride = plan.source_buffer_rows + 1
    # Slots (one share key's rows) are disjoint and tile the buffer, so
    # the last slot start at or before a row is that row's slot.
    starts = np.zeros(stride, dtype=bool)
    starts[lo[sizes > 0]] = True
    slot_of_row = np.maximum.accumulate(np.where(starts, np.arange(stride), 0))
    slot = slot_of_row[p]
    touched = np.zeros(stride, dtype=bool)
    touched[slot] = True
    segs = np.flatnonzero(touched[lo])
    seg_key = (
        np.searchsorted(plan.seg_group_ptr, segs, side="right") - 1
    ) * stride + lo[segs]
    by_key = np.argsort(seg_key, kind="stable")
    seg_key = seg_key[by_key]
    group = np.searchsorted(plan.group_ptr, t, side="right") - 1
    want = group * stride + slot
    a = np.searchsorted(seg_key, want, side="left")
    n = np.searchsorted(seg_key, want, side="right") - a
    pair = np.repeat(np.arange(len(t)), n)
    seg = segs[by_key[concat_ranges(a, n)]]
    inside = p[pair] < lo[seg] + sizes[seg]
    return pair[inside], seg[inside]


def _csr(block, flat, block_sizes) -> BlockCandidates:
    """Per-block flat indices, sorted and laid out CSR style, held as
    int32 when every block's indices fit (half the bytes of intp)."""
    base = np.zeros(len(block_sizes) + 1, dtype=np.int64)
    np.cumsum(block_sizes, out=base[1:])
    flat = np.sort(base[block] + flat)
    ptr = np.searchsorted(flat, base)
    flat -= np.repeat(base[:-1], np.diff(ptr))
    largest = max(int(np.max(block_sizes, initial=0)), flat.size)
    index = np.int32 if largest <= np.iinfo(np.int32).max else np.intp
    return BlockCandidates(ptr=ptr.astype(index), flat=flat.astype(index))


def group_candidates(plan, mirrors=None) -> BlockCandidates:
    """Candidates of every group's ``(m, k)`` matrix on the per-group
    path: its segments in the evaluation order the per-group evaluator
    gathers them in (:func:`~repro.core.plan.evaluation_order`) -- plan
    order, or with ``mirrors`` (a
    :class:`~repro.core.plan.MirrorSchedule`) the schedule's stored
    order, which leaves the skipped segments out."""
    order, order_ptr = evaluation_order(plan.seg_group_ptr, mirrors)
    n_seg = plan.n_segments
    sizes = np.diff(plan.seg_ptr)
    seg_group = np.repeat(
        np.arange(plan.n_groups), np.diff(plan.seg_group_ptr)
    )
    live = np.zeros(n_seg, dtype=bool)
    live[order] = True
    # Columns before each segment of the order, counted from its
    # group's first column.
    before = np.concatenate(([0], np.cumsum(sizes[order])))
    col0 = np.empty(n_seg, dtype=np.intp)
    col0[order] = before[:-1] - np.repeat(
        before[order_ptr[:-1]], np.diff(order_ptr)
    )
    k = before[order_ptr[1:]] - before[order_ptr[:-1]]
    t, p = neighbour_pairs(plan.targets, plan.src_points)
    pair, seg = _segment_hits(plan, t, p)
    pair, seg = pair[live[seg]], seg[live[seg]]
    g = seg_group[seg]
    row = t[pair] - plan.group_ptr[g]
    col = col0[seg] + p[pair] - plan.seg_src_lo[seg]
    return _csr(g, row * k[g] + col, np.diff(plan.group_ptr) * k)


def layout_candidates(plan, layout) -> BlockCandidates:
    """Candidates of every block of a
    :class:`~repro.core.plan.BatchedLayout`: each bucket's whole ``(G,
    m_max, k)`` stack, then each ragged run's ``(m, k)`` matrix.

    A bucket entry pads its rows with its first target row and its
    columns with its first physical source row.  So a pair on an
    entry's first row also marks the pad rows of its column, a pair on
    its first column the pad columns of its row, and the pair on both
    the pad corner.
    """
    buckets, ragged = layout.buckets, layout.ragged_runs
    n_entries = [b.n_entries for b in buckets]
    # One run per bucket entry, then per ragged run: its block (bucket,
    # or ragged run), its entry in that block and its segments.
    block = np.concatenate((
        np.repeat(np.arange(len(buckets)), n_entries),
        len(buckets) + np.arange(len(ragged)),
    ))
    entry = np.concatenate(
        [np.arange(n) for n in n_entries] + [np.zeros(len(ragged), np.intp)]
    )
    s_lo, s_hi = np.concatenate(
        [b.segments for b in buckets] + [ragged[:, 1:]]
    ).T
    runs_by_lo = np.argsort(s_lo)
    run_k = plan.seg_ptr[s_hi] - plan.seg_ptr[s_lo]
    group_rows = np.diff(plan.group_ptr)
    shape = np.concatenate((
        np.array(
            [(b.n_entries, b.m_max, b.k) for b in buckets], dtype=np.int64
        ).reshape(-1, 3),
        np.stack([
            np.ones(len(ragged), dtype=np.int64),
            group_rows[ragged[:, 0]],
            run_k[sum(n_entries):],
        ], axis=1),
    ))
    t, p = neighbour_pairs(plan.targets, plan.src_points)
    pair, seg = _segment_hits(plan, t, p)
    # The run holding each segment, if any: runs are disjoint.
    at = np.searchsorted(s_lo[runs_by_lo], seg, side="right") - 1
    run = runs_by_lo[np.maximum(at, 0)]
    held = (at >= 0) & (seg < s_hi[run])
    pair, seg, run = pair[held], seg[held], run[held]
    g = np.searchsorted(plan.seg_group_ptr, seg, side="right") - 1
    row = t[pair] - plan.group_ptr[g]
    col = (
        plan.seg_ptr[seg] - plan.seg_ptr[s_lo[run]]
        + p[pair] - plan.seg_src_lo[seg]
    )
    b = block[run]
    _, m_max, k_max = shape[b].T
    m, k = group_rows[g], run_k[run]
    n_rows = 1 + (row == 0) * (m_max - m)
    n_cols = 1 + (col == 0) * (k_max - k)
    n = n_rows * n_cols
    hit = np.repeat(np.arange(len(n)), n)
    r, c = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n),
                     n_cols[hit])
    row = np.where(r == 0, row[hit], m[hit] + r - 1)
    col = np.where(c == 0, col[hit], k[hit] + c - 1)
    flat = (entry[run[hit]] * m_max[hit] + row) * k_max[hit] + col
    return _csr(b[hit], flat, shape.prod(axis=1))
