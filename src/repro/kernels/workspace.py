"""Reusable scratch buffers for the blocked kernel evaluations.

The fused and batched evaluators call the two kernel drivers
(``Kernel.potential`` per row block, ``RadialKernel.potential_batched``
per bucket chunk) thousands of times per execute, and every block
needs the same few ``(m, k)`` (or stacked ``(g, m, k)``) arrays:
``r^2`` (``r`` after the in-place sqrt), ``g`` and, with forces,
``g'(r)/r``, which the force contraction reads in place.  Allocating
them per block is what the GPU avoids by launching into device arrays
allocated once; on the CPU a fresh multi-MB array costs about as much
as a few elementwise passes over it, because the freed pages go back
to the OS and fault back in on the next block.

A :class:`Workspace` holds one flat buffer per ``(slot, dtype)`` and
hands out C-contiguous views of its leading elements, so consecutive
blocks reuse the same memory.  A driver handed a workspace takes its
arrays from the slots ``"r2"`` (the fused r^2; the reference r^2,
``fused=False``, allocates its own), ``"g"`` and ``"f"``, and passes the
factor buffers to ``RadialKernel.evaluate_radial`` as its ``out``.  A
workspace lives for one execute and is freed when it returns.  Before
the first block, the evaluator :meth:`~Workspace.reserve` s the element
count of the largest block the plan will form (every slot of a block
has that block's shape), so each slot is allocated once, at its final
size, on the first execute as on every later one.

A workspace belongs to one thread at a time.  Both paths of the plan
evaluator run one per worker thread: the calling thread reserves each
and :meth:`~Workspace.allocate` s the kernel's slots
(``Kernel.workspace_slots``) before the workers start
(:func:`~repro.core.backends.groupeval.worker_workspaces`), so no
worker allocates scratch, and each extra worker adds one set of slots
at the plan's largest row block or bucket chunk.

Writing into a view is elementwise the same arithmetic as writing into
a fresh array (the ufuncs and GEMMs take ``out=``), so results are
bitwise independent of whether a workspace is passed.  A radial kernel
whose ``evaluate_radial`` ignores ``out`` (the default built from
``evaluate_r`` / ``evaluate_dr_over_r``) still allocates its factors.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "take"]


class Workspace:
    """Named flat buffers, one per ``(slot, dtype)``, reused across blocks."""

    def __init__(self) -> None:
        #: Elements each slot's buffer is allocated with at least.
        self.capacity = 0
        self._buffers: dict = {}
        #: ``(slot, dtype.str)`` -> buffers allocated for it so far.
        self.allocations: dict = {}

    def reserve(self, n_elements: int) -> None:
        """Size every slot allocated from now on for ``n_elements``: the
        largest block the caller is about to evaluate."""
        self.capacity = max(self.capacity, int(n_elements))

    def take(self, slot: str, shape: tuple, dtype) -> np.ndarray:
        """A C-contiguous ``shape`` view of the ``(slot, dtype)`` buffer.

        The view overwrites whatever the slot's previous view held, so a
        caller is done with a slot's block before it takes the slot
        again.  The buffer is (re)allocated only when it is smaller than
        ``shape`` needs, at no less than the reserved capacity.
        """
        dtype = np.dtype(dtype)
        n = math.prod(shape)
        buf = self._buffers.get((slot, dtype.str))
        if buf is None or buf.size < n:
            buf = self._allocate(slot, dtype, n)
        return buf[:n].reshape(shape)

    def allocate(self, slots, dtype=np.float64) -> None:
        """Allocate each of ``slots`` now, at the reserved capacity, so a
        later :meth:`take` of at most that size allocates nothing."""
        dtype = np.dtype(dtype)
        for slot in slots:
            buf = self._buffers.get((slot, dtype.str))
            if self.capacity and (buf is None or buf.size < self.capacity):
                self._allocate(slot, dtype, 0)

    def _allocate(self, slot: str, dtype: np.dtype, n: int) -> np.ndarray:
        key = (slot, dtype.str)
        buf = self._buffers[key] = np.empty(max(n, self.capacity), dtype)
        self.allocations[key] = self.allocations.get(key, 0) + 1
        return buf


def take(workspace: Workspace | None, slot: str, shape: tuple, dtype):
    """:meth:`Workspace.take`, or None without a workspace (the caller's
    ``out=None`` then allocates as before)."""
    if workspace is None:
        return None
    return workspace.take(slot, shape, dtype)
