"""Execution-plan compiler: interaction lists -> flat, backend-ready arrays.

The paper's GPU implementation separates *deciding* the work (tree
traversal, Sec. 2.4) from *doing* it (kernel launches, Sec. 3.2).  This
module is the analogous boundary in the reproduction: it compiles the
per-batch interaction lists into an :class:`ExecutionPlan` -- CSR-style
index arrays plus pre-gathered source buffers -- that the evaluation
backends (:mod:`repro.core.backends`) consume without ever touching the
tree, the moments dictionaries or per-batch python lists again.

Plan anatomy
------------
A plan is a set of *groups*, each owning a contiguous block of target
rows, and per group a run of *segments*, each one simulated kernel launch
against a contiguous block of source rows:

* ``group_ptr[g]:group_ptr[g+1]``     -- target rows of group ``g``;
* ``seg_group_ptr[g]:seg_group_ptr[g+1]`` -- segments of group ``g``;
* ``seg_ptr[s+1] - seg_ptr[s]``       -- source-row count of segment
  ``s`` (*logical* sizes; the physical rows live at
  :meth:`ExecutionPlan.segment_source_range` /
  :meth:`~ExecutionPlan.segment_points` through the per-segment
  ``seg_src_lo`` offsets -- never index ``src_points`` with ``seg_ptr``
  directly);
* ``seg_kind[s]``                     -- launch kind (index into
  ``kind_names``: "approx", "direct", "cluster-cluster", ...).

For the BLTC a group is a target batch and a segment is one
(batch, cluster) pair; the cluster-particle and dual-tree extensions
group by *target cluster* instead, with one segment per contributing
source block -- the same structure serves all three schemes.

Launch metadata (interaction count = group size x segment size, block
count = group size, kind) is fully determined by the index arrays, so
device-cost accounting derives from the plan alone; numerics are layered
on top by whichever backend runs it.  A plan compiled with
``numerics=False`` (model-only mode) carries the index arrays and sizes
but no floating-point buffers -- enough for the timing model at paper
scale without gathering a single coordinate.

``out_index`` maps each target row to a slot of the caller's output
vector (of length ``out_size``); compilers keep ``out_index`` injective
over all target rows, so backends accumulate with a plain fancy-indexed
``+=``.

Source-buffer layout
--------------------
A numerics plan stores its gathered source rows in the **shared**
(de-duplicated) layout, the only one: segments carrying the same
``share_key`` (e.g. the same cluster's Chebyshev grid) point into one
physical copy via the per-segment ``seg_src_lo`` offsets.  The buffers
hold O(distinct source rows) instead of O(total interaction rows) --
60-115x smaller on shared workloads -- and segments added without a
repeated key still take consecutive physical rows, so unshared plans
stay fully contiguous.  (The historical *duplicated* layout, which
materialized every segment's rows once per referencing segment and let
``seg_ptr`` double as the physical offset table, has been retired: it
cost strictly more memory for bitwise-identical results, since the
physical rows are exact copies of the same cluster arrays either way.)

``seg_ptr`` keeps its *logical* cumulative-size meaning (launch
metadata, interaction counts and device cost accounting never consult
the physical offsets); per-segment physical views come from
:meth:`ExecutionPlan.segment_points` / ``segment_weights`` -- never
index ``src_points`` with ``seg_ptr`` directly.  Paper-scale runs
(10^6+ particles) go through model-only plans, which carry no buffers
(and no ``seg_src_lo``) at all.

Geometry vs. weight state
-------------------------
Everything above except ``src_weights`` is *geometry*: it depends only on
the particle positions and the treecode parameters.  The weights (charges
and modified charges) are the only charge-dependent buffer, and they
enter a plan one way only.  Every numerics segment carries a
``share_key``; the plan records ``weight_slots`` -- the ``(key, lo, hi)``
physical row range of every stored segment -- and is built as a
geometry skeleton whose weight buffer is zeroed.
:meth:`ExecutionPlan.refresh_weights` fills that buffer by key, and
overwrites it in place whenever the charges change (the prepare/apply
session seam).

Multi-RHS weight slots: the weight buffer is ``(R,)`` for one charge
vector or ``(R, n_rhs)`` when the provider returns ``(rows, n_rhs)``
blocks -- each per-segment slot then holds ``n_rhs`` columns, column
``j`` being exactly what a single-vector refresh on charge column ``j``
would store.  Only the weight state (plus the batched buckets' gathered
``weights``) widens; geometry stays single-copy, so memory grows by
``n_rhs - 1`` extra weight buffers while one traversal's gather serves
every column.  :meth:`ExecutionPlan.refresh_weights` re-allocates on a
width change and rewrites in place otherwise.

Batched (shape-bucketed) execution layout
-----------------------------------------
The BLTC's far field is thousands of *identically shaped* small
interactions: every approximation segment of a degree-``p`` plan carries
exactly ``(p+1)^3`` source rows.  The near field is *almost* uniform --
per-cluster particle counts vary, so its runs are ragged -- but the same
stacked-GEMM execution applies once the gathered source rows are padded
to a common width with **zero weights**.
:meth:`ExecutionPlan.ensure_batched_layout` -- the one way to get a
layout; the plan evaluator's stacked path calls it on first use,
callers that want the build up front call it themselves -- derives a
:class:`BatchedLayout` covering both from the index arrays, in array
passes rather than a walk over segments.  One pass over ``seg_kind``
and ``seg_group_ptr`` gives the *run table*: every equal-kind run of
every group (a run opens where a group opens or the kind changes), with
its total source rows and whether its segments share one size
(``reduceat``).  A Python loop over the runs -- not the segments --
then sorts them:

* runs whose segments all share one size are classified by the
  signature ``(n_segments, rows_per_segment, kind)`` and collected into
  uniform :class:`BatchedBucket`\\ s;
* every remaining run -- ragged near-field runs, sub-minimum uniform
  leftovers, repeated same-signature runs of one group -- enters a
  per-kind *padded pool*.  Pool entries are sorted by ``(m, k)`` and
  greedily sliced into slabs: an entry joins the open slab while the
  combined stack waste ``1 - sum(m_i k_i) / (n m_max k_max)`` stays
  within :data:`BATCHED_MAX_SOURCE_PADDING_WASTE` (mirroring the 25%
  target-padding rule) and no group repeats inside the slab (the
  single fancy-indexed scatter must stay injective).  Each slab of at
  least :data:`BATCHED_MIN_GROUPS` entries becomes a *padded* bucket;
  smaller slabs fall back to the per-group ``ragged_runs`` list.

Every bucket comes from one materializer in one array pass over its
entries (``np.repeat`` / ``cumsum`` expand segment ranges, then rows).
The memory rule is *per bucket*: transient index arrays never exceed
the largest bucket's own matrices (one expansion over the whole plan
would hold tens of MB of index temporaries on fine plans).
Per bucket the layout stores

* ``tgt_index`` -- a ``(G, m_max)`` target-row matrix, padded per entry
  by repeating the entry's first row (padded positions are excluded from
  the output scatter, so the duplicates are never accumulated);
* ``src_index`` -- a ``(G, k)`` physical source-row gather matrix.
  Padded buckets pad each entry's columns by repeating the entry's
  *first* physical source row: a real, finite coordinate whose kernel
  value is either finite (multiplied by weight zero -> contributes
  exactly ``0.0``) or coincident with a target and patched to zero by
  the kernels' noise-floor rule -- never a NaN;
* ``src_valid`` -- the ``(G, k)`` validity mask of those columns (None
  on uniform buckets, which carry no source padding);
* ``out_slots`` / ``scatter_pos`` -- the flattened valid positions and
  their output slots, so a whole bucket scatters with one fancy ``+=``;
* ``weights`` -- the ``(G, k)`` (or ``(G, k, n_rhs)``) pre-gathered
  weight matrix.  This is the one charge-dependent bucket array:
  :meth:`ExecutionPlan.refresh_weights` rewrites it in place right
  after the flat buffer, so prepared sessions keep working on batched
  plans.  Padded buckets zero-fill the matrix once at allocation (and
  again on any RHS width change) and rewrite only the valid positions
  per refresh, so pad columns stay exactly zero forever.

Memory/padding trade-off: buckets re-materialize their gathered rows as
dense stacks (undoing the shared-source de-duplication for the batched
portion) and pad targets up to ``m_max``.  When target padding alone
would waste more than :data:`BATCHED_MAX_PADDING_WASTE` of a uniform
bucket's rows it is split into equal-``m`` sub-buckets instead; the
padded pool bounds its combined (target + source) stack waste by the
slab rule above.  :meth:`BatchedLayout.coverage` reports the fraction
of plan row slots executed inside buckets (the default benchmark
regimes sit above 0.95), :meth:`BatchedLayout.padding_waste` the
fraction of stacked cells that is padding, and
:meth:`BatchedLayout.padding_nbytes` the bytes those pad slots (plus
masks and scatter maps) take up -- surfaced per session through
``memory_stats()``.  Every ``(group, segment)`` pair lands in exactly
one bucket entry or ragged run, so the layout is a partition of the
plan's work; launch accounting never reads it.

Dynamic geometry and the group-patch invariants
-----------------------------------------------
``update_geometry`` sessions mutate a plan in place along two tiers.
No backend keeps a copy of the plan buffers between executions (the
multiprocessing backend ships them afresh on every execute), so only
the plan's own derived caches need invalidating:

* :meth:`ExecutionPlan.refresh_geometry` -- the common drift step.  The
  *shapes* of all buffers are preserved; ``targets``, ``out_index`` and
  per-slot ``src_points`` rows are rewritten in place, the dtype cast
  cache and the batched buckets' gathered stacks are dropped, and each
  bucket's ``out_slots`` is re-gathered from the new output index.
* :meth:`ExecutionPlan.patch_groups` -- the structural step, taken when
  some groups' segment lists or row counts changed.  The caller
  supplies new ``(out_index, [(kind, share_key), ...])`` descriptions
  for the dirty groups; clean groups' descriptions are read back from
  the existing plan through the ``weight_slots`` offset map.  The CSR
  arrays and buffers are rebuilt by replaying the compile: groups in
  order, segments in order, physical rows assigned at each key's
  *first use* -- which is exactly the order ``compile_plan`` assigns
  them, so the patched physical layout is bitwise what a cold compile
  over the new lists produces.  The float buffers (``targets``,
  ``src_points``, ``src_weights``) come back **zeroed**: a patch MUST
  be followed by :meth:`refresh_geometry` (and the next apply's
  ``refresh_weights`` fills the weights, as after a compile).
  ``weight_slots`` is rebuilt, dropped keys disappear, and the batched
  layout is rebuilt eagerly iff one was attached.  The plan *object*
  is preserved through both tiers.

Both tiers also drop the plan's derived per-geometry state: the
coincident pairs and the :class:`MirrorSchedule`.

Mirrored segments
-----------------
When the targets are the sources, group ``A``'s target rows are
bitwise the rows of one physical source slot, and a direct segment
``(A -> slot of B)`` usually has its mirror ``(B -> slot of A)`` in the
plan: the same kernel matrix, transposed.
:meth:`ExecutionPlan.mirror_schedule` pairs such segments from the
plan's bytes alone -- no tree or driver knowledge -- so an updated
plan and a cold compile of the same geometry pair identically.  It is
built lazily on the first fused execution and is never pickled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .bltc_keys import BLTCSources, batch_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.letree import LocallyEssentialTree
    from ..tree.batches import TargetBatches
    from ..tree.octree import ClusterTree
    from .interaction_lists import InteractionLists
    from .moments import ClusterMoments

__all__ = [
    "BatchedBucket",
    "BatchedLayout",
    "ExecutionPlan",
    "MirrorSchedule",
    "PlanBuilder",
    "build_batched_layout",
    "build_mirror_schedule",
    "compile_plan",
]

#: Maximum fraction of a bucket's padded target rows allowed to be
#: padding; above this the bucket splits into equal-``m`` sub-buckets.
BATCHED_MAX_PADDING_WASTE = 0.25

#: Buckets with fewer entries than this fall back to the ragged
#: per-group path -- a one-entry "batch" only adds gather overhead.
BATCHED_MIN_GROUPS = 2

#: Maximum fraction of a padded bucket's stacked ``(m_max, k_max)``
#: cells allowed to be padding (target pads and zero-weight source pads
#: combined); the greedy slab partition of the ragged pool closes a
#: bucket rather than exceed it.  Mirrors the 25% target-padding rule.
BATCHED_MAX_SOURCE_PADDING_WASTE = 0.25


@dataclass(frozen=True, eq=False)
class BatchedBucket:
    """One uniform-shape bucket of the batched execution layout.

    Uniform buckets hold entries sharing the segment signature
    ``(n_segments, rows_per_segment, kind)``; *padded* buckets (built
    from the ragged pool, ``src_valid is not None``) hold equal-kind
    runs of varying segment shapes whose gathered source rows are
    padded to a common ``k_max`` with zero-weight repeats of each
    entry's first source row.  Either way each entry is one group's
    equal-kind segment run, padded to ``m_max`` target rows.  The index
    matrices and the validity mask are geometry; ``weights`` is the
    single charge-dependent array and is rewritten in place by
    :meth:`ExecutionPlan.refresh_weights`.
    """

    #: Segment kind this bucket evaluates ("approx", "direct", ...).
    kind: str
    #: Segments per entry and rows per segment (the uniform-bucket
    #: signature; both 0 on padded buckets, whose entries mix shapes).
    n_segments: int
    rows_per_segment: int
    #: Padded target rows per entry.
    m_max: int
    #: (G,) plan group index of each entry (diagnostics/tests).
    groups: np.ndarray
    #: (G, m_max) target-row gather matrix; padding repeats the entry's
    #: first row (excluded from the scatter, so never accumulated).
    tgt_index: np.ndarray
    #: (G, k) physical source-row gather matrix (resolved through the
    #: per-segment ``seg_src_lo`` offsets).
    src_index: np.ndarray
    #: (V,) output slots of the valid rows, in row-major bucket order.
    out_slots: np.ndarray
    #: (V,) flat positions of the valid rows in the (G*m_max) result, or
    #: None when the bucket carries no padding (every row is valid).
    scatter_pos: np.ndarray | None
    #: (G, k) pre-gathered float64 weights (charge-dependent).
    weights: np.ndarray
    #: (G, k) bool mask of the valid source columns, or None when the
    #: bucket carries no source padding (uniform-signature buckets).
    #: Pad columns repeat the entry's first source row and hold weight
    #: exactly 0.0 forever.
    src_valid: np.ndarray | None = None
    #: dtype-keyed cache of the gathered (targets, sources) stacks.
    _stacks: dict = field(default_factory=dict, repr=False)
    #: (dtype, chunk)-keyed coincident pairs of the stacks, as the
    #: kernel recorded them; see :meth:`coincident_slot`.
    _coincident: dict = field(default_factory=dict, repr=False)
    #: cached flat source rows of the valid positions (padded buckets).
    _valid_rows: np.ndarray | None = field(default=None, repr=False)

    def __getstate__(self):
        # The stack cache, the coincident pairs found on it and the
        # valid-row gather are process-local (rebuilt on demand from
        # the index matrices); shipping them would duplicate the
        # geometry buffers in every pickle.
        state = self.__dict__.copy()
        state["_stacks"] = {}
        state["_coincident"] = {}
        state["_valid_rows"] = None
        return state

    @property
    def n_entries(self) -> int:
        return int(self.tgt_index.shape[0])

    @property
    def k(self) -> int:
        """Source rows per entry (``n_segments x rows_per_segment``)."""
        return int(self.src_index.shape[1])

    @property
    def is_padded(self) -> bool:
        """True for ragged-pool buckets carrying zero-weight source pads."""
        return self.src_valid is not None

    @property
    def padding_waste(self) -> float:
        """Fraction of the padded target rows that is padding."""
        total = self.n_entries * self.m_max
        return 0.0 if total == 0 else 1.0 - self.out_slots.size / total

    def _entry_rows(self) -> np.ndarray:
        """(G,) valid target rows per entry."""
        if self.scatter_pos is None:
            return np.full(self.n_entries, self.m_max, dtype=np.intp)
        return np.bincount(
            self.scatter_pos // self.m_max, minlength=self.n_entries
        ).astype(np.intp)

    def _entry_cols(self) -> np.ndarray:
        """(G,) valid source columns per entry."""
        if self.src_valid is None:
            return np.full(self.n_entries, self.k, dtype=np.intp)
        return self.src_valid.sum(axis=1).astype(np.intp)

    def stack_cells(self) -> tuple[int, int]:
        """``(real, total)`` cells of the ``(G, m_max, k)`` GEMM stack.

        ``real`` counts the cells backed by actual plan work
        (``sum m_i * k_i``); the difference is padding flops.
        """
        total = self.n_entries * self.m_max * self.k
        real = int(np.dot(self._entry_rows(), self._entry_cols()))
        return real, total

    @property
    def padding_nbytes(self) -> int:
        """Bytes held by pad slots and padding bookkeeping.

        Counts the pad entries of ``tgt_index``, ``src_index`` and
        ``weights`` plus the ``src_valid`` mask and ``scatter_pos`` map
        -- the memory the dense-stack trade-off costs beyond a
        perfectly ragged gather.
        """
        pad_tgt = self.n_entries * self.m_max - self.out_slots.size
        nbytes = pad_tgt * self.tgt_index.itemsize
        if self.scatter_pos is not None:
            nbytes += self.scatter_pos.nbytes
        if self.src_valid is not None:
            rhs = 1 if self.weights.ndim == 2 else int(self.weights.shape[2])
            pad_src = self.src_valid.size - int(self._entry_cols().sum())
            nbytes += self.src_valid.nbytes + pad_src * (
                self.src_index.itemsize + self.weights.itemsize * rhs
            )
        return int(nbytes)

    def stacks(
        self, targets: np.ndarray, src_points: np.ndarray, dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gathered ``(G, m_max, 3)`` target / ``(G, k, 3)`` source stacks.

        Cached per dtype: the gather indices and coordinates are
        geometry, so repeated executions (prepared sessions) reuse the
        stacks untouched.  Pass pre-cast buffers (see
        :meth:`ExecutionPlan.targets_as`) to avoid a second cast pass.
        """
        key = np.dtype(dtype).str
        cached = self._stacks.get(key)
        if cached is None:
            cached = (
                np.ascontiguousarray(targets[self.tgt_index], dtype=dtype),
                np.ascontiguousarray(src_points[self.src_index], dtype=dtype),
            )
            self._stacks[key] = cached
        return cached

    def coincident_slot(self, dtype, lo: int, hi: int) -> dict:
        """Where the kernel keeps the coincident pairs of stack entries
        ``[lo, hi)`` (the ``coincident`` dict of ``potential_batched``,
        with forces on or off).  The chunk is part of the key
        because it sets the noise floor (potential and force chunks
        differ in size, so they keep separate slots); it lives as long
        as the stacks do.
        """
        return self._coincident.setdefault((np.dtype(dtype).str, lo, hi), {})

    def refresh_weights(self, src_weights: np.ndarray) -> None:
        """Re-gather this bucket's weight matrix from the flat buffer.

        A flat buffer of a different RHS width (``(R,)`` vs
        ``(R, n_rhs)``) re-binds the gathered matrix to the new shape
        (``(G, k)`` <-> ``(G, k, n_rhs)``); matching shapes are rewritten
        in place so cached views stay valid between same-width applies.

        Padded buckets rewrite only the valid positions: the pad slots
        were zero-filled at allocation -- and are zero-filled again
        whenever a width change re-allocates the matrix -- so their
        repeated source points contribute exactly ``0.0`` to every
        stacked GEMM, across any sequence of refreshes.
        """
        if self.src_valid is None:
            gathered = src_weights[self.src_index]
            if gathered.shape == self.weights.shape:
                self.weights[...] = gathered
            else:
                object.__setattr__(self, "weights", gathered)
            return
        shape = self.src_index.shape + src_weights.shape[1:]
        if self.weights.shape != shape:
            object.__setattr__(
                self, "weights", np.zeros(shape, dtype=np.float64)
            )
        rows = self._valid_rows
        if rows is None:
            rows = self.src_index[self.src_valid]
            object.__setattr__(self, "_valid_rows", rows)
        self.weights[self.src_valid] = src_weights[rows]

    def refresh_geometry(self, out_index: np.ndarray) -> None:
        """Invalidate after an in-place plan geometry rewrite.

        Drops the gathered coordinate stacks and the coincident pairs
        found on them (they re-gather from the new buffers on the next
        execute) and re-derives ``out_slots`` from the new output index
        -- the gather *indices* are structure and stay valid, but the
        slots they point at may have changed.
        """
        flat = self.tgt_index.reshape(-1)
        rows = flat if self.scatter_pos is None else flat[self.scatter_pos]
        self.out_slots[...] = out_index[rows]
        self._stacks.clear()
        self._coincident.clear()


@dataclass(frozen=True, eq=False)
class BatchedLayout:
    """Shape-bucketed view of a plan: buckets + ragged fallback runs.

    Buckets and ragged runs partition the plan's ``(group, segment)``
    pairs exactly; backends that consume the layout evaluate each bucket
    with stacked batched kernels and the ragged runs through the fused
    per-group arithmetic.
    """

    buckets: tuple[BatchedBucket, ...]
    #: (R, 3) ``[group, seg_lo, seg_hi)`` runs on the per-group path.
    ragged_runs: np.ndarray
    #: Target-row slots evaluated on the per-group ragged path (each
    #: merged run counts its group's rows once).
    ragged_rows: int = 0

    def batched_interactions(self) -> int:
        """Plan kernel evaluations covered by buckets (valid cells only;
        zero-weight pad columns are flops but not plan interactions)."""
        return int(sum(b.stack_cells()[0] for b in self.buckets))

    def coverage(self) -> float:
        """Fraction of the plan's row slots executed inside buckets.

        Row slots count each group's target rows once per equal-kind
        run, matching how both the bucket entries and the ragged
        fallback consume them; 1.0 means no ragged work is left.
        """
        bucketed = int(sum(b.out_slots.size for b in self.buckets))
        total = bucketed + int(self.ragged_rows)
        return 1.0 if total == 0 else bucketed / total

    def padding_waste(self) -> float:
        """Fraction of the buckets' stacked GEMM cells that is padding."""
        real = total = 0
        for b in self.buckets:
            r, t = b.stack_cells()
            real += r
            total += t
        return 0.0 if total == 0 else 1.0 - real / total

    def padding_nbytes(self) -> int:
        """Bytes spent on pad slots and padding bookkeeping (all buckets)."""
        return int(sum(b.padding_nbytes for b in self.buckets))

    def refresh_weights(self, src_weights: np.ndarray) -> None:
        for bucket in self.buckets:
            bucket.refresh_weights(src_weights)

    def refresh_geometry(self, out_index: np.ndarray) -> None:
        for bucket in self.buckets:
            bucket.refresh_geometry(out_index)


#: :attr:`MirrorSchedule.partner` of a segment its own group evaluates.
MIRROR_NONE = -1
#: :attr:`MirrorSchedule.partner` of a segment whose block the mirror
#: segment's group forms and applies back.
MIRROR_SKIP = -2


@dataclass(frozen=True, eq=False)
class MirrorSchedule:
    """Which segments of a plan are each other's mirror.

    Group ``A`` *sits on* source slot ``S_A`` when its target rows are
    bitwise, row for row, the physical rows of that slot
    (``self_lo[A]``).  A segment of ``A`` on ``S_B`` is mirrored when
    group ``B`` has a segment on ``S_A``: both blocks are the same
    kernel matrix, one the transpose of the other.  The lower-numbered
    group forms it and applies it both ways, so its segment records
    ``partner = B`` and ``B``'s records :data:`MIRROR_SKIP`; every other
    segment records :data:`MIRROR_NONE`.  Derived from the plan's
    buffers alone (see :func:`build_mirror_schedule`).
    """

    #: (S,) receiving group of each forward segment, else a MIRROR_ code.
    partner: np.ndarray
    #: (G,) first physical row of the slot each group sits on, or -1.
    self_lo: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(np.count_nonzero(self.partner >= 0))

    def split(self, s_lo: int, s_hi: int):
        """``(own, forward)`` segment lists of a group's segments
        ``[s_lo, s_hi)``, skipped segments left out; None when none of
        them is mirrored (the group then evaluates as compiled)."""
        partner = self.partner[s_lo:s_hi]
        if not np.any(partner != MIRROR_NONE):
            return None
        own = np.flatnonzero(partner == MIRROR_NONE) + s_lo
        forward = np.flatnonzero(partner >= 0) + s_lo
        return own.tolist(), forward.tolist()


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """Flat description of one device's evaluation work.

    The index arrays and gathered geometry are immutable; the weight
    buffer is the one piece of charge-dependent state and may be
    overwritten in place through :meth:`refresh_weights` (never mutate
    ``src_weights`` directly -- the batched layout's gathered bucket
    weights are rewritten alongside it).  ``eq=False`` keeps plans
    comparing and hashing by identity.
    """

    #: Segment-kind vocabulary; ``seg_kind`` indexes into it.
    kind_names: tuple[str, ...]
    #: (G+1,) target-row offsets per group.
    group_ptr: np.ndarray
    #: (G+1,) segment offsets per group.
    seg_group_ptr: np.ndarray
    #: (S,) kind index per segment.
    seg_kind: np.ndarray
    #: (S+1,) source-row offsets per segment.
    seg_ptr: np.ndarray
    #: Length of the output vector the plan accumulates into.
    out_size: int
    #: (T, 3) gathered target coordinates, or None in model-only mode.
    targets: np.ndarray | None = None
    #: (T,) output slot per target row, or None in model-only mode.
    out_index: np.ndarray | None = None
    #: (R, 3) gathered source/grid coordinates, or None in model-only mode.
    src_points: np.ndarray | None = None
    #: (R,) gathered charges/modified charges, or None in model-only mode.
    src_weights: np.ndarray | None = None
    #: (S,) physical start row of each segment in the source buffers, or
    #: None in model-only mode (no buffers to index).  Segments sharing
    #: a ``share_key`` alias the same physical rows.
    seg_src_lo: np.ndarray | None = None
    #: Per *stored* segment ``(share_key, lo, hi)`` physical weight-row
    #: ranges, or None in model-only mode.
    weight_slots: tuple | None = None
    #: Shape-bucketed execution layout, or None until
    #: :meth:`ensure_batched_layout` builds (and caches) it.
    batched_layout: "BatchedLayout | None" = None
    #: dtype-keyed cache of cast copies of the geometry-constant buffers
    #: (targets / src_points); see :meth:`targets_as`.
    _cast_cache: dict = field(default_factory=dict, repr=False)
    #: Coincident target/source pairs of the blocks the in-process
    #: per-group evaluation has met at the current geometry: ``(dtype,
    #: fused r^2?, group, seg_lo, seg_hi)`` -- or ``(dtype, fused r^2?,
    #: group, "mutual")`` for a group reordered by its mirror schedule --
    #: -> the ``coincident`` dict of ``Kernel.potential`` / ``force``.
    #: Filled by the first execution on a geometry (the scan costs ten
    #: times a ``prepare()`` of the paper's test case, so not at compile
    #: time) and emptied with the cast cache; the buckets hold their
    #: own (see :meth:`coincident_nbytes`).
    coincident_cache: dict = field(default_factory=dict, repr=False)
    #: The plan's :class:`MirrorSchedule`, or None until
    #: :meth:`mirror_schedule` derives it (first fused execution on a
    #: geometry); dropped with the coincident pairs.
    _mirrors: "MirrorSchedule | None" = field(default=None, repr=False)

    def __getstate__(self):
        # Cast caches are process-local: unpickled in another process
        # they would be stale-by-identity (no longer views of anything
        # shared) and they double the pickle size for no benefit.  They
        # repopulate lazily on the first mixed-precision execution, as
        # the coincident pairs and the mirror schedule do on the first
        # execution of any kind.
        state = self.__dict__.copy()
        state["_cast_cache"] = {}
        state["coincident_cache"] = {}
        state["_mirrors"] = None
        return state

    # -- structure queries ----------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.group_ptr) - 1

    @property
    def n_segments(self) -> int:
        return len(self.seg_kind)

    @property
    def n_target_rows(self) -> int:
        return int(self.group_ptr[-1])

    @property
    def n_source_rows(self) -> int:
        """Logical source rows (sum of segment sizes; counts aliases)."""
        return int(self.seg_ptr[-1])

    @property
    def has_numerics(self) -> bool:
        return self.src_points is not None

    @property
    def source_buffer_rows(self) -> int:
        """Physical rows actually stored (de-duplicated; <= logical rows)."""
        return 0 if self.src_points is None else int(self.src_points.shape[0])

    def group_size(self, g: int) -> int:
        return int(self.group_ptr[g + 1] - self.group_ptr[g])

    def seg_size(self, s: int) -> int:
        return int(self.seg_ptr[s + 1] - self.seg_ptr[s])

    # -- source-buffer views --------------------------------------------
    def segment_source_range(self, s: int) -> tuple[int, int]:
        """Physical ``[lo, hi)`` row range of segment ``s``."""
        if self.seg_src_lo is None:
            raise ValueError("model-only plan has no source buffers")
        lo = int(self.seg_src_lo[s])
        return lo, lo + self.seg_size(s)

    def segment_points(self, s: int) -> np.ndarray:
        lo, hi = self.segment_source_range(s)
        return self.src_points[lo:hi]

    def segment_weights(self, s: int) -> np.ndarray:
        lo, hi = self.segment_source_range(s)
        return self.src_weights[lo:hi]

    # -- geometry-constant dtype casts ----------------------------------
    def _cast_geometry(self, name: str, arr: np.ndarray, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        if arr.dtype == dt and arr.flags.c_contiguous:
            return arr
        key = (name, dt.str)
        cached = self._cast_cache.get(key)
        if cached is None:
            cached = np.ascontiguousarray(arr, dtype=dt)
            self._cast_cache[key] = cached
        return cached

    def targets_as(self, dtype) -> np.ndarray:
        """The target buffer cast to ``dtype``, cached on the plan.

        Targets are geometry (charge-independent), so prepared sessions
        evaluating in mixed precision pay the cast once instead of
        re-running ``np.ascontiguousarray`` per group on every apply;
        float64 requests return the stored buffer itself.
        """
        return self._cast_geometry("targets", self.targets, dtype)

    def src_points_as(self, dtype) -> np.ndarray:
        """The source-point buffer cast to ``dtype`` (cached; geometry)."""
        return self._cast_geometry("src_points", self.src_points, dtype)

    def coincident_nbytes(self) -> int:
        """Bytes of coincident-pair indices held for this geometry, the
        plan's own and its buckets'."""
        slots = list(self.coincident_cache.values())
        if self.batched_layout is not None:
            for bucket in self.batched_layout.buckets:
                slots.extend(bucket._coincident.values())
        return int(sum(idx.nbytes for slot in slots for idx in slot.values()))

    def mirror_schedule(self) -> "MirrorSchedule":
        """The plan's :class:`MirrorSchedule`, deriving and caching it.

        Geometry, like the coincident pairs: it is read off the current
        buffers on first use and dropped by :meth:`refresh_geometry`,
        :meth:`patch_groups` and pickling.
        """
        if not self.has_numerics:
            raise ValueError("model-only plan has no mirror schedule")
        if self._mirrors is None:
            object.__setattr__(self, "_mirrors", build_mirror_schedule(self))
        return self._mirrors

    # -- batched layout -------------------------------------------------
    def ensure_batched_layout(self) -> "BatchedLayout":
        """The plan's :class:`BatchedLayout`, building and caching it.

        The first call derives it from the index arrays (pure geometry
        -- safe to build at any point of a session, including after
        weight refreshes, since the bucket weight matrices gather from
        the current flat buffer); later calls return the cached layout.
        """
        if not self.has_numerics:
            raise ValueError("model-only plan has no batched layout")
        if self.batched_layout is None:
            object.__setattr__(
                self, "batched_layout", build_batched_layout(self)
            )
        return self.batched_layout

    # -- weight state ---------------------------------------------------
    @property
    def rhs_width(self) -> int | None:
        """RHS columns in the weight buffer: None for ``(R,)``, else n_rhs.

        Distinguishes a 1-D buffer (single-vector execution, the
        default) from a 2-D one -- including the ``(R, 1)`` case, which
        still evaluates through the multi-RHS paths and yields outputs
        with a trailing RHS axis of length one.
        """
        if self.src_weights is None or self.src_weights.ndim == 1:
            return None
        return int(self.src_weights.shape[1])

    def refresh_weights(self, provider) -> None:
        """Overwrite the weight buffer from ``provider``.

        ``provider(share_key)`` must return the weight rows of the
        stored segment registered under that key (a cluster's modified
        charges, a node's particle charges, ...) -- either ``(rows,)``
        for single-vector evaluation or ``(rows, n_rhs)`` for multi-RHS,
        with every slot agreeing on the width.  Every stored segment is
        rewritten, so the buffer afterwards depends on the provider's
        values alone, never on an earlier refresh.

        Multi-RHS widens ``src_weights`` from ``(R,)`` to ``(R, n_rhs)``
        (column ``j`` holding exactly what a single-vector refresh on
        charge column ``j`` would store): the buffer is re-allocated
        whenever the width changes and rewritten in place otherwise.
        Memory scales linearly with ``n_rhs`` (the geometry buffers do
        not), which is the trade-off that lets one traversal's gather
        cost serve every column.  The geometry (targets, points, index
        arrays) is untouched.
        """
        if self.src_weights is None:
            raise ValueError("model-only plan carries no weight buffers")
        w = self.src_weights
        width = None
        first = True
        for key, lo, hi in self.weight_slots:
            arr = np.asarray(provider(key), dtype=np.float64)
            if arr.ndim not in (1, 2):
                raise ValueError(
                    f"weight provider returned a {arr.ndim}-D array for "
                    f"segment {key!r}; expected (rows,) or (rows, n_rhs)"
                )
            if arr.shape[0] != hi - lo:
                raise ValueError(
                    f"weight provider returned {arr.shape[0]} rows for "
                    f"segment {key!r} expecting {hi - lo}"
                )
            slot_width = arr.shape[1] if arr.ndim == 2 else None
            if first:
                first = False
                width = slot_width
                rows = w.shape[0]
                shape = (rows,) if width is None else (rows, width)
                if w.shape != shape:
                    w = np.zeros(shape, dtype=np.float64)
                    object.__setattr__(self, "src_weights", w)
            elif slot_width != width:
                raise ValueError(
                    f"weight provider returned mismatched RHS widths: "
                    f"segment {key!r} carries {slot_width or 1} column(s), "
                    f"earlier segments carried {width or 1}"
                )
            w[lo:hi] = arr
        if self.batched_layout is not None:
            self.batched_layout.refresh_weights(w)

    # -- dynamic geometry -----------------------------------------------
    def refresh_geometry(
        self,
        *,
        targets: np.ndarray | None = None,
        out_index: np.ndarray | None = None,
        src_rows: Sequence[tuple[int, np.ndarray]] = (),
    ) -> None:
        """Rewrite geometry buffers in place (same shapes) and invalidate.

        The in-place tier of a dynamic-geometry update (see the module
        docstring): ``targets`` / ``out_index`` replace the full buffer
        contents, ``src_rows`` is an iterable of ``(lo, values)`` row
        blocks written into ``src_points``.  Shapes must match -- a
        structural change goes through :meth:`patch_groups` first.
        Drops the dtype cast cache, the coincident pairs and the mirror
        schedule, and refreshes the batched buckets' output slots and
        stacks.
        """
        if not self.has_numerics:
            raise ValueError("model-only plan has no geometry buffers")
        if targets is not None:
            self.targets[...] = targets
        if out_index is not None:
            self.out_index[...] = out_index
        for lo, values in src_rows:
            self.src_points[lo:lo + len(values)] = values
        self._cast_cache.clear()
        self.coincident_cache.clear()
        object.__setattr__(self, "_mirrors", None)
        if self.batched_layout is not None:
            self.batched_layout.refresh_geometry(self.out_index)

    def patch_groups(self, updates: dict, key_rows) -> None:
        """Rebuild the plan structure with new descriptions for some groups.

        ``updates`` maps a group index to its new description
        ``(out_index, [(kind_name, share_key), ...])``; every group not
        in it keeps its current output slots and segment list (read back
        through the ``weight_slots`` offset map).  ``key_rows(share_key)``
        returns the physical row count of a stored segment at the *new*
        geometry -- it is consulted for every key, so segments whose
        cluster was resized are sized correctly even in clean groups
        (callers should mark such groups dirty anyway: their stale
        ``out_index`` and float rows are only repaired by the mandatory
        :meth:`refresh_geometry` / weight refresh that must follow,
        which rewrites all of them).  See the module docstring for the
        replay-order invariant that keeps the patched layout bitwise
        equal to a cold compile.
        """
        if not self.has_numerics:
            raise ValueError("model-only plan cannot be patched")
        lo2key = {int(lo): key for key, lo, _hi in self.weight_slots}
        n_groups = self.n_groups
        kind_names = list(self.kind_names)
        kind_index = {k: i for i, k in enumerate(kind_names)}
        group_out: list[np.ndarray] = []
        group_segs: list[list[tuple[str, object]]] = []
        for g in range(n_groups):
            upd = updates.get(g)
            if upd is not None:
                out_idx, segs = upd
                group_out.append(np.asarray(out_idx, dtype=np.intp))
                group_segs.append(list(segs))
                continue
            t_lo, t_hi = int(self.group_ptr[g]), int(self.group_ptr[g + 1])
            group_out.append(self.out_index[t_lo:t_hi].copy())
            group_segs.append([
                (
                    self.kind_names[self.seg_kind[s]],
                    lo2key[int(self.seg_src_lo[s])],
                )
                for s in range(
                    int(self.seg_group_ptr[g]),
                    int(self.seg_group_ptr[g + 1]),
                )
            ])
        # Replay the compile: first-use physical row assignment in
        # (group, segment) order reproduces PlanBuilder's layout.
        seg_kind: list[int] = []
        seg_sizes: list[int] = []
        seg_src_lo: list[int] = []
        segs_per_group: list[int] = []
        ranges: dict = {}
        weight_slots: list[tuple] = []
        phys = 0
        for segs in group_segs:
            segs_per_group.append(len(segs))
            for kind, key in segs:
                rng = ranges.get(key)
                if rng is None:
                    rows = int(key_rows(key))
                    rng = (phys, phys + rows)
                    phys += rows
                    ranges[key] = rng
                    weight_slots.append((key, rng[0], rng[1]))
                lo, hi = rng
                k = kind_index.get(kind)
                if k is None:
                    k = len(kind_names)
                    kind_names.append(kind)
                    kind_index[kind] = k
                seg_kind.append(k)
                seg_sizes.append(hi - lo)
                seg_src_lo.append(lo)
        group_ptr = np.zeros(n_groups + 1, dtype=np.intp)
        np.cumsum([len(o) for o in group_out], out=group_ptr[1:])
        seg_group_ptr = np.zeros(n_groups + 1, dtype=np.intp)
        np.cumsum(segs_per_group, out=seg_group_ptr[1:])
        seg_ptr = np.zeros(len(seg_sizes) + 1, dtype=np.intp)
        np.cumsum(seg_sizes, out=seg_ptr[1:])
        width = self.rhs_width
        set_ = object.__setattr__
        set_(self, "kind_names", tuple(kind_names))
        set_(self, "group_ptr", group_ptr)
        set_(self, "seg_group_ptr", seg_group_ptr)
        set_(self, "seg_kind", np.asarray(seg_kind, dtype=np.intp))
        set_(self, "seg_ptr", seg_ptr)
        set_(self, "out_index", _concat(group_out, (0,), np.intp))
        set_(self, "targets", np.zeros((int(group_ptr[-1]), 3)))
        set_(self, "src_points", np.zeros((phys, 3)))
        set_(
            self,
            "src_weights",
            np.zeros(phys if width is None else (phys, width)),
        )
        set_(self, "seg_src_lo", np.asarray(seg_src_lo, dtype=np.intp))
        set_(self, "weight_slots", tuple(weight_slots))
        self._cast_cache.clear()
        self.coincident_cache.clear()
        set_(self, "_mirrors", None)
        if self.batched_layout is not None:
            set_(self, "batched_layout", None)
            self.ensure_batched_layout()

    def group_kind_runs(self, g: int) -> Iterator[tuple[str, int, int]]:
        """Yield ``(kind, seg_lo, seg_hi)`` runs of equal-kind segments.

        Segments of one group are stored kind-contiguously by the
        builder, so one run per kind is the common case; interleaved
        kinds simply yield more runs (still correct, just more calls).
        The boundaries are :func:`_kind_run_starts`'s, the same rule the
        batched layout's run table uses.
        """
        lo = int(self.seg_group_ptr[g])
        hi = int(self.seg_group_ptr[g + 1])
        starts = _kind_run_starts(
            self.seg_kind[lo:hi], self.seg_group_ptr[g:g + 2] - lo
        )
        bounds = (starts + lo).tolist() + [hi]
        for s, e in zip(bounds[:-1], bounds[1:]):
            yield self.kind_names[self.seg_kind[s]], s, e

    def segment_counts_by_kind(self) -> dict[str, int]:
        """Number of segments (== simulated launches) per kind."""
        counts = np.bincount(self.seg_kind, minlength=len(self.kind_names))
        return {
            name: int(c) for name, c in zip(self.kind_names, counts) if c
        }

    def interactions_total(self) -> float:
        """Total kernel evaluations charged by this plan."""
        sizes = np.diff(self.seg_ptr).astype(np.float64)
        groups = np.repeat(
            np.diff(self.group_ptr).astype(np.float64),
            np.diff(self.seg_group_ptr),
        )
        return float(np.dot(sizes, groups))


def _kind_run_starts(seg_kind, seg_group_ptr) -> np.ndarray:
    """First segment of every equal-kind run, in segment order.

    A segment opens a run when it opens its group or its kind differs
    from the previous segment's -- the one run-boundary rule, shared by
    :meth:`ExecutionPlan.group_kind_runs` and the layout's run table.
    """
    n = len(seg_kind)
    opens = np.ones(n, dtype=bool)
    np.not_equal(seg_kind[1:], seg_kind[:-1], out=opens[1:])
    firsts = seg_group_ptr[:-1]
    opens[firsts[firsts < n]] = True
    return np.flatnonzero(opens)


def _concat_ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l, l + c) for l, c in zip(lo, counts)])``
    as one array pass."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(lo - offsets, counts) + np.arange(counts.sum())


def _build_bucket(
    plan: ExecutionPlan, kind: str, entries, n_segments=0, rows_per_segment=0
) -> BatchedBucket:
    """Materialize one bucket from its ``(k, m, g, t_lo, s_lo, s_hi)``
    entries (one equal-kind run each: ``k`` source rows, ``m`` target
    rows from ``t_lo``, segments ``[s_lo, s_hi)``).

    Array passes over this bucket's entries alone, so transient index
    arrays never exceed the bucket's own matrices.  Target pads repeat
    the entry's first row; source columns past an entry's ``k`` repeat
    its first physical source row, whose zero weight makes the pad
    contribute exactly ``0.0``.  Equal-``k`` entries (every uniform
    bucket) carry no source padding and no mask.
    """
    e = np.array(entries, dtype=np.intp)
    k_sizes, m_sizes, t_lo, s_lo, s_hi = (e[:, i] for i in (0, 1, 3, 4, 5))
    n = len(entries)
    k_max, m_max = int(k_sizes.max()), int(m_sizes.max())
    rows = np.arange(m_max)
    tgt_valid = rows < m_sizes[:, None]
    tgt_index = np.where(tgt_valid, t_lo[:, None] + rows, t_lo[:, None])
    if int(m_sizes.min()) == m_max:
        scatter_pos = None
        flat_rows = tgt_index.reshape(-1)
    else:
        scatter_pos = np.flatnonzero(tgt_valid)
        flat_rows = tgt_index.reshape(-1)[scatter_pos]
    # Each entry's segments, then each segment's physical rows: the
    # valid source columns of the bucket in row-major order.
    segs = _concat_ranges(s_lo, s_hi - s_lo)
    sizes = plan.seg_ptr[segs + 1] - plan.seg_ptr[segs]
    src_rows = _concat_ranges(plan.seg_src_lo[segs], sizes)
    if int(k_sizes.min()) == k_max:
        src_index = src_rows.reshape(n, k_max)
        src_valid = None
        weights = plan.src_weights[src_index]
    else:
        src_valid = np.arange(k_max) < k_sizes[:, None]
        src_index = np.empty((n, k_max), dtype=np.intp)
        src_index[src_valid] = src_rows
        src_index[~src_valid] = np.repeat(src_index[:, 0], k_max - k_sizes)
        weights = np.zeros(
            src_index.shape + plan.src_weights.shape[1:], dtype=np.float64
        )
        weights[src_valid] = plan.src_weights[src_rows]
    return BatchedBucket(
        kind=kind,
        n_segments=n_segments,
        rows_per_segment=rows_per_segment,
        m_max=m_max,
        groups=np.ascontiguousarray(e[:, 2]),
        tgt_index=tgt_index,
        src_index=src_index,
        out_slots=plan.out_index[flat_rows],
        scatter_pos=scatter_pos,
        weights=weights,
        src_valid=src_valid,
    )


def _partition_padded_pool(entries):
    """Greedy slab partition of one kind's ragged pool.

    ``entries`` are ``(k, m, g, t_lo, s_lo, s_hi)`` tuples; they are
    sorted by ``(m, k)`` so similarly shaped runs sit adjacent (target
    counts cluster around the batch-size cap while source counts spread
    widely, so majoring on ``m`` keeps both paddings small), then
    sliced into slabs: an entry joins the open slab while the combined
    stack waste ``1 - sum(m_i k_i) / (n m_max k_max)`` stays within
    :data:`BATCHED_MAX_SOURCE_PADDING_WASTE` and its group is not
    already in the slab (the bucket scatter must stay injective).
    Uniform same-shape runs are the zero-waste special case, so this
    rule subsumes an equal-``k`` split.  Entries stranded by a slab
    boundary are re-swept until no new slab forms; the rest return as
    leftovers for the ragged path (always fewer than
    :data:`BATCHED_MIN_GROUPS` per surviving shape).
    """
    slabs: list[list] = []
    remaining = sorted(entries, key=lambda e: (e[1], e[0], e[2]))
    while remaining:
        leftovers: list = []
        slab: list = []
        groups: set = set()
        m_max = k_max = area = 0

        def flush():
            nonlocal slab, groups, m_max, k_max, area
            if len(slab) >= BATCHED_MIN_GROUPS:
                slabs.append(slab)
            else:
                leftovers.extend(slab)
            slab, groups = [], set()
            m_max = k_max = area = 0

        for e in remaining:
            k, m, g = e[0], e[1], e[2]
            if slab:
                nm, nk = max(m_max, m), max(k_max, k)
                n = len(slab) + 1
                waste = 1.0 - (area + m * k) / (n * nm * nk)
                if g in groups or waste > BATCHED_MAX_SOURCE_PADDING_WASTE:
                    flush()
            slab.append(e)
            groups.add(g)
            m_max, k_max = max(m_max, m), max(k_max, k)
            area += m * k
        flush()
        if len(leftovers) == len(remaining):
            return slabs, leftovers
        remaining = leftovers
    return slabs, []


def _run_table(plan: ExecutionPlan) -> np.ndarray:
    """The ``(R, 8)`` table of the plan's live equal-kind runs.

    One row per run, in (group, segment) order: ``(k, m, g, t_lo, s_lo,
    s_hi, kind, size)`` -- total source rows, target rows, group, first
    target row, segment range, kind index, and the common size of its
    segments (0 when the sizes differ or are 0).  Runs without targets
    or without sources contribute nothing and are left out.
    """
    seg_sizes = np.diff(plan.seg_ptr)
    s_lo = _kind_run_starts(plan.seg_kind, plan.seg_group_ptr)
    size_max = np.maximum.reduceat(seg_sizes, s_lo)
    size_min = np.minimum.reduceat(seg_sizes, s_lo)
    group = np.searchsorted(plan.seg_group_ptr, s_lo, side="right") - 1
    t_lo = plan.group_ptr[group]
    table = np.stack([
        np.add.reduceat(seg_sizes, s_lo),
        plan.group_ptr[group + 1] - t_lo,
        group,
        t_lo,
        s_lo,
        np.append(s_lo, plan.n_segments)[1:],
        plan.seg_kind[s_lo],
        np.where(size_max == size_min, size_min, 0),
    ], axis=1)
    return table[(table[:, 0] > 0) & (table[:, 1] > 0)]


def build_batched_layout(plan: ExecutionPlan) -> BatchedLayout:
    """Bucket every equal-kind segment run of the plan, padded or not.

    Pure geometry: derived entirely from the index arrays, the output
    index and the gathered coordinates (the bucket weight matrices are
    gathered from the current flat weight buffer and rewritten by every
    weight refresh).  The runs come from :func:`_run_table` and each
    bucket from :func:`_build_bucket`, one array pass each; only the
    sort of runs into buckets loops in Python, once per run.
    Runs whose segments all share one size are bucketed under
    ``(n_segments, rows_per_segment, kind)``; a bucket whose single
    ``m_max`` padding would waste more than
    :data:`BATCHED_MAX_PADDING_WASTE` of its target rows is split into
    equal-``m`` sub-buckets.  Everything else
    -- ragged runs (unequal segment sizes, the near field), sub-minimum
    uniform leftovers, and repeated same-signature runs within one group
    (which would collide in a bucket's single fancy-indexed scatter) --
    enters a per-kind pool that :func:`_partition_padded_pool` slices
    into zero-weight-padded buckets under
    :data:`BATCHED_MAX_SOURCE_PADDING_WASTE`.  Only pool slabs below
    :data:`BATCHED_MIN_GROUPS` fall back to the per-group
    ``ragged_runs`` path.
    """
    if not plan.has_numerics:
        raise ValueError("model-only plan has no batched layout")
    by_sig: dict = {}
    pool: dict[str, list] = {}
    ragged: list[tuple[int, int, int]] = []
    for row in _run_table(plan).tolist():
        entry, kind, size = tuple(row[:6]), plan.kind_names[row[6]], row[7]
        if size:
            sig = (entry[5] - entry[4], size, kind)
            entries = by_sig.setdefault(sig, [])
            # A second same-signature run of one group (interleaved
            # kinds) cannot share the first run's bucket scatter; the
            # pool's per-slab group guard handles it instead.
            if not entries or entries[-1][2] != entry[2]:
                entries.append(entry)
                continue
        pool.setdefault(kind, []).append(entry)
    buckets = []
    for sig in sorted(by_sig, key=lambda s: (s[2], s[0], s[1])):
        n_seg, seg_size, kind = sig
        entries = by_sig[sig]
        m_sizes = np.array([e[1] for e in entries], dtype=np.intp)
        m_max = int(m_sizes.max())
        waste = 1.0 - float(m_sizes.sum()) / (len(entries) * m_max)
        if waste > BATCHED_MAX_PADDING_WASTE:
            sub: dict[int, list] = {}
            for e in entries:
                sub.setdefault(e[1], []).append(e)
            partitions = [sub[m] for m in sorted(sub)]
        else:
            partitions = [entries]
        for part in partitions:
            if len(part) < BATCHED_MIN_GROUPS:
                # Too few same-shape runs to stack alone; let the padded
                # pool absorb them next to similarly sized ragged work.
                pool.setdefault(kind, []).extend(part)
            else:
                buckets.append(
                    _build_bucket(plan, kind, part, n_seg, seg_size)
                )
    for kind in sorted(pool):
        slabs, leftovers = _partition_padded_pool(pool[kind])
        for slab in slabs:
            buckets.append(_build_bucket(plan, kind, slab))
        ragged.extend((e[2], e[4], e[5]) for e in leftovers)
    ragged.sort()
    # Merge segment-adjacent runs of one group: a group none of whose
    # runs bucketed then costs exactly one fused-style accumulation
    # (the per-group evaluator ignores kind boundaries), instead of one
    # call per kind run.
    merged: list[tuple[int, int, int]] = []
    for g, s_lo, s_hi in ragged:
        if merged and merged[-1][0] == g and merged[-1][2] == s_lo:
            merged[-1] = (g, merged[-1][1], s_hi)
        else:
            merged.append((g, s_lo, s_hi))
    return BatchedLayout(
        buckets=tuple(buckets),
        ragged_runs=np.array(merged, dtype=np.intp).reshape(-1, 3),
        ragged_rows=int(sum(plan.group_size(g) for g, _, _ in merged)),
    )


def build_mirror_schedule(plan: ExecutionPlan) -> MirrorSchedule:
    """Pair the plan's mirrored segments from its buffers alone.

    A group sits on a slot when its target rows and the slot's source
    rows have identical bytes; only one-to-one matches count (a
    duplicated point set matches nothing), and a pair needs each of its
    two segments exactly once, so every block is applied at most once
    per direction.  No tree or driver knowledge enters: a plan whose
    targets are not its sources (disjoint targets, most LET and
    extension plans) gets an empty schedule.
    """
    n_groups = plan.n_groups
    group_ptr = plan.group_ptr.tolist()
    seg_lo = plan.seg_src_lo.tolist()
    seg_rows = np.diff(plan.seg_ptr).tolist()
    partner = np.full(plan.n_segments, MIRROR_NONE, dtype=np.intp)
    self_lo = np.full(n_groups, -1, dtype=np.intp)
    sizes = {group_ptr[g + 1] - group_ptr[g] for g in range(n_groups)}
    sizes.discard(0)
    slots: dict[bytes, list[int]] = {}
    for lo, rows in set(zip(seg_lo, seg_rows)):
        if rows in sizes:
            key = plan.src_points[lo:lo + rows].tobytes()
            slots.setdefault(key, []).append(lo)
    groups: dict[bytes, list[int]] = {}
    for g in range(n_groups):
        if group_ptr[g + 1] > group_ptr[g]:
            key = plan.targets[group_ptr[g]:group_ptr[g + 1]].tobytes()
            if key in slots:
                groups.setdefault(key, []).append(g)
    for key, gs in groups.items():
        if len(gs) == 1 and len(slots[key]) == 1:
            self_lo[gs[0]] = slots[key][0]
    sits_on = self_lo.tolist()
    group_on = {lo: g for g, lo in enumerate(sits_on) if lo >= 0}
    seg_group = np.repeat(
        np.arange(n_groups), np.diff(plan.seg_group_ptr)
    ).tolist()
    uses = Counter(zip(seg_group, seg_lo))
    for s, (a, lo) in enumerate(zip(seg_group, seg_lo)):
        b = group_on.get(lo)
        if b is None or b == a or sits_on[a] < 0:
            continue
        if uses[a, lo] == 1 and uses[b, sits_on[a]] == 1:
            partner[s] = b if a < b else MIRROR_SKIP
    return MirrorSchedule(partner=partner, self_lo=self_lo)


class PlanBuilder:
    """Incrementally assemble an :class:`ExecutionPlan` skeleton.

    ``numerics=True`` expects every group to supply its targets and
    output indices and every segment a ``share_key``, plus the source
    points the first time the key appears; ``False`` expects only sizes
    and builds a structure-only plan for model-mode backends.  Add
    segments of one group kind-contiguously so backends get one run per
    kind.

    The source buffers are always de-duplicated: segments added with
    the same ``share_key`` store their rows once and alias them through
    per-segment offsets.  Callers skip gathering a repeated key's
    points by checking :meth:`has_shared` first.

    The built plan is a geometry skeleton: its weight buffer is zeroed,
    and :meth:`ExecutionPlan.refresh_weights` fills it by share key --
    the one way weights enter a plan.
    """

    def __init__(self, out_size: int, *, numerics: bool = True) -> None:
        self.out_size = int(out_size)
        self.numerics = bool(numerics)
        self._kind_names: list[str] = []
        self._kind_index: dict[str, int] = {}
        self._group_sizes: list[int] = []
        self._segs_per_group: list[int] = []
        self._seg_kind: list[int] = []
        self._seg_sizes: list[int] = []
        self._targets: list[np.ndarray] = []
        self._out_index: list[np.ndarray] = []
        self._src_points: list[np.ndarray] = []
        #: share_key -> (lo, hi) physical row range already stored.
        self._shared_ranges: dict = {}
        self._seg_src_lo: list[int] = []
        self._phys_rows = 0
        #: (share_key, lo, hi) per stored segment (weight-refresh map).
        self._weight_slots: list[tuple] = []

    # ------------------------------------------------------------------
    def add_group(
        self,
        *,
        size: int | None = None,
        targets: np.ndarray | None = None,
        out_index: np.ndarray | None = None,
    ) -> int:
        """Open a new group; returns its index."""
        if self.numerics:
            if targets is None or out_index is None:
                raise ValueError(
                    "numerics plan requires targets and out_index per group"
                )
            self._targets.append(targets)
            self._out_index.append(out_index)
            size = targets.shape[0]
        elif size is None:
            raise ValueError("model plan requires the group size")
        self._group_sizes.append(int(size))
        self._segs_per_group.append(0)
        return len(self._group_sizes) - 1

    def has_shared(self, share_key) -> bool:
        """True when ``share_key``'s rows are already in the buffers."""
        return share_key in self._shared_ranges

    def add_segment(
        self,
        kind: str,
        *,
        size: int | None = None,
        points: np.ndarray | None = None,
        share_key=None,
    ) -> None:
        """Append one launch segment to the most recent group.

        ``share_key`` (hashable, e.g. ``("approx", owner, cluster)``)
        names the segment's source rows; a repeated key aliases the
        first copy and ``points`` may be omitted.
        """
        if not self._group_sizes:
            raise ValueError("add_group must be called before add_segment")
        if self.numerics:
            if share_key is None:
                raise ValueError(
                    "a numerics segment needs a share_key: "
                    "refresh_weights locates its rows by it"
                )
            rng = self._shared_ranges.get(share_key)
            if rng is None:
                if points is None:
                    raise ValueError(
                        "numerics plan requires points for a new share_key"
                    )
                self._src_points.append(points)
                lo = self._phys_rows
                self._phys_rows = lo + int(points.shape[0])
                rng = self._shared_ranges[share_key] = (lo, self._phys_rows)
                self._weight_slots.append((share_key, *rng))
            lo, hi = rng
            self._seg_src_lo.append(lo)
            size = hi - lo
        elif size is None:
            raise ValueError("model plan requires the segment size")
        k = self._kind_index.get(kind)
        if k is None:
            k = len(self._kind_names)
            self._kind_names.append(kind)
            self._kind_index[kind] = k
        self._seg_kind.append(k)
        self._seg_sizes.append(int(size))
        self._segs_per_group[-1] += 1

    # ------------------------------------------------------------------
    def build(self) -> ExecutionPlan:
        group_ptr = np.zeros(len(self._group_sizes) + 1, dtype=np.intp)
        np.cumsum(self._group_sizes, out=group_ptr[1:])
        seg_group_ptr = np.zeros(len(self._group_sizes) + 1, dtype=np.intp)
        np.cumsum(self._segs_per_group, out=seg_group_ptr[1:])
        seg_ptr = np.zeros(len(self._seg_sizes) + 1, dtype=np.intp)
        np.cumsum(self._seg_sizes, out=seg_ptr[1:])
        targets = out_index = src_points = src_weights = seg_src_lo = None
        weight_slots = None
        if self.numerics:
            targets = _concat(self._targets, (0, 3), np.float64)
            out_index = _concat(self._out_index, (0,), np.intp)
            src_points = _concat(self._src_points, (0, 3), np.float64)
            src_weights = np.zeros(self._phys_rows, dtype=np.float64)
            seg_src_lo = np.asarray(self._seg_src_lo, dtype=np.intp)
            weight_slots = tuple(self._weight_slots)
        return ExecutionPlan(
            kind_names=tuple(self._kind_names),
            group_ptr=group_ptr,
            seg_group_ptr=seg_group_ptr,
            seg_kind=np.asarray(self._seg_kind, dtype=np.intp),
            seg_ptr=seg_ptr,
            out_size=self.out_size,
            targets=targets,
            out_index=out_index,
            src_points=src_points,
            src_weights=src_weights,
            seg_src_lo=seg_src_lo,
            weight_slots=weight_slots,
        )


def _concat(arrays: Sequence[np.ndarray], empty_shape, dtype) -> np.ndarray:
    if not arrays:
        return np.empty(empty_shape, dtype=dtype)
    return np.ascontiguousarray(np.concatenate(arrays, axis=0), dtype=dtype)


def compile_plan(
    tree: "ClusterTree",
    batches: "TargetBatches",
    moments: "ClusterMoments",
    lists: "InteractionLists",
    *,
    numerics: bool = True,
    let: "LocallyEssentialTree | None" = None,
) -> ExecutionPlan:
    """Compile the BLTC's (tree, batches, moments, lists) into a plan.

    One group per target batch; per group first the approximation
    segments (cluster Chebyshev points, eq. 11), then the direct
    segments (cluster source particles, eq. 9), in interaction-list
    order -- exactly the launch sequence of the paper's compute phase.
    With ``numerics=False`` only the index structure is compiled
    (model-only mode; segment sizes come from the tree metadata, no
    particle data is gathered).

    ``let`` -- a rank's locally essential tree -- compiles a distributed
    rank plan: each remote rank's clusters join the batch's segments in
    the merge order of :func:`~repro.core.bltc_keys.batch_keys` (local
    approx, remote approx by ascending rank, local direct, remote
    direct).  A single device is the rank without one.

    The plan is a geometry skeleton: each segment's share key is its
    :mod:`~repro.core.bltc_keys` key, each cluster's rows are stored
    once however many batches reference it, and the weight buffer
    stays zeroed until :meth:`ExecutionPlan.refresh_weights` fills it
    (a session does so through
    :class:`~repro.core.bltc_keys.BLTCWeightSource`).  ``moments``
    needs only its grids.
    """
    sources = BLTCSources(tree, moments, let)
    builder = PlanBuilder(batches.n_targets, numerics=numerics)
    for b in range(len(batches)):
        if numerics:
            builder.add_group(
                targets=batches.batch_points(b),
                out_index=batches.batch_indices(b),
            )
        else:
            builder.add_group(size=batches.batch(b).count)
        for key in batch_keys(lists, b, let):
            if not numerics:
                builder.add_segment(key[0], size=sources.rows(key))
            elif builder.has_shared(key):
                builder.add_segment(key[0], share_key=key)
            else:
                builder.add_segment(
                    key[0], points=sources.points(key), share_key=key
                )
    return builder.build()
