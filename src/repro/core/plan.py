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
60-115x smaller on shared workloads -- and keys take consecutive
physical rows in first-use order, so unshared plans stay fully
contiguous.  (The historical *duplicated* layout, which materialized
every segment's rows once per referencing segment and let ``seg_ptr``
double as the physical offset table, has been retired: it cost
strictly more memory for bitwise-identical results, since the
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
width change and rewrites in place otherwise.  Multi-RHS weight buffers
are RHS-major (:func:`weight_buffer`): each column ``[..., j]`` is
contiguous, so the per-column GEMVs that keep column ``j`` bitwise a
solo apply's read it without a copy.

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

Building a plan
---------------
:func:`assemble_plan` is the one way a plan is built.  It takes flat
arrays -- group sizes, per-segment group, kind and integer *key code*
(the source rows a segment reads), per-key row counts and, for a
numerics plan, the targets, output slots and a per-key point gather --
and lays the buffers out in array passes: one ``np.unique`` pass finds
each key's first use in (group, segment) order, and keys take
consecutive physical rows in that order.  ``kind_names`` lists the
used kinds in first-use order.  :func:`compile_plan` (the BLTC, single
device or distributed rank) and the two extension schemes' compilers
each turn their interaction structure into those arrays and call it.

Dynamic geometry
----------------
A plan is never patched.  ``update_geometry`` re-bins the trees and
patches the interaction lists incrementally, then compiles a fresh
plan from them (:class:`~repro.core.dynamic.TreecodeGeometryUpdater`)
-- so an updated plan is a cold compile of the session's state by
construction.  Everything derived from a plan's geometry (the batched
layout, the bucket stacks, the coincidence candidates of
:mod:`repro.core.coincidence`, the :class:`MirrorSchedule`) is built
lazily on the new plan and dies with the old one.

Mirrored segments
-----------------
When the targets are the sources, group ``A``'s target rows are
bitwise the rows of one physical source slot, and a direct segment
``(A -> slot of B)`` usually has its mirror ``(B -> slot of A)`` in the
plan: the same kernel matrix, transposed.
:meth:`ExecutionPlan.mirror_schedule` pairs such segments from the
plan's bytes alone -- no tree or driver knowledge -- so an updated
plan and a cold compile of the same geometry pair identically.  It
also stores the order each group evaluates its segments in
(:func:`evaluation_order`), which the per-group evaluator and the
group candidates read.  It is built lazily on the first fused
execution and is never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..util import concat_ranges
from .bltc_keys import LOCAL, BLTCSources

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
    "assemble_plan",
    "build_batched_layout",
    "build_mirror_schedule",
    "compile_plan",
    "evaluation_order",
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


def weight_buffer(rows_shape: tuple, like: np.ndarray) -> np.ndarray:
    """Zeros of shape ``rows_shape`` plus ``like``'s RHS axis, if any.

    With an RHS axis the buffer is RHS-major: every column ``[..., j]``
    is one contiguous block, so the per-column GEMVs read it without a
    copy.  Only the memory order differs from a row-major buffer.
    """
    if like.ndim == 1:
        return np.zeros(rows_shape, dtype=np.float64)
    buf = np.zeros((like.shape[-1],) + tuple(rows_shape), dtype=np.float64)
    return np.moveaxis(buf, 0, -1)


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
    #: (G, 2) ``[seg_lo, seg_hi)`` plan segments of each entry's run.
    segments: np.ndarray
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
    #: cached gathered ``(targets, sources)`` stacks, or None.
    _stacks: tuple | None = field(default=None, repr=False)
    #: cached flat source rows of the valid positions (padded buckets).
    _valid_rows: np.ndarray | None = field(default=None, repr=False)

    def __getstate__(self):
        # The stack cache and the valid-row gather are process-local
        # (rebuilt on demand from the index matrices); shipping them
        # would duplicate the geometry buffers in every pickle.
        state = self.__dict__.copy()
        state["_stacks"] = None
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
        self, targets: np.ndarray, src_points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gathered ``(G, m_max, 3)`` target / ``(G, k, 3)`` source stacks.

        Cached: the gather indices and coordinates are geometry, so
        repeated executions (prepared sessions) reuse the stacks
        untouched.
        """
        if self._stacks is None:
            object.__setattr__(self, "_stacks", (
                targets[self.tgt_index], src_points[self.src_index]
            ))
        return self._stacks

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
        shape = self.src_index.shape + src_weights.shape[1:]
        if self.weights.shape != shape:
            buf = weight_buffer(self.src_index.shape, src_weights)
            object.__setattr__(self, "weights", buf)
        if self.src_valid is None:
            self.weights[...] = src_weights[self.src_index]
            return
        rows = self._valid_rows
        if rows is None:
            rows = self.src_index[self.src_valid]
            object.__setattr__(self, "_valid_rows", rows)
        self.weights[self.src_valid] = src_weights[rows]


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

    The schedule also stores the order a group evaluates its segments
    in, once per geometry: its unmirrored segments in plan order, then
    its forward ones, the skipped ones left out -- group ``g``'s are
    ``order[order_ptr[g]:order_ptr[g + 1]]``.  The forward segments so
    form one trailing column block of the group's kernel matrix.  A
    group's forward partners are distinct and differ from the group,
    and each forward segment's rows are its partner's target rows, so
    the block's transpose lands on every partner row exactly once.
    """

    #: (S,) receiving group of each forward segment, else a MIRROR_ code.
    partner: np.ndarray
    #: (G,) first physical row of the slot each group sits on, or -1.
    self_lo: np.ndarray
    #: (L,) the live segments, group by group in evaluation order.
    order: np.ndarray
    #: (G+1,) offsets of each group's segments in :attr:`order`.
    order_ptr: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(np.count_nonzero(self.partner >= 0))


def evaluation_order(seg_group_ptr, mirrors=None):
    """``(order, order_ptr)``: each group's segments in the order the
    per-group evaluator forms them -- ``mirrors``' stored order, or
    without a schedule every segment in plan order."""
    if mirrors is None:
        return np.arange(seg_group_ptr[-1]), seg_group_ptr
    return mirrors.order, mirrors.order_ptr


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
    #: Candidate coincident entries of the blocks the plan evaluator
    #: forms: one
    #: :class:`~repro.core.coincidence.BlockCandidates` for the
    #: per-group path (see :meth:`group_candidates`) and one for the
    #: batched layout (:meth:`layout_candidates`).  Derived by the first
    #: execution on a geometry and dropped by pickling.
    _candidates: dict = field(default_factory=dict, repr=False)
    #: The plan's :class:`MirrorSchedule`, or None until
    #: :meth:`mirror_schedule` derives it (first fused execution on a
    #: geometry); dropped with the candidates.
    _mirrors: "MirrorSchedule | None" = field(default=None, repr=False)

    def __getstate__(self):
        # The candidates and the mirror schedule are geometry derived
        # from the buffers; they repopulate lazily on the first
        # execution after unpickling.
        state = self.__dict__.copy()
        state["_candidates"] = {}
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

    # -- geometry-derived caches ----------------------------------------
    def coincident_nbytes(self) -> int:
        """Bytes of candidate coincident entries held for this
        geometry (:meth:`group_candidates`, :meth:`layout_candidates`)."""
        return int(sum(c.nbytes for c in self._candidates.values()))

    def group_candidates(self, mirrors: "MirrorSchedule | None"):
        """Candidate coincident entries of every group's block on the
        per-group path, in plan order or, given the plan's ``mirrors``,
        in its mirror order; derived on first use
        (:func:`~repro.core.coincidence.group_candidates`)."""
        from .coincidence import group_candidates

        key = ("groups", mirrors is not None)
        found = self._candidates.get(key)
        if found is None:
            found = group_candidates(self, mirrors)
            self._candidates[key] = found
        return found

    def layout_candidates(self):
        """Candidate coincident entries of every bucket stack and ragged
        run of the batched layout; derived on first use
        (:func:`~repro.core.coincidence.layout_candidates`)."""
        from .coincidence import layout_candidates

        found = self._candidates.get("layout")
        if found is None:
            found = layout_candidates(self, self.ensure_batched_layout())
            self._candidates["layout"] = found
        return found

    def mirror_schedule(self) -> "MirrorSchedule":
        """The plan's :class:`MirrorSchedule`, deriving and caching it.

        Geometry, like the candidates: it is read off the buffers on
        first use and dropped by pickling.
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
                    w = weight_buffer((rows,), arr)
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

    def group_kind_runs(self, g: int) -> Iterator[tuple[str, int, int]]:
        """Yield ``(kind, seg_lo, seg_hi)`` runs of equal-kind segments.

        Compilers store the segments of one group kind-contiguously,
        so one run per kind is the common case; interleaved
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
    segs = concat_ranges(s_lo, s_hi - s_lo)
    sizes = plan.seg_ptr[segs + 1] - plan.seg_ptr[segs]
    src_rows = concat_ranges(plan.seg_src_lo[segs], sizes)
    if int(k_sizes.min()) == k_max:
        src_index = src_rows.reshape(n, k_max)
        src_valid = None
        weights = weight_buffer(src_index.shape, plan.src_weights)
        weights[...] = plan.src_weights[src_index]
    else:
        src_valid = np.arange(k_max) < k_sizes[:, None]
        src_index = np.empty((n, k_max), dtype=np.intp)
        src_index[src_valid] = src_rows
        src_index[~src_valid] = np.repeat(src_index[:, 0], k_max - k_sizes)
        weights = weight_buffer(src_index.shape, plan.src_weights)
        weights[src_valid] = plan.src_weights[src_rows]
    return BatchedBucket(
        kind=kind,
        n_segments=n_segments,
        rows_per_segment=rows_per_segment,
        m_max=m_max,
        groups=np.ascontiguousarray(e[:, 2]),
        segments=np.ascontiguousarray(e[:, 4:6]),
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

    Array passes: per distinct group size, the groups' target blocks
    and the same-size source slots are matched by one ``np.unique`` over
    the blocks' bytes; segment uses are counted by one ``np.unique``
    over ``(group, slot)`` keys.
    """
    group_ptr, seg_lo = plan.group_ptr, plan.seg_src_lo
    group_rows = np.diff(group_ptr)
    seg_rows = np.diff(plan.seg_ptr)
    partner = np.full(plan.n_segments, MIRROR_NONE, dtype=np.intp)
    self_lo = np.full(plan.n_groups, -1, dtype=np.intp)
    sized = np.flatnonzero(group_rows > 0)
    live = np.isin(seg_rows, group_rows[sized])
    stride = plan.source_buffer_rows + 1
    slots = np.unique(seg_rows[live] * stride + seg_lo[live])
    slot_rows = slots // stride
    for rows in np.unique(slot_rows).tolist():
        groups = sized[group_rows[sized] == rows]
        slot_lo = slots[slot_rows == rows] - rows * stride
        blocks = np.concatenate((
            plan.targets[group_ptr[groups][:, None] + np.arange(rows)],
            plan.src_points[slot_lo[:, None] + np.arange(rows)],
        )).reshape(len(groups) + len(slot_lo), -1)
        block_bytes = blocks.view(
            np.dtype((np.void, blocks.shape[1] * blocks.itemsize))
        )
        _, key = np.unique(block_bytes.ravel(), return_inverse=True)
        g_key, s_key = key[:len(groups)], key[len(groups):]
        n_groups = np.bincount(g_key, minlength=key.max() + 1)
        n_slots = np.bincount(s_key, minlength=key.max() + 1)
        slot_of = np.full(n_groups.size, -1, dtype=np.intp)
        slot_of[s_key] = slot_lo
        one = (n_groups[g_key] == 1) & (n_slots[g_key] == 1)
        self_lo[groups[one]] = slot_of[g_key[one]]
    seg_group = np.repeat(
        np.arange(plan.n_groups), np.diff(plan.seg_group_ptr)
    )
    # The group sitting on each slot: one at most, since a slot's rows
    # have one size and one byte string.
    sitting = np.flatnonzero(self_lo >= 0)
    if sitting.size == 0:
        return _schedule(partner, self_lo, seg_group, plan.n_groups)
    by_lo = np.argsort(self_lo[sitting])
    on_lo, on_group = self_lo[sitting][by_lo], sitting[by_lo]
    mirror_group = np.full(plan.n_segments, -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(on_lo, seg_lo), on_lo.size - 1)
    # An empty segment sits on no slot, even at a slot's first row: it
    # neither pairs nor counts as a use.
    found = (on_lo[at] == seg_lo) & (seg_rows > 0)
    mirror_group[found] = on_group[at[found]]
    # Uses of each (group, slot) key, and of each segment's mirror key.
    uses_keys, uses_of, uses = np.unique(
        np.where(seg_rows > 0, seg_group * stride + seg_lo, -1),
        return_inverse=True, return_counts=True,
    )
    mirror_key = mirror_group * stride + self_lo[seg_group]
    at = np.minimum(np.searchsorted(uses_keys, mirror_key), uses_keys.size - 1)
    mirror_uses = np.where(uses_keys[at] == mirror_key, uses[at], 0)
    paired = (
        (mirror_group >= 0)
        & (mirror_group != seg_group)
        & (self_lo[seg_group] >= 0)
        & (uses[uses_of] == 1)
        & (mirror_uses == 1)
    )
    partner[paired] = np.where(
        seg_group < mirror_group, mirror_group, MIRROR_SKIP
    )[paired]
    return _schedule(partner, self_lo, seg_group, plan.n_groups)


def _schedule(partner, self_lo, seg_group, n_groups) -> MirrorSchedule:
    """The schedule of ``partner`` and ``self_lo`` with its evaluation
    order: per group the unmirrored segments, then the forward ones
    (one stable sort), the skipped ones dropped."""
    order = np.lexsort((partner >= 0, seg_group))
    order = order[partner[order] != MIRROR_SKIP]
    counts = np.bincount(seg_group[order], minlength=n_groups)
    return MirrorSchedule(
        partner=partner, self_lo=self_lo, order=order,
        order_ptr=_offsets(counts),
    )


def _offsets(sizes) -> np.ndarray:
    """``(n+1,)`` cumulative offsets of ``sizes``, starting at 0."""
    ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def assemble_plan(
    out_size: int,
    group_sizes,
    seg_group,
    seg_kind,
    kinds: Sequence[str],
    seg_key,
    key_rows,
    *,
    targets: np.ndarray | None = None,
    out_index: np.ndarray | None = None,
    key_points: Callable[[np.ndarray], np.ndarray] | None = None,
    share_keys: Callable[[np.ndarray], Sequence] | None = None,
) -> ExecutionPlan:
    """Assemble an :class:`ExecutionPlan` skeleton from flat arrays.

    The one way a plan is built.  Group ``g`` owns ``group_sizes[g]``
    target rows.  Segments come in plan order: ``seg_group`` is
    non-decreasing, and each group's segments should be
    kind-contiguous so backends get one run per kind.  ``seg_kind[s]``
    indexes ``kinds``; ``seg_key[s]`` is the integer code of the source
    rows the segment reads, ``key_rows[code]`` rows long.  The plan's
    ``kind_names`` are the used kinds in first-use order.

    Passing ``targets`` (with ``out_index`` and ``key_points``) makes a
    numerics plan.  Its source buffers hold every key's rows once: one
    ``np.unique`` pass finds each key's first use in (group, segment)
    order, the keys take consecutive physical rows in that order, and
    every segment of a key points at them through ``seg_src_lo``.
    ``key_points(codes)`` returns the rows of the keys ``codes`` (given
    in first-use order) stacked in that order; ``share_keys(codes)``
    the share keys ``weight_slots`` records for them (default: the
    codes as ints).  The weight buffer is zeroed:
    :meth:`ExecutionPlan.refresh_weights` fills it by share key -- the
    one way weights enter a plan.  Without ``targets`` the plan is
    model-only: index arrays and sizes, no buffers.
    """
    group_sizes = np.asarray(group_sizes, dtype=np.intp)
    seg_group = np.asarray(seg_group, dtype=np.intp)
    seg_kind = np.asarray(seg_kind, dtype=np.intp)
    seg_key = np.asarray(seg_key, dtype=np.intp)
    key_rows = np.asarray(key_rows, dtype=np.intp)
    used_kinds, kind_first = np.unique(seg_kind, return_index=True)
    used_kinds = used_kinds[np.argsort(kind_first)]
    kind_code = np.zeros(len(kinds), dtype=np.intp)
    kind_code[used_kinds] = np.arange(used_kinds.size)
    structure = dict(
        kind_names=tuple(kinds[k] for k in used_kinds.tolist()),
        group_ptr=_offsets(group_sizes),
        seg_group_ptr=_offsets(
            np.bincount(seg_group, minlength=group_sizes.size)
        ),
        seg_kind=kind_code[seg_kind],
        seg_ptr=_offsets(key_rows[seg_key]),
        out_size=int(out_size),
    )
    if targets is None:
        return ExecutionPlan(**structure)
    if out_index is None or key_points is None:
        raise ValueError(
            "a numerics plan needs out_index and key_points with its targets"
        )
    codes, first, inverse = np.unique(
        seg_key, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    codes = codes[order]
    rows = key_rows[codes]
    hi = np.cumsum(rows)
    lo = hi - rows
    slot_lo = np.empty_like(lo)
    slot_lo[order] = lo
    n_rows = int(hi[-1]) if hi.size else 0
    points = (
        np.ascontiguousarray(key_points(codes), dtype=np.float64)
        if codes.size else np.empty((0, 3))
    )
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    out_index = np.ascontiguousarray(out_index, dtype=np.intp)
    n_targets = int(structure["group_ptr"][-1])
    if (
        points.shape != (n_rows, 3)
        or targets.shape != (n_targets, 3)
        or out_index.shape != (n_targets,)
    ):
        raise ValueError(
            f"plan buffers disagree with its sizes: {points.shape[0]} "
            f"source rows for {n_rows}, {targets.shape[0]} targets and "
            f"{out_index.shape[0]} output slots for {n_targets} rows"
        )
    keys = codes.tolist() if share_keys is None else share_keys(codes)
    return ExecutionPlan(
        **structure,
        targets=targets,
        out_index=out_index,
        src_points=points,
        src_weights=np.zeros(n_rows, dtype=np.float64),
        seg_src_lo=slot_lo[inverse],
        weight_slots=tuple(zip(keys, lo.tolist(), hi.tolist())),
    )


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
    the merge order local approx, remote approx by ascending rank, local
    direct, remote direct.  A single device is the rank without one.

    Array passes throughout: each (kind, owner) list comes from
    :meth:`~repro.core.interaction_lists.InteractionLists.csr` as one
    block of segments, the blocks are concatenated in merge order and
    one stable sort by batch interleaves them into per-batch runs.  A
    segment's key code is its block's base plus the cluster index, and
    :func:`assemble_plan` lays the rows out.  The local direct rows --
    most of a plan's source buffer -- are one ``tree.perm`` range
    gather; approximation grids and remote clusters are copied per
    cluster.

    The plan is a geometry skeleton: each segment's share key is its
    :mod:`~repro.core.bltc_keys` key, each cluster's rows are stored
    once however many batches reference it, and the weight buffer
    stays zeroed until :meth:`ExecutionPlan.refresh_weights` fills it
    (a session does so through
    :class:`~repro.core.bltc_keys.BLTCWeightSource`).  ``moments``
    needs only its grids.
    """
    owners = [(LOCAL, lists)]
    if let is not None:
        owners += [(s, let.lists[s]) for s in sorted(let.lists)]
    csrs = [owned.csr() for _, owned in owners]
    n_ip = (moments.degree + 1) ** 3
    n_batches = len(batches)
    batch_ids = np.arange(n_batches, dtype=np.intp)
    # One block of segments and key codes per (kind, owner), in merge
    # order; a block's codes start at its base and span its owner's
    # node indices.
    block_kind, block_owner, block_base, block_rows = [], [], [], []
    seg_group, seg_key = [], []
    base = 0
    for k, kind in enumerate(("approx", "direct")):
        for (owner, _), csr in zip(owners, csrs):
            ptr, ids = csr[2 * k], csr[2 * k + 1]
            if owner == LOCAL:
                span = len(tree)
            else:
                span = 1 + max(int(a.max(initial=-1)) for a in csr[1::2])
            if kind == "approx":
                rows = np.full(span, n_ip, dtype=np.intp)
            elif owner == LOCAL:
                rows = tree.node_counts
            else:
                rows = np.zeros(span, dtype=np.intp)
                for c, (pos, _q) in let.direct_data[owner].items():
                    rows[c] = pos.shape[0]
            block_kind.append(kind)
            block_owner.append(owner)
            block_base.append(base)
            block_rows.append(rows)
            seg_group.append(np.repeat(batch_ids, np.diff(ptr)))
            seg_key.append(ids + base)
            base += span
    bases = np.asarray(block_base, dtype=np.intp)
    key_rows = np.concatenate(block_rows)
    seg_group = np.concatenate(seg_group)
    order = np.argsort(seg_group, kind="stable")
    seg_group = seg_group[order]
    seg_key = np.concatenate(seg_key)[order]
    # Approximation blocks come first, so their codes are the low ones.
    seg_kind = (seg_key >= bases[len(owners)]).astype(np.intp)
    sizes = batches.sizes()
    if not numerics:
        return assemble_plan(
            batches.n_targets, sizes, seg_group, seg_kind,
            ("approx", "direct"), seg_key, key_rows,
        )

    def decode(codes):
        block = np.searchsorted(bases, codes, side="right") - 1
        return block, codes - bases[block]

    def share_keys(codes):
        block, nodes = decode(codes)
        return [
            (block_kind[j], block_owner[j], c)
            for j, c in zip(block.tolist(), nodes.tolist())
        ]

    local_direct = len(owners)  # block index of (direct, LOCAL)
    sources = BLTCSources(tree, moments, let)

    def key_points(codes):
        block, nodes = decode(codes)
        rows = key_rows[codes]
        at = np.cumsum(rows) - rows
        points = np.empty((int(rows.sum()), 3))
        gather = block == local_direct
        sel = np.flatnonzero(gather)
        starts = tree.view().starts[nodes[sel]]
        points[concat_ranges(at[sel], rows[sel])] = tree.positions[
            tree.perm[concat_ranges(starts, rows[sel])]
        ]
        for s in np.flatnonzero(~gather).tolist():
            j = int(block[s])
            points[at[s]:at[s] + rows[s]] = sources.points(
                (block_kind[j], block_owner[j], int(nodes[s]))
            )
        return points

    batch_tree = batches.tree
    out_index = batch_tree.perm[
        concat_ranges(batch_tree.view().starts[batches.node_ids], sizes)
    ]
    return assemble_plan(
        batches.n_targets, sizes, seg_group, seg_kind, ("approx", "direct"),
        seg_key, key_rows,
        targets=batches.positions[out_index],
        out_index=out_index,
        key_points=key_points,
        share_keys=share_keys,
    )
