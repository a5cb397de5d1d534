"""Batch/cluster dual traversal building interaction lists.

Implements the recursive ``COMPUTEPOTENTIAL`` logic of the BLTC algorithm
(paper Sec. 2.4, lines 10-20), restructured -- as in the paper's GPU
implementation -- into a phase that *builds interaction lists* (which
clusters each batch approximates, which it sums directly) and a phase that
*executes* them as kernel launches:

* MAC satisfied (both conditions)                -> approximation list;
* geometric condition fails, cluster is a leaf   -> direct list;
* geometric condition fails, cluster is internal -> recurse on children;
* geometric passes but cluster too small
  ``(n+1)^3 >= N_C``                             -> direct list.

The MAC is applied to the batch as a whole (Sec. 3.2) so all targets in a
batch share one interaction list -- no thread divergence on the GPU.

Every traversal reads the source tree as a
:class:`~repro.tree.octree.TreeView` -- the packed tree array of Sec. 3.1
-- so the same code runs over a local
:class:`~repro.tree.octree.ClusterTree` (its cached view) and over the
tree arrays fetched from remote ranks during LET construction.  One
per-batch loop drives it for building lists, recording the decision
trace and re-traversing the batches a geometry update dirtied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import TreecodeParams
from ..tree.batches import TargetBatches
from ..tree.octree import ClusterTree, TreeView
from .mac import mac_geometric

__all__ = [
    "InteractionLists",
    "TraversalRecord",
    "traverse_batch",
    "build_interaction_lists",
    "record_traversal",
    "verify_traversal",
    "patch_interaction_lists",
]

# Traversal decision categories recorded per visited node (see
# TraversalRecord): they encode exactly which branch of the BLTC case
# split fired, so a later geometry update can re-check each decision
# vectorized instead of re-running the whole traversal.
TRAV_APPROX = 0           # MAC passed (both conditions)
TRAV_DIRECT_LEAF = 1      # leaf summed directly (either failure mode)
TRAV_DIRECT_INTERNAL = 2  # geometric passed, size condition failed
TRAV_RECURSED = 3         # geometric failed on an internal node


@dataclass
class InteractionLists:
    """Per-batch interaction lists plus traversal statistics."""

    #: approx[b] -- node indices approximated by eq. 11 for batch b.
    approx: list[np.ndarray] = field(default_factory=list)
    #: direct[b] -- node indices summed directly by eq. 9 for batch b.
    direct: list[np.ndarray] = field(default_factory=list)
    #: Number of MAC evaluations performed (host-side setup work).
    mac_evals: int = 0

    @property
    def n_batches(self) -> int:
        return len(self.approx)

    @property
    def n_approx(self) -> int:
        """Total batch-cluster approximation interactions."""
        return int(sum(len(a) for a in self.approx))

    @property
    def n_direct(self) -> int:
        """Total batch-cluster direct interactions."""
        return int(sum(len(d) for d in self.direct))

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat CSR view ``(approx_ptr, approx_ids, direct_ptr, direct_ids)``.

        ``approx_ids[approx_ptr[b]:approx_ptr[b+1]]`` are the cluster
        indices batch ``b`` approximates (same order as ``approx[b]``),
        and likewise for the direct side.  This is the form
        :func:`~repro.core.plan.compile_plan` reads the lists in (one
        block of segments per side, no per-batch or per-segment loop)
        and the warm-start updater tests them in.
        """
        approx_ptr = np.zeros(len(self.approx) + 1, dtype=np.intp)
        np.cumsum([len(a) for a in self.approx], out=approx_ptr[1:])
        direct_ptr = np.zeros(len(self.direct) + 1, dtype=np.intp)
        np.cumsum([len(d) for d in self.direct], out=direct_ptr[1:])
        # astype(copy=False) keeps the freshly concatenated intp arrays
        # as-is (the common case) instead of duplicating them; the empty
        # branches produce the same intp dtype so both paths agree.
        approx_ids = (
            np.concatenate(self.approx)
            if self.approx
            else np.empty(0, dtype=np.intp)
        ).astype(np.intp, copy=False)
        direct_ids = (
            np.concatenate(self.direct)
            if self.direct
            else np.empty(0, dtype=np.intp)
        ).astype(np.intp, copy=False)
        return approx_ptr, approx_ids, direct_ptr, direct_ids


def traverse_batch(
    batch_center: np.ndarray,
    batch_radius: float,
    view: TreeView,
    params: TreecodeParams,
    *,
    record: list | None = None,
) -> tuple[list[int], list[int], int]:
    """Traverse one batch against a cluster tree's packed view.

    Returns ``(approx_ids, direct_ids, mac_evals)``.  The logic follows the
    BLTC algorithm exactly; see the module docstring for the case split.
    When ``record`` is a list, every visited node appends a
    ``(node, category)`` pair to it (``TRAV_*`` constants), capturing the
    full decision trace for later :func:`verify_traversal` checks.
    """
    n_ip = params.n_interpolation_points
    centers = view.centers
    radii = view.radii
    counts = view.counts
    is_leaf = view.is_leaf
    first_child = view.first_child
    n_children = view.n_children
    approx: list[int] = []
    direct: list[int] = []
    mac_evals = 0
    stack = [0]
    while stack:
        c = stack.pop()
        dist = float(np.linalg.norm(batch_center - centers[c]))
        mac_evals += 1
        geometric_ok = mac_geometric(
            batch_radius, radii[c], dist, params.theta
        )
        if geometric_ok and (not params.size_check or n_ip < counts[c]):
            approx.append(c)
            if record is not None:
                record.append((c, TRAV_APPROX))
        elif not geometric_ok:
            if is_leaf[c]:
                direct.append(c)
                if record is not None:
                    record.append((c, TRAV_DIRECT_LEAF))
            else:
                first = first_child[c]
                stack.extend(range(first, first + n_children[c]))
                if record is not None:
                    record.append((c, TRAV_RECURSED))
        else:
            # Geometric MAC passed but the cluster is too small for the
            # approximation to pay off: compute it directly (line 19-20).
            direct.append(c)
            if record is not None:
                record.append((
                    c,
                    TRAV_DIRECT_LEAF if is_leaf[c] else TRAV_DIRECT_INTERNAL,
                ))
    return approx, direct, mac_evals


def _traverse_batches(
    batches: TargetBatches,
    tree: ClusterTree | TreeView,
    params: TreecodeParams,
    batch_ids: Sequence[int],
    *,
    record: bool,
) -> tuple[InteractionLists, TraversalRecord | None]:
    """The one per-batch loop behind every traversal of a batch set.

    Entry ``k`` of the returned lists (and trace, when ``record``) is
    batch ``batch_ids[k]``'s.
    """
    view = tree.view() if isinstance(tree, ClusterTree) else tree
    b_centers = batches.centers()
    b_radii = batches.radii()
    lists = InteractionLists()
    trace = TraversalRecord(nodes=[], cats=[]) if record else None
    for b in batch_ids:
        rec: list[tuple[int, int]] | None = [] if record else None
        approx, direct, evals = traverse_batch(
            b_centers[b], float(b_radii[b]), view, params, record=rec
        )
        lists.approx.append(np.asarray(approx, dtype=np.intp))
        lists.direct.append(np.asarray(direct, dtype=np.intp))
        lists.mac_evals += evals
        if trace is not None:
            trace.nodes.append(np.array([r[0] for r in rec], dtype=np.intp))
            trace.cats.append(np.array([r[1] for r in rec], dtype=np.int8))
    return lists, trace


def build_interaction_lists(
    batches: TargetBatches,
    tree: ClusterTree | TreeView,
    params: TreecodeParams,
) -> InteractionLists:
    """Build interaction lists for every batch against one source tree
    (a local tree or the view of a fetched remote tree array)."""
    lists, _ = _traverse_batches(
        batches, tree, params, range(len(batches)), record=False
    )
    return lists


# ----------------------------------------------------------------------
# Dynamic geometry: decision traces, vectorized re-verify, dirty patch
# ----------------------------------------------------------------------
@dataclass
class TraversalRecord:
    """Per-batch decision trace of one full traversal.

    ``nodes[b]``/``cats[b]`` list every node batch ``b`` visited and
    which ``TRAV_*`` branch fired there.  A trace row count equals the
    batch's MAC evaluation count, so ``n_rows`` reproduces
    ``InteractionLists.mac_evals`` exactly.  After particles drift,
    :func:`verify_traversal` re-checks every recorded decision against
    the *new* geometry in a handful of vectorized passes; only batches
    with at least one invalidated (or numerically borderline) decision
    pay a scalar re-traversal.
    """

    nodes: list[np.ndarray]
    cats: list[np.ndarray]

    @property
    def n_rows(self) -> int:
        return int(sum(len(a) for a in self.nodes))

    def nbytes(self) -> int:
        return int(
            sum(a.nbytes for a in self.nodes)
            + sum(a.nbytes for a in self.cats)
        )


def record_traversal(
    batches: TargetBatches,
    tree: ClusterTree | TreeView,
    params: TreecodeParams,
) -> TraversalRecord:
    """Re-run the full traversal, capturing the decision trace.

    The produced lists are discarded -- for a prepared session they are
    by construction identical to the session's stored lists; only the
    trace is new information.
    """
    _, trace = _traverse_batches(
        batches, tree, params, range(len(batches)), record=True
    )
    return trace


def verify_traversal(
    record: TraversalRecord,
    batches: TargetBatches,
    tree: ClusterTree,
    params: TreecodeParams,
    *,
    rel_margin: float = 1e-9,
) -> np.ndarray:
    """(n_batches,) bool: which batches' recorded decisions no longer hold.

    Every recorded decision is re-evaluated against the new batch and
    cluster geometry in one vectorized pass.  The scalar traversal
    computes its distances through ``np.linalg.norm`` on a 3-vector,
    which need not agree to the last ulp with the row-wise norm used
    here, so a decision only counts as *confirmed* when it holds under
    both ``theta * (1 - rel_margin)`` and ``theta * (1 + rel_margin)``
    -- any decision within the margin of the MAC boundary marks its
    batch dirty and the exact scalar traversal re-runs there.  The dirty
    mask is therefore conservative: a clean batch's lists are bitwise
    what a cold traversal would produce.
    """
    n_batches = len(batches)
    lengths = np.array([len(a) for a in record.nodes], dtype=np.intp)
    if int(lengths.sum()) == 0:
        return np.zeros(n_batches, dtype=bool)
    flat_nodes = np.concatenate(record.nodes)
    flat_cats = np.concatenate(record.cats)
    batch_ids = np.repeat(np.arange(n_batches, dtype=np.intp), lengths)

    view = tree.view()
    centers = view.centers
    radii = view.radii
    counts = view.counts
    b_centers = batches.centers()
    b_radii = batches.radii()

    d = np.linalg.norm(
        b_centers[batch_ids] - centers[flat_nodes], axis=1
    )
    rsum = b_radii[batch_ids] + radii[flat_nodes]
    ratio = np.full(d.shape, np.inf)
    pos = d > 0.0
    ratio[pos] = rsum[pos] / d[pos]
    theta = params.theta
    n_ip = params.n_interpolation_points
    if params.size_check:
        size_ok = n_ip < counts[flat_nodes]
    else:
        size_ok = np.ones(d.shape, dtype=bool)

    def valid_under(g: np.ndarray) -> np.ndarray:
        ok = np.empty(d.shape, dtype=bool)
        is_approx = flat_cats == TRAV_APPROX
        is_dleaf = flat_cats == TRAV_DIRECT_LEAF
        is_dint = flat_cats == TRAV_DIRECT_INTERNAL
        is_rec = flat_cats == TRAV_RECURSED
        ok[is_approx] = (g & size_ok)[is_approx]
        ok[is_dleaf] = ~(g & size_ok)[is_dleaf]
        ok[is_dint] = (g & ~size_ok)[is_dint]
        ok[is_rec] = ~g[is_rec]
        return ok

    confirmed = valid_under(ratio < theta * (1.0 - rel_margin)) & valid_under(
        ratio < theta * (1.0 + rel_margin)
    )
    dirty = np.zeros(n_batches, dtype=bool)
    np.logical_or.at(dirty, batch_ids[~confirmed], True)
    return dirty


def patch_interaction_lists(
    lists: InteractionLists,
    record: TraversalRecord,
    batches: TargetBatches,
    tree: ClusterTree,
    params: TreecodeParams,
    dirty: np.ndarray,
) -> int:
    """Re-traverse the dirty batches; patch ``lists`` and ``record``.

    Returns the number of MAC evaluations spent on the re-traversals.
    ``lists.mac_evals`` is reset to the trace's total row count, which
    equals what a cold :func:`build_interaction_lists` at the new
    geometry would report (clean batches' traversals are
    decision-identical by the verify guarantee).
    """
    dirty_ids = np.flatnonzero(dirty)
    redone, trace = _traverse_batches(
        batches, tree, params, dirty_ids, record=True
    )
    for k, b in enumerate(dirty_ids):
        lists.approx[b] = redone.approx[k]
        lists.direct[b] = redone.direct[k]
        record.nodes[b] = trace.nodes[k]
        record.cats[b] = trace.cats[k]
    lists.mac_evals = record.n_rows
    return redone.mac_evals
