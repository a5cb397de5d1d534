"""Hierarchical cluster tree (adaptive octree) for source particles.

Paper Sec. 2.4: the root cluster is the minimal bounding box containing all
source particles; clusters are recursively divided at the midpoint of the
three dimensions of the bounding box until a cluster holds ``NL`` or fewer
particles.  Sec. 3.1 adds the aspect-ratio rule: a cluster is divided into
8 children normally, but only 2 or 4 when splitting all dimensions would
produce children with aspect ratio above sqrt(2).

The tree stores a permutation of the particle indices such that every node
owns a contiguous slice ``[start, end)`` -- the array-structure style that
GPU treecodes favour over pointer chasing (the paper cites Burtscher &
Pingali for this idea), and which makes serializing the tree for RMA
communication trivial.

This module also owns the *packed tree array*: one float64 row per node
holding its center, radius, box, particle slice and topology -- the
"tree array (containing cluster midpoints and radii for all tree nodes)"
each rank exposes for LET construction (Sec. 3.1).  :class:`TreeView`
reads that array as a struct of per-field columns, and it is the one
form every traversal reads: a local tree's cached
:meth:`ClusterTree.view` and a remote rank's fetched array alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..config import ASPECT_RATIO_LIMIT
from .box import Box, bounding_box

__all__ = ["TreeNode", "ClusterTree", "RebinResult", "TreeView"]

# Field offsets of one node's row in the packed tree array.
CENTER = slice(0, 3)
RADIUS = 3
LO = slice(4, 7)
HI = slice(7, 10)
COUNT = 10
START = 11
END = 12
IS_LEAF = 13
FIRST_CHILD = 14
N_CHILDREN = 15
#: Number of float64 fields per node in the packed tree array.
TREE_ARRAY_FIELDS = 16


class TreeView:
    """Struct-of-arrays view of a packed tree array, local or fetched.

    Columns: ``centers`` (M, 3), ``radii``, ``lo`` / ``hi`` (M, 3) and
    the integer columns ``counts``, ``starts``, ``ends``,
    ``first_child``, ``n_children`` plus the bool ``is_leaf``.  Children
    of a node are consecutive, so node ``i``'s children are
    ``range(first_child[i], first_child[i] + n_children[i])``.  The
    array's shape is checked here because a fetched array is input from
    another rank.
    """

    __slots__ = (
        "array", "centers", "radii", "lo", "hi", "counts", "starts",
        "ends", "is_leaf", "first_child", "n_children",
    )

    def __init__(self, array: np.ndarray) -> None:
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != TREE_ARRAY_FIELDS:
            raise ValueError(
                f"tree array must be (M, {TREE_ARRAY_FIELDS}), "
                f"got {arr.shape}"
            )
        self.array = arr
        self.centers = arr[:, CENTER]
        self.radii = arr[:, RADIUS]
        self.lo = arr[:, LO]
        self.hi = arr[:, HI]
        self.counts = arr[:, COUNT].astype(np.intp)
        self.starts = arr[:, START].astype(np.intp)
        self.ends = arr[:, END].astype(np.intp)
        self.is_leaf = arr[:, IS_LEAF] != 0.0
        self.first_child = arr[:, FIRST_CHILD].astype(np.intp)
        self.n_children = arr[:, N_CHILDREN].astype(np.intp)

    def __len__(self) -> int:
        return self.array.shape[0]

    def __reduce__(self):
        # Pickle the packed array once, not every column beside it.
        return TreeView, (self.array,)


@dataclass
class RebinResult:
    """Outcome of :meth:`ClusterTree.rebin`.

    ``ok`` is False when the incremental replay had to bail out (a node's
    leaf status flipped or its child count changed); the tree is left
    untouched in that case and the caller must rebuild from scratch.  On
    success the per-node masks describe what changed relative to the old
    binning: ``box_changed`` (bounding box moved), ``count_changed``
    (slice size changed), ``members_dirty`` (the node's particle
    sequence -- membership or order -- may differ).  ``n_rebinned``
    counts particles whose leaf assignment changed; ``scratch_bytes`` is
    the peak size of the working copies the replay allocated.
    """

    ok: bool
    reason: str = ""
    n_rebinned: int = 0
    box_changed: np.ndarray | None = None
    count_changed: np.ndarray | None = None
    members_dirty: np.ndarray | None = None
    scratch_bytes: int = 0


@dataclass
class TreeNode:
    """One cluster in the tree.

    ``start``/``end`` index the tree's permutation array; the node's
    particles are ``positions[tree.perm[start:end]]``.
    """

    index: int
    start: int
    end: int
    box: Box
    level: int
    parent: int
    children: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of particles owned by this cluster."""
        return self.end - self.start

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ClusterTree:
    """Adaptive octree over a fixed set of points.

    Parameters
    ----------
    positions : (N, 3) particle coordinates (not copied; treated read-only).
    max_leaf_size : ``NL`` -- subdivision stops at or below this count.
    aspect_ratio_splitting : apply the sqrt(2) rule (paper Sec. 3.1); when
        False every split bisects all three dimensions (classical octree).
    shrink_to_fit : use the minimal bounding box at every node (Sec. 2.3).
        When False, children keep the geometric half-boxes of their parent.
    """

    def __init__(
        self,
        positions: np.ndarray,
        max_leaf_size: int,
        *,
        aspect_ratio_splitting: bool = True,
        shrink_to_fit: bool = True,
    ) -> None:
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(
                f"positions must be (N, 3), got {positions.shape}"
            )
        if positions.shape[0] == 0:
            raise ValueError("cannot build a tree over zero particles")
        if not np.isfinite(positions).all():
            # A NaN or inf coordinate gives a non-finite box midpoint,
            # every point then lands in one child, and the split never
            # terminates.
            raise ValueError("positions must be finite")
        if max_leaf_size < 1:
            raise ValueError(f"max_leaf_size must be >= 1, got {max_leaf_size}")
        self.positions = positions
        self.max_leaf_size = int(max_leaf_size)
        self.aspect_ratio_splitting = bool(aspect_ratio_splitting)
        self.shrink_to_fit = bool(shrink_to_fit)
        self.perm = np.arange(positions.shape[0], dtype=np.intp)
        self.nodes: list[TreeNode] = []
        self._view: TreeView | None = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _node_box(self, start: int, end: int, inherited: Box | None) -> Box:
        if self.shrink_to_fit or inherited is None:
            return bounding_box(self.positions[self.perm[start:end]])
        return inherited

    def _build(self) -> None:
        n = self.positions.shape[0]
        # Breadth-first work queue of (start, end, parent, level,
        # inherited_box).  BFS assigns node indices in level order, which
        # guarantees the children of any node receive *consecutive*
        # indices: they are appended to the queue together and nothing is
        # ever inserted between them.  The packed tree array exploits this
        # by storing only (first_child, n_children).
        queue: deque[tuple[int, int, int, int, Box | None]] = deque(
            [(0, n, -1, 0, None)]
        )
        while queue:
            start, end, parent, level, inherited = queue.popleft()
            box = self._node_box(start, end, inherited)
            index = len(self.nodes)
            node = TreeNode(
                index=index, start=start, end=end, box=box,
                level=level, parent=parent,
            )
            self.nodes.append(node)
            if parent >= 0:
                self.nodes[parent].children.append(index)
            count = end - start
            # Leaf conditions: small enough, or geometrically degenerate
            # (all particles coincident -- subdivision cannot progress).
            if count <= self.max_leaf_size or box.extents.max() == 0.0:
                continue
            if self.aspect_ratio_splitting:
                dims = box.split_dimensions(ASPECT_RATIO_LIMIT)
            else:
                dims = np.array([0, 1, 2], dtype=np.intp)
            mid = box.center
            pts = self.positions[self.perm[start:end]]
            # Child code: bit i set when the point lies above the midpoint
            # in split dimension dims[i].  Up to 2^len(dims) children.
            code = np.zeros(count, dtype=np.intp)
            for i, d in enumerate(dims):
                code |= (pts[:, d] > mid[d]).astype(np.intp) << i
            order = np.argsort(code, kind="stable")
            self.perm[start:end] = self.perm[start:end][order]
            counts = np.bincount(code, minlength=1 << len(dims))
            offset = start
            for c in range(1 << len(dims)):
                cnt = int(counts[c])
                if cnt == 0:
                    continue
                child_box: Box | None = None
                if not self.shrink_to_fit:
                    # Geometric half-box of child code c: split dims take
                    # the low or high half of the parent per code bit.
                    lo = box.lo.copy()
                    hi = box.hi.copy()
                    for i, d in enumerate(dims):
                        if (c >> i) & 1:
                            lo[d] = mid[d]
                        else:
                            hi[d] = mid[d]
                    child_box = Box(lo, hi)
                queue.append(
                    (offset, offset + cnt, index, level + 1, child_box)
                )
                offset += cnt

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def n_leaves(self) -> int:
        return sum(1 for nd in self.nodes if nd.is_leaf)

    @property
    def max_level(self) -> int:
        return max(nd.level for nd in self.nodes)

    @property
    def node_counts(self) -> np.ndarray:
        """(n_nodes,) particle count per node (the view's column)."""
        return self.view().counts

    def leaves(self) -> list[TreeNode]:
        """All leaf nodes, in node-index order."""
        return [nd for nd in self.nodes if nd.is_leaf]

    def node_indices(self, node: TreeNode | int) -> np.ndarray:
        """Original particle indices owned by ``node``."""
        if not isinstance(node, TreeNode):
            node = self.nodes[int(node)]
        return self.perm[node.start:node.end]

    def node_points(self, node: TreeNode | int) -> np.ndarray:
        """Coordinates of the particles owned by ``node``."""
        return self.positions[self.node_indices(node)]

    # ------------------------------------------------------------------
    # Dynamic geometry: leaf membership + incremental re-bin
    # ------------------------------------------------------------------
    def leaf_map(self) -> np.ndarray:
        """(N,) index of the leaf node owning each original particle."""
        lm = np.empty(self.n_particles, dtype=np.intp)
        for nd in self.nodes:
            if nd.is_leaf:
                lm[self.perm[nd.start:nd.end]] = nd.index
        return lm

    def rebin(self, new_positions: np.ndarray) -> RebinResult:
        """Re-bin the tree in place for moved particles, preserving topology.

        Replays :meth:`_build`'s top-down pass over the *existing* node
        structure with the new coordinates: every node's box, split
        dimensions, midpoint and child codes are recomputed exactly as a
        cold build would, and each splitting node's permutation slice is
        re-sorted into the cold build's (code, original-index) order --
        a stable argsort over an ascending-original-index slice yields
        exactly that order, and rebinning preserves the invariant
        inductively, so a successful rebin reproduces a cold
        ``ClusterTree(new_positions, ...)`` bit for bit.  The replay
        bails out (returning ``ok=False`` and leaving the tree
        untouched) only when the *shape* of the tree would differ: a
        node's leaf status flips or the number of its non-empty children
        changes.  Codes, split dimensions and boxes may change freely --
        they are recomputed, not compared.
        """
        new_positions = np.atleast_2d(
            np.asarray(new_positions, dtype=np.float64)
        )
        if new_positions.shape != self.positions.shape:
            raise ValueError(
                "new_positions shape "
                f"{new_positions.shape} != {self.positions.shape}"
            )
        m = len(self.nodes)
        old_leaf_map = self.leaf_map()
        # Working copies: nothing below mutates the tree until commit.
        perm = self.perm.copy()
        starts = self.view().starts.copy()
        ends = self.view().ends.copy()
        boxes: list[Box | None] = [None] * m
        inherited: list[Box | None] = [None] * m
        box_changed = np.zeros(m, dtype=bool)
        count_changed = np.zeros(m, dtype=bool)
        members_dirty = np.zeros(m, dtype=bool)
        scratch = (
            perm.nbytes + starts.nbytes + ends.nbytes
            + old_leaf_map.nbytes + 3 * m
        )

        def bail(reason: str) -> RebinResult:
            return RebinResult(
                ok=False, reason=reason, scratch_bytes=int(scratch)
            )

        # BFS index order guarantees parents are visited before children,
        # so starts/ends/inherited boxes assigned at the parent are final
        # by the time the child is processed.
        for index, node in enumerate(self.nodes):
            start, end = int(starts[index]), int(ends[index])
            count = end - start
            if self.shrink_to_fit or index == 0:
                box = bounding_box(new_positions[perm[start:end]])
            else:
                box = inherited[index]
            boxes[index] = box
            box_changed[index] = not (
                np.array_equal(box.lo, node.box.lo)
                and np.array_equal(box.hi, node.box.hi)
            )
            is_leaf_new = (
                count <= self.max_leaf_size or box.extents.max() == 0.0
            )
            if is_leaf_new != node.is_leaf:
                return bail(f"leaf status flipped at node {index}")
            if is_leaf_new:
                continue
            if self.aspect_ratio_splitting:
                dims = box.split_dimensions(ASPECT_RATIO_LIMIT)
            else:
                dims = np.array([0, 1, 2], dtype=np.intp)
            mid = box.center
            seg = perm[start:end]
            pts = new_positions[seg]
            code = np.zeros(count, dtype=np.intp)
            for i, d in enumerate(dims):
                code |= (pts[:, d] > mid[d]).astype(np.intp) << i
            scratch = max(scratch, perm.nbytes + code.nbytes + pts.nbytes)
            dc = np.diff(code)
            in_order = bool(np.all(dc >= 0)) and bool(
                np.all((dc > 0) | (np.diff(seg) > 0))
            )
            if not in_order:
                order = np.lexsort((seg, code))
                perm[start:end] = seg[order]
                code = code[order]
                members_dirty[index] = True
            uniq, counts = np.unique(code, return_counts=True)
            if len(uniq) != len(node.children):
                return bail(f"child count changed at node {index}")
            if not self.shrink_to_fit:
                child_boxes = []
                for c in uniq:
                    lo = box.lo.copy()
                    hi = box.hi.copy()
                    for i, d in enumerate(dims):
                        if (int(c) >> i) & 1:
                            lo[d] = mid[d]
                        else:
                            hi[d] = mid[d]
                    child_boxes.append(Box(lo, hi))
            offset = start
            for k, child in enumerate(node.children):
                cnt = int(counts[k])
                moved = (
                    offset != self.nodes[child].start
                    or cnt != self.nodes[child].count
                )
                starts[child] = offset
                ends[child] = offset + cnt
                count_changed[child] = cnt != self.nodes[child].count
                members_dirty[child] = members_dirty[index] or moved
                if not self.shrink_to_fit:
                    inherited[child] = child_boxes[k]
                offset += cnt

        # Commit: mutate the existing TreeNode objects so every external
        # reference to them (target batches) stays valid; the packed view
        # is rebuilt from them on next use.
        for index, node in enumerate(self.nodes):
            node.start = int(starts[index])
            node.end = int(ends[index])
            node.box = boxes[index]
        self.perm = perm
        self.positions = new_positions
        self._view = None
        new_leaf_map = self.leaf_map()
        n_rebinned = int(np.count_nonzero(new_leaf_map != old_leaf_map))
        return RebinResult(
            ok=True,
            n_rebinned=n_rebinned,
            box_changed=box_changed,
            count_changed=count_changed,
            members_dirty=members_dirty,
            scratch_bytes=int(scratch),
        )

    # ------------------------------------------------------------------
    # Serialization (the "tree array" communicated over RMA, Sec. 3.1)
    # ------------------------------------------------------------------
    def tree_array(self) -> np.ndarray:
        """The packed tree array (read-only; see :class:`TreeView`).

        Layout per node (``TREE_ARRAY_FIELDS`` = 16 fields): center(3),
        radius, lo(3), hi(3), count, start, end, is_leaf, first_child,
        n_children.  This is the "tree array (containing cluster
        midpoints and radii for all tree nodes)" placed in RMA windows
        (Sec. 3.1).
        """
        return self.view().array

    def view(self) -> TreeView:
        """Struct-of-arrays view of the packed tree array (cached).

        Built once per binning, vectorised: centers are ``0.5 * (lo +
        hi)`` and radii ``0.5 * sqrt(vecdot(ext, ext))``, the same
        arithmetic as :attr:`Box.center` / :attr:`Box.radius` (whose
        ``np.linalg.norm`` is the same per-row dot), so every value is
        bitwise what a per-node walk would read.  :meth:`rebin` drops it
        on commit.
        """
        if self._view is None:
            nodes = self.nodes
            lo = np.array([nd.box.lo for nd in nodes])
            hi = np.array([nd.box.hi for nd in nodes])
            ext = hi - lo
            arr = np.empty((len(nodes), TREE_ARRAY_FIELDS), dtype=np.float64)
            arr[:, CENTER] = 0.5 * (lo + hi)
            arr[:, RADIUS] = 0.5 * np.sqrt(np.vecdot(ext, ext))
            arr[:, LO] = lo
            arr[:, HI] = hi
            arr[:, START] = [nd.start for nd in nodes]
            arr[:, END] = [nd.end for nd in nodes]
            arr[:, COUNT] = arr[:, END] - arr[:, START]
            arr[:, N_CHILDREN] = [len(nd.children) for nd in nodes]
            arr[:, IS_LEAF] = arr[:, N_CHILDREN] == 0
            arr[:, FIRST_CHILD] = [
                nd.children[0] if nd.children else -1 for nd in nodes
            ]
            arr.flags.writeable = False
            self._view = TreeView(arr)
        return self._view

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation.

        Used by tests and as a debugging aid: the permutation is a
        bijection, every node's slice is the concatenation of its
        children's slices, every particle lies inside its node's box, and
        leaves respect ``NL`` unless degenerate.
        """
        n = self.positions.shape[0]
        assert sorted(self.perm.tolist()) == list(range(n)), "perm not a bijection"
        root = self.root
        assert root.start == 0 and root.end == n, "root does not own all particles"
        for nd in self.nodes:
            pts = self.node_points(nd)
            assert bool(np.all(nd.box.contains(pts, atol=1e-12))), (
                f"node {nd.index} has particles outside its box"
            )
            if nd.children:
                spans = sorted(
                    (self.nodes[c].start, self.nodes[c].end) for c in nd.children
                )
                assert spans[0][0] == nd.start and spans[-1][1] == nd.end, (
                    f"children of node {nd.index} do not tile it"
                )
                for (a, b), (c, d) in zip(spans, spans[1:]):
                    assert b == c, f"gap in children of node {nd.index}"
            else:
                degenerate = nd.box.extents.max() == 0.0
                assert nd.count <= self.max_leaf_size or degenerate, (
                    f"oversized leaf {nd.index}: {nd.count}"
                )
