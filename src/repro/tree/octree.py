"""Hierarchical cluster tree (adaptive octree) for source particles.

Paper Sec. 2.4: the root cluster is the minimal bounding box containing all
source particles; clusters are recursively divided at the midpoint of the
three dimensions of the bounding box until a cluster holds ``NL`` or fewer
particles.  Sec. 3.1 adds the aspect-ratio rule: a cluster is divided into
8 children normally, but only 2 or 4 when splitting all dimensions would
produce children with aspect ratio above sqrt(2).

The tree has one representation: a permutation of the particle indices,
in which every node owns a contiguous slice ``[start, end)``, and the
*packed tree array*, one float64 row per node holding its center, radius,
box, slice and topology.  That is the "tree array (containing cluster
midpoints and radii for all tree nodes)" each rank exposes for LET
construction (Sec. 3.1), in the array style GPU treecodes favour over
pointer chasing (the paper cites Burtscher & Pingali).  Every traversal
reads it through :class:`TreeView`, local tree and fetched array alike.

:func:`_build` fills both one level at a time.  Each level takes one pass
over its nodes' particles: minimal boxes by ``reduceat``, the leaf test,
the split dimensions and every particle's child code, then one stable sort
of the level's particles by (node, code).  Node indices are breadth-first:
level ``L``'s children are numbered after all of level ``L``, in (parent,
code) order, so every node's children have consecutive indices and the
array stores only ``first_child`` and ``n_children``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..config import ASPECT_RATIO_LIMIT

__all__ = ["ClusterTree", "RebinResult", "TreeView"]

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

    ``ok`` is False when the tree over the new positions has a different
    topology (some node's child count differs); the tree is left
    untouched in that case and the caller must rebuild from scratch.  On
    success the per-node masks describe what changed relative to the old
    binning: ``box_changed`` (bounding box moved), ``count_changed``
    (slice size changed), ``members_dirty`` (the node's ordered particle
    sequence changed).  ``n_rebinned`` counts particles whose leaf
    changed; ``scratch_bytes`` is the size of the arrays held before the
    commit.
    """

    ok: bool
    reason: str = ""
    n_rebinned: int = 0
    box_changed: np.ndarray | None = None
    count_changed: np.ndarray | None = None
    members_dirty: np.ndarray | None = None
    scratch_bytes: int = 0


def _slices(starts: np.ndarray, counts: np.ndarray):
    """``(at, offsets)``: every position of the ``[start, start + count)``
    slices, slice by slice; slice ``k`` begins at ``at[offsets[k]]``."""
    offsets = np.cumsum(counts) - counts
    at = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))
    return at, offsets


def _half_boxes(c, dims, shift, lo, hi, mid):
    """Half-boxes of child codes ``c``: low or high half per code bit."""
    bit = (c[:, None] >> shift) & 1
    return (
        np.where(dims & (bit == 1), mid, lo),
        np.where(dims & (bit == 0), mid, hi),
    )


def _build(positions, max_leaf_size, aspect_ratio_splitting, shrink_to_fit):
    """Build the tree level by level: ``(perm, packed array, max_level)``."""
    perm = np.arange(positions.shape[0], dtype=np.intp)
    starts, counts = np.zeros(1, dtype=np.intp), np.array([perm.size])
    lo = hi = None
    levels = []
    while starts.size:
        m = starts.size
        at, offsets = _slices(starts, counts)
        node = np.repeat(np.arange(m), counts)
        pts = positions[perm[at]]
        pmin = np.minimum.reduceat(pts, offsets)
        pmax = np.maximum.reduceat(pts, offsets)
        if shrink_to_fit or lo is None:
            lo, hi = pmin, pmax
        ext = hi - lo
        # Leaf conditions: small enough, or all particles coincident
        # (subdivision cannot separate them, whatever the box).
        split = (counts > max_leaf_size) & ((pmax - pmin).max(axis=1) > 0.0)
        if aspect_ratio_splitting:
            # Split a dimension only when its extent exceeds ``longest /
            # limit``: halving it cannot leave a child more elongated than
            # the limit (a cube splits all three, the 1/2 x 1/3 regions of
            # Fig. 2b their long ones).  At subnormal extents ``longest /
            # limit`` rounds up to ``longest``: the longest splits alone.
            dims = ext > ext.max(axis=1, keepdims=True) / ASPECT_RATIO_LIMIT
            none = np.flatnonzero(~dims.any(axis=1))
            dims[none, ext[none].argmax(axis=1)] = True
        else:
            dims = np.ones((m, 3), dtype=bool)
        dims &= split[:, None]
        mid = 0.5 * (lo + hi)
        # Child code: bit i set when the particle lies above the midpoint
        # in the node's i-th split dimension.  Up to 8 children.
        shift = np.maximum(np.cumsum(dims, axis=1) - 1, 0)
        code = np.zeros(at.size, dtype=np.intp)
        for d in range(3):
            above = (pts[:, d] > mid[node, d]) & dims[node, d]
            code |= above.astype(np.intp) << shift[node, d]
        # At ulp-scale extents the midpoint can round onto a box edge and
        # separate nothing.  A node whose particles then all share one
        # child code, with the child's box its own, would repeat itself
        # forever: it is a leaf too.
        first = code[offsets]
        stuck = split & (first == np.maximum.reduceat(code, offsets))
        stuck &= first == np.minimum.reduceat(code, offsets)
        if not shrink_to_fit:
            clo, chi = _half_boxes(first, dims, shift, lo, hi, mid)
            stuck &= np.all((clo == lo) & (chi == hi), axis=1)
        if stuck.any():
            split &= ~stuck
            dims &= split[:, None]
            code[stuck[node]] = 0
        key = node * 8 + code
        perm[at] = perm[at[np.argsort(key, kind="stable")]]
        sizes = np.bincount(key, minlength=8 * m)
        sizes[:: 8][~split] = 0
        n_children = np.count_nonzero(sizes.reshape(m, 8), axis=1)
        levels.append((lo, hi, starts, counts, n_children))
        # The children, in (parent, code) order: their slices tile each
        # parent's slice in the order the sort left the particles.
        k = np.flatnonzero(sizes)
        parent = k // 8
        below = np.cumsum(sizes) - sizes
        starts = starts[parent] + below[k] - below[8 * parent]
        counts = sizes[k]
        if not shrink_to_fit:
            lo, hi = _half_boxes(
                k % 8, dims[parent], shift[parent],
                lo[parent], hi[parent], mid[parent],
            )

    lo, hi, starts, counts, n_children = (
        np.concatenate(col) for col in zip(*levels)
    )
    ext = hi - lo
    # One row per node, in the field order of TREE_ARRAY_FIELDS.
    arr = np.column_stack((
        0.5 * (lo + hi), 0.5 * np.sqrt(np.vecdot(ext, ext)), lo, hi,
        counts, starts, starts + counts, n_children == 0,
        np.where(n_children > 0, 1 + np.cumsum(n_children) - n_children, -1),
        n_children,
    ))
    arr.flags.writeable = False
    return perm, arr, len(levels) - 1


def _leaf_map(perm: np.ndarray, view: TreeView) -> np.ndarray:
    """(N,) index of the leaf node owning each original particle."""
    leaves = np.flatnonzero(view.is_leaf)
    leaves = leaves[np.argsort(view.starts[leaves])]
    lm = np.empty(perm.size, dtype=np.intp)
    lm[perm] = np.repeat(leaves, view.counts[leaves])
    return lm


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
            # A NaN or inf coordinate gives a non-finite box midpoint: every
            # point lands in one child and the split never terminates.
            raise ValueError("positions must be finite")
        if (
            isinstance(max_leaf_size, bool)
            or not isinstance(max_leaf_size, numbers.Integral)
            or max_leaf_size < 1
        ):
            raise ValueError(
                f"max_leaf_size must be an integer >= 1, got {max_leaf_size!r}"
            )
        self.positions = positions
        self.max_leaf_size = int(max_leaf_size)
        self.aspect_ratio_splitting = bool(aspect_ratio_splitting)
        self.shrink_to_fit = bool(shrink_to_fit)
        self.perm, arr, self.max_level = self._build(positions)
        self._view = TreeView(arr)

    def _build(self, positions: np.ndarray):
        return _build(positions, self.max_leaf_size,
                      self.aspect_ratio_splitting, self.shrink_to_fit)

    def __len__(self) -> int:
        return len(self._view)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self._view.is_leaf))

    @property
    def node_counts(self) -> np.ndarray:
        """(n_nodes,) particle count per node (the view's column)."""
        return self._view.counts

    def node_indices(self, node: int) -> np.ndarray:
        """Original particle indices owned by node ``node``."""
        view = self._view
        return self.perm[view.starts[node]:view.ends[node]]

    def node_points(self, node: int) -> np.ndarray:
        """Coordinates of the particles owned by node ``node``."""
        return self.positions[self.node_indices(node)]

    def leaf_map(self) -> np.ndarray:
        """(N,) index of the leaf node owning each original particle."""
        return _leaf_map(self.perm, self._view)

    def rebin(self, new_positions: np.ndarray) -> RebinResult:
        """Re-bin the tree in place for moved particles, preserving topology.

        A re-bin is a cold build at the new positions plus a topology
        check: when every node has as many children as before, the new
        permutation and packed array are committed -- bitwise a cold
        ``ClusterTree(new_positions, ...)`` -- and node indices keep
        their meaning.  Otherwise (``ok=False``) the tree is left
        untouched.  The masks compare the two array sets node by node.
        """
        new_positions = np.atleast_2d(
            np.asarray(new_positions, dtype=np.float64)
        )
        if new_positions.shape != self.positions.shape:
            raise ValueError(
                "new_positions shape "
                f"{new_positions.shape} != {self.positions.shape}"
            )
        perm, arr, _ = self._build(new_positions)
        old, new = self._view, TreeView(arr)
        res = RebinResult(ok=False, scratch_bytes=perm.nbytes + arr.nbytes)
        m = min(len(old), len(new))
        differ = np.flatnonzero(old.n_children[:m] != new.n_children[:m])
        if differ.size:
            res.reason = f"child count changed at node {differ[0]}"
            return res
        res.count_changed = changed = old.counts != new.counts
        # Compare the ordered member sequences of the nodes whose size held.
        same = np.flatnonzero(~changed)
        at_old, offsets = _slices(old.starts[same], old.counts[same])
        at_new, _ = _slices(new.starts[same], new.counts[same])
        res.members_dirty = changed.copy()
        res.members_dirty[same] = np.logical_or.reduceat(
            self.perm[at_old] != perm[at_new], offsets
        )
        res.box_changed = np.any(
            (old.lo != new.lo) | (old.hi != new.hi), axis=1
        )
        res.n_rebinned = int(
            np.count_nonzero(self.leaf_map() != _leaf_map(perm, new))
        )
        res.ok = True
        self.perm, self.positions, self._view = perm, new_positions, new
        return res

    def tree_array(self) -> np.ndarray:
        """The packed tree array placed in RMA windows (Sec. 3.1); read-only.

        Per node (``TREE_ARRAY_FIELDS`` = 16 fields): center(3), radius,
        lo(3), hi(3), count, start, end, is_leaf, first_child, n_children.
        """
        return self._view.array

    def view(self) -> TreeView:
        """Struct-of-arrays view of the packed tree array."""
        return self._view

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation.

        Used by tests and as a debugging aid: the permutation is a
        bijection, every node's children are consecutive and tile its
        slice in order, every particle lies inside its node's box, and
        leaves respect ``NL`` unless their particles coincide or their box
        cannot be bisected.
        """
        n, v = self.n_particles, self._view
        assert np.array_equal(np.sort(self.perm), np.arange(n)), "perm"
        assert v.starts[0] == 0 and v.ends[0] == n, "root slice"
        assert np.array_equal(v.counts, v.ends - v.starts)
        assert np.array_equal(v.is_leaf, v.n_children == 0)
        # Breadth-first numbering: nodes 1..M-1 are the children of nodes
        # 0..M-2, parent by parent.
        parent = np.repeat(np.arange(len(v)), v.n_children)
        kids = np.arange(1, len(v))
        assert parent.size == kids.size, "child counts"
        first = 1 + np.searchsorted(parent, parent)
        assert np.array_equal(v.first_child[parent], first), "first child"
        below = np.cumsum(v.counts) - v.counts
        inner = ~v.is_leaf
        assert np.array_equal(
            v.starts[kids], v.starts[parent] + below[kids] - below[first]
        ) and np.array_equal(
            np.bincount(parent, v.counts[kids], len(v))[inner], v.counts[inner]
        ), "children do not tile their parent"
        at, offsets = _slices(v.starts, v.counts)
        node = np.repeat(np.arange(len(v)), v.counts)
        pts = self.positions[self.perm[at]]
        assert np.all(
            (pts >= v.lo[node] - 1e-12) & (pts <= v.hi[node] + 1e-12)
        ), "a node has particles outside its box"
        # An oversized leaf's particles coincide, or its box cannot be
        # bisected: the midpoint of its longest side rounds onto an edge.
        rows, d = np.arange(len(v)), (v.hi - v.lo).argmax(axis=1)
        mid = v.centers[rows, d]
        unsplittable = (
            np.all(
                np.maximum.reduceat(pts, offsets)
                == np.minimum.reduceat(pts, offsets),
                axis=1,
            )
            | (mid == v.lo[rows, d])
            | (mid == v.hi[rows, d])
        )
        oversized = v.is_leaf & (v.counts > self.max_leaf_size)
        assert np.all(unsplittable[oversized]), "oversized leaf"
