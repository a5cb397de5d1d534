"""Hierarchical source-cluster tree and target batches (paper Sec. 2.4, 3.1).

* :class:`~repro.tree.octree.ClusterTree` -- the hierarchical tree of
  source clusters: recursive midpoint subdivision of minimal bounding
  boxes, terminating at ``NL`` particles, with the sqrt(2) aspect-ratio
  rule deciding how many children (2/4/8) a node gets.  The tree is one
  packed array (one row per node: center, radius, box, particle slice,
  topology) plus a particle permutation, built level by level in
  breadth-first order so every node's children have consecutive indices.
* :class:`~repro.tree.octree.TreeView` -- the packed tree array read as
  per-field columns; every traversal, local or LET, reads this view.
* :class:`~repro.tree.batches.TargetBatches` -- geometrically localized
  batches of at most ``NB`` targets, built with the same partitioning
  routine.
"""

from .octree import ClusterTree, TreeView
from .batches import TargetBatches

__all__ = [
    "ClusterTree",
    "TreeView",
    "TargetBatches",
]
