"""Target batches (paper Sec. 2.4 and 3.2).

Targets are organized into geometrically localized batches of at most
``NB`` particles using *the same partitioning routine* as the source tree;
when targets and sources are the same particle set with ``NB == NL`` the
batches are equivalent to the source-tree leaves, as in the paper's tests.

Batching is what gives the GPU implementation its outer level of
parallelism: one kernel launch processes one (batch, cluster) pair, one
thread block per target in the batch.
"""

from __future__ import annotations

import numpy as np

from .octree import ClusterTree, RebinResult

__all__ = ["TargetBatches"]


class TargetBatches:
    """The set of localized target batches ``{B}``.

    Thin wrapper over a :class:`ClusterTree` built on the target particles
    with leaf cap ``NB``; the batches are the tree's leaves.  Exposes the
    per-batch quantities the MAC and the executor need.
    """

    def __init__(
        self,
        positions: np.ndarray,
        max_batch_size: int,
        *,
        aspect_ratio_splitting: bool = True,
        shrink_to_fit: bool = True,
    ) -> None:
        self._tree = ClusterTree(
            positions,
            max_batch_size,
            aspect_ratio_splitting=aspect_ratio_splitting,
            shrink_to_fit=shrink_to_fit,
        )
        #: Node index of every batch (the batch tree's leaves, in order).
        self.node_ids = np.flatnonzero(self._tree.view().is_leaf)

    def __len__(self) -> int:
        return len(self.node_ids)

    @property
    def n_targets(self) -> int:
        return self._tree.n_particles

    @property
    def max_level(self) -> int:
        """Depth of the underlying batch tree (host-side build cost)."""
        return self._tree.max_level

    @property
    def perm(self) -> np.ndarray:
        """Permutation of target indices; batch ``b`` owns a slice of it."""
        return self._tree.perm

    @property
    def positions(self) -> np.ndarray:
        """(n_targets, 3) target coordinates (the batch tree's array)."""
        return self._tree.positions

    @property
    def tree(self) -> ClusterTree:
        """The underlying batch tree (its leaves are the batches)."""
        return self._tree

    def rebin(self, new_positions: np.ndarray) -> RebinResult:
        """Re-bin the batch tree for moved targets.

        Delegates to :meth:`ClusterTree.rebin`; on success the batch
        node indices stay valid because a rebin preserves the topology.
        Batch ``b``'s node index in the masks is ``self.node_ids[b]``.
        """
        return self._tree.rebin(new_positions)

    def batch_indices(self, b: int) -> np.ndarray:
        """Original target indices of batch ``b``."""
        return self._tree.node_indices(self.node_ids[b])

    def batch_points(self, b: int) -> np.ndarray:
        """Coordinates of the targets in batch ``b``."""
        return self._tree.node_points(self.node_ids[b])

    def centers(self) -> np.ndarray:
        """(n_batches, 3) batch centers (read from the batch tree's view)."""
        return self._tree.view().centers[self.node_ids]

    def radii(self) -> np.ndarray:
        """(n_batches,) batch radii (read from the batch tree's view)."""
        return self._tree.view().radii[self.node_ids]

    def sizes(self) -> np.ndarray:
        """(n_batches,) number of targets per batch."""
        return self._tree.view().counts[self.node_ids]

    def validate(self) -> None:
        """Structural invariants (delegates to the underlying tree)."""
        self._tree.validate()
        assert int(self.sizes().sum()) == self.n_targets
