"""The BLTC segment-key vocabulary, in one place.

A BLTC plan has one group per target batch and one segment per
(batch, cluster) pair (paper Sec. 2.4).  Each segment's ``share_key``
names the cluster whose rows it reads:

    ``(kind, owner, c)``

* ``kind`` -- ``"approx"``: the cluster's Chebyshev grid, carrying its
  modified charges (eq. 11); ``"direct"``: its source particles,
  carrying their charges (eq. 9);
* ``owner`` -- :data:`LOCAL` for the device's own source tree, else the
  remote rank whose cluster the locally essential tree fetched
  (paper Sec. 3.1);
* ``c`` -- the node index in the owner's tree.

:func:`~repro.core.plan.compile_plan` writes the keys, per batch in the
merge order local approx, remote approx by ascending rank, local
direct, remote direct; :class:`BLTCSources` reads each key back as
source points (the plan's geometry) or weights
(:class:`BLTCWeightSource`, the session's refresh).  Nothing else
decodes them, so a single-device plan and a distributed rank plan share
one format: the single device is a rank whose locally essential tree
holds no remote owners.
"""

from __future__ import annotations

__all__ = [
    "LOCAL",
    "BLTCSources",
    "BLTCWeightSource",
]

#: ``owner`` of the clusters of the device's own source tree.
LOCAL = -1


class BLTCSources:
    """The rows behind every BLTC segment key of one device's plan.

    Local keys read ``tree`` and ``moments``; remote keys read ``let``
    (a :class:`~repro.distributed.letree.LocallyEssentialTree`, or None
    on a single device).  Every read happens at call time, so the same
    object serves before and after a charge refresh or a re-bin.
    """

    def __init__(self, tree, moments, let=None) -> None:
        self.tree = tree
        self.moments = moments
        self.let = let

    def points(self, key):
        """Source coordinates of the segment (plan geometry)."""
        kind, owner, c = key
        if kind == "approx":
            if owner == LOCAL:
                return self.moments.grid(c).points
            return self.let.approx_data[owner][c][0].points
        if owner == LOCAL:
            return self.tree.positions[self.tree.node_indices(c)]
        return self.let.direct_data[owner][c][0]

    def weights(self, key, charges):
        """Source weights of the segment for the local ``charges``."""
        kind, owner, c = key
        if kind == "approx":
            if owner == LOCAL:
                return self.moments.charges(c)
            return self.let.approx_data[owner][c][1]
        if owner == LOCAL:
            return charges[self.tree.node_indices(c)]
        return self.let.direct_data[owner][c][1]


class BLTCWeightSource:
    """The weight source of both BLTC drivers' sessions.

    ``geometry.aux`` is the rank's locally essential tree (refreshed by
    the RMA re-ship before each execute) or None on a single device.
    """

    def provider(self, geometry, charges):
        sources = BLTCSources(geometry.tree, geometry.moments, geometry.aux)
        return lambda key: sources.weights(key, charges)
