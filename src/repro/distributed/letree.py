"""Locally essential trees (paper Sec. 3.1).

LET construction happens in two steps (paper's two-rank example):

1. the origin rank *gets* each remote rank's packed tree array (cluster
   midpoints, radii, counts, topology -- no particle data), reads it as a
   :class:`~repro.tree.octree.TreeView` and runs the same batch/cluster
   traversal local lists come from, producing per-remote interaction
   lists;
2. the origin *gets* exactly the data those lists reference: source
   particles and charges of directly-summed remote clusters, and modified
   charges of approximated remote clusters.

The union of that data over all remote ranks -- plus the rank's own local
tree -- is the rank's locally essential tree: everything required to
evaluate its targets with no further communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import TreecodeParams
from ..core.interaction_lists import InteractionLists, build_interaction_lists
from ..interpolation.grid import ChebyshevGrid3D
from ..mpi.comm import RankHandle
from ..tree.batches import TargetBatches
from ..tree.octree import TreeView

__all__ = [
    "LocallyEssentialTree",
    "build_let",
    "build_let_geometry",
    "refresh_let_charges",
]


@dataclass
class LocallyEssentialTree:
    """All remote data one rank needs for its potential evaluation.

    Keyed by remote rank: interaction lists per local batch, the fetched
    particle data for direct interactions, and the fetched modified
    charges (with grids reconstructed locally from the node boxes -- the
    Chebyshev grid is determined by the box and the degree, so grids never
    travel over the network, matching the paper which communicates only
    particles and cluster charges).
    """

    #: lists[s] -- InteractionLists of local batches vs remote rank s.
    lists: dict[int, InteractionLists] = field(default_factory=dict)
    #: direct_data[s][node] = (positions, charges) for remote node.
    #: ``charges`` is None between a geometry-only build and the first
    #: :func:`refresh_let_charges`.
    direct_data: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict
    )
    #: approx_data[s][node] = (grid, modified_charges) for remote node;
    #: ``modified_charges`` is None until the first charge refresh.
    approx_data: dict[int, dict[int, tuple[ChebyshevGrid3D, np.ndarray]]] = field(
        default_factory=dict
    )
    #: direct_slices[s][node] -- the owner-side particle slice of each
    #: direct cluster, retained so charge refreshes re-get exactly the
    #: referenced rows without re-fetching the remote tree array.
    direct_slices: dict[int, dict[int, slice]] = field(default_factory=dict)

    def n_remote_clusters(self) -> int:
        return sum(len(d) for d in self.approx_data.values()) + sum(
            len(d) for d in self.direct_data.values()
        )

    def nbytes(self) -> int:
        """Bytes of remote payload held in the LET."""
        return self.nbytes_geometry() + self.nbytes_charges()

    def nbytes_geometry(self) -> int:
        """Charge-independent payload bytes (direct-cluster positions)."""
        total = 0
        for per_rank in self.direct_data.values():
            for pos, _ in per_rank.values():
                total += pos.nbytes
        return total

    def nbytes_charges(self) -> int:
        """Charge-dependent payload bytes (charges + modified charges)."""
        total = 0
        for per_rank in self.direct_data.values():
            for _, q in per_rank.values():
                if q is not None:
                    total += q.nbytes
        for per_rank in self.approx_data.values():
            for _, qhat in per_rank.values():
                if qhat is not None:
                    total += qhat.nbytes
        return total


def build_let(
    handle: RankHandle,
    batches: TargetBatches,
    params: TreecodeParams,
    *,
    tree_window: str = "tree",
    pos_window: str = "srcpos",
    charge_window: str = "srcq",
    moments_window: str = "moments",
    numerics: bool = True,
) -> tuple[LocallyEssentialTree, int]:
    """Construct this rank's LET over the simulated RMA windows.

    Returns ``(let, mac_evals)`` where ``mac_evals`` counts the host-side
    traversal work (for the setup-phase cost model).  Communication costs
    are charged to the origin's clock by the communicator.  Composed of
    the geometry half (:func:`build_let_geometry`, which skips the
    Chebyshev grids with ``numerics=False``) plus one charge re-ship
    (:func:`refresh_let_charges`): the per-get costs are additive, so
    the composition charges exactly the bytes and ops of the original
    interleaved construction.
    """
    let, mac_evals = build_let_geometry(
        handle, batches, params,
        tree_window=tree_window, pos_window=pos_window, numerics=numerics,
    )
    refresh_let_charges(
        handle, let,
        charge_window=charge_window, moments_window=moments_window,
    )
    return let, mac_evals


def build_let_geometry(
    handle: RankHandle,
    batches: TargetBatches,
    params: TreecodeParams,
    *,
    tree_window: str = "tree",
    pos_window: str = "srcpos",
    numerics: bool = True,
) -> tuple[LocallyEssentialTree, int]:
    """The charge-independent half of LET construction.

    Gets each remote rank's packed tree array, traverses it to build
    the per-remote interaction lists, fetches the *positions* of every
    directly-summed remote cluster, and reconstructs approximated
    clusters' Chebyshev grids from their boxes (``numerics=False``
    skips the grid objects, as in the model-only pipeline).  No charge
    or moment data moves; the retained ``direct_slices`` let
    :func:`refresh_let_charges` re-ship exactly the referenced rows per
    charge vector -- the prepare/apply session's amortization of the
    remote-tree traversal and position traffic.
    """
    let = LocallyEssentialTree()
    mac_evals = 0
    for s in handle.remote_ranks():
        # Step 1: get the remote tree array, build interaction lists.
        remote = TreeView(handle.get(s, tree_window))
        lists = build_interaction_lists(batches, remote, params)
        mac_evals += lists.mac_evals
        let.lists[s] = lists

        # Step 2 (geometry part): referenced remote positions + grids.
        direct_nodes = sorted(
            {int(c) for d in lists.direct for c in d}
        )
        approx_nodes = sorted(
            {int(c) for a in lists.approx for c in a}
        )
        dd: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        slices: dict[int, slice] = {}
        for c in direct_nodes:
            sl = slice(int(remote.starts[c]), int(remote.ends[c]))
            slices[c] = sl
            dd[c] = (handle.get(s, pos_window, sl), None)
        ad: dict[int, tuple[ChebyshevGrid3D, np.ndarray]] = {}
        for c in approx_nodes:
            grid = None
            if numerics:
                grid = ChebyshevGrid3D.for_box(
                    remote.lo[c], remote.hi[c], params.degree
                )
            ad[c] = (grid, None)
        let.direct_data[s] = dd
        let.approx_data[s] = ad
        let.direct_slices[s] = slices
    return let, mac_evals


def refresh_let_charges(
    handle: RankHandle,
    let: LocallyEssentialTree,
    *,
    charge_window: str = "srcq",
    moments_window: str = "moments",
) -> None:
    """Re-ship the LET's charge-dependent payload (and nothing else).

    Gets the charges of every directly-summed remote cluster (the
    slices recorded at geometry build) and the modified charges of
    every approximated remote cluster from the owners' refreshed
    windows, updating the LET in place.  Per charge vector this is the
    only remote traffic a prepared rank needs -- the tree arrays,
    interaction lists and positions stay cached.
    """
    for s in sorted(let.lists):
        slices = let.direct_slices[s]
        dd = let.direct_data[s]
        for c in sorted(dd):
            pos, _ = dd[c]
            dd[c] = (pos, handle.get(s, charge_window, slices[c]))
        ad = let.approx_data[s]
        for c in sorted(ad):
            grid, _ = ad[c]
            ad[c] = (grid, handle.get(s, moments_window, c))
