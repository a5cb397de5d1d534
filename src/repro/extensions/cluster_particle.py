"""Barycentric cluster-particle treecode (paper Sec. 5 / refs. [30-32]).

The BLTC approximates *particle-cluster* interactions by interpolating
the kernel with respect to the source variable (eq. 8).  The
cluster-particle scheme is the transpose: interpolate with respect to the
*target* variable over clusters of targets,

    phi(x) ~ sum_k L_k1(x_1) L_k2(x_2) L_k3(x_3) psi_k,
    psi_k  = sum_{y_j in S} G(t_k, y_j) q_j,

where ``t_k`` are Chebyshev grid points spanning the target cluster's box
and S is a well-separated batch of sources.  The scheme proceeds in three
stages, each with the same direct-sum structure that made the BLTC
GPU-friendly:

1. *Traversal* -- batches of sources are traversed against the target
   cluster tree under the same two-condition MAC (the size condition now
   compares ``(n+1)^3`` against the number of *targets* in the cluster).
2. *Accumulation* -- accepted (cluster, batch) pairs add kernel sums into
   the cluster's grid potentials ``psi_k``; failed leaf pairs add
   directly into the leaf targets' potentials.  This stage is compiled
   into an :class:`~repro.core.plan.ExecutionPlan` -- one group per
   receiving target block (a cluster's Chebyshev grid or a leaf's
   particles), one segment per contributing source batch -- and executed
   by the backend named in ``params.backend``, exactly like the BLTC's
   compute phase.
3. *Downward interpolation* -- each cluster's accumulated ``psi`` is
   interpolated to its own target particles with the barycentric basis
   (removable singularities handled as in Sec. 2.3).

Cluster-particle is advantageous when there are many more targets than
sources (Boateng & Krasny, ref. [32]); the ablation benchmark exercises
exactly that regime.

Every piece of the scheme except the source charges is geometry:
:meth:`ClusterParticleTreecode.prepare` captures the trees, traversal
lists, receiving-group structure, plan skeleton and the downward
interpolation basis once, and
:meth:`PreparedClusterParticle.apply` re-evaluates for new charges by
refreshing the plan's weight buffer in place (a source batch's weights
are just its charges -- this scheme has no moment stage).
"""

from __future__ import annotations

import numpy as np

from ..core.interaction_lists import build_interaction_lists
from ..core.plan import assemble_plan
from ..core.session import BatchChargeWeightSource, GeometryState
from ..gpu.device import Device
from ..interpolation.grid import ChebyshevGrid3D
from ..perf.timer import PhaseTimes
from ..tree.batches import TargetBatches
from ..tree.octree import ClusterTree
from ._downward import (
    ExtensionTreecode,
    PreparedExtension,
    downward_basis,
    downward_pass,
    receiving_groups,
)

__all__ = ["ClusterParticleTreecode", "PreparedClusterParticle"]


class _CPGeometry:
    """Charge-independent state of one cluster-particle evaluation."""

    __slots__ = (
        "tree", "batches", "lists", "mac_evals", "grids",
        "group_keys", "group_batches", "grid_groups", "direct_groups",
        "grid_slot", "n_targets", "target_pos", "basis",
    )


class PreparedClusterParticle(PreparedExtension):
    """A cluster-particle session with fixed geometry (see ``prepare``)."""


class ClusterParticleTreecode(ExtensionTreecode):
    """Kernel-independent barycentric cluster-particle treecode.

    API mirrors :class:`~repro.core.treecode.BarycentricTreecode`:
    ``compute(sources, targets)`` returns a
    :class:`~repro.core.treecode.TreecodeResult`, and
    ``prepare(sources, targets)`` opens a session that takes new
    charges per apply.
    ``max_leaf_size`` caps *target* clusters; ``max_batch_size`` caps
    *source* batches.
    """

    _weight_source = BatchChargeWeightSource
    _session_cls = PreparedClusterParticle

    # ------------------------------------------------------------------
    # Geometry: traversal + receiving-group structure (charge-free)
    # ------------------------------------------------------------------
    def _build_geometry_state(
        self,
        source_pos: np.ndarray,
        target_pos: np.ndarray,
        device: Device,
        phases: PhaseTimes,
        *,
        numerics: bool,
    ) -> GeometryState:
        """Build the full charge-independent geometry on ``device``.

        The scheme's whole setup pipeline -- TARGET cluster tree +
        SOURCE batches, the traversal of every source batch against the
        target tree, the position upload, the geometry-only plan
        skeleton and the downward basis -- charged to ``phases.setup``.
        ``prepare()`` (hence ``compute()``) runs it on a fresh device,
        the rebuild updater on the session's, so a rebuilt session
        costs and holds exactly what a cold prepare at the positions
        does.  Charges travel per apply.
        """
        g = self._build_geometry(source_pos, target_pos)
        device.host_work(
            g.n_targets * (g.tree.max_level + 1)
            + source_pos.shape[0] * (g.batches.max_level + 1)
        )
        phases.setup += device.take_phase()

        device.upload(source_pos.nbytes + target_pos.nbytes)
        device.host_work(g.mac_evals * 4)
        phases.setup += device.take_phase()

        plan = self._compile_plan(g, numerics=numerics)
        g.basis = (
            downward_basis(g.tree, g.grids, target_pos) if numerics else {}
        )
        return GeometryState(
            plan=plan, tree=g.tree, batches=g.batches, lists=g.lists, aux=g
        )

    def _build_geometry(
        self, source_pos: np.ndarray, target_pos: np.ndarray
    ) -> _CPGeometry:
        """Trees, traversal lists and receiving groups; no device events."""
        params = self.params
        g = _CPGeometry()
        g.target_pos = target_pos
        g.n_targets = target_pos.shape[0]
        g.tree = ClusterTree(
            target_pos,
            params.max_leaf_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        g.batches = TargetBatches(
            source_pos,
            params.max_batch_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        g.lists = build_interaction_lists(g.batches, g.tree, params)
        g.mac_evals = g.lists.mac_evals

        # Group the accepted pairs by receiving target block.
        # Approximated target clusters receive on their Chebyshev grids
        # (output rows beyond n_targets); failed leaf pairs receive on
        # the leaf's own particles.
        g.grids = {}
        g.grid_groups = {}
        g.direct_groups = {}
        g.group_keys = []
        g.group_batches = []
        view = g.tree.view()
        for b, (approx, direct) in enumerate(
            zip(g.lists.approx, g.lists.direct)
        ):
            for c in approx.tolist():
                grp = g.grid_groups.get(c)
                if grp is None:
                    g.grids[c] = ChebyshevGrid3D.for_box(
                        view.lo[c], view.hi[c], params.degree
                    )
                    grp = len(g.group_keys)
                    g.grid_groups[c] = grp
                    g.group_keys.append(("approx", c))
                    g.group_batches.append([])
                g.group_batches[grp].append(b)
            for c in direct.tolist():
                grp = g.direct_groups.get(c)
                if grp is None:
                    grp = len(g.group_keys)
                    g.direct_groups[c] = grp
                    g.group_keys.append(("direct", c))
                    g.group_batches.append([])
                g.group_batches[grp].append(b)
        return g

    def _compile_plan(self, g: _CPGeometry, *, numerics: bool):
        """Compile the geometry-only accumulation plan skeleton.

        The share key of every segment is its source-batch index (the
        same rows serve approx and direct receivers), which doubles as
        the weight-refresh key of the session.
        """
        n_ip = self.params.n_interpolation_points
        sizes, out_index, targets, g.grid_slot = receiving_groups(
            [(kind == "approx", c) for kind, c in g.group_keys],
            g.tree, g.grids, g.target_pos, n_ip, numerics=numerics,
        )
        counts = [len(bs) for bs in g.group_batches]
        return assemble_plan(
            g.n_targets + n_ip * len(g.grids),
            sizes,
            np.repeat(np.arange(len(counts)), counts),
            np.repeat([kind == "direct" for kind, _ in g.group_keys], counts),
            ("approx", "direct"),
            [b for bs in g.group_batches for b in bs],
            g.batches.sizes(),
            targets=targets,
            out_index=out_index,
            key_points=lambda codes: np.concatenate(
                [g.batches.batch_points(b) for b in codes.tolist()]
            ),
        )

    # -- hooks of the shared driver / the rebuild updater ----------------
    def _session_positions(self, core):
        """(source, target) position arrays of a prepared session."""
        g = core.geometry.aux
        return g.batches.positions, g.target_pos

    def _downward_pass(
        self, g, out_flat, out, device, *, numerics: bool = True
    ) -> None:
        downward_pass(
            self.params, g.tree, g.grids, g.grid_slot, g.basis,
            out_flat, out, device, numerics=numerics,
        )

    def _stats(self, g: _CPGeometry, n_sources: int, device) -> dict:
        n_approx = sum(
            len(g.group_batches[grp]) for grp in g.grid_groups.values()
        )
        n_direct = sum(
            len(g.group_batches[grp]) for grp in g.direct_groups.values()
        )
        c = device.counters
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "scheme": "cluster-particle",
            "n_sources": n_sources,
            "n_targets": g.n_targets,
            "n_tree_nodes": len(g.tree),
            "n_batches": len(g.batches),
            "n_approx_interactions": n_approx,
            "n_direct_interactions": n_direct,
            "n_clusters_with_grid": len(g.grids),
            "mac_evals": g.mac_evals,
            "launches": c.launches,
            "kernel_evaluations": c.interactions,
            "by_kind": {k: tuple(v) for k, v in c.by_kind.items()},
            "busy_by_kind": dict(c.busy_by_kind),
        }
