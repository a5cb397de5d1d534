"""Barycentric cluster-cluster treecode via dual tree traversal.

The last of the paper's Sec. 5 treecode variants ("barycentric
cluster-particle and cluster-cluster treecodes", refs. [30]-[32]; the
authors later published this as the BLDTT).  Both the targets and the
sources carry cluster trees; a dual traversal classifies node pairs
(T, S):

* MAC passes and both clusters are large enough -- *cluster-cluster*:
  the source cluster's modified charges interact with the target
  cluster's Chebyshev grid, ``psi^T_k += sum_m G(t_k, s_m) qhat^S_m``,
  at O((n+1)^6) cost independent of the cluster populations;
* MAC passes but only the source side is large -- *particle-cluster*
  (the BLTC interaction): targets interact with the source grid;
* MAC passes but only the target side is large -- *cluster-particle*:
  source particles accumulate onto the target grid;
* MAC passes and neither side qualifies, or the MAC fails at two leaves
  -- *direct*;
* otherwise the larger node is split and the traversal recurses.

A final interpolation pass sends each target cluster's accumulated grid
potentials to its own particles with the barycentric basis.  The scheme
reduces the asymptotic complexity from O(N log N) toward O(N), which is
why it is the natural next step after the BLTC.

The four pair classes are compiled into one
:class:`~repro.core.plan.ExecutionPlan` -- one group per receiving
target block (a target cluster's Chebyshev grid for cc/cp pairs, a
target node's particles for pc/direct pairs), one segment per
contributing source block -- and executed by the backend named in
``params.backend``, sharing the launch-charging path with the BLTC.

Geometry vs. charges: the trees, traversal classification, group
structure, source-cluster Chebyshev grids and downward-interpolation
basis all depend only on positions.  :meth:`DualTreeTreecode.prepare`
captures them once; :meth:`PreparedDualTree.apply` re-moments the
source clusters on the cached grids and rewrites the plan's weight
buffer in place per charge vector.
"""

from __future__ import annotations

import numpy as np

from ..core.mac import mac_geometric
from ..core.moments import prepare_moment_grids
from ..core.plan import assemble_plan
from ..core.session import DualTreeWeightSource, GeometryState
from ..gpu.device import Device
from ..interpolation.grid import ChebyshevGrid3D
from ..perf.timer import PhaseTimes
from ..tree.octree import ClusterTree
from ._downward import (
    ExtensionTreecode,
    PreparedExtension,
    downward_basis,
    downward_pass,
    receiving_groups,
)

__all__ = ["DualTreeTreecode", "PreparedDualTree"]

#: Segment kinds of the dual-tree plan, by pair class.
DT_KINDS = (
    "cluster-cluster", "particle-cluster", "cluster-particle", "direct"
)


def _share_keys(codes) -> list:
    """Weight-refresh keys of source-block codes (see ``_build_groups``):
    ``("moments", si)`` or ``("particles", si)``."""
    return [
        ("particles" if c % 2 else "moments", c // 2) for c in codes.tolist()
    ]


class _DTGeometry:
    """Charge-independent state of one dual-tree evaluation."""

    __slots__ = (
        "s_tree", "t_tree", "cc_pairs", "pc_pairs", "cp_pairs",
        "direct_pairs", "mac_evals", "t_grids", "grid_groups",
        "node_groups", "group_keys", "group_segs", "grid_slot",
        "n_targets", "target_pos", "source_pos", "basis",
    )


class PreparedDualTree(PreparedExtension):
    """A dual-tree session with fixed geometry (see ``prepare``)."""

    @property
    def moments(self):
        return self.core.geometry.moments


class DualTreeTreecode(ExtensionTreecode):
    """Barycentric cluster-cluster treecode (dual tree traversal).

    ``max_leaf_size`` caps the source tree, ``max_batch_size`` the target
    tree (mirroring the BLTC's NL/NB roles).  ``compute`` evaluates one
    charge vector end-to-end; ``prepare``/``apply`` split the pipeline
    along the charge-dependence boundary for repeated evaluation.
    """

    _weight_source = DualTreeWeightSource
    _session_cls = PreparedDualTree

    # ------------------------------------------------------------------
    # Geometry: trees, dual traversal, receiving-group structure
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

        The scheme's whole setup pipeline -- both trees, the position
        upload, the dual traversal, the source clusters' Chebyshev
        grids (with Lagrange basis), the receiving groups, the
        geometry-only plan skeleton and the downward basis -- charged
        to ``phases.setup``.  ``prepare()`` (hence ``compute()``) runs
        it on a fresh device, the rebuild updater on the session's, so
        a rebuilt session costs and holds exactly what a cold prepare
        at the positions does.  Charges travel, and the moment kernels
        run, per apply.
        """
        g = self._build_trees(source_pos, target_pos)
        device.host_work(
            source_pos.shape[0] * (g.s_tree.max_level + 1)
            + target_pos.shape[0] * (g.t_tree.max_level + 1)
        )
        phases.setup += device.take_phase()

        device.upload(source_pos.nbytes + target_pos.nbytes)
        self._traverse(g)
        device.host_work(g.mac_evals * 4)
        phases.setup += device.take_phase()

        moments = prepare_moment_grids(g.s_tree, self.params,
                                       numerics=numerics)
        self._build_groups(g)
        plan = self._compile_plan(g, moments, numerics=numerics)
        g.basis = (
            downward_basis(g.t_tree, g.t_grids, target_pos)
            if numerics else {}
        )
        return GeometryState(
            plan=plan, tree=g.s_tree, moments=moments, aux=g
        )

    def _build_trees(self, source_pos, target_pos) -> _DTGeometry:
        params = self.params
        g = _DTGeometry()
        g.source_pos = source_pos
        g.target_pos = target_pos
        g.n_targets = target_pos.shape[0]
        g.s_tree = ClusterTree(
            source_pos,
            params.max_leaf_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        g.t_tree = ClusterTree(
            target_pos,
            params.max_batch_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        return g

    def _traverse(self, g: _DTGeometry) -> None:
        """Dual traversal -> the four classified pair lists."""
        params = self.params
        n_ip = params.n_interpolation_points
        g.cc_pairs = []
        g.pc_pairs = []
        g.cp_pairs = []
        g.direct_pairs = []
        g.mac_evals = 0
        tv = g.t_tree.view()
        sv = g.s_tree.view()
        stack = [(0, 0)]
        while stack:
            ti, si = stack.pop()
            dist = float(np.linalg.norm(tv.centers[ti] - sv.centers[si]))
            g.mac_evals += 1
            if mac_geometric(tv.radii[ti], sv.radii[si], dist, params.theta):
                s_ok = (not params.size_check) or n_ip < sv.counts[si]
                t_ok = (not params.size_check) or n_ip < tv.counts[ti]
                if s_ok and t_ok:
                    g.cc_pairs.append((ti, si))
                elif s_ok:
                    g.pc_pairs.append((ti, si))
                elif t_ok:
                    g.cp_pairs.append((ti, si))
                else:
                    g.direct_pairs.append((ti, si))
                continue
            t_leaf = tv.is_leaf[ti]
            s_leaf = sv.is_leaf[si]
            if t_leaf and s_leaf:
                g.direct_pairs.append((ti, si))
            elif s_leaf or (not t_leaf and tv.radii[ti] >= sv.radii[si]):
                first = tv.first_child[ti]
                stack.extend(
                    (c, si) for c in range(first, first + tv.n_children[ti])
                )
            else:
                first = sv.first_child[si]
                stack.extend(
                    (ti, c) for c in range(first, first + sv.n_children[si])
                )

    def _build_groups(self, g: _DTGeometry) -> None:
        """Group the four pair classes by receiving target block.

        Grid groups (cluster Chebyshev grids, fed by cc and cp pairs)
        accumulate into psi rows appended after the particle outputs;
        particle groups (target nodes, fed by pc and direct pairs)
        accumulate straight into the potentials.  The four passes append
        in a fixed order, so each group's segments are kind-contiguous
        by construction.  A segment is ``(kind, key)``: an index into
        :data:`DT_KINDS` and the code of its source block, ``2 si`` for
        source cluster ``si``'s moments, ``2 si + 1`` for its particles
        -- the shared gather's dedup key, decoded by :func:`_share_keys`
        into the prepared session's weight-refresh key.
        """
        params = self.params
        tv = g.t_tree.view()
        g.t_grids = {}
        g.grid_groups = {}
        g.node_groups = {}
        g.group_keys = []
        g.group_segs = []

        def grid_group(ti: int) -> int:
            grp = g.grid_groups.get(ti)
            if grp is None:
                g.t_grids[ti] = ChebyshevGrid3D.for_box(
                    tv.lo[ti], tv.hi[ti], params.degree
                )
                grp = len(g.group_keys)
                g.grid_groups[ti] = grp
                g.group_keys.append(("grid", ti))
                g.group_segs.append([])
            return grp

        def node_group(ti: int) -> int:
            grp = g.node_groups.get(ti)
            if grp is None:
                grp = len(g.group_keys)
                g.node_groups[ti] = grp
                g.group_keys.append(("node", ti))
                g.group_segs.append([])
            return grp

        for ti, si in g.cc_pairs:
            g.group_segs[grid_group(ti)].append((0, 2 * si))
        for ti, si in g.pc_pairs:
            g.group_segs[node_group(ti)].append((1, 2 * si))
        for ti, si in g.cp_pairs:
            g.group_segs[grid_group(ti)].append((2, 2 * si + 1))
        for ti, si in g.direct_pairs:
            g.group_segs[node_group(ti)].append((3, 2 * si + 1))

    def _compile_plan(self, g: _DTGeometry, moments, *, numerics: bool):
        """Compile the four pair classes into one geometry-only plan
        skeleton (the session's weight refresh fills the weights)."""
        n_ip = self.params.n_interpolation_points
        sizes, out_index, targets, g.grid_slot = receiving_groups(
            [(key == "grid", ti) for key, ti in g.group_keys],
            g.t_tree, g.t_grids, g.target_pos, n_ip, numerics=numerics,
        )
        segs = [seg for group in g.group_segs for seg in group]
        key_rows = np.empty(2 * len(g.s_tree), dtype=np.intp)
        key_rows[0::2] = n_ip
        key_rows[1::2] = g.s_tree.node_counts

        def key_points(codes):
            return np.concatenate([
                moments.grid(si).points if what == "moments"
                else g.source_pos[g.s_tree.node_indices(si)]
                for what, si in _share_keys(codes)
            ])

        return assemble_plan(
            g.n_targets + n_ip * len(g.t_grids),
            sizes,
            np.repeat(
                np.arange(len(g.group_segs)),
                [len(group) for group in g.group_segs],
            ),
            [kind for kind, _ in segs],
            DT_KINDS,
            [key for _, key in segs],
            key_rows,
            targets=targets,
            out_index=out_index,
            key_points=key_points,
            share_keys=_share_keys,
        )

    # -- hooks of the shared driver / the rebuild updater ----------------
    def _session_positions(self, core):
        """(source, target) position arrays of a prepared session."""
        g = core.geometry.aux
        return g.source_pos, g.target_pos

    def _downward_pass(
        self, g, out_flat, out, device, *, numerics: bool = True
    ) -> None:
        downward_pass(
            self.params, g.t_tree, g.t_grids, g.grid_slot, g.basis,
            out_flat, out, device, numerics=numerics,
        )

    def _stats(self, g: _DTGeometry, n_sources: int, device) -> dict:
        c = device.counters
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "scheme": "cluster-cluster (dual tree traversal)",
            "n_sources": n_sources,
            "n_targets": g.n_targets,
            "n_source_nodes": len(g.s_tree),
            "n_target_nodes": len(g.t_tree),
            "n_cc_pairs": len(g.cc_pairs),
            "n_pc_pairs": len(g.pc_pairs),
            "n_cp_pairs": len(g.cp_pairs),
            "n_direct_pairs": len(g.direct_pairs),
            "mac_evals": g.mac_evals,
            "launches": c.launches,
            "kernel_evaluations": c.interactions,
            "by_kind": {k: tuple(v) for k, v in c.by_kind.items()},
            "busy_by_kind": dict(c.busy_by_kind),
        }
