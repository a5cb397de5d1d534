"""Warm-start geometry updates for prepared sessions.

MD time-stepping moves every particle a little every step; rebuilding a
prepared session from scratch each step repays the full setup phase for
a geometry that is almost unchanged.  This module holds the
``update_geometry`` machinery behind
:meth:`~repro.core.session.SessionCore.update_geometry`:

* :class:`TreecodeGeometryUpdater` -- the incremental path for the
  single-device BLTC.  It re-bins both trees
  (:meth:`~repro.tree.octree.ClusterTree.rebin`: a cold array build at
  the new positions plus a topology check, committed only when every
  node keeps its child count, so node indices keep their meaning and
  the per-node change masks are array comparisons), re-qualifies and
  rebuilds only dirtied moment grids
  (:func:`~repro.core.moments.refresh_moment_geometry`), re-traverses
  only batches whose recorded MAC decisions no longer hold
  (:func:`~repro.core.interaction_lists.verify_traversal`), and then
  takes one plan step: :func:`~repro.core.plan.compile_plan` on the
  patched state.  Each step reproduces its cold counterpart exactly
  (cold-build re-bin, conservative decision verify, cold compile), so
  every post-update ``apply()`` is bitwise equal to a cold
  ``prepare()`` at the new positions.
* :class:`RebuildGeometryUpdater` -- the fallback used by the Sec. 5
  extension sessions: every update re-runs the driver's geometry
  builder on the session's device and swaps the state in.  Same seam,
  same result object, no incremental machinery.

Both updaters fall back to a full rebuild automatically: the
incremental path bails when the re-bin cannot preserve the tree
topology, when the fraction of re-binned particles exceeds
``TreecodeParams.rebuild_threshold`` (past that point the dirty set is
so large that patching costs more than rebuilding), or when the
previous update failed midway and left the session stale.  Updaters
are picklable session state; the traversal record they cache is
dropped on pickle and rebuilt lazily at the next update.

The fresh plan carries no batched layout, cast cache, coincidence
candidates or mirror schedule: the stacked path builds its
:class:`~repro.core.plan.BatchedLayout` on the next execute
(zero-weight-padded near-field buckets included, whose shapes may
change when cluster populations shift), and the rest is derived on
first use as after a cold prepare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryUpdateError
from ..perf.timer import PhaseTimes, Stopwatch
from .interaction_lists import (
    patch_interaction_lists,
    record_traversal,
    verify_traversal,
)
from .moments import refresh_moment_geometry
from .plan import compile_plan

__all__ = [
    "GeometryUpdateResult",
    "TreecodeGeometryUpdater",
    "RebuildGeometryUpdater",
]


@dataclass
class GeometryUpdateResult:
    """What one ``update_geometry`` call did.

    ``rebuilt`` distinguishes a full re-prepare (with ``reason``) from
    the incremental patch path; ``noop`` short-circuits both when the
    positions are bitwise unchanged.  The remaining counters quantify
    the incremental work: particles whose leaf changed, batches whose
    lists were re-traversed, MAC evaluations spent on them, plan groups
    whose segments or row counts changed and moment grids rebuilt.
    ``phases`` carries the simulated device cost of the update (a
    setup-phase charge).
    """

    rebuilt: bool
    reason: str = ""
    noop: bool = False
    n_rebinned: int = 0
    rebinned_fraction: float = 0.0
    n_dirty_batches: int = 0
    redone_mac_evals: int = 0
    n_patched_groups: int = 0
    n_moments_rebuilt: int = 0
    phases: PhaseTimes | None = None
    wall_seconds: float = 0.0


def _as_positions(arr, n: int, what: str) -> np.ndarray:
    """Validated ``(n, 3)`` float64 *copy* of ``arr``.

    Always copies: the session's trees must own a stable array, since
    MD callers typically mutate their position buffer in place between
    steps (which would otherwise silently corrupt the no-op detection
    and the decision verify).
    """
    a = np.atleast_2d(np.array(arr, dtype=np.float64, copy=True))
    if a.shape != (n, 3):
        raise ValueError(f"{what} must have shape ({n}, 3); got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


class TreecodeGeometryUpdater:
    """Incremental re-prepare for the single-device BLTC session.

    Holds the driver (to delegate full rebuilds to its geometry build)
    and lazily caches the traversal decision record the verify pass
    compares against.  The record is built on first use *before* the
    re-bin commits -- it must trace the traversal the stored lists came
    from -- and patched in step with the lists afterwards, so it always
    describes the session's current interaction lists.
    """

    def __init__(self, driver) -> None:
        self.driver = driver
        self._record = None

    def __getstate__(self):
        # The record is pure cache (one traversal rebuilds it); ship
        # nothing so pickled sessions stay lean.
        state = self.__dict__.copy()
        state["_record"] = None
        return state

    # ------------------------------------------------------------------
    def update(
        self, core, new_positions, *, targets=None
    ) -> GeometryUpdateResult:
        params = core.params
        geometry = core.geometry
        tree = geometry.tree
        batches = geometry.batches
        same_object = batches.positions is tree.positions

        new_src = _as_positions(new_positions, tree.n_particles, "positions")
        if targets is not None:
            new_tgt = _as_positions(targets, batches.n_targets, "targets")
        elif same_object:
            # Sources and targets are one particle set: share one copy
            # so the trees keep aliasing a single array.
            new_tgt = new_src
        else:
            new_tgt = None  # disjoint static targets stay put

        if not core.geometry_stale and np.array_equal(
            new_src, tree.positions
        ) and (
            new_tgt is None
            or new_tgt is new_src
            or np.array_equal(new_tgt, batches.positions)
        ):
            return GeometryUpdateResult(
                rebuilt=False, noop=True, phases=PhaseTimes()
            )

        phases = PhaseTimes()
        watch = Stopwatch()
        with watch:
            try:
                result = self._update(
                    core, new_src, new_tgt, phases, params=params
                )
            except Exception as exc:
                # Past validation the trees, moments and lists are
                # patched in place: any failure leaves them out of step.
                raise GeometryUpdateError(
                    "geometry update failed mid-flight; the session's "
                    "geometry may be partially patched and stays stale "
                    "until it is re-prepared or updated again "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        result.phases = phases
        result.wall_seconds = watch.elapsed
        return result

    # ------------------------------------------------------------------
    def _update(
        self, core, new_src, new_tgt, phases, *, params
    ) -> GeometryUpdateResult:
        geometry = core.geometry
        tree = geometry.tree
        batches = geometry.batches
        lists = geometry.lists
        moments = geometry.moments
        device = core.device

        if core.geometry_stale:
            # A failed update left the state half patched; nothing of
            # it can seed an incremental step.
            return self._full_rebuild(
                core, new_src, new_tgt, phases,
                reason="previous update failed",
            )
        if not geometry.plan.has_numerics:
            # Model-only sessions: a rebuild reproduces the
            # cold timing model exactly.
            return self._full_rebuild(
                core, new_src, new_tgt, phases, reason="model-only plan"
            )

        # The decision record must trace the traversal the current
        # lists came from, so build it against the *old* geometry.
        if self._record is None:
            self._record = record_traversal(batches, tree, params)

        old_src = tree.positions
        res_s = tree.rebin(new_src)
        if not res_s.ok:
            return self._full_rebuild(
                core, new_src, new_tgt, phases,
                reason=f"source re-bin: {res_s.reason}",
            )
        res_t = None
        if new_tgt is not None:
            res_t = batches.rebin(new_tgt)
            if not res_t.ok:
                return self._full_rebuild(
                    core, new_src, new_tgt, phases,
                    reason=f"target re-bin: {res_t.reason}",
                )

        n_rebinned = res_s.n_rebinned + (
            res_t.n_rebinned if res_t is not None and new_tgt is not new_src
            else 0
        )
        frac = res_s.n_rebinned / max(1, tree.n_particles)
        if res_t is not None:
            frac = max(frac, res_t.n_rebinned / max(1, batches.n_targets))
        if frac > params.rebuild_threshold:
            return self._full_rebuild(
                core, new_src, new_tgt, phases,
                reason=(
                    f"drift threshold: {frac:.3f} of particles re-binned "
                    f"(> {params.rebuild_threshold})"
                ),
                n_rebinned=n_rebinned, rebinned_fraction=frac,
            )

        # -- moments: rebuild grids only where the cluster's box,
        # membership or any member coordinate changed (the upward pass's
        # state is rebuilt whole).
        dirty_nodes = res_s.box_changed | res_s.members_dirty
        moved = np.any(old_src != new_src, axis=1)
        # Prefix sum over the permuted moved mask: a node is dirty iff
        # any particle in its contiguous [start, end) slice moved.
        cum = np.concatenate(([0], np.cumsum(moved[tree.perm])))
        view = tree.view()
        dirty_nodes |= cum[view.ends] > cum[view.starts]
        n_moments = refresh_moment_geometry(
            moments, tree, params, numerics=True, dirty=dirty_nodes,
        )

        # -- lists: conservative decision verify; only dirty batches
        # pay an exact scalar re-traversal.
        dirty_b = verify_traversal(self._record, batches, tree, params)
        redone = 0
        if dirty_b.any():
            redone = patch_interaction_lists(
                lists, self._record, batches, tree, params, dirty_b
            )

        # -- plan: a cold compile of the patched lists.  The groups whose
        # segments or row counts changed -- a re-traversed batch, a
        # resized batch, a direct segment on a resized cluster -- are
        # counted for the result.
        struct_dirty = dirty_b.copy()
        if res_t is not None:
            struct_dirty |= res_t.count_changed[batches.node_ids]
        _, _, direct_ptr, direct_ids = lists.csr()
        resized = np.concatenate(
            ([0], np.cumsum(res_s.count_changed[direct_ids]))
        )
        struct_dirty |= resized[direct_ptr[1:]] > resized[direct_ptr[:-1]]
        geometry.plan = compile_plan(tree, batches, moments, lists)

        # -- device accounting: the leaf-membership scan, the redone
        # MAC evaluations, and the HtD re-ship of the moved coordinates.
        device.host_work(
            tree.n_particles
            + (batches.n_targets if res_t is not None else 0)
        )
        device.host_work(4 * redone)
        upload = new_src.nbytes
        if new_tgt is not None and new_tgt is not new_src:
            upload += new_tgt.nbytes
        device.upload(upload, label="updated geometry")
        phases.setup += device.take_phase()

        core.update_scratch_bytes = (
            self._record.nbytes()
            + res_s.scratch_bytes
            + (res_t.scratch_bytes if res_t is not None else 0)
        )
        return GeometryUpdateResult(
            rebuilt=False,
            n_rebinned=n_rebinned,
            rebinned_fraction=frac,
            n_dirty_batches=int(dirty_b.sum()),
            redone_mac_evals=redone,
            n_patched_groups=int(struct_dirty.sum()),
            n_moments_rebuilt=n_moments,
        )

    # ------------------------------------------------------------------
    def _full_rebuild(
        self, core, new_src, new_tgt, phases, *, reason,
        n_rebinned=0, rebinned_fraction=0.0,
    ) -> GeometryUpdateResult:
        geometry = core.geometry
        target_pos = (
            geometry.batches.positions if new_tgt is None else new_tgt
        )
        core.geometry = self.driver._build_geometry_state(
            new_src, target_pos, core.device, phases,
            numerics=geometry.plan.has_numerics,
        )
        core.device.upload(new_src.nbytes, label="source data")
        phases.setup += core.device.take_phase()
        self._record = None
        core.update_scratch_bytes = 0
        return GeometryUpdateResult(
            rebuilt=True, reason=reason,
            n_rebinned=n_rebinned, rebinned_fraction=rebinned_fraction,
        )


class RebuildGeometryUpdater:
    """Full-rebuild ``update_geometry`` for extension sessions.

    The Sec. 5 schemes compile their plans from driver-private traversal
    records with no incremental patch path, so every update re-runs the
    driver's ``_build_geometry_state`` -- the builder ``prepare()`` runs,
    position upload included -- on the session's device and swaps the
    state in: an update costs exactly a cold prepare's setup phase.  The
    zero-motion no-op and position validation still short-circuit.
    """

    def __init__(self, driver) -> None:
        self.driver = driver

    def update(
        self, core, new_positions, *, targets=None
    ) -> GeometryUpdateResult:
        old_src, old_tgt = self.driver._session_positions(core)
        same_object = old_tgt is old_src
        new_src = _as_positions(
            new_positions, old_src.shape[0], "positions"
        )
        if targets is not None:
            new_tgt = _as_positions(targets, old_tgt.shape[0], "targets")
        else:
            new_tgt = new_src if same_object else old_tgt

        if np.array_equal(new_src, old_src) and (
            new_tgt is new_src or np.array_equal(new_tgt, old_tgt)
        ):
            return GeometryUpdateResult(
                rebuilt=False, noop=True, phases=PhaseTimes()
            )

        phases = PhaseTimes()
        watch = Stopwatch()
        with watch:
            core.geometry = self.driver._build_geometry_state(
                new_src, new_tgt, core.device, phases,
                numerics=core.plan.has_numerics,
            )
            core.update_scratch_bytes = 0
        return GeometryUpdateResult(
            rebuilt=True, reason="extension sessions rebuild wholesale",
            phases=phases, wall_seconds=watch.elapsed,
        )
