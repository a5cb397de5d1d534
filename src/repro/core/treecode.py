"""Single-device barycentric Lagrange treecode driver (BLTC algorithm).

Orchestrates the paper's Sec. 2.4 algorithm on one (simulated) device.
Since the prepared-session refactor the pipeline is split along the
charge-dependence boundary:

1. **Structure** [setup, charged once per geometry] --
   :meth:`BarycentricTreecode.prepare` builds the source-cluster tree,
   the target batches, per-batch interaction lists and the per-cluster
   Chebyshev grids, and compiles a geometry-only
   :class:`~repro.core.plan.ExecutionPlan` skeleton (CSR-style
   batch->segment index arrays plus pre-gathered target/source
   coordinate buffers).  The device is charged for the host-side builds
   and the targets + LET upload exactly as the paper's OpenACC code
   performs them; none of this work depends on the charges.
2. **Charge refresh** [precompute, charged per evaluation] --
   :meth:`PreparedTreecode.apply` ships the (new) charges to the
   device, re-runs the paper's two modified-charge kernels on the
   cached cluster grids (:func:`repro.core.moments.refresh_moments`),
   and overwrites the plan's weight buffer in place
   (:meth:`~repro.core.plan.ExecutionPlan.refresh_weights`).
3. **Execution** [compute, charged per evaluation] -- a pluggable
   backend (:mod:`repro.core.backends`) runs the plan: ``"numpy"``
   reproduces the seed's blocked per-batch arithmetic byte-for-byte,
   ``"fused"`` evaluates straight from the shared buffers,
   ``"multiprocessing"`` shards groups over a worker pool (pickling the
   plan's flat buffers into each execute's shard tasks), and
   ``"model"`` charges launches without numerics, so the timing model
   runs at paper scale.  All backends charge the device through one
   code path, so launches, interaction counts, bytes and phase times
   are backend-independent.

:meth:`BarycentricTreecode.compute` is exactly ``prepare()`` followed
by one ``apply()`` -- byte-identical results, counters and phase times
to the monolithic pipeline it replaces -- while MD time-stepping and
BEM-style multi-RHS solves call ``prepare()`` once and ``apply()`` per
charge vector, amortizing every charge-independent phase.  An apply
also accepts an ``(N, n_rhs)`` charge *block*: the plan's weight slots
widen to ``(k, n_rhs)`` and every backend evaluates all columns in one
traversal (the tree walk and the pairwise distance work are shared;
the kernels contract one charge column at a time), column ``j``
bitwise equal to a solo apply of ``charges[:, j]``.  Select a backend
with ``TreecodeParams(backend="fused")``; ``backend="model"`` runs the
timing model alone.  Phase attribution follows the paper's setup /
precompute / compute definition (Sec. 4).  The distributed driver in
:mod:`repro.distributed` wraps the same building blocks with RCB
partitioning and locally essential trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULT_PARAMS, TreecodeParams
from ..gpu.device import Device, make_device
from ..kernels.base import Kernel
from ..perf.machine import GPU_TITAN_V, MachineSpec
from ..perf.timer import PhaseTimes, Stopwatch
from ..tree.batches import TargetBatches
from ..tree.octree import ClusterTree
from ..workloads import ParticleSet
from .backends import get_backend
from .bltc_keys import BLTCWeightSource
from .dynamic import TreecodeGeometryUpdater
from .interaction_lists import InteractionLists, build_interaction_lists
from .moments import ClusterMoments, prepare_moment_grids
from .plan import compile_plan
from .session import GeometryState, PreparedSession, SessionCore

__all__ = ["BarycentricTreecode", "PreparedTreecode", "TreecodeResult"]

FLOAT_BYTES = 8


@dataclass
class TreecodeResult:
    """Potentials plus the full timing/statistics record of one run."""

    #: (n_targets,) potential at each target, in input target order.
    potential: np.ndarray
    #: Simulated seconds per phase (the paper's reported quantity).
    phases: PhaseTimes
    #: Wall-clock seconds of this Python process (diagnostic only).
    wall_seconds: float
    #: Structural statistics of the run.
    stats: dict = field(default_factory=dict)
    #: (n_targets, 3) force per unit target charge, when requested.
    forces: np.ndarray | None = None

    @property
    def simulated_total(self) -> float:
        return self.phases.total


class BarycentricTreecode:
    """Kernel-independent barycentric Lagrange treecode on one device.

    Parameters
    ----------
    kernel : interaction kernel ``G(x, y)``.
    params : treecode parameters (theta, degree, NL, NB, backend, ...).
    machine : device specification for the simulated timing; defaults to
        the paper's Titan V.  Pass ``CPU_XEON_X5650`` for the CPU model.
    async_streams : queue kernels on 4 asynchronous streams (Sec. 3.2);
        False reproduces the synchronous baseline.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: TreecodeParams = DEFAULT_PARAMS,
        *,
        machine: MachineSpec = GPU_TITAN_V,
        async_streams: bool = True,
    ) -> None:
        self.kernel = kernel
        self.params = params
        self.machine = machine
        self.async_streams = bool(async_streams)

    # ------------------------------------------------------------------
    def compute(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
        *,
        charges: np.ndarray | None = None,
        compute_forces: bool = False,
    ) -> TreecodeResult:
        """Compute the potential at every target due to all sources.

        ``targets`` defaults to the source positions (the paper's test
        cases); pass a ``(M, 3)`` array or another :class:`ParticleSet`
        for disjoint targets (BEM-style usage).

        ``charges`` defaults to ``sources.charges``; pass an ``(N,)``
        vector to override it, or an ``(N, n_rhs)`` block to evaluate
        many charge vectors in one traversal (the potential then has
        shape ``(M, n_rhs)`` and forces ``(M, 3, n_rhs)``, column ``j``
        bitwise equal to a solo run on column ``j``).

        ``compute_forces=True`` additionally evaluates the force (the
        negative potential gradient) at every target, reusing the same
        tree, interaction lists and modified charges; requires a kernel
        with an analytic gradient.

        Under ``params.backend == "model"`` the tree, batches, moments
        bookkeeping, interaction lists, the compiled plan and every
        simulated device event are produced exactly as in a real run,
        but the floating-point evaluation is skipped and the returned
        potential is all zeros.  This lets the timing model run at paper
        scale (10^6-10^9 particles) where Python numerics would be
        prohibitive.

        Implemented as :meth:`prepare` + one
        :meth:`PreparedTreecode.apply` -- identical results, counters
        and phase times to the pre-session monolithic pipeline.  Use the
        two-stage form directly for repeated evaluation on fixed
        geometry.
        """
        prepared = self.prepare(sources, targets)
        result = prepared.apply(
            sources.charges if charges is None else charges,
            compute_forces=compute_forces,
        )
        return TreecodeResult(
            potential=result.potential,
            phases=prepared.phases + result.phases,
            wall_seconds=prepared.wall_seconds + result.wall_seconds,
            stats=result.stats,
            forces=result.forces,
        )

    # ------------------------------------------------------------------
    def prepare(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
    ) -> "PreparedTreecode":
        """Capture all charge-independent state for repeated evaluation.

        Builds the source tree, the target batches, the interaction
        lists, the per-cluster Chebyshev grids with the upward pass's
        owner bases and transfer matrices, and the geometry-only
        execution-plan skeleton, charging the device for the setup phase
        once.  The returned
        :class:`PreparedTreecode` evaluates any number of charge
        vectors on this geometry via
        :meth:`PreparedTreecode.apply`; the initial
        ``sources.charges`` are *not* baked in.

        Under ``params.backend == "model"`` the session is model-only
        (structure-only plan, no coordinate gathering): every ``apply``
        then runs the timing model at paper scale.
        """
        params = self.params
        backend = get_backend(params.backend)
        if targets is None:
            target_pos = sources.positions
        elif isinstance(targets, ParticleSet):
            target_pos = targets.positions
        else:
            target_pos = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        device = make_device(self.machine, async_streams=self.async_streams)
        phases = PhaseTimes()
        watch = Stopwatch()

        with watch:
            geometry = self._build_geometry_state(
                sources.positions, target_pos, device, phases,
                numerics=backend.needs_numerics,
            )

        core = SessionCore(
            kernel=self.kernel,
            params=params,
            backend=params.backend,
            device=device,
            geometry=geometry,
            weight_source=BLTCWeightSource(),
            n_charges=geometry.tree.n_particles,
            first_upload_nbytes=sources.positions.nbytes,
            geometry_updater=TreecodeGeometryUpdater(self),
        )
        return PreparedTreecode(
            driver=self,
            core=core,
            phases=phases,
            wall_seconds=watch.elapsed,
        )

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

        The body of :meth:`prepare`, factored so the dynamic-geometry
        updater's full-rebuild fallback charges the same setup work on
        the *session's* device (accumulating its counters) and produces
        a state bitwise identical to a cold prepare at the positions.
        """
        params = self.params
        # -- setup: tree of source clusters and set of target batches
        tree = ClusterTree(
            source_pos,
            params.max_leaf_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        batches = TargetBatches(
            target_pos,
            params.max_batch_size,
            aspect_ratio_splitting=params.aspect_ratio_splitting,
            shrink_to_fit=params.shrink_to_fit,
        )
        device.host_work(
            source_pos.shape[0] * (tree.max_level + 1)
            + target_pos.shape[0] * (batches.max_level + 1)
        )
        phases.setup += device.take_phase()

        # -- charge-independent moment state: qualifying clusters,
        # Chebyshev grids, the upward pass's bases and transfer matrices
        # (no device time -- the paper's moment kernels are charged per
        # apply()).
        moments = prepare_moment_grids(tree, params, numerics=numerics)

        # -- setup: interaction lists + HtD of targets and LET data
        lists = build_interaction_lists(batches, tree, params)
        device.host_work(lists.mac_evals * 4)
        device.upload(
            target_pos.nbytes + self._let_bytes(tree, lists, params),
            label="targets + LET",
        )
        phases.setup += device.take_phase()

        # -- plan: geometry-only skeleton (host-side representation
        # of work already charged above; no device time).  The
        # weight buffer stays zeroed until the first apply().
        plan = compile_plan(tree, batches, moments, lists, numerics=numerics)
        return GeometryState(
            plan=plan, tree=tree, batches=batches,
            lists=lists, moments=moments,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _let_bytes(
        tree: ClusterTree, lists: InteractionLists, params: TreecodeParams
    ) -> int:
        """Bytes of source-side data the compute phase needs on-device.

        Union over batches of directly-summed clusters' particle data
        (3 coordinates + charge each) plus approximated clusters' modified
        charges.  This is exactly what a rank's LET holds (Sec. 3.1).
        The unique-node accounting is vectorized (``np.unique`` over the
        concatenated lists against the tree's cached count vector); the
        totals are integers, so the value matches the old per-entry
        Python set loops exactly.
        """
        _, approx_ids, _, direct_ids = lists.csr()
        direct_particles = int(
            tree.node_counts[np.unique(direct_ids)].sum()
        )
        n_approx_nodes = int(np.unique(approx_ids).size)
        return (
            direct_particles * 4 * FLOAT_BYTES
            + n_approx_nodes * params.n_interpolation_points * FLOAT_BYTES
        )

    def _stats(
        self,
        tree: ClusterTree,
        batches: TargetBatches,
        lists: InteractionLists,
        moments: ClusterMoments,
        device: Device,
    ) -> dict:
        c = device.counters
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "n_sources": tree.n_particles,
            "n_targets": batches.n_targets,
            "n_tree_nodes": len(tree),
            "n_leaves": tree.n_leaves,
            "tree_depth": tree.max_level,
            "n_batches": len(batches),
            "n_clusters_with_moments": moments.n_clusters,
            "n_approx_interactions": lists.n_approx,
            "n_direct_interactions": lists.n_direct,
            "mac_evals": lists.mac_evals,
            "launches": c.launches,
            "kernel_evaluations": c.interactions,
            "bytes_h2d": c.bytes_h2d,
            "bytes_d2h": c.bytes_d2h,
            "by_kind": {k: tuple(v) for k, v in c.by_kind.items()},
            "busy_by_kind": dict(c.busy_by_kind),
        }


class PreparedTreecode(PreparedSession):
    """A treecode session: fixed geometry, new charges per apply.

    Produced by :meth:`BarycentricTreecode.prepare`; holds the tree,
    batches, interaction lists, cluster grids, the geometry-only
    execution plan and the session's simulated device.  Each
    :meth:`apply` evaluates one charge vector -- or a whole
    ``(N, n_rhs)`` block of them in a single traversal: the setup phase
    was charged once at prepare time, so an apply charges only the
    charge upload, the moment kernels and the compute phase.  Device counters
    accumulate over the session (the first apply therefore reports
    exactly the numbers of a monolithic ``compute()``); per-apply cost
    is in the returned ``phases``.

    Attributes of interest: ``phases`` (the setup cost charged at
    prepare), ``n_applies``, and the captured ``tree`` / ``batches`` /
    ``lists`` / ``plan``.  All session state lives in the shared
    :class:`~repro.core.session.SessionCore` (``.core``); this class is
    the driver-specific shell (stats + result assembly) over
    :class:`~repro.core.session.PreparedSession`, and the whole session
    pickles through the core's process-local-state-dropping
    ``__getstate__``.
    """

    # -- this driver's geometry -----------------------------------------
    @property
    def tree(self) -> ClusterTree:
        return self.core.geometry.tree

    @property
    def batches(self) -> TargetBatches:
        return self.core.geometry.batches

    @property
    def moments(self) -> ClusterMoments:
        return self.core.geometry.moments

    @property
    def lists(self) -> InteractionLists:
        return self.core.geometry.lists

    @property
    def kernel(self) -> Kernel:
        return self.driver.kernel

    @property
    def params(self) -> TreecodeParams:
        return self.driver.params

    @property
    def n_sources(self) -> int:
        return self.tree.n_particles

    @property
    def n_targets(self) -> int:
        return self.batches.n_targets

    # ------------------------------------------------------------------
    def apply(
        self,
        charges: np.ndarray,
        *,
        compute_forces: bool = False,
    ) -> TreecodeResult:
        """Evaluate the prepared geometry for one or many charge vectors.

        Uploads the charges (the first apply ships the full source data
        exactly as the monolithic pipeline's precompute phase does;
        later applies re-ship only the charge vector), recomputes the
        modified charges on the cached cluster grids, refreshes the
        plan's weight buffer in place, and executes through the
        session's backend.  ``phases.setup`` is always zero here -- the
        geometry work was charged at prepare time.

        ``charges`` may be an ``(N,)`` vector or an ``(N, n_rhs)``
        block.  A block evaluates every column in one traversal -- the
        potential comes back ``(M, n_rhs)`` and forces ``(M, 3, n_rhs)``
        with column ``j`` bitwise equal to a solo apply of
        ``charges[:, j]`` -- amortizing the tree walk and the pairwise
        distance work; the kernels contract one charge column at a time,
        which keeps every column's bytes those of a solo apply.  The
        plan's weight buffer widens to ``(k, n_rhs)`` for the step, so
        resident weight memory scales with the block width.

        A model session (``params.backend == "model"``) charges the
        moment kernels, uploads and launches of a real step and returns
        zero potentials.
        """
        core = self.core
        charges, multi, n_rhs = core.charge_block(charges)
        phases = PhaseTimes()
        watch = Stopwatch()

        with watch:
            # -- precompute: HtD charges, moment kernels, DtH moments;
            # then the weight refresh + compute phase (backend executes
            # the plan, DtH potentials) -- all through the session core.
            core.precompute(charges, phases, n_rhs=n_rhs)
            potential, forces = core.execute_plan(
                charges, phases,
                compute_forces=compute_forces, multi=multi, n_rhs=n_rhs,
            )

        core.n_applies += 1
        stats = self.driver._stats(
            self.tree, self.batches, self.lists, self.moments, core.device
        )
        stats["n_applies"] = core.n_applies
        return TreecodeResult(
            potential=potential,
            phases=phases,
            wall_seconds=watch.elapsed,
            stats=stats,
            forces=forces,
        )
