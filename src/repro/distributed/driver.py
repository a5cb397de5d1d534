"""MPI + GPU distributed BLTC driver (paper Sec. 3 algorithm).

Executes the paper's "MPI + OpenACC BLTC" procedure over the simulated
substrates, one simulated GPU per rank:

1.  RCB domain decomposition assigns each rank its particles.
2.  Each rank builds a local source tree and target batches     [setup]
3.  HtD source copy; modified-charge kernels; DtH moments       [precompute]
4.  Ranks expose tree array / particles / moments in RMA windows.
5.  Each rank gets remote tree arrays, builds interaction
    lists, and fills its LET via RMA gets                       [setup]
6.  HtD LET copy; each rank's merged local+LET work is compiled
    into an execution plan by the single-device ``compile_plan``
    (given the rank's LET), its weights filled by the session's
    weight provider, and run by the configured backend
    (``params.backend``; ``"model"`` charges launches only);
    DtH potentials                                              [compute]

Rank programs are executed sequentially but deterministically; passive-
target RMA means the interleaving cannot change any value read (windows
are read-only after exposure).  The per-rank simulated clocks advance
with device work, host work, and modeled communication time; the run
time is aggregated with the one true dependency barrier -- a rank's LET
gets require every peer to have exposed its moments:

    T = max_r(setup_local_r + precompute_r)
        + max_r(let_setup_r + compute_r)

``overlap_comm=True`` models the paper's future-work item of overlapping
communication with computation: each rank hides its LET communication
behind its own precompute phase to the extent possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULT_PARAMS, TreecodeParams
from ..core.backends import get_backend
from ..core.bltc_keys import BLTCWeightSource
from ..core.interaction_lists import build_interaction_lists
from ..core.moments import precompute_moments, prepare_moment_grids
from ..core.plan import compile_plan
from ..core.session import (
    GeometryState,
    SessionCore,
    format_health_stats,
    format_memory_stats,
)
from ..gpu.device import make_device
from ..kernels.base import Kernel
from ..mpi.comm import SimComm
from ..partition.rcb import rcb_partition
from ..perf.comm import CommModel, INFINIBAND_COMET
from ..perf.machine import GPU_P100, MachineSpec
from ..perf.timer import PhaseTimes, Stopwatch
from ..tree.batches import TargetBatches
from ..tree.octree import ClusterTree
from ..util import as_charge_block
from ..workloads import ParticleSet
from .letree import build_let, build_let_geometry, refresh_let_charges

__all__ = ["DistributedBLTC", "PreparedDistributedBLTC", "DistributedResult"]

FLOAT_BYTES = 8


@dataclass
class DistributedResult:
    """Global potentials plus per-rank timing of one distributed run."""

    #: (N,) potential at every particle, in the input (global) order.
    potential: np.ndarray
    #: Per-rank simulated phase times.
    rank_phases: list[PhaseTimes]
    #: Per-rank modeled communication seconds (contained in setup).
    comm_seconds: list[float]
    #: Wall-clock seconds of the whole simulation (diagnostic).
    wall_seconds: float
    stats: dict = field(default_factory=dict)
    #: (N, 3) force per unit target charge, when requested.
    forces: np.ndarray | None = None

    @property
    def n_ranks(self) -> int:
        return len(self.rank_phases)

    @property
    def total_seconds(self) -> float:
        """Simulated run time with the precompute/LET dependency barrier."""
        first = max(p.setup_local + p.precompute for p in self._split())
        second = max(p.let_setup + p.compute for p in self._split())
        return first + second

    def _split(self):
        # rank_phases stores setup = setup_local + let_setup; the split is
        # kept in stats for the barrier computation.
        splits = self.stats["phase_split"]
        return [
            _SplitPhases(
                setup_local=s["setup_local"],
                let_setup=s["let_setup"],
                precompute=p.precompute,
                compute=p.compute,
            )
            for s, p in zip(splits, self.rank_phases)
        ]

    def aggregate_phases(self) -> PhaseTimes:
        """Max-over-ranks time per phase (the Fig. 6cd decomposition)."""
        agg = PhaseTimes()
        for p in self.rank_phases:
            agg = agg.max_with(p)
        return agg


@dataclass
class _SplitPhases:
    setup_local: float
    let_setup: float
    precompute: float
    compute: float


class DistributedBLTC:
    """Distributed BLTC: one simulated GPU per MPI rank.

    Parameters
    ----------
    kernel, params : as for :class:`~repro.core.treecode.BarycentricTreecode`.
    n_ranks : number of MPI ranks == number of GPUs.
    machine : per-rank device spec (default: the P100s of Figs. 5-6).
    comm_model : interconnect alpha-beta model.
    async_streams : asynchronous kernel queueing per device.
    overlap_comm : hide LET communication behind precompute (Sec. 5
        future work).
    axis_policy : RCB axis selection ("longest" or "cycle").
    """

    def __init__(
        self,
        kernel: Kernel,
        params: TreecodeParams = DEFAULT_PARAMS,
        *,
        n_ranks: int = 4,
        machine: MachineSpec = GPU_P100,
        comm_model: CommModel = INFINIBAND_COMET,
        async_streams: bool = True,
        overlap_comm: bool = False,
        axis_policy: str = "longest",
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.kernel = kernel
        self.params = params
        self.n_ranks = int(n_ranks)
        self.machine = machine
        self.comm_model = comm_model
        self.async_streams = bool(async_streams)
        self.overlap_comm = bool(overlap_comm)
        self.axis_policy = axis_policy

    # ------------------------------------------------------------------
    def _setup_local(self, particles: ParticleSet):
        """Steps 1-2 of the procedure, shared by :meth:`compute` and
        :meth:`prepare`: the RCB partition, one communicator slot and
        device per rank, and each rank's local source tree and target
        batches -- charged to the rank's setup phase (the
        ``setup_local`` half of the barrier split).  Each rank's local
        :class:`ParticleSet` is gathered here once and returned.
        """
        params = self.params
        n_ranks = self.n_ranks
        if particles.n < n_ranks:
            raise ValueError(
                f"{particles.n} particles cannot be split over "
                f"{n_ranks} ranks"
            )
        comm = SimComm(n_ranks, comm_model=self.comm_model)
        labels = rcb_partition(
            particles.positions, n_ranks, axis_policy=self.axis_policy
        )
        rank_idx = [np.nonzero(labels == r)[0] for r in range(n_ranks)]
        devices = [
            make_device(self.machine, async_streams=self.async_streams)
            for _ in range(n_ranks)
        ]
        phases = [PhaseTimes() for _ in range(n_ranks)]
        split = [
            {"setup_local": 0.0, "let_setup": 0.0} for _ in range(n_ranks)
        ]
        rank_particles = [particles.subset(idx) for idx in rank_idx]
        trees: list[ClusterTree] = []
        batch_sets: list[TargetBatches] = []
        for r, local in enumerate(rank_particles):
            tree = ClusterTree(
                local.positions,
                params.max_leaf_size,
                aspect_ratio_splitting=params.aspect_ratio_splitting,
                shrink_to_fit=params.shrink_to_fit,
            )
            batches = TargetBatches(
                local.positions,
                params.max_batch_size,
                aspect_ratio_splitting=params.aspect_ratio_splitting,
                shrink_to_fit=params.shrink_to_fit,
            )
            devices[r].host_work(local.n * 2 * (tree.max_level + 1))
            dt = devices[r].take_phase()
            phases[r].setup += dt
            split[r]["setup_local"] += dt
            trees.append(tree)
            batch_sets.append(batches)
        return (
            comm, rank_idx, rank_particles, devices, phases, split, trees,
            batch_sets,
        )

    # ------------------------------------------------------------------
    def compute(
        self,
        particles: ParticleSet,
        *,
        compute_forces: bool = False,
    ) -> DistributedResult:
        """Potential at every particle (targets == sources, as in Sec. 4).

        ``compute_forces=True`` additionally evaluates forces at every
        particle, reusing the LETs and modified charges.

        The backend named by ``params.backend`` executes each rank's
        compiled plan.  Under ``"model"`` partitioning, tree builds, RMA
        traffic (real bytes through the simulated windows) and device
        launch accounting all happen, but the floating-point kernels are
        skipped -- used by the weak/strong scaling benchmarks at paper
        scale.
        """
        params = self.params
        backend = get_backend(params.backend)
        numerics = backend.needs_numerics
        n = particles.n
        watch = Stopwatch()
        with watch:
            # -- phase A: partition, local trees and batches (setup) ----
            (comm, rank_idx, rank_particles, devices, phases, split, trees,
             batch_sets) = self._setup_local(particles)
            moment_sets = []

            # -- phase B: moments on-device (precompute) ----------------
            for r in range(self.n_ranks):
                dev = devices[r]
                local = rank_particles[r]
                dev.upload(local.nbytes(), label="source data")
                moments = precompute_moments(
                    trees[r], local.charges, params, device=dev,
                    numerics=numerics,
                )
                mbytes = (
                    moments.n_clusters
                    * params.n_interpolation_points
                    * FLOAT_BYTES
                )
                dev.download(mbytes, label="modified charges")
                phases[r].precompute += dev.take_phase()
                moment_sets.append(moments)

            # -- expose RMA windows --------------------------------------
            for r in range(self.n_ranks):
                tree = trees[r]
                local = rank_particles[r]
                handle = comm.rank_handle(r)
                handle.create_window("tree", tree.tree_array())
                handle.create_window("srcpos", local.positions[tree.perm])
                handle.create_window("srcq", local.charges[tree.perm])
                handle.create_window(
                    "moments", moment_sets[r].packed(len(tree))
                )

            # -- phase C: LET construction (setup) -----------------------
            lets = []
            local_lists = []
            for r in range(self.n_ranks):
                dev = devices[r]
                handle = comm.rank_handle(r)
                comm_before = float(comm.clocks[r])
                let, mac_evals = build_let(
                    handle, batch_sets[r], params, numerics=numerics
                )
                comm_delta = float(comm.clocks[r]) - comm_before
                lists = build_interaction_lists(
                    batch_sets[r], trees[r], params
                )
                dev.host_work((mac_evals + lists.mac_evals) * 4)
                dev.comm_wait(comm_delta)
                dev.upload(
                    let.nbytes() + rank_particles[r].positions.nbytes,
                    label="targets + LET",
                )
                dt = dev.take_phase()
                if self.overlap_comm:
                    # Hide communication behind this rank's own precompute
                    # (paper Sec. 5 future work); cannot hide more than
                    # either quantity.
                    hidden = min(comm_delta, phases[r].precompute)
                    dt = max(dt - hidden, 0.0)
                phases[r].setup += dt
                split[r]["let_setup"] += dt
                lets.append(let)
                local_lists.append(lists)

            # -- phase D: potential evaluation (compute) -----------------
            potential = np.zeros(n, dtype=np.float64)
            forces = (
                np.zeros((n, 3), dtype=np.float64) if compute_forces else None
            )
            comm_totals = []
            for r in range(self.n_ranks):
                dev = devices[r]
                # Compile the rank's skeleton, then fill it through the
                # session's weight provider (host-side; no device time).
                geometry = GeometryState(
                    plan=compile_plan(
                        trees[r], batch_sets[r], moment_sets[r],
                        local_lists[r], numerics=numerics, let=lets[r],
                    ),
                    tree=trees[r], moments=moment_sets[r], aux=lets[r],
                )
                if numerics:
                    geometry.plan.refresh_weights(
                        BLTCWeightSource().provider(
                            geometry, rank_particles[r].charges
                        )
                    )
                phi_local, f_local = backend.execute(
                    geometry.plan,
                    self.kernel,
                    dev,
                    dtype=params.dtype,
                    compute_forces=compute_forces,
                )
                dev.download(phi_local.nbytes, label="potentials")
                if f_local is not None:
                    dev.download(f_local.nbytes, label="forces")
                phases[r].compute += dev.take_phase()
                potential[rank_idx[r]] = phi_local
                if forces is not None:
                    forces[rank_idx[r]] = f_local
                comm_totals.append(float(comm.clocks[r]))

            stats = self._stats(
                comm, trees, batch_sets, local_lists, lets, devices
            )
            stats["phase_split"] = split
        return DistributedResult(
            potential=potential,
            rank_phases=phases,
            comm_seconds=comm_totals,
            wall_seconds=watch.elapsed,
            stats=stats,
            forces=forces,
        )

    # ------------------------------------------------------------------
    def prepare(
        self,
        particles: ParticleSet,
    ) -> "PreparedDistributedBLTC":
        """Capture the charge-independent distributed state once.

        Runs the RCB partition, the per-rank tree/batch builds, the
        charge-independent LET half (remote tree arrays, interaction
        lists, direct-cluster *positions* -- no charges or moments move)
        and compiles each rank's geometry-only plan skeleton.  The
        returned session evaluates any number of charge vectors on this
        decomposition via :meth:`PreparedDistributedBLTC.apply`,
        re-shipping only the charge-dependent payload per step.

        Under ``params.backend == "model"`` the session is model-only
        (every apply runs the timing model; structure-only plans, no
        coordinate gathers).
        """
        params = self.params
        numerics = get_backend(params.backend).needs_numerics
        watch = Stopwatch()
        with watch:
            # -- phase A: partition, local trees and batches (setup) ----
            (comm, rank_idx, rank_particles, devices, phases, split, trees,
             batch_sets) = self._setup_local(particles)
            # Charge-independent moment state (grids + upward pass;
            # the moment kernels themselves are charged per apply).
            moment_sets = [
                prepare_moment_grids(tree, params, numerics=numerics)
                for tree in trees
            ]

            # -- expose the geometry windows ----------------------------
            for r in range(self.n_ranks):
                tree = trees[r]
                handle = comm.rank_handle(r)
                handle.create_window("tree", tree.tree_array())
                handle.create_window(
                    "srcpos", rank_particles[r].positions[tree.perm]
                )

            # -- phase C (geometry half): remote trees, lists, positions
            lets = []
            local_lists = []
            for r in range(self.n_ranks):
                dev = devices[r]
                handle = comm.rank_handle(r)
                comm_before = float(comm.clocks[r])
                let, mac_evals = build_let_geometry(
                    handle, batch_sets[r], params, numerics=numerics
                )
                comm_delta = float(comm.clocks[r]) - comm_before
                lists = build_interaction_lists(
                    batch_sets[r], trees[r], params
                )
                dev.host_work((mac_evals + lists.mac_evals) * 4)
                dev.comm_wait(comm_delta)
                dev.upload(
                    let.nbytes_geometry() + rank_particles[r].positions.nbytes,
                    label="targets + LET geometry",
                )
                dt = dev.take_phase()
                phases[r].setup += dt
                split[r]["let_setup"] += dt
                lets.append(let)
                local_lists.append(lists)

            # -- geometry-only plan skeletons (host-side; no device time)
            plans = [
                compile_plan(
                    trees[r], batch_sets[r], moment_sets[r],
                    local_lists[r], numerics=numerics, let=lets[r],
                )
                for r in range(self.n_ranks)
            ]

        cores = [
            SessionCore(
                kernel=self.kernel,
                params=params,
                backend=params.backend,
                device=devices[r],
                geometry=GeometryState(
                    plan=plans[r], tree=trees[r], batches=batch_sets[r],
                    lists=local_lists[r], moments=moment_sets[r],
                    aux=lets[r],
                ),
                weight_source=BLTCWeightSource(),
                n_charges=trees[r].n_particles,
                first_upload_nbytes=trees[r].n_particles * 3 * FLOAT_BYTES,
            )
            for r in range(self.n_ranks)
        ]
        return PreparedDistributedBLTC(
            driver=self,
            comm=comm,
            rank_idx=rank_idx,
            cores=cores,
            phases=phases,
            split=split,
            wall_seconds=watch.elapsed,
        )

    # ------------------------------------------------------------------
    def _stats(self, comm, trees, batch_sets, local_lists, lets, devices) -> dict:
        per_rank = []
        for r in range(self.n_ranks):
            c = devices[r].counters
            per_rank.append(
                {
                    "n_local": trees[r].n_particles,
                    "n_tree_nodes": len(trees[r]),
                    "n_batches": len(batch_sets[r]),
                    "local_approx": local_lists[r].n_approx,
                    "local_direct": local_lists[r].n_direct,
                    "remote_approx": sum(
                        l.n_approx for l in lets[r].lists.values()
                    ),
                    "remote_direct": sum(
                        l.n_direct for l in lets[r].lists.values()
                    ),
                    "let_bytes": lets[r].nbytes(),
                    "rma_bytes": comm.stats[r].bytes_remote,
                    "rma_ops": comm.stats[r].ops,
                    "launches": c.launches,
                    "kernel_evaluations": c.interactions,
                    "busy_by_kind": dict(c.busy_by_kind),
                }
            )
        return {
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "n_ranks": self.n_ranks,
            "per_rank": per_rank,
            "total_rma_bytes": sum(s.bytes_remote for s in comm.stats),
        }


class PreparedDistributedBLTC:
    """A distributed session: fixed decomposition, new charges per apply.

    Produced by :meth:`DistributedBLTC.prepare`.  The RCB partition,
    per-rank trees/batches, interaction lists, LET geometry (remote tree
    arrays + direct-cluster positions) and geometry-only rank plans are
    all cached; each :meth:`apply` evaluates one global charge vector,
    re-shipping only the charge-dependent payload: the local charge
    upload, the moment kernels on the cached grids, the RMA gets of
    remote charges and modified charges, and the compute phase.  Rank
    devices and the communicator persist across applies (counters and
    RMA statistics accumulate; the first apply therefore reports exactly
    the numbers of a monolithic ``compute()``); per-apply cost is in the
    returned ``rank_phases``, whose setup component is always zero.
    """

    def __init__(
        self,
        *,
        driver: DistributedBLTC,
        comm: SimComm,
        rank_idx,
        cores,
        phases,
        split,
        wall_seconds: float,
    ) -> None:
        self.driver = driver
        self.comm = comm
        self.rank_idx = rank_idx
        #: One shared :class:`~repro.core.session.SessionCore` per rank;
        #: all per-rank session state (device, geometry, plan, LET)
        #: lives there, this shell adds the RMA re-ship between the
        #: phases.
        self.cores = cores
        #: Per-rank setup-phase cost charged once at prepare time.
        self.phases = phases
        self.split = split
        self.wall_seconds = wall_seconds
        self._n = int(sum(len(idx) for idx in rank_idx))

    # -- session-core delegation ---------------------------------------
    @property
    def backend(self):
        return self.cores[0].backend

    @property
    def plans(self):
        return [core.geometry.plan for core in self.cores]

    @property
    def n_applies(self) -> int:
        return self.cores[0].n_applies

    @property
    def n_ranks(self) -> int:
        return self.driver.n_ranks

    def geometry_key(self) -> str:
        """Stable content hash over all rank geometries (cache key)."""
        import hashlib

        h = hashlib.sha256()
        for core in self.cores:
            h.update(core.geometry_key().encode())
        return h.hexdigest()

    def memory_stats(self) -> dict:
        """Summed per-rank resident bytes (see ``SessionCore.memory_stats``)."""
        totals: dict = {}
        for core in self.cores:
            for k, v in core.memory_stats().items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def health_stats(self) -> dict:
        """Aggregated per-rank fault-tolerance record (see
        ``SessionCore.health_stats``): fallback events concatenate, and
        ``degraded_to``/``last_error`` report the first degraded rank.
        Ranks degrade one by one: a crashed pool degrades the rank
        whose execute hit it, and the next rank runs on a fresh pool."""
        per_rank = [core.health_stats() for core in self.cores]
        stats = dict(per_rank[0])
        stats["fallbacks"] = [
            e for s in per_rank for e in s["fallbacks"]
        ]
        for s in per_rank[1:]:
            if stats["degraded_to"] is None:
                stats["degraded_to"] = s["degraded_to"]
            if stats["last_error"] is None:
                stats["last_error"] = s["last_error"]
        return stats

    def __repr__(self) -> str:
        return (
            f"<PreparedDistributedBLTC n_ranks={self.n_ranks} "
            f"n_particles={self._n} n_applies={self.n_applies} "
            f"{format_memory_stats(self.memory_stats())} "
            f"{format_health_stats(self.health_stats())}>"
        )

    # ------------------------------------------------------------------
    def apply(
        self,
        charges: np.ndarray,
        *,
        compute_forces: bool = False,
    ) -> DistributedResult:
        """Evaluate the prepared decomposition for one or many charge
        vectors.

        ``charges`` may be a global ``(N,)`` vector or an ``(N, n_rhs)``
        block; a block evaluates every column in one traversal (the LET
        re-ships ``(n, n_rhs)`` charges and modified charges through the
        same windows) and returns ``(N, n_rhs)`` potentials /
        ``(N, 3, n_rhs)`` forces, column ``j`` bitwise equal to a solo
        apply of ``charges[:, j]``.

        Per rank: upload the local charges (the first apply ships the
        full local particle data, as the monolithic precompute does),
        re-run the moment kernels on the cached grids, re-expose the
        charge windows, get the LET's remote charges/modified charges
        (the only RMA traffic of an apply), refresh the rank plan's
        weight buffer in place, and execute through the session backend.
        With ``overlap_comm`` the re-ship communication hides behind the
        rank's own precompute, mirroring the monolithic driver's
        treatment of LET communication.  The returned result's phases
        carry no setup time -- that was charged at prepare -- so
        ``total_seconds`` reduces to the precompute/compute barrier of
        this apply alone.
        """
        driver = self.driver
        charges = as_charge_block(charges, self._n)
        multi = charges.ndim == 2
        n_rhs = int(charges.shape[1]) if multi else 1
        cores = self.cores
        comm = self.comm
        n_ranks = self.n_ranks
        watch = Stopwatch()
        with watch:
            phases = [PhaseTimes() for _ in range(n_ranks)]
            local_qs = [charges[self.rank_idx[r]] for r in range(n_ranks)]

            # -- precompute: charge upload + moment kernels per rank,
            # through each rank's session core (the first apply ships
            # the full local particle data, later ones the charges).
            for r in range(n_ranks):
                cores[r].precompute(local_qs[r], phases[r], n_rhs=n_rhs)

            # -- re-expose the charge-dependent windows -----------------
            for r in range(n_ranks):
                core = cores[r]
                handle = comm.rank_handle(r)
                handle.refresh_window(
                    "srcq", local_qs[r][core.geometry.tree.perm]
                )
                handle.refresh_window(
                    "moments",
                    core.geometry.moments.packed(len(core.geometry.tree)),
                )

            # -- charge re-ship + plan refresh + compute ----------------
            potential = np.zeros(
                (self._n, n_rhs) if multi else self._n, dtype=np.float64
            )
            forces = (
                np.zeros(
                    (self._n, 3, n_rhs) if multi else (self._n, 3),
                    dtype=np.float64,
                )
                if compute_forces
                else None
            )
            comm_totals = []
            for r in range(n_ranks):
                core = cores[r]
                dev = core.device
                handle = comm.rank_handle(r)
                let = core.geometry.aux
                comm_before = float(comm.clocks[r])
                refresh_let_charges(handle, let)
                comm_delta = float(comm.clocks[r]) - comm_before
                dev.comm_wait(comm_delta)
                dev.upload(let.nbytes_charges(), label="LET charges")
                dt = dev.take_phase()
                if driver.overlap_comm:
                    # Hide the re-ship behind this rank's own precompute
                    # (the monolithic driver's Sec. 5 treatment of LET
                    # communication).
                    hidden = min(comm_delta, phases[r].precompute)
                    dt = max(dt - hidden, 0.0)
                phases[r].precompute += dt

                phi_local, f_local = core.execute_plan(
                    local_qs[r], phases[r],
                    compute_forces=compute_forces, multi=multi, n_rhs=n_rhs,
                )
                potential[self.rank_idx[r]] = phi_local
                if forces is not None:
                    forces[self.rank_idx[r]] = f_local
                comm_totals.append(float(comm.clocks[r]))

            stats = driver._stats(
                comm,
                [core.geometry.tree for core in cores],
                [core.geometry.batches for core in cores],
                [core.geometry.lists for core in cores],
                [core.geometry.aux for core in cores],
                [core.device for core in cores],
            )
            # Per-apply there is no setup half: total_seconds reduces to
            # max(precompute) + max(compute).  The prepare-time split is
            # kept alongside for whole-session accounting.
            stats["phase_split"] = [
                {"setup_local": 0.0, "let_setup": 0.0}
                for _ in range(n_ranks)
            ]
            stats["prepare_split"] = [dict(s) for s in self.split]
            stats["n_applies"] = self.n_applies + 1

        for core in cores:
            core.n_applies += 1
        return DistributedResult(
            potential=potential,
            rank_phases=phases,
            comm_seconds=comm_totals,
            wall_seconds=watch.elapsed,
            stats=stats,
            forces=forces,
        )
