"""What the two Sec. 5 extension schemes share.

Both the cluster-particle and the dual-tree treecodes are the same
driver around a different traversal: build the scheme's geometry once,
execute its plan per charge vector, then run the same downward step --
each target cluster's accumulated grid potentials are interpolated to
its own particles with the barycentric basis, one simulated
"interpolate" launch per cluster.  :class:`ExtensionTreecode` and
:class:`PreparedExtension` hold that driver and its session shell once;
a scheme supplies ``_build_geometry_state`` (trees, traversal, plan,
downward basis -- the one place its pipeline lives, reached from
``prepare()``, ``compute()`` and the rebuild updater alike),
``_session_positions``, ``_downward_pass`` and ``_stats``.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_PARAMS, TreecodeParams
from ..core.backends import get_backend
from ..core.dynamic import RebuildGeometryUpdater
from ..core.session import PreparedSession, SessionCore
from ..core.treecode import TreecodeResult
from ..gpu.device import make_device
from ..interpolation.barycentric import lagrange_basis
from ..kernels.base import Kernel
from ..perf.machine import GPU_TITAN_V, MachineSpec
from ..perf.timer import PhaseTimes, Stopwatch
from ..workloads import ParticleSet

__all__ = [
    "ExtensionTreecode",
    "PreparedExtension",
    "target_positions",
    "receiving_groups",
    "downward_basis",
    "downward_pass",
]


def target_positions(sources, targets) -> np.ndarray:
    """Resolve the ``targets`` argument of a scheme's compute/prepare."""
    if targets is None:
        return sources.positions
    if isinstance(targets, ParticleSet):
        return targets.positions
    return np.atleast_2d(np.asarray(targets, dtype=np.float64))


def receiving_groups(receivers, tree, grids, target_pos, n_ip, *, numerics):
    """Target rows of an extension plan's receiving groups.

    ``receivers`` lists ``(on_grid, node)`` per group.  A grid group
    receives on ``grids[node]``'s Chebyshev points, in the next ``n_ip``
    output rows past the particle outputs; a particle group receives on
    target ``node``'s own particles.  Returns ``(sizes, out_index,
    targets, grid_slot)`` -- ``targets`` is None unless ``numerics``,
    and ``grid_slot[node]`` is a grid's first output row.
    """
    n_targets = target_pos.shape[0]
    grid_slot = {}
    rows = [np.empty(0, dtype=np.intp)]
    for on_grid, node in receivers:
        if on_grid:
            lo = n_targets + n_ip * len(grid_slot)
            grid_slot[node] = lo
            rows.append(np.arange(lo, lo + n_ip, dtype=np.intp))
        else:
            rows.append(tree.node_indices(node))
    sizes = [r.size for r in rows[1:]]
    out_index = np.concatenate(rows)
    targets = None
    if numerics:
        targets = np.empty((out_index.size, 3))
        particle = out_index < n_targets
        targets[particle] = target_pos[out_index[particle]]
        if grid_slot:
            targets[~particle] = np.concatenate(
                [grids[node].points for node in grid_slot]
            )
    return sizes, out_index, targets, grid_slot


def downward_basis(tree, grids, target_pos) -> dict:
    """Per-cluster Lagrange basis ``(lx, ly, lz)`` of the downward pass.

    Charge-independent: prepared sessions cache the result and reuse it
    every apply.
    """
    basis = {}
    for c, grid in grids.items():
        pts = target_pos[tree.node_indices(c)]
        basis[c] = (
            lagrange_basis(pts[:, 0], grid.points_1d[0], grid.weights),
            lagrange_basis(pts[:, 1], grid.points_1d[1], grid.weights),
            lagrange_basis(pts[:, 2], grid.points_1d[2], grid.weights),
        )
    return basis


def downward_pass(
    params, tree, grids, grid_slot, basis, out_flat, out, device,
    *, numerics: bool = True,
) -> None:
    """Interpolate accumulated grid potentials to the targets.

    ``phi(x) += sum_k L_k(x) psi_k`` per cluster, charging one
    "interpolate" launch each; ``numerics=False`` (model-only mode)
    charges the launches without evaluating them, as everywhere else in
    the timing model.

    A 2-D ``out_flat`` (multi-RHS accumulation) interpolates every
    column with the per-column contraction of the single-vector path --
    the basis matrices are shared, each column's einsum runs on a
    contiguous copy so its bits match a solo pass -- and the launch
    interaction count scales with the column count.
    """
    n_ip = params.n_interpolation_points
    np1 = params.degree + 1
    n_rhs = out_flat.shape[1] if out_flat.ndim == 2 else 1
    for c in grids:
        idx = tree.node_indices(c)
        if numerics:
            lx, ly, lz = basis[c]
            row = grid_slot[c]
            block = out_flat[row:row + n_ip]
            if block.ndim == 2:
                for r in range(block.shape[1]):
                    cube = np.ascontiguousarray(block[:, r]).reshape(
                        np1, np1, np1
                    )
                    out[idx, r] += np.einsum(
                        "abc,aj,bj,cj->j", cube, lx, ly, lz, optimize=True
                    )
            else:
                cube = block.reshape(np1, np1, np1)
                out[idx] += np.einsum(
                    "abc,aj,bj,cj->j", cube, lx, ly, lz, optimize=True
                )
        device.launch(
            float(n_ip) * idx.shape[0] * n_rhs,
            blocks=idx.shape[0],
            kind="interpolate",
            flops_per_interaction=7.0,
        )


class PreparedExtension(PreparedSession):
    """An extension-scheme session with fixed geometry (see ``prepare``).

    Session state lives in the shared
    :class:`~repro.core.session.SessionCore` (``.core``); this shell
    adds the downward interpolation pass after the plan execution.
    """

    @property
    def geometry(self):
        """The scheme's traversal/grouping record (``_CPGeometry`` /
        ``_DTGeometry``), downward basis included."""
        return self.core.geometry.aux

    @property
    def n_sources(self) -> int:
        return self.core.n_charges

    @property
    def n_targets(self) -> int:
        return self.geometry.n_targets

    def apply(self, charges: np.ndarray) -> TreecodeResult:
        """Evaluate the prepared geometry for one or many charge vectors.

        Uploads the charges, re-moments the source clusters on the
        cached grids where the scheme has a moment stage (charged per
        apply), rewrites the plan's weight buffer in place and runs the
        accumulation + downward interpolation; no setup time is
        charged.  An ``(N, n_rhs)`` block evaluates every column in one
        pass and returns an ``(M, n_rhs)`` potential, column ``j``
        bitwise equal to a solo apply of ``charges[:, j]``.
        """
        driver = self.driver
        core = self.core
        g = self.geometry
        charges, multi, n_rhs = core.charge_block(charges)
        device = core.device
        phases = PhaseTimes()
        watch = Stopwatch()

        with watch:
            core.precompute(charges, phases, n_rhs=n_rhs)
            out_flat, _ = core.execute_plan(
                charges, phases,
                multi=multi, n_rhs=n_rhs, download_potentials=False,
            )
            out = out_flat[:g.n_targets].copy()

            driver._downward_pass(
                g, out_flat, out, device, numerics=core.plan.has_numerics
            )
            device.download(out.nbytes)
            phases.compute += device.take_phase()

        core.n_applies += 1
        stats = driver._stats(g, self.n_sources, device)
        stats["n_applies"] = core.n_applies
        return TreecodeResult(
            potential=out,
            phases=phases,
            wall_seconds=watch.elapsed,
            stats=stats,
        )


class ExtensionTreecode:
    """Driver shared by the cluster-particle and dual-tree schemes.

    API mirrors :class:`~repro.core.treecode.BarycentricTreecode`:
    ``prepare(sources, targets)`` opens a session that takes new
    charges per apply and ``compute(sources, targets)`` is
    ``prepare()`` + one ``apply()``.
    """

    #: The scheme's weight-source class (see :mod:`repro.core.session`)
    #: and session shell.
    _weight_source = None
    _session_cls = PreparedExtension

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

    def compute(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
    ) -> TreecodeResult:
        """Potential at every target due to all sources."""
        prepared = self.prepare(sources, targets)
        result = prepared.apply(sources.charges)
        return TreecodeResult(
            potential=result.potential,
            phases=prepared.phases + result.phases,
            wall_seconds=prepared.wall_seconds + result.wall_seconds,
            stats=result.stats,
        )

    def prepare(
        self,
        sources: ParticleSet,
        targets: np.ndarray | ParticleSet | None = None,
    ) -> PreparedExtension:
        """Capture the charge-independent state for repeated evaluation.

        Builds the scheme's trees, runs its traversal, ships the
        positions, compiles the geometry-only plan skeleton and caches
        the downward interpolation basis; the setup phase is charged
        here once.  Each :meth:`PreparedExtension.apply` then costs only
        the charge upload, the moment kernels (dual-tree), the
        accumulation launches and the downward pass.
        """
        params = self.params
        backend = get_backend(params.backend)
        device = make_device(self.machine, async_streams=self.async_streams)
        phases = PhaseTimes()
        watch = Stopwatch()
        with watch:
            geometry = self._build_geometry_state(
                sources.positions, target_positions(sources, targets),
                device, phases, numerics=backend.needs_numerics,
            )
        core = SessionCore(
            kernel=self.kernel,
            params=params,
            backend=params.backend,
            device=device,
            geometry=geometry,
            weight_source=self._weight_source(),
            n_charges=sources.n,
            # Modified charges (dual-tree) are consumed on-device.
            moments_download=False,
            geometry_updater=RebuildGeometryUpdater(self),
        )
        return self._session_cls(
            driver=self,
            core=core,
            phases=phases,
            wall_seconds=watch.elapsed,
        )
