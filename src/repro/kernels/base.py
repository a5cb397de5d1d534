"""Kernel interface for the kernel-independent treecode.

A kernel provides

* :meth:`Kernel.pairwise` -- the dense matrix ``G(x_i, y_j)`` for a block of
  targets and sources.  This is the single primitive the BLTC needs: the
  batch-cluster *direct sum* kernel evaluates it on source particles, the
  batch-cluster *approximation* kernel evaluates it on Chebyshev points
  (the two have the same direct-sum form; paper eq. 9 vs eq. 11).
* :meth:`Kernel.potential` -- blocked matrix-free accumulation
  ``phi_i = sum_j G(x_i, y_j) q_j`` used by the direct-summation baseline.
* :meth:`Kernel.potential_and_force` / :meth:`Kernel.potential_force_batched`
  -- potential and force ``F_i = -sum_j grad_x G(x_i, y_j) q_j`` of one
  block in one pass.  For radial kernels that pass forms ``r^2``, the
  coincidence lookup, ``r``, ``g(r)`` and ``g'(r)/r`` once and contracts
  both from them (as GPU treecodes share ``1/r`` between the two); the
  force never materialises the ``(M, K, 3)`` gradient tensor.
* cost metadata (``flops_per_interaction``, ``transcendental_weight``)
  consumed by the performance model so CPU/GPU timings can be derived from
  exact interaction counts.

Self-interactions: when a target coincides with a source (``r == 0``,
singular kernels) the contribution is defined as zero, matching the
standard treecode convention for point-charge sums where the ``i == j``
term is excluded.

Workspace: the four block evaluators (:meth:`Kernel.potential`,
:meth:`Kernel.potential_and_force`, :meth:`Kernel.potential_batched`,
:meth:`Kernel.potential_force_batched`) take ``workspace=``, a
:class:`~repro.kernels.workspace.Workspace` the caller keeps for a run of
calls.  Radial kernels then write each block's ``(..., m, k)`` arrays --
``r^2`` (the r^2 GEMM through ``np.matmul(..., out=)``), ``g`` and
``g'(r)/r`` (through the ``out`` hooks :meth:`RadialKernel.evaluate_r_into`
and :meth:`RadialKernel.evaluate_radial`) -- into the workspace's slots
instead of fresh arrays.  Same ufuncs, block boundaries and summation
order, so the results are bitwise those of ``workspace=None``, the
default (and what the reference ``numpy`` backend passes).
"""

from __future__ import annotations

import abc

import numpy as np

from ..util import chunk_ranges
from .workspace import take

__all__ = ["Kernel", "RadialKernel", "block_rows"]

#: Default cap on the elements of one row block of :meth:`Kernel.potential`
#: / :meth:`Kernel.potential_and_force`: 32 MB per ``(m, k)`` float64
#: array.  Live per block: r^2 (``r`` after the in-place sqrt) and ``g``;
#: the joint pass adds ``g'(r)/r`` and reuses ``r`` as its contraction
#: scratch; float32's reference r^2 adds its GEMM term, and kernels
#: without the ``out`` hooks their own temporaries.
DEFAULT_BLOCK_ELEMENTS = 4_000_000

#: ``(m, k)`` arrays live at once in a joint potential + force pass of a
#: :class:`RadialKernel`: the r^2 buffer (``r`` after the in-place sqrt,
#: then the contraction scratch), ``g``, ``g'/r`` and one temporary of
#: the radial evaluation (the default :meth:`RadialKernel.evaluate_radial`
#: of the inverse multiquadric needs it; the built-in overrides do not).
#: Stacked chunks of a joint pass divide their element budget by it, so
#: the working set stays within the budget.
JOINT_LIVE_ARRAYS = 4


def block_rows(k: int, block_elements: int = DEFAULT_BLOCK_ELEMENTS) -> int:
    """Target rows per row block of :meth:`Kernel.potential` /
    :meth:`Kernel.potential_and_force` against ``k`` sources.

    The first block of an ``(m, k)`` evaluation is its largest:
    ``min(m, block_rows(k)) * k`` elements per ``(m, k)`` array, which
    is what the evaluators reserve in a workspace.
    """
    return max(1, block_elements // max(k, 1))


class Kernel(abc.ABC):
    """Abstract interaction kernel ``G(x, y)``.

    Subclasses must define :meth:`pairwise` and the cost metadata class
    attributes.  Kernels must be smooth and non-oscillatory for ``x != y``
    (the regime where polynomial interpolation converges; paper Sec. 2).
    """

    #: Short identifier used by the registry and in reports.
    name: str = "abstract"
    #: Approximate floating-point operations per kernel evaluation
    #: (distance computation included); drives the performance model.
    flops_per_interaction: int = 20
    #: Fraction in [0, 1] expressing how much of the evaluation is
    #: transcendental work (exp, log, ...).  Devices apply their own
    #: penalty to this fraction: the paper observes Yukawa costs ~1.8x
    #: Coulomb on the CPU but only ~1.5x on the GPU (Sec. 4).
    transcendental_weight: float = 0.0
    #: True when G diverges as x -> y (Coulomb/Yukawa); singular kernels
    #: have their self-interaction zeroed.
    singular_at_origin: bool = True
    #: True when the kernel provides :meth:`pairwise_fused` /
    #: :meth:`pairwise_gradient_fused` -- the temporary-free r^2
    #: accumulation used by the fused evaluation path.  The reference
    #: (byte-stable) :meth:`pairwise` is never affected.
    supports_fused_pairwise: bool = False
    #: True when the kernel provides :meth:`pairwise_batched` /
    #: :meth:`potential_force_batched` -- stacked evaluation over
    #: ``(G, m, 3)`` target x ``(G, k, 3)`` source blocks, used by the
    #: batched (shape-bucketed) backend.  Backends fall back to the
    #: per-group fused path for kernels without it.
    supports_batched_pairwise: bool = False
    #: True when ``G(x, y) == G(y, x)`` and ``grad_x G(x, y) ==
    #: -grad_x G(y, x)`` (radial kernels): one block then serves its
    #: mirror through the ``mirror`` argument of :meth:`potential` /
    #: :meth:`force` / :meth:`potential_and_force`.
    symmetric: bool = False

    @abc.abstractmethod
    def pairwise(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Return the ``(M, K)`` matrix ``G(targets[i], sources[j])``.

        Coincident target/source pairs contribute zero for singular
        kernels.  ``targets`` is ``(M, 3)`` and ``sources`` is ``(K, 3)``.
        """

    def pairwise_fused(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """Temporary-free variant of :meth:`pairwise` (fused path only).

        Same contract as :meth:`pairwise`; implementations may reorder
        the distance arithmetic to avoid intermediate matrices, so
        values agree with the reference to floating-point roundoff
        rather than bitwise.  Only kernels advertising
        ``supports_fused_pairwise`` implement it; everything else keeps
        the reference primitive on every path.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} has no fused pairwise primitive"
        )

    def pairwise_gradient_fused(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """Fused-path variant of :meth:`pairwise_gradient`."""
        raise NotImplementedError(
            f"kernel {self.name!r} has no fused pairwise primitive"
        )

    def pairwise_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        coincident: dict | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Stacked :meth:`pairwise`: ``(G, m, 3) x (G, k, 3) -> (G, m, k)``.

        Entry ``b`` of the result is the kernel matrix of target block
        ``targets[b]`` against source block ``sources[b]``; the whole
        stack evaluates in a handful of array passes (batched GEMMs)
        instead of ``G`` Python-level kernel calls.  Values agree with
        the per-block reference to floating-point roundoff (fused-path
        arithmetic).  Only kernels advertising
        ``supports_batched_pairwise`` implement it.  ``coincident`` is
        :meth:`potential`'s, the whole stack being one block; pass the
        same dict to :meth:`potential_force_batched` on the same stack.
        With a ``workspace`` the result is one of its views, valid until
        the next call on that workspace.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} has no batched pairwise primitive"
        )

    def potential_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        coincident: dict | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Stacked potentials ``phi[b] = pairwise_batched(...)[b] @ w[b]``.

        ``weights`` is ``(G, k)``, or ``(G, k, n_rhs)`` for multi-RHS:
        the kernel stack is built once and every column runs the
        identical single-vector batched GEMV on a contiguous column
        copy, so column ``j`` of the ``(G, m, n_rhs)`` result is bitwise
        the single-vector result on ``weights[..., j]``.  ``workspace``
        holds the kernel stack (see the module docstring); the result is
        a fresh array either way.
        """
        return _gemv_stack(
            self.pairwise_batched(
                targets, sources, coincident, workspace=workspace
            ),
            weights,
        )

    def potential_force_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        coincident: dict | None = None,
        *,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`potential_batched` and the stacked forces
        ``F[b, i] = -sum_j grad G(t_bi, s_bj) w_bj`` in one pass.

        Returns ``(phi, forces)``, forces shaped ``(G, m, 3)`` (or
        ``(G, m, 3, n_rhs)``); ``phi`` is bitwise
        :meth:`potential_batched`'s on the same stack and ``coincident``
        slot.  ``workspace`` is :meth:`potential_batched`'s.  Only
        kernels advertising ``supports_batched_pairwise`` implement it.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} has no batched pairwise primitive"
        )

    def potential(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        charges: np.ndarray,
        *,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
        fused: bool = False,
        coincident: dict | None = None,
        mirror: tuple | None = None,
        workspace=None,
    ) -> np.ndarray:
        """Accumulate ``phi_i = sum_j G(x_i, y_j) q_j`` blockwise.

        The matrix is never materialised beyond ``block_elements`` entries,
        so arbitrarily large target/source sets can be processed.
        ``fused=True`` evaluates each block through
        :meth:`pairwise_fused` when the kernel provides it (roundoff-
        level differences, fewer elementwise passes); the default keeps
        the byte-stable reference arithmetic.

        Multi-RHS: a ``(K, n_rhs)`` charge matrix yields ``(M, n_rhs)``
        potentials.  The kernel matrix -- the expensive part -- is built
        once per block and re-contracted against every column with the
        exact single-vector GEMV on a contiguous column copy, so column
        ``j`` of the result is bitwise what a single-vector call on
        ``charges[:, j]`` produces.  Block boundaries never depend on
        ``n_rhs`` (they feed the coincidence noise floor).

        ``coincident`` is for callers that evaluate the same
        ``(targets, sources)`` geometry repeatedly: a dict the kernel
        owns the contents of, mapping each row block ``(lo, hi)`` to the
        flat indices of its coincident entries.  A block found there
        skips the noise-floor scan, a block that is not is scanned and
        recorded -- same values either way.  Kernels without a
        coincidence scan ignore it.

        ``mirror=(col0, charges_t, out_t)`` (:attr:`symmetric` kernels)
        applies the trailing columns ``sources[col0:]`` back onto the
        sources: ``out_t += G[:, col0:]^T charges_t``, with ``charges_t``
        the ``(M,)`` / ``(M, n_rhs)`` charges sitting at the target
        points.  That is the potential those sources receive from the
        targets, read off the matrix already formed.  Every column runs
        the single-vector product on the same strided view of each row
        block, so column ``j`` of ``out_t`` stays bitwise a
        single-vector call's.  (A transposed contiguous copy would
        switch BLAS kernels and break that.)

        ``workspace`` (a :class:`~repro.kernels.workspace.Workspace`)
        receives each row block's kernel matrix and its r^2 instead of
        fresh arrays; bitwise the same results.
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        charges = np.asarray(charges)
        m = targets.shape[0]
        k = sources.shape[0]
        multi = charges.ndim == 2
        if out is None:
            # Promote over all three operands: the pairwise block has
            # dtype result_type(targets, sources), so leaving sources
            # out would silently downcast float64 blocks on the +=.
            shape = (m, charges.shape[1]) if multi else m
            out = np.zeros(shape, dtype=np.result_type(targets, sources, charges))
        if k == 0 or m == 0:
            return out
        fused = fused and self.supports_fused_pairwise
        rows_per_block = block_rows(k, block_elements)
        if mirror is not None:
            col0, q_t, out_t = mirror
        if not multi:
            for lo, hi in chunk_ranges(m, rows_per_block):
                mat = self._pairwise_block(
                    targets[lo:hi], sources, fused, coincident, (lo, hi),
                    workspace,
                )
                out[lo:hi] += mat @ charges
                if mirror is not None:
                    out_t += mat[:, col0:].T @ q_t[lo:hi]
            return out
        cols = [
            np.ascontiguousarray(charges[:, r]) for r in range(charges.shape[1])
        ]
        if mirror is not None:
            cols_t = [np.ascontiguousarray(q_t[:, r]) for r in range(len(cols))]
        for lo, hi in chunk_ranges(m, rows_per_block):
            mat = self._pairwise_block(
                targets[lo:hi], sources, fused, coincident, (lo, hi),
                workspace,
            )
            for r, col in enumerate(cols):
                out[lo:hi, r] += mat @ col
            if mirror is not None:
                for r, col in enumerate(cols_t):
                    out_t[:, r] += mat[:, col0:].T @ col[lo:hi]
        return out

    def pairwise_gradient(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """Return the ``(M, K, 3)`` gradient ``grad_x G(x_i, y_j)``.

        Needed for force evaluation (the paper's opening motivation:
        "computing electrostatic or gravitational potentials and
        *forces*").  Optional: kernels without an analytic gradient raise
        ``NotImplementedError``; the treecode force path then refuses
        cleanly.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} does not implement gradients"
        )

    def force(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        charges: np.ndarray,
        *,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
        fused: bool = False,
        coincident: dict | None = None,
        mirror: tuple | None = None,
    ) -> np.ndarray:
        """Accumulate ``F_i = -sum_j grad_x G(x_i, y_j) q_j`` blockwise.

        The negative gradient of the potential -- the force per unit
        target charge/mass.  ``fused=True`` routes each block through
        :meth:`pairwise_gradient_fused` when available, as in
        :meth:`potential`.

        Multi-RHS: a ``(K, n_rhs)`` charge matrix yields ``(M, 3, n_rhs)``
        forces, hoisting the gradient block once and contracting per
        column exactly as :meth:`potential` does.  ``coincident`` is
        :meth:`potential`'s (one dict serves both: a row block the two
        share is scanned once).

        ``mirror`` is :meth:`potential`'s, with ``out_t`` shaped
        ``(K - col0, 3)`` / ``(K - col0, 3, n_rhs)``: the gradient is
        antisymmetric, so source ``b`` receives ``+sum_a grad[a, b]
        charges_t[a]``.
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        charges = np.asarray(charges)
        m = targets.shape[0]
        k = sources.shape[0]
        multi = charges.ndim == 2
        if out is None:
            # Same three-operand promotion as potential(): the gradient
            # block carries result_type(targets, sources).
            shape = (m, 3, charges.shape[1]) if multi else (m, 3)
            out = np.zeros(shape, dtype=np.result_type(targets, sources, charges))
        if k == 0 or m == 0:
            return out
        fused = fused and self.supports_fused_pairwise
        rows_per_block = max(1, block_elements // max(3 * k, 1))
        if mirror is not None:
            col0, q_t, out_t = mirror
        if not multi:
            for lo, hi in chunk_ranges(m, rows_per_block):
                grad = self._gradient_block(
                    targets[lo:hi], sources, fused, coincident, (lo, hi)
                )
                out[lo:hi] -= np.einsum("mkd,k->md", grad, charges)
                if mirror is not None:
                    out_t += np.einsum(
                        "mkd,m->kd", grad[:, col0:], q_t[lo:hi]
                    )
            return out
        cols = [
            np.ascontiguousarray(charges[:, r]) for r in range(charges.shape[1])
        ]
        if mirror is not None:
            cols_t = [np.ascontiguousarray(q_t[:, r]) for r in range(len(cols))]
        for lo, hi in chunk_ranges(m, rows_per_block):
            grad = self._gradient_block(
                targets[lo:hi], sources, fused, coincident, (lo, hi)
            )
            for r, col in enumerate(cols):
                out[lo:hi, :, r] -= np.einsum("mkd,k->md", grad, col)
            if mirror is not None:
                for r, col in enumerate(cols_t):
                    out_t[:, :, r] += np.einsum(
                        "mkd,m->kd", grad[:, col0:], col[lo:hi]
                    )
        return out

    def potential_and_force(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        charges: np.ndarray,
        *,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
        forces: np.ndarray | None = None,
        fused: bool = False,
        coincident: dict | None = None,
        mirror: tuple | None = None,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`potential` and :meth:`force` of one target/source set.

        Accumulates into ``out`` / ``forces`` (allocated as those two
        methods would when None) and returns both.  ``mirror`` is
        ``(col0, charges_t, out_t, forces_t)``: the two methods'
        ``mirror`` tuples sharing ``col0`` and ``charges_t``;
        ``workspace`` is :meth:`potential`'s.

        The generic form makes the two calls; :class:`RadialKernel`
        overrides it with one pass per row block.
        """
        pot_mirror = force_mirror = None
        if mirror is not None:
            col0, q_t, out_t, forces_t = mirror
            pot_mirror = (col0, q_t, out_t)
            force_mirror = (col0, q_t, forces_t)
        kw = dict(
            block_elements=block_elements, fused=fused, coincident=coincident
        )
        out = self.potential(
            targets, sources, charges, out=out, mirror=pot_mirror,
            workspace=workspace, **kw
        )
        forces = self.force(
            targets, sources, charges, out=forces, mirror=force_mirror, **kw
        )
        return out, forces

    def _pairwise_block(
        self, targets, sources, fused, coincident, key, workspace=None
    ):
        """One row block of :meth:`potential`'s kernel matrix.

        The generic kernel has no coincidence scan to save and no
        workspace hooks, so ``coincident`` / ``key`` / ``workspace`` go
        unused; :class:`RadialKernel` overrides both block hooks.
        """
        if fused:
            return self.pairwise_fused(targets, sources)
        return self.pairwise(targets, sources)

    def _gradient_block(self, targets, sources, fused, coincident, key):
        """One row block of :meth:`force`'s gradient tensor."""
        if fused:
            return self.pairwise_gradient_fused(targets, sources)
        return self.pairwise_gradient(targets, sources)

    def cost_multiplier(self, transcendental_penalty: float) -> float:
        """Per-device cost factor relative to a pure-arithmetic kernel.

        ``transcendental_penalty`` is a device property (how expensive
        transcendental ops are relative to FMA throughput); the returned
        multiplier scales the device's base interaction time.
        """
        return 1.0 + self.transcendental_weight * transcendental_penalty

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class RadialKernel(Kernel):
    """Base class for radial kernels ``G(x, y) = g(|x - y|)``.

    Subclasses implement :meth:`evaluate_r` on strictly positive distances
    (and :meth:`evaluate_dr_over_r` for forces); this class handles
    pairwise distance computation and the ``r == 0`` (self-interaction /
    removable) entries.

    Potential and force together (:meth:`potential_and_force`, the
    per-group evaluators; :meth:`potential_force_batched`, the bucketed
    one) run one radial pass per block: one ``r^2``, one coincidence
    lookup, one ``sqrt``, then :meth:`evaluate_radial` returns ``g`` and
    ``g'(r)/r`` from that one ``r``, and the force is contracted in the
    factored form ``(f w) S - t * rowsum(f w)`` with ``f = g'(r)/r``.
    Kernels override :meth:`evaluate_radial` to share their sqrt / exp /
    divisions between the two factors; its ``g`` must be bitwise
    :meth:`evaluate_r`'s, so potentials do not depend on whether forces
    were asked for.  Given a workspace, the evaluators pass its buffers
    to :meth:`evaluate_r_into` / :meth:`evaluate_radial` as ``out``;
    kernels that do not override the hooks return fresh arrays.
    :meth:`force` and :meth:`evaluate_dr_over_r` stay the byte-stable
    reference the ``numpy`` backend runs.

    Every evaluation path (:meth:`pairwise`, :meth:`pairwise_fused`, the
    stacked ``*_batched`` forms and :meth:`potential` / :meth:`force` /
    :meth:`potential_and_force`) classifies coincident pairs through one
    rule,
    :func:`_scan_coincident`: ``r^2`` at or below ``16 eps`` times the
    block's squared coordinate scale counts as ``r == 0``.

    Domain: any pair above that floor is evaluated as it stands.  For
    the singular kernels the force factor ``g'(r)/r ~ r^-3`` leaves the
    representable range once a non-coincident separation falls below
    about ``np.finfo(dtype).tiny ** (1/3)`` (2.8e-103 in float64, 2.3e-13
    in float32; ``-1/r^3`` alone overflows at 0.63 of that, and a charge
    of magnitude ``q`` scales the edge by ``q^(1/3)``), and the forces
    then come back non-finite.  Inputs must keep every non-coincident
    separation at least 10x above that edge.  Only geometries whose
    whole extent is that small can reach it: in a unit-scale geometry
    such a pair lies under the noise floor and is coincident.  The
    smooth kernels (Gaussian, inverse multiquadric, thin-plate) stay
    finite at every separation.
    """

    supports_fused_pairwise = True
    supports_batched_pairwise = True
    symmetric = True

    @abc.abstractmethod
    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        """Evaluate ``g(r)`` elementwise for ``r > 0``."""

    def evaluate_dr_over_r(self, r: np.ndarray) -> np.ndarray:
        """Evaluate ``g'(r) / r`` elementwise for ``r > 0``.

        The radial gradient factor: ``grad_x g(|x-y|) =
        (g'(r)/r) (x - y)``.  Optional; required for force evaluation.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} does not implement evaluate_dr_over_r"
        )

    def evaluate_r_into(self, r: np.ndarray, out: np.ndarray | None):
        """:meth:`evaluate_r`, written into ``out`` where the kernel can.

        The potential pass's ``out=`` hook: ``out`` is a buffer of
        ``r``'s shape and dtype (or None: allocate), not aliasing ``r``.
        Returns the array holding ``g`` -- ``out`` in an override, which
        must be bitwise :meth:`evaluate_r`; the default returns
        :meth:`evaluate_r`'s fresh array.
        """
        return self.evaluate_r(r)

    def evaluate_radial(
        self, r: np.ndarray, out: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both radial factors ``(g(r), g'(r) / r)`` from one ``r > 0``.

        The joint pass's hook.  The default calls :meth:`evaluate_r` and
        :meth:`evaluate_dr_over_r`; overrides share work between them
        and keep ``g`` bitwise :meth:`evaluate_r`'s.  ``out`` is None or
        a ``(g, f)`` pair of buffers shaped like ``r`` (or None: allocate)
        that an override writes the factors into; the default returns
        two fresh arrays.  Neither factor may alias ``r``, which the
        caller reuses.
        """
        return self.evaluate_r(r), self.evaluate_dr_over_r(r)

    def evaluate_r0(self) -> float:
        """Value assigned at ``r == 0``.

        Zero for singular kernels (self-interaction excluded); smooth
        kernels override :attr:`singular_at_origin` and this method.
        """
        return 0.0

    def pairwise(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        # Squared distances via the expanded form
        #     r^2 = |t|^2 + |s|^2 - 2 t.s
        # whose inner product maps to a BLAS GEMM -- an order of magnitude
        # faster than materialising the (M, K, 3) difference tensor.  This
        # mirrors what the paper's GPU kernel does with fused multiply-adds.
        #
        # The expansion can suffer catastrophic cancellation for extremely
        # close pairs: the absolute error in r^2 is O(eps * (|t|^2+|s|^2)).
        # Pairs below the noise floor are treated as coincident (the
        # self-interaction convention); this is also what guarantees the
        # exact-zero case lands in the coincident branch regardless of
        # BLAS summation order.  Both the treecode's direct-sum kernel and
        # the direct-summation reference evaluate pairs through this same
        # function, so the paper's error metric (eq. 16) compares
        # identical arithmetic.
        #
        # Coincident entries are patched sparsely (they are at most one
        # per row) rather than via full-matrix np.where passes, and the
        # square root runs in place on the owned r2 buffer -- bitwise the
        # same values, several fewer O(M K) passes.
        r2, zero_idx = self._pairwise_r2(targets, sources)
        return self._finish_pairwise(r2, zero_idx)

    def pairwise_fused(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """:meth:`pairwise` on the temporary-free r^2 accumulation.

        One (M, K) buffer total: the GEMM output is accumulated into in
        place (the -2 factor is folded into the (K, 3) source block
        before the product).  Values differ from the reference only by
        the summation order of the three r^2 terms -- roundoff at the
        noise-floor scale -- and the coincidence classification uses the
        identical floor, so self-interactions resolve the same way.
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        r2, zero_idx = self._pairwise_r2_fused(targets, sources)
        return self._finish_pairwise(r2, zero_idx)

    def _finish_pairwise(self, r2, zero_idx, workspace=None) -> np.ndarray:
        """sqrt + kernel + sparse coincidence patch on an owned r2."""
        r2.put(zero_idx, 1.0)
        np.sqrt(r2, out=r2)
        g = self.evaluate_r_into(
            r2, take(workspace, "g", r2.shape, r2.dtype)
        )
        g.put(zero_idx, self.evaluate_r0())
        return g

    def _pairwise_r2(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        zero_idx=None,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Squared distances and the coincident entries' flat indices.

        The indices come from the noise-floor scan unless the caller
        already holds them (``zero_idx``, from an earlier call on the
        same coordinates), in which case they pass straight through.
        With a ``workspace``, r^2 and its GEMM term live in its slots.
        """
        t2 = np.einsum("md,md->m", targets, targets)
        s2 = np.einsum("kd,kd->k", sources, sources)
        shape = (len(targets), len(sources))
        dtype = np.result_type(targets, sources)
        r2 = np.add(
            t2[:, None], s2[None, :], out=take(workspace, "r2", shape, dtype)
        )
        cross = np.matmul(
            targets, sources.T, out=take(workspace, "cross", shape, dtype)
        )
        r2 -= np.multiply(2.0, cross, out=cross)
        if zero_idx is None:
            zero_idx = _scan_coincident(r2, t2, s2)
        return r2, zero_idx

    def _pairwise_r2_fused(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        zero_idx=None,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_pairwise_r2` without the O(M K) temporaries.

        The reference allocates three (M, K) arrays (broadcast sum, GEMM
        output, scaled GEMM); here the GEMM result *is* the r2 buffer --
        ``targets @ (-2 sources)^T`` -- and the squared norms are added
        in place, so exactly one (M, K) array is ever live and only two
        elementwise passes follow the GEMM.  Same noise-floor
        coincidence rule on the same scale.

        Written over leading batch dimensions (``...`` below), so the
        same arithmetic serves the 2-D fused path (bitwise-unchanged:
        the einsum subscripts and the matmul degenerate to exactly the
        old expressions) and the stacked ``(G, m, 3) x (G, k, 3)``
        batched path, whose noise floor then derives from the whole
        stack's coordinate scale (every block shares one floor).  With a
        ``workspace`` the GEMM writes into its ``"r2"`` slot.
        """
        t2 = np.einsum("...md,...md->...m", targets, targets)
        s2 = np.einsum("...kd,...kd->...k", sources, sources)
        shape = targets.shape[:-1] + sources.shape[-2:-1]
        r2 = np.matmul(
            targets,
            (sources * -2.0).swapaxes(-1, -2),
            out=take(
                workspace, "r2", shape, np.result_type(targets, sources)
            ),
        )
        r2 += t2[..., :, None]
        r2 += s2[..., None, :]
        if zero_idx is None:
            zero_idx = _scan_coincident(r2, t2, s2)
        return r2, zero_idx

    def _r2_block(
        self, targets, sources, fused, coincident, key, workspace=None
    ):
        """r^2 and coincident indices of one block, scanned at most once
        per ``coincident`` dict (every time when there is none)."""
        r2_of = self._pairwise_r2_fused if fused else self._pairwise_r2
        if coincident is None:
            return r2_of(targets, sources, None, workspace)
        r2, zero_idx = r2_of(targets, sources, coincident.get(key), workspace)
        coincident[key] = zero_idx
        return r2, zero_idx

    def _pairwise_block(
        self, targets, sources, fused, coincident, key, workspace=None
    ):
        r2, zero_idx = self._r2_block(
            targets, sources, fused, coincident, key, workspace
        )
        return self._finish_pairwise(r2, zero_idx, workspace)

    def _gradient_block(self, targets, sources, fused, coincident, key):
        r2, zero_idx = self._r2_block(targets, sources, fused, coincident, key)
        return self._finish_gradient(targets, sources, r2, zero_idx)

    def pairwise_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        coincident: dict | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Stacked kernel matrices on the fused r^2 accumulation.

        ``targets`` is ``(G, m, 3)``, ``sources`` ``(G, k, 3)``; the
        cross term is one batched GEMM, the squared norms accumulate in
        place, and the sqrt/kernel/coincidence passes run over the whole
        ``(G, m, k)`` stack at once.
        """
        return self._pairwise_block(
            targets, sources, True, coincident, (0, len(targets)), workspace
        )

    def potential_force_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        coincident: dict | None = None,
        *,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked potentials and factored radial forces, one pass.

        One fused r^2 stack, one coincidence lookup, one sqrt and one
        :meth:`evaluate_radial` serve both: the potentials are
        :meth:`potential_batched`'s GEMV on ``g`` (bitwise), and with
        ``grad G = f(r) (x - y)``, ``f = g'(r)/r``, the forces split as

            F_i = -sum_j f_ij w_j (t_i - s_j)
                = (f w) S  -  t_i * sum_j f_ij w_j,

        one elementwise product, one row-sum and one batched GEMM
        against the source coordinates, with no ``(G, m, k, 3)``
        gradient tensor.  They agree with the generic gradient
        contraction to roundoff (the sum over sources is reassociated);
        coincident pairs contribute exactly zero.

        Multi-RHS (``weights`` shaped ``(..., k, n_rhs)``): the radial
        factors are computed once and every column repeats the exact
        single-vector contractions on a contiguous column copy, so each
        output column is bitwise the single-vector result for it.
        """
        g, f, scratch = self._radial_block(
            targets, sources, True, coincident, (0, len(targets)), workspace
        )
        phi = _gemv_stack(g, weights)
        if weights.ndim == np.ndim(targets):
            frc = np.stack(
                [
                    _radial_force(
                        f, np.ascontiguousarray(weights[..., r]),
                        targets, sources, scratch,
                    )
                    for r in range(weights.shape[-1])
                ],
                axis=-1,
            )
        else:
            frc = _radial_force(f, weights, targets, sources, scratch)
        return phi, frc

    def potential_and_force(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        charges: np.ndarray,
        *,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
        forces: np.ndarray | None = None,
        fused: bool = False,
        coincident: dict | None = None,
        mirror: tuple | None = None,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One radial pass per row block for potential and force.

        Per row block: one r^2 (``fused`` picks the arithmetic, as in
        :meth:`potential`), one coincidence lookup in ``coincident``,
        one sqrt and one :meth:`evaluate_radial`.  Potentials are
        :meth:`potential`'s GEMV on ``g``; forces are the factored
        contraction of :meth:`potential_force_batched` on ``f =
        g'(r)/r``, which builds no ``(M, K, 3)`` gradient tensor and
        agrees with :meth:`force` to roundoff.

        Row blocks are :meth:`potential`'s (``block_elements // K``
        rows), so the potentials are bitwise :meth:`potential`'s: BLAS
        rounds the r^2 GEMM and the GEMV differently for different row
        counts, and the block also sets the coincidence noise floor.
        The pass holds ``r`` (reused as the contraction scratch), ``g``
        and ``f`` per block -- the slots ``"r2"``, ``"g"`` and ``"f"`` of
        a ``workspace``, else fresh per block -- and the force
        contraction allocates none.

        Multi-RHS: every column runs the single-vector contractions on
        the shared factors (contiguous column copies), so column ``j``
        is bitwise a single-vector call's.

        ``mirror=(col0, charges_t, out_t, forces_t)`` applies the
        trailing columns back onto the sources from the same factors:
        ``out_t += G[:, col0:]^T q_t`` and ``forces_t += (F q_t)^T T -
        S * colsum(F q_t)`` with ``F = f[:, col0:]`` (the gradient is
        antisymmetric).
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        charges = np.asarray(charges)
        m = targets.shape[0]
        k = sources.shape[0]
        rhs = charges.shape[1:]
        # Same three-operand promotion as potential() / force().
        dtype = np.result_type(targets, sources, charges)
        if out is None:
            out = np.zeros((m,) + rhs, dtype=dtype)
        if forces is None:
            forces = np.zeros((m, 3) + rhs, dtype=dtype)
        if k == 0 or m == 0:
            return out, forces
        fused = fused and self.supports_fused_pairwise

        def columns(q, phi, frc):
            """(charges, potential, force) per RHS column."""
            if q.ndim == 1:
                return [(q, phi, frc)]
            return [
                (np.ascontiguousarray(q[:, r]), phi[:, r], frc[:, :, r])
                for r in range(q.shape[1])
            ]

        cols = columns(charges, out, forces)
        if mirror is not None:
            col0, q_t, out_t, forces_t = mirror
            mirror = (col0, columns(np.asarray(q_t), out_t, forces_t))
        for lo, hi in chunk_ranges(m, block_rows(k, block_elements)):
            # One call per block: it is done with its arrays (freed, or
            # workspace views the next block overwrites) when it returns.
            self._joint_block(
                targets, sources, fused, coincident, (lo, hi), cols, mirror,
                workspace,
            )
        return out, forces

    def _joint_block(
        self, targets, sources, fused, coincident, key, cols, mirror,
        workspace,
    ):
        """Row block ``key = (lo, hi)`` of :meth:`potential_and_force`:
        ``cols`` / ``mirror`` are its per-column operands."""
        lo, hi = key
        tgt = targets[lo:hi]
        g, f, scratch = self._radial_block(
            tgt, sources, fused, coincident, key, workspace
        )
        for q, phi, frc in cols:
            phi[lo:hi] += g @ q
            frc[lo:hi] += _radial_force(f, q, tgt, sources, scratch)
        if mirror is None:
            return
        col0, cols_t = mirror
        f_t = f[:, col0:]
        scratch_t = None if scratch is None else scratch[:, col0:]
        for q, phi, frc in cols_t:
            phi += g[:, col0:].T @ q[lo:hi]
            fq = _scaled(f_t, q[lo:hi, None], scratch_t)
            frc += fq.T @ tgt - sources[col0:] * fq.sum(axis=0)[:, None]

    def _radial_block(
        self, targets, sources, fused, coincident, key, workspace=None
    ):
        """``g``, ``g'/r`` and a scratch buffer of one block.

        One r^2 pass (:meth:`_r2_block`), one sqrt in place, one
        :meth:`evaluate_radial` (into the workspace's ``"g"`` / ``"f"``
        slots when there is one), one coincidence patch of each factor
        (``evaluate_r0`` and zero force).  The r buffer is free after
        that and comes back as the ``(..., m, k)`` scratch of the force
        contraction -- None if a factor aliases it.
        """
        r, zero_idx = self._r2_block(
            targets, sources, fused, coincident, key, workspace
        )
        r.put(zero_idx, 1.0)
        np.sqrt(r, out=r)
        g, f = self.evaluate_radial(
            r,
            out=(
                take(workspace, "g", r.shape, r.dtype),
                take(workspace, "f", r.shape, r.dtype),
            ),
        )
        g.put(zero_idx, self.evaluate_r0())
        f.put(zero_idx, 0.0)
        if np.may_share_memory(r, g) or np.may_share_memory(r, f):
            r = None
        return g, f, r

    def pairwise_gradient(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """Gradient ``grad_x G = (g'(r)/r) (x - y)``; zero at coincidence.

        Coincident pairs contribute zero force: for singular kernels the
        self-term is excluded, and for smooth radial kernels the gradient
        vanishes at the origin by symmetry.
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        r2, zero_idx = self._pairwise_r2(targets, sources)
        return self._finish_gradient(targets, sources, r2, zero_idx)

    def pairwise_gradient_fused(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """:meth:`pairwise_gradient` on the fused r^2 accumulation."""
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        r2, zero_idx = self._pairwise_r2_fused(targets, sources)
        return self._finish_gradient(targets, sources, r2, zero_idx)

    def _gradient_factor(self, r2, zero_idx) -> np.ndarray:
        """``g'(r)/r`` on an owned r2, zero at the coincident entries."""
        r2.put(zero_idx, 1.0)
        np.sqrt(r2, out=r2)
        factor = self.evaluate_dr_over_r(r2)
        factor.put(zero_idx, 0.0)
        return factor

    def _finish_gradient(self, targets, sources, r2, zero_idx) -> np.ndarray:
        # Ellipsis indexing serves both the 2-D blocks ((M,1,3)-(1,K,3),
        # exactly the old broadcast) and the stacked batched blocks.
        factor = self._gradient_factor(r2, zero_idx)
        diff = targets[..., :, None, :] - sources[..., None, :, :]
        return factor[..., None] * diff


def _scan_coincident(
    r2: np.ndarray, t2: np.ndarray, s2: np.ndarray
) -> np.ndarray:
    """Flat (C-order) indices of the entries of ``r2`` at the noise floor.

    ``t2`` / ``s2`` are the squared norms ``r2`` was expanded from; they
    set the scale of its cancellation error.
    """
    scale = float(t2.max(initial=0.0) + s2.max(initial=0.0))
    noise_floor = 16.0 * np.finfo(r2.dtype).eps * max(scale, 1e-300)
    if r2.ndim >= 3 and float(r2.min(initial=np.inf)) > noise_floor:
        # Far-field stacked (batched) chunks have no pair at the
        # coincidence floor: one min-reduce then replaces the bool
        # materialization + index scan with an identical outcome
        # (nothing found).  Near-field (direct) stacked chunks --
        # self-target groups, coincident zero-weight pad rows -- fail
        # the min test and take the full scan below, exactly like the
        # 2-D blocks, whose groups routinely contain their own targets.
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(r2 <= noise_floor)


def _gemv_stack(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``mat[b] @ weights[b]`` over a ``(G, m, k)`` stack; a trailing RHS
    axis on ``weights`` runs the same GEMV per contiguous column."""
    if weights.ndim == mat.ndim:
        return np.stack(
            [
                np.matmul(
                    mat, np.ascontiguousarray(weights[..., r])[..., None]
                )[..., 0]
                for r in range(weights.shape[-1])
            ],
            axis=-1,
        )
    return np.matmul(mat, weights[..., None])[..., 0]


def _radial_force(f, w, targets, sources, scratch):
    """``-sum_j f_ij w_j (t_i - s_j) = (f w) S - t * rowsum(f w)``.

    Over the trailing ``(m, k)`` axes of ``f`` (2-D blocks or stacks);
    ``scratch`` (``f``'s shape, or None) receives ``f w``.
    """
    fw = _scaled(f, w[..., None, :], scratch)
    return fw @ sources - targets * fw.sum(axis=-1)[..., None]


def _scaled(f, w, scratch):
    """``f * w``, written into ``scratch`` when it holds the product's
    dtype (mixed-precision operands promote into a fresh array)."""
    if scratch is None or scratch.dtype != np.result_type(f, w):
        return f * w
    return np.multiply(f, w, out=scratch)
