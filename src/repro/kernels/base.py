"""Kernel interface for the kernel-independent treecode.

A kernel provides

* :meth:`Kernel.pairwise` -- the dense matrix ``G(x_i, y_j)`` for a block of
  targets and sources.  This is the single primitive the BLTC needs: the
  batch-cluster *direct sum* kernel evaluates it on source particles, the
  batch-cluster *approximation* kernel evaluates it on Chebyshev points
  (the two have the same direct-sum form; paper eq. 9 vs eq. 11).
* two drivers that accumulate ``phi_i = sum_j G(x_i, y_j) q_j`` and, given
  a ``forces`` accumulator, ``F_i = -sum_j grad_x G(x_i, y_j) q_j`` from
  the same block: :meth:`Kernel.potential` over row blocks of one
  target/source set, and :meth:`RadialKernel.potential_batched` over a
  stack of ``(G, m, 3) x (G, k, 3)`` blocks.  Both take their factors
  from one block routine; for radial kernels that forms ``r^2``, the
  coincidence lookup, ``r`` and :meth:`RadialKernel.evaluate_radial`
  once per block and contracts both results from them (as GPU treecodes
  share ``1/r`` between the two), never materialising the ``(M, K, 3)``
  gradient tensor.  Potentials are the same bytes with forces on or off.
* :meth:`Kernel.force` / :meth:`Kernel.pairwise_gradient` -- the
  unfused, byte-stable force reference the ``numpy`` backend runs.
* cost metadata (``flops_per_interaction``, ``transcendental_weight``)
  consumed by the performance model so CPU/GPU timings can be derived from
  exact interaction counts.

Self-interactions: when a target coincides with a source (``r == 0``,
singular kernels) the contribution is defined as zero, matching the
standard treecode convention for point-charge sums where the ``i == j``
term is excluded.

Workspace: both drivers take ``workspace=``, a
:class:`~repro.kernels.workspace.Workspace` the caller keeps for a run of
calls.  Radial kernels then write each block's ``(..., m, k)`` arrays --
``r^2`` (the r^2 GEMM through ``np.matmul(..., out=)``), ``g`` and
``g'(r)/r`` (through the ``out`` argument of
:meth:`RadialKernel.evaluate_radial`) -- into the workspace's slots
instead of fresh arrays.  Same ufuncs, block boundaries and summation
order, so the results are bitwise those of ``workspace=None``, the
default (and what the reference ``numpy`` backend passes).
"""

from __future__ import annotations

import abc

import numpy as np

from ..util import chunk_ranges
from .workspace import take

__all__ = ["Kernel", "RadialKernel", "block_rows", "candidate_rows"]

#: Default cap on the elements of one row block of :meth:`Kernel.potential`:
#: 32 MB per ``(m, k)`` float64 array.  Live per block: r^2 (``r`` after
#: the in-place sqrt) and ``g``; with forces ``g'(r)/r`` too, which the
#: force contraction reads in place (one BLAS product per column, no
#: ``(m, k)`` copy).  The reference r^2 (``fused=False``) allocates its
#: r^2 and GEMM term outside any workspace, and radial kernels without
#: an ``out``-aware :meth:`RadialKernel.evaluate_radial` their own
#: temporaries.
DEFAULT_BLOCK_ELEMENTS = 4_000_000

#: Stacked chunks with forces divide their element budget by this
#: count of ``(g, m, k)`` arrays, so the working set stays within the
#: budget: the r^2 buffer (``r`` after the in-place sqrt), ``g``,
#: ``g'/r`` and one temporary of the radial evaluation (the default
#: :meth:`RadialKernel.evaluate_radial` of the inverse multiquadric
#: needs it; the built-in overrides do not).  The force contraction
#: adds only ``(g, 4, k)`` factors and ``(g, 4, m)`` products.  The
#: count also fixes where a bucket's chunks end, and each chunk sets its
#: own coincidence noise floor, so changing it changes potentials, not
#: just memory.
JOINT_LIVE_ARRAYS = 4

#: The coincidence rule, as one constant pair.  An entry of an r^2 block
#: is coincident when it is at most ``NOISE_FLOOR_EPS * eps`` times the
#: block's squared coordinate scale (:func:`_scan_coincident`).  A plan
#: finds its candidates for such entries ahead of time, by one neighbour
#: pass over pairs whose exact squared distance is at most
#: ``CANDIDATE_EPS * eps`` times the plan's scale
#: (:mod:`repro.core.coincidence`): the floor plus the expanded r^2's
#: roundoff (about ``10 eps`` times the scale) stays well inside it.
NOISE_FLOOR_EPS = 16.0
CANDIDATE_EPS = 4.0 * NOISE_FLOOR_EPS


def block_rows(k: int, block_elements: int = DEFAULT_BLOCK_ELEMENTS) -> int:
    """Target rows per row block of :meth:`Kernel.potential` against
    ``k`` sources.

    The first block of an ``(m, k)`` evaluation is its largest:
    ``min(m, block_rows(k)) * k`` elements per ``(m, k)`` array, which
    is what the driver reserves in a workspace.
    """
    return max(1, block_elements // max(k, 1))


class Kernel(abc.ABC):
    """Abstract interaction kernel ``G(x, y)``.

    Subclasses must define :meth:`pairwise` and the cost metadata class
    attributes (and :meth:`pairwise_gradient` for forces).  Kernels must
    be smooth and non-oscillatory for ``x != y`` (the regime where
    polynomial interpolation converges; paper Sec. 2).  A generic kernel
    has no fused or stacked arithmetic: every backend evaluates it
    through :meth:`potential` on :meth:`pairwise` blocks.
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
    #: True when ``G(x, y) == G(y, x)`` and ``grad_x G(x, y) ==
    #: -grad_x G(y, x)`` (radial kernels): one block then serves its
    #: mirror through the ``mirror`` argument of :meth:`potential`.
    symmetric: bool = False

    @abc.abstractmethod
    def pairwise(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Return the ``(M, K)`` matrix ``G(targets[i], sources[j])``.

        Coincident target/source pairs contribute zero for singular
        kernels.  ``targets`` is ``(M, 3)`` and ``sources`` is ``(K, 3)``.
        """

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

    def potential(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        charges: np.ndarray,
        *,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
        forces: np.ndarray | None = None,
        fused: bool = False,
        coincident: np.ndarray | None = None,
        mirror: tuple | None = None,
        workspace=None,
    ) -> np.ndarray:
        """Accumulate ``phi_i = sum_j G(x_i, y_j) q_j`` blockwise into
        ``out`` (zeros of the promoted dtype when None) and return it.

        The matrix is never materialised beyond ``block_elements``
        entries per row block (``block_rows(K)`` rows), so arbitrarily
        large target/source sets can be processed.

        ``forces``, an ``(M, 3)`` / ``(M, 3, n_rhs)`` accumulator,
        switches on ``F_i = -sum_j grad_x G(x_i, y_j) q_j`` from the
        same blocks.  Row blocks never depend on it, so the potentials
        are bitwise the same with forces on or off: BLAS rounds the r^2
        GEMM and the GEMV differently for different row counts, and the
        block also sets the coincidence noise floor.  Radial kernels
        contract ``f = g'(r)/r`` by one BLAS product per block and
        charge column (see :meth:`RadialKernel.potential_batched`),
        with no ``(M, K, 3)`` gradient tensor, agreeing with
        :meth:`force` to roundoff; a generic kernel contracts its
        :meth:`pairwise_gradient` block.

        ``fused=True`` (:class:`RadialKernel` only) forms r^2 by the
        temporary-free accumulation of :meth:`RadialKernel.pairwise_fused`
        (roundoff-level differences, fewer elementwise passes); the
        default keeps the byte-stable reference arithmetic.

        Multi-RHS: a ``(K, n_rhs)`` charge matrix yields ``(M, n_rhs)``
        potentials (and ``(M, 3, n_rhs)`` forces).  Each block's factors
        -- the expensive part -- are formed once and re-contracted
        against every column with the exact single-vector contractions
        on a contiguous column (:func:`_columns`), so column ``j`` of
        the result is bitwise what a single-vector call on
        ``charges[:, j]`` produces.
        Block boundaries never depend on ``n_rhs``.

        ``coincident`` is for callers that know where coincident pairs
        can be: the ascending flat (C-order) indices into the whole
        ``(M, K)`` matrix of every entry that may lie at the noise
        floor, a superset of those that do (a plan's candidates, see
        :mod:`repro.core.coincidence`).  Each row block then tests only
        its own candidates against its floor instead of scanning every
        entry; the entries kept are exactly the scan's, so the values
        are the same either way.  None scans.  Kernels without a
        coincidence rule ignore it.

        ``mirror=(col0, charges_t, out_t, forces_t)`` (:attr:`symmetric`
        kernels) applies the trailing columns ``sources[col0:]`` back
        onto the sources: ``out_t += G[:, col0:]^T charges_t``, with
        ``charges_t`` the ``(M,)`` / ``(M, n_rhs)`` charges sitting at
        the target points -- the potential those sources receive from
        the targets, read off the block already formed -- and, with
        ``forces``, ``forces_t`` the force they receive (the gradient
        is antisymmetric; None with forces off).  Every column runs the
        single-vector product on the same strided view of each block,
        so column ``j`` of ``out_t`` stays bitwise a single-vector
        call's.  (A transposed contiguous copy would switch BLAS
        kernels and break that.)

        ``workspace`` (a :class:`~repro.kernels.workspace.Workspace`)
        receives each row block's r^2 and radial factors instead of
        fresh arrays; bitwise the same results.
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        charges = np.asarray(charges)
        m = targets.shape[0]
        k = sources.shape[0]
        if out is None:
            # Promote over all three operands: the pairwise block has
            # dtype result_type(targets, sources), so leaving sources
            # out would silently downcast float64 blocks on the +=.
            out = np.zeros(
                (m,) + charges.shape[1:],
                dtype=np.result_type(targets, sources, charges),
            )
        if k == 0 or m == 0:
            return out
        want_grad = forces is not None
        multi = charges.ndim == 2
        cols = _columns(charges, multi, out, forces)
        if mirror is not None:
            col0, q_t, out_t, forces_t = mirror
            cols_t = _columns(np.asarray(q_t), multi, out_t, forces_t)
            src_t = sources[col0:]
        for lo, hi in chunk_ranges(m, block_rows(k, block_elements)):
            tgt = targets[lo:hi]
            g, f = self._block(
                tgt, sources, fused, candidate_rows(coincident, lo, hi, m, k),
                workspace, want_grad,
            )
            for q, phi, frc in cols:
                phi[lo:hi] += g @ q
                if want_grad:
                    frc[lo:hi] += self._force_rows(f, q, tgt, sources)
            if mirror is not None:
                for q, phi, frc in cols_t:
                    phi += g[:, col0:].T @ q[lo:hi]
                    if want_grad:
                        frc += self._force_mirror(
                            f[:, col0:], q[lo:hi], tgt, src_t
                        )
            # Release the block before the next one forms, so one
            # block's arrays are live at a time.
            del g, f
        return out

    def force(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        charges: np.ndarray,
        *,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Accumulate ``F_i = -sum_j grad_x G(x_i, y_j) q_j`` blockwise.

        The negative gradient of the potential -- the force per unit
        target charge/mass -- contracted from :meth:`pairwise_gradient`
        blocks of ``block_elements // 3K`` rows: the unfused reference
        the ``numpy`` backend runs, whose bytes stay fixed.
        :meth:`potential` with a ``forces`` accumulator is the one-pass
        form the other backends run.

        Multi-RHS: a ``(K, n_rhs)`` charge matrix yields ``(M, 3, n_rhs)``
        forces, hoisting the gradient block once and contracting per
        column exactly as :meth:`potential` does.
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        charges = np.asarray(charges)
        m = targets.shape[0]
        k = sources.shape[0]
        if out is None:
            # Same three-operand promotion as potential(): the gradient
            # block carries result_type(targets, sources).
            out = np.zeros(
                (m, 3) + charges.shape[1:],
                dtype=np.result_type(targets, sources, charges),
            )
        if k == 0 or m == 0:
            return out
        cols = _columns(charges, charges.ndim == 2, out)
        for lo, hi in chunk_ranges(m, max(1, block_elements // max(3 * k, 1))):
            grad = self.pairwise_gradient(targets[lo:hi], sources)
            for q, frc in cols:
                frc[lo:hi] -= np.einsum("mkd,k->md", grad, q)
        return out

    def workspace_slots(self, want_grad: bool) -> tuple[str, ...]:
        """The workspace slots a block of the drivers takes: none for a
        generic kernel, which has no workspace hooks."""
        return ()

    def _block(
        self, targets, sources, fused, candidates, workspace, want_grad
    ):
        """``(G, grad)`` of one block of :meth:`potential`.

        The generic kernel has no fused arithmetic, coincidence rule or
        workspace hooks, so ``fused`` / ``candidates`` / ``workspace``
        go unused; ``grad`` is the :meth:`pairwise_gradient` tensor
        (None without ``want_grad``).  :class:`RadialKernel` overrides
        the block routine and the two force contractions below.
        """
        grad = self.pairwise_gradient(targets, sources) if want_grad else None
        return self.pairwise(targets, sources), grad

    @staticmethod
    def _force_rows(grad, q, targets, sources):
        """The block's force on its targets, ``-sum_j grad_ij q_j``."""
        return -np.einsum("mkd,k->md", grad, q)

    @staticmethod
    def _force_mirror(grad, q, targets, sources):
        """The force on ``sources`` from the targets' charges ``q``:
        ``+sum_i grad_ij q_i`` (the gradient is antisymmetric)."""
        return np.einsum("mkd,m->kd", grad, q)

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

    Subclass contract, three radial hooks on strictly positive ``r``:

    * :meth:`evaluate_r` (``g``) is required;
    * :meth:`evaluate_dr_over_r` (``g'(r)/r``) enables forces;
    * :meth:`evaluate_radial` is an optional fused override that returns
      both factors from one ``r``, sharing the kernel's sqrt / exp /
      divisions between them and writing into the ``out`` buffers it is
      handed.  Its ``g`` must be bitwise :meth:`evaluate_r`'s, so
      potentials do not depend on whether forces were asked for.

    This class handles the pairwise distances and the ``r == 0``
    (self-interaction / removable) entries.  Every block -- one row
    block of :meth:`potential`, one stack of :meth:`potential_batched`,
    and :meth:`pairwise` / :meth:`pairwise_fused` /
    :meth:`pairwise_batched` / :meth:`pairwise_gradient_fused` -- comes
    from one routine: one ``r^2``, one coincidence lookup, one ``sqrt``,
    one :meth:`evaluate_radial`.  With forces the drivers contract ``f =
    g'(r)/r`` by one BLAS product per column against the ``(k, 4)``
    factor ``[w S | w]`` (:func:`_radial_force`).
    :meth:`pairwise_gradient`, :meth:`force` and
    :meth:`evaluate_dr_over_r` stay the byte-stable reference the
    ``numpy`` backend runs.

    Every evaluation path classifies coincident pairs through one rule,
    :func:`_scan_coincident`: ``r^2`` at or below
    :data:`NOISE_FLOOR_EPS` ``* eps`` times the block's squared
    coordinate scale counts as ``r == 0``.

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

    def evaluate_radial(
        self, r: np.ndarray, *, want_grad: bool, out: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(g(r), g'(r) / r)`` from one ``r > 0``; the second factor is
        None without ``want_grad``.

        The drivers' one hook.  ``out`` is None or a ``(g, f)`` pair of
        buffers shaped like ``r`` (either may be None: allocate) that an
        override writes the factors into.  The default returns
        :meth:`evaluate_r` and :meth:`evaluate_dr_over_r` as fresh
        arrays; an override shares work between them and keeps ``g``
        bitwise :meth:`evaluate_r`'s.  Neither factor may alias ``r``,
        which the caller reuses.
        """
        return self.evaluate_r(r), (
            self.evaluate_dr_over_r(r) if want_grad else None
        )

    def evaluate_r0(self) -> float:
        """Value assigned at ``r == 0``.

        Zero for singular kernels (self-interaction excluded); smooth
        kernels override :attr:`singular_at_origin` and this method.
        """
        return 0.0

    def pairwise(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
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
        return self._block(
            np.atleast_2d(targets), np.atleast_2d(sources),
            False, None, None, False,
        )[0]

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
        return self._block(
            np.atleast_2d(targets), np.atleast_2d(sources),
            True, None, None, False,
        )[0]

    def pairwise_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        coincident: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Stacked :meth:`pairwise_fused`: ``(G, m, 3) x (G, k, 3) ->
        (G, m, k)``.

        The cross term is one batched GEMM, the squared norms accumulate
        in place, and the sqrt/kernel/coincidence passes run over the
        whole stack at once.  ``coincident`` is
        :meth:`potential_batched`'s; with a ``workspace`` the result is
        one of its views, valid until the next call on that workspace.
        """
        return self._block(
            targets, sources, True, coincident, workspace, False
        )[0]

    def potential_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        coincident: np.ndarray | None = None,
        *,
        forces: np.ndarray | None = None,
        workspace=None,
    ) -> np.ndarray:
        """Stacked potentials ``phi[b] = G_b @ w[b]`` over ``(G, m, 3)``
        target x ``(G, k, 3)`` source blocks, on the fused r^2.

        The whole stack is one block of the shared routine (one batched
        r^2 GEMM, one coincidence lookup, one sqrt, one
        :meth:`evaluate_radial`) followed by one batched GEMV, instead
        of ``G`` Python-level kernel calls; values agree with the
        per-block reference to roundoff.  ``coincident`` is
        :meth:`potential`'s, its flat indices running over the whole
        ``(G, m, k)`` stack.

        ``forces``, a ``(G, m, 3)`` / ``(G, m, 3, n_rhs)`` accumulator,
        switches on the stacked forces from the same factors.  With
        ``grad G = f(r) (x - y)``, ``f = g'(r)/r``, they split as

            F_i = -sum_j f_ij w_j (t_i - s_j) = R_i[:3] - t_i R_i[3],
            R = f [w S | w],

        one batched GEMM of ``f`` against the ``(G, k, 4)`` factor
        ``[w S | w]`` (:func:`_radial_force`), with no ``(G, m, k, 3)``
        gradient tensor and no scaled copy of ``f``.  They agree with
        :meth:`force` to roundoff (the sum over sources is
        reassociated); coincident pairs contribute exactly zero.  The
        potentials are bitwise the same with forces on or off.

        Multi-RHS (``weights`` shaped ``(G, k, n_rhs)``): the factors are
        formed once and every column runs the identical single-vector
        contractions on a contiguous column, so column ``j`` is
        bitwise the single-vector result on ``weights[..., j]``.
        ``workspace`` holds the block's stacks (see the module
        docstring); the returned potentials are a fresh array either
        way.
        """
        g, f = self._block(
            targets, sources, True, coincident, workspace, forces is not None
        )
        phi = _gemv_stack(g, weights)
        if forces is not None:
            multi = weights.ndim == np.ndim(targets)
            for w, frc in _columns(weights, multi, forces):
                frc += _radial_force(f, w, targets, sources)
        return phi

    def pairwise_gradient(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """Gradient ``grad_x G = (g'(r)/r) (x - y)``; zero at coincidence.

        Coincident pairs contribute zero force: for singular kernels the
        self-term is excluded, and for smooth radial kernels the gradient
        vanishes at the origin by symmetry.  The byte-stable reference
        (:meth:`evaluate_dr_over_r` on the reference r^2).
        """
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        r2, zero_idx = self._pairwise_r2(targets, sources)
        r2.put(zero_idx, 1.0)
        np.sqrt(r2, out=r2)
        factor = self.evaluate_dr_over_r(r2)
        factor.put(zero_idx, 0.0)
        return factor[..., None] * (targets[:, None, :] - sources[None, :, :])

    def pairwise_gradient_fused(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """:meth:`pairwise_gradient` from the fused block routine."""
        targets = np.atleast_2d(targets)
        sources = np.atleast_2d(sources)
        f = self._block(targets, sources, True, None, None, True)[1]
        return f[..., None] * (targets[:, None, :] - sources[None, :, :])

    def _block(
        self, targets, sources, fused, candidates, workspace, want_grad
    ):
        """``(g, g'/r)`` of one ``(..., m, k)`` block.

        One r^2 pass (``fused`` picks :meth:`_pairwise_r2_fused` or the
        reference :meth:`_pairwise_r2`), its coincident entries found by
        :func:`_scan_coincident` (among ``candidates``, the block's
        candidate flat indices, when given), one sqrt in place, one
        :meth:`evaluate_radial` (into the workspace's ``"g"`` / ``"f"``
        slots when there is one) and one coincidence patch of each
        factor (``evaluate_r0`` and zero force).  Without ``want_grad``
        the second factor is None.
        """
        if fused:
            r, zero_idx = self._pairwise_r2_fused(
                targets, sources, candidates, workspace
            )
        else:
            r, zero_idx = self._pairwise_r2(targets, sources, candidates)
        r.put(zero_idx, 1.0)
        np.sqrt(r, out=r)
        g, f = self.evaluate_radial(
            r,
            want_grad=want_grad,
            out=(
                take(workspace, "g", r.shape, r.dtype),
                take(workspace, "f", r.shape, r.dtype) if want_grad else None,
            ),
        )
        g.put(zero_idx, self.evaluate_r0())
        if want_grad:
            f.put(zero_idx, 0.0)
        return g, f

    def workspace_slots(self, want_grad: bool) -> tuple[str, ...]:
        return ("r2", "g", "f") if want_grad else ("r2", "g")

    @staticmethod
    def _force_rows(f, q, targets, sources):
        return _radial_force(f, q, targets, sources)

    @staticmethod
    def _force_mirror(f, q, targets, sources):
        # sum_i f_ij q_i (t_i - s_j) = -sum_i f^T_ji q_i (s_j - t_i): the
        # forward contraction of the transposed block, roles swapped.
        return _radial_force(f.T, q, sources, targets)

    def _pairwise_r2(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        candidates=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Squared distances and the coincident entries' flat indices.

        The indices are :func:`_scan_coincident`'s, tested among
        ``candidates`` when the caller holds them.  The byte-stable
        reference: it allocates its r^2 and GEMM term afresh.
        """
        t2 = np.einsum("md,md->m", targets, targets)
        s2 = np.einsum("kd,kd->k", sources, sources)
        r2 = t2[:, None] + s2[None, :]
        cross = targets @ sources.T
        r2 -= np.multiply(2.0, cross, out=cross)
        return r2, _scan_coincident(r2, t2, s2, candidates)

    def _pairwise_r2_fused(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        candidates=None,
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
        return r2, _scan_coincident(r2, t2, s2, candidates)


def _columns(charges, multi, *accumulators):
    """``(charges, *accumulators)`` per RHS column: the arrays themselves
    for one column, else each charge column (the last axis) as a
    contiguous array -- a view of RHS-major charges, a copy otherwise --
    with the accumulators' matching strided views."""
    if not multi:
        return ((charges, *accumulators),)
    n_rhs = charges.shape[-1]
    columns = _rhs_first(charges)
    if not columns[0].flags.c_contiguous:
        columns = np.ascontiguousarray(columns)
    return list(zip(
        columns,
        *(
            [None] * n_rhs if a is None else _rhs_first(a)
            for a in accumulators
        ),
    ))


def _rhs_first(a):
    """``a`` with its last (RHS) axis moved first: the view
    ``np.moveaxis(a, -1, 0)`` returns, by one ``transpose``."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1)))


def _scan_coincident(
    r2: np.ndarray, t2: np.ndarray, s2: np.ndarray, candidates=None
) -> np.ndarray:
    """Flat (C-order) indices of the entries of ``r2`` at the noise floor.

    The one coincidence rule.  ``t2`` / ``s2`` are the squared norms
    ``r2`` was expanded from; they set the scale of its cancellation
    error, and the floor is :data:`NOISE_FLOOR_EPS` ``* eps`` times it.
    ``candidates``, ascending flat indices of a superset of the entries
    at the floor, limits the test to them: same entries, same floor,
    same comparison, so the same indices as the full scan.
    """
    if candidates is not None and candidates.size == 0:
        return candidates
    scale = float(t2.max(initial=0.0) + s2.max(initial=0.0))
    noise_floor = NOISE_FLOOR_EPS * np.finfo(r2.dtype).eps * max(scale, 1e-300)
    if candidates is None:
        return np.flatnonzero(r2 <= noise_floor)
    return candidates[r2.take(candidates) <= noise_floor]


def candidate_rows(candidates, lo, hi, m, k):
    """The candidates of rows ``[lo, hi)`` of an ``(m, k)`` matrix,
    re-based to that row block (None stays None).  A stack's entries
    are its rows, ``m k`` elements long."""
    if candidates is None or (lo == 0 and hi == m):
        return candidates
    a, b = np.searchsorted(candidates, (lo * k, hi * k))
    return candidates[a:b] - lo * k


def _gemv_stack(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``mat[b] @ weights[b]`` over a ``(G, m, k)`` stack; a trailing RHS
    axis on ``weights`` runs the same GEMV per contiguous column (a view
    of RHS-major weights, a copy otherwise)."""
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


def _radial_force(f, w, targets, sources):
    """``-sum_j f_ij w_j (t_i - s_j) = R[:, :3] - t * R[:, 3]`` with
    ``R = f [w S | w]``.

    Over the trailing ``(m, k)`` axes of ``f`` (2-D blocks, their
    transposed views, or stacks): one BLAS product per call against
    the ``(k, 4)`` factor, run as ``([w S | w]^T f^T)^T`` -- a ``(4, k)
    x (k, m)`` GEMM, which reads ``f`` once and writes no ``(m, k)``
    array (and under OpenBLAS runs faster than ``f [w S | w]``).
    """
    bt = np.empty(  # [w S | w]^T
        sources.shape[:-2] + (4, sources.shape[-2]),
        dtype=np.result_type(w, sources),
    )
    np.multiply(w[..., None, :], sources.swapaxes(-1, -2), out=bt[..., :3, :])
    bt[..., 3, :] = w
    rt = bt @ f.swapaxes(-1, -2)  # R^T
    force_t = rt[..., :3, :] - targets.swapaxes(-1, -2) * rt[..., 3:, :]
    return force_t.swapaxes(-1, -2)
