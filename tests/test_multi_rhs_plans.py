"""Multi-RHS plan execution: many charge vectors per traversal.

Contracts under test:

* column ``j`` of a blocked ``apply(charges)`` with ``charges`` of
  shape ``(N, n_rhs)`` is **bitwise equal** to a solo
  ``apply(charges[:, j])`` -- on every executing backend, both dtypes,
  potentials and forces, for the single-device session, the distributed
  session and both extension schemes;
* the plan's weight slots widen to ``(k, n_rhs)`` and narrow back,
  rebinding the batched layout's bucket weights, and the
  multiprocessing backend's pool shards follow every width change;
* kernels promote dtypes on the matrix path exactly as on the vector
  path (float32 geometry x float64 charge columns -> float64 output);
* malformed charge blocks fail fast with a clear ``ValueError`` instead
  of deep inside ``refresh_weights``;
* moments and the model backend (``dry_run``) honor the trailing RHS
  axis.
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    ClusterParticleTreecode,
    CoulombKernel,
    DistributedBLTC,
    DualTreeTreecode,
    TreecodeParams,
    random_cube,
)
from repro.core.backends import multiproc
from repro.core.moments import refresh_moments
from repro.util import as_charge_block

EXEC_BACKENDS = ["numpy", "per-group", "stacked", "multiprocessing"]

N = 900
N_RHS = 3


def _params(**kw):
    base = dict(theta=0.7, degree=3, max_leaf_size=120, max_batch_size=120)
    base.update(kw)
    return TreecodeParams(**base)


@pytest.fixture(scope="module")
def cube():
    return random_cube(N, seed=201)


@pytest.fixture(scope="module")
def charge_block(cube):
    rng = np.random.default_rng(202)
    return rng.uniform(-1.0, 1.0, (cube.n, N_RHS))


def _columns(block):
    """Contiguous column copies, as a solo caller would pass them."""
    return [np.ascontiguousarray(block[:, j]) for j in range(block.shape[1])]


# ---------------------------------------------------------------------------
# Bitwise column equality, single-device session
# ---------------------------------------------------------------------------


class TestSingleDeviceBitwise:
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_apply_matches_solo_columns(
        self, cube, charge_block, backend, dtype, use_backend
    ):
        params = _params(backend=use_backend(backend), dtype=dtype)
        tc = BarycentricTreecode(CoulombKernel(), params)
        solo = [
            tc.prepare(cube).apply(col, compute_forces=True)
            for col in _columns(charge_block)
        ]
        blocked = tc.prepare(cube).apply(charge_block, compute_forces=True)
        assert blocked.potential.shape == (cube.n, N_RHS)
        assert blocked.forces.shape == (cube.n, 3, N_RHS)
        for j in range(N_RHS):
            np.testing.assert_array_equal(
                blocked.potential[:, j], solo[j].potential
            )
            np.testing.assert_array_equal(
                blocked.forces[:, :, j], solo[j].forces
            )

    def test_compute_accepts_charge_block(self, cube, charge_block):
        tc = BarycentricTreecode(CoulombKernel(), _params(backend="fused"))
        blocked = tc.compute(cube, charges=charge_block)
        solo = tc.compute(cube, charges=np.ascontiguousarray(charge_block[:, 1]))
        assert blocked.potential.shape == (cube.n, N_RHS)
        np.testing.assert_array_equal(blocked.potential[:, 1], solo.potential)

    def test_single_column_block_keeps_trailing_axis(self, cube, charge_block):
        """(N, 1) input is a block, not a vector: output stays 2-D."""
        tc = BarycentricTreecode(CoulombKernel(), _params(backend="numpy"))
        prep = tc.prepare(cube)
        one = prep.apply(charge_block[:, :1])
        assert one.potential.shape == (cube.n, 1)
        vec = tc.prepare(cube).apply(np.ascontiguousarray(charge_block[:, 0]))
        assert vec.potential.shape == (cube.n,)
        np.testing.assert_array_equal(one.potential[:, 0], vec.potential)


# ---------------------------------------------------------------------------
# Distributed + extension sessions
# ---------------------------------------------------------------------------


class TestOtherSessionsBitwise:
    @pytest.mark.parametrize("backend", ["numpy", "per-group", "stacked"])
    def test_distributed(self, cube, charge_block, backend, use_backend):
        d = DistributedBLTC(
            CoulombKernel(), n_ranks=3,
            params=_params(backend=use_backend(backend)),
        )
        solo = [
            d.prepare(cube).apply(col, compute_forces=True)
            for col in _columns(charge_block)
        ]
        blocked = d.prepare(cube).apply(charge_block, compute_forces=True)
        assert blocked.potential.shape == (cube.n, N_RHS)
        assert blocked.forces.shape == (cube.n, 3, N_RHS)
        for j in range(N_RHS):
            np.testing.assert_array_equal(
                blocked.potential[:, j], solo[j].potential
            )
            np.testing.assert_array_equal(
                blocked.forces[:, :, j], solo[j].forces
            )

    @pytest.mark.parametrize(
        "scheme", [ClusterParticleTreecode, DualTreeTreecode]
    )
    @pytest.mark.parametrize("backend", ["numpy", "per-group", "stacked"])
    def test_extension_schemes(
        self, cube, charge_block, scheme, backend, use_backend
    ):
        d = scheme(CoulombKernel(), _params(backend=use_backend(backend)))
        solo = [d.prepare(cube).apply(col) for col in _columns(charge_block)]
        blocked = d.prepare(cube).apply(charge_block)
        assert blocked.potential.shape == (cube.n, N_RHS)
        for j in range(N_RHS):
            np.testing.assert_array_equal(
                blocked.potential[:, j], solo[j].potential
            )


# ---------------------------------------------------------------------------
# Weight-state transitions: 1 -> k -> 1 on one prepared session
# ---------------------------------------------------------------------------


class TestWeightStateTransitions:
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_width_toggle_stays_bitwise(
        self, cube, charge_block, backend, monkeypatch, use_backend
    ):
        # The pool shards even this small plan, so each width change
        # reaches the workers.
        monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)
        tc = BarycentricTreecode(
            CoulombKernel(), _params(backend=use_backend(backend))
        )
        col0 = np.ascontiguousarray(charge_block[:, 0])
        ref_vec = tc.prepare(cube).apply(col0)
        ref_blk = tc.prepare(cube).apply(charge_block)

        prep = tc.prepare(cube)
        first = prep.apply(col0)
        assert prep.plan.src_weights.ndim == 1
        assert prep.plan.rhs_width is None

        blocked = prep.apply(charge_block)
        assert prep.plan.src_weights.shape[1] == N_RHS
        assert prep.plan.rhs_width == N_RHS

        back = prep.apply(col0)
        assert prep.plan.src_weights.ndim == 1

        np.testing.assert_array_equal(first.potential, ref_vec.potential)
        np.testing.assert_array_equal(back.potential, ref_vec.potential)
        np.testing.assert_array_equal(blocked.potential, ref_blk.potential)

    def test_batched_buckets_rebind_weight_views(
        self, cube, charge_block, use_backend
    ):
        tc = BarycentricTreecode(
            CoulombKernel(), _params(backend=use_backend("stacked"))
        )
        prep = tc.prepare(cube)
        prep.apply(np.ascontiguousarray(charge_block[:, 0]))
        layout = prep.plan.ensure_batched_layout()
        if not layout.buckets:
            pytest.skip("no batched buckets at this problem size")
        assert all(b.weights.ndim == 2 for b in layout.buckets)
        prep.apply(charge_block)
        assert all(b.weights.ndim == 3 for b in layout.buckets)
        for b in layout.buckets:
            expect = prep.plan.src_weights[b.src_index]
            if b.src_valid is not None:
                # Padded buckets: pad columns stay exactly zero in
                # every RHS column across the width change.
                expect = np.where(b.src_valid[..., None], expect, 0.0)
            np.testing.assert_array_equal(b.weights, expect)
        prep.apply(np.ascontiguousarray(charge_block[:, 0]))
        assert all(b.weights.ndim == 2 for b in layout.buckets)

    def test_padded_near_field_16_column_block_bitwise(
        self, cube, use_backend
    ):
        # (N, 16) blocks through zero-weight-padded near-field buckets:
        # per-column bitwise vs solo applies, including a 1 -> 16 -> 1
        # width toggle that must re-zero the pad rows on every
        # re-allocation.
        params = _params(
            theta=0.6, max_leaf_size=60, max_batch_size=60,
            backend=use_backend("stacked"),
        )
        prep = BarycentricTreecode(CoulombKernel(), params).prepare(cube)
        layout = prep.plan.ensure_batched_layout()
        padded = [b for b in layout.buckets if b.src_valid is not None]
        assert padded, "regime must produce padded near-field buckets"
        rng = np.random.default_rng(77)
        block = rng.uniform(-1.0, 1.0, (N, 16))
        solos = [
            prep.apply(np.ascontiguousarray(block[:, j])).potential
            for j in range(16)
        ]
        blocked = prep.apply(block)
        for j in range(16):
            np.testing.assert_array_equal(blocked.potential[:, j], solos[j])
        for b in padded:
            assert b.weights.ndim == 3
            assert np.all(b.weights[~b.src_valid] == 0.0)
        back = prep.apply(np.ascontiguousarray(block[:, 0]))
        np.testing.assert_array_equal(back.potential, solos[0])
        for b in padded:
            assert b.weights.ndim == 2
            assert np.all(b.weights[~b.src_valid] == 0.0)


# ---------------------------------------------------------------------------
# Dtype promotion on the matrix path (satellite: result_type regression)
# ---------------------------------------------------------------------------


class TestDtypePromotion:
    def test_kernel_matrix_path_promotes_like_vector_path(self):
        rng = np.random.default_rng(7)
        k = CoulombKernel()
        tgt = rng.standard_normal((40, 3)).astype(np.float32)
        src = rng.standard_normal((60, 3)).astype(np.float32) + 2.5
        q = rng.standard_normal((60, 2))  # float64 columns
        pot = k.potential(tgt, src, q)
        frc = k.force(tgt, src, q)
        assert pot.dtype == np.float64
        assert frc.dtype == np.float64
        assert pot.shape == (40, 2)
        assert frc.shape == (40, 3, 2)
        for j in range(2):
            np.testing.assert_array_equal(
                pot[:, j], k.potential(tgt, src, np.ascontiguousarray(q[:, j]))
            )
            np.testing.assert_array_equal(
                frc[:, :, j], k.force(tgt, src, np.ascontiguousarray(q[:, j]))
            )

    def test_float32_session_with_block(self, cube, charge_block):
        params = _params(backend="fused", dtype=np.float32)
        tc = BarycentricTreecode(CoulombKernel(), params)
        blocked = tc.prepare(cube).apply(charge_block)
        assert blocked.potential.shape == (cube.n, N_RHS)
        assert np.isfinite(blocked.potential).all()


# ---------------------------------------------------------------------------
# Early validation (satellite: clear errors instead of deep failures)
# ---------------------------------------------------------------------------


class TestValidation:
    def test_as_charge_block_contracts(self):
        as_charge_block(np.ones(5), 5)
        as_charge_block(np.ones((5, 2)), 5)
        with pytest.raises(ValueError, match="leading dimension"):
            as_charge_block(np.ones(4), 5)
        with pytest.raises(ValueError, match="leading dimension"):
            as_charge_block(np.ones((4, 2)), 5)
        with pytest.raises(ValueError, match="3-D"):
            as_charge_block(np.ones((5, 2, 2)), 5)
        with pytest.raises(ValueError, match="at least one"):
            as_charge_block(np.ones((5, 0)), 5)
        with pytest.raises(ValueError, match="finite"):
            as_charge_block(np.array([1.0, np.nan, 0.0]), 3)

    def test_session_applies_reject_bad_blocks(self, cube):
        params = _params(backend="fused")
        prep = BarycentricTreecode(CoulombKernel(), params).prepare(cube)
        with pytest.raises(ValueError, match="leading dimension"):
            prep.apply(np.ones((cube.n - 1, 2)))
        with pytest.raises(ValueError, match="n_rhs"):
            prep.apply(np.ones((cube.n, 2, 2)))

        dprep = DistributedBLTC(
            CoulombKernel(), n_ranks=2, params=params
        ).prepare(cube)
        with pytest.raises(ValueError, match="leading dimension"):
            dprep.apply(np.ones((cube.n + 1, 2)))

        for scheme in (ClusterParticleTreecode, DualTreeTreecode):
            eprep = scheme(CoulombKernel(), params).prepare(cube)
            with pytest.raises(ValueError, match="n_rhs"):
                eprep.apply(np.ones((cube.n, 1, 1)))


# ---------------------------------------------------------------------------
# Moments, dry runs
# ---------------------------------------------------------------------------


class TestInnerLayers:
    def test_refresh_moments_block_matches_columns(self, cube, charge_block):
        params = _params()
        tc = BarycentricTreecode(CoulombKernel(), params)
        prep = tc.prepare(cube)
        solo_qhat = []
        for col in _columns(charge_block):
            refresh_moments(
                prep.moments, prep.tree, col, params,
                device=prep.device, numerics=True,
            )
            solo_qhat.append(
                {c: prep.moments.charges(c).copy() for c in prep.moments.qhat}
            )
        refresh_moments(
            prep.moments, prep.tree, charge_block, params,
            device=prep.device, numerics=True,
        )
        for c in prep.moments.qhat:
            blocked = prep.moments.charges(c)
            assert blocked.shape[1] == N_RHS
            for j in range(N_RHS):
                np.testing.assert_array_equal(blocked[:, j], solo_qhat[j][c])

    def test_dry_run_block_shapes_and_charging(self, cube, charge_block):
        tc = BarycentricTreecode(CoulombKernel(), _params(backend="fused"))
        vec = tc.prepare(cube).apply(
            np.ascontiguousarray(charge_block[:, 0]),
            compute_forces=True, dry_run=True,
        )
        blk = tc.prepare(cube).apply(
            charge_block, compute_forces=True, dry_run=True
        )
        assert blk.potential.shape == (cube.n, N_RHS)
        assert blk.forces.shape == (cube.n, 3, N_RHS)
        assert not blk.potential.any()
        # the model backend charges n_rhs-scaled interactions on the
        # plan's kinds, with identical launch counts (block counts do
        # not depend on the RHS width)
        for kind in ("direct", "approx", "direct-force", "approx-force"):
            v_launches, v_inter = vec.stats["by_kind"][kind]
            b_launches, b_inter = blk.stats["by_kind"][kind]
            assert b_launches == v_launches
            assert b_inter == v_inter * N_RHS
