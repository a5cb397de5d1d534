"""Unit and property tests for repro.kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import (
    CoulombKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    ThinPlateKernel,
    YukawaKernel,
    available_kernels,
    get_kernel,
    register_kernel,
)
from repro.kernels.base import RadialKernel

ALL_KERNELS = [
    CoulombKernel(),
    YukawaKernel(kappa=0.5),
    GaussianKernel(sigma=0.7),
    InverseMultiquadricKernel(c=0.3),
    ThinPlateKernel(),
]


def _points(rng, n):
    return rng.uniform(-1, 1, size=(n, 3))


class TestCoulomb:
    def test_known_value(self):
        k = CoulombKernel()
        g = k.pairwise(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]]))
        assert g[0, 0] == pytest.approx(1.0 / 5.0)

    def test_self_interaction_zero(self):
        k = CoulombKernel()
        x = np.array([[1.0, 2.0, 3.0]])
        assert k.pairwise(x, x)[0, 0] == 0.0

    def test_symmetry(self, rng):
        k = CoulombKernel()
        a, b = _points(rng, 8), _points(rng, 8)
        assert np.allclose(k.pairwise(a, b), k.pairwise(b, a).T)


class TestYukawa:
    def test_reduces_to_coulomb_at_kappa_zero(self, rng):
        a, b = _points(rng, 6), _points(rng, 9)
        y = YukawaKernel(kappa=0.0).pairwise(a, b)
        c = CoulombKernel().pairwise(a, b)
        assert np.allclose(y, c)

    def test_screening_decreases_potential(self, rng):
        a, b = _points(rng, 6), _points(rng, 9)
        y = YukawaKernel(kappa=0.5).pairwise(a, b)
        c = CoulombKernel().pairwise(a, b)
        assert np.all(y <= c + 1e-15)

    def test_known_value(self):
        k = YukawaKernel(kappa=0.5)
        g = k.pairwise(np.zeros((1, 3)), np.array([[2.0, 0.0, 0.0]]))
        assert g[0, 0] == pytest.approx(np.exp(-1.0) / 2.0)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            YukawaKernel(kappa=-1.0)


class TestSmoothKernels:
    def test_imq_origin_value(self):
        k = InverseMultiquadricKernel(c=0.25)
        x = np.zeros((1, 3))
        assert k.pairwise(x, x)[0, 0] == pytest.approx(4.0)

    def test_gaussian_origin_is_one(self):
        k = GaussianKernel(sigma=0.5)
        x = np.ones((1, 3))
        assert k.pairwise(x, x)[0, 0] == pytest.approx(1.0)

    def test_thin_plate_origin_zero(self):
        k = ThinPlateKernel()
        x = np.ones((1, 3))
        assert k.pairwise(x, x)[0, 0] == 0.0

    def test_invalid_shape_params(self):
        with pytest.raises(ValueError):
            InverseMultiquadricKernel(c=0.0)
        with pytest.raises(ValueError):
            GaussianKernel(sigma=-1.0)


class TestPotential:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_matches_dense_matvec(self, kernel, rng):
        t, s = _points(rng, 23), _points(rng, 37)
        q = rng.normal(size=37)
        dense = kernel.pairwise(t, s) @ q
        assert np.allclose(kernel.potential(t, s, q), dense)

    def test_blocked_equals_unblocked(self, rng):
        k = CoulombKernel()
        t, s = _points(rng, 50), _points(rng, 40)
        q = rng.normal(size=40)
        full = k.potential(t, s, q)
        blocked = k.potential(t, s, q, block_elements=64)
        assert np.allclose(full, blocked)

    def test_accumulates_into_out(self, rng):
        k = CoulombKernel()
        t, s = _points(rng, 5), _points(rng, 6)
        q = rng.normal(size=6)
        out = np.ones(5)
        k.potential(t, s, q, out=out)
        assert np.allclose(out, 1.0 + k.pairwise(t, s) @ q)

    def test_empty_sources(self):
        k = CoulombKernel()
        out = k.potential(np.zeros((3, 3)), np.zeros((0, 3)), np.zeros(0))
        assert np.array_equal(out, np.zeros(3))

    def test_mismatched_charges(self, rng):
        k = CoulombKernel()
        with pytest.raises(ValueError):
            k.potential(_points(rng, 2), _points(rng, 3), np.zeros(2))


class TestMixedDtypePromotion:
    """The allocated accumulator must promote over ALL three operands.

    Regression test for the bug where ``out`` used
    ``result_type(targets, charges)`` only: float64 sources with float32
    targets/charges produced float64 pairwise blocks that were silently
    downcast on the ``+=``.
    """

    def test_float64_sources_promote_potential(self, rng):
        k = CoulombKernel()
        t32 = _points(rng, 12).astype(np.float32)
        s64 = _points(rng, 17)
        q32 = rng.normal(size=17).astype(np.float32)
        out = k.potential(t32, s64, q32)
        assert out.dtype == np.float64
        # The promoted accumulator must carry the float64 pairwise block
        # unchanged (the bug truncated exactly this product to float32).
        assert np.array_equal(out, k.pairwise(t32, s64) @ q32)

    def test_float64_sources_promote_force(self, rng):
        k = CoulombKernel()
        t64, s64 = _points(rng, 12), _points(rng, 17)
        q64 = rng.normal(size=17)
        out = k.force(t64.astype(np.float32), s64, q64.astype(np.float32))
        assert out.dtype == np.float64

    def test_all_float32_stays_float32(self, rng):
        k = CoulombKernel()
        t = _points(rng, 8).astype(np.float32)
        s = _points(rng, 9).astype(np.float32)
        q = rng.normal(size=9).astype(np.float32)
        assert k.potential(t, s, q).dtype == np.float32
        assert k.force(t, s, q).dtype == np.float32


class TestScalarFunctions:
    """Scalar forms consumed by the numba backend match the array forms."""

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_scalar_matches_vectorized(self, kernel, rng):
        r = np.abs(rng.normal(size=64)) + 0.05
        eval_r, eval_dr = kernel.scalar_functions()
        scalar = np.array([eval_r(float(x)) for x in r])
        assert np.allclose(scalar, kernel.evaluate_r(r), rtol=1e-13)
        if eval_dr is not None:
            scalar_dr = np.array([eval_dr(float(x)) for x in r])
            assert np.allclose(
                scalar_dr, kernel.evaluate_dr_over_r(r), rtol=1e-13
            )


class TestCostModel:
    def test_coulomb_multiplier_is_one(self):
        assert CoulombKernel().cost_multiplier(0.8) == 1.0

    def test_yukawa_cpu_vs_gpu_ratio(self):
        """Paper Sec. 4: Yukawa ~1.8x on CPU, ~1.5x on GPU vs Coulomb."""
        y = YukawaKernel()
        assert y.cost_multiplier(0.8) == pytest.approx(1.8)
        assert y.cost_multiplier(0.5) == pytest.approx(1.5)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_kernels()
        assert "coulomb" in names and "yukawa" in names

    def test_get_with_kwargs(self):
        k = get_kernel("yukawa", kappa=1.25)
        assert k.kappa == 1.25

    def test_case_insensitive(self):
        assert get_kernel("Coulomb").name == "coulomb"

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("nope")

    def test_user_registration(self):
        class MyKernel(RadialKernel):
            name = "r-squared"
            singular_at_origin = False

            def evaluate_r(self, r):
                return r * r

            def evaluate_r0(self):
                return 0.0

        register_kernel("r-squared", MyKernel)
        assert "r-squared" in available_kernels()
        k = get_kernel("r-squared")
        g = k.pairwise(np.zeros((1, 3)), np.array([[0.0, 2.0, 0.0]]))
        assert g[0, 0] == pytest.approx(4.0)


coords = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        t=hnp.arrays(np.float64, (4, 3), elements=coords),
        s=hnp.arrays(np.float64, (5, 3), elements=coords),
    )
    def test_coulomb_positive_and_symmetric(self, t, s):
        g = CoulombKernel().pairwise(t, s)
        assert np.all(g >= 0.0)
        assert np.all(np.isfinite(g))
        gt = CoulombKernel().pairwise(s, t)
        assert np.allclose(g, gt.T)

    @settings(max_examples=30, deadline=None)
    @given(
        t=hnp.arrays(np.float64, (3, 3), elements=coords),
        s=hnp.arrays(np.float64, (6, 3), elements=coords),
        kappa=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_yukawa_bounded_by_coulomb(self, t, s, kappa):
        y = YukawaKernel(kappa=kappa).pairwise(t, s)
        c = CoulombKernel().pairwise(t, s)
        assert np.all(y <= c * (1 + 1e-12) + 1e-300)

    @settings(max_examples=30, deadline=None)
    @given(
        t=hnp.arrays(np.float64, (4, 3), elements=coords),
        s=hnp.arrays(np.float64, (4, 3), elements=coords),
        q1=hnp.arrays(np.float64, (4,), elements=st.floats(-2, 2)),
        q2=hnp.arrays(np.float64, (4,), elements=st.floats(-2, 2)),
    )
    def test_potential_linear_in_charges(self, t, s, q1, q2):
        k = CoulombKernel()
        lhs = k.potential(t, s, q1 + q2)
        rhs = k.potential(t, s, q1) + k.potential(t, s, q2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        t=hnp.arrays(np.float64, (7, 3), elements=coords),
        s=hnp.arrays(np.float64, (6, 3), elements=coords),
        q=hnp.arrays(np.float64, (6,), elements=st.floats(-2, 2)),
        dup=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 5)), max_size=5
        ),
        fused=st.booleans(),
        rows_per_block=st.integers(1, 8),
        kernel=st.sampled_from(
            [CoulombKernel(), YukawaKernel(kappa=0.5), GaussianKernel(0.7)]
        ),
    )
    # r^2 = 1.8e-295 sits above the noise floor, so no pair is flagged,
    # -1/r^3 overflows and both paths return the same NaN forces: the
    # claim is "supplied == scanned", and NaN must compare equal to NaN.
    @example(
        t=np.zeros((7, 3)),
        s=np.full((6, 3), 2.48e-148),
        q=np.array([1.0, -1.0] * 3),
        dup=[],
        fused=False,
        rows_per_block=1,
        kernel=CoulombKernel(),
    )
    def test_supplied_coincident_indices_equal_the_scan(
        self, t, s, q, dup, fused, rows_per_block, kernel
    ):
        # Injected duplicates: target i sits exactly on source j.
        for i, j in dup:
            t[i] = s[j]
        blocks = dict(block_elements=rows_per_block * len(s))
        scanned = (
            kernel.potential(t, s, q, fused=fused, **blocks),
            kernel.force(t, s, q, fused=fused, **blocks),
        )
        found: dict = {}
        for _ in range(2):  # the first call records, the second is handed
            recorded = {key: idx.copy() for key, idx in found.items()}
            supplied = (
                kernel.potential(
                    t, s, q, fused=fused, coincident=found, **blocks
                ),
                kernel.force(
                    t, s, q, fused=fused, coincident=found, **blocks
                ),
            )
            np.testing.assert_array_equal(supplied[0], scanned[0])
            np.testing.assert_array_equal(supplied[1], scanned[1])
        assert recorded.keys() == found.keys()
        assert all(np.array_equal(recorded[k], found[k]) for k in found)
        # every moved target row coincides with at least one source
        assert sum(idx.size for idx in found.values()) >= len(
            {i for i, _ in dup}
        )

        # the stacked primitives: one stack, one entry, shared
        ts, ss = np.stack([t, t[::-1]]), np.stack([s, s])
        w = np.stack([q, -q])
        mat = kernel.pairwise_batched(ts, ss)
        frc = kernel.force_batched(ts, ss, w)
        slot: dict = {}
        for _ in range(2):
            np.testing.assert_array_equal(
                kernel.pairwise_batched(ts, ss, slot), mat
            )
            np.testing.assert_array_equal(
                kernel.force_batched(ts, ss, w, slot), frc
            )
        assert list(slot) == [(0, 2)]
