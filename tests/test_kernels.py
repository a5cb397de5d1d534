"""Unit and property tests for repro.kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.coincidence import neighbour_pairs
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
from repro.kernels.base import DEFAULT_BLOCK_ELEMENTS, Kernel, RadialKernel

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


class TestNonFiniteParameters:
    """The sign checks alone let NaN through (every potential came back
    NaN) and took ``kappa=inf`` (every Yukawa potential zero): a
    non-finite shape parameter is refused, directly and by name."""

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "name, cls, param",
        [
            ("yukawa", YukawaKernel, "kappa"),
            ("inverse-multiquadric", InverseMultiquadricKernel, "c"),
            ("gaussian", GaussianKernel, "sigma"),
        ],
        ids=["yukawa", "inverse-multiquadric", "gaussian"],
    )
    def test_rejected(self, name, cls, param, value):
        with pytest.raises(ValueError, match="finite"):
            cls(**{param: float(value)})
        with pytest.raises(ValueError, match="finite"):
            get_kernel(name, **{param: float(value)})


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


class TestDomain:
    """The ``RadialKernel`` domain: finite results while every
    non-coincident separation stays 10x above
    ``finfo(dtype).tiny ** (1/3)``.  Checked at 100x that edge on a
    geometry whose whole extent is that small, so no pair hides under
    the relative noise floor (the pinned ``@example`` in
    ``TestProperties`` is the out-of-domain case)."""

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32], ids=["f64", "f32"]
    )
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_finite_above_domain_edge(self, kernel, dtype):
        d = 100.0 * float(np.finfo(dtype).tiny) ** (1.0 / 3.0)
        # Target 0 sits on source 0; every other pair is >= d apart.
        t = (d * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]])).astype(dtype)
        s = (
            d * np.array([[0, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
        ).astype(dtype)
        w = np.array([1.0, -1.0, 0.5, 2.0], dtype=dtype)
        ref = kernel.pairwise(t, s)
        fused = kernel.pairwise_fused(t, s)
        assert np.isfinite(ref).all() and np.isfinite(fused).all()
        assert ref[0, 0] == fused[0, 0] == dtype(kernel.evaluate_r0())
        np.testing.assert_allclose(fused, ref, rtol=1e-5)
        if not isinstance(kernel, ThinPlateKernel):  # potential-only
            for phi, force in (
                _stacked_with_forces(kernel, t[None], s[None], w[None]),
                _with_forces(kernel, t, s, w, fused=True),
            ):
                assert np.isfinite(phi).all() and np.isfinite(force).all()


GEOMETRIES = ("random", "coincident", "domain-edge")
DTYPES = pytest.mark.parametrize(
    "dtype", [np.float64, np.float32], ids=["f64", "f32"]
)


def _geometry(kind, dtype, rng):
    """Targets, sources and charges of one block.

    ``coincident`` puts targets exactly on sources (and two sources on
    each other); ``domain-edge`` is a lattice whose spacing is 100x the
    ``RadialKernel`` domain edge ``finfo(dtype).tiny ** (1/3)``, with
    one target on a source.
    """
    if kind == "domain-edge":
        d = 100.0 * float(np.finfo(dtype).tiny) ** (1.0 / 3.0)
        lattice = np.array(np.meshgrid(*[np.arange(3.0)] * 3)).reshape(3, -1).T
        s = d * lattice[::2]
        t = d * np.concatenate([lattice[1::5], lattice[:1]])
    else:
        t, s = _points(rng, 23), _points(rng, 37)
        if kind == "coincident":
            t[:6] = s[10:16]
            s[3] = s[4]
    q = rng.normal(size=len(s))
    return t.astype(dtype), s.astype(dtype), q.astype(dtype)


def _assert_forces_close(got, want, dtype):
    """rtol 1e-12 in float64, TestDomain's 1e-5 in float32, with the
    same tolerance times the largest force as the absolute floor: a
    component summed to near zero cancels, and the factored contraction
    reassociates that sum."""
    tol = 1e-12 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(
        got, want, rtol=tol, atol=tol * float(np.abs(want).max())
    )


def _with_forces(kernel, t, s, q, **kw):
    """The per-block driver with a forces accumulator: ``(phi, F)``."""
    frc = np.zeros((len(t), 3) + q.shape[1:], dtype=np.result_type(t, s, q))
    return kernel.potential(t, s, q, forces=frc, **kw), frc


def _stacked_with_forces(kernel, ts, ss, w, *args, **kw):
    """The stacked driver with a forces accumulator: ``(phi, F)``."""
    frc = np.zeros(ts.shape + w.shape[2:], dtype=np.result_type(ts, ss, w))
    return kernel.potential_batched(ts, ss, w, *args, forces=frc, **kw), frc


def _tensor_force(kernel, t, s, q, fused):
    """Forces contracted from the whole ``(M, K, 3)`` gradient tensor:
    the reference :meth:`force`, or on the fused r^2 the tensor of
    ``pairwise_gradient_fused`` (the same r^2 arithmetic as the fused
    drivers, so float32's r^2 cancellation does not swamp the check)."""
    if not fused:
        return kernel.force(t, s, q)
    return -np.einsum("mkd,k->md", kernel.pairwise_gradient_fused(t, s), q)


class AnisotropicCoulomb(Kernel):
    """``1 / |D (x - y)|`` with diagonal ``D``: a generic kernel that is
    genuinely not radial, so every backend evaluates it through
    :meth:`Kernel.potential` on its :meth:`pairwise` and
    :meth:`pairwise_gradient` blocks (coincident pairs contribute
    zero)."""

    name = "anisotropic-coulomb"
    symmetric = False

    def __init__(self, scales=(1.0, 0.6, 1.5)):
        self.scales = np.asarray(scales)

    def _scaled_diff(self, targets, sources):
        t, s = np.atleast_2d(targets), np.atleast_2d(sources)
        return (t[:, None, :] - s[None, :, :]) * self.scales

    def pairwise(self, targets, sources):
        diff = self._scaled_diff(targets, sources)
        r = np.sqrt(np.einsum("mkd,mkd->mk", diff, diff))
        return np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)

    def pairwise_gradient(self, targets, sources):
        # grad_x |D (x - y)|^-1 = -D^2 (x - y) / |D (x - y)|^3
        diff = self._scaled_diff(targets, sources)
        r2 = np.einsum("mkd,mkd->mk", diff, diff)
        inv3 = np.divide(
            1.0, r2 * np.sqrt(r2), out=np.zeros_like(r2), where=r2 > 0
        )
        return -(diff * self.scales) * inv3[..., None]


def _assert_swapped_close(got, want):
    """The mirror against the role-swapped call: the same pairs summed
    in another order (and, fused, r^2's three terms too)."""
    np.testing.assert_allclose(
        got, want, rtol=1e-10, atol=1e-10 * float(np.abs(want).max())
    )


class TestOneDriver:
    """The two drivers -- ``potential`` per row block,
    ``potential_batched`` per stack -- with forces on and off:
    potentials bitwise the same, forces to roundoff of the gradient
    tensor's contraction, the mirror equal to the call with the roles
    swapped."""

    @DTYPES
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
    def test_forces_leave_potentials_bitwise(
        self, kernel, geometry, dtype, rng
    ):
        t, s, q = _geometry(geometry, dtype, rng)
        ts, ss = np.stack([t, t[::-1]]), np.stack([s, s])
        w = np.stack([q, -q])
        if isinstance(kernel, ThinPlateKernel):  # potential-only
            for call in (
                lambda: kernel.force(t, s, q),
                lambda: _with_forces(kernel, t, s, q),
                lambda: _stacked_with_forces(kernel, ts, ss, w),
            ):
                with pytest.raises(NotImplementedError):
                    call()
            return
        # One row block, and several: the row blocks never depend on
        # forces, which is what keeps the GEMVs bitwise.
        for fused in (False, True):
            for b in (DEFAULT_BLOCK_ELEMENTS, 5 * len(s)):
                kw = dict(fused=fused, block_elements=b)
                phi, frc = _with_forces(kernel, t, s, q, **kw)
                assert np.array_equal(phi, kernel.potential(t, s, q, **kw))
                _assert_forces_close(
                    frc, _tensor_force(kernel, t, s, q, fused), dtype
                )
        phi, frc = _stacked_with_forces(kernel, ts, ss, w)
        assert np.array_equal(phi, kernel.potential_batched(ts, ss, w))
        for b in range(2):
            _assert_forces_close(
                frc[b], _tensor_force(kernel, ts[b], ss[b], w[b], True),
                dtype,
            )

    @pytest.mark.parametrize("kernel", ALL_KERNELS[:4], ids=lambda k: k.name)
    def test_radial_factors_share_evaluate_r(self, kernel, rng):
        r = rng.uniform(1e-3, 3.0, size=(40, 50))
        g0, none = kernel.evaluate_radial(r, want_grad=False)
        g, f = kernel.evaluate_radial(r, want_grad=True)
        assert none is None
        assert np.array_equal(g0, kernel.evaluate_r(r))
        assert np.array_equal(g, g0)
        np.testing.assert_allclose(f, kernel.evaluate_dr_over_r(r), rtol=1e-14)
        buffers = (np.empty_like(r), np.empty_like(r))
        into = kernel.evaluate_radial(r, want_grad=True, out=buffers)
        assert np.array_equal(into[0], g) and np.array_equal(into[1], f)
        for factor in (g0, g, f, *into):
            assert not np.may_share_memory(factor, r)

    @pytest.mark.parametrize("n_rhs", [1, 3])
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS[:4] + [AnisotropicCoulomb()],
        ids=lambda k: k.name,
    )
    def test_mirror_is_the_swapped_call(self, kernel, fused, n_rhs, rng):
        """What the trailing sources receive through ``mirror`` is the
        driver called with the roles swapped: targets ``sources[col0:]``,
        sources the targets, charges ``charges_t``."""
        t, s, _ = _geometry("coincident", np.float64, rng)
        col0 = 7  # the trailing sources include the ones on targets
        rhs = () if n_rhs == 1 else (n_rhs,)
        q = rng.normal(size=(len(s),) + rhs)
        q_t = rng.normal(size=(len(t),) + rhs)
        kw = dict(fused=fused, block_elements=8 * len(s))
        out_t = np.zeros((len(s) - col0,) + rhs)
        f_t = np.zeros((len(s) - col0, 3) + rhs)
        phi, frc = _with_forces(
            kernel, t, s, q, mirror=(col0, q_t, out_t, f_t), **kw
        )
        want_phi, want_frc = _with_forces(kernel, s[col0:], t, q_t, **kw)
        _assert_swapped_close(out_t, want_phi)
        _assert_swapped_close(f_t, want_frc)
        # Bitwise: the block's own side ignores the mirror, and forces
        # change neither side's potentials.
        alone = _with_forces(kernel, t, s, q, **kw)
        assert np.array_equal(phi, alone[0]) and np.array_equal(frc, alone[1])
        off_t = np.zeros_like(out_t)
        off = kernel.potential(t, s, q, mirror=(col0, q_t, off_t, None), **kw)
        assert np.array_equal(off, phi) and np.array_equal(off_t, out_t)

    @DTYPES
    @pytest.mark.parametrize("forces", [False, True], ids=["phi", "forces"])
    @pytest.mark.parametrize("kernel", ALL_KERNELS[:4], ids=lambda k: k.name)
    def test_column_is_the_solo_call(self, kernel, forces, dtype, rng):
        t, s, _ = _geometry("coincident", dtype, rng)
        col0 = 7
        charges = rng.normal(size=(len(s), 4)).astype(dtype)
        q_t = rng.normal(size=(len(t), 4)).astype(dtype)
        ts, ss = np.stack([t, t[::-1]]), np.stack([s, s])
        w = np.stack([charges, -charges])

        def zeros_if(on, shape):
            return np.zeros(shape, dtype=dtype) if on else None

        def per_block(q, qt):
            rhs = q.shape[1:]
            out_t = np.zeros((len(s) - col0,) + rhs, dtype=dtype)
            f_t = zeros_if(forces, (len(s) - col0, 3) + rhs)
            frc = zeros_if(forces, (len(t), 3) + rhs)
            phi = kernel.potential(
                t, s, q, forces=frc, fused=dtype == np.float64,
                block_elements=8 * len(s), mirror=(col0, qt, out_t, f_t),
            )
            return phi, frc, out_t, f_t

        def stacked(wj):
            frc = zeros_if(forces, ts.shape + wj.shape[2:])
            return kernel.potential_batched(ts, ss, wj, forces=frc), frc

        wide, wide_stacked = per_block(charges, q_t), stacked(w)
        for j in range(charges.shape[1]):
            solo = per_block(
                np.ascontiguousarray(charges[:, j]),
                np.ascontiguousarray(q_t[:, j]),
            )
            solo_stacked = stacked(np.ascontiguousarray(w[..., j]))
            for got, want in zip(
                wide + wide_stacked, solo + solo_stacked
            ):
                assert got is want is None or np.array_equal(got[..., j], want)


class TestGenericKernel:
    """A kernel that is not radial runs the same driver on its
    ``pairwise`` / ``pairwise_gradient`` blocks, with no fused or
    stacked arithmetic."""

    def test_driver_matches_the_dense_reference(self, rng):
        kernel = AnisotropicCoulomb()
        t, s, q = _geometry("coincident", np.float64, rng)
        dense = kernel.pairwise(t, s)
        assert dense[0, 10] == 0.0 and np.isfinite(dense).all()
        assert not hasattr(kernel, "potential_batched")
        ref = kernel.potential(t, s, q, block_elements=5 * len(s))
        np.testing.assert_allclose(ref, dense @ q, rtol=1e-13)
        for fused in (False, True):  # nothing fused to opt into
            phi, frc = _with_forces(
                kernel, t, s, q, fused=fused, block_elements=5 * len(s)
            )
            assert np.array_equal(phi, ref)
            _assert_forces_close(frc, kernel.force(t, s, q), np.float64)
        # The analytic gradient against central differences of G.
        h = 1e-6
        for d in range(3):
            step = np.zeros(3)
            step[d] = h
            fd = (kernel.pairwise(t[6:] + step, s) - kernel.pairwise(
                t[6:] - step, s
            )) / (2 * h)
            np.testing.assert_allclose(
                kernel.pairwise_gradient(t[6:], s)[..., d], fd,
                rtol=1e-5, atol=1e-6,
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
            *_with_forces(kernel, t, s, q, fused=fused, **blocks),
        )
        # A plan's candidates (the neighbour pass) and the trivial
        # superset, every entry: each row block keeps the scan's entries.
        ti, si = neighbour_pairs(t, s)
        on_top = np.argwhere((t[:, None] == s[None]).all(axis=-1))
        assert set(map(tuple, on_top.tolist())) <= set(zip(ti, si))
        for candidates in (ti * len(s) + si, np.arange(t.shape[0] * len(s))):
            supplied = (
                kernel.potential(
                    t, s, q, fused=fused, coincident=candidates, **blocks
                ),
                *_with_forces(
                    kernel, t, s, q, fused=fused, coincident=candidates,
                    **blocks,
                ),
            )
            for got, want in zip(supplied, scanned):
                np.testing.assert_array_equal(got, want)

        # the stacked driver: candidates over the whole stack
        ts, ss = np.stack([t, t[::-1]]), np.stack([s, s])
        w = np.stack([q, -q])
        mat = kernel.pairwise_batched(ts, ss)
        phi, frc = _stacked_with_forces(kernel, ts, ss, w)
        entry = len(t) * len(s)
        flipped = (len(t) - 1 - ti) * len(s) + si
        for candidates in (
            np.concatenate([ti * len(s) + si, entry + np.sort(flipped)]),
            np.arange(2 * entry),
        ):
            np.testing.assert_array_equal(
                kernel.pairwise_batched(ts, ss, candidates), mat
            )
            got_phi, got_frc = _stacked_with_forces(
                kernel, ts, ss, w, candidates
            )
            np.testing.assert_array_equal(got_phi, phi)
            np.testing.assert_array_equal(got_frc, frc)
