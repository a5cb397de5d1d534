"""Tests for force (gradient) evaluation -- kernels and treecode path."""

import tracemalloc

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    MultiprocessingBackend,
    ParticleSet,
    ThinPlateKernel,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)
from repro.core.backends import multiproc
from repro.core.backends.batcheval import eval_bucket
from repro.kernels.base import JOINT_LIVE_ARRAYS
from repro.kernels.workspace import Workspace

GRAD_KERNELS = [
    CoulombKernel(),
    YukawaKernel(kappa=0.5),
    InverseMultiquadricKernel(c=0.3),
    GaussianKernel(sigma=0.7),
]


def _fd_gradient(kernel, x, y, h=1e-6):
    """Central finite-difference gradient of G(x, y) w.r.t. x."""
    g = np.zeros(3)
    for d in range(3):
        xp = x.copy()
        xm = x.copy()
        xp[d] += h
        xm[d] -= h
        g[d] = (
            kernel.pairwise(xp[None], y[None])[0, 0]
            - kernel.pairwise(xm[None], y[None])[0, 0]
        ) / (2 * h)
    return g


class TestKernelGradients:
    @pytest.mark.parametrize("kernel", GRAD_KERNELS, ids=lambda k: k.name)
    def test_matches_finite_differences(self, kernel, rng):
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            y = rng.uniform(2, 3, 3)  # well separated
            analytic = kernel.pairwise_gradient(x[None], y[None])[0, 0]
            fd = _fd_gradient(kernel, x, y)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_coulomb_known_value(self):
        k = CoulombKernel()
        g = k.pairwise_gradient(
            np.array([[2.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]])
        )[0, 0]
        # grad_x (1/|x|) = -x/|x|^3 = (-1/4, 0, 0).
        assert np.allclose(g, [-0.25, 0.0, 0.0])

    def test_coincident_gradient_zero(self):
        k = CoulombKernel()
        x = np.array([[1.0, 1.0, 1.0]])
        assert np.array_equal(k.pairwise_gradient(x, x)[0, 0], np.zeros(3))

    def test_no_gradient_kernel_raises(self):
        k = ThinPlateKernel()
        with pytest.raises(NotImplementedError):
            k.pairwise_gradient(np.zeros((1, 3)), np.ones((1, 3)))

    def test_force_is_negative_gradient_sum(self, rng):
        k = CoulombKernel()
        t = rng.uniform(-1, 1, (6, 3))
        s = rng.uniform(2, 3, (9, 3))
        q = rng.normal(size=9)
        f = k.force(t, s, q)
        manual = -np.einsum("mkd,k->md", k.pairwise_gradient(t, s), q)
        assert np.allclose(f, manual)

    def test_force_blocked(self, rng):
        k = YukawaKernel(0.5)
        t = rng.uniform(-1, 1, (20, 3))
        s = rng.uniform(-1, 1, (25, 3))
        q = rng.normal(size=25)
        assert np.allclose(
            k.force(t, s, q), k.force(t, s, q, block_elements=64)
        )


#: Approximating fixture of :class:`TestTreecodeForces`: the size
#: condition ``(n+1)^3 < N_C`` needs clusters above 343 particles at
#: degree 6, so leaves hold up to 400 sources, while 50-target batches
#: keep the MAC passing.  Approximated share of the batch-cluster
#: interactions: 1082 / 2521 at degree 2, 446 / 2521 at degrees 4 and 6.
FORCE_PARAMS = dict(theta=0.7, max_leaf_size=400, max_batch_size=50)
MIN_APPROX_SHARE = {2: 0.4, 4: 0.15, 6: 0.15}
FORCE_KERNELS = [CoulombKernel(), YukawaKernel(kappa=0.5)]


class TestTreecodeForces:
    @pytest.fixture(scope="class")
    def cube(self):
        return random_cube(3000, seed=201)

    @pytest.fixture(scope="class")
    def runs(self, cube):
        """``{(kernel, degree): (forces, approximated share)}`` and each
        kernel's direct forces under ``(kernel, None)``."""
        out = {}
        for kernel in FORCE_KERNELS:
            out[kernel.name, None] = kernel.force(
                cube.positions, cube.positions, cube.charges
            )
            for n in MIN_APPROX_SHARE:
                params = TreecodeParams(degree=n, **FORCE_PARAMS)
                res = BarycentricTreecode(kernel, params).compute(
                    cube, compute_forces=True
                )
                st = res.stats
                share = st["n_approx_interactions"] / (
                    st["n_approx_interactions"] + st["n_direct_interactions"]
                )
                out[kernel.name, n] = res.forces, share
        return out

    @pytest.mark.parametrize("kernel", FORCE_KERNELS, ids=lambda k: k.name)
    def test_forces_converge_with_degree(self, runs, kernel):
        direct = runs[kernel.name, None]
        errs = []
        for n, min_share in MIN_APPROX_SHARE.items():
            forces, share = runs[kernel.name, n]
            assert share >= min_share, (n, share)
            errs.append(
                np.linalg.norm(forces - direct) / np.linalg.norm(direct)
            )
        assert errs[1] < errs[0]
        assert errs[2] < 1e-5

    @pytest.mark.parametrize("kernel", FORCE_KERNELS, ids=lambda k: k.name)
    def test_momentum_conservation(self, cube, runs, kernel):
        """Newton's third law: sum_i q_i F_i = 0 for the exact sum; the
        treecode approximation must respect it to within its accuracy."""
        forces, share = runs[kernel.name, 6]
        assert share >= MIN_APPROX_SHARE[6]
        total = np.einsum("i,id->d", cube.charges, forces)
        scale = np.abs(cube.charges[:, None] * forces).sum()
        assert np.linalg.norm(total) / scale < 1e-6

    def test_forces_none_by_default(self, cube):
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=150, max_batch_size=150
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(cube)
        assert res.forces is None

    def test_force_launches_accounted(self, cube):
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=150, max_batch_size=150
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(
            cube, compute_forces=True
        )
        kinds = res.stats["by_kind"]
        assert "direct-force" in kinds
        assert kinds["direct-force"][0] == kinds["direct"][0]

    def test_two_body_force(self):
        p = ParticleSet(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([1.0, 1.0]),
        )
        params = TreecodeParams(
            theta=0.7, degree=2, max_leaf_size=10, max_batch_size=10
        )
        res = BarycentricTreecode(CoulombKernel(), params).compute(
            p, compute_forces=True
        )
        # F on particle 0 per unit charge: -grad(1/|x-y|) at x=0 due to
        # y=(1,0,0): repulsive for like charges -> points in -x.
        assert res.forces[0][0] == pytest.approx(-1.0)
        assert res.forces[1][0] == pytest.approx(1.0)


class TestForceContraction:
    """The radial force contraction, one BLAS product per block and
    charge column against ``[w S | w]``: every gradient kernel agrees
    with the ``numpy`` reference on both evaluator paths, and a source
    under a target adds nothing to that target's force.  Column ``j``
    of a block apply against a solo apply is
    ``tests/test_multi_rhs_plans.py``'s check."""

    @pytest.fixture(scope="class")
    def cube(self):
        return random_cube(1500, seed=7)

    @staticmethod
    def _session(cube, kernel, backend):
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=100, max_batch_size=100,
            backend=backend,
        )
        return BarycentricTreecode(kernel, params).prepare(cube)

    @pytest.mark.parametrize("path", ["per-group", "stacked"])
    @pytest.mark.parametrize("kernel", GRAD_KERNELS, ids=lambda k: k.name)
    def test_matches_numpy_reference(self, cube, kernel, path, use_backend):
        ref = self._session(cube, kernel, "numpy").apply(
            cube.charges, compute_forces=True
        )
        res = self._session(cube, kernel, use_backend(path)).apply(
            cube.charges, compute_forces=True
        )
        assert np.allclose(res.forces, ref.forces, rtol=1e-8, atol=1e-11)

    @pytest.mark.parametrize("kernel", GRAD_KERNELS, ids=lambda k: k.name)
    def test_source_under_a_target_adds_nothing(self, kernel, rng):
        t = rng.uniform(-1, 1, (6, 3))
        s = rng.uniform(-1, 1, (9, 3))
        # The shared point sits far out, where the others exert ~1e-6:
        # an unpatched coincident term (the factor at the patched r = 1
        # on 1e3 coordinates) would not cancel to within that.
        t[2] = s[4] = (1e3, 0.5, -0.25)
        q, q_t = rng.normal(size=9), rng.normal(size=6)
        keep_s, keep_t = np.arange(9) != 4, np.arange(6) != 2

        def row_forces(t, s, q, q_t):
            frc, f_t = np.zeros((len(t), 3)), np.zeros((len(s), 3))
            kernel.potential(
                t, s, q, forces=frc, fused=True,
                mirror=(0, q_t, np.zeros(len(s)), f_t),
            )
            stacked = np.zeros((1, len(t), 3))
            kernel.potential_batched(
                t[None], s[None], q[None], forces=stacked
            )
            return frc, f_t, stacked[0]

        frc, f_t, stacked = row_forces(t, s, q, q_t)
        # Target 2 without source 4, and source 4 without target 2.
        want = row_forces(t, s[keep_s], q[keep_s], q_t)
        want_t = row_forces(t[keep_t], s, q, q_t[keep_t])
        np.testing.assert_allclose(frc[2], want[0][2], rtol=1e-12)
        np.testing.assert_allclose(stacked[2], want[2][2], rtol=1e-12)
        np.testing.assert_allclose(f_t[4], want_t[1][4], rtol=1e-12)


class TestPotentialsIgnoreForces:
    """Asking for forces never changes a potential's bytes: the joint
    potential + force pass evaluates the potential on the same blocks
    and with the same arithmetic as the potential-only pass."""

    @pytest.fixture(scope="class")
    def cube(self):
        return random_cube(1500, seed=41)

    @pytest.mark.parametrize("n_rhs", [1, 4], ids=["single", "4-col"])
    @pytest.mark.parametrize(
        "kernel", [CoulombKernel(), YukawaKernel(kappa=0.5)],
        ids=lambda k: k.name,
    )
    @pytest.mark.parametrize(
        "backend", ["per-group", "stacked", "multiprocessing"]
    )
    def test_potential_bytes_with_forces_on_and_off(
        self, cube, backend, kernel, n_rhs, monkeypatch, use_backend
    ):
        backend = use_backend(backend)
        if backend == "multiprocessing":
            # Real worker shards, not the inline path.
            monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)
            backend = MultiprocessingBackend(n_workers=2)
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=100, max_batch_size=100,
            backend=backend,
        )
        rng = np.random.default_rng(3)
        q = (
            cube.charges if n_rhs == 1
            else rng.normal(size=(cube.n, n_rhs))
        )
        try:
            drv = BarycentricTreecode(kernel, params)
            with_forces = drv.prepare(cube).apply(q, compute_forces=True)
            sess = drv.prepare(cube)
            without = sess.apply(q)
            again = sess.apply(q, compute_forces=True)
        finally:
            if isinstance(backend, MultiprocessingBackend):
                backend.close()
        assert without.forces is None
        assert with_forces.potential.tobytes() == without.potential.tobytes()
        assert again.potential.tobytes() == without.potential.tobytes()
        assert again.forces.tobytes() == with_forces.forces.tobytes()


class TestJointPassMemory:
    """The joint pass's working set stays within its element budget.

    Traced (``tracemalloc``) peak of one warm evaluation, less what was
    allocated before it, against the block budget times the itemsize:
    a Yukawa force bucket stays within 1x its ``block_elements`` (the
    chunk divides the budget by every live stack of the joint pass), a
    per-group force block within ``JOINT_LIVE_ARRAYS``x (the row blocks
    are the potential's, and the pass holds r, g and g'/r).  Output
    stacks and their scatter copies are allowed on top.  The
    workspace-on variants hold the same evaluations, writing into a
    :class:`~repro.kernels.workspace.Workspace`, to the same bounds.
    """

    @staticmethod
    def _traced_peak(fn):
        fn()  # warm: stacks, weights and coincident pairs are cached
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base

    def _bucket_peak_within_budget(self, workspace, backend):
        cube = random_cube(3000, seed=5)
        kernel = YukawaKernel(kappa=0.5)
        params = TreecodeParams(
            theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150,
            backend=backend,
        )
        sess = BarycentricTreecode(kernel, params).prepare(cube)
        sess.apply(cube.charges, compute_forces=True)  # fills the weights
        plan = sess.plan
        bucket = max(
            plan.ensure_batched_layout().buckets,
            key=lambda b: b.m_max * b.k,
        )
        entry = bucket.m_max * bucket.k
        budget = 3 * JOINT_LIVE_ARRAYS * entry  # three entries per chunk
        assert bucket.n_entries > 3  # so the budget splits the bucket
        peak = self._traced_peak(
            lambda: eval_bucket(
                bucket, plan.targets, plan.src_points, kernel, True,
                block_elements=budget,
                workspace=Workspace() if workspace else None,
            )
        )
        itemsize = 8
        outputs = 3 * bucket.n_entries * bucket.m_max * 4 * itemsize
        assert peak <= budget * itemsize + outputs

    def _fused_peak_within_budget(self, rng, workspace):
        kernel = YukawaKernel(kappa=0.5)
        t = rng.uniform(-1, 1, (1500, 3))
        s = rng.uniform(-1, 1, (2000, 3))
        q = rng.normal(size=2000)
        budget = 300_000  # ten row blocks
        out, forces = np.zeros(1500), np.zeros((1500, 3))
        peak = self._traced_peak(
            lambda: kernel.potential(
                t, s, q, out=out, forces=forces, fused=True,
                block_elements=budget,
                coincident=np.arange(len(t)) * (len(s) + 1),
                workspace=Workspace() if workspace else None,
            )
        )
        assert peak <= JOINT_LIVE_ARRAYS * budget * 8 + 16 * len(t)

    def test_yukawa_force_bucket(self, use_backend):
        self._bucket_peak_within_budget(False, use_backend("stacked"))

    def test_yukawa_force_bucket_workspace(self, use_backend):
        # The workspace's buffers are allocated inside the traced run
        # (one per slot, at the first chunk's size): same bound.
        self._bucket_peak_within_budget(True, use_backend("stacked"))

    def test_fused_force_block(self, rng):
        self._fused_peak_within_budget(rng, workspace=False)

    def test_fused_force_block_workspace(self, rng):
        self._fused_peak_within_budget(rng, workspace=True)
