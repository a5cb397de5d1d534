"""One evaluation precision: ``dtype`` prices the device, nothing else.

``TreecodeParams(dtype=np.float32)`` and the backends' ``execute(...,
dtype=)`` choose
:meth:`~repro.perf.machine.MachineSpec.precision_multiplier`, the
simulated device's cost of single-precision arithmetic (the paper's
Sec. 5 mixed-precision idea, modelled); every evaluation runs in
float64.  The contract, on every backend and every driver:

* a float32 run returns bitwise the float64 run's potentials and
  forces -- one execute (of a compiled plan, a charge block's plan and a
  hand-built plan), a session apply (vectors and blocks), an apply
  after ``update_geometry`` and a restored pickle;
* the device records the same launches and interactions, the kernels'
  busy time is the float64 time divided by ``sp_dp_ratio``, and the
  compute phase is below the float64 one.

The accuracy side -- a pair at 1e-3 of the domain scale keeps its term
-- is ``tests/test_treecode.py::TestNearPairPrecision``.
"""

import pickle

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    ClusterParticleTreecode,
    CoulombKernel,
    DistributedBLTC,
    DualTreeTreecode,
    GaussianKernel,
    ParticleSet,
    TreecodeParams,
    YukawaKernel,
    get_backend,
    random_cube,
)
from repro.core.backends import multiproc
from repro.gpu.device import GpuDevice
from repro.perf.machine import GPU_TITAN_V

from plan_factory import listed_plan

BACKENDS = ["numpy", "per-group", "stacked", "multiprocessing"]


def _params(**kw):
    base = dict(theta=0.7, degree=3, max_leaf_size=60, max_batch_size=60)
    base.update(kw)
    return TreecodeParams(**base)


def _same(a, b) -> bool:
    if a.potential.tobytes() != b.potential.tobytes():
        return False
    if a.forces is None:
        return b.forces is None
    return a.forces.tobytes() == b.forces.tobytes()


@pytest.fixture(scope="module")
def cube():
    return random_cube(800, seed=91)


@pytest.fixture
def shard_small_plans(monkeypatch):
    """The multiprocessing backend shards every plan (real workers)."""
    monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 1)


def _assert_execute_prices_only(plan, kernel, backend):
    """Both precisions of one execute: the float64 bytes, the same
    launches and the busy time divided by ``sp_dp_ratio``."""
    runs = {}
    for dtype in (np.float64, np.float32):
        device = GpuDevice(GPU_TITAN_V)
        phi, forces = get_backend(backend).execute(
            plan, kernel, device, dtype=dtype, compute_forces=True
        )
        runs[dtype] = phi, forces, device.counters
    (phi64, f64, c64), (phi32, f32, c32) = runs.values()
    assert phi32.dtype == np.float64
    assert phi32.tobytes() == phi64.tobytes()
    assert f32.tobytes() == f64.tobytes()
    assert c32.launches == c64.launches
    assert c32.interactions == c64.interactions
    ratio = GPU_TITAN_V.sp_dp_ratio
    assert sum(c32.busy_by_kind.values()) == pytest.approx(
        sum(c64.busy_by_kind.values()) / ratio
    )


def _hand_built_plan():
    """Two groups over three share keys, approximated and direct; one
    target sits on a source and one at 1e-3 from another."""
    rng = np.random.default_rng(5)
    near = rng.uniform(-1.0, 1.0, (40, 3))
    far = rng.uniform(3.0, 4.0, (30, 3))
    targets = rng.uniform(-1.0, 1.0, (25, 3))
    targets[0] = near[0]
    targets[1] = near[1] + 1e-3
    sources = {"near": near, "far": far, "cheb": rng.uniform(2, 3, (27, 3))}
    plan = listed_plan(
        [
            (targets[:12], [("direct", "near"), ("approx", "cheb")]),
            (targets[12:], [("direct", "near"), ("direct", "far")]),
        ],
        sources,
    )
    plan.refresh_weights(
        lambda key: np.random.default_rng(len(key)).normal(
            size=len(sources[key])
        )
    )
    return plan


class TestEveryBackend:
    @pytest.mark.parametrize(
        "kernel",
        [CoulombKernel(), YukawaKernel(0.5), GaussianKernel(0.7)],
        ids=lambda k: k.name,
    )
    @pytest.mark.parametrize("backend", BACKENDS + ["model"])
    def test_execute_prices_only(
        self, cube, backend, kernel, use_backend, shard_small_plans
    ):
        sess = BarycentricTreecode(kernel, _params()).prepare(cube)
        sess.apply(cube.charges)  # fills the plan's weights
        _assert_execute_prices_only(sess.plan, kernel, use_backend(backend))

    @pytest.mark.parametrize("backend", BACKENDS + ["model"])
    def test_block_execute_prices_only(
        self, cube, backend, use_backend, shard_small_plans
    ):
        sess = BarycentricTreecode(CoulombKernel(), _params()).prepare(cube)
        block = np.random.default_rng(8).uniform(-1.0, 1.0, (cube.n, 3))
        sess.apply(block)  # widens the plan's weights to 3 columns
        assert sess.plan.rhs_width == 3
        _assert_execute_prices_only(
            sess.plan, CoulombKernel(), use_backend(backend)
        )

    @pytest.mark.parametrize("backend", BACKENDS + ["model"])
    def test_hand_built_plan_prices_only(
        self, backend, use_backend, shard_small_plans
    ):
        _assert_execute_prices_only(
            _hand_built_plan(), CoulombKernel(), use_backend(backend)
        )


def _treecode(dtype):
    return BarycentricTreecode(YukawaKernel(0.5), _params(dtype=dtype))


def _distributed(dtype):
    return DistributedBLTC(CoulombKernel(), _params(dtype=dtype), n_ranks=2)


def _cluster_particle(dtype):
    return ClusterParticleTreecode(CoulombKernel(), _params(dtype=dtype))


def _dual_tree(dtype):
    return DualTreeTreecode(YukawaKernel(0.5), _params(dtype=dtype))


#: driver factory, whether its apply takes ``compute_forces``.
DRIVERS = {
    "treecode": (_treecode, True),
    "distributed": (_distributed, True),
    "cluster-particle": (_cluster_particle, False),
    "dual-tree": (_dual_tree, False),
}


def _compute_seconds(result) -> float:
    phases = getattr(result, "rank_phases", None)
    if phases is None:
        return result.phases.compute
    return sum(p.compute for p in phases)


def _forces_cases():
    for name, (_, has_forces) in DRIVERS.items():
        for forces in (False, True) if has_forces else (False,):
            for n_rhs in (1, 3):
                yield pytest.param(
                    name, forces, n_rhs, id=f"{name}-{forces}-{n_rhs}"
                )


class TestEveryDriver:
    @pytest.mark.parametrize("driver, forces, n_rhs", list(_forces_cases()))
    def test_session_prices_only(self, cube, driver, forces, n_rhs):
        make, _ = DRIVERS[driver]
        rng = np.random.default_rng(n_rhs)
        q = rng.uniform(-1.0, 1.0, (cube.n, n_rhs) if n_rhs > 1 else cube.n)
        kw = dict(compute_forces=True) if forces else {}
        single = make(np.float32).prepare(cube).apply(q, **kw)
        double = make(np.float64).prepare(cube).apply(q, **kw)
        assert _same(single, double)
        assert (single.forces is not None) == forces
        assert _compute_seconds(single) < _compute_seconds(double)

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_restored_session(self, cube, driver):
        make, _ = DRIVERS[driver]
        live = make(np.float32).prepare(cube)
        live.apply(cube.charges)
        restored = pickle.loads(pickle.dumps(live))
        double = make(np.float64).prepare(cube).apply(cube.charges)
        assert _same(restored.apply(cube.charges), double)


class TestUpdateGeometry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_update_prices_only(self, cube, backend, use_backend):
        name = use_backend(backend)
        drivers = {
            dtype: BarycentricTreecode(
                CoulombKernel(), _params(dtype=dtype, backend=name)
            )
            for dtype in (np.float64, np.float32)
        }
        moved = cube.positions + np.random.default_rng(3).normal(
            scale=0.004, size=cube.positions.shape
        )
        warm = {}
        for dtype, drv in drivers.items():
            sess = drv.prepare(cube)
            sess.apply(cube.charges, compute_forces=True)
            sess.update_geometry(moved)
            warm[dtype] = sess.apply(cube.charges, compute_forces=True)
        cold = drivers[np.float64].prepare(
            ParticleSet(moved, cube.charges)
        ).apply(cube.charges, compute_forces=True)
        assert _same(warm[np.float32], warm[np.float64])
        assert _same(warm[np.float32], cold)
