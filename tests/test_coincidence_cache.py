"""The coincident-pair cache: found once per geometry, never stale.

Both paths of the plan evaluator keep each block's noise-floor scan
result from the first apply on a geometry (``ExecutionPlan.coincident_cache``,
``BatchedBucket.coincident_slot``) and hand it back to the kernel on
later applies.  The contract: a warm apply is **bitwise** the first
apply and bitwise a fresh cold session's -- on both paths, both
dtypes, with and without forces, for vectors and blocks -- the scan
really is skipped (also when it found nothing), and every way a
geometry can change (an update onto a leaf mate, a structural update,
a full rebuild, pickle) drops what was found.
"""

import pickle

import numpy as np
import pytest

import repro.kernels.base as kernels_base
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)
from repro.core.backends import get_backend
from repro.core.session import format_memory_stats
from repro.perf.timer import PhaseTimes
from repro.workloads import ParticleSet

CACHING = ("per-group", "stacked")


def _params(backend="fused", **kw):
    base = dict(
        theta=0.7, degree=3, max_leaf_size=50, max_batch_size=50,
        backend=backend,
    )
    base.update(kw)
    return TreecodeParams(**base)


def _driver(backend="fused", kernel=None, **kw):
    return BarycentricTreecode(
        kernel or CoulombKernel(), _params(backend, **kw)
    )


def _same(a, b) -> bool:
    if not np.array_equal(a.potential, b.potential):
        return False
    if a.forces is None:
        return b.forces is None
    return np.array_equal(a.forces, b.forces)


@pytest.fixture(scope="module")
def cube():
    return random_cube(600, seed=31)


@pytest.fixture
def scans(monkeypatch):
    """Counts calls of the noise-floor scan; ``scans()`` reads and resets."""
    calls = []
    real = kernels_base._scan_coincident

    def counting(r2, t2, s2):
        calls.append(r2.shape)
        return real(r2, t2, s2)

    monkeypatch.setattr(kernels_base, "_scan_coincident", counting)

    def take() -> int:
        n = len(calls)
        calls.clear()
        return n

    return take


class TestWarmEqualsFirstEqualsCold:
    @pytest.mark.parametrize("n_rhs", (1, 4))
    @pytest.mark.parametrize("forces", (False, True))
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("backend", CACHING)
    def test_bitwise(
        self, backend, dtype, forces, n_rhs, cube, scans, use_backend
    ):
        rng = np.random.default_rng(5)
        q = rng.uniform(-1.0, 1.0, (cube.n, n_rhs) if n_rhs > 1 else cube.n)
        drv = _driver(
            use_backend(backend), kernel=YukawaKernel(0.5), dtype=dtype
        )
        sess = drv.prepare(cube)
        first = sess.apply(q, compute_forces=forces)
        assert scans() > 0
        warm = sess.apply(q, compute_forces=forces)
        assert scans() == 0
        cold = drv.prepare(cube).apply(q, compute_forces=forces)
        assert _same(warm, first)
        assert _same(warm, cold)

    @pytest.mark.parametrize("backend", CACHING)
    def test_force_pass_shares_the_potential_pass_entries(
        self, backend, cube, scans, use_backend
    ):
        # At this size every group is one row block and every bucket
        # one chunk under either pass, so the force kernels meet only
        # blocks the potential kernels already recorded.
        drv = _driver(use_backend(backend))
        sess = drv.prepare(cube)
        sess.apply(cube.charges)
        assert scans() > 0
        first = sess.apply(cube.charges, compute_forces=True)
        assert scans() == 0
        warm = sess.apply(cube.charges, compute_forces=True)
        assert scans() == 0
        cold = drv.prepare(cube).apply(cube.charges, compute_forces=True)
        assert _same(warm, first) and _same(warm, cold)

    @pytest.mark.parametrize("reference", ("numpy",))
    @pytest.mark.parametrize("backend", CACHING)
    def test_scanning_backends_agree_to_roundoff(
        self, backend, reference, cube, use_backend
    ):
        # numpy (reference order) keeps scanning on every apply; it
        # classifies the same pairs the cached indices hold.
        sess = _driver(use_backend(backend)).prepare(cube)
        sess.apply(cube.charges, compute_forces=True)
        warm = sess.apply(cube.charges, compute_forces=True)
        ref = _driver(reference).prepare(cube).apply(
            cube.charges, compute_forces=True
        )
        assert np.allclose(
            warm.potential, ref.potential, rtol=1e-9, atol=1e-12
        )
        assert np.allclose(warm.forces, ref.forces, rtol=1e-8, atol=1e-10)


def _with_duplicates(rng):
    pos = rng.uniform(-1.0, 1.0, (300, 3))
    pos[10] = pos[200]
    pos[11] = pos[12]
    return pos, None


def _identical_cluster(rng):
    pos = rng.uniform(-1.0, 1.0, (300, 3))
    pos[40:100] = pos[40]  # more than one leaf's worth of one point
    return pos, None


def _fewer_than_a_leaf(rng):
    return rng.uniform(-1.0, 1.0, (20, 3)), None


def _disjoint_targets(rng):
    # Targets offset from every source: not one coincident pair.
    pos = rng.uniform(-1.0, 1.0, (300, 3))
    return pos, rng.uniform(-1.0, 1.0, (150, 3)) + 0.25


class TestDegenerateClouds:
    @pytest.mark.parametrize(
        "cloud",
        (
            _with_duplicates,
            _identical_cluster,
            _fewer_than_a_leaf,
            _disjoint_targets,
        ),
    )
    @pytest.mark.parametrize("backend", CACHING)
    def test_second_apply_never_scans(
        self, backend, cloud, scans, use_backend
    ):
        rng = np.random.default_rng(8)
        pos, targets = cloud(rng)
        q = rng.uniform(-1.0, 1.0, len(pos))
        particles = ParticleSet(pos, q)
        drv = _driver(use_backend(backend))
        sess = drv.prepare(particles, targets)
        first = sess.apply(q, compute_forces=True)
        assert scans() > 0
        warm = sess.apply(q, compute_forces=True)
        assert scans() == 0  # an empty result is a result
        cold = drv.prepare(particles, targets).apply(q, compute_forces=True)
        assert np.isfinite(warm.potential).all()
        assert _same(warm, first) and _same(warm, cold)

    def test_pair_count(self, use_backend):
        # The per-group path evaluates each target against its direct
        # range once, so the cache holds one index per coincident
        # (target, source).
        rng = np.random.default_rng(9)
        pos, _ = _with_duplicates(rng)
        sess = _driver(use_backend("per-group")).prepare(
            ParticleSet(pos, np.zeros(len(pos)))
        )
        sess.apply(np.ones(len(pos)))
        itemsize = np.dtype(np.intp).itemsize
        assert sess.memory_stats()["coincident_cache_bytes"] == (
            (len(pos) + 2 * 2) * itemsize
        )

    def test_no_pairs_costs_no_bytes(self, use_backend):
        rng = np.random.default_rng(10)
        pos, targets = _disjoint_targets(rng)
        sess = _driver(use_backend("per-group")).prepare(
            ParticleSet(pos, np.zeros(len(pos))), targets
        )
        sess.apply(np.ones(len(pos)))
        assert sess.plan.coincident_cache  # the empty finds are held
        assert sess.memory_stats()["coincident_cache_bytes"] == 0


class TestOneSessionManyEvaluations:
    def test_path_switch_per_group_stacked_per_group(
        self, cube, scans, use_backend
    ):
        q = cube.charges
        sess = _driver(use_backend("per-group")).prepare(cube)
        first = sess.apply(q)
        scans()
        # The per-apply override on the same plan, the other path: the
        # buckets keep their own coincident pairs beside the plan's.
        stacked = get_backend(use_backend("stacked"))
        overridden, _ = sess.core.execute_plan(
            q, PhaseTimes(), backend=stacked
        )
        assert scans() > 0  # the buckets had met nothing yet
        again, _ = sess.core.execute_plan(q, PhaseTimes(), backend=stacked)
        assert scans() == 0
        use_backend("per-group")
        back = sess.apply(q)
        assert scans() == 0
        use_backend("stacked")
        cold_stacked = _driver("fused").prepare(cube).apply(q)
        assert np.array_equal(overridden, cold_stacked.potential)
        assert np.array_equal(again, cold_stacked.potential)
        assert np.array_equal(back.potential, first.potential)

    @pytest.mark.parametrize("backend", CACHING)
    def test_pickle_drops_and_repopulates(
        self, backend, cube, scans, use_backend
    ):
        live = _driver(use_backend(backend)).prepare(cube)
        first = live.apply(cube.charges)
        held = live.memory_stats()["coincident_cache_bytes"]
        assert held > 0
        restored = pickle.loads(pickle.dumps(live))
        assert restored.memory_stats()["coincident_cache_bytes"] == 0
        assert live.memory_stats()["coincident_cache_bytes"] == held
        scans()
        again = restored.apply(cube.charges)
        assert scans() > 0
        assert restored.memory_stats()["coincident_cache_bytes"] == held
        assert _same(again, first)
        assert _same(restored.apply(cube.charges), first)
        assert scans() == 0


class TestMemoryStats:
    @pytest.mark.parametrize("backend", CACHING)
    def test_zero_until_applied_and_after_update(
        self, backend, cube, use_backend
    ):
        sess = _driver(use_backend(backend)).prepare(cube)
        stats = sess.memory_stats()
        assert stats["coincident_cache_bytes"] == 0
        base_total = stats["total_bytes"]
        sess.apply(cube.charges)
        stats = sess.memory_stats()
        held = stats["coincident_cache_bytes"]
        assert held >= cube.n * np.dtype(np.intp).itemsize
        parts = sum(
            v for k, v in stats.items() if k != "total_bytes"
        )
        assert stats["total_bytes"] == parts
        assert stats["total_bytes"] >= base_total + held
        assert f"coincident={held}B" in format_memory_stats(stats)
        assert f"coincident={held}B" in repr(sess)
        moved = cube.positions.copy()
        moved[0] += 1e-6
        sess.update_geometry(moved)
        assert sess.memory_stats()["coincident_cache_bytes"] == 0

    def test_scanning_backends_hold_nothing(self, cube):
        for backend in ("numpy", "multiprocessing"):
            sess = _driver(backend).prepare(cube)
            sess.apply(cube.charges)
            assert sess.memory_stats()["coincident_cache_bytes"] == 0


def _leaf_mates(sess):
    """``(i, j, k)``: particles i, j share a leaf, k sits in another."""
    leaf_map = sess.tree.leaf_map()
    members = np.nonzero(leaf_map == leaf_map[0])[0]
    other = np.nonzero(leaf_map != leaf_map[0])[0]
    return int(members[0]), int(members[1]), int(other[0])


#: former update tier -> (rebuild_threshold, move onto a leaf mate?):
#: a move onto a leaf mate changes no group's segments or row counts.
TIERS = {
    "leaf-mate": (1.0, True),
    "structural": (1.0, False),
    "rebuild": (0.0, False),
}


class TestInvalidation:
    """A pair that appears or vanishes under ``update_geometry`` must be
    re-found: stale indices would leave a 1/0 in, or a real neighbour
    out, and either breaks bitwise equality with a cold prepare."""

    @pytest.mark.parametrize("forces", (False, True))
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("backend", CACHING)
    def test_pair_appears_then_vanishes(
        self, backend, tier, forces, cube, use_backend
    ):
        threshold, same_leaf = TIERS[tier]
        drv = _driver(use_backend(backend), rebuild_threshold=threshold)
        q = cube.charges
        sess = drv.prepare(cube)
        sess.apply(q, compute_forces=forces)
        i, mate, stranger = _leaf_mates(sess)
        onto = mate if same_leaf else stranger

        def check(result, positions):
            assert result.rebuilt == (tier == "rebuild")
            assert (result.n_patched_groups > 0) == (tier == "structural")
            assert sess.memory_stats()["coincident_cache_bytes"] == 0
            warm = sess.apply(q, compute_forces=forces)
            cold = drv.prepare(ParticleSet(positions, q)).apply(
                q, compute_forces=forces
            )
            assert np.isfinite(warm.potential).all()
            assert _same(warm, cold)
            assert _same(sess.apply(q, compute_forces=forces), cold)

        together = cube.positions.copy()
        together[i] = together[onto]
        check(sess.update_geometry(together), together)
        pairs_together = sess.memory_stats()["coincident_cache_bytes"]
        apart = together.copy()
        apart[i] = cube.positions[i]
        check(sess.update_geometry(apart), apart)
        pairs_apart = sess.memory_stats()["coincident_cache_bytes"]
        assert pairs_together > pairs_apart
