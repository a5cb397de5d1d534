"""Coincident pairs are plan geometry: each block keeps the scan's pairs.

The plan evaluator does not scan its blocks for entries at the
coincidence noise floor.  One neighbour pass per plan
(:mod:`repro.core.coincidence`) lists every block's candidate
entries, and each block keeps the candidates its r^2 puts at its floor.
The contract, checked on every block the evaluator forms -- per group
in plan and mirror order, in row blocks, bucket stacks with their pads,
ragged runs, forces on and off, one and three charge columns: the kept
indices are exactly
:func:`~repro.kernels.base._scan_coincident`'s on that block.
Generated clouds hold duplicated points, planar sets, fewer particles
than a leaf, disjoint targets, a cloud far from the origin and pairs at
0.5, 1, 2 and 4 times the floor distance; a theta = 1 case puts a
target within the floor of an approximated cluster's Chebyshev point.
The candidates are derived once per geometry, counted by
``memory_stats()`` and dropped by pickling and by every tier of
``update_geometry`` (a move onto a leaf mate, a structural update, a
full rebuild); a warm apply is bitwise the first apply and a cold
session's, on both paths, with and without forces, for
vectors and blocks, and on degenerate clouds.
"""

import contextlib
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.coincidence as coincidence
import repro.kernels.base as kernels_base
from repro import (
    BarycentricTreecode,
    CoulombKernel,
    GaussianKernel,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)
from repro.core.backends import batcheval, multiproc
from repro.core.session import format_memory_stats
from repro.workloads import ParticleSet

PATHS = ("per-group", "stacked")


def _driver(backend, kernel=None, **kw):
    params = dict(
        theta=0.7, degree=2, max_leaf_size=50, max_batch_size=50,
        backend=backend,
    )
    params.update(kw)
    return BarycentricTreecode(
        kernel or YukawaKernel(0.5), TreecodeParams(**params)
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
def passes(monkeypatch):
    """Counts neighbour passes; ``passes()`` reads and resets."""
    calls = []
    real = coincidence.neighbour_pairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coincidence, "neighbour_pairs", counting)

    def take() -> int:
        n = len(calls)
        calls.clear()
        return n

    return take


@contextlib.contextmanager
def checked_blocks(row_block=None, bucket_entries=None):
    """Check every block the kernels classify: one given candidates
    keeps exactly the full scan's indices.  Yields a tally of the
    blocks (``"matrix"``, ``"stacked"``, ``"scanned"`` without
    candidates) and of the indices kept (``"found"``).  ``row_block`` /
    ``bucket_entries`` cut per-block matrices into row blocks of that
    many rows and bucket stacks into chunks of that many entries."""
    tally = Counter()
    scan = kernels_base._scan_coincident

    def checked(r2, t2, s2, candidates=None):
        full = scan(r2, t2, s2)
        if candidates is None:
            tally["scanned"] += 1
            return full
        assert candidates.dtype.kind == "i"
        assert np.all(np.diff(candidates) > 0)
        if candidates.size:
            assert 0 <= candidates[0] <= candidates[-1] < r2.size
        kept = scan(r2, t2, s2, candidates)
        np.testing.assert_array_equal(kept, full)
        tally["stacked" if r2.ndim == 3 else "matrix"] += 1
        tally["found"] += kept.size
        return kept

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels_base, "_scan_coincident", checked)
        if row_block is not None:
            patch.setattr(
                kernels_base, "block_rows", lambda k, elements=0: row_block
            )
        if bucket_entries is not None:
            patch.setattr(
                batcheval, "bucket_chunk", lambda *a, **kw: bucket_entries
            )
        yield tally


def _floor_distance(scale):
    return np.sqrt(kernels_base.NOISE_FLOOR_EPS * np.finfo(float).eps * scale)


@st.composite
def clouds(draw):
    """``(positions, targets or None, leaf size)``."""
    kind = draw(st.sampled_from(
        ("cube", "planar", "duplicates", "offset", "disjoint")
    ))
    n = draw(st.integers(4, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pos = rng.uniform(-1.0, 1.0, (n, 3))
    targets = None
    if kind == "planar":
        pos[:, 2] = 0.0
    elif kind == "duplicates":
        copies = draw(st.integers(1, n))
        pos[rng.integers(0, n, copies)] = pos[rng.integers(0, n, copies)]
        pos[: copies // 2] = pos[-1]  # often more than a leaf of one point
    elif kind == "offset":
        pos += 1e3
    elif kind == "disjoint":
        targets = rng.uniform(-1.0, 1.0, (n // 2 + 1, 3)) + 0.25
    factor = draw(st.sampled_from((None, 0.5, 1.0, 2.0, 4.0)))
    if factor is not None:
        # Particle 1 at ``factor`` floor distances of the cloud's scale.
        scale = 2.0 * float(np.max(np.einsum("ij,ij->i", pos, pos)))
        step = rng.normal(size=3)
        step *= factor * _floor_distance(scale) / np.linalg.norm(step)
        pos[1] = pos[0] + step
    leaf = draw(st.sampled_from((8, 24, 200)))
    return pos, targets, leaf


class TestKeptIsTheScan:
    @settings(max_examples=60, deadline=None)
    @given(
        cloud=clouds(),
        path=st.sampled_from(PATHS),
        kernel=st.sampled_from(
            (CoulombKernel(), YukawaKernel(0.5), GaussianKernel(0.7))
        ),
        row_block=st.sampled_from((None, 3)),
        bucket_entries=st.sampled_from((None, 2)),
    )
    def test_generated_clouds(
        self, cloud, path, kernel, row_block, bucket_entries, evaluator_path
    ):
        pos, targets, leaf = cloud
        q = np.linspace(-1.0, 1.0, len(pos))
        block = np.stack([q, -q, 2.0 * q], axis=1)
        with evaluator_path(path) as backend, checked_blocks(
            row_block, bucket_entries
        ) as tally:
            sess = _driver(
                backend, kernel, max_leaf_size=leaf, max_batch_size=leaf,
            ).prepare(ParticleSet(pos, q), targets)
            vector = sess.apply(q)
            columns = sess.apply(block, compute_forces=True)
        assert tally["scanned"] == 0
        assert tally["matrix"] + tally["stacked"] > 0
        assert np.isfinite(vector.potential).all()
        assert np.isfinite(columns.forces).all()

    @pytest.mark.parametrize("path", PATHS)
    def test_every_block_kind(self, path, evaluator_path):
        # Self-targets: per-group blocks in mirror order, and stacks
        # with padded buckets next to ragged runs; then row blocks and
        # chunked stacks.
        cube = random_cube(600, seed=31)
        with evaluator_path(path) as backend:
            sess = _driver(backend).prepare(cube)
            for cut in ((None, None), (5, 3)):
                with checked_blocks(*cut) as tally:
                    sess.apply(cube.charges)
                    sess.apply(cube.charges, compute_forces=True)
                assert tally["scanned"] == 0
                assert tally["found"] >= 2 * cube.n  # every self pair
        if path == "per-group":
            assert sess.plan.mirror_schedule().n_pairs > 0
        else:
            layout = sess.plan.batched_layout
            assert tally["stacked"] > 0
            assert any(b.is_padded for b in layout.buckets)
            assert layout.ragged_runs.size > 0

    @pytest.mark.parametrize("path", PATHS)
    def test_theta_one_target_on_a_chebyshev_point(self, path, evaluator_path):
        # Two leaves, [0, 1]^3 and [1 + d, 2 + d]^3, each batch and
        # cluster at once; their facing corners sit 0.3 floor distances
        # apart, and at theta = 1 each approximates the other, so each
        # corner target nearly coincides with a corner Chebyshev point.
        rng = np.random.default_rng(4)
        n = 30
        low = rng.uniform(0.0, 1.0, (n, 3))
        low[0], low[1] = 0.0, 1.0
        floor = _floor_distance(2.0 * 3.0 * 2.0**2)
        d = 0.3 * floor / np.sqrt(3.0)
        high = 1.0 + d + rng.uniform(0.0, 1.0, (n, 3))
        high[0], high[1] = 1.0 + d, 2.0 + d
        pos = np.concatenate([low, high])
        with evaluator_path(path) as backend:
            sess = _driver(
                backend, CoulombKernel(), theta=1.0,
                max_leaf_size=n, max_batch_size=n,
            ).prepare(ParticleSet(pos, np.ones(2 * n)))
            assert sess.plan.segment_counts_by_kind() == {
                "approx": 2, "direct": 2
            }
            with checked_blocks() as tally:
                result = sess.apply(np.ones(2 * n), compute_forces=True)
        # The self pairs and the two corner pairs.
        assert tally["scanned"] == 0
        assert tally["found"] == 2 * n + 2
        assert np.isfinite(result.potential).all()
        assert np.isfinite(result.forces).all()


class TestWarmEqualsFirstEqualsCold:
    @pytest.mark.parametrize("n_rhs", (1, 4))
    @pytest.mark.parametrize("forces", (False, True))
    @pytest.mark.parametrize("backend", PATHS)
    def test_bitwise(self, backend, forces, n_rhs, cube, passes, use_backend):
        rng = np.random.default_rng(5)
        q = rng.uniform(-1.0, 1.0, (cube.n, n_rhs) if n_rhs > 1 else cube.n)
        drv = _driver(use_backend(backend))
        sess = drv.prepare(cube)
        first = sess.apply(q, compute_forces=forces)
        assert passes() == 1
        with checked_blocks() as tally:
            warm = sess.apply(q, compute_forces=forces)
        assert passes() == 0
        assert tally["scanned"] == 0
        cold = drv.prepare(cube).apply(q, compute_forces=forces)
        assert _same(warm, first)
        assert _same(warm, cold)

    @pytest.mark.parametrize("backend", PATHS)
    def test_force_pass_shares_the_potential_pass_entries(
        self, backend, cube, passes, use_backend
    ):
        # Candidates are geometry alone: the force kernels meet
        # the blocks the potential pass derived candidates for.
        drv = _driver(use_backend(backend))
        sess = drv.prepare(cube)
        sess.apply(cube.charges)
        assert passes() == 1
        held = sess.memory_stats()["coincident_cache_bytes"]
        first = sess.apply(cube.charges, compute_forces=True)
        assert passes() == 0
        warm = sess.apply(cube.charges, compute_forces=True)
        assert passes() == 0
        assert sess.memory_stats()["coincident_cache_bytes"] == held
        cold = drv.prepare(cube).apply(cube.charges, compute_forces=True)
        assert _same(warm, first) and _same(warm, cold)

    @pytest.mark.parametrize("reference", ("numpy",))
    @pytest.mark.parametrize("backend", PATHS)
    def test_scanning_backends_agree_to_roundoff(
        self, backend, reference, cube, use_backend
    ):
        # numpy (reference order) scans every block on every apply; it
        # classifies the same pairs the candidates keep.
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
    @pytest.mark.parametrize("backend", PATHS)
    def test_second_apply_never_scans(
        self, backend, cloud, passes, use_backend
    ):
        rng = np.random.default_rng(8)
        pos, targets = cloud(rng)
        q = rng.uniform(-1.0, 1.0, len(pos))
        particles = ParticleSet(pos, q)
        drv = _driver(use_backend(backend))
        sess = drv.prepare(particles, targets)
        with checked_blocks() as tally:
            first = sess.apply(q, compute_forces=True)
            assert passes() == 1
            warm = sess.apply(q, compute_forces=True)
            assert passes() == 0  # an empty result is a result
        assert tally["scanned"] == 0
        cold = drv.prepare(particles, targets).apply(q, compute_forces=True)
        assert np.isfinite(warm.potential).all()
        assert _same(warm, first) and _same(warm, cold)

    def test_pair_count(self, use_backend):
        # The per-group path evaluates each target against its direct
        # range once, and the pass finds only the exact duplicates in a
        # random cloud: one candidate per coincident (target, source).
        rng = np.random.default_rng(9)
        pos, _ = _with_duplicates(rng)
        sess = _driver(use_backend("per-group")).prepare(
            ParticleSet(pos, np.zeros(len(pos)))
        )
        with checked_blocks() as tally:
            sess.apply(np.ones(len(pos)))
        (held,) = sess.plan._candidates.values()
        assert held.flat.size == len(pos) + 2 * 2
        assert tally["found"] == len(pos) + 2 * 2

    def test_no_pairs_costs_no_bytes(self, use_backend):
        # No candidate index is held; only each block's (empty) range.
        rng = np.random.default_rng(10)
        pos, targets = _disjoint_targets(rng)
        sess = _driver(use_backend("per-group")).prepare(
            ParticleSet(pos, np.zeros(len(pos))), targets
        )
        sess.apply(np.ones(len(pos)))
        (held,) = sess.plan._candidates.values()  # the empty find is held
        assert held.flat.nbytes == 0
        assert sess.memory_stats()["coincident_cache_bytes"] == (
            held.ptr.nbytes
        )


class TestOneSessionManyEvaluations:
    def test_path_switch_per_group_stacked_per_group(
        self, cube, passes, use_backend
    ):
        q = cube.charges
        sess = _driver(use_backend("per-group")).prepare(cube)
        first = sess.apply(q)
        assert passes() == 1
        held = sess.memory_stats()["coincident_cache_bytes"]
        # The other path on the same plan: the layout keeps its own
        # candidates beside the per-group ones.
        use_backend("stacked")
        switched = sess.apply(q).potential
        assert passes() == 1  # the layout had no candidates yet
        both = sess.memory_stats()["coincident_cache_bytes"]
        again = sess.apply(q).potential
        assert passes() == 0
        use_backend("per-group")
        back = sess.apply(q)
        assert passes() == 0
        assert both > held > 0
        assert sess.memory_stats()["coincident_cache_bytes"] == both
        use_backend("stacked")
        cold_stacked = _driver("fused").prepare(cube).apply(q)
        assert np.array_equal(switched, cold_stacked.potential)
        assert np.array_equal(again, cold_stacked.potential)
        assert np.array_equal(back.potential, first.potential)

    @pytest.mark.parametrize("backend", PATHS)
    def test_pickle_drops_and_repopulates(
        self, backend, cube, passes, use_backend
    ):
        live = _driver(use_backend(backend)).prepare(cube)
        first = live.apply(cube.charges)
        held = live.memory_stats()["coincident_cache_bytes"]
        assert held > 0
        restored = pickle.loads(pickle.dumps(live))
        assert restored.memory_stats()["coincident_cache_bytes"] == 0
        assert live.memory_stats()["coincident_cache_bytes"] == held
        passes()
        again = restored.apply(cube.charges)
        assert passes() == 1
        assert restored.memory_stats()["coincident_cache_bytes"] == held
        assert _same(again, first)
        assert _same(restored.apply(cube.charges), first)
        assert passes() == 0


class TestOncePerGeometry:
    @pytest.mark.parametrize("path", PATHS)
    def test_derived_by_the_first_apply_only(
        self, path, evaluator_path, monkeypatch
    ):
        passes = []
        real = coincidence.neighbour_pairs

        def counting(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(coincidence, "neighbour_pairs", counting)
        cube = random_cube(400, seed=5)
        with evaluator_path(path) as backend:
            drv = _driver(backend)
            sess = drv.prepare(cube)
            assert passes == []  # prepare() derives nothing
            first = sess.apply(cube.charges, compute_forces=True)
            assert len(passes) == 1
            warm = sess.apply(cube.charges, compute_forces=True)
            sess.apply(np.stack([cube.charges] * 3, axis=1))
            assert len(passes) == 1
            cold = drv.prepare(cube).apply(cube.charges, compute_forces=True)
        assert _same(warm, first) and _same(warm, cold)


class TestMemoryStats:
    @pytest.mark.parametrize("path", PATHS)
    def test_zero_until_applied_and_after_update(self, path, evaluator_path):
        cube = random_cube(400, seed=5)
        with evaluator_path(path) as backend:
            sess = _driver(backend).prepare(cube)
            stats = sess.memory_stats()
            assert stats["coincident_cache_bytes"] == 0
            sess.apply(cube.charges)
            stats = sess.memory_stats()
            held = stats["coincident_cache_bytes"]
            assert held >= cube.n * np.dtype(np.int32).itemsize
            assert held == sum(
                c.nbytes for c in sess.plan._candidates.values()
            )
            parts = sum(v for k, v in stats.items() if k != "total_bytes")
            assert stats["total_bytes"] == parts
            assert f"coincident={held}B" in format_memory_stats(stats)
            assert f"coincident={held}B" in repr(sess)
            moved = cube.positions.copy()
            moved[0] += 1e-6
            sess.update_geometry(moved)
            assert sess.memory_stats()["coincident_cache_bytes"] == 0

    def test_scanning_backends_hold_nothing(self, monkeypatch):
        # The numpy reference, and pool workers (a plan this size is
        # sharded once its cut is lowered), scan every block.
        monkeypatch.setattr(multiproc, "MIN_PARALLEL_ROWS", 0)
        cube = random_cube(300, seed=5)
        for backend in ("numpy", "multiprocessing"):
            sess = _driver(backend).prepare(cube)
            with checked_blocks() as tally:
                sess.apply(cube.charges)
            assert sess.memory_stats()["coincident_cache_bytes"] == 0
            assert tally["matrix"] + tally["stacked"] == 0


def _leaf_mates(sess):
    """``(i, j, k)``: particles i, j share a leaf, k sits in another."""
    leaf_map = sess.tree.leaf_map()
    members = np.nonzero(leaf_map == leaf_map[0])[0]
    other = np.nonzero(leaf_map != leaf_map[0])[0]
    return int(members[0]), int(members[1]), int(other[0])


#: update tier -> (rebuild_threshold, move onto a leaf mate?): a move
#: onto a leaf mate changes no group's segments or row counts.
TIERS = {
    "leaf-mate": (1.0, True),
    "structural": (1.0, False),
    "rebuild": (0.0, False),
}


class TestInvalidation:
    """A pair that appears or vanishes under ``update_geometry`` must be
    found on the new geometry: stale candidates would leave a 1/0 in,
    or a real neighbour out, and either breaks bitwise equality with a
    cold prepare."""

    @pytest.mark.parametrize("forces", (False, True))
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("backend", PATHS)
    def test_pair_appears_then_vanishes(
        self, backend, tier, forces, use_backend
    ):
        cube = random_cube(400, seed=5)
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
            with checked_blocks() as tally:
                warm = sess.apply(q, compute_forces=forces)
            assert tally["scanned"] == 0
            cold = drv.prepare(ParticleSet(positions, q)).apply(
                q, compute_forces=forces
            )
            assert np.isfinite(warm.potential).all()
            assert _same(warm, cold)
            assert _same(sess.apply(q, compute_forces=forces), cold)
            return tally["found"]

        together = cube.positions.copy()
        together[i] = together[onto]
        found_together = check(sess.update_geometry(together), together)
        pairs_together = sess.memory_stats()["coincident_cache_bytes"]
        apart = together.copy()
        apart[i] = cube.positions[i]
        found_apart = check(sess.update_geometry(apart), apart)
        pairs_apart = sess.memory_stats()["coincident_cache_bytes"]
        assert found_together > found_apart
        assert pairs_together > pairs_apart
