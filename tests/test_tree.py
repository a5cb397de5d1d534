"""Unit and property tests for repro.tree (the array-built octree, batches).

The level-by-level array builder is checked byte for byte against a
short per-node breadth-first reference (:func:`_reference_build`: the
builder it replaced, with the same two leaf rules for splits that cannot
progress), and ``rebin`` against a cold build at the moved positions.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import BarycentricTreecode, CoulombKernel, TreecodeParams
from repro.config import ASPECT_RATIO_LIMIT
from repro.tree import ClusterTree, TargetBatches
from repro.tree.octree import TREE_ARRAY_FIELDS
from repro.workloads import ParticleSet, gaussian_clusters, random_cube

POLICIES = [
    (aspect, shrink) for aspect in (True, False) for shrink in (True, False)
]


def _reference_build(positions, nl, aspect=True, shrink=True):
    """Per-node breadth-first build: ``(perm, packed array, max_level)``.

    A work queue of node slices; each node sorts its slice by child code
    and queues its non-empty children in code order.  A node is a leaf
    when it holds at most ``nl`` particles, when they all coincide, or
    when its split would leave them all in one child with its own box.
    """
    n = len(positions)
    perm = np.arange(n)
    rows, kids, depth = [], [], 0
    queue = deque([(0, n, -1, 0, None)])
    while queue:
        start, end, parent, level, box = queue.popleft()
        pts = positions[perm[start:end]]
        if shrink or box is None:
            box = (pts.min(axis=0), pts.max(axis=0))
        lo, hi = box
        index = len(rows)
        rows.append((lo, hi, start, end))
        kids.append([])
        depth = max(depth, level)
        if parent >= 0:
            kids[parent].append(index)
        ext = hi - lo
        if end - start <= nl or np.ptp(pts, axis=0).max() == 0.0:
            continue
        if aspect:
            dims = np.nonzero(ext > ext.max() / ASPECT_RATIO_LIMIT)[0]
            if dims.size == 0:
                dims = np.array([np.argmax(ext)])
        else:
            dims = np.arange(3)
        mid = 0.5 * (lo + hi)
        code = np.zeros(end - start, dtype=np.intp)
        for i, d in enumerate(dims):
            code |= (pts[:, d] > mid[d]).astype(np.intp) << i
        children = []
        for c in np.unique(code):
            clo, chi = lo.copy(), hi.copy()
            for i, d in enumerate(dims):
                if (c >> i) & 1:
                    clo[d] = mid[d]
                else:
                    chi[d] = mid[d]
            children.append((np.count_nonzero(code == c), (clo, chi)))
        if len(children) == 1 and (
            shrink
            or (np.array_equal(clo, lo) and np.array_equal(chi, hi))
        ):
            continue
        perm[start:end] = perm[start:end][np.argsort(code, kind="stable")]
        offset = start
        for cnt, child_box in children:
            queue.append((offset, offset + cnt, index, level + 1, child_box))
            offset += cnt
    lo = np.array([r[0] for r in rows])
    hi = np.array([r[1] for r in rows])
    ext = hi - lo
    arr = np.empty((len(rows), TREE_ARRAY_FIELDS))
    arr[:, 0:3] = 0.5 * (lo + hi)
    arr[:, 3] = 0.5 * np.sqrt(np.vecdot(ext, ext))
    arr[:, 4:7] = lo
    arr[:, 7:10] = hi
    arr[:, 11] = [r[2] for r in rows]
    arr[:, 12] = [r[3] for r in rows]
    arr[:, 10] = arr[:, 12] - arr[:, 11]
    arr[:, 15] = [len(k) for k in kids]
    arr[:, 13] = arr[:, 15] == 0
    arr[:, 14] = [k[0] if k else -1 for k in kids]
    return perm, arr, depth


def _bytes(tree):
    return tree.perm.tobytes(), tree.tree_array().tobytes(), tree.max_level


def _leaves(tree):
    return np.flatnonzero(tree.view().is_leaf)


# Coordinates that stress the split arithmetic: signed zeros, subnormals
# and neighbouring floats whose midpoint rounds onto one of them.
_COORDS = st.one_of(
    st.floats(-1, 1, allow_nan=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, 1 + 2**-52, 1 + 2**-51]
    ),
)


@st.composite
def _clouds(draw):
    """Point clouds with duplicates, planar sets and subnormal extents."""
    base = draw(
        hnp.arrays(
            np.float64, st.tuples(st.integers(1, 40), st.just(3)),
            elements=_COORDS,
        )
    )
    picks = draw(
        hnp.arrays(
            np.intp, st.integers(1, 150),
            elements=st.integers(0, len(base) - 1),
        )
    )
    pts = base[picks]
    planar = draw(st.sampled_from([None, 0, 1, 2]))
    if planar is not None:
        pts[:, planar] = draw(_COORDS)
    return pts * draw(st.sampled_from([1.0, 1e-300, 5e-324]))


class TestReferenceIdentity:
    """The array builder is byte for byte the per-node reference."""

    @settings(max_examples=60, deadline=None)
    @given(pts=_clouds(), nl=st.integers(1, 12))
    def test_generated_clouds(self, pts, nl):
        for aspect, shrink in POLICIES:
            tree = ClusterTree(
                pts, nl, aspect_ratio_splitting=aspect, shrink_to_fit=shrink
            )
            tree.validate()
            perm, arr, depth = _reference_build(pts, nl, aspect, shrink)
            assert _bytes(tree) == (perm.tobytes(), arr.tobytes(), depth)

    @pytest.mark.parametrize("aspect,shrink", POLICIES)
    def test_workload_clouds(self, aspect, shrink):
        clouds = [
            (random_cube(3000, seed=40).positions, 50),
            (gaussian_clusters(2000, n_clusters=6, seed=41).positions, 30),
        ]
        for pts, nl in clouds:
            tree = ClusterTree(
                pts, nl, aspect_ratio_splitting=aspect, shrink_to_fit=shrink
            )
            perm, arr, depth = _reference_build(pts, nl, aspect, shrink)
            assert _bytes(tree) == (perm.tobytes(), arr.tobytes(), depth)


def _check_rebin(pts, nl, moved, shrink):
    """Re-bin a tree over ``pts`` and check it against a cold tree."""
    tree = ClusterTree(pts, nl, shrink_to_fit=shrink)
    before = _bytes(tree)
    old, old_perm, old_leaf = tree.view(), tree.perm, tree.leaf_map()
    cold = ClusterTree(moved, nl, shrink_to_fit=shrink)
    new = cold.view()
    res = tree.rebin(moved)
    assert res.ok == (
        len(new) == len(old) and np.array_equal(new.n_children, old.n_children)
    )
    if not res.ok:
        assert _bytes(tree) == before
        assert tree.positions is pts
        return res
    assert _bytes(tree) == _bytes(cold)
    assert np.array_equal(
        res.box_changed,
        np.any(old.lo != new.lo, axis=1) | np.any(old.hi != new.hi, axis=1),
    )
    assert np.array_equal(res.count_changed, old.counts != new.counts)
    members_changed = [
        not np.array_equal(
            old_perm[old.starts[i]:old.ends[i]],
            cold.perm[new.starts[i]:new.ends[i]],
        )
        for i in range(len(old))
    ]
    assert res.members_dirty.tolist() == members_changed
    assert res.n_rebinned == np.count_nonzero(old_leaf != cold.leaf_map())
    return res


class TestRebin:
    """A re-bin is a cold build plus a topology check."""

    @settings(max_examples=40, deadline=None)
    @given(
        pts=_clouds(),
        nl=st.integers(1, 12),
        scale=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1e-1]),
        seed=st.integers(0, 2**16),
        shrink=st.booleans(),
    )
    def test_against_cold_tree(self, pts, nl, scale, seed, shrink):
        moved = pts + np.random.default_rng(seed).normal(
            scale=scale, size=pts.shape
        )
        _check_rebin(pts, nl, moved, shrink)

    @pytest.mark.parametrize("shrink", [True, False])
    @pytest.mark.parametrize("scale", [1e-5, 1e-4])
    def test_members_reordered_at_equal_counts(self, scale, shrink):
        # Leaves trade particles: some nodes keep their count but not
        # their ordered members.
        pts = gaussian_clusters(2000, n_clusters=6, seed=43).positions
        moved = pts + np.random.default_rng(3).normal(
            scale=scale, size=pts.shape
        )
        res = _check_rebin(pts, 40, moved, shrink)
        assert res.ok and np.any(res.members_dirty & ~res.count_changed)

    def test_refreshes_packed_view(self):
        """After a successful rebin the packed array is bitwise what a
        cold tree over the moved points packs."""
        p = random_cube(800, seed=15)
        tree = ClusterTree(p.positions, 60)
        before = tree.tree_array()
        moved = p.positions + np.random.default_rng(1).normal(
            scale=1e-4, size=p.positions.shape
        )
        assert tree.rebin(moved).ok
        cold = ClusterTree(moved, 60)
        assert not np.array_equal(tree.tree_array(), before)
        assert np.array_equal(tree.tree_array(), cold.tree_array())
        assert np.array_equal(tree.node_counts, cold.node_counts)

    def test_failed_rebin_leaves_tree_unchanged(self):
        p = random_cube(800, seed=16)
        tree = ClusterTree(p.positions, 60)
        before = _bytes(tree)
        # Squashing z turns the root's 8-way split into a 4-way one.
        res = tree.rebin(p.positions * [1.0, 1.0, 0.01])
        assert not res.ok and "child count" in res.reason
        assert res.scratch_bytes > 0
        assert _bytes(tree) == before
        assert tree.positions is p.positions

    def test_rejects_shape_change(self):
        tree = ClusterTree(random_cube(100, seed=17).positions, 10)
        with pytest.raises(ValueError, match="shape"):
            tree.rebin(np.zeros((99, 3)))


class TestSplitRules:
    """The box rules of Sec. 2.3 / 3.1, read off the built tree."""

    def test_cube_gets_eight_children(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
            dtype=float,
        )
        tree = ClusterTree(corners, 1)
        assert tree.view().n_children[0] == 8

    def test_fig2b_region_splits_long_dimensions_only(self):
        """Fig. 2b: a 1/2 x 1/3 x 1/2 region bisects x and z, not y
        (1/3 < 0.5/sqrt(2))."""
        corners = np.array(
            [[x, y, z] for x in (0, 0.5) for y in (0, 1 / 3) for z in (0, 0.5)]
        )
        tree = ClusterTree(corners, 1, shrink_to_fit=False)
        v = tree.view()
        assert v.n_children[0] == 4
        kids = slice(v.first_child[0], v.first_child[0] + 4)
        assert np.allclose(v.hi[kids] - v.lo[kids], [0.25, 1 / 3, 0.25])

    def test_split_fallback_at_subnormal_extent(self):
        """With extents of one subnormal ulp, ``longest / sqrt(2)`` rounds
        back to ``longest`` and no extent exceeds it: the longest
        dimension splits alone."""
        pts = np.vstack([np.zeros((10, 3)), np.tile([5e-324, 0, 0], (10, 1))])
        tree = ClusterTree(pts, 4)
        tree.validate()
        v = tree.view()
        assert v.n_children[0] == 2
        assert v.counts[1:].tolist() == [10, 10]

    def test_minimal_boxes_touch_particles(self):
        """Shrink-to-fit: each box boundary touches a particle (Sec. 2.3)."""
        p = random_cube(400, seed=6)
        tree = ClusterTree(p.positions, 50, shrink_to_fit=True)
        v = tree.view()
        for i in range(len(tree)):
            pts = tree.node_points(i)
            assert np.array_equal(pts.min(axis=0), v.lo[i])
            assert np.array_equal(pts.max(axis=0), v.hi[i])

    def test_planar_set_never_splits_flat_dimension(self):
        p = random_cube(500, seed=18).positions.copy()
        p[:, 2] = 0.25
        tree = ClusterTree(p, 20)
        tree.validate()
        v = tree.view()
        assert np.all(v.lo[:, 2] == 0.25) and np.all(v.hi[:, 2] == 0.25)
        assert v.n_children.max() <= 4

    def test_aspect_ratio_rule_limits_children(self):
        """An elongated slab should produce 2-way (not 8-way) splits."""
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(400, 3))
        pts[:, 0] *= 8.0  # 8:1:1 slab
        tree = ClusterTree(pts, 50, aspect_ratio_splitting=True)
        assert tree.view().n_children[0] == 2

    def test_without_aspect_rule_cube_gets_eight(self):
        p = random_cube(4000, seed=8)
        tree = ClusterTree(p.positions, 100, aspect_ratio_splitting=False)
        assert tree.view().n_children[0] == 8

    def test_children_aspect_ratios_bounded(self):
        p = random_cube(3000, seed=9)
        tree = ClusterTree(p.positions, 50, shrink_to_fit=False)
        ext = tree.view().hi - tree.view().lo
        ext = ext[ext.min(axis=1) > 0]
        # Allow a little slack: the rule bounds the *splitting* geometry;
        # shrunk boxes can only get less elongated.
        ratio = ext.max(axis=1) / ext.min(axis=1)
        assert np.all(ratio <= 2 * ASPECT_RATIO_LIMIT + 1e-9)


class TestDegenerateLeaves:
    """Coincident particles, and boxes too thin to bisect, are leaves."""

    def test_duplicate_points_terminate(self):
        pts = np.tile(np.array([[0.5, 0.5, 0.5]]), (20, 1))
        tree = ClusterTree(pts, 4)
        tree.validate()
        assert len(tree) == 1 and tree.view().is_leaf[0]

    def test_mixed_duplicates_terminate(self):
        pts = np.vstack(
            [np.tile([[0.1, 0.2, 0.3]], (15, 1)), np.tile([[0.9, 0.8, 0.7]], (15, 1))]
        )
        tree = ClusterTree(pts, 4)
        tree.validate()

    @pytest.mark.parametrize("aspect,shrink", POLICIES)
    @pytest.mark.parametrize("where", [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])
    def test_coincident_cluster_is_a_leaf(self, where, aspect, shrink):
        # With half-boxes the cluster once shrank its inherited box to an
        # ulp and never stopped (or stopped after ~1000 levels at 0).
        pts = np.vstack([np.tile(where, (8, 1)), [[0.7, 0.1, 0.9]]])
        tree = ClusterTree(
            pts, 4, aspect_ratio_splitting=aspect, shrink_to_fit=shrink
        )
        tree.validate()
        assert 1 <= tree.max_level <= 2
        assert np.count_nonzero(tree.node_counts[_leaves(tree)] == 8) == 1

    @pytest.mark.parametrize("aspect,shrink", POLICIES)
    @pytest.mark.parametrize(
        "a,b", [(1 + 2**-52, 1 + 2**-51), (-5e-324, 0.0)]
    )
    def test_midpoint_on_the_edge_is_a_leaf(self, a, b, aspect, shrink):
        # The midpoint of the two neighbouring floats rounds onto the
        # upper one, so no particle lies above it.
        pts = np.array([[a, 0.0, 0.0]] * 3 + [[b, 0.0, 0.0]] * 3)
        tree = ClusterTree(
            pts, 1, aspect_ratio_splitting=aspect, shrink_to_fit=shrink
        )
        tree.validate()
        assert len(tree) == 1

    def test_half_box_session_matches_numpy(self):
        p = random_cube(500, seed=19)
        pos = p.positions.copy()
        pos[:12] = pos[100]
        particles = ParticleSet(pos, p.charges)
        out = {}
        for backend in ("fused", "numpy"):
            params = TreecodeParams(
                theta=0.7, degree=3, max_leaf_size=8, max_batch_size=8,
                shrink_to_fit=False, backend=backend,
            )
            sess = BarycentricTreecode(CoulombKernel(), params).prepare(
                particles
            )
            out[backend] = sess.apply(p.charges, compute_forces=True)
            sess.tree.validate()
        assert np.isfinite(out["fused"].potential).all()
        assert np.allclose(
            out["fused"].potential, out["numpy"].potential, rtol=1e-9
        )
        assert np.allclose(out["fused"].forces, out["numpy"].forces, rtol=1e-8)


class TestClusterTree:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_positions(self, bad):
        # A NaN coordinate made the box midpoint NaN, every point landed
        # in child 0 and the build never terminated.
        pts = random_cube(200, seed=3).positions.copy()
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ClusterTree(pts, 100)

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: ClusterTree(p, 2.5),
            lambda p: ClusterTree(p, True),
            lambda p: ClusterTree(p, np.float64(50.7)),
            lambda p: TargetBatches(p, 7.9),
        ],
        ids=["float", "bool", "np-float", "batches-float"],
    )
    def test_rejects_non_integer_leaf_size(self, make):
        with pytest.raises(ValueError, match="integer"):
            make(random_cube(100, seed=20).positions)

    def test_accepts_numpy_integer_leaf_size(self):
        tree = ClusterTree(random_cube(100, seed=20).positions, np.int64(10))
        assert tree.max_leaf_size == 10 and type(tree.max_leaf_size) is int

    def test_invariants_uniform(self):
        p = random_cube(800, seed=0)
        tree = ClusterTree(p.positions, 50)
        tree.validate()

    def test_invariants_clustered(self):
        p = gaussian_clusters(600, n_clusters=5, seed=1, spread=0.02)
        tree = ClusterTree(p.positions, 40)
        tree.validate()

    def test_leaf_sizes_respect_nl(self):
        p = random_cube(500, seed=2)
        tree = ClusterTree(p.positions, 64)
        assert np.all(tree.node_counts[_leaves(tree)] <= 64)
        assert tree.n_leaves == len(_leaves(tree))

    def test_leaf_union_is_everything(self):
        p = random_cube(300, seed=3)
        tree = ClusterTree(p.positions, 32)
        all_idx = np.concatenate([tree.node_indices(l) for l in _leaves(tree)])
        assert sorted(all_idx.tolist()) == list(range(300))
        lm = tree.leaf_map()
        for leaf in _leaves(tree):
            assert np.all(lm[tree.node_indices(leaf)] == leaf)

    def test_single_leaf_when_small(self):
        p = random_cube(10, seed=4)
        tree = ClusterTree(p.positions, 100)
        assert len(tree) == 1 and tree.view().is_leaf[0]
        assert tree.max_level == 0

    def test_children_tile_their_parent(self):
        """The packed tree array relies on BFS child contiguity."""
        p = random_cube(2000, seed=5)
        tree = ClusterTree(p.positions, 50)
        v = tree.view()
        for i in np.flatnonzero(~v.is_leaf):
            kids = np.arange(v.first_child[i], v.first_child[i] + v.n_children[i])
            assert v.starts[kids[0]] == v.starts[i]
            assert v.ends[kids[-1]] == v.ends[i]
            assert np.array_equal(v.ends[kids[:-1]], v.starts[kids[1:]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClusterTree(np.zeros((0, 3)), 10)

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            ClusterTree(np.zeros((5, 3)), 0)

    def test_tree_array_roundtrip(self):
        p = random_cube(600, seed=10)
        tree = ClusterTree(p.positions, 80)
        arr = tree.tree_array()
        assert arr.shape == (len(tree), TREE_ARRAY_FIELDS)
        assert not arr.flags.writeable
        for i, row in enumerate(arr):
            pts = tree.node_points(i)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            # Bitwise: the traversal reads these rows.
            assert np.array_equal(row[0:3], 0.5 * (lo + hi))
            assert row[3] == 0.5 * float(np.linalg.norm(hi - lo))
            assert row[10] == len(pts)
            assert row[13] == (1.0 if row[15] == 0 else 0.0)


class TestTargetBatches:
    def test_batch_sizes_respect_nb(self):
        p = random_cube(700, seed=11)
        batches = TargetBatches(p.positions, 90)
        assert np.all(batches.sizes() <= 90)

    def test_batches_cover_all_targets_once(self):
        p = random_cube(500, seed=12)
        batches = TargetBatches(p.positions, 64)
        seen = np.concatenate(
            [batches.batch_indices(b) for b in range(len(batches))]
        )
        assert sorted(seen.tolist()) == list(range(500))

    def test_batches_equal_source_leaves_when_same_params(self):
        """Paper: with targets == sources and NB == NL, batches are the
        leaves of the source tree."""
        p = random_cube(900, seed=13)
        tree = ClusterTree(p.positions, 100)
        batches = TargetBatches(p.positions, 100)
        leaf_sets = sorted(
            tuple(sorted(tree.node_indices(l))) for l in _leaves(tree)
        )
        batch_sets = sorted(
            tuple(sorted(batches.batch_indices(b)))
            for b in range(len(batches))
        )
        assert leaf_sets == batch_sets

    def test_geometry_accessors(self):
        p = random_cube(300, seed=14)
        batches = TargetBatches(p.positions, 50)
        assert batches.centers().shape == (len(batches), 3)
        assert batches.radii().shape == (len(batches),)
        assert np.array_equal(
            batches.sizes(), batches.tree.node_counts[batches.node_ids]
        )
        batches.validate()


class TestTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        leaf=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_trees_valid(self, n, leaf, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(n, 3))
        tree = ClusterTree(pts, leaf)
        tree.validate()

    @settings(max_examples=15, deadline=None)
    @given(
        pts=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 120), st.just(3)),
            elements=st.floats(-1, 1, allow_nan=False),
        ),
    )
    def test_arbitrary_point_sets_valid(self, pts):
        tree = ClusterTree(pts, 8)
        tree.validate()
