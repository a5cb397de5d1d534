"""Unit and property tests for repro.tree (boxes, octree, batches)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import ASPECT_RATIO_LIMIT
from repro.tree import Box, ClusterTree, TargetBatches, bounding_box
from repro.tree.octree import TREE_ARRAY_FIELDS
from repro.workloads import gaussian_clusters, random_cube


class TestBox:
    def test_center_radius_extents(self):
        b = Box(np.array([0.0, 0.0, 0.0]), np.array([2.0, 4.0, 6.0]))
        assert np.array_equal(b.center, [1.0, 2.0, 3.0])
        assert np.array_equal(b.extents, [2.0, 4.0, 6.0])
        assert b.radius == pytest.approx(0.5 * np.sqrt(4 + 16 + 36))

    def test_aspect_ratio(self):
        b = Box(np.zeros(3), np.array([1.0, 2.0, 4.0]))
        assert b.aspect_ratio == pytest.approx(4.0)

    def test_degenerate_aspect_ratio(self):
        b = Box(np.zeros(3), np.array([1.0, 0.0, 1.0]))
        assert b.aspect_ratio == np.inf
        point = Box(np.zeros(3), np.zeros(3))
        assert point.aspect_ratio == 1.0

    def test_contains(self):
        b = Box(np.zeros(3), np.ones(3))
        pts = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [0.0, 0.0, 1.0]])
        assert np.array_equal(b.contains(pts), [True, False, True])

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            Box(np.ones(3), np.zeros(3))

    def test_split_dimensions_cube_splits_all(self):
        b = Box(np.zeros(3), np.ones(3))
        assert set(b.split_dimensions(ASPECT_RATIO_LIMIT)) == {0, 1, 2}

    def test_split_dimensions_elongated_splits_long_only(self):
        """Fig. 2b: a 1/2 x 1/3 region bisects only its long dimension."""
        b = Box(np.zeros(3), np.array([0.5, 1.0 / 3.0, 0.5]))
        dims = set(b.split_dimensions(ASPECT_RATIO_LIMIT))
        assert dims == {0, 2}  # 1/3 < 0.5/sqrt(2) is false... check below
        # extent 1/3 vs threshold 0.5/sqrt(2)=0.3535: 1/3 < threshold,
        # so dimension 1 must NOT be split.
        assert 1 not in dims

    def test_bounding_box_minimal(self):
        pts = np.array([[0.0, 1.0, -1.0], [2.0, 3.0, 5.0], [1.0, 2.0, 0.0]])
        b = bounding_box(pts)
        assert np.array_equal(b.lo, [0.0, 1.0, -1.0])
        assert np.array_equal(b.hi, [2.0, 3.0, 5.0])

    def test_bounding_box_empty(self):
        with pytest.raises(ValueError):
            bounding_box(np.zeros((0, 3)))


class TestClusterTree:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_positions(self, bad):
        # A NaN coordinate made the box midpoint NaN, every point landed
        # in child 0 and the build never terminated.
        pts = random_cube(200, seed=3).positions.copy()
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ClusterTree(pts, 100)

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
        for leaf in tree.leaves():
            assert leaf.count <= 64

    def test_leaf_union_is_everything(self):
        p = random_cube(300, seed=3)
        tree = ClusterTree(p.positions, 32)
        all_idx = np.concatenate([tree.node_indices(l) for l in tree.leaves()])
        assert sorted(all_idx.tolist()) == list(range(300))

    def test_single_leaf_when_small(self):
        p = random_cube(10, seed=4)
        tree = ClusterTree(p.positions, 100)
        assert len(tree) == 1 and tree.root.is_leaf

    def test_children_consecutive_indices(self):
        """The packed tree array relies on BFS child contiguity."""
        p = random_cube(2000, seed=5)
        tree = ClusterTree(p.positions, 50)
        for nd in tree.nodes:
            if nd.children:
                ch = nd.children
                assert ch == list(range(ch[0], ch[0] + len(ch)))

    def test_minimal_boxes_touch_particles(self):
        """Shrink-to-fit: each box boundary touches a particle (Sec. 2.3)."""
        p = random_cube(400, seed=6)
        tree = ClusterTree(p.positions, 50, shrink_to_fit=True)
        for nd in tree.nodes:
            pts = tree.node_points(nd)
            assert np.allclose(pts.min(axis=0), nd.box.lo)
            assert np.allclose(pts.max(axis=0), nd.box.hi)

    def test_aspect_ratio_rule_limits_children(self):
        """An elongated slab should produce 2-way (not 8-way) splits."""
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(400, 3))
        pts[:, 0] *= 8.0  # 8:1:1 slab
        tree = ClusterTree(pts, 50, aspect_ratio_splitting=True)
        assert len(tree.root.children) == 2

    def test_without_aspect_rule_cube_gets_eight(self):
        p = random_cube(4000, seed=8)
        tree = ClusterTree(p.positions, 100, aspect_ratio_splitting=False)
        assert len(tree.root.children) == 8

    def test_children_aspect_ratios_bounded(self):
        p = random_cube(3000, seed=9)
        tree = ClusterTree(p.positions, 50, shrink_to_fit=False)
        for nd in tree.nodes:
            if nd.box.extents.min() > 0:
                # Allow a little slack: the rule bounds the *splitting*
                # geometry; shrunk boxes can only get less elongated.
                assert nd.box.aspect_ratio <= 2 * ASPECT_RATIO_LIMIT + 1e-9

    def test_duplicate_points_terminate(self):
        """Coincident particles cannot be split -- must become a leaf."""
        pts = np.tile(np.array([[0.5, 0.5, 0.5]]), (20, 1))
        tree = ClusterTree(pts, 4)
        tree.validate()
        assert tree.root.is_leaf

    def test_mixed_duplicates_terminate(self):
        pts = np.vstack(
            [np.tile([[0.1, 0.2, 0.3]], (15, 1)), np.tile([[0.9, 0.8, 0.7]], (15, 1))]
        )
        tree = ClusterTree(pts, 4)
        tree.validate()

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
        for nd in tree.nodes:
            row = arr[nd.index]
            # Bitwise: the traversal reads these instead of the boxes.
            assert np.array_equal(row[0:3], nd.box.center)
            assert row[3] == nd.box.radius
            assert row[10] == nd.count
            assert row[13] == (1.0 if nd.is_leaf else 0.0)
            if nd.children:
                assert int(row[14]) == nd.children[0]
                assert int(row[15]) == len(nd.children)

    def test_rebin_refreshes_packed_view(self):
        """After a successful rebin the cached packed array is rebuilt:
        bitwise what a cold tree over the moved points packs."""
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
            tuple(sorted(tree.node_indices(l))) for l in tree.leaves()
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
