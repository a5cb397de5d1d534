"""Tests for the batch/cluster dual traversal (BLTC algorithm lines 10-20)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TreecodeParams
from repro.core.interaction_lists import (
    build_interaction_lists,
    traverse_batch,
)
from repro.tree import ClusterTree, TargetBatches
from repro.workloads import random_cube


def _setup(n=600, nl=60, seed=0):
    p = random_cube(n, seed=seed)
    tree = ClusterTree(p.positions, nl)
    batches = TargetBatches(p.positions, nl)
    return p, tree, batches


class TestCoverage:
    """The fundamental traversal invariant: for every batch, the union of
    approximated clusters and directly-summed clusters covers every source
    particle exactly once."""

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("degree", [1, 4, 8])
    def test_exact_cover(self, theta, degree):
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=theta, degree=degree, max_leaf_size=60, max_batch_size=60
        )
        lists = build_interaction_lists(batches, tree, params)
        for b in range(len(batches)):
            covered = np.zeros(tree.n_particles, dtype=int)
            for c in lists.approx[b]:
                covered[tree.node_indices(int(c))] += 1
            for c in lists.direct[b]:
                covered[tree.node_indices(int(c))] += 1
            assert covered.min() == 1 and covered.max() == 1

    def test_cover_without_size_check(self):
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=0.7, degree=2, max_leaf_size=60, max_batch_size=60,
            size_check=False,
        )
        lists = build_interaction_lists(batches, tree, params)
        for b in range(len(batches)):
            covered = np.zeros(tree.n_particles, dtype=int)
            for c in lists.approx[b]:
                covered[tree.node_indices(int(c))] += 1
            for c in lists.direct[b]:
                covered[tree.node_indices(int(c))] += 1
            assert covered.min() == 1 and covered.max() == 1


class TestMacSemantics:
    def test_approximated_clusters_satisfy_mac(self):
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=0.6, degree=3, max_leaf_size=60, max_batch_size=60
        )
        lists = build_interaction_lists(batches, tree, params)
        n_ip = params.n_interpolation_points
        view = tree.view()
        for b in range(len(batches)):
            center, radius = batches.centers()[b], batches.radii()[b]
            for c in lists.approx[b]:
                dist = np.linalg.norm(center - view.centers[c])
                assert (radius + view.radii[c]) / dist < params.theta
                assert n_ip < view.counts[c]

    def test_small_clusters_never_approximated(self):
        """Size condition: degree 8 needs clusters with > 729 particles;
        with NL=60 no cluster below ~level-capped sizes qualifies unless
        it is a big internal node."""
        p, tree, batches = _setup(n=500, nl=60)
        params = TreecodeParams(
            theta=0.9, degree=8, max_leaf_size=60, max_batch_size=60
        )
        lists = build_interaction_lists(batches, tree, params)
        for b in range(len(batches)):
            for c in lists.approx[b]:
                assert tree.node_counts[c] > 729

    def test_direct_entries_are_leaves_or_small(self):
        """A direct-listed cluster is either a leaf (geometric MAC failed
        at a leaf) or an internal node that passed geometrically but
        failed the size check."""
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=0.7, degree=4, max_leaf_size=60, max_batch_size=60
        )
        n_ip = params.n_interpolation_points
        lists = build_interaction_lists(batches, tree, params)
        view = tree.view()
        for b in range(len(batches)):
            center, radius = batches.centers()[b], batches.radii()[b]
            for c in lists.direct[b]:
                if not view.is_leaf[c]:
                    dist = np.linalg.norm(center - view.centers[c])
                    rsum = radius + view.radii[c]
                    assert rsum / dist < params.theta
                    assert n_ip >= view.counts[c]

    def test_tiny_theta_all_direct_leaves(self):
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=0.01, degree=2, max_leaf_size=60, max_batch_size=60
        )
        lists = build_interaction_lists(batches, tree, params)
        assert lists.n_approx == 0
        n_leaves = tree.n_leaves
        for b in range(len(batches)):
            assert len(lists.direct[b]) == n_leaves

    def test_looser_theta_more_approximations(self):
        p, tree, batches = _setup(n=2000, nl=50)
        base = dict(degree=2, max_leaf_size=50, max_batch_size=50)
        strict = build_interaction_lists(
            batches, tree, TreecodeParams(theta=0.4, **base)
        )
        loose = build_interaction_lists(
            batches, tree, TreecodeParams(theta=0.9, **base)
        )
        assert loose.n_direct <= strict.n_direct
        assert loose.mac_evals <= strict.mac_evals


class TestTraverseBatch:
    def test_far_away_batch_approximates_root(self):
        p, tree, _ = _setup(n=500, nl=50)
        params = TreecodeParams(
            theta=0.5, degree=2, max_leaf_size=50, max_batch_size=50
        )
        center = np.array([100.0, 0.0, 0.0])
        approx, direct, evals = traverse_batch(
            center, 0.5, tree.view(), params
        )
        assert approx == [0] and direct == [] and evals == 1

    def test_stats_counters(self):
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=60, max_batch_size=60
        )
        lists = build_interaction_lists(batches, tree, params)
        assert lists.n_batches == len(batches)
        assert lists.mac_evals >= lists.n_approx + lists.n_direct

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 500),
        theta=st.floats(0.1, 1.0),
        degree=st.integers(1, 6),
    )
    def test_property_exact_cover(self, seed, theta, degree):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(150, 3))
        tree = ClusterTree(pts, 20)
        batches = TargetBatches(pts, 20)
        params = TreecodeParams(
            theta=theta, degree=degree, max_leaf_size=20, max_batch_size=20
        )
        lists = build_interaction_lists(batches, tree, params)
        for b in range(len(batches)):
            covered = np.zeros(150, dtype=int)
            for c in np.concatenate([lists.approx[b], lists.direct[b]]):
                covered[tree.node_indices(int(c))] += 1
            assert np.all(covered == 1)


class TestCsrDtypes:
    """csr() dtype/no-copy behaviour (regression for the blanket astype)."""

    def test_dtypes_intp_both_branches(self):
        from repro.core.interaction_lists import InteractionLists

        empty = InteractionLists()
        a_ptr, a_ids, d_ptr, d_ids = empty.csr()
        for arr in (a_ptr, a_ids, d_ptr, d_ids):
            assert arr.dtype == np.intp
        p, tree, batches = _setup()
        params = TreecodeParams(
            theta=0.7, degree=3, max_leaf_size=60, max_batch_size=60
        )
        lists = build_interaction_lists(batches, tree, params)
        a_ptr, a_ids, d_ptr, d_ids = lists.csr()
        for arr in (a_ptr, a_ids, d_ptr, d_ids):
            assert arr.dtype == np.intp

    def test_no_copy_when_already_intp(self, monkeypatch):
        """astype(np.intp, copy=False) must return the concatenated
        array itself, not a duplicate."""
        from repro.core.interaction_lists import InteractionLists

        lists = InteractionLists()
        lists.approx.append(np.array([1, 2], dtype=np.intp))
        lists.direct.append(np.array([3], dtype=np.intp))
        markers = []
        real_concatenate = np.concatenate

        def spying_concatenate(arrays, *a, **kw):
            out = real_concatenate(arrays, *a, **kw)
            markers.append(out)
            return out

        monkeypatch.setattr(np, "concatenate", spying_concatenate)
        _, a_ids, _, d_ids = lists.csr()
        assert any(a_ids is m for m in markers)
        assert any(d_ids is m for m in markers)
