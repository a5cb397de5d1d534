"""Integration tests for the distributed BLTC (RCB + LET + RMA)."""

import numpy as np
import pytest

from repro import (
    CoulombKernel,
    DistributedBLTC,
    BarycentricTreecode,
    TreecodeParams,
    YukawaKernel,
    direct_sum,
    random_cube,
    relative_l2_error,
)
from repro.distributed.letree import build_let
from repro.core.interaction_lists import (
    build_interaction_lists,
    record_traversal,
)
from repro.mpi import SimComm
from repro.tree import ClusterTree, TargetBatches, TreeView


@pytest.fixture(scope="module")
def cube():
    return random_cube(2400, seed=11)


@pytest.fixture(scope="module")
def ref(cube):
    return direct_sum(
        cube.positions, cube.positions, cube.charges, CoulombKernel()
    )


def _params(**kw):
    base = dict(theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150)
    base.update(kw)
    return TreecodeParams(**base)


def _fetched_view(tree):
    """``tree``'s packed array after a window round-trip, as rank 0
    sees it when fetched from rank 1."""
    comm = SimComm(2)
    comm.rank_handle(1).create_window("tree", tree.tree_array())
    return TreeView(comm.rank_handle(0).get(1, "tree"))


class TestFetchedTreeView:
    def test_traversal_matches_local_tree(self, cube):
        tree = ClusterTree(cube.positions, 150)
        batches = TargetBatches(cube.positions[::3], 100)
        params = _params()
        remote = _fetched_view(tree)
        local = build_interaction_lists(batches, tree, params)
        fetched = build_interaction_lists(batches, remote, params)
        assert fetched.mac_evals == local.mac_evals
        for a, b in zip(local.csr(), fetched.csr()):
            assert np.array_equal(a, b)
        rec_local = record_traversal(batches, tree, params)
        rec_fetched = record_traversal(batches, remote, params)
        for a, b in zip(rec_local.nodes + rec_local.cats,
                        rec_fetched.nodes + rec_fetched.cats):
            assert np.array_equal(a, b)

    def test_box_roundtrip(self, cube):
        tree = ClusterTree(cube.positions, 200)
        remote = _fetched_view(tree)
        assert np.array_equal(remote.array, tree.tree_array())
        for i in range(len(tree)):
            pts = tree.node_points(i)
            assert np.array_equal(remote.lo[i], pts.min(axis=0))
            assert np.array_equal(remote.hi[i], pts.max(axis=0))

    @pytest.mark.parametrize("shape", [(3, 5), (16,), (2, 16, 1)])
    def test_rejects_malformed_array(self, shape):
        with pytest.raises(ValueError):
            TreeView(np.zeros(shape))


class TestCorrectness:
    def test_one_rank_equals_single_device(self, cube):
        params = _params()
        single = BarycentricTreecode(CoulombKernel(), params).compute(cube)
        dist = DistributedBLTC(CoulombKernel(), params, n_ranks=1).compute(cube)
        assert np.allclose(single.potential, dist.potential, rtol=1e-12)

    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 6])
    def test_multirank_accuracy(self, cube, ref, n_ranks):
        dist = DistributedBLTC(
            CoulombKernel(), _params(), n_ranks=n_ranks
        ).compute(cube)
        err = relative_l2_error(ref, dist.potential)
        assert err < 1e-4  # same order as the single-device treecode

    def test_rank_count_does_not_change_accuracy_class(self, cube, ref):
        errs = []
        for r in (1, 4):
            dist = DistributedBLTC(
                CoulombKernel(), _params(degree=6), n_ranks=r
            ).compute(cube)
            errs.append(relative_l2_error(ref, dist.potential))
        assert max(errs) < 1e-5

    def test_yukawa_distributed(self, cube):
        kernel = YukawaKernel(0.5)
        ref_y = direct_sum(cube.positions, cube.positions, cube.charges, kernel)
        dist = DistributedBLTC(kernel, _params(degree=6), n_ranks=3).compute(cube)
        assert relative_l2_error(ref_y, dist.potential) < 1e-5

    def test_too_many_ranks(self):
        p = random_cube(3, seed=0)
        with pytest.raises(ValueError):
            DistributedBLTC(CoulombKernel(), _params(), n_ranks=5).compute(p)


def _rank_windows(particles, n_ranks, params):
    """RCB-partition ``particles`` and expose each rank's LET windows."""
    from repro.core.moments import precompute_moments
    from repro.mpi import SimComm
    from repro.partition import rcb_partition
    from repro.tree import TargetBatches

    labels = rcb_partition(particles.positions, n_ranks)
    comm = SimComm(n_ranks)
    trees, batch_sets = [], []
    for r in range(n_ranks):
        loc = particles.subset(np.nonzero(labels == r)[0])
        tree = ClusterTree(loc.positions, params.max_leaf_size)
        batches = TargetBatches(loc.positions, params.max_batch_size)
        m = precompute_moments(tree, loc.charges, params)
        h = comm.rank_handle(r)
        h.create_window("tree", tree.tree_array())
        h.create_window("srcpos", loc.positions[tree.perm])
        h.create_window("srcq", loc.charges[tree.perm])
        h.create_window("moments", m.packed(len(tree)))
        trees.append(tree)
        batch_sets.append(batches)
    return comm, trees, batch_sets


class TestLetConstruction:
    def test_let_contains_exactly_referenced_nodes(self, cube):
        """The LET holds data for precisely the clusters the interaction
        lists reference -- no more, no less (Sec. 3.1)."""
        params = _params()
        comm, _, batch_sets = _rank_windows(cube, 2, params)
        let, _ = build_let(comm.rank_handle(0), batch_sets[0], params)
        lists = let.lists[1]
        referenced_direct = {int(c) for d in lists.direct for c in d}
        referenced_approx = {int(c) for a in lists.approx for c in a}
        assert set(let.direct_data[1]) == referenced_direct
        assert set(let.approx_data[1]) == referenced_approx
        assert let.n_remote_clusters() == len(referenced_direct) + len(
            referenced_approx
        )
        assert let.nbytes() > 0

    def test_per_remote_mac_evals_sum_to_the_total(self, cube):
        """Each remote's lists count only the MAC evaluations of their
        own traversal -- the same count a traversal of that rank's tree
        gives -- and together they make up the returned total."""
        params = _params()
        comm, trees, batch_sets = _rank_windows(cube, 4, params)
        let, mac_evals = build_let(comm.rank_handle(0), batch_sets[0], params)
        per_remote = {s: lists.mac_evals for s, lists in let.lists.items()}
        assert sorted(per_remote) == [1, 2, 3]
        assert sum(per_remote.values()) == mac_evals
        for s, evals in per_remote.items():
            own = build_interaction_lists(batch_sets[0], trees[s], params)
            assert evals == own.mac_evals, s

    def test_let_grows_sublinearly_with_ranks(self):
        """Well-separated ranks exchange few clusters: total RMA bytes per
        rank must grow much slower than the remote data volume."""
        p = random_cube(4000, seed=12)
        params = _params(theta=0.9, degree=2, max_leaf_size=100,
                         max_batch_size=100)
        res = DistributedBLTC(
            CoulombKernel(), params, n_ranks=8
        ).compute(p)
        for r_stats in res.stats["per_rank"]:
            remote_total_bytes = (4000 - r_stats["n_local"]) * 32
            assert r_stats["rma_bytes"] < remote_total_bytes


class TestTimingAggregation:
    def test_phase_records(self, cube):
        res = DistributedBLTC(CoulombKernel(), _params(), n_ranks=3).compute(cube)
        assert res.n_ranks == 3
        assert len(res.comm_seconds) == 3
        for p in res.rank_phases:
            assert p.setup > 0 and p.precompute > 0 and p.compute > 0
        agg = res.aggregate_phases()
        assert agg.total >= max(p.total for p in res.rank_phases) / 3
        assert res.total_seconds > 0

    def test_strong_scaling_reduces_time(self):
        """More GPUs -> less simulated time for a fixed problem."""
        p = random_cube(8000, seed=13)
        params = _params(degree=3, max_leaf_size=200, max_batch_size=200)
        t1 = DistributedBLTC(CoulombKernel(), params, n_ranks=1).compute(p)
        t4 = DistributedBLTC(CoulombKernel(), params, n_ranks=4).compute(p)
        assert t4.total_seconds < t1.total_seconds

    def test_overlap_comm_not_slower(self, cube):
        params = _params()
        plain = DistributedBLTC(
            CoulombKernel(), params, n_ranks=4, overlap_comm=False
        ).compute(cube)
        overlapped = DistributedBLTC(
            CoulombKernel(), params, n_ranks=4, overlap_comm=True
        ).compute(cube)
        assert overlapped.total_seconds <= plain.total_seconds + 1e-12
        assert np.allclose(plain.potential, overlapped.potential)

    def test_comm_seconds_monotone_nonnegative(self, cube):
        res = DistributedBLTC(CoulombKernel(), _params(), n_ranks=4).compute(cube)
        assert all(c >= 0 for c in res.comm_seconds)
        assert res.stats["total_rma_bytes"] > 0
