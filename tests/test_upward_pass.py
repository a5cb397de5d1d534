"""The upward pass for the modified charges (``repro.core.moments``).

Every qualifying cluster's ``qhat`` must be eq. 12 over its own
particles, whichever way the pass reached it: contracted from particles,
transferred up from children, or both.  The clouds sit on a lattice of
spacing 1/16 in [-1, 1]^3, which produces duplicate particles,
degenerate (planar, linear, point) boxes and single-particle leaves
while keeping every non-degenerate box at least one lattice step wide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    ParticleSet,
    TreecodeParams,
)
from repro.core.moments import (
    modified_charges,
    precompute_moments,
    prepare_moment_grids,
    refresh_moments,
)
from repro.tree import ClusterTree
from repro.workloads import random_cube

SHAPES = ("cube", "planar", "line", "duplicates", "point")


@st.composite
def clouds(draw):
    """``(positions, charges)`` on the 1/16 lattice, in one of SHAPES."""
    n = draw(st.integers(1, 160))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-16, 17, size=(n, 3)) / 16.0
    if shape == "planar":
        pts[:, 2] = 0.25
    elif shape == "line":
        pts[:, 1:] = (0.5, -0.75)
    elif shape == "duplicates":
        pts = pts[rng.integers(0, max(1, n // 4), size=n)]
    elif shape == "point":
        pts[:] = pts[0]
    return pts, rng.uniform(0.5, 1.5, size=n)


@st.composite
def params(draw):
    return TreecodeParams(
        theta=0.8,
        degree=draw(st.integers(1, 8)),
        max_leaf_size=draw(st.integers(1, 40)),
        max_batch_size=16,
        size_check=draw(st.booleans()),
        shrink_to_fit=draw(st.booleans()),
    )


def _tree(pts, p):
    return ClusterTree(
        pts, p.max_leaf_size, shrink_to_fit=p.shrink_to_fit
    )


class TestEq12:
    @settings(max_examples=80, deadline=None)
    @given(cloud=clouds(), p=params())
    def test_every_cluster_matches_eq12(self, cloud, p):
        pts, q = cloud
        tree = _tree(pts, p)
        moments = precompute_moments(tree, q, p)
        for i in moments.ids.tolist():
            idx = tree.node_indices(i)
            ref = modified_charges(pts[idx], q[idx], moments.grid(i))
            got = moments.charges(i)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @settings(max_examples=60, deadline=None)
    @given(cloud=clouds(), p=params())
    def test_total_charge_per_cluster(self, cloud, p):
        pts, q = cloud
        tree = _tree(pts, p)
        moments = precompute_moments(tree, q, p)
        for i in moments.ids.tolist():
            total = q[tree.node_indices(i)].sum()
            assert moments.charges(i).sum() == pytest.approx(total, rel=1e-13)

    def test_n_below_leaf_size_is_one_leaf(self):
        pts = random_cube(30, seed=1).positions
        q = np.linspace(-1.0, 1.0, 30)
        p = TreecodeParams(degree=2, max_leaf_size=50, max_batch_size=50)
        tree = ClusterTree(pts, p.max_leaf_size)
        moments = precompute_moments(tree, q, p)
        assert moments.ids.tolist() == [0]
        assert moments.upward.levels == []
        ref = modified_charges(pts, q, moments.grid(0))
        np.testing.assert_allclose(moments.charges(0), ref, rtol=0, atol=1e-14)


class TestOwnership:
    def test_each_particle_contracted_once_without_degenerate_boxes(self):
        p = TreecodeParams(
            degree=3, max_leaf_size=40, max_batch_size=40, size_check=False
        )
        tree = ClusterTree(random_cube(2000, seed=2).positions, 40)
        up = prepare_moment_grids(tree, p).upward
        assert np.array_equal(np.sort(up.owned), np.arange(2000))
        assert len(up.levels) == tree.max_level

    def test_degenerate_children_contract_onto_the_parent(self):
        # A planar set: every box is flat in z, so nothing transfers and
        # each cluster contracts all of its own particles.
        pts = random_cube(600, seed=3).positions
        pts[:, 2] = 0.0
        p = TreecodeParams(degree=2, max_leaf_size=30, max_batch_size=30)
        tree = ClusterTree(pts, 30)
        moments = prepare_moment_grids(tree, p)
        assert moments.upward.levels == []
        assert len(moments.upward.owned) == tree.node_counts[moments.ids].sum()


class TestBitwiseContracts:
    @settings(max_examples=40, deadline=None)
    @given(cloud=clouds(), p=params())
    def test_column_equals_solo(self, cloud, p):
        pts, _ = cloud
        tree = _tree(pts, p)
        block = np.random.default_rng(len(pts)).normal(size=(len(pts), 3))
        moments = prepare_moment_grids(tree, p)
        solo = []
        for j in range(3):
            refresh_moments(moments, tree, block[:, j], p)
            solo.append(moments.qhat.copy())
        refresh_moments(moments, tree, block, p)
        for j in range(3):
            assert moments.qhat[..., j].tobytes() == solo[j].tobytes()

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_charge_block_layout_does_not_change_bits(self, layout):
        pts = random_cube(1500, seed=4)
        p = TreecodeParams(degree=3, max_leaf_size=60, max_batch_size=60)
        session = BarycentricTreecode(CoulombKernel(), p).prepare(pts)
        block = np.random.default_rng(5).normal(size=(1500, 4))
        ref = session.apply(block)
        ref_qhat = session.moments.qhat.copy()
        if layout == "F":
            other = np.asfortranarray(block)
        else:
            wide = np.zeros((1500, 8))
            wide[:, ::2] = block
            other = wide[:, ::2]
        got = session.apply(other)
        assert got.potential.tobytes() == ref.potential.tobytes()
        assert session.moments.qhat.tobytes() == ref_qhat.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(cloud=clouds(), p=params(), forces=st.booleans())
    def test_compute_equals_prepare_apply(self, cloud, p, forces):
        pts, q = cloud
        particles = ParticleSet(pts, q)
        tc = BarycentricTreecode(CoulombKernel(), p)
        one_shot = tc.compute(particles, compute_forces=forces)
        applied = tc.prepare(particles).apply(q, compute_forces=forces)
        assert one_shot.potential.tobytes() == applied.potential.tobytes()
        if forces:
            assert one_shot.forces.tobytes() == applied.forces.tobytes()

    @pytest.mark.parametrize(
        "moved_frac, threshold", [(0.05, 0.9), (0.5, 0.9), (0.5, 0.0)]
    )
    def test_update_equals_cold_prepare(self, moved_frac, threshold):
        # A few moved particles, half of them, and the same under a zero
        # rebuild threshold: partial grid refresh, full refresh, rebuild.
        p = TreecodeParams(
            degree=4, max_leaf_size=80, max_batch_size=80,
            rebuild_threshold=threshold,
        )
        rng = np.random.default_rng(6)
        pts = random_cube(3000, seed=6).positions
        q = rng.normal(size=(3000, 2))
        tc = BarycentricTreecode(CoulombKernel(), p)
        session = tc.prepare(ParticleSet(pts, q[:, 0]))
        session.apply(q)
        moved = pts.copy()
        sel = rng.random(3000) < moved_frac
        moved[sel] += 1e-3 * rng.standard_normal((sel.sum(), 3))
        update = session.update_geometry(moved)
        assert update.rebuilt == (threshold == 0.0)
        got = session.apply(q)
        cold = tc.prepare(ParticleSet(moved, q[:, 0]))
        want = cold.apply(q)
        assert session.moments.qhat.tobytes() == cold.moments.qhat.tobytes()
        assert got.potential.tobytes() == want.potential.tobytes()
