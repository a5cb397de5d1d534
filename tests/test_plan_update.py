"""``update_geometry``'s plan step is a cold compile.

An incremental update re-bins the trees and patches the interaction
lists, then compiles a fresh plan from them.  After every step the
session's plan must equal, byte for byte, a cold ``compile_plan`` of
the session's own tree, batches, moments and lists -- and the next
apply must be bitwise a cold ``prepare().apply()``.  The cases are the
update tiers the plan step used to distinguish: a move onto a leaf mate
(no group's segments or rows change), a structural drift, moved
disjoint targets and a drift past the default rebuild threshold taken
incrementally at ``rebuild_threshold=1``; each with and without
forces, for one and three charge columns.

A failed update leaves the session stale: applies refuse with
:class:`~repro.errors.GeometryUpdateError` (pickled or not) until the
next update, which rebuilds from scratch.
"""

import pickle

import numpy as np
import pytest

import repro.core.dynamic as dynamic
from repro import BarycentricTreecode, TreecodeParams, YukawaKernel
from repro import random_cube
from repro.core.plan import compile_plan
from repro.errors import GeometryUpdateError
from repro.workloads import ParticleSet

from test_plan_assembly import assert_same_plan


def _driver(**kw):
    params = dict(
        theta=0.7, degree=2, max_leaf_size=40, max_batch_size=40,
        rebuild_threshold=1.0,
    )
    params.update(kw)
    return BarycentricTreecode(YukawaKernel(0.5), TreecodeParams(**params))


@pytest.fixture(scope="module")
def cube():
    return random_cube(400, seed=41)


def _leaf_mates(sess):
    """``(i, j, k)``: particles i, j share a leaf, k sits in another."""
    leaf_map = sess.tree.leaf_map()
    members = np.nonzero(leaf_map == leaf_map[0])[0]
    other = np.nonzero(leaf_map != leaf_map[0])[0]
    return int(members[0]), int(members[1]), int(other[0])


def _steps(tier, sess, cube):
    """``(positions, targets)`` of each update step of a tier."""
    pos = cube.positions
    if tier in ("leaf-mate", "structural"):
        i, mate, stranger = _leaf_mates(sess)
        moved = pos.copy()
        moved[i] = pos[mate if tier == "leaf-mate" else stranger]
        return [(moved, None), (pos.copy(), None)]
    rng = np.random.default_rng(1)
    if tier == "disjoint-targets":
        targets = sess.core.geometry.batches.positions
        return [
            (pos + rng.normal(scale=0.004, size=pos.shape),
             targets + rng.normal(scale=0.004, size=targets.shape))
            for _ in range(2)
        ]
    return [(pos + rng.normal(scale=0.1, size=pos.shape), None)]


def _seg_sizes(plan, g):
    lo, hi = plan.seg_group_ptr[g], plan.seg_group_ptr[g + 1]
    return np.diff(plan.seg_ptr[lo:hi + 1])


def _same(a, b):
    if a.forces is not None or b.forces is not None:
        if a.forces.tobytes() != b.forces.tobytes():
            return False
    return a.potential.tobytes() == b.potential.tobytes()


@pytest.mark.parametrize("n_rhs", (1, 3))
@pytest.mark.parametrize("forces", (False, True), ids=("phi", "forces"))
@pytest.mark.parametrize(
    "tier", ("leaf-mate", "structural", "disjoint-targets", "large-drift")
)
def test_updated_plan_is_a_cold_compile(tier, forces, n_rhs, cube):
    drv = _driver()
    targets = None
    if tier == "disjoint-targets":
        targets = np.random.default_rng(3).random((250, 3)) * 0.9 + 0.05
    sess = drv.prepare(cube, targets)
    q = np.random.default_rng(3).uniform(-1.0, 1.0, (cube.n, n_rhs))
    q = q[:, 0] if n_rhs == 1 else q
    sess.apply(q, compute_forces=forces)
    for positions, new_targets in _steps(tier, sess, cube):
        old = sess.plan
        result = sess.update_geometry(positions, targets=new_targets)
        assert not result.rebuilt and not result.noop
        geometry = sess.core.geometry
        assert_same_plan(sess.plan, compile_plan(
            geometry.tree, geometry.batches, geometry.moments, geometry.lists
        ))
        # The count covers at least the groups whose segments or target
        # rows changed, and nothing when none did.
        changed = sum(
            not np.array_equal(_seg_sizes(old, g), _seg_sizes(sess.plan, g))
            or old.group_size(g) != sess.plan.group_size(g)
            for g in range(old.n_groups)
        )
        assert result.n_patched_groups >= changed
        assert (result.n_patched_groups == 0) == (tier == "leaf-mate")
        warm = sess.apply(q, compute_forces=forces)
        cold = drv.prepare(
            ParticleSet(positions, cube.charges),
            geometry.batches.positions if targets is not None else None,
        ).apply(q, compute_forces=forces)
        assert _same(warm, cold)


class TestStaleSession:
    """A failure midway through an update must not leave a session that
    serves potentials of neither geometry."""

    @pytest.mark.parametrize("scale", (1e-6, 2e-3))
    @pytest.mark.parametrize("step", ("verify_traversal", "compile_plan"))
    def test_failed_update_refuses_then_rebuilds(
        self, step, scale, cube, monkeypatch
    ):
        drv = _driver(rebuild_threshold=0.25)
        sess = drv.prepare(cube)
        sess.apply(cube.charges)
        moved = cube.positions + np.random.default_rng(4).normal(
            scale=scale, size=cube.positions.shape
        )

        def fail(*args, **kwargs):
            raise RuntimeError(f"injected failure in {step}")

        with monkeypatch.context() as patch:
            patch.setattr(dynamic, step, fail)
            with pytest.raises(GeometryUpdateError, match=step):
                sess.update_geometry(moved)
        assert sess.core.geometry_stale
        with pytest.raises(GeometryUpdateError, match="re-prepare"):
            sess.apply(cube.charges)
        restored = pickle.loads(pickle.dumps(sess))
        with pytest.raises(GeometryUpdateError, match="re-prepare"):
            restored.apply(cube.charges)

        # Retrying the same positions is no no-op: the state the failed
        # update left behind already holds them.
        for session in (sess, restored):
            result = session.update_geometry(moved)
            assert result.rebuilt and result.reason == "previous update failed"
            assert not session.core.geometry_stale
            warm = session.apply(cube.charges, compute_forces=True)
            cold = drv.prepare(ParticleSet(moved, cube.charges)).apply(
                cube.charges, compute_forces=True
            )
            assert _same(warm, cold)

    def test_input_errors_leave_the_session_serving(self, cube):
        sess = _driver().prepare(cube)
        with pytest.raises(ValueError, match="shape"):
            sess.update_geometry(cube.positions[:-1])
        assert not sess.core.geometry_stale
        sess.apply(cube.charges)
