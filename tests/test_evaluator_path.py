"""The plan evaluator's path rule: the plan's group shape picks it.

``"fused"`` runs the stacked path when the kernel is radial and the
plan's mean target rows per group fall below
:data:`~repro.core.backends.fused.STACKED_MAX_MEAN_ROWS`, the per-group
path otherwise.  The contract:

* on one plan the path does not depend on the charge width, the dtype
  or forces -- each apply is bitwise the pinned path's;
* a session updated onto new positions picks what a cold prepare there
  picks, also with the cut placed exactly at the plan's mean;
* the benchmark recipes land on their measured sides, and a
  ``"batched"`` session on a large-group plan builds no layout.
"""

import os
import sys

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    ParticleSet,
    TreecodeParams,
    random_cube,
)
from repro.core.backends import fused as plan_evaluator

E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e",
)

#: Group shapes well inside each side of the cut: NB = NL = 8 gives
#: about 4 targets per group, NB = NL = 120 about 60.
PLANS = {"stacked": 8, "per-group": 120}


def _params(leaf, **kw):
    base = dict(
        theta=0.7, degree=3, max_leaf_size=leaf, max_batch_size=leaf,
        backend="fused",
    )
    base.update(kw)
    return TreecodeParams(**base)


def _mean_rows(plan):
    return plan.n_target_rows / plan.n_groups


@pytest.fixture(scope="module")
def cube():
    return random_cube(800, seed=61)


class TestInvariantPath:
    @pytest.mark.parametrize("forces", [False, True], ids=["pot", "forces"])
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32], ids=["f64", "f32"]
    )
    @pytest.mark.parametrize("n_rhs", [1, 4])
    @pytest.mark.parametrize("path", list(PLANS))
    def test_apply_is_the_pinned_path(
        self, cube, path, n_rhs, dtype, forces, use_backend
    ):
        rng = np.random.default_rng(4)
        q = rng.uniform(-1.0, 1.0, (cube.n, n_rhs) if n_rhs > 1 else cube.n)
        drv = BarycentricTreecode(
            CoulombKernel(), _params(PLANS[path], dtype=dtype)
        )
        sess = drv.prepare(cube)
        mean = _mean_rows(sess.plan)
        cut = plan_evaluator.STACKED_MAX_MEAN_ROWS
        assert (mean < cut / 2) if path == "stacked" else (mean > 2 * cut)
        free = sess.apply(q, compute_forces=forces)
        assert (sess.plan.batched_layout is not None) == (path == "stacked")
        use_backend(path)
        pinned = drv.prepare(cube).apply(q, compute_forces=forces)
        assert free.potential.tobytes() == pinned.potential.tobytes()
        if forces:
            assert free.forces.tobytes() == pinned.forces.tobytes()


class TestUpdateAtTheCut:
    """The cut sits exactly at one geometry's mean rows; an update onto
    a geometry with more, smaller groups crosses it."""

    @pytest.mark.parametrize(
        "start, path_before, path_after",
        [("few", "per-group", "stacked"), ("many", "stacked", "per-group")],
    )
    def test_update_picks_what_a_cold_prepare_picks(
        self, cube, start, path_before, path_after, use_backend, monkeypatch
    ):
        drv = BarycentricTreecode(CoulombKernel(), _params(40))
        spread = cube.positions + np.random.default_rng(8).normal(
            scale=0.5, size=cube.positions.shape
        )
        few, many = cube.positions, spread  # 64 and 88 groups
        first, then = (few, many) if start == "few" else (many, few)
        sess = drv.prepare(ParticleSet(first, cube.charges))
        mean = _mean_rows(sess.plan)
        # Not below the cut when equal: a plan at the cut is per-group.
        cut = mean if path_before == "per-group" else np.nextafter(
            mean, np.inf
        )
        monkeypatch.setattr(plan_evaluator, "STACKED_MAX_MEAN_ROWS", cut)
        sess.apply(cube.charges)
        assert (sess.plan.batched_layout is not None) == (
            path_before == "stacked"
        )
        sess.update_geometry(then)
        warm = sess.apply(cube.charges, compute_forces=True)
        cold = drv.prepare(ParticleSet(then, cube.charges)).apply(
            cube.charges, compute_forces=True
        )
        use_backend(path_after)
        pinned = drv.prepare(ParticleSet(then, cube.charges)).apply(
            cube.charges, compute_forces=True
        )
        for res in (cold, pinned):
            assert warm.potential.tobytes() == res.potential.tobytes()
            assert warm.forces.tobytes() == res.forces.tobytes()


class TestMeasuredSides:
    @pytest.fixture(scope="class")
    def workloads(self):
        sys.path.insert(0, E2E)
        try:
            from e2e_workloads import WORKLOADS, Inputs
        finally:
            sys.path.remove(E2E)
        return WORKLOADS, Inputs

    @pytest.mark.parametrize(
        "name, stacked",
        [
            ("cube_default", False),
            ("cube_fine", True),
            ("plummer_md", False),
            ("sphere_rhs16", False),
        ],
    )
    def test_benchmark_recipes(self, workloads, name, stacked):
        specs, inputs = workloads
        spec = specs[name]
        sess = spec.driver().prepare(inputs(spec, 0, "full").particles())
        assert plan_evaluator.uses_stacked_path(
            sess.plan, sess.kernel
        ) == stacked

    def test_batched_name_builds_no_layout_on_large_groups(self, cube):
        sess = BarycentricTreecode(
            CoulombKernel(), _params(PLANS["per-group"]).with_(
                backend="batched"
            )
        ).prepare(cube)
        sess.apply(cube.charges)
        assert sess.memory_stats()["batched_pad_bytes"] == 0
        assert sess.plan.batched_layout is None
