"""One plan compiler for single-device and distributed BLTC plans.

``compile_plan`` compiles both; a rank's locally essential tree only
appends remote owners.  With one rank there are none, so the rank plan
of ``DistributedBLTC.prepare`` must be byte for byte the plan of
``BarycentricTreecode.prepare`` on the same particles: every geometry
array, the kind vocabulary, the output size, every weight slot's rows
and, after one apply, the weights.  A second compiler that drifts from
the first fails here.  With more ranks, each batch's segments keep the
merge order of ``batch_keys`` (kept in ``tests/test_plan_assembly.py``
as the reference).
"""

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    DistributedBLTC,
    TreecodeParams,
    random_cube,
)
from repro.core.session import _PLAN_GEOMETRY_FIELDS


def _assert_same_bytes(a, b, what):
    if a is None or b is None:
        assert a is None and b is None, what
        return
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def _slot_rows(plan):
    if plan.weight_slots is None:
        return None
    return [(lo, hi) for _key, lo, hi in plan.weight_slots]


@pytest.mark.parametrize(
    "backend", ["numpy", "model"], ids=["numerics", "model"]
)
def test_one_rank_plan_is_the_single_device_plan(backend):
    cube = random_cube(3000, seed=23)
    params = TreecodeParams(
        theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150,
        backend=backend,
    )
    model = backend == "model"
    kernel = CoulombKernel()
    rank_session = DistributedBLTC(kernel, params, n_ranks=1).prepare(cube)
    session = BarycentricTreecode(kernel, params).prepare(cube)
    (rank_plan,) = rank_session.plans
    plan = session.plan
    assert set(plan.kind_names) == {"approx", "direct"}
    assert rank_plan.kind_names == plan.kind_names
    assert rank_plan.out_size == plan.out_size
    for name in _PLAN_GEOMETRY_FIELDS:
        _assert_same_bytes(getattr(rank_plan, name), getattr(plan, name), name)
    assert _slot_rows(rank_plan) == _slot_rows(plan)
    assert (_slot_rows(plan) is None) == model

    rank_res = rank_session.apply(cube.charges)
    res = session.apply(cube.charges)
    _assert_same_bytes(rank_plan.src_weights, plan.src_weights, "weights")
    assert np.array_equal(rank_res.potential, res.potential)
    if not model:
        assert np.any(plan.src_weights != 0.0)


@pytest.mark.parametrize("n_ranks", [3, 4])
def test_rank_plan_keeps_the_merge_order(n_ranks):
    # Per batch: local approx, each remote rank's approx by ascending
    # rank, then local direct and remote direct the same way -- the
    # order the blocked reference backend's arithmetic depends on.
    params = TreecodeParams(
        theta=0.7, degree=3, max_leaf_size=100, max_batch_size=100
    )
    session = DistributedBLTC(
        CoulombKernel(), params, n_ranks=n_ranks
    ).prepare(random_cube(3000, seed=29))
    owners_seen = set()
    for plan in session.plans:
        key_at = {lo: key for key, lo, _hi in plan.weight_slots}
        for g in range(plan.n_groups):
            segs = range(plan.seg_group_ptr[g], plan.seg_group_ptr[g + 1])
            keys = [key_at[int(plan.seg_src_lo[s])] for s in segs]
            kinds = [plan.kind_names[plan.seg_kind[s]] for s in segs]
            assert kinds == [key[0] for key in keys]
            order = [(key[0] != "approx", key[1]) for key in keys]
            assert order == sorted(order)
            owners_seen.update(key[1] for key in keys)
    assert len(owners_seen) == n_ranks + 1  # LOCAL and every rank
