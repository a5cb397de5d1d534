"""The per-group evaluator's array passes against its per-segment loop.

:func:`~repro.core.backends.groupeval.eval_group_range` gathers each
group's segments in the evaluation order the mirror schedule stores
(:func:`~repro.core.plan.evaluation_order`) and scatters a group's
mirrored products back in one add.  ``_reference_eval_group_range``
below is the loop it replaced: it re-derives each group's order from
``partner`` one list at a time, gathers one segment at a time and adds
each forward segment's rows back one slice at a time.  The two must
return the same bytes -- potentials and forces -- on generated clouds
(duplicated points, fewer points than a leaf, disjoint targets) and
the end-to-end recipes, under Coulomb and Yukawa, forces on and off,
one and three charge columns, mirrors on and off, and on the group
sub-ranges the multiprocessing shards evaluate.

The schedule invariants the one-add scatter relies on are checked
directly: per group the forward partners are distinct and differ from
the group, each forward segment's rows are its partner's target rows,
the forward segments close the group's order, and the order is the
per-group split the loop derived.  ``group_block_elements`` and
``group_candidates``, which read the same order, match their
per-segment and sorted forms byte for byte.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BarycentricTreecode,
    CoulombKernel,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)
from repro.core.backends.groupeval import (
    eval_group_range,
    group_block_elements,
    plan_arrays,
)
from repro.core.coincidence import (
    _csr,
    _segment_hits,
    group_candidates,
    neighbour_pairs,
)
from repro.core.plan import MIRROR_NONE, MIRROR_SKIP, evaluation_order
from repro.kernels.base import block_rows
from repro.kernels.workspace import Workspace
from repro.workloads import ParticleSet

from plan_factory import listed_plan
from test_mirror_schedule import clouds

_E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "e2e",
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

from e2e_workloads import WORKLOADS, Inputs  # noqa: E402

KERNELS = (CoulombKernel(), YukawaKernel(0.5))


# -- the per-segment references ----------------------------------------
def _reference_split(partner, s_lo, s_hi):
    """``(own, forward)`` segment lists of a group's segments, skipped
    ones left out; None when none is mirrored (plan order)."""
    p = partner[s_lo:s_hi]
    if not np.any(p != MIRROR_NONE):
        return None
    own = np.flatnonzero(p == MIRROR_NONE) + s_lo
    forward = np.flatnonzero(p >= 0) + s_lo
    return own.tolist(), forward.tolist()


def _reference_gather(arrays, q_all, g, segments):
    """One group's operands, one segment at a time."""
    group_ptr = arrays["group_ptr"]
    t_lo, t_hi = int(group_ptr[g]), int(group_ptr[g + 1])
    if t_hi == t_lo:
        return None
    seg_ptr, seg_src_lo = arrays["seg_ptr"], arrays["seg_src_lo"]
    slices = []
    for s in segments:
        lo = int(seg_src_lo[s])
        hi = lo + int(seg_ptr[s + 1] - seg_ptr[s])
        if hi > lo:
            slices.append((lo, hi))
    if not slices:
        return None
    src_all = arrays["src_points"]
    if all(a[1] == b[0] for a, b in zip(slices, slices[1:])):
        lo, hi = slices[0][0], slices[-1][1]
        src, q = src_all[lo:hi], q_all[lo:hi]
    else:
        src = np.concatenate([src_all[lo:hi] for lo, hi in slices])
        q = np.concatenate(
            [q_all[lo:hi].T for lo, hi in slices], axis=-1
        ).T
    return arrays["targets"][t_lo:t_hi], src, q


def _reference_eval_group_range(arrays, kernel, compute_forces, g_lo, g_hi):
    """The per-group evaluation, one segment at a time."""
    group_ptr = arrays["group_ptr"]
    seg_group_ptr = arrays["seg_group_ptr"]
    seg_ptr = arrays["seg_ptr"]
    mirrors = arrays.get("mirrors")
    candidates = arrays.get("candidates")
    t_lo_all = int(group_ptr[g_lo])
    t_hi_all = int(group_ptr[g_hi])
    rows = t_hi_all - t_lo_all
    rhs = arrays["src_weights"].shape[1:]
    phi = np.zeros((rows,) + rhs)
    f_out = np.zeros((rows, 3) + rhs) if compute_forces else None
    q_all = np.asarray(arrays["src_weights"], order="F")

    def rows_of(g):
        return slice(
            int(group_ptr[g]) - t_lo_all, int(group_ptr[g + 1]) - t_lo_all
        )

    for g in range(g_lo, g_hi):
        s_lo, s_hi = int(seg_group_ptr[g]), int(seg_group_ptr[g + 1])
        split = None
        if mirrors is not None:
            split = _reference_split(mirrors.partner, s_lo, s_hi)
        if split is None:
            own, forward = list(range(s_lo, s_hi)), []
        else:
            own, forward = split
        ops = _reference_gather(arrays, q_all, g, own + forward)
        if ops is None:
            continue
        tgt, src, q = ops
        sizes = [int(seg_ptr[s + 1] - seg_ptr[s]) for s in forward]
        n_fwd = sum(sizes)
        mirror = None
        if forward:
            lo = int(mirrors.self_lo[g])
            phi_t = np.zeros((n_fwd,) + rhs)
            f_t = None if f_out is None else np.zeros((n_fwd, 3) + rhs)
            mirror = (len(src) - n_fwd, q_all[lo:lo + len(tgt)], phi_t, f_t)
        kernel.potential(
            tgt, src, q, out=phi[rows_of(g)],
            forces=None if f_out is None else f_out[rows_of(g)],
            fused=True,
            coincident=None if candidates is None else candidates[g],
            mirror=mirror,
        )
        c = 0
        for s, n in zip(forward, sizes):
            b = rows_of(int(mirrors.partner[s]))
            phi[b] += phi_t[c:c + n]
            if f_out is not None:
                f_out[b] += f_t[c:c + n]
            c += n
    return t_lo_all, t_hi_all, phi, f_out


def _reference_block_elements(arrays, g_lo, g_hi):
    """Largest first row block over ``[g_lo, g_hi)``, group by group."""
    mirrors = arrays.get("mirrors")
    seg_ptr, seg_group_ptr = arrays["seg_ptr"], arrays["seg_group_ptr"]
    best = 0
    for g in range(g_lo, g_hi):
        m = int(arrays["group_ptr"][g + 1] - arrays["group_ptr"][g])
        segs = range(seg_group_ptr[g], seg_group_ptr[g + 1])
        k = sum(
            int(seg_ptr[s + 1] - seg_ptr[s])
            for s in segs
            if mirrors is None or mirrors.partner[s] != MIRROR_SKIP
        )
        if m:
            best = max(best, min(m, block_rows(k)) * k)
    return best


def _reference_group_candidates(plan, mirrors):
    """Group candidates with the order re-derived by one sort."""
    n_seg = plan.n_segments
    sizes = np.diff(plan.seg_ptr)
    seg_group = np.repeat(
        np.arange(plan.n_groups), np.diff(plan.seg_group_ptr)
    )
    if mirrors is None:
        live = np.ones(n_seg, dtype=bool)
        order = np.arange(n_seg)
    else:
        live = mirrors.partner != MIRROR_SKIP
        order = np.lexsort((mirrors.partner >= 0, seg_group))
    used = np.where(live, sizes, 0)
    before = np.cumsum(used[order]) - used[order]
    col0 = np.empty(n_seg, dtype=np.intp)
    col0[order] = before - before[plan.seg_group_ptr[seg_group]]
    total = np.concatenate(([0], np.cumsum(used)))
    k = total[plan.seg_group_ptr[1:]] - total[plan.seg_group_ptr[:-1]]
    t, p = neighbour_pairs(plan.targets, plan.src_points)
    pair, seg = _segment_hits(plan, t, p)
    pair, seg = pair[live[seg]], seg[live[seg]]
    g = seg_group[seg]
    row = t[pair] - plan.group_ptr[g]
    col = col0[seg] + p[pair] - plan.seg_src_lo[seg]
    return _csr(g, row * k[g] + col, np.diff(plan.group_ptr) * k)


# -- helpers -------------------------------------------------------------
def _same(a, b) -> bool:
    """Bitwise equality of two arrays (or both None)."""
    if a is None or b is None:
        return a is None and b is None
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


def _arrays(plan, kernel, n_rhs, mirror, rng):
    """The evaluator's arrays as ``eval_plan`` builds them, with random
    weights (RHS-major for three columns, as the plan stores them)."""
    arrays = plan_arrays(plan)
    rows = plan.source_buffer_rows
    q = rng.uniform(-1.0, 1.0, (rows,) if n_rhs == 1 else (rows, n_rhs))
    arrays["src_weights"] = np.asarray(q, order="F")
    mirrors = None
    if mirror:
        mirrors = arrays["mirrors"] = plan.mirror_schedule()
    arrays["candidates"] = plan.group_candidates(mirrors)
    return arrays


def assert_matches_reference(arrays, kernel, forces, g_lo, g_hi):
    got = eval_group_range(
        arrays, kernel, forces, g_lo, g_hi, workspace=Workspace()
    )
    want = _reference_eval_group_range(arrays, kernel, forces, g_lo, g_hi)
    assert got[:2] == want[:2]
    assert _same(got[2], want[2]), "potentials"
    assert _same(got[3], want[3]), "forces"
    assert group_block_elements(
        arrays, g_lo, g_hi
    ) == _reference_block_elements(arrays, g_lo, g_hi)


def assert_schedule_invariants(plan):
    mirrors = plan.mirror_schedule()
    partner, order, order_ptr = (
        mirrors.partner, mirrors.order, mirrors.order_ptr
    )
    seg_group_ptr = plan.seg_group_ptr
    assert order_ptr[0] == 0 and order_ptr[-1] == len(order)
    for g in range(plan.n_groups):
        segs = order[order_ptr[g]:order_ptr[g + 1]]
        s_lo, s_hi = seg_group_ptr[g], seg_group_ptr[g + 1]
        split = _reference_split(partner, s_lo, s_hi)
        if split is None:
            want = list(range(s_lo, s_hi))
        else:
            want = split[0] + split[1]
        assert segs.tolist() == want, g
        is_fwd = partner[segs] >= 0
        n_fwd = int(is_fwd.sum())
        assert is_fwd[len(segs) - n_fwd:].all(), g  # forwards close it
        partners = partner[segs[is_fwd]].tolist()
        assert len(set(partners)) == len(partners), g
        assert g not in partners
        for s, b in zip(segs[is_fwd].tolist(), partners):
            lo, hi = plan.segment_source_range(s)
            block = plan.targets[plan.group_ptr[b]:plan.group_ptr[b + 1]]
            assert plan.src_points[lo:hi].tobytes() == block.tobytes()
    assert (
        evaluation_order(seg_group_ptr)[0].tolist()
        == list(range(plan.n_segments))
    )


def assert_candidates_match(plan):
    for mirrors in (None, plan.mirror_schedule()):
        got = group_candidates(plan, mirrors)
        want = _reference_group_candidates(plan, mirrors)
        assert _same(got.ptr, want.ptr) and _same(got.flat, want.flat)


def _plan(pos, targets, leaf, kernel, degree=1):
    params = TreecodeParams(
        theta=0.7, degree=degree, max_leaf_size=leaf, max_batch_size=leaf,
    )
    particles = ParticleSet(pos, np.ones(len(pos)))
    return BarycentricTreecode(kernel, params).prepare(particles, targets).plan


# -- generated clouds ----------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    cloud=clouds(),
    leaf=st.sampled_from((4, 10, 40, 200)),
    kernel=st.sampled_from(KERNELS),
    forces=st.booleans(),
    n_rhs=st.sampled_from((1, 3)),
    mirror=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_generated_clouds(cloud, leaf, kernel, forces, n_rhs, mirror, seed):
    pos, targets = cloud
    plan = _plan(pos, targets, leaf, kernel)
    arrays = _arrays(plan, kernel, n_rhs, mirror, np.random.default_rng(seed))
    assert_matches_reference(arrays, kernel, forces, 0, plan.n_groups)
    assert_schedule_invariants(plan)
    assert_candidates_match(plan)


@settings(max_examples=30, deadline=None)
@given(
    cloud=clouds(),
    leaf=st.sampled_from((4, 10, 40)),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    forces=st.booleans(),
    n_rhs=st.sampled_from((1, 3)),
)
def test_generated_shard_ranges(cloud, leaf, cuts, forces, n_rhs):
    # Shards evaluate group sub-ranges without a schedule.
    pos, targets = cloud
    kernel = KERNELS[1]
    plan = _plan(pos, targets, leaf, kernel)
    arrays = _arrays(plan, kernel, n_rhs, False, np.random.default_rng(0))
    bounds = sorted({0, plan.n_groups} | {
        int(c * plan.n_groups) for c in cuts
    })
    for g_lo, g_hi in zip(bounds, bounds[1:]):
        assert_matches_reference(arrays, kernel, forces, g_lo, g_hi)


# -- a fixed cube, every combination -------------------------------------
@pytest.fixture(scope="module")
def cube_plans():
    cube = random_cube(900, seed=11)
    return {
        kernel.name: _plan(cube.positions, None, 40, kernel, degree=2)
        for kernel in KERNELS
    }


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("forces", [False, True], ids=["phi", "forces"])
@pytest.mark.parametrize("n_rhs", [1, 3])
@pytest.mark.parametrize("mirror", [False, True], ids=["plain", "mirrors"])
def test_cube(cube_plans, kernel, forces, n_rhs, mirror):
    plan = cube_plans[kernel.name]
    assert plan.mirror_schedule().n_pairs > 0
    arrays = _arrays(plan, kernel, n_rhs, mirror, np.random.default_rng(1))
    assert_matches_reference(arrays, kernel, forces, 0, plan.n_groups)


@pytest.mark.parametrize("n_shards", [2, 3, 7])
@pytest.mark.parametrize("forces", [False, True], ids=["phi", "forces"])
def test_cube_shard_ranges(cube_plans, n_shards, forces):
    kernel = KERNELS[0]
    plan = cube_plans[kernel.name]
    arrays = _arrays(plan, kernel, 3, False, np.random.default_rng(2))
    bounds = np.linspace(0, plan.n_groups, n_shards + 1).astype(int)
    for g_lo, g_hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        assert_matches_reference(arrays, kernel, forces, g_lo, g_hi)


def test_cube_schedule(cube_plans):
    for plan in cube_plans.values():
        assert_schedule_invariants(plan)
        assert_candidates_match(plan)


def test_empty_segment_at_a_slot_start():
    # The empty key takes no rows, so it starts where group 1's slot
    # does.  Its segment is not on that slot: pairing it with group 1
    # would skip group 1's block on group 0's slot and apply nothing
    # back.
    rng = np.random.default_rng(4)
    a, b = rng.random((3, 3)), rng.random((2, 3))
    plan = listed_plan(
        [
            (a, [("direct", "a"), ("direct", "empty")]),
            (b, [("direct", "b"), ("direct", "a")]),
        ],
        {"a": a, "empty": np.empty((0, 3)), "b": b},
    )
    assert plan.seg_src_lo[1] == plan.mirror_schedule().self_lo[1]
    assert plan.mirror_schedule().n_pairs == 0
    assert_schedule_invariants(plan)
    kernel = KERNELS[0]
    for forces in (False, True):
        plain = _arrays(plan, kernel, 1, False, np.random.default_rng(5))
        mirrored = _arrays(plan, kernel, 1, True, np.random.default_rng(5))
        assert_matches_reference(mirrored, kernel, forces, 0, 2)
        got = eval_group_range(mirrored, kernel, forces, 0, 2)
        want = eval_group_range(plain, kernel, forces, 0, 2)
        assert all(map(_same, got[2:], want[2:]))


# -- the end-to-end recipes ----------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_recipes(workload):
    spec = WORKLOADS[workload]
    plan = spec.driver().prepare(Inputs(spec, 0, "full").particles()).plan
    kernel = spec.kernel()
    arrays = _arrays(plan, kernel, spec.n_rhs, True, np.random.default_rng(3))
    assert arrays["mirrors"].n_pairs > 0
    assert_matches_reference(
        arrays, kernel, spec.compute_forces, 0, plan.n_groups
    )
    assert_schedule_invariants(plan)
    assert_candidates_match(plan)
