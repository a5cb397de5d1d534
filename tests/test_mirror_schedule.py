"""The mirror schedule's array passes against the per-segment loop.

:func:`~repro.core.plan.build_mirror_schedule` pairs a plan's mirrored
segments in array passes.  ``_reference_mirror_schedule`` below is the
loop it replaced, one segment and one byte string at a time.  The two
must agree byte for byte on ``partner``, ``self_lo`` and the stored
evaluation order (``order``, ``order_ptr``): on the
end-to-end benchmark recipes, on generated clouds (duplicated point
sets, disjoint targets) on a single device and on 1-3 LET ranks, and on
hand-written plans with repeated keys and zero-size segments.
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BarycentricTreecode,
    DistributedBLTC,
    TreecodeParams,
    YukawaKernel,
)
from repro.core.plan import (
    MIRROR_NONE,
    MIRROR_SKIP,
    MirrorSchedule,
    build_mirror_schedule,
)
from repro.workloads import ParticleSet

_E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "e2e",
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

from e2e_workloads import WORKLOADS, Inputs  # noqa: E402
from plan_factory import listed_plan  # noqa: E402


def _reference_mirror_schedule(plan) -> MirrorSchedule:
    """The schedule, one segment and one slot at a time."""
    n_groups = plan.n_groups
    group_ptr = plan.group_ptr.tolist()
    seg_lo = plan.seg_src_lo.tolist()
    seg_rows = np.diff(plan.seg_ptr).tolist()
    partner = np.full(plan.n_segments, MIRROR_NONE, dtype=np.intp)
    self_lo = np.full(n_groups, -1, dtype=np.intp)
    sizes = {group_ptr[g + 1] - group_ptr[g] for g in range(n_groups)}
    sizes.discard(0)
    slots: dict[bytes, list[int]] = {}
    for lo, rows in set(zip(seg_lo, seg_rows)):
        if rows in sizes:
            key = plan.src_points[lo:lo + rows].tobytes()
            slots.setdefault(key, []).append(lo)
    groups: dict[bytes, list[int]] = {}
    for g in range(n_groups):
        if group_ptr[g + 1] > group_ptr[g]:
            key = plan.targets[group_ptr[g]:group_ptr[g + 1]].tobytes()
            if key in slots:
                groups.setdefault(key, []).append(g)
    for key, gs in groups.items():
        if len(gs) == 1 and len(slots[key]) == 1:
            self_lo[gs[0]] = slots[key][0]
    sits_on = self_lo.tolist()
    group_on = {lo: g for g, lo in enumerate(sits_on) if lo >= 0}
    seg_group = np.repeat(
        np.arange(n_groups), np.diff(plan.seg_group_ptr)
    ).tolist()
    # An empty segment sits on no slot: it neither pairs nor is a use.
    uses = Counter(
        (a, lo) for a, lo, n in zip(seg_group, seg_lo, seg_rows) if n
    )
    for s, (a, lo) in enumerate(zip(seg_group, seg_lo)):
        b = group_on.get(lo)
        if not seg_rows[s] or b is None or b == a or sits_on[a] < 0:
            continue
        if uses[a, lo] == 1 and uses[b, sits_on[a]] == 1:
            partner[s] = b if a < b else MIRROR_SKIP
    # Each group's evaluation order: its unmirrored segments, then its
    # forward ones, one list at a time.
    order, order_ptr = [], [0]
    for g in range(n_groups):
        segs = range(plan.seg_group_ptr[g], plan.seg_group_ptr[g + 1])
        order += [s for s in segs if partner[s] == MIRROR_NONE]
        order += [s for s in segs if partner[s] >= 0]
        order_ptr.append(len(order))
    return MirrorSchedule(
        partner=partner,
        self_lo=self_lo,
        order=np.array(order, dtype=np.intp),
        order_ptr=np.array(order_ptr, dtype=np.intp),
    )


def assert_matches_reference(plan):
    got = build_mirror_schedule(plan)
    want = _reference_mirror_schedule(plan)
    for name in ("partner", "self_lo", "order", "order_ptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_recipes(workload):
    spec = WORKLOADS[workload]
    sess = spec.driver().prepare(Inputs(spec, 0, "full").particles())
    assert_matches_reference(sess.plan)
    assert build_mirror_schedule(sess.plan).n_pairs > 0


@st.composite
def clouds(draw):
    """``(positions, targets or None)``: random points, some of them
    duplicated (single points or whole leaves' worth), optionally with
    targets that are not the sources."""
    n = draw(st.integers(8, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pos = np.round(rng.uniform(-1.0, 1.0, (n, 3)), draw(st.integers(1, 6)))
    copies = draw(st.integers(0, n))
    pos[rng.integers(0, n, copies)] = pos[rng.integers(0, n, copies)]
    if draw(st.booleans()):
        pos[n // 2:] = pos[: n - n // 2]  # the cloud twice over
    targets = None
    if draw(st.booleans()):
        targets = rng.uniform(-1.0, 1.0, (draw(st.integers(1, 60)), 3))
    return pos, targets


@settings(max_examples=40, deadline=None)
@given(
    cloud=clouds(),
    leaf=st.sampled_from((4, 10, 40)),
    ranks=st.sampled_from((0, 1, 2, 3)),
)
def test_generated_clouds(cloud, leaf, ranks):
    pos, targets = cloud
    params = TreecodeParams(
        theta=0.7, degree=1, max_leaf_size=leaf, max_batch_size=leaf,
    )
    particles = ParticleSet(pos, np.ones(len(pos)))
    if ranks == 0:
        plans = [
            BarycentricTreecode(YukawaKernel(0.5), params)
            .prepare(particles, targets).plan
        ]
    else:
        # Distributed ranks take no separate targets.
        plans = DistributedBLTC(
            YukawaKernel(0.5), params, n_ranks=ranks
        ).prepare(particles).plans
    for plan in plans:
        assert_matches_reference(plan)


def test_hand_written_plans():
    rng = np.random.default_rng(2)
    a, b, c = (rng.random((r, 3)) for r in (3, 2, 3))
    sources = {"a": a, "b": b, "c": c, "empty": np.empty((0, 3))}
    plans = [
        # Groups on each other's slots, keys a group uses twice (no
        # pair through them, either way), an empty key.
        listed_plan(
            [
                (a, [("direct", "c"), ("direct", "b"), ("direct", "b"),
                     ("direct", "empty")]),
                (b, [("direct", "a"), ("direct", "b"), ("direct", "c")]),
                (c, [("approx", "a"), ("direct", "b"), ("direct", "a"),
                     ("direct", "c")]),
            ],
            sources,
        ),
        # A duplicated point set: two slots with the same bytes.
        listed_plan(
            [(a, [("direct", "a"), ("direct", "a2")]), (c, [("direct", "a")])],
            {**sources, "a2": a.copy()},
        ),
        # No groups sit anywhere.
        listed_plan([(rng.random((2, 3)), [("direct", "c")])], sources),
        # An empty key starting where b's slot starts: not on that slot.
        listed_plan(
            [(a, [("direct", "a"), ("direct", "empty")]),
             (b, [("direct", "b"), ("direct", "a")])],
            sources,
        ),
    ]
    for plan in plans:
        assert_matches_reference(plan)
    assert build_mirror_schedule(plans[0]).n_pairs > 0
    assert build_mirror_schedule(plans[3]).n_pairs == 0
