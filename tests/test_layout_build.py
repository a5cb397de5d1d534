"""The batched layout's array-pass build.

``build_batched_layout`` finds the plan's equal-kind runs in one array
pass (the run table) and materializes each bucket in one array pass
over its entries.  This module pins the build three ways:

* byte for byte against a reference kept here -- the per-group run walk
  and the per-segment bucket loops the array passes replaced -- on the
  end-to-end workload recipes and on generated hand-listed plans;
* against invariants any correct layout satisfies, whatever code built
  it;
* after an incremental ``update_geometry``: the session's layout is
  byte-equal to a cold ``prepare()``'s.
"""

import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import BarycentricTreecode, CoulombKernel, TreecodeParams
from repro import random_cube
from repro.core import plan as plan_module
from repro.core.plan import BatchedBucket, build_batched_layout
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

BUCKET_ARRAYS = (
    "groups", "segments", "tgt_index", "src_index", "out_slots", "scatter_pos",
    "src_valid", "weights",
)


# -- the reference: per-group run walk, per-segment bucket loops ---------
def reference_kind_runs(plan, g):
    """``(kind, s_lo, s_hi)`` runs of group ``g``, one segment at a time."""
    lo, hi = int(plan.seg_group_ptr[g]), int(plan.seg_group_ptr[g + 1])
    s = lo
    while s < hi:
        e = s + 1
        while e < hi and plan.seg_kind[e] == plan.seg_kind[s]:
            e += 1
        yield plan.kind_names[plan.seg_kind[s]], s, e
        s = e


def reference_run_table(plan):
    """The run table, walked group by group."""
    sizes = np.diff(plan.seg_ptr)
    rows = []
    for g in range(plan.n_groups):
        t_lo, m = int(plan.group_ptr[g]), plan.group_size(g)
        for kind, s_lo, s_hi in reference_kind_runs(plan, g):
            run = sizes[s_lo:s_hi]
            k = int(run.sum())
            if m and k:
                size = int(run[0]) if np.all(run == run[0]) else 0
                kind_i = plan.kind_names.index(kind)
                rows.append((k, m, g, t_lo, s_lo, s_hi, kind_i, size))
    return np.array(rows, dtype=np.intp).reshape(-1, 8)


def reference_bucket(plan, kind, entries, n_segments=0, rows_per_segment=0):
    """One bucket from ``(k, m, g, t_lo, s_lo, s_hi)`` entries, filled
    one entry and one segment at a time."""
    n = len(entries)
    k_sizes = np.array([e[0] for e in entries], dtype=np.intp)
    m_sizes = np.array([e[1] for e in entries], dtype=np.intp)
    k_max, m_max = int(k_sizes.max()), int(m_sizes.max())
    tgt_index = np.empty((n, m_max), dtype=np.intp)
    src_index = np.empty((n, k_max), dtype=np.intp)
    seg_sizes = np.diff(plan.seg_ptr)
    for i, (_k, m, _g, t_lo, s_lo, s_hi) in enumerate(entries):
        tgt_index[i, :m] = np.arange(t_lo, t_lo + m)
        tgt_index[i, m:] = t_lo
        pos = 0
        for s in range(s_lo, s_hi):
            lo, size = int(plan.seg_src_lo[s]), int(seg_sizes[s])
            src_index[i, pos:pos + size] = np.arange(lo, lo + size)
            pos += size
        src_index[i, pos:] = src_index[i, 0]
    scatter_pos = None
    flat_rows = tgt_index.reshape(-1)
    if int(m_sizes.min()) != m_max:
        valid = np.arange(m_max)[None, :] < m_sizes[:, None]
        scatter_pos = np.nonzero(valid.reshape(-1))[0]
        flat_rows = flat_rows[scatter_pos]
    src_valid = None
    weights = plan.src_weights[src_index]
    if int(k_sizes.min()) != k_max:
        src_valid = np.arange(k_max)[None, :] < k_sizes[:, None]
        weights = np.zeros(src_index.shape + plan.src_weights.shape[1:])
        weights[src_valid] = plan.src_weights[src_index[src_valid]]
    return BatchedBucket(
        kind=kind,
        n_segments=n_segments,
        rows_per_segment=rows_per_segment,
        m_max=m_max,
        groups=np.array([e[2] for e in entries], dtype=np.intp),
        segments=np.array([e[4:6] for e in entries], dtype=np.intp),
        tgt_index=tgt_index,
        src_index=src_index,
        out_slots=np.ascontiguousarray(plan.out_index[flat_rows]),
        scatter_pos=scatter_pos,
        weights=weights,
        src_valid=src_valid,
    )


def reference_layout(plan):
    """The layout with every bucket materialized by the reference loops."""
    with mock.patch.object(plan_module, "_build_bucket", reference_bucket):
        return build_batched_layout(plan)


def assert_same_array(got, want, what):
    if got is None or want is None:
        assert got is None and want is None, what
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def assert_same_layout(got, want):
    assert len(got.buckets) == len(want.buckets)
    for i, (a, b) in enumerate(zip(got.buckets, want.buckets)):
        head = (a.kind, a.n_segments, a.rows_per_segment, a.m_max)
        assert head == (b.kind, b.n_segments, b.rows_per_segment, b.m_max)
        for name in BUCKET_ARRAYS:
            assert_same_array(
                getattr(a, name), getattr(b, name), f"bucket {i}: {name}"
            )
    assert_same_array(got.ragged_runs, want.ragged_runs, "ragged_runs")
    assert got.ragged_rows == want.ragged_rows


def assert_matches_reference(plan):
    np.testing.assert_array_equal(
        plan_module._run_table(plan), reference_run_table(plan)
    )
    for g in range(plan.n_groups):
        assert list(plan.group_kind_runs(g)) == list(
            reference_kind_runs(plan, g)
        )
    assert_same_layout(build_batched_layout(plan), reference_layout(plan))


# -- plans ----------------------------------------------------------------
def _plan(groups, key_rows, n_rhs, seed):
    """A plan from ``[(m, [(kind, key), ...]), ...]``.

    Share key ``i`` names ``key_rows[i]`` source rows; output slots are a
    permutation; weights are random with ``n_rhs`` columns (None: 1-D).
    """
    rng = np.random.default_rng(seed)
    points = [rng.random((r, 3)) for r in key_rows]
    out = rng.permutation(sum(m for m, _ in groups))
    plan = listed_plan(
        [(rng.random((m, 3)), segs) for m, segs in groups],
        dict(enumerate(points)),
        out_index=out,
    )
    _refresh(plan, key_rows, n_rhs, rng)
    return plan


def _refresh(plan, key_rows, n_rhs, rng):
    shape = (lambda r: r) if n_rhs is None else (lambda r: (r, n_rhs))
    weights = [rng.random(shape(r)) for r in key_rows]
    plan.refresh_weights(weights.__getitem__)


@st.composite
def plan_specs(draw):
    """Ragged and uniform runs, interleaved kinds, zero-row groups,
    zero-size segments and 1-D / 1-column / 3-column weights.  Sizes
    come from a small alphabet so equal-size runs -- and repeated
    same-signature runs inside one group -- are common."""
    key_rows = draw(
        st.lists(st.sampled_from((0, 2, 3, 5)), min_size=1, max_size=8)
    )
    segment = st.tuples(
        st.sampled_from(("approx", "direct", "cc")),
        st.integers(0, len(key_rows) - 1),
    )
    segments = st.lists(segment, max_size=6, unique_by=lambda s: s[1])
    # Groups often repeat one segment list, or extend it by a segment,
    # so uniform and padded buckets actually form.
    shared = draw(segments)
    keys = {key for _, key in shared}
    extended = segment.filter(lambda s: s[1] not in keys).map(
        lambda s: shared + [s]
    )
    group = st.tuples(
        st.integers(0, 4), st.one_of(st.just(shared), extended, segments)
    )
    groups = draw(st.lists(group, min_size=1, max_size=8))
    n_rhs = draw(st.sampled_from((None, 1, 3)))
    return groups, key_rows, n_rhs, draw(st.integers(0, 2**16))


#: One group; no segments at all; zero-row groups and zero-size
#: segments; repeated same-signature approx runs in every group.
EDGE_SPECS = [
    ([(3, [("approx", 0), ("direct", 1)])], [4, 2], None, 0),
    ([(3, []), (2, [])], [2], 3, 1),
    (
        [(0, [("direct", 0)]), (2, [("direct", 2), ("direct", 0)]),
         (2, [("direct", 1), ("direct", 2)])],
        [3, 3, 0],
        1,
        2,
    ),
    (
        [(2, [("approx", 0), ("direct", 1), ("approx", 2)])] * 3,
        [3, 5, 3],
        3,
        3,
    ),
]


def _workload_plan(name, seed):
    """A recipe's session plan at a tenth of its N, weights filled."""
    spec = WORKLOADS[name]
    inputs = Inputs(spec, seed, "smoke")
    session = spec.driver().prepare(inputs.particles())
    session.apply(inputs.charges())
    return session.plan


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_plans(request):
    return [_workload_plan(request.param, seed) for seed in (5, 6)]


class TestMatchesReference:
    """Byte for byte what the per-segment loops build."""

    def test_workload_recipes(self, workload_plans):
        for plan in workload_plans:
            assert_matches_reference(plan)

    @given(spec=plan_specs())
    @example(spec=EDGE_SPECS[0])
    @example(spec=EDGE_SPECS[1])
    @example(spec=EDGE_SPECS[2])
    @example(spec=EDGE_SPECS[3])
    def test_generated_plans(self, spec):
        assert_matches_reference(_plan(*spec))

    def test_edge_specs_exercise_their_cases(self):
        single, empty, zeros, repeated = (_plan(*s) for s in EDGE_SPECS)
        assert single.n_groups == 1
        assert empty.n_segments == 0
        assert not build_batched_layout(empty).buckets
        assert 0 in np.diff(zeros.group_ptr)
        assert 0 in np.diff(zeros.seg_ptr)
        # Two approx runs of one signature per group: the second runs
        # cannot share the first runs' bucket, so they get their own.
        layout = build_batched_layout(repeated)
        approx = [b for b in layout.buckets if b.kind == "approx"]
        assert len(approx) == 2
        assert sum(b.is_padded for b in approx) == 0


# -- invariants any correct layout satisfies -------------------------------
def _col_valid(bucket):
    """The bucket's valid-column mask (all True without source pads)."""
    if bucket.src_valid is None:
        return np.ones(bucket.src_index.shape, dtype=bool)
    return bucket.src_valid


def _row_owners(plan, g, kind):
    """Physical source row -> segment, over group ``g``'s non-empty
    segments of ``kind`` (a group never repeats a share key here)."""
    owner = {}
    for s in range(int(plan.seg_group_ptr[g]), int(plan.seg_group_ptr[g + 1])):
        lo, hi = plan.segment_source_range(s)
        if hi > lo and plan.kind_names[plan.seg_kind[s]] == kind:
            owner.update((r, s) for r in range(lo, hi))
    return owner


def check_invariants(plan, layout):
    """Buckets + ragged runs cover every non-empty (group, segment) pair
    once; rows are the covered segments' physical ranges, concatenated,
    padded by repeats of the first row; scatters are injective."""
    sizes = np.diff(plan.seg_ptr)
    seg_group = np.repeat(
        np.arange(plan.n_groups), np.diff(plan.seg_group_ptr)
    )
    covered = np.zeros(plan.n_segments, dtype=int)
    for bucket in layout.buckets:
        assert np.unique(bucket.groups).size == bucket.n_entries
        n, m_max = bucket.tgt_index.shape
        valid_pos = (
            np.arange(n * m_max)
            if bucket.scatter_pos is None
            else bucket.scatter_pos
        )
        col_valid = _col_valid(bucket)
        want_pos = []
        for i, g in enumerate(bucket.groups.tolist()):
            t_lo, m = int(plan.group_ptr[g]), plan.group_size(g)
            np.testing.assert_array_equal(
                bucket.tgt_index[i],
                np.r_[np.arange(t_lo, t_lo + m), np.full(m_max - m, t_lo)],
            )
            want_pos.extend(range(i * m_max, i * m_max + m))
            k = int(col_valid[i].sum())
            assert col_valid[i, :k].all(), "valid columns form a prefix"
            row = bucket.src_index[i]
            assert np.all(row[k:] == row[0])
            owner = _row_owners(plan, g, bucket.kind)
            rows = row[:k].tolist()
            assert all(r in owner for r in rows)
            segs = sorted({owner[r] for r in rows})
            np.testing.assert_array_equal(
                rows,
                np.concatenate([
                    np.arange(*plan.segment_source_range(s)) for s in segs
                ]),
            )
            covered[segs] += 1
        np.testing.assert_array_equal(valid_pos, want_pos)
        flat = bucket.tgt_index.reshape(-1)[valid_pos]
        np.testing.assert_array_equal(bucket.out_slots, plan.out_index[flat])
    ragged_rows = 0
    for g, s_lo, s_hi in layout.ragged_runs.tolist():
        assert plan.seg_group_ptr[g] <= s_lo < s_hi
        assert s_hi <= plan.seg_group_ptr[g + 1]
        covered[s_lo:s_hi] += sizes[s_lo:s_hi] > 0
        ragged_rows += plan.group_size(g)
    assert layout.ragged_rows == ragged_rows
    live = (sizes > 0) & (np.diff(plan.group_ptr)[seg_group] > 0)
    assert np.all(covered[live] == 1)
    assert np.all(covered <= 1)


def check_weights(plan, layout):
    for bucket in layout.buckets:
        w = plan.src_weights
        assert bucket.weights.shape == bucket.src_index.shape + w.shape[1:]
        valid = _col_valid(bucket)
        assert np.array_equal(
            bucket.weights[valid], w[bucket.src_index[valid]]
        )
        assert np.all(bucket.weights[~valid] == 0.0)


class TestInvariants:
    """What a layout is, independent of how it is built."""

    @given(spec=plan_specs())
    @example(spec=EDGE_SPECS[2])
    @example(spec=EDGE_SPECS[3])
    def test_generated_plans(self, spec):
        _, key_rows, _, seed = spec
        plan = _plan(*spec)
        layout = plan.ensure_batched_layout()
        check_invariants(plan, layout)
        # Pad weights stay exactly 0.0 across width-changing refreshes.
        rng = np.random.default_rng(seed + 1)
        for width in (3, None, 1, 3, None):
            _refresh(plan, key_rows, width, rng)
            check_weights(plan, layout)

    def test_workload_recipes(self, workload_plans):
        for plan in workload_plans:
            layout = build_batched_layout(plan)
            check_invariants(plan, layout)
            check_weights(plan, layout)


class TestPatchPath:
    """An incrementally updated session holds a cold prepare's layout."""

    def test_patched_layout_is_cold_layout(self, use_backend):
        cube = random_cube(600, seed=31)
        drv = BarycentricTreecode(
            CoulombKernel(),
            TreecodeParams(
                theta=0.7, degree=3, max_leaf_size=50, max_batch_size=50,
                backend=use_backend("stacked"),
            ),
        )
        session = drv.prepare(cube)
        session.apply(cube.charges)
        rng = np.random.default_rng(19)
        pos = cube.positions.copy()
        patched = 0
        for _ in range(3):
            pos = pos + rng.normal(scale=0.002, size=pos.shape)
            result = session.update_geometry(pos)
            assert not result.rebuilt
            patched += result.n_patched_groups
            # The update compiles a fresh plan; the next stacked
            # execute builds its layout.
            assert session.plan.batched_layout is None
            session.apply(cube.charges)
            assert session.plan.batched_layout is not None
            cold = drv.prepare(ParticleSet(pos, cube.charges))
            cold.apply(cube.charges)
            assert_same_layout(
                session.plan.batched_layout, cold.plan.batched_layout
            )
        assert patched > 0
