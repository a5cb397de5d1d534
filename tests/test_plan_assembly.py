"""The array-pass plan assembler against the per-segment compile.

Every plan is laid out by :func:`repro.core.plan.assemble_plan`: flat
per-segment arrays in, physical rows at each share key's first use
from one ``np.unique`` pass.  This module keeps the compile it
replaced -- one step per (group, segment) pair, a key's rows stored
the first time it appears -- as :func:`_reference_compile` (the BLTC,
over :func:`batch_keys`, the merge-order reference) and as the two
extension schemes' per-segment loops, and checks every compiled plan
against it byte for byte: each ``_PLAN_GEOMETRY_FIELDS`` entry,
``kind_names``, ``out_size`` and ``weight_slots`` (keys, their types
and row ranges).  BLTC plans come from generated clouds -- duplicated
points, planar sets, fewer particles than a leaf, disjoint targets, a
first batch without approximations -- over theta, degree, NL and NB,
numerics and model-only, on one device and as rank plans of 1-3 ranks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    BarycentricTreecode,
    ClusterParticleTreecode,
    CoulombKernel,
    DistributedBLTC,
    DualTreeTreecode,
    ParticleSet,
    TreecodeParams,
    random_cube,
)
from repro.core.bltc_keys import LOCAL, BLTCSources
from repro.core.plan import ExecutionPlan, compile_plan
from repro.core.session import _PLAN_GEOMETRY_FIELDS


# -- the per-segment reference ----------------------------------------------
def batch_keys(lists, b, let=None):
    """Share keys of batch ``b``'s segments, in the plan's merge order.

    Every owner's approximated clusters first, then every owner's
    directly summed ones; per kind the local ``lists`` lead, then each
    remote rank's LET lists in ascending rank order -- the merge order
    of the seed implementation, which the blocked reference backend's
    arithmetic reproduces.
    """
    owners = [(LOCAL, lists)]
    if let is not None:
        owners += [(s, let.lists[s]) for s in sorted(let.lists)]
    return [
        (kind, owner, c)
        for kind in ("approx", "direct")
        for owner, owned in owners
        for c in getattr(owned, kind)[b].tolist()
    ]


class _Builder:
    """The per-segment plan build: groups and segments one at a time,
    a share key's rows stored at its first use."""

    def __init__(self, out_size, numerics):
        self.out_size = out_size
        self.numerics = numerics
        self.kinds = {}
        self.group_sizes, self.segs_per_group = [], []
        self.seg_kind, self.seg_sizes, self.seg_src_lo = [], [], []
        self.targets, self.out_index, self.points = [], [], []
        self.ranges, self.slots = {}, []
        self.rows = 0

    def add_group(self, size, targets=None, out_index=None):
        self.group_sizes.append(int(size))
        self.segs_per_group.append(0)
        if self.numerics:
            self.targets.append(targets)
            self.out_index.append(out_index)

    def add_segment(self, kind, key, rows, points):
        """``rows`` / ``points`` are called only when needed."""
        if self.numerics:
            rng = self.ranges.get(key)
            if rng is None:
                pts = points()
                rng = self.ranges[key] = (self.rows, self.rows + len(pts))
                self.rows += len(pts)
                self.points.append(pts)
                self.slots.append((key, *rng))
            self.seg_src_lo.append(rng[0])
            size = rng[1] - rng[0]
        else:
            size = rows()
        self.seg_kind.append(self.kinds.setdefault(kind, len(self.kinds)))
        self.seg_sizes.append(int(size))
        self.segs_per_group[-1] += 1

    def build(self):
        def ptr(sizes):
            out = np.zeros(len(sizes) + 1, dtype=np.intp)
            np.cumsum(sizes, out=out[1:])
            return out

        def cat(arrays, shape, dtype):
            if not arrays:
                return np.empty(shape, dtype=dtype)
            return np.ascontiguousarray(np.concatenate(arrays), dtype=dtype)

        buffers = {}
        if self.numerics:
            buffers = dict(
                targets=cat(self.targets, (0, 3), np.float64),
                out_index=cat(self.out_index, (0,), np.intp),
                src_points=cat(self.points, (0, 3), np.float64),
                src_weights=np.zeros(self.rows),
                seg_src_lo=np.asarray(self.seg_src_lo, dtype=np.intp),
                weight_slots=tuple(self.slots),
            )
        return ExecutionPlan(
            kind_names=tuple(self.kinds),
            group_ptr=ptr(self.group_sizes),
            seg_group_ptr=ptr(self.segs_per_group),
            seg_kind=np.asarray(self.seg_kind, dtype=np.intp),
            seg_ptr=ptr(self.seg_sizes),
            out_size=self.out_size,
            **buffers,
        )


def _reference_compile(tree, batches, moments, lists, *, numerics=True,
                       let=None):
    """The BLTC compile, one segment at a time in :func:`batch_keys`
    order."""
    sources = BLTCSources(tree, moments, let)
    n_ip = (moments.degree + 1) ** 3

    def rows(key):
        kind, owner, c = key
        if kind == "approx":
            return n_ip
        if owner == LOCAL:
            return int(tree.node_counts[c])
        return len(let.direct_data[owner][c][0])

    builder = _Builder(batches.n_targets, numerics)
    sizes = batches.sizes()
    for b in range(len(batches)):
        builder.add_group(
            sizes[b], batches.batch_points(b), batches.batch_indices(b)
        )
        for key in batch_keys(lists, b, let):
            builder.add_segment(
                key[0], key, lambda: rows(key), lambda: sources.points(key)
            )
    return builder.build()


def _reference_cluster_particle(g, n_ip, numerics):
    """The cluster-particle scheme's per-segment compile."""
    builder = _Builder(g.n_targets + n_ip * len(g.grids), numerics)
    next_row = g.n_targets
    batch_sizes = g.batches.sizes()
    for grp, (kind, c) in enumerate(g.group_keys):
        if kind == "approx":
            rows = np.arange(next_row, next_row + n_ip, dtype=np.intp)
            next_row += n_ip
            builder.add_group(n_ip, g.grids[c].points, rows)
        else:
            idx = g.tree.node_indices(c)
            builder.add_group(len(idx), g.target_pos[idx], idx)
        for b in g.group_batches[grp]:
            builder.add_segment(
                kind, b, lambda: int(batch_sizes[b]),
                lambda: g.batches.batch_points(b),
            )
    return builder.build()


def _reference_dual_tree(g, moments, n_ip, numerics):
    """The dual-tree scheme's per-segment compile, grouping its four
    pair classes by receiving block from the pair lists."""
    groups, segs = {}, []

    def group(tag, ti):
        if (tag, ti) not in groups:
            groups[tag, ti] = len(segs)
            segs.append([])
        return groups[tag, ti]

    for pairs, tag, kind, what in (
        (g.cc_pairs, "grid", "cluster-cluster", "moments"),
        (g.pc_pairs, "node", "particle-cluster", "moments"),
        (g.cp_pairs, "grid", "cluster-particle", "particles"),
        (g.direct_pairs, "node", "direct", "particles"),
    ):
        for ti, si in pairs:
            segs[group(tag, ti)].append((kind, (what, si)))
    n_grids = sum(tag == "grid" for tag, _ in groups)
    builder = _Builder(g.n_targets + n_ip * n_grids, numerics)
    next_row = g.n_targets
    for tag, ti in groups:
        if tag == "grid":
            rows = np.arange(next_row, next_row + n_ip, dtype=np.intp)
            next_row += n_ip
            builder.add_group(n_ip, g.t_grids[ti].points, rows)
        else:
            idx = g.t_tree.node_indices(ti)
            builder.add_group(len(idx), g.target_pos[idx], idx)
        for kind, key in segs[groups[tag, ti]]:
            what, si = key
            builder.add_segment(
                kind, key,
                lambda: n_ip if what == "moments"
                else int(g.s_tree.node_counts[si]),
                lambda: moments.grid(si).points if what == "moments"
                else g.source_pos[g.s_tree.node_indices(si)],
            )
    return builder.build()


def assert_same_plan(plan, ref):
    assert plan.kind_names == ref.kind_names
    assert plan.out_size == ref.out_size
    for name in _PLAN_GEOMETRY_FIELDS + ("src_weights",):
        a, b = getattr(plan, name), getattr(ref, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert plan.weight_slots == ref.weight_slots
    if ref.weight_slots is not None:
        # The keys' types too: a numpy integer would pickle differently.
        assert [type(x) for s in plan.weight_slots for x in s] == [
            type(x) for s in ref.weight_slots for x in s
        ]
        for (key, _, _), (ref_key, _, _) in zip(
            plan.weight_slots, ref.weight_slots
        ):
            if isinstance(ref_key, tuple):
                assert [type(x) for x in key] == [type(x) for x in ref_key]


# -- generated clouds --------------------------------------------------------
def _cloud(shape, n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    if shape == "duplicates":
        pos = pos[rng.integers(0, max(1, n // 3), n)]
    elif shape == "planar":
        pos[:, 2] = 0.5
    elif shape == "blob":
        # A tight blob and a sparse halo: the first batch of the
        # blob sums every cluster directly.
        pos[: n // 2] = 0.5 + 0.01 * pos[: n // 2]
    return ParticleSet(pos, rng.random(n) - 0.5)


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(
        ("uniform", "duplicates", "planar", "blob", "tiny", "disjoint")
    ))
    leaf = draw(st.sampled_from((16, 40, 90)))
    n = draw(st.integers(6, leaf - 1)) if shape == "tiny" else draw(
        st.integers(150, 450)
    )
    params = TreecodeParams(
        theta=draw(st.sampled_from((0.5, 0.7, 0.9))),
        degree=draw(st.integers(1, 4)),
        max_leaf_size=leaf,
        max_batch_size=draw(st.sampled_from((leaf, 2 * leaf, leaf // 2))),
    )
    return shape, n, params, draw(st.integers(0, 3)), draw(st.integers(1, 3))


def _compile_both(geometry, numerics):
    plan = compile_plan(
        geometry.tree, geometry.batches, geometry.moments, geometry.lists,
        numerics=numerics, let=geometry.aux,
    )
    ref = _reference_compile(
        geometry.tree, geometry.batches, geometry.moments, geometry.lists,
        numerics=numerics, let=geometry.aux,
    )
    return plan, ref


class TestBLTC:
    @settings(max_examples=30, deadline=None)
    @given(case=cases())
    @example(case=("blob", 300, TreecodeParams(
        theta=0.7, degree=2, max_leaf_size=40, max_batch_size=40,
    ), 0, 1))
    def test_generated_clouds(self, case):
        shape, n, params, seed, n_ranks = case
        particles = _cloud(shape, n, seed)
        targets = None
        if shape == "disjoint":
            targets = np.random.default_rng(seed).random((n // 2, 3)) + 0.6
        for numerics in (True, False):
            session = BarycentricTreecode(
                CoulombKernel(),
                params.with_(backend="numpy" if numerics else "model"),
            ).prepare(particles, targets)
            plan, ref = _compile_both(session.core.geometry, numerics)
            assert_same_plan(plan, ref)
            assert_same_plan(session.plan, ref)
        if targets is None:
            ranks = DistributedBLTC(
                CoulombKernel(),
                params.with_(backend="model" if n_ranks == 2 else "numpy"),
                n_ranks=n_ranks,
            ).prepare(particles)
            for core in ranks.cores:
                assert_same_plan(*_compile_both(core.geometry, n_ranks != 2))

    def test_first_batch_without_approximations(self):
        # The blob example above: kinds are named in first-use order.
        params = TreecodeParams(
            theta=0.7, degree=2, max_leaf_size=40, max_batch_size=40
        )
        session = BarycentricTreecode(CoulombKernel(), params).prepare(
            _cloud("blob", 300, 0)
        )
        plan = session.plan
        assert plan.kind_names == ("direct", "approx")
        first = plan.seg_kind[plan.seg_group_ptr[0]:plan.seg_group_ptr[1]]
        assert not np.any(first == plan.kind_names.index("approx"))
        assert_same_plan(plan, _compile_both(session.core.geometry, True)[1])


@pytest.mark.parametrize("model", (False, True), ids=("numerics", "model"))
@pytest.mark.parametrize("seed,n", ((3, 500), (4, 260)))
class TestExtensions:
    params = TreecodeParams(
        theta=0.7, degree=3, max_leaf_size=40, max_batch_size=40
    )

    def _session(self, make, model, seed, n):
        params = dataclasses.replace(
            self.params, backend="model" if model else "fused"
        )
        return make(CoulombKernel(), params).prepare(random_cube(n, seed=seed))

    def test_cluster_particle(self, model, seed, n):
        session = self._session(ClusterParticleTreecode, model, seed, n)
        ref = _reference_cluster_particle(
            session.core.geometry.aux, self.params.n_interpolation_points,
            not model,
        )
        assert_same_plan(session.plan, ref)

    def test_dual_tree(self, model, seed, n):
        session = self._session(DualTreeTreecode, model, seed, n)
        geometry = session.core.geometry
        ref = _reference_dual_tree(
            geometry.aux, geometry.moments,
            self.params.n_interpolation_points, not model,
        )
        assert_same_plan(session.plan, ref)
