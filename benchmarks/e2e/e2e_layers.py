"""The traced run: per-layer seconds and counts for one workload.

Runs after (and apart from) the untraced measurement: one cold cycle, a
few warm applies and drift steps with spans on, then direct timings of
the pieces no span reaches -- every backend on the workload's own plan,
the kernel primitives on one block, the distributed driver, the plain
direct sum.  Seconds are medians of a few repetitions and are there to
say *where* an end-to-end change came from; counts repeat exactly at a
fixed seed.  The simulated-device numbers (``gpu.*``) are the paper's
model and must not move under a wall-clock optimisation.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time

import numpy as np

import repro
from repro.gpu import make_device

from e2e_trace import LAYER_CALLABLES, Tracer, interposed
from e2e_workloads import Inputs, Workload

__all__ = ["run_traced"]

WARM_APPLIES = 3
DRIFT_STEPS = 4
#: 1 warm-up + this many timed executes per backend.
BACKEND_REPEATS = 3
KERNEL_REPEATS = 5
#: The children of ``prepare`` / ``apply`` may leave this share of the
#: parent uncovered -- or a millisecond, which is all the session
#: bookkeeping around them costs and more than 10% only at smoke scale.
LAYERS_SUM_TOLERANCE = 0.10
LAYERS_SUM_FLOOR_S = 1e-3

PREPARE_LAYERS = (
    "tree.ClusterTree",
    "tree.TargetBatches",
    "moments.prepare_moment_grids",
    "interaction_lists.build_interaction_lists",
    "plan.compile_plan",
)
APPLY_LAYERS = ("session.precompute", "session.execute_plan")


def _median_time(fn, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class _SpanReader:
    """Span lookups that answer ``None`` for a layer that went missing."""

    def __init__(self, tracer: Tracer, missing: set) -> None:
        self.tracer = tracer
        self.missing = missing

    def total(self, op: int, names, *, direct: bool = True):
        """Seconds of the named spans under op span ``op``."""
        if any(name in self.missing for name in names):
            return None
        find = self.tracer.children if direct else self.tracer.within
        return sum(
            self.tracer.seconds(i) for name in names for i in find(op, name)
        )

    def median(self, ops: list, names, *, direct: bool = True):
        per_op = [self.total(op, names, direct=direct) for op in ops]
        if not per_op or any(v is None for v in per_op):
            return None
        return statistics.median(per_op)

    def coverage(self, op: int, names):
        """``(share covered, layers sum to the parent)`` for op ``op``."""
        covered = self.total(op, names)
        if covered is None:
            return None, False
        parent = self.tracer.seconds(op)
        gap = parent - covered
        return covered / parent, (
            gap <= LAYERS_SUM_TOLERANCE * parent or gap <= LAYERS_SUM_FLOOR_S
        )


def run_traced(
    spec: Workload,
    inputs: Inputs,
    *,
    callables: dict = LAYER_CALLABLES,
) -> dict:
    """Per-layer metrics, checks and the span record of one workload."""
    tc = spec.driver()
    kernel, params = tc.kernel, tc.params
    forces = spec.compute_forces
    particles = inputs.particles()

    def apply(session, charges):
        return session.apply(charges, compute_forces=forces)

    # One cold cycle off the record first, so the traced one does not
    # also pay the process's one-time costs (lazy imports, BLAS thread
    # start-up, einsum paths).
    charges = inputs.charges()
    apply(tc.prepare(particles), charges)

    # -- the traced cold cycle, warm applies and drift steps ------------
    tracer = Tracer()
    backend_cls = type(repro.get_backend(params.backend))
    callables = {
        **callables,
        "backends.execute":
            f"{backend_cls.__module__}:{backend_cls.__qualname__}.execute",
    }
    updates = []
    with interposed(tracer, callables) as missing:
        tracer.enabled = True
        with tracer.op("prepare") as op_prepare:
            session = tc.prepare(particles)
        with tracer.op("apply") as op_first:
            first = apply(session, charges)
        gpu = _gpu_model(session, first)
        # Warm applies, every other one with the recorder off: the
        # difference between neighbours is the tracing overhead.
        op_warm, untraced_s = [], []
        for i in range(2 * WARM_APPLIES):
            charges = inputs.charges()
            gc.collect()
            if i % 2:
                tracer.enabled = False
                t0 = time.perf_counter()
                apply(session, charges)
                untraced_s.append(time.perf_counter() - t0)
                tracer.enabled = True
            else:
                with tracer.op("apply") as op:
                    apply(session, charges)
                op_warm.append(op)
        stats = session.memory_stats()
        op_update, op_post = [], []
        positions = inputs.positions
        for _ in range(DRIFT_STEPS):
            positions = inputs.drift(positions)
            gc.collect()
            with tracer.op("update_geometry") as op:
                updates.append(session.update_geometry(positions))
            op_update.append(op)
            gc.collect()
            with tracer.op("apply") as op:
                apply(session, charges)
            op_post.append(op)
        scratch_bytes = session.memory_stats()["update_scratch_bytes"]
        tracer.enabled = False
    read = _SpanReader(tracer, missing)

    # The counts below describe the geometry the untraced run measured,
    # so take them from a session at the initial positions.
    session = tc.prepare(particles)
    apply(session, charges)
    tree, lists, plan = session.tree, session.lists, session.plan
    traced_apply_s = statistics.median(tracer.seconds(op) for op in op_warm)
    incremental = [u for u in updates if not u.rebuilt]

    metrics = {
        # -- tree -------------------------------------------------------
        "tree.build_s": read.total(
            op_prepare, ("tree.ClusterTree", "tree.TargetBatches")
        ),
        "tree.n_nodes": len(tree),
        "tree.n_leaves": tree.n_leaves,
        "tree.n_batches": len(session.batches),
        "tree.depth": tree.max_level,
        # -- core.interaction_lists -------------------------------------
        "interaction_lists.build_s": read.total(
            op_prepare, ("interaction_lists.build_interaction_lists",)
        ),
        "interaction_lists.mac_evals": lists.mac_evals,
        "interaction_lists.n_approx": lists.n_approx,
        "interaction_lists.n_direct": lists.n_direct,
        # -- core.moments -----------------------------------------------
        "moments.prepare_grids_s": read.total(
            op_prepare, ("moments.prepare_moment_grids",)
        ),
        "moments.refresh_s": read.median(
            op_warm, ("moments.refresh_moments",), direct=False
        ),
        "moments.n_clusters": session.moments.n_clusters,
        "moments.bytes": stats["moment_bytes"],
        # -- core.plan --------------------------------------------------
        "plan.compile_s": read.total(op_prepare, ("plan.compile_plan",)),
        "plan.layout_build_s": read.total(
            op_first, ("plan.ensure_batched_layout",), direct=False
        ),
        "plan.refresh_weights_s": read.median(
            op_warm, ("plan.refresh_weights",), direct=False
        ),
        "plan.n_groups": plan.n_groups,
        "plan.n_segments": plan.n_segments,
        "plan.source_rows": plan.n_source_rows,
        "plan.bytes": stats["plan_bytes"],
        # -- core.session -----------------------------------------------
        "session.precompute_s": read.median(
            op_warm, ("session.precompute",)
        ),
        "session.execute_plan_s": read.median(
            op_warm, ("session.execute_plan",)
        ),
        "session.apply_self_s": (
            None if missing.intersection(APPLY_LAYERS)
            else statistics.median(tracer.self_seconds(op) for op in op_warm)
        ),
        # -- core.dynamic -----------------------------------------------
        "dynamic.update_s": statistics.median(
            tracer.seconds(op) for op in op_update
        ),
        "dynamic.post_update_apply_s": statistics.median(
            tracer.seconds(op) for op in op_post
        ),
        "dynamic.rebuilt_frac": 1.0 - len(incremental) / len(updates),
        "dynamic.rebinned_frac": (
            statistics.fmean(u.rebinned_fraction for u in incremental)
            if incremental else 0.0
        ),
        "dynamic.patched_groups": sum(
            u.n_patched_groups for u in incremental
        ),
        "dynamic.scratch_bytes": scratch_bytes,
        # -- tracing itself ---------------------------------------------
        "trace.overhead_frac": (
            traced_apply_s / statistics.median(untraced_s) - 1.0
        ),
        "trace.n_spans": len(tracer.spans),
    }
    metrics.update(_pickle_roundtrip(session))
    metrics.update(gpu)
    metrics.update(_direct_baseline(inputs, kernel, charges, spec))
    metrics.update(_kernel_primitives(inputs, kernel))
    metrics.update(_distributed(inputs, kernel, params))
    backends, extra_backends = _backends(session, spec, tc)
    metrics.update(backends)
    # Built here where the session backend never builds one, so every
    # workload reports what the batched backend would make of its plan.
    layout = plan.ensure_batched_layout()
    metrics.update({
        "plan.layout_coverage": layout.coverage(),
        "plan.layout_padding_waste": layout.padding_waste(),
        "plan.layout_pad_bytes": layout.padding_nbytes(),
    })

    prepare_share, prepare_ok = read.coverage(op_prepare, PREPARE_LAYERS)
    # the worst-covered warm apply speaks for all of them
    apply_share, apply_ok = min(
        (read.coverage(op, APPLY_LAYERS) for op in op_warm),
        key=lambda c: (c[1], c[0] or 0.0),
    )
    coverage = {"prepare": prepare_share, "apply": apply_share}
    checks = {
        "layers_sum_prepare": prepare_ok, "layers_sum_apply": apply_ok,
    }
    return {
        "metrics": metrics,
        "extra": extra_backends,
        "coverage": coverage,
        "checks": checks,
        "missing_layers": sorted(missing),
        "spans": tracer.as_records(spec.name),
    }


def _gpu_model(session, first) -> dict:
    """The paper's simulated phase times and device counters for one
    ``prepare()`` + first ``apply()`` -- exact, wall-clock never enters."""
    counters = session.device.counters
    return {
        "gpu.sim_setup_s": session.phases.setup,
        "gpu.sim_precompute_s": first.phases.precompute,
        "gpu.sim_compute_s": first.phases.compute,
        "gpu.launches": counters.launches,
        "gpu.bytes_h2d": counters.bytes_h2d,
        "gpu.bytes_d2h": counters.bytes_d2h,
    }


def _pickle_roundtrip(session) -> dict:
    blob = []

    def roundtrip():
        blob[:] = [pickle.dumps(session, pickle.HIGHEST_PROTOCOL)]
        pickle.loads(blob[0])

    return {
        "session.pickle_roundtrip_s": _median_time(roundtrip, 3, warmup=0),
        "session.pickle_bytes": len(blob[0]),
    }


def _direct_baseline(inputs: Inputs, kernel, charges, spec) -> dict:
    """The plain O(N^2) sum the paper's Fig. 4 compares against,
    extrapolated from a 500-target sample."""
    n = inputs.n
    sample = np.arange(min(500, n))
    q = charges[:, 0] if spec.n_rhs > 1 else charges
    seconds = _median_time(
        lambda: repro.direct_sum_at(
            sample, inputs.positions, inputs.positions, q, kernel
        ),
        3,
    )
    return {"direct.est_full_s": seconds * n / sample.size}


def _kernel_primitives(inputs: Inputs, kernel) -> dict:
    pos = inputs.positions
    block = pos[: min(1024, inputs.n)]
    m = min(128, inputs.n)
    g = max(1, min(64, inputs.n // m))
    stack = pos[: g * m].reshape(g, m, 3)
    fused_s = _median_time(
        lambda: kernel.pairwise_fused(block, block), KERNEL_REPEATS
    )
    return {
        "kernels.pairwise_fused_s": fused_s,
        "kernels.pairwise_batched_s": _median_time(
            lambda: kernel.pairwise_batched(stack, stack), KERNEL_REPEATS
        ),
        "kernels.gradient_fused_s": _median_time(
            lambda: kernel.pairwise_gradient_fused(block, block),
            KERNEL_REPEATS,
        ),
        "kernels.pair_evals_per_s": block.shape[0] ** 2 / fused_s,
    }


def _distributed(inputs: Inputs, kernel, params) -> dict:
    """The distributed driver on this workload's particles: 4 simulated
    ranks, theta 0.7, degree 6, NL = NB = N/40, fused."""
    n_ranks = 4
    cap = max(25, inputs.n // 40)
    driver = repro.DistributedBLTC(
        kernel,
        params.with_(
            theta=0.7, degree=6, max_leaf_size=cap, max_batch_size=cap,
            backend="fused",
        ),
        n_ranks=n_ranks,
    )
    q = inputs.charges().reshape(inputs.n, -1)[:, 0]
    t0 = time.perf_counter()
    session = driver.prepare(inputs.particles())
    prepare_s = time.perf_counter() - t0
    first = session.apply(q)
    t0 = time.perf_counter()
    second = session.apply(q)
    apply_s = time.perf_counter() - t0
    return {
        "distributed.prepare_s": prepare_s,
        "distributed.apply_s": apply_s,
        "distributed.let_bytes": sum(
            r["let_bytes"] for r in second.stats["per_rank"]
        ),
        "partition.rcb_s": _median_time(
            lambda: repro.rcb_partition(inputs.positions, n_ranks), 3
        ),
        "mpi.rma_bytes_per_apply": (
            second.stats["total_rma_bytes"] - first.stats["total_rma_bytes"]
        ),
    }


def _backends(session, spec: Workload, tc) -> tuple[dict, dict]:
    """Every backend's ``execute`` on the workload's own plan (weights
    already refreshed by the last apply), on a scratch device so the
    session's counters stay untouched."""
    plan, kernel, params = session.plan, tc.kernel, tc.params
    kwargs = dict(dtype=params.dtype, compute_forces=spec.compute_forces)
    if spec.n_rhs > 1:
        kwargs["n_rhs"] = spec.n_rhs

    def execute_s(backend) -> tuple[float, float]:
        device = make_device(tc.machine, async_streams=tc.async_streams)
        backend.execute(plan, kernel, device, **kwargs)
        evals = int(device.counters.interactions)
        seconds = _median_time(
            lambda: backend.execute(plan, kernel, device, **kwargs),
            BACKEND_REPEATS, warmup=0,
        )
        return seconds, evals

    out, extra = {}, {}
    for name in ("numpy", "fused", "batched"):
        seconds, evals = execute_s(repro.get_backend(name))
        out[f"backends.{name}.execute_s"] = seconds
        if name == params.backend:
            out["backends.kernel_evals"] = evals
            out["backends.evals_per_s"] = evals / seconds
    # Own instance, own pool: the registry's shared one would outlive
    # the run.  Reported, not end-to-end: too noisy on a shared box.
    pool = repro.MultiprocessingBackend(n_workers=2)
    try:
        out["backends.multiprocessing.execute_s"], _ = execute_s(pool)
    finally:
        pool.close()
    if "numba" in repro.available_backends():
        extra["backends.numba.execute_s"], _ = execute_s(
            repro.get_backend("numba")
        )
    return out, extra
