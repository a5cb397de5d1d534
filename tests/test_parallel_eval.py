"""The per-group evaluator on worker threads: the same bytes for any count.

:func:`~repro.core.backends.groupeval.eval_group_range` shares its
groups among threads (:func:`repro.parallel.worker_count`: the CPUs the
process may run on, capped at the group count) under single-threaded
OpenBLAS, adding the mirrored products in group order.  Checked here:

* Forcing 1, 2 and 3 workers (by patching the CPU count) gives bitwise
  the same potentials and forces on the ``cube_default``, ``plummer_md``
  (forces) and ``sphere_rhs16`` (16 charge columns) recipes, and on a
  hand-written plan with mirrored blocks and empty groups; potentials
  are the same bytes with forces on or off.
* The BLAS thread count is 1 inside an execute and comes back to the
  caller's value after it, after a kernel that raises inside the second
  worker (the exception surfaces from ``apply`` with every thread
  joined), and after nested or concurrent scopes.
* Two sessions applied at once from two user threads return their
  serial bytes.
* Results reach ``consume`` in task order however the workers finish.

The recipes run at full size: at smoke size ``cube_default`` is one
group, which leaves nothing to share.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import BarycentricTreecode, CoulombKernel, TreecodeParams, parallel
from repro.core.backends import groupeval
from repro.core.backends.fused import uses_stacked_path
from repro.core.backends.groupeval import eval_group_range, plan_arrays

from plan_factory import listed_plan

_E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "e2e",
)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)

from e2e_workloads import WORKLOADS, Inputs  # noqa: E402

RECIPES = ("cube_default", "plummer_md", "sphere_rhs16")

needs_openblas = pytest.mark.skipif(
    parallel.blas_threads() is None,
    reason="numpy ships no OpenBLAS thread setter: one worker only",
)


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS at 2 threads for the test, so a restored count
    is told apart from the scope's 1; the caller's count afterwards."""
    get, set_ = parallel._openblas()
    before = get()
    set_(2)
    yield 2
    set_(before)


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)``: the evaluator runs on ``n`` threads from now on;
    every worker count it used is recorded in ``workers.used``."""
    used = []
    real = groupeval.run_ordered

    def recording(body, states, n_tasks, consume):
        used.append(len(states))
        return real(body, states, n_tasks, consume)

    monkeypatch.setattr(groupeval, "run_ordered", recording)

    def force(n):
        monkeypatch.setattr(parallel, "available_cpus", lambda: n)

    force.used = used
    return force


@pytest.fixture(scope="module")
def recipe_sessions():
    out = {}
    for name in RECIPES:
        spec = WORKLOADS[name]
        inputs = Inputs(spec, 0, "full")
        sess = spec.driver().prepare(inputs.particles())
        assert not uses_stacked_path(sess.plan, sess.kernel)
        assert sess.plan.mirror_schedule().n_pairs > 0
        out[name] = (spec, sess, inputs.charges())
    return out


@needs_openblas
@pytest.mark.parametrize("name", RECIPES)
def test_recipes_bitwise_for_any_worker_count(name, recipe_sessions, workers):
    spec, sess, charges = recipe_sessions[name]
    results = []
    for n in (1, 2, 3):
        workers(n)
        results.append(
            sess.apply(charges, compute_forces=spec.compute_forces)
        )
    assert workers.used == [1, 2, 3]
    first = results[0]
    for res in results[1:]:
        assert _same(res.potential, first.potential)
        assert _same(res.forces, first.forces)
    if spec.compute_forces:
        assert first.forces is not None
        bare = sess.apply(charges, compute_forces=False)
        assert _same(bare.potential, first.potential)


def _mirrored_plan_with_empty_groups():
    """Two groups that are each other's direct neighbours (so the
    schedule pairs them), a group without target rows, one whose only
    segment is empty, and a far group."""
    rng = np.random.default_rng(7)
    a, b, c = rng.random((9, 3)), rng.random((6, 3)), rng.random((4, 3)) + 3
    sources = {"a": a, "b": b, "c": c, "empty": np.empty((0, 3))}
    plan = listed_plan(
        [
            (a, [("direct", "a"), ("direct", "b"), ("approx", "c")]),
            (np.empty((0, 3)), [("direct", "a")]),
            (b, [("direct", "b"), ("direct", "a")]),
            (rng.random((3, 3)), [("direct", "empty")]),
            (c, [("direct", "c"), ("approx", "a")]),
        ],
        sources,
    )
    assert plan.mirror_schedule().n_pairs > 0
    return plan


@needs_openblas
@pytest.mark.parametrize("forces", [False, True], ids=["phi", "forces"])
@pytest.mark.parametrize("n_rhs", [1, 3])
def test_mirrors_and_empty_groups_bitwise_for_any_worker_count(
    forces, n_rhs
):
    plan = _mirrored_plan_with_empty_groups()
    kernel = CoulombKernel()
    arrays = plan_arrays(plan)
    rows = plan.source_buffer_rows
    q = np.random.default_rng(8).uniform(-1, 1, (rows, n_rhs))
    arrays["src_weights"] = np.asarray(q if n_rhs > 1 else q[:, 0], order="F")
    mirrors = arrays["mirrors"] = plan.mirror_schedule()
    arrays["candidates"] = plan.group_candidates(mirrors)
    got = [
        eval_group_range(arrays, kernel, forces, 0, plan.n_groups, n)
        for n in (1, 2, 3)
    ]
    assert np.any(got[0][2] != 0.0)
    for res in got[1:]:
        assert res[:2] == got[0][:2]
        assert _same(res[2], got[0][2]) and _same(res[3], got[0][3])


class _WorkerError(RuntimeError):
    pass


class _Probe(CoulombKernel):
    """Coulomb that records the BLAS thread count each block sees."""

    def __init__(self):
        super().__init__()
        self.blas_inside = set()

    def potential(self, *args, **kwargs):
        self.blas_inside.add(parallel.blas_threads())
        return super().potential(*args, **kwargs)


class _FailsOnSecondWorker(_Probe):
    """Raises in the first group a thread other than the caller's
    evaluates; the caller's first group waits (once) for that."""

    def __init__(self):
        super().__init__()
        self.caller = threading.get_ident()
        self.raised = threading.Event()
        self.waited = False

    def potential(self, *args, **kwargs):
        if threading.get_ident() != self.caller:
            self.raised.set()
            raise _WorkerError("raised inside worker 2")
        if not self.waited:
            self.waited = True
            self.raised.wait(timeout=60)
        return super().potential(*args, **kwargs)


@needs_openblas
@pytest.mark.parametrize("kernel_type", [_Probe, _FailsOnSecondWorker])
def test_blas_count_restored_after_execute(kernel_type, blas_at_two, workers):
    spec = WORKLOADS["cube_default"]
    inputs = Inputs(spec, 0, "full")
    kernel = kernel_type()
    sess = BarycentricTreecode(
        kernel, TreecodeParams(**spec.params)
    ).prepare(inputs.particles())
    workers(2)
    threads = set(threading.enumerate())
    if kernel_type is _Probe:
        sess.apply(inputs.charges())
    else:
        with pytest.raises(_WorkerError, match="worker 2"):
            sess.apply(inputs.charges())
        assert kernel.raised.is_set()
    assert workers.used == [2]
    assert kernel.blas_inside == {1}
    assert set(threading.enumerate()) == threads  # every worker joined
    assert parallel.blas_threads() == blas_at_two


@needs_openblas
def test_scopes_nest_and_restore_once(blas_at_two):
    outer = parallel.single_threaded_blas()
    inner = parallel.single_threaded_blas()
    outer.__enter__()
    inner.__enter__()
    assert parallel.blas_threads() == 1
    outer.__exit__(None, None, None)  # exits out of order
    assert parallel.blas_threads() == 1
    inner.__exit__(None, None, None)
    assert parallel.blas_threads() == blas_at_two


@needs_openblas
def test_two_sessions_applied_at_once(blas_at_two, recipe_sessions, workers):
    workers(2)
    jobs = [
        recipe_sessions[name] for name in ("cube_default", "plummer_md")
    ]
    serial = [
        sess.apply(q, compute_forces=spec.compute_forces)
        for spec, sess, q in jobs
    ]
    start = threading.Barrier(len(jobs))
    results = [[] for _ in jobs]
    errors = []

    def run(i):
        spec, sess, q = jobs[i]
        try:
            start.wait(timeout=60)
            for _ in range(3):
                results[i].append(
                    sess.apply(q, compute_forces=spec.compute_forces)
                )
        except BaseException as exc:  # reported below
            errors.append(exc)

    users = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for user in users:
        user.start()
    for user in users:
        user.join()
    assert not errors
    for want, got in zip(serial, results):
        assert len(got) == 3
        for res in got:
            assert _same(res.potential, want.potential)
            assert _same(res.forces, want.forces)
    assert parallel.blas_threads() == blas_at_two


def test_results_consumed_in_task_order():
    order = []

    def body(i, delay):
        time.sleep(delay * (5 - i))  # later tasks finish first
        return i

    parallel.run_ordered(body, [0.002, 0.002, 0.002], 6, order.append)
    assert order == list(range(6))


def test_first_error_stops_the_workers():
    taken = []

    def body(i, _):
        taken.append(i)
        if i == 1:
            raise _WorkerError(f"task {i}")
        time.sleep(0.01)

    with pytest.raises(_WorkerError, match="task 1"):
        parallel.run_ordered(body, [None, None], 50, lambda _: None)
    assert len(taken) < 50
