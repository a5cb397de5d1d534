"""The untraced run: end-to-end metrics through the public session API.

One closed-loop client drives ``prepare()`` / ``apply()`` /
``update_geometry()`` exactly as a user would and reads nothing but
their return values plus ``memory_stats()`` / ``health_stats()``.  The
measuring window is ``seconds`` long and is filled with rounds of the
same operations, so a run is as long on one commit as on the next and
the medians rest on as many samples as the window affords.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import warnings

import numpy as np

import repro
from repro.errors import BackendDegradedWarning

from e2e_workloads import Inputs, Workload

__all__ = ["Ops", "run_untraced", "summarize"]

#: A round is one cold cycle, ``WARM_PER_ROUND`` warm applies and one
#: drift step; a run makes at least ``ROUNDS_MIN`` however slow the
#: machine.  The last ``SETUP_TOPUP_SHARE`` of the window tops
#: ``setup_s`` up to ``SETUP_MIN`` samples with prepare-only repeats.
ROUNDS_MIN = 5
WARM_PER_ROUND = 2
SETUP_TOPUP_SHARE, SETUP_MIN = 0.05, 15

#: Targets sampled for ``rel_err_l2``.
ERR_SAMPLES = 500


class Ops:
    """Counts operations attempted and failed, and times them.

    An operation fails if it returns non-finite values, leaves a
    fallback in ``health_stats()`` or breaks a contract check.  One that
    raises ends the run with its traceback: the workloads are chosen so
    none does, and there would be no metrics to report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def timed(self, fn, *args):
        """``(seconds, result)`` of ``fn(*args)``, one counted operation."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result

    def check_apply(self, what: str, session, result) -> None:
        ok = bool(np.isfinite(result.potential).all())
        if result.forces is not None:
            ok = ok and bool(np.isfinite(result.forces).all())
        if not ok:
            self.fail(f"{what}: non-finite values")
        elif session.health_stats()["fallbacks"]:
            self.fail(f"{what}: backend degraded")


def summarize(samples: list[float]) -> dict:
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def _bitwise_equal(a, b) -> bool:
    if (a.forces is None) != (b.forces is None):
        return False
    same = np.array_equal(a.potential, b.potential)
    if a.forces is not None:
        same = same and np.array_equal(a.forces, b.forces)
    return bool(same)


def _direct_share(session) -> float:
    """Direct-sum share of the plan's kernel evaluations."""
    by_kind = session.device.counters.by_kind
    direct = by_kind["direct"][1]
    return direct / (direct + by_kind["approx"][1])


def run_untraced(
    spec: Workload, inputs: Inputs, seconds: float, seed: int
) -> dict:
    """Measure one workload; returns timings, scalars, checks and ops."""
    ops = Ops()
    with warnings.catch_warnings():
        # A degraded backend ends the run: a failure, not a slower path.
        warnings.simplefilter("error", BackendDegradedWarning)
        out = _measure(spec, inputs, seconds, seed, ops)
    out.update(
        attempted=ops.attempted, failed=ops.failed, failures=ops.failures
    )
    return out


def _measure(spec, inputs, seconds, seed, ops) -> dict:
    tc = spec.driver()
    forces = spec.compute_forces
    particles = inputs.particles()
    setup_s, first_apply_s, apply_warm_s, step_s = [], [], [], []
    rebuilt = []

    def apply(session, charges):
        return session.apply(charges, compute_forces=forces)

    def cold_cycle():
        """prepare() then the first apply(), both timed."""
        dt, session = ops.timed(tc.prepare, particles)
        setup_s.append(dt)
        dt, result = ops.timed(apply, session, step_charges)
        first_apply_s.append(dt)
        ops.check_apply("first apply", session, result)
        return session

    # Two standing sessions, both products of a timed cold cycle: `warm`
    # keeps the initial geometry for the warm applies, `moving` takes
    # the drift steps.  Every round then makes one more cold cycle, the
    # warm applies and one step, so each metric's samples span the whole
    # window and a slow stretch of the machine weighs on all alike.
    step_charges = inputs.charges()
    positions = inputs.positions
    started = time.perf_counter()
    warm = cold_cycle()
    moving = cold_cycle()
    deadline = started + (1.0 - SETUP_TOPUP_SHARE) * seconds
    rounds = 0
    while rounds < ROUNDS_MIN or time.perf_counter() < deadline:
        rounds += 1
        cold_cycle()
        for _ in range(WARM_PER_ROUND):
            charges = inputs.charges()  # fresh charges, fixed geometry
            dt, warm_result = ops.timed(apply, warm, charges)
            apply_warm_s.append(dt)
            ops.check_apply("warm apply", warm, warm_result)
        positions = inputs.drift(positions)
        dt_u, update = ops.timed(moving.update_geometry, positions)
        dt_a, moved_result = ops.timed(apply, moving, step_charges)
        step_s.append(dt_u + dt_a)
        rebuilt.append(bool(update.rebuilt))
        ops.check_apply("post-update apply", moving, moved_result)
    # A sub-second prepare gets prepare-only repeats: its median would
    # otherwise rest on a handful of samples.
    deadline = time.perf_counter() + SETUP_TOPUP_SHARE * seconds
    while len(setup_s) < SETUP_MIN and time.perf_counter() < deadline:
        dt, _ = ops.timed(tc.prepare, particles)
        setup_s.append(dt)

    session_bytes = warm.memory_stats()["total_bytes"]
    column = (lambda a: a[:, 0]) if spec.n_rhs > 1 else (lambda a: a)
    rel_err_l2 = repro.sampled_error(
        column(warm_result.potential), inputs.positions, inputs.positions,
        column(charges), tc.kernel, n_samples=ERR_SAMPLES, seed=seed,
    )

    # -- column 0 of a block apply == a solo apply ----------------------
    checks = {}
    if spec.n_rhs > 1:
        _, solo = ops.timed(apply, warm, charges[:, 0].copy())
        checks["column_equals_solo"] = bool(
            np.array_equal(solo.potential, warm_result.potential[:, 0])
        )
        if not checks["column_equals_solo"]:
            ops.fail("solo apply: column 0 differs from the block apply")

    # -- the updated session == a cold prepare at the final positions ---
    final = repro.ParticleSet(positions, np.zeros(inputs.n))
    _, cold = ops.timed(tc.prepare, final)
    _, cold_result = ops.timed(apply, cold, step_charges)
    ops.check_apply("first apply", cold, cold_result)
    checks["update_equals_cold_prepare"] = _bitwise_equal(
        moved_result, cold_result
    )
    if not checks["update_equals_cold_prepare"]:
        ops.fail("post-update apply: differs from a cold prepare().apply()")

    timings = {
        "setup_s": summarize(setup_s),
        "first_apply_s": summarize(first_apply_s),
        "apply_warm_s": summarize(apply_warm_s),
        "step_s": summarize(step_s),
    }
    facts = {
        "direct_share": _direct_share(warm),
        "n_groups": warm.plan.n_groups,
        "setup_s": timings["setup_s"]["value"],
        "apply_warm_s": timings["apply_warm_s"]["value"],
        "steps_incremental": rebuilt.count(False),
        "steps_rebuilt": rebuilt.count(True),
    }
    checks["error_under_ceiling"] = bool(rel_err_l2 <= spec.err_ceiling)
    return {
        "timings": timings,
        "rel_err_l2": rel_err_l2,
        "scalars": {
            "session_bytes": session_bytes,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        },
        "facts": facts,
        "checks": checks,
        "regime": spec.regime(facts),
    }
