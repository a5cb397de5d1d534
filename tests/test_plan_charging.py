"""Plan launch charging: one array pass, bitwise the per-launch loop.

``charge_plan_launches`` hands a plan's whole launch sequence to
``Device.launch_many`` as arrays, and the device sums every counter and
its clock in one pass.  This module keeps the per-launch loop it
replaced as a reference (:func:`_reference_charge`: one
``Device.launch`` per segment, group by group, potential kinds before
force kinds) and checks the two leave byte-identical device state --
pickled counters, clock, stream queue, ``by_kind`` key order and the
Python type of every stored value -- on generated plans, on GPU devices
with and without asynchronous streams and on the CPU device.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import BarycentricTreecode, CoulombKernel, TreecodeParams
from repro import random_cube
from repro.core.backends.base import (
    FORCE_FLOP_FACTOR,
    charge_plan_launches,
    launch_cost_multiplier,
)
from repro.gpu.device import CpuDevice, GpuDevice
from repro.perf.machine import CPU_XEON_X5650, GPU_TITAN_V

from plan_factory import listed_plan

DEVICES = {
    "gpu-async": lambda: GpuDevice(GPU_TITAN_V, async_streams=True),
    "gpu-sync": lambda: GpuDevice(GPU_TITAN_V, async_streams=False),
    "cpu": lambda: CpuDevice(CPU_XEON_X5650),
}


def _reference_charge(plan, kernel, device, *, dtype, compute_forces, n_rhs):
    """The per-launch loop: one ``Device.launch`` per segment."""
    cost = launch_cost_multiplier(kernel, device, dtype)
    sizes = np.diff(plan.seg_ptr)
    passes = [("", 1.0)]
    if compute_forces:
        passes.append(("-force", FORCE_FLOP_FACTOR))
    for g in range(plan.n_groups):
        m = plan.group_size(g)
        if m == 0:
            continue
        segs = range(int(plan.seg_group_ptr[g]), int(plan.seg_group_ptr[g + 1]))
        for suffix, factor in passes:
            for s in segs:
                interactions = float(m) * float(sizes[s])
                if n_rhs != 1:
                    interactions *= float(n_rhs)
                device.launch(
                    interactions,
                    blocks=m,
                    kind=plan.kind_names[plan.seg_kind[s]] + suffix,
                    flops_per_interaction=factor * kernel.flops_per_interaction,
                    cost_multiplier=cost,
                )


def _state(device):
    """Everything a charge writes, with the type of every stored value."""
    c = device.counters
    values = [device.time, c.launches, c.interactions]
    values += [v for cell in c.by_kind.values() for v in cell]
    values += list(c.busy_by_kind.values())
    queue = (
        getattr(device, "_queued_busy", None),
        getattr(device, "_queued_launches", None),
    )
    return (
        pickle.dumps(c),
        repr(device.time),
        repr(queue),
        list(c.by_kind),
        list(c.busy_by_kind),
        [type(v) for v in values + list(queue)],
    )


def _model_plan(groups):
    """A model-only plan from ``[(rows, [(kind, size), ...]), ...]``."""
    sizes = [size for _, segs in groups for _, size in segs]
    key = iter(range(len(sizes)))
    return listed_plan(
        [(m, [(kind, next(key)) for kind, _ in segs]) for m, segs in groups],
        dict(enumerate(sizes)),
        numerics=False,
    )


@st.composite
def charge_cases(draw):
    """Random kinds (interleaved within a group), empty and zero-row
    groups, zero-size segments, and prior launches that leave non-zero
    counters -- some on kinds the plan uses, some not."""
    segment = st.tuples(
        st.sampled_from(("approx", "direct", "cc", "near")),
        st.integers(0, 9),
    )
    group = st.tuples(st.integers(0, 6), st.lists(segment, max_size=5))
    groups = draw(st.lists(group, max_size=8))
    prior = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("direct", "moments-1", "approx-force")),
                st.floats(1.0, 1e7),
                st.integers(1, 2000),
            ),
            max_size=3,
        )
    )
    return (
        groups,
        prior,
        draw(st.booleans()),
        draw(st.sampled_from((1, 3))),
        draw(st.sampled_from((np.float64, np.float32))),
    )


def _charge_both(plan, prior, device_name, **kw):
    kernel = CoulombKernel()
    devices = []
    for charge in (charge_plan_launches, _reference_charge):
        device = DEVICES[device_name]()
        device.host_work(123.0)
        for kind, n, blocks in prior:
            device.launch(n, blocks=blocks, kind=kind)
        for _ in range(2):
            charge(plan, kernel, device, **kw)
        devices.append(device)
    return devices


@pytest.mark.parametrize("device_name", sorted(DEVICES))
class TestArrayPassIsTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(case=charge_cases())
    @example(case=([], [], True, 1, np.float64))
    @example(case=([(0, [("direct", 4)]), (3, [])], [], True, 3, np.float64))
    def test_generated_plans(self, device_name, case):
        groups, prior, forces, n_rhs, dtype = case
        new, ref = _charge_both(
            _model_plan(groups), prior, device_name,
            dtype=dtype, compute_forces=forces, n_rhs=n_rhs,
        )
        assert _state(new) == _state(ref)
        assert repr(new.elapsed()) == repr(ref.elapsed())

    @pytest.mark.parametrize("forces", [False, True], ids=["pot", "forces"])
    def test_compiled_plan(self, device_name, forces):
        cube = random_cube(600, seed=3)
        plan = BarycentricTreecode(
            CoulombKernel(),
            TreecodeParams(
                theta=0.8, degree=2, max_leaf_size=20, max_batch_size=20,
                backend="model",
            ),
        ).prepare(cube).plan
        new, ref = _charge_both(
            plan, [("moments-1", 1e4, 30)], device_name,
            dtype=np.float64, compute_forces=forces, n_rhs=16,
        )
        assert new.counters.launches > 1000
        assert _state(new) == _state(ref)
