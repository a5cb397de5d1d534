"""Discrete cost simulation of CPU and GPU execution devices.

The drivers and the plan backends (:mod:`repro.core.backends`) drive a
:class:`Device` through the same sequence of operations the paper's
OpenACC code performs: HtD copies, kernel launches on asynchronous
streams, DtH copies, and synchronization points.  The device converts
these events into simulated seconds via its
:class:`~repro.perf.machine.MachineSpec`.

Stream model
------------
With asynchronous streams (paper Sec. 3.2) the CPU queues kernels and
immediately regains control; launch initialization on one stream overlaps
computation on others.  Between synchronization points the device
accumulates the total busy time of all queued kernels; the per-launch
latency is exposed only at rate ``launch_latency / n_streams`` because
``n_streams`` initializations proceed concurrently with execution.  In
synchronous mode every launch pays its full latency serially -- the
baseline against which the paper measures the ~25% async improvement.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..perf.machine import MachineSpec

__all__ = ["DeviceCounters", "Device", "GpuDevice", "CpuDevice", "make_device"]


# Module-level defaultdict factories (lambdas would make the counters
# -- and every session holding a device -- unpicklable).
def _kind_cell() -> list:
    return [0, 0.0]


def _by_kind_dict() -> defaultdict:
    return defaultdict(_kind_cell)


def _busy_dict() -> defaultdict:
    return defaultdict(float)


def _add_in_order(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...``, added left to right.

    ``np.add.accumulate`` adds strictly in sequence (unlike ``np.sum``,
    which is pairwise), so the result is bitwise a Python ``+=`` loop's.
    """
    acc = np.empty(len(values) + 1)
    acc[0] = start
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


@dataclass
class DeviceCounters:
    """Cumulative event counters for one device."""

    launches: int = 0
    interactions: float = 0.0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    transfers: int = 0
    #: Per-kernel-kind (launches, interactions) breakdown.
    by_kind: dict = field(default_factory=_by_kind_dict)
    #: Per-kernel-kind busy seconds (execution time excluding launch
    #: latency); lets harnesses re-time a run for a different kernel's
    #: cost multiplier without re-running the pipeline.
    busy_by_kind: dict = field(default_factory=_busy_dict)

    def record_launch(
        self, kind: str, n_interactions: float, busy_seconds: float = 0.0
    ) -> None:
        self.launches += 1
        self.interactions += n_interactions
        entry = self.by_kind[kind]
        entry[0] += 1
        entry[1] += n_interactions
        self.busy_by_kind[kind] += busy_seconds


class Device:
    """Base class: simulated-time accounting shared by CPU and GPU."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self.time = 0.0
        self.counters = DeviceCounters()
        self._mark = 0.0

    # -- operations ----------------------------------------------------
    def upload(self, nbytes: int, label: str = "") -> None:
        """Host-to-device copy of ``nbytes`` (OpenACC data region in)."""
        self.synchronize()
        self.time += self.spec.transfer_time(nbytes)
        self.counters.bytes_h2d += int(nbytes)
        self.counters.transfers += 1

    def download(self, nbytes: int, label: str = "") -> None:
        """Device-to-host copy of ``nbytes`` (OpenACC data region out)."""
        self.synchronize()
        self.time += self.spec.transfer_time(nbytes)
        self.counters.bytes_d2h += int(nbytes)
        self.counters.transfers += 1

    def launch(
        self,
        n_interactions: float,
        *,
        blocks: int,
        kind: str = "direct",
        flops_per_interaction: float = 20.0,
        cost_multiplier: float = 1.0,
    ) -> None:
        """Record one compute-kernel launch."""
        raise NotImplementedError

    def launch_many(self, kinds, kind_names, n_interactions, durations) -> None:
        """Record a sequence of launches with precomputed durations.

        Array form of :meth:`launch` for plan-driven charging: launch
        ``i`` has kind ``kind_names[kinds[i]]``, ``n_interactions[i]``
        interactions and ``durations[i]`` busy seconds (from
        :meth:`~repro.perf.machine.MachineSpec.interaction_times`).
        Every counter and the clock are summed in one array pass,
        strictly in launch order, so they are bitwise what the
        equivalent :meth:`launch` loop records; new kinds enter
        ``by_kind`` / ``busy_by_kind`` in first-launch order.
        """
        if len(kinds) == 0:
            return
        c = self.counters
        c.launches += len(kinds)
        c.interactions = _add_in_order(c.interactions, n_interactions)
        firsts = []
        for k in range(len(kind_names)):
            idx = np.flatnonzero(kinds == k)
            if len(idx):
                firsts.append((idx[0], kind_names[k], idx))
        for _, kind, idx in sorted(firsts, key=lambda f: f[0]):
            entry = c.by_kind[kind]
            entry[0] += len(idx)
            entry[1] = _add_in_order(entry[1], n_interactions[idx])
            c.busy_by_kind[kind] = _add_in_order(
                c.busy_by_kind[kind], durations[idx]
            )
        self._advance_clock(durations)

    def _advance_clock(self, durations) -> None:
        """Advance the clock past ``durations`` launched in order."""
        raise NotImplementedError

    def host_work(self, n_ops: float) -> None:
        """Account for host-side (CPU) bookkeeping such as tree builds."""
        self.synchronize()
        self.time += n_ops / self.spec.host_op_rate

    def comm_wait(self, seconds: float) -> None:
        """Account for communication time spent while the device idles."""
        self.synchronize()
        self.time += seconds

    def synchronize(self) -> None:
        """Drain any queued asynchronous work (no-op by default)."""

    # -- time queries ---------------------------------------------------
    def elapsed(self) -> float:
        """Total simulated seconds (synchronizes first)."""
        self.synchronize()
        return self.time

    def take_phase(self) -> float:
        """Simulated seconds since the previous call (phase boundary)."""
        self.synchronize()
        delta = self.time - self._mark
        self._mark = self.time
        return delta


class GpuDevice(Device):
    """GPU device with launch latency, streams, occupancy, transfers."""

    def __init__(self, spec: MachineSpec, *, async_streams: bool = True) -> None:
        if spec.kind != "gpu":
            raise ValueError(f"GpuDevice requires a gpu spec, got {spec.kind!r}")
        super().__init__(spec)
        self.async_streams = bool(async_streams)
        self._queued_busy = 0.0
        self._queued_launches = 0

    def launch(
        self,
        n_interactions: float,
        *,
        blocks: int,
        kind: str = "direct",
        flops_per_interaction: float = 20.0,
        cost_multiplier: float = 1.0,
    ) -> None:
        duration = self.spec.interaction_time(
            n_interactions,
            flops_per_interaction=flops_per_interaction,
            cost_multiplier=cost_multiplier,
            blocks=blocks,
        )
        self.counters.record_launch(kind, n_interactions, duration)
        if self.async_streams:
            self._queued_busy += duration
            self._queued_launches += 1
        else:
            self.time += self.spec.launch_latency + duration

    def _advance_clock(self, durations) -> None:
        if self.async_streams:
            self._queued_busy = _add_in_order(self._queued_busy, durations)
            self._queued_launches += len(durations)
        else:
            self.time = _add_in_order(
                self.time, self.spec.launch_latency + durations
            )

    def synchronize(self) -> None:
        if self._queued_launches:
            # Busy time is work-conserving across streams; launch latency
            # is overlapped n_streams-wide, with one un-hidden latency to
            # fill the pipeline.
            exposed = (
                self._queued_launches
                * self.spec.launch_latency
                / self.spec.n_streams
            )
            self.time += self._queued_busy + exposed + self.spec.launch_latency
            self._queued_busy = 0.0
            self._queued_launches = 0


class CpuDevice(Device):
    """Multicore CPU device (the paper's OpenMP reference).

    No launch latency, no transfers; every "kernel" is an OpenMP parallel
    loop over the batch's interaction list (Sec. 4).  Occupancy effects do
    not apply -- the thread count is small and loops are long.
    """

    def __init__(self, spec: MachineSpec) -> None:
        if spec.kind != "cpu":
            raise ValueError(f"CpuDevice requires a cpu spec, got {spec.kind!r}")
        super().__init__(spec)

    def launch(
        self,
        n_interactions: float,
        *,
        blocks: int,
        kind: str = "direct",
        flops_per_interaction: float = 20.0,
        cost_multiplier: float = 1.0,
    ) -> None:
        duration = self.spec.interaction_time(
            n_interactions,
            flops_per_interaction=flops_per_interaction,
            cost_multiplier=cost_multiplier,
            blocks=None,
        )
        self.counters.record_launch(kind, n_interactions, duration)
        self.time += duration

    def _advance_clock(self, durations) -> None:
        self.time = _add_in_order(self.time, durations)


def make_device(spec: MachineSpec, *, async_streams: bool = True) -> Device:
    """Construct the device matching ``spec.kind``."""
    if spec.kind == "gpu":
        return GpuDevice(spec, async_streams=async_streams)
    return CpuDevice(spec)
