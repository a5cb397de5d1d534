"""Deterministic fault injection and retry policies for the execution layer.

Testing worker-crash recovery by actually racing ``kill`` against a
process pool is flaky by construction; this module makes every failure
mode of the execution layer *deterministically* reproducible instead.
A :class:`FaultInjector` holds a list of parsed fault specs and is
consulted at fixed injection points (sites) wired into the codebase:

======================  =====================================================
site                    effect at the injection point
======================  =====================================================
``mp_worker_crash``     the matched shard's worker calls ``os._exit`` before
                        touching the shipment (kills the whole pool)
``mp_worker_hang``      the matched shard's worker sleeps ``seconds=`` (def.
                        30) before evaluating -- exercises shard timeouts
``mp_pool_broken``      the parent raises ``BrokenProcessPool`` before
                        submitting (cheap pool-loss simulation)
``shipment_pack``       shared-memory packing reports SHM unavailable; the
                        shipment falls back to pickle shipping
``shipment_pack_fatal`` shared-memory packing raises ``OSError`` outside the
                        guarded region -- surfaces as ``ShipmentError``
``batched_layout``      building the batched execution layout raises --
                        surfaces as ``BackendExecutionError``
======================  =====================================================

Spec syntax (the ``REPRO_FAULT`` environment variable, or the string
handed to :func:`configure_faults`)::

    REPRO_FAULT="mp_worker_crash:shard=2:times=1"
    REPRO_FAULT="mp_worker_crash:shard=0,shipment_pack:times=2"

Comma-separated entries; each entry is a site name followed by
``key=value`` qualifiers.  ``times=N`` bounds how often the entry fires
(default: unlimited).  Any other key must match the keyword context the
injection point passes to :meth:`FaultInjector.fire` (``shard=2`` fires
only for shard index 2); keys the site does not pass in its context act
as payload parameters readable via :meth:`FaultSpec.get`
(``mp_worker_hang:seconds=2``).  Counting is per-spec and lock-guarded,
so a given scenario injects the same faults in the same order every run
-- CI can assert exact recovery behaviour (one crash, one pool rebuild,
bitwise-identical results) without ever killing a process for real.

:class:`RetryPolicy` is the companion knob bundle for *bounded*
recovery: total attempt count, exponential backoff between attempts and
an optional per-shard future timeout.  The multiprocessing backend takes
one (``MultiprocessingBackend(retry=...)``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "RetryPolicy",
    "get_fault_injector",
    "configure_faults",
]

FAULT_ENV_VAR = "REPRO_FAULT"


def _coerce(value: str):
    """Spec values: int when the text is integral, float when numeric,
    the raw string otherwise."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


@dataclass
class FaultSpec:
    """One parsed fault entry: a site plus qualifiers.

    ``params`` holds every ``key=value`` qualifier except ``times``;
    keys present in an injection point's context are matchers, the rest
    are payload (:meth:`get`).  ``fired`` counts how often this spec
    triggered (bounded by ``times`` when set).
    """

    site: str
    params: dict = field(default_factory=dict)
    times: int | None = None
    fired: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = [p.strip() for p in text.split(":") if p.strip()]
        if not parts:
            raise ValueError(f"empty fault spec in {text!r}")
        site, params, times = parts[0], {}, None
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(
                    f"fault qualifier {part!r} is not key=value (in {text!r})"
                )
            if key == "times":
                times = int(value)
            else:
                params[key] = _coerce(value)
        return cls(site=site, params=params, times=times)

    def get(self, key: str, default=None):
        """Payload parameter lookup (non-matcher qualifiers)."""
        return self.params.get(key, default)

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times

    def matches(self, context: dict) -> bool:
        return all(
            context[k] == v for k, v in self.params.items() if k in context
        )


class FaultInjector:
    """Deterministic, counted fault injection at named sites.

    ``fire(site, **context)`` returns the first armed :class:`FaultSpec`
    whose site and matchers agree with ``context`` (consuming one of its
    ``times``), or ``None``.  With no specs configured -- production --
    every call is a cheap early return.
    """

    def __init__(self, specs: list[FaultSpec] | None = None) -> None:
        self._specs = list(specs or [])
        self._lock = threading.Lock()

    @classmethod
    def from_string(cls, text: str | None) -> "FaultInjector":
        specs = [
            FaultSpec.parse(entry)
            for entry in (text or "").split(",")
            if entry.strip()
        ]
        return cls(specs)

    @classmethod
    def from_env(cls, var: str = FAULT_ENV_VAR) -> "FaultInjector":
        return cls.from_string(os.environ.get(var))

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(self._specs)

    def active(self, site: str) -> bool:
        """Whether any non-exhausted spec targets ``site`` (no consume)."""
        with self._lock:
            return any(
                s.site == site and not s.exhausted for s in self._specs
            )

    def fire(self, site: str, **context) -> FaultSpec | None:
        """Consume and return the first matching armed spec, else None."""
        if not self._specs:
            return None
        with self._lock:
            for spec in self._specs:
                if spec.site != site or spec.exhausted:
                    continue
                if spec.matches(context):
                    spec.fired += 1
                    return spec
        return None


#: The process-global injector; created lazily from ``REPRO_FAULT`` so a
#: CI scenario configures the whole process through one env var.
_INJECTOR: FaultInjector | None = None
_INJECTOR_LOCK = threading.Lock()


def get_fault_injector() -> FaultInjector:
    """The process-global injector (env-initialized on first use)."""
    global _INJECTOR
    if _INJECTOR is None:
        with _INJECTOR_LOCK:
            if _INJECTOR is None:
                _INJECTOR = FaultInjector.from_env()
    return _INJECTOR


def configure_faults(
    spec: "str | FaultInjector | None",
) -> FaultInjector:
    """Install a process-global injector programmatically (tests).

    ``spec`` may be a spec string (same syntax as ``REPRO_FAULT``), a
    ready-made :class:`FaultInjector`, or ``None`` / ``""`` to clear all
    faults.  Returns the installed injector.
    """
    global _INJECTOR
    with _INJECTOR_LOCK:
        if isinstance(spec, FaultInjector):
            _INJECTOR = spec
        else:
            _INJECTOR = FaultInjector.from_string(spec)
    return _INJECTOR


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-recovery knobs for pool-carrying backends.

    ``max_attempts`` is the *total* number of execution attempts
    (first try included); ``backoff * backoff_factor**(n-1)`` seconds
    are slept before retry ``n``; ``timeout`` bounds how long the
    parent waits for all of one apply's shard futures together
    (``None``: wait forever) -- a hung worker then counts as a pool
    failure and triggers the same rebuild-and-retry path a crash does.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError(
                f"timeout must be positive or None, got {self.timeout}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based over retries)."""
        return self.backoff * self.backoff_factor ** max(attempt - 1, 0)
