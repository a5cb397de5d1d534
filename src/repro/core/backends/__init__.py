"""Pluggable evaluation backends for compiled execution plans.

The pipeline (single-device BLTC, distributed driver and the Sec. 5
extension schemes) compiles its work into an
:class:`~repro.core.plan.ExecutionPlan` and hands it to one of these
backends:

* :class:`NumpyBackend` (``"numpy"``) -- the reference; reproduces the
  seed implementation's blocked per-batch arithmetic byte-for-byte.
* :class:`FusedBackend` (``"fused"``) -- the plan evaluator: evaluates
  from the shared pre-gathered buffers, stacked per shape bucket when
  the plan's groups are small (mean target rows below
  :data:`~.fused.STACKED_MAX_MEAN_ROWS`, radial kernels), one
  accumulation per group with mirrored direct blocks otherwise.
  ``"batched"`` names the same class.
* :class:`MultiprocessingBackend` (``"multiprocessing"``) -- shards the
  plan's groups across a persistent worker pool, pickling the flat
  buffers into each shard's task; the paper's outer (multi-rank)
  parallelism on one host.
* :class:`ModelBackend` (``"model"``) -- launch accounting only (the
  old ``dry_run`` mode); runs the timing model at paper scale.

Select one with ``TreecodeParams(backend="fused")`` or register your own
(a real GPU, ...) via :func:`register_backend`.  The name -> class store
itself lives in :mod:`repro.registry` so the config layer can validate
backend names without importing this package.
"""

from __future__ import annotations

from ...registry import (
    backend_names,
    backend_type,
    register_backend_type,
    shared_backend_instance,
)
from .base import (
    Backend,
    charge_plan_launches,
    charge_segment_launches,
    launch_cost_multiplier,
)
from .fused import FusedBackend
from .model import ModelBackend
from .multiproc import MultiprocessingBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "MultiprocessingBackend",
    "ModelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "charge_plan_launches",
    "charge_segment_launches",
    "launch_cost_multiplier",
]


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Register a backend class under ``cls.name`` (decorator-friendly)."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"backend class {cls!r} needs a distinct name")
    register_backend_type(name, cls)
    return cls


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends."""
    return backend_names()


def get_backend(name: str | Backend) -> Backend:
    """Resolve a backend instance from a registry name.

    Backend instances pass through unchanged, so drivers accept either a
    name (registry lookup) or a ready-made object (custom backends that
    carry their own state).  Classes marked ``share_instance`` resolve
    through the process-wide store in :mod:`repro.registry`, so
    selecting e.g. ``TreecodeParams(backend="multiprocessing")`` reuses
    the same worker pool across every session in the process -- live or
    restored from a pickle -- instead of forking a fresh one each time.
    """
    if isinstance(name, Backend):
        return name
    try:
        cls = backend_type(name)
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    if getattr(cls, "share_instance", False):
        return shared_backend_instance(name, cls)
    return cls()


register_backend(NumpyBackend)
register_backend(FusedBackend)
# The benchmark recipes still name the evaluator "batched".
register_backend_type("batched", FusedBackend)
register_backend(ModelBackend)
register_backend(MultiprocessingBackend)
