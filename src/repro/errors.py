"""Structured exception taxonomy for the execution layer.

The treecode is pitched as a long-running workload (MD trajectories,
many applies per prepared geometry, eventually a multi-tenant session
server), so failures in the execution layer must be *classifiable*:
a caller -- or the session core's own degradation logic -- needs to
tell "a worker process died" apart from "the backend cannot exist in
this process" apart from "the user passed a bad array".  Bare
``RuntimeError``\\ s cannot carry that distinction; these classes can,
and every one of them chains its original cause (``raise ... from``)
so nothing about the underlying failure is lost.

Hierarchy
---------
* :class:`ReproError` -- common base; subclasses ``RuntimeError`` so
  pre-existing ``except RuntimeError`` call sites keep working.

  * :class:`BackendExecutionError` -- a backend failed to execute a
    compiled plan.  Carries the backend's registry ``name``.

    * :class:`WorkerCrashError` -- a worker of the multiprocessing
      backend's pool died mid-apply.  The pool is discarded and
      rebuilt on the next execute; the apply itself is not retried.
    * :class:`BackendUnavailableError` -- the backend cannot run in
      this process at all (e.g. a dependency or device it needs is
      missing); raised at construction/resolution time.

  * :class:`GeometryUpdateError` -- ``update_geometry`` failed midway,
    or ``apply()`` was called on the session such a failure left
    stale.

* :class:`BackendDegradedWarning` -- the structured warning the
  session core emits exactly once per fallback transition when it
  degrades to the next backend in the chain instead of raising.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "BackendExecutionError",
    "WorkerCrashError",
    "BackendUnavailableError",
    "GeometryUpdateError",
    "BackendDegradedWarning",
]


class ReproError(RuntimeError):
    """Base class of every structured error this package raises."""


class BackendExecutionError(ReproError):
    """A backend failed to execute a compiled plan.

    ``backend`` is the failing backend's registry name (``None`` when
    unknown).  The underlying failure is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, backend: str | None = None) -> None:
        super().__init__(message)
        self.backend = backend


class WorkerCrashError(BackendExecutionError):
    """A pool worker died mid-apply; the pool is rebuilt on next use."""


class BackendUnavailableError(BackendExecutionError):
    """The backend cannot run in this process (missing dependency)."""


class GeometryUpdateError(ReproError):
    """``update_geometry`` failed midway through, or a session such a
    failure left stale was applied.

    The failed update may have patched the session's geometry partway,
    so the session marks itself stale (the mark survives pickling):
    every ``apply()`` raises this error until the session is
    re-prepared or updated again, and the next ``update_geometry``
    rebuilds from scratch (reason ``"previous update failed"``).
    Input errors (bad shapes, non-finite positions) raise ``ValueError``
    before anything moves and leave the session serving.
    """


class BackendDegradedWarning(UserWarning):
    """A session degraded to a fallback backend and keeps serving."""
