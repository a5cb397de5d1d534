"""Treecode parameter dataclasses (the paper's ``theta, n, NL, NB``).

``TreecodeParams`` collects the user-facing knobs of the barycentric
Lagrange treecode exactly as the paper presents them in the BLTC algorithm
(Sec. 2.4):

* ``theta`` -- the multipole acceptance criterion (MAC) parameter; a
  batch-cluster pair is approximated when ``(r_B + r_C) / R < theta``.
* ``degree`` -- interpolation degree ``n``; each cluster carries an
  ``(n+1)^3`` tensor-product Chebyshev grid.
* ``max_leaf_size`` -- ``NL``, the maximum number of source particles in a
  leaf cluster.
* ``max_batch_size`` -- ``NB``, the maximum number of target particles in a
  target batch.

plus implementation switches that the paper discusses in the text
(cluster-size MAC condition, aspect-ratio-aware splitting, shrink-to-fit
boxes) so that those design decisions can be ablated.  The MAC is always
applied per target batch (Sec. 3.2); ``max_batch_size=1`` recovers the
classical per-target MAC.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["TreecodeParams", "DEFAULT_PARAMS"]

#: Maximum box aspect ratio allowed after splitting (paper Sec. 3.1).
ASPECT_RATIO_LIMIT: float = math.sqrt(2.0)


@dataclass(frozen=True)
class TreecodeParams:
    """User-facing parameters of the barycentric Lagrange treecode."""

    #: MAC parameter ``theta`` in ``(0, 1]``; smaller is more accurate.
    theta: float = 0.8
    #: Interpolation degree ``n >= 1``; clusters carry ``(n+1)^3`` points.
    degree: int = 8
    #: ``NL`` -- maximum number of source particles per leaf cluster.
    max_leaf_size: int = 2000
    #: ``NB`` -- maximum number of target particles per batch.
    max_batch_size: int = 2000
    #: Enforce the second MAC condition ``(n+1)^3 < N_C`` (eq. 13).  When a
    #: cluster holds fewer particles than interpolation points, the exact
    #: interaction is both faster and more accurate.
    size_check: bool = True
    #: Apply the sqrt(2) aspect-ratio rule when splitting clusters
    #: (paper Sec. 3.1): only bisect dimensions long enough that children
    #: do not become more elongated than sqrt(2).
    aspect_ratio_splitting: bool = True
    #: Precision the simulated device is charged at.  The arithmetic is
    #: always float64 (as in the paper); ``float32`` models the device's
    #: single-precision throughput for the paper's "mixed-precision
    #: arithmetic" future-work item
    #: (:meth:`~repro.perf.machine.MachineSpec.precision_multiplier`).
    #: Only the plan's batch-cluster kernel launches are charged at this
    #: precision: host-device transfers, the moment kernels and
    #: ``direct_sum`` stay priced in float64.
    dtype: type = np.float64
    #: Shrink every cluster to the minimal bounding box of its particles
    #: (paper Sec. 2.3); guarantees some source coordinates coincide with
    #: Chebyshev point coordinates, exercising the removable singularities.
    shrink_to_fit: bool = True
    #: Evaluation backend executing the compiled plan: ``"numpy"`` (the
    #: reference blocked semantics), ``"fused"`` (the plan evaluator;
    #: the plan's group shape picks stacked or per-group evaluation),
    #: ``"multiprocessing"`` (plan groups sharded over a persistent
    #: worker pool) or ``"model"`` (launch accounting only).
    #: Names are validated against the registry at construction time and
    #: resolved through :mod:`repro.core.backends` at compute time, so
    #: custom registered backends are selectable by name; a ready-made
    #: :class:`~repro.core.backends.Backend` instance (one carrying its
    #: own state) is accepted directly and passes through the resolver.
    backend: object = "numpy"
    #: Dynamic-geometry sessions (``update_geometry``): once the fraction
    #: of particles that changed leaf membership in one update exceeds
    #: this threshold, the incremental re-bin/patch path is abandoned and
    #: the session's geometry is rebuilt from scratch (a fresh tree keeps
    #: boxes tight and interaction lists short once drift accumulates).
    #: ``0.0`` rebuilds on any membership change; ``1.0`` never rebuilds
    #: on drift alone (structural bail-outs still force a rebuild).
    rebuild_threshold: float = 0.25
    #: Failure handling for prepared-session applies.  ``"degrade"``
    #: (the default) lets the session fall back along the backend
    #: chain (``"multiprocessing"`` -> ``"fused"`` -> ``"numpy"``) when
    #: a backend fails or cannot be resolved in this process -- one
    #: :class:`~repro.errors.BackendDegradedWarning` per transition, the
    #: event recorded in ``health_stats()``, results bitwise those of a
    #: session on the fallback backend.  This chain is
    #: the only recovery path: no backend retries internally.
    #: ``"strict"`` restores raise-on-failure: the structured error
    #: (e.g. :class:`~repro.errors.WorkerCrashError` with the original
    #: ``BrokenProcessPool`` chained) propagates to the caller.
    fallback: str = "degrade"

    def __post_init__(self) -> None:
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        for name in ("degree", "max_leaf_size", "max_batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.max_leaf_size < 1:
            raise ValueError(
                f"max_leaf_size must be >= 1, got {self.max_leaf_size}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if not (0.0 <= self.rebuild_threshold <= 1.0):
            raise ValueError(
                "rebuild_threshold must lie in [0, 1], got "
                f"{self.rebuild_threshold}"
            )
        if self.fallback not in ("degrade", "strict"):
            raise ValueError(
                'fallback must be "degrade" or "strict", got '
                f"{self.fallback!r}"
            )
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(
                f"dtype must be numpy.float32 or numpy.float64, got {self.dtype}"
            )
        if isinstance(self.backend, str):
            if not self.backend:
                raise ValueError(
                    "backend must be a non-empty registry name, got ''"
                )
            # Validate the name now instead of deep inside compute().
            # The low-level store lives in the leaf module
            # repro.registry (importing repro.core.backends here would
            # be circular); while the package itself is still importing
            # the store is empty and validation is skipped -- that
            # window only covers DEFAULT_PARAMS below.
            from .registry import backend_names

            names = backend_names()
            if names and self.backend not in names:
                raise ValueError(
                    f"unknown backend {self.backend!r}; available: "
                    f"{', '.join(names)}"
                )
        elif not callable(getattr(self.backend, "execute", None)):
            # Duck-typed so this module never imports the backend
            # package (which imports this one): anything with an
            # execute() method is treated as a Backend instance.
            raise ValueError(
                "backend must be a registry name or a Backend instance, "
                f"got {self.backend!r}"
            )

    @property
    def n_interpolation_points(self) -> int:
        """Number of interpolation points per cluster, ``(n+1)^3``."""
        return (self.degree + 1) ** 3

    def with_(self, **changes) -> "TreecodeParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Parameters used in the paper's scaling studies (Sec. 4): theta = 0.8,
#: degree n = 8, NL = NB = 4000, yielding 5-6 digit accuracy.
DEFAULT_PARAMS = TreecodeParams()
