"""The barycentric Lagrange treecode core (paper Sec. 2).

* :mod:`~repro.core.mac` -- the two-condition multipole acceptance
  criterion (eq. 13).
* :mod:`~repro.core.interaction_lists` -- the recursive batch/cluster dual
  traversal (BLTC algorithm lines 10-20) over local or remote trees.
* :mod:`~repro.core.moments` -- modified charges (eq. 12) via the two
  preprocessing kernels (eqs. 14-15).
* :mod:`~repro.core.plan` -- compiles (tree, batches, moments, lists)
  into a flat :class:`~repro.core.plan.ExecutionPlan`.
* :mod:`~repro.core.bltc_keys` -- the BLTC segment-key vocabulary the
  compiler writes and the weight refresh and warm-start update read.
* :mod:`~repro.core.backends` -- pluggable plan-evaluation backends
  (numpy reference, fused, batched, multiprocessing, model-only)
  behind one registry.
* :mod:`~repro.core.session` -- the prepare/apply session core shared
  by every driver.
* :mod:`~repro.core.direct` -- the O(N^2) direct-summation baseline.
* :mod:`~repro.core.treecode` -- the single-device BLTC driver.
"""

from .backends import (
    Backend,
    FusedBackend,
    ModelBackend,
    MultiprocessingBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .direct import direct_sum, direct_sum_at
from .mac import mac_accepts, mac_geometric
from .interaction_lists import InteractionLists, build_interaction_lists
from .moments import (
    modified_charges,
    precompute_moments,
    prepare_moment_grids,
    refresh_moments,
)
from .plan import ExecutionPlan, assemble_plan, compile_plan
from .treecode import BarycentricTreecode, PreparedTreecode, TreecodeResult

__all__ = [
    "mac_geometric",
    "mac_accepts",
    "InteractionLists",
    "build_interaction_lists",
    "modified_charges",
    "precompute_moments",
    "prepare_moment_grids",
    "refresh_moments",
    "direct_sum",
    "direct_sum_at",
    "ExecutionPlan",
    "assemble_plan",
    "compile_plan",
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "MultiprocessingBackend",
    "ModelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "BarycentricTreecode",
    "PreparedTreecode",
    "TreecodeResult",
]
