"""repro -- reproduction of "A GPU-Accelerated Barycentric Lagrange Treecode".

Reference: Nathan Vaughn, Leighton Wilson, Robert Krasny (2020),
arXiv:2003.01836.  See README.md for a tour and DESIGN.md for the system
inventory and the hardware-substitution rationale.

Quickstart
----------
>>> import repro
>>> particles = repro.random_cube(20_000, seed=0)
>>> tc = repro.BarycentricTreecode(
...     repro.CoulombKernel(),
...     repro.TreecodeParams(theta=0.7, degree=6, max_leaf_size=500,
...                          max_batch_size=500),
... )
>>> result = tc.compute(particles)
>>> result.potential.shape
(20000,)
"""

from .config import DEFAULT_PARAMS, TreecodeParams
from .workloads import (
    ParticleSet,
    charge_waveform,
    gaussian_clusters,
    plummer_sphere,
    random_cube,
    sphere_surface,
)
from .kernels import (
    CoulombKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    Kernel,
    RadialKernel,
    ThinPlateKernel,
    YukawaKernel,
    available_kernels,
    get_kernel,
    register_kernel,
)
from .core import (
    Backend,
    BarycentricTreecode,
    ExecutionPlan,
    PreparedTreecode,
    FusedBackend,
    ModelBackend,
    MultiprocessingBackend,
    NumpyBackend,
    TreecodeResult,
    available_backends,
    compile_plan,
    direct_sum,
    direct_sum_at,
    get_backend,
    register_backend,
)
from .distributed import (
    DistributedBLTC,
    DistributedResult,
    PreparedDistributedBLTC,
)
from .partition import rcb_partition
from .perf import (
    CPU_XEON_X5650,
    GPU_P100,
    GPU_TITAN_V,
    CommModel,
    INFINIBAND_COMET,
    MachineSpec,
    PhaseTimes,
)
from .analysis import relative_l2_error, sampled_error
from .extensions import ClusterParticleTreecode, DualTreeTreecode

__version__ = "1.0.0"

__all__ = [
    "TreecodeParams",
    "DEFAULT_PARAMS",
    "ParticleSet",
    "random_cube",
    "plummer_sphere",
    "gaussian_clusters",
    "sphere_surface",
    "charge_waveform",
    "Kernel",
    "RadialKernel",
    "CoulombKernel",
    "YukawaKernel",
    "GaussianKernel",
    "InverseMultiquadricKernel",
    "ThinPlateKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "BarycentricTreecode",
    "PreparedTreecode",
    "TreecodeResult",
    "ExecutionPlan",
    "compile_plan",
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "MultiprocessingBackend",
    "ModelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "DistributedBLTC",
    "PreparedDistributedBLTC",
    "DistributedResult",
    "direct_sum",
    "direct_sum_at",
    "rcb_partition",
    "MachineSpec",
    "GPU_TITAN_V",
    "GPU_P100",
    "CPU_XEON_X5650",
    "CommModel",
    "INFINIBAND_COMET",
    "PhaseTimes",
    "relative_l2_error",
    "sampled_error",
    "ClusterParticleTreecode",
    "DualTreeTreecode",
    "__version__",
]
