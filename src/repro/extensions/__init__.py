"""Extensions implementing the paper's Sec. 5 future-work items.

* Mixed-precision arithmetic -- modelled only:
  ``TreecodeParams(dtype=numpy.float32)`` charges the simulated device
  at its single-precision throughput while the numerics stay float64
  (a float32 evaluation lost the near pairs under its noise floor).
* Overlapping communication and computation -- built into the
  distributed driver via ``DistributedBLTC(overlap_comm=True)``.
* :class:`~repro.extensions.cluster_particle.ClusterParticleTreecode` --
  the barycentric *cluster-particle* treecode (the transpose of the
  BLTC's particle-cluster scheme; paper refs. [30]-[32]), interpolating
  over target clusters instead of source clusters.
* :class:`~repro.extensions.cluster_cluster.DualTreeTreecode` -- the
  barycentric *cluster-cluster* treecode via dual tree traversal (the
  authors' BLDTT follow-up), combining source moments with target grids.
"""

from .cluster_particle import ClusterParticleTreecode, PreparedClusterParticle
from .cluster_cluster import DualTreeTreecode, PreparedDualTree

__all__ = [
    "ClusterParticleTreecode",
    "PreparedClusterParticle",
    "DualTreeTreecode",
    "PreparedDualTree",
]
