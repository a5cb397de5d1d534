"""Distributed-memory BLTC: RCB decomposition + locally essential trees.

Reproduces Sec. 3.1 of the paper on the simulated MPI layer: each rank
owns an RCB partition of the particles, builds a local source tree,
exposes its tree array / source particles / cluster charges through RMA
windows, and constructs its locally essential tree (LET) by getting remote
tree arrays, building interaction lists against them, and fetching exactly
the remote clusters those lists reference.
"""

from .letree import LocallyEssentialTree
from .driver import (
    DistributedBLTC,
    DistributedResult,
    PreparedDistributedBLTC,
)

__all__ = [
    "LocallyEssentialTree",
    "DistributedBLTC",
    "PreparedDistributedBLTC",
    "DistributedResult",
]
