"""Direct summation baseline, paper eq. 1.

``phi(x_i) = sum_j G(x_i, y_j) q_j`` at O(N^2) cost.  On the simulated GPU
the direct sum is computed exactly as the paper describes: "the direct sum
is computed by one launch of the batch-cluster direct sum kernel for a
batch consisting of all target particles and a cluster consisting of all
source particles" (Sec. 4).

:func:`direct_sum_at` evaluates the reference potential at a subset of
targets; the paper uses the same device for error measurement on systems
with >= 8M particles ("the error was sampled at a random subset of target
particles").
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import Device
from ..kernels.base import Kernel
from .backends.base import launch_cost_multiplier

__all__ = ["direct_sum", "direct_sum_at"]


def direct_sum(
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    kernel: Kernel,
    *,
    device: Device | None = None,
) -> np.ndarray:
    """Direct O(M N) summation of all target-source interactions.

    Self-interactions (coincident target/source) contribute zero for
    singular kernels -- see :class:`repro.kernels.base.Kernel`.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    sources = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    charges = np.asarray(charges, dtype=np.float64).ravel()
    if sources.shape[0] != charges.shape[0]:
        raise ValueError(
            f"{sources.shape[0]} sources but {charges.shape[0]} charges"
        )
    if device is not None:
        m, k = targets.shape[0], sources.shape[0]
        device.upload(targets.nbytes + sources.nbytes + charges.nbytes)
        device.launch(
            float(m) * float(k),
            blocks=m,
            kind="direct",
            flops_per_interaction=kernel.flops_per_interaction,
            cost_multiplier=launch_cost_multiplier(kernel, device, np.float64),
        )
        device.download(m * targets.itemsize)
    return kernel.potential(targets, sources, charges)


def direct_sum_at(
    sample_indices: np.ndarray,
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    kernel: Kernel,
) -> np.ndarray:
    """Reference potential at ``targets[sample_indices]`` only.

    O(len(sample) * N) -- the error-sampling strategy the paper applies to
    large systems (Sec. 4, eq. 16).
    """
    sample_indices = np.asarray(sample_indices, dtype=np.intp).ravel()
    return direct_sum(
        np.atleast_2d(targets)[sample_indices], sources, charges, kernel
    )
