"""Additional smooth kernels demonstrating kernel independence.

The BLTC "can be any non-oscillatory kernel that is smooth for x != y"
(paper Sec. 2).  These kernels exercise that claim:

* :class:`InverseMultiquadricKernel` -- ``1 / sqrt(r^2 + c^2)``, smooth
  everywhere (RBF interpolation; cf. the treecode of Deng & Driscoll that
  the paper cites as ref. [31]).
* :class:`GaussianKernel` -- ``exp(-r^2 / (2 sigma^2))``, smooth everywhere.
* :class:`ThinPlateKernel` -- ``r^2 log r``, smooth away from the origin.
"""

from __future__ import annotations

import math

import numpy as np

from .base import RadialKernel

__all__ = ["InverseMultiquadricKernel", "GaussianKernel", "ThinPlateKernel"]


class InverseMultiquadricKernel(RadialKernel):
    """Inverse multiquadric RBF kernel ``1 / sqrt(r^2 + c^2)``."""

    name = "inverse-multiquadric"
    flops_per_interaction = 22
    transcendental_weight = 0.0
    singular_at_origin = False

    def __init__(self, c: float = 0.1) -> None:
        if not math.isfinite(c) or c <= 0.0:
            raise ValueError(
                f"shape parameter c must be finite and positive, got {c}"
            )
        self.c = float(c)

    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt(r * r + self.c * self.c)

    def evaluate_dr_over_r(self, r: np.ndarray) -> np.ndarray:
        return -((r * r + self.c * self.c) ** -1.5)

    def evaluate_r0(self) -> float:
        return 1.0 / self.c


class GaussianKernel(RadialKernel):
    """Gaussian kernel ``exp(-r^2 / (2 sigma^2))``, smooth everywhere."""

    name = "gaussian"
    flops_per_interaction = 22
    transcendental_weight = 1.0
    singular_at_origin = False

    def __init__(self, sigma: float = 0.5) -> None:
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        self.sigma = float(sigma)

    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        return self.evaluate_radial(r, want_grad=False)[0]

    def evaluate_dr_over_r(self, r: np.ndarray) -> np.ndarray:
        return -self.evaluate_r(r) / (self.sigma * self.sigma)

    def evaluate_radial(
        self, r: np.ndarray, *, want_grad: bool, out: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # exp(-0.5 (r / sigma)^2), every pass in one buffer; one exp
        # serves both: g'/r = -g / sigma^2 (bitwise evaluate_dr_over_r's).
        g_out, f_out = (None, None) if out is None else out
        g = np.divide(r, self.sigma, out=g_out)
        np.square(g, out=g)
        np.multiply(-0.5, g, out=g)
        np.exp(g, out=g)
        if not want_grad:
            return g, None
        return g, np.divide(g, -(self.sigma * self.sigma), out=f_out)

    def evaluate_r0(self) -> float:
        return 1.0


class ThinPlateKernel(RadialKernel):
    """Thin-plate spline kernel ``r^2 log r`` (zero at the origin)."""

    name = "thin-plate"
    flops_per_interaction = 26
    transcendental_weight = 1.0
    # r^2 log r -> 0 as r -> 0, so the origin value is a removable limit,
    # not a singularity; still treated through evaluate_r0.
    singular_at_origin = False

    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        return r * r * np.log(r)

    def evaluate_r0(self) -> float:
        return 0.0
