"""Yukawa (screened Coulomb) kernel ``G(x, y) = exp(-kappa |x-y|) / |x-y|``.

Paper eq. 2 (right); ``kappa`` is the inverse Debye length.  The paper's
numerical results use ``kappa = 0.5``.
"""

from __future__ import annotations

import math

import numpy as np

from .base import RadialKernel

__all__ = ["YukawaKernel"]


class YukawaKernel(RadialKernel):
    """Screened Coulomb kernel ``exp(-kappa r) / r``."""

    name = "yukawa"
    flops_per_interaction = 24
    #: The exponential dominates the extra cost; with the device
    #: transcendental penalties in :mod:`repro.perf.machine` this yields
    #: the paper's observed ~1.8x (CPU) and ~1.5x (GPU) slowdown relative
    #: to Coulomb (Sec. 4, Fig. 4 discussion).
    transcendental_weight = 1.0
    singular_at_origin = True

    def __init__(self, kappa: float = 0.5) -> None:
        if not math.isfinite(kappa) or kappa < 0.0:
            raise ValueError(
                f"kappa must be finite and non-negative, got {kappa}"
            )
        self.kappa = float(kappa)

    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        return self.evaluate_radial(r, want_grad=False)[0]

    def evaluate_dr_over_r(self, r: np.ndarray) -> np.ndarray:
        # d/dr (e^{-kr}/r) = -e^{-kr} (k r + 1) / r^2, divided by r.
        return -np.exp(-self.kappa * r) * (self.kappa * r + 1.0) / (r**3)

    def evaluate_radial(
        self, r: np.ndarray, *, want_grad: bool, out: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # exp(-kappa r) / r, every pass in one buffer; with the gradient
        # the -kappa r that feeds the exp also gives g'/r =
        # -(kappa r + 1) g / r^2, so one exp serves both (and g is
        # bitwise the same either way).
        g_out, f_out = (None, None) if out is None else out
        f = np.multiply(-self.kappa, r, out=f_out if want_grad else g_out)
        g = np.exp(f, out=g_out if want_grad else f)
        g /= r
        if not want_grad:
            return g, None
        f -= 1.0
        f *= g
        f /= r
        f /= r
        return g, f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"YukawaKernel(kappa={self.kappa})"
