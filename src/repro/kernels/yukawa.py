"""Yukawa (screened Coulomb) kernel ``G(x, y) = exp(-kappa |x-y|) / |x-y|``.

Paper eq. 2 (right); ``kappa`` is the inverse Debye length.  The paper's
numerical results use ``kappa = 0.5``.
"""

from __future__ import annotations

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
        if kappa < 0.0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")
        self.kappa = float(kappa)

    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        return self.evaluate_r_into(r, None)

    def evaluate_r_into(self, r: np.ndarray, out) -> np.ndarray:
        # exp(-kappa r) / r, every pass in one buffer.
        g = np.multiply(-self.kappa, r, out=out)
        np.exp(g, out=g)
        g /= r
        return g

    def evaluate_dr_over_r(self, r: np.ndarray) -> np.ndarray:
        # d/dr (e^{-kr}/r) = -e^{-kr} (k r + 1) / r^2, divided by r.
        return -np.exp(-self.kappa * r) * (self.kappa * r + 1.0) / (r**3)

    def evaluate_radial(
        self, r: np.ndarray, out: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        # One exp: g'/r = -(kappa r + 1) g / r^2, from the -kappa r that
        # feeds the exp (g itself is evaluate_r's expression, bitwise).
        g_out, f_out = (None, None) if out is None else out
        f = np.multiply(-self.kappa, r, out=f_out)
        g = np.exp(f, out=g_out)
        g /= r
        f -= 1.0
        f *= g
        f /= r
        f /= r
        return g, f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"YukawaKernel(kappa={self.kappa})"
