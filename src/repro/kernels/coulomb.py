"""Coulomb kernel ``G(x, y) = 1 / |x - y|`` (paper eq. 2, left)."""

from __future__ import annotations

import numpy as np

from .base import RadialKernel

__all__ = ["CoulombKernel"]


class CoulombKernel(RadialKernel):
    """Electrostatic / gravitational monopole kernel ``1 / r``.

    The same kernel describes gravitational point masses; only the sign
    convention of the potential differs (handled by the caller's charges).
    """

    name = "coulomb"
    #: 3 subs + 3 mults + 2 adds (distance^2), sqrt (~4), reciprocal (~4),
    #: multiply-accumulate with the charge (2) -- about 18 flops; rounded
    #: to 20 to include address arithmetic, matching the paper-scale
    #: throughput calibration in :mod:`repro.perf.machine`.
    flops_per_interaction = 20
    transcendental_weight = 0.0
    singular_at_origin = True

    def evaluate_r(self, r: np.ndarray) -> np.ndarray:
        return self.evaluate_radial(r, want_grad=False)[0]

    def evaluate_dr_over_r(self, r: np.ndarray) -> np.ndarray:
        # d/dr (1/r) = -1/r^2, divided by r.
        return -1.0 / (r * r * r)

    def evaluate_radial(
        self, r: np.ndarray, *, want_grad: bool, out: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        # One division: g'/r = -g^3.
        g_out, f_out = (None, None) if out is None else out
        g = np.divide(1.0, r, out=g_out)
        if not want_grad:
            return g, None
        f = np.multiply(g, g, out=f_out)
        f *= g
        np.negative(f, out=f)
        return g, f
