"""The four named workloads of the end-to-end benchmark.

A workload is a fixed recipe -- particle generator, kernel, treecode
parameters, session backend, charge shape -- whose only free input is
the seed.  Inputs, backend and sample counts change only in an issue of
kind ``benchmark`` (see README.md): every later perf issue names its
metric and workload from this file, so a silent edit here would move
the goalposts.

Sizes are the ISSUE's regimes cut down until one run of one workload
fits the driver's ~37 s slot (92 runs in 3420 s): N shrank, and the
leaf/batch caps (and on ``sphere_rhs16`` the degree) shrank with it so
each workload stays in the regime it exists to measure -- the regime
assertion at the bottom of each recipe says which.  The sizes the ISSUE
started from are kept in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro

__all__ = ["Workload", "WORKLOADS", "Inputs"]

#: ``--scale smoke`` divides every N by this (same phases, same checks
#: except the regime assertions, which only hold at full size).
SMOKE_DIVISOR = 10

#: Gaussian displacement per drift step (cumulative).
DRIFT_SIGMA = 1e-3


def _cube(n: int, seed: int) -> np.ndarray:
    return repro.random_cube(n, seed=seed).positions


def _plummer(n: int, seed: int) -> np.ndarray:
    # Truncated at 3.5 scale radii (89% of the mass), the usual N-body
    # initial condition.  Untruncated, the handful of r ~ 30 outliers
    # sets the root box, so the octree over the core -- and with it
    # every timing -- would depend on the seed more than on the code.
    pos = repro.plummer_sphere(n + n // 4, seed=seed).positions
    inside = pos[np.linalg.norm(pos, axis=1) < 3.5]
    if inside.shape[0] < n:
        raise RuntimeError("plummer truncation kept too few particles")
    return np.ascontiguousarray(inside[:n])


def _sphere(n: int, seed: int) -> np.ndarray:
    return repro.sphere_surface(n, seed=seed).positions


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    positions: Callable[[int, int], np.ndarray]
    kernel: Callable[[], repro.Kernel]
    #: ``TreecodeParams`` keyword arguments, session backend included:
    #: the backend is the one that wins the workload and is part of its
    #: definition.
    params: dict
    #: ``rel_err_l2`` above this is a failed run, whatever the timings.
    err_ceiling: float
    #: ``facts -> None`` when the run is in the workload's regime, else
    #: what moved; facts are ``direct_share``, ``n_groups``, ``setup_s``,
    #: ``apply_warm_s`` and ``steps_incremental``.
    regime: Callable[[dict], str | None]
    compute_forces: bool = False
    n_rhs: int = 1
    #: Re-project drifted particles to radius 1.
    on_sphere: bool = False

    def driver(self) -> repro.BarycentricTreecode:
        return repro.BarycentricTreecode(
            self.kernel(), repro.TreecodeParams(**self.params)
        )


def _cube_default_regime(f: dict) -> str | None:
    if f["direct_share"] < 0.8:
        return f"direct share {f['direct_share']:.3f} < 0.8"
    return None


def _cube_fine_regime(f: dict) -> str | None:
    if f["n_groups"] < 500:
        return f"n_groups {f['n_groups']} < 500"
    if not f["setup_s"] > f["apply_warm_s"]:
        return (
            f"setup_s {f['setup_s']:.3f} <= apply_warm_s "
            f"{f['apply_warm_s']:.3f}"
        )
    return None


def _plummer_md_regime(f: dict) -> str | None:
    if f["steps_incremental"] < 1:
        return "every drift step fell back to a rebuild"
    return None


def _sphere_rhs16_regime(f: dict) -> str | None:
    if 1.0 - f["direct_share"] < 0.5:
        return f"approx share {1.0 - f['direct_share']:.3f} < 0.5"
    return None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cube_default",
            n=10_000,
            positions=_cube,
            kernel=repro.CoulombKernel,
            params=dict(
                theta=0.8, degree=8, max_leaf_size=1000,
                max_batch_size=1000, backend="fused",
            ),
            err_ceiling=1e-6,
            regime=_cube_default_regime,
        ),
        Workload(
            name="cube_fine",
            n=6_400,
            positions=_cube,
            kernel=repro.CoulombKernel,
            params=dict(
                theta=0.8, degree=2, max_leaf_size=50,
                max_batch_size=50, backend="batched",
            ),
            err_ceiling=3e-2,
            regime=_cube_fine_regime,
        ),
        Workload(
            name="plummer_md",
            n=4_000,
            positions=_plummer,
            kernel=lambda: repro.YukawaKernel(kappa=0.5),
            params=dict(
                theta=0.7, degree=5, max_leaf_size=200,
                max_batch_size=200, backend="batched",
            ),
            err_ceiling=1e-4,
            regime=_plummer_md_regime,
            compute_forces=True,
        ),
        Workload(
            name="sphere_rhs16",
            n=8_000,
            positions=_sphere,
            kernel=lambda: repro.YukawaKernel(kappa=0.5),
            params=dict(
                theta=0.8, degree=4, max_leaf_size=150,
                max_batch_size=150, backend="fused",
            ),
            err_ceiling=3e-4,
            regime=_sphere_rhs16_regime,
            n_rhs=16,
            on_sphere=True,
        ),
    )
}


class Inputs:
    """Everything a run feeds the library, drawn from one seed.

    The generator in :mod:`repro.workloads` gets the seed; charges and
    drift come from the benchmark's own RNG seeded the same way.  The
    library only ever sees the arrays.
    """

    def __init__(self, spec: Workload, seed: int, scale: str) -> None:
        self.spec = spec
        self.n = spec.n // SMOKE_DIVISOR if scale == "smoke" else spec.n
        self.positions = spec.positions(self.n, seed)
        self._rng = np.random.default_rng([seed, 0xE2E])

    def charges(self) -> np.ndarray:
        shape = (self.n, self.spec.n_rhs) if self.spec.n_rhs > 1 else self.n
        return self._rng.uniform(-1.0, 1.0, size=shape)

    def particles(self) -> repro.ParticleSet:
        # prepare() never bakes the charges in; zeros keep that honest.
        return repro.ParticleSet(self.positions, np.zeros(self.n))

    def drift(self, positions: np.ndarray) -> np.ndarray:
        moved = positions + DRIFT_SIGMA * self._rng.standard_normal(
            positions.shape
        )
        if self.spec.on_sphere:
            moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        return moved
