"""Model-only backend: simulated time and counters, no numerics.

Selected with ``TreecodeParams(backend="model")``: the device is
charged for exactly the launches a real run would make (same
interaction counts, same block counts, same kinds -- all derived from
the plan structure), but no potential is evaluated and the returned
arrays are zeros.  This
lets the timing model run at paper scale (10^6-10^9 particles) where
python numerics would be prohibitive; it works on plans compiled with
``numerics=False``, which carry only index arrays and sizes.
"""

from __future__ import annotations

import numpy as np

from .base import Backend, charge_plan_launches

__all__ = ["ModelBackend"]


class ModelBackend(Backend):
    """Launch accounting only; potentials and forces stay zero."""

    name = "model"
    needs_numerics = False

    def execute(
        self,
        plan,
        kernel,
        device,
        *,
        dtype=np.float64,
        compute_forces: bool = False,
        n_rhs: int | None = None,
    ):
        # Model-only plans carry no weight buffers, so the session
        # tells us the RHS width explicitly; None keeps the
        # single-vector shapes and charging.
        charge_plan_launches(
            plan, kernel, device,
            dtype=dtype, compute_forces=compute_forces, n_rhs=n_rhs or 1,
        )
        out = np.zeros(
            plan.out_size if n_rhs is None else (plan.out_size, n_rhs),
            dtype=np.float64,
        )
        forces = (
            np.zeros(
                (plan.out_size, 3)
                if n_rhs is None
                else (plan.out_size, 3, n_rhs),
                dtype=np.float64,
            )
            if compute_forces
            else None
        )
        return out, forces
