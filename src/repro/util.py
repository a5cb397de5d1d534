"""Small shared utilities used across the BLTC reproduction.

Nothing in this module is specific to the treecode; it holds array
validation helpers and a deterministic RNG constructor so that every
module creates randomness the same way.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_points",
    "as_charges",
    "as_charge_block",
    "default_rng",
    "chunk_ranges",
    "concat_ranges",
    "TINY",
]

#: Smallest positive IEEE normal double.  The paper (Sec. 2.3) uses this as
#: the tolerance deciding when a source coordinate coincides with a
#: Chebyshev point coordinate, triggering the removable-singularity branch.
TINY: float = float(np.finfo(np.float64).tiny)


def as_points(x, *, name: str = "points", dtype=np.float64) -> np.ndarray:
    """Validate and convert ``x`` to a contiguous ``(N, 3)`` float array.

    Raises ``ValueError`` with a descriptive message when the input does not
    look like a set of 3D points.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim == 1 and arr.size == 3:
        arr = arr.reshape(1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(
            f"{name} must have shape (N, 3); got shape {np.shape(x)!r}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def as_charges(q, n: int, *, name: str = "charges", dtype=np.float64) -> np.ndarray:
    """Validate and convert ``q`` to a contiguous ``(N,)`` float array."""
    arr = np.ascontiguousarray(q, dtype=dtype)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(
            f"{name} must have shape ({n},); got shape {np.shape(q)!r}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def as_charge_block(
    q, n: int, *, name: str = "charges", dtype=np.float64
) -> np.ndarray:
    """Validate ``q`` as a contiguous ``(N,)`` vector or ``(N, n_rhs)`` block.

    The multi-RHS entry points accept either a single charge vector or a
    matrix whose columns are independent charge vectors.  Anything else
    (wrong leading dimension, >2-D input, an empty column axis, non-finite
    values) raises ``ValueError`` here, before any plan state is touched.
    """
    arr = np.ascontiguousarray(q, dtype=dtype)
    if arr.ndim not in (1, 2):
        raise ValueError(
            f"{name} must have shape ({n},) or ({n}, n_rhs); "
            f"got a {arr.ndim}-D array of shape {np.shape(q)!r}"
        )
    if arr.shape[0] != n:
        raise ValueError(
            f"{name} must have leading dimension {n}; got shape {np.shape(q)!r}"
        )
    if arr.ndim == 2 and arr.shape[1] == 0:
        raise ValueError(f"{name} must carry at least one charge column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def default_rng(seed=None) -> np.random.Generator:
    """Project-wide RNG constructor (PCG64)."""
    return np.random.default_rng(seed)


def chunk_ranges(n: int, chunk: int):
    """Yield ``(start, stop)`` pairs covering ``range(n)`` in ``chunk`` steps."""
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def concat_ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l, l + c) for l, c in zip(lo, counts)])``
    as one array pass."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(lo - offsets, counts) + np.arange(counts.sum())
