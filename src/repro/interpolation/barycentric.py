"""Barycentric Lagrange basis evaluation with removable singularities.

The barycentric form of the Lagrange basis (paper eq. 4),

    L_k(x) = (w_k / (x - s_k)) / sum_k' (w_k' / (x - s_k')),

has removable singularities at the interpolation points ``x = s_k'`` where
``L_k(s_k') = delta_{k k'}`` (eq. 5).  Following the paper (Sec. 2.3), when
an evaluation coordinate coincides with an interpolation-point coordinate
to within the smallest positive IEEE normal double, the Kronecker-delta
condition is enforced explicitly instead of evaluating the quotient.
"""

from __future__ import annotations

import numpy as np

from ..util import TINY

__all__ = ["lagrange_basis", "interpolate_1d"]


def lagrange_basis(
    x: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    *,
    tol: float = TINY,
) -> np.ndarray:
    """Evaluate all barycentric Lagrange basis polynomials at ``x``.

    Parameters
    ----------
    x : (M,) evaluation coordinates.
    points : (n+1,) interpolation points ``s_k``.
    weights : (n+1,) barycentric weights ``w_k``.
    tol : coincidence tolerance; coordinates within ``tol`` of an
        interpolation point take the exact Kronecker-delta column.

    Returns
    -------
    (n+1, M) array ``L[k, j] = L_k(x_j)``.  Every column sums to 1
    (partition of unity), exactly for coincident columns.

    Batched form: ``points`` of shape ``(..., n+1)`` with ``x`` of shape
    ``(..., M)`` (broadcast against each other) evaluates one basis per
    leading index, ``(..., n+1, M)``, by the same elementwise arithmetic.
    """
    points = np.asarray(points, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if points.ndim <= 1:
        points, x = points.ravel(), x.ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if points.shape[-1] != weights.shape[0]:
        raise ValueError(
            f"points and weights must have equal length; got "
            f"{points.shape[-1]} and {weights.shape[0]}"
        )
    diff = x[..., None, :] - points[..., :, None]  # (..., n+1, M)
    coincident = np.abs(diff) <= tol
    hit_cols = coincident.any(axis=-2)  # (..., M)
    # Regular barycentric evaluation, with coincident entries masked so no
    # division by (near-)zero occurs.  Overwritten below for hit columns.
    safe = np.where(coincident, 1.0, diff)
    ratio = weights[:, None] / safe
    denom = ratio.sum(axis=-2)
    # Columns flagged coincident are overwritten below; their quotient may
    # legitimately be 0/0 or x/0 (e.g. degenerate boxes where all
    # interpolation points coincide and the weights cancel), so silence
    # the intermediate arithmetic.
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = ratio / denom[..., None, :]
    if np.any(hit_cols):
        # Enforce L_k(s_k') = delta_{kk'} (paper eq. 5 / Sec. 2.3).  A
        # column can only hit one interpolation point when the points are
        # distinct; take the first hit defensively.
        hits = np.nonzero(hit_cols)
        rows = np.argmax(coincident.swapaxes(-2, -1)[hits], axis=-1)
        by_column = basis.swapaxes(-2, -1)  # a view of ``basis``
        by_column[hits] = 0.0
        by_column[hits + (rows,)] = 1.0
    return basis


def interpolate_1d(
    values: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Evaluate the interpolant of ``(points, values)`` at ``x`` (eq. 3).

    ``p_n(x) = sum_k f(s_k) L_k(x)`` with the basis evaluated in
    barycentric form.  Used by tests and the Hermite/extension modules;
    the treecode itself consumes :func:`lagrange_basis` directly.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    basis = lagrange_basis(x, points, weights)
    if values.shape[0] != basis.shape[0]:
        raise ValueError(
            f"values has length {values.shape[0]}, expected {basis.shape[0]}"
        )
    return values @ basis
