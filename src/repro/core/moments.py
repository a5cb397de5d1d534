"""Modified charges ("moments") for source clusters, paper Sec. 2.2-2.3.

For a cluster C with particles ``y_j`` and charges ``q_j``, the modified
charge at Chebyshev grid point ``s_k`` (k a 3D multi-index) is

    qhat_k = sum_{y_j in C} L_k1(y_j1) L_k2(y_j2) L_k3(y_j3) q_j    (eq. 12)

Each ``qhat_k`` is independent of the targets, so it is computed once per
cluster and reused by every batch that approximates the cluster.

GPU kernel correspondence
-------------------------
The paper computes eq. 12 with two kernels (Sec. 3.2): kernel 1 forms the
intermediate quantities ``qtilde_j`` (eq. 14, the product of the three
barycentric denominator sums, O((n+1) N_C) work), kernel 2 assembles
``qhat_k`` from them (eq. 15, O((n+1)^3 N_C) work).  That factorization is
exactly the barycentric quotient of eq. 4 split into denominator and
numerator passes; here the numerics evaluate the per-dimension basis
matrices (which handle the removable singularities the way Sec. 2.3
prescribes -- the factored form would divide by zero when a source
coordinate coincides with a Chebyshev coordinate) and contract them with a
single ``einsum``, which is algebraically identical.  The simulated device
is still charged for both kernels with the paper's operation counts.
"""

from __future__ import annotations

import functools

import numpy as np

from ..config import TreecodeParams
from ..gpu.device import Device
from ..interpolation.barycentric import lagrange_basis
from ..interpolation.grid import ChebyshevGrid3D
from ..tree.octree import ClusterTree

__all__ = [
    "modified_charges",
    "moment_flop_counts",
    "precompute_moments",
    "prepare_moment_grids",
    "refresh_moments",
    "refresh_moment_geometry",
    "ClusterMoments",
]


#: Eq. 12 as one contraction over the cluster's particles ``j``.
_EQ12 = "aj,bj,cj,j->abc"
#: The contraction path ``optimize=True`` picks for every non-tiny
#: cluster: scale ``lx`` by the charges, then one three-operand sum.
_TWO_STEP = ("einsum_path", (0, 3), (0, 1, 2))


@functools.lru_cache(maxsize=4096)
def _contraction_path(*shapes) -> tuple:
    """The path ``np.einsum(_EQ12, ..., optimize=True)`` takes for
    operands of these shapes; the search reads nothing but the shapes."""
    operands = [np.empty(shape) for shape in shapes]
    return tuple(np.einsum_path(_EQ12, *operands, optimize=True)[0])


def _contract_column(lx, ly, lz, q, path) -> np.ndarray:
    """Eq. 12 for one charge vector along ``path``, flattened."""
    if path == _TWO_STEP:
        # The two steps numpy's path executor runs for this path, with
        # its exact strings and operand order: the same bits as
        # ``optimize=True``, without the per-call path bookkeeping.
        tmp = np.einsum("j,aj->aj", q, lx)
        return np.einsum("aj,cj,bj->abc", tmp, lz, ly).ravel()
    return np.einsum(_EQ12, lx, ly, lz, q, optimize=path).ravel()


def _contract_basis(lx, ly, lz, charges: np.ndarray) -> np.ndarray:
    """Contract eq. 12's basis matrices with one or many charge columns.

    1-D charges return the flattened ``((n+1)^3,)`` moments.  A
    ``(N_C, n_rhs)`` block returns ``((n+1)^3, n_rhs)``: the basis (the
    expensive part) is shared and each column runs the identical
    single-vector contraction on a contiguous copy, so column ``j`` is
    bitwise what a single-vector pass on ``charges[:, j]`` yields.
    Either way the result is bitwise ``np.einsum(..., optimize=True)``'s:
    the contraction path it would search for is looked up by operand
    shapes instead.
    """
    path = _contraction_path(
        lx.shape, ly.shape, lz.shape, charges.shape[:1]
    )
    if charges.ndim == 1:
        return _contract_column(lx, ly, lz, charges, path)
    return np.stack(
        [
            _contract_column(
                lx, ly, lz, np.ascontiguousarray(charges[:, r]), path
            )
            for r in range(charges.shape[1])
        ],
        axis=1,
    )


def _as_moment_charges(charges, n: int, what: str) -> np.ndarray:
    """Validate per-cluster/particle charges as ``(n,)`` or ``(n, n_rhs)``."""
    charges = np.asarray(charges, dtype=np.float64)
    if charges.ndim not in (1, 2) or charges.shape[0] != n:
        raise ValueError(
            f"expected ({n},) or ({n}, n_rhs) charges for {n} {what}; "
            f"got shape {charges.shape}"
        )
    return charges


def modified_charges(
    points: np.ndarray,
    charges: np.ndarray,
    grid: ChebyshevGrid3D,
) -> np.ndarray:
    """Compute eq. 12 for one cluster; returns ``((n+1)^3,)`` flattened.

    Flattening is C-order over ``(k1, k2, k3)``, matching
    :func:`repro.interpolation.grid.tensor_grid_points`.  A
    ``(N_C, n_rhs)`` charge block yields ``((n+1)^3, n_rhs)`` moments,
    every column re-momented on the one shared basis evaluation.
    """
    points = np.atleast_2d(points)
    charges = _as_moment_charges(charges, points.shape[0], "points")
    lx = lagrange_basis(points[:, 0], grid.points_1d[0], grid.weights)
    ly = lagrange_basis(points[:, 1], grid.points_1d[1], grid.weights)
    lz = lagrange_basis(points[:, 2], grid.points_1d[2], grid.weights)
    return _contract_basis(lx, ly, lz, charges)


def moment_flop_counts(n_cluster: int, degree: int) -> tuple[float, float]:
    """(kernel-1, kernel-2) interaction counts for the device model.

    Kernel 1 (eq. 14): each of the N_C sources evaluates three
    (n+1)-term denominator sums -> 3 (n+1) N_C "interactions".
    Kernel 2 (eq. 15): each of the (n+1)^3 grid points reduces over the
    N_C sources -> (n+1)^3 N_C interactions.
    """
    np1 = degree + 1
    return 3.0 * np1 * n_cluster, float(np1**3) * n_cluster


class ClusterMoments:
    """Grids and modified charges for the clusters of one source tree.

    Under a model-only backend (``numerics=False``) the set of
    qualifying clusters (``node_ids``) is tracked without computing any
    numerical moments.
    """

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.node_ids: set[int] = set()
        self.grids: dict[int, ChebyshevGrid3D] = {}
        self.qhat: dict[int, np.ndarray] = {}
        #: Cached per-cluster Lagrange basis matrices ``(lx, ly, lz)``
        #: (charge-independent; filled by :func:`prepare_moment_grids`
        #: so :func:`refresh_moments` re-moments without re-evaluating
        #: the basis).
        self.basis: dict[int, tuple] = {}

    def __contains__(self, node_index: int) -> bool:
        return node_index in self.node_ids

    @property
    def n_clusters(self) -> int:
        """Number of clusters carrying moments."""
        return len(self.node_ids)

    def grid(self, node_index: int) -> ChebyshevGrid3D:
        return self.grids[node_index]

    def charges(self, node_index: int) -> np.ndarray:
        return self.qhat[node_index]

    def packed(self, n_nodes: int) -> np.ndarray:
        """Dense ``(n_nodes, (n+1)^3)`` array (rows of absent nodes zero).

        This is the "cluster charges" array placed in an RMA window for
        remote ranks to get during LET construction (Sec. 3.1).  When
        the stored moments carry an RHS axis the packed array does too:
        ``(n_nodes, (n+1)^3, n_rhs)``.
        """
        np3 = (self.degree + 1) ** 3
        width = None
        for q in self.qhat.values():
            if q.ndim == 2:
                width = q.shape[1]
            break
        shape = (n_nodes, np3) if width is None else (n_nodes, np3, width)
        out = np.zeros(shape)
        for i, q in self.qhat.items():
            out[i] = q
        return out


def _qualifying_nodes(tree: ClusterTree, params: TreecodeParams) -> list:
    """Indices of the clusters that carry moments: those passing the size
    condition ``(n+1)^3 < N_C`` (all of them when ``size_check`` is off).
    The criterion is parameter-only, so every rank makes the same
    decision.
    """
    counts = tree.node_counts
    if not params.size_check:
        return list(range(len(counts)))
    return np.flatnonzero(params.n_interpolation_points < counts).tolist()


def _build_cluster_grid(moments, tree, i, params, cache_basis) -> None:
    """Build node ``i``'s Chebyshev grid (spanning its box) and, with
    ``cache_basis``, the Lagrange basis of eq. 12 at the cluster's own
    source coordinates."""
    view = tree.view()
    grid = ChebyshevGrid3D.for_box(view.lo[i], view.hi[i], params.degree)
    moments.grids[i] = grid
    if cache_basis:
        pts = tree.node_points(i)
        moments.basis[i] = (
            lagrange_basis(pts[:, 0], grid.points_1d[0], grid.weights),
            lagrange_basis(pts[:, 1], grid.points_1d[1], grid.weights),
            lagrange_basis(pts[:, 2], grid.points_1d[2], grid.weights),
        )


def precompute_moments(
    tree: ClusterTree,
    charges: np.ndarray,
    params: TreecodeParams,
    *,
    device: Device | None = None,
    numerics: bool = True,
) -> ClusterMoments:
    """Compute modified charges for every approximable cluster.

    The BLTC algorithm (lines 6-7) computes moments for each source
    cluster before any traversal -- required in the distributed setting,
    where remote ranks may request any cluster's moments.  Clusters that
    can never be approximated under the size condition
    (``(n+1)^3 >= N_C``) are skipped.

    This is :func:`prepare_moment_grids` (without the basis cache: a
    one-shot run uses each cluster's basis once) followed by
    :func:`refresh_moments`, which charges ``device`` (optional) for the
    paper's two preprocessing kernels per cluster and honours
    ``numerics=False`` (model-only runs: qualifying clusters recorded,
    kernels charged, no tensor contractions).
    """
    moments = prepare_moment_grids(
        tree, params, numerics=numerics, cache_basis=False
    )
    return refresh_moments(
        moments, tree, charges, params, device=device, numerics=numerics
    )


def _charge_moment_kernels(device, count, params, n_ip) -> None:
    """Charge the paper's two preprocessing kernels for one cluster."""
    ops1, ops2 = moment_flop_counts(count, params.degree)
    device.launch(
        ops1,
        blocks=count,
        kind="moments-1",
        flops_per_interaction=8.0,
    )
    device.launch(
        ops2,
        blocks=n_ip,
        kind="moments-2",
        flops_per_interaction=7.0,
    )


def prepare_moment_grids(
    tree: ClusterTree,
    params: TreecodeParams,
    *,
    numerics: bool = True,
    cache_basis: bool = True,
) -> ClusterMoments:
    """The charge-independent half of :func:`precompute_moments`.

    Records the qualifying clusters and builds their Chebyshev grids --
    plus, with ``cache_basis``, the per-cluster Lagrange basis matrices
    of eq. 12 evaluated at the cluster's own source coordinates -- but
    computes no modified charges and charges no device (grids and basis
    depend only on geometry; the paper's two moment kernels are
    charge-dependent work charged per :func:`refresh_moments` call).
    Pair with :func:`refresh_moments` for the prepare/apply session
    seam; ``numerics=False`` tracks only the qualifying ids, as in the
    model-only pipeline.
    """
    moments = ClusterMoments(params.degree)
    for i in _qualifying_nodes(tree, params):
        moments.node_ids.add(i)
        if numerics:
            _build_cluster_grid(moments, tree, i, params, cache_basis)
    return moments


def refresh_moment_geometry(
    moments: ClusterMoments,
    tree: ClusterTree,
    params: TreecodeParams,
    *,
    numerics: bool = True,
    dirty: np.ndarray | None = None,
) -> int:
    """Update the charge-independent moment state after particles moved.

    Re-qualifies every node under the size condition (counts may have
    changed), drops state for clusters that no longer qualify, and
    rebuilds the Chebyshev grid -- plus the cached Lagrange basis, when
    the session caches one -- for every *dirty* qualifying cluster
    (``dirty`` is a per-node bool mask; ``None`` refreshes all).  Newly
    qualifying clusters are always built.  Grids and basis are rebuilt
    by the helper :func:`prepare_moment_grids` uses, so a
    refreshed session's next :func:`refresh_moments` produces bitwise
    what a cold prepare at the new positions would.  Stale ``qhat``
    entries are left in place -- every apply overwrites them.  Returns
    the number of clusters rebuilt.
    """
    new_ids = set(_qualifying_nodes(tree, params))
    for i in moments.node_ids - new_ids:
        moments.grids.pop(i, None)
        moments.qhat.pop(i, None)
        moments.basis.pop(i, None)
    cache_basis = bool(moments.basis) or not moments.grids
    added = new_ids - moments.node_ids
    moments.node_ids = new_ids
    if not numerics:
        return 0
    rebuilt = 0
    for i in sorted(new_ids):
        if i not in added and dirty is not None and not dirty[i]:
            continue
        _build_cluster_grid(moments, tree, i, params, cache_basis)
        rebuilt += 1
    return rebuilt


def refresh_moments(
    moments: ClusterMoments,
    tree: ClusterTree,
    charges: np.ndarray,
    params: TreecodeParams,
    *,
    device: Device | None = None,
    numerics: bool = True,
) -> ClusterMoments:
    """Recompute every cluster's modified charges for new ``charges``.

    Re-runs eq. 12 on the grids cached by :func:`prepare_moment_grids`
    (contracting the cached basis matrices when present -- the same
    einsum on the same operands as evaluating the basis afresh, so the
    resulting ``qhat`` is bitwise identical with or without the cache),
    charging ``device`` (optional) for the paper's two moment kernels
    per cluster -- kernel 1 with one thread block per source particle,
    kernel 2 with one block per grid point (Sec. 3.2): re-momenting is
    real per-step device work, only the geometry bookkeeping is
    amortized.  ``numerics=False`` charges the kernels without
    computing values (model-only applies).
    A ``(N, n_rhs)`` charge block re-moments every column in this one
    pass, reusing each cluster's cached basis for all columns.
    """
    charges = _as_moment_charges(charges, tree.n_particles, "particles")
    n_ip = params.n_interpolation_points
    counts = tree.node_counts
    for i in sorted(moments.node_ids):
        if numerics:
            idx = tree.node_indices(i)
            basis = moments.basis.get(i)
            if basis is None:
                qhat = modified_charges(
                    tree.positions[idx], charges[idx], moments.grids[i]
                )
            else:
                lx, ly, lz = basis
                qhat = _contract_basis(lx, ly, lz, charges[idx])
            moments.qhat[i] = qhat
        if device is not None:
            _charge_moment_kernels(device, int(counts[i]), params, n_ip)
    return moments
