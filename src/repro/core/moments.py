"""Modified charges ("moments") for source clusters, paper Sec. 2.2-2.3.

For a cluster C with particles ``y_j`` and charges ``q_j``, the modified
charge at Chebyshev grid point ``s_k`` (k a 3D multi-index) is

    qhat_k = sum_{y_j in C} L_k1(y_j1) L_k2(y_j2) L_k3(y_j3) q_j    (eq. 12)

Each ``qhat_k`` is independent of the targets, so it is computed once per
cluster and reused by every batch that approximates the cluster.

Upward pass
-----------
Running eq. 12 from scratch for every cluster contracts each particle
once per qualifying ancestor.  The numerics run the exact upward (M2M)
step of the black-box FMM instead (Fong & Darve 2009, J. Comput. Phys.
228:8712): a parent's degree-n Lagrange basis is a degree-n polynomial
in each dimension, so a child's degree-n interpolant reproduces it and

    qhat^P = sum_C (A_x (x) A_y (x) A_z) qhat^C,   A_d[k, i] = L^P_k(s^C_d,i)

over the children C that *transfer*: those that carry moments
themselves, under a parent that does, with neither box degenerate (a
dimension whose 1-D Chebyshev nodes coincide, e.g. a planar set, where
the child's interpolant cannot reproduce the parent's basis).

* Particle stage.  Every cluster contracts eq. 12 over the particles no
  transferring child holds: all of a leaf's, and those of its
  non-qualifying or degenerate children.  Without degenerate boxes each
  particle is contracted once, onto the lowest cluster holding it.  The
  cached state is those clusters' 1-D bases at their particles; per
  charge column the contraction is one GEMM, ``(lx * q) @ (ly . lz)^T``,
  with the Khatri-Rao product ``ly . lz`` formed per apply.
* Transfer stage.  One step per tree level, bottom-up, over all of the
  level's child -> parent edges at once, as fixed-order elementwise sums
  with the ``(n+1) x (n+1)`` matrices ``A_d``; each parent's children
  are summed in edge order and the sum added in.

No operation mixes charge columns, so column ``j`` of a block is bitwise
a single-column pass.  Against eq. 12 evaluated per cluster
(:func:`modified_charges`) the result agrees to roundoff -- a few 1e-15
relative on the benchmark workloads.  The agreement loosens as
``n^2 eps |c| / w`` on clusters of width ``w`` at distance ``|c|`` from
the origin: the barycentric weights belong to the exact Chebyshev
points, not to their rounded coordinates, so on such thin boxes
neither form is exactly polynomial.

GPU kernel correspondence
-------------------------
The simulated device does not model this pass.  The paper computes eq.
12 per cluster with two kernels (Sec. 3.2): kernel 1 forms the
intermediate quantities ``qtilde_j`` (eq. 14, the product of the three
barycentric denominator sums, O((n+1) N_C) work), kernel 2 assembles
``qhat_k`` from them (eq. 15, O((n+1)^3 N_C) work); every qualifying
cluster is charged for both with the paper's operation counts.  The
simulated ``PhaseTimes`` are the paper's model, not this
implementation's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import TreecodeParams
from ..gpu.device import Device
from ..interpolation.barycentric import lagrange_basis
from ..interpolation.chebyshev import barycentric_weights
from ..interpolation.grid import ChebyshevGrid3D
from ..tree.octree import ClusterTree
from ..util import TINY, concat_ranges

__all__ = [
    "modified_charges",
    "moment_flop_counts",
    "precompute_moments",
    "prepare_moment_grids",
    "refresh_moments",
    "refresh_moment_geometry",
    "ClusterMoments",
]


def _as_moment_charges(charges, n: int, what: str) -> np.ndarray:
    """Validate per-cluster/particle charges as ``(n,)`` or ``(n, n_rhs)``."""
    charges = np.asarray(charges, dtype=np.float64)
    if charges.ndim not in (1, 2) or charges.shape[0] != n:
        raise ValueError(
            f"expected ({n},) or ({n}, n_rhs) charges for {n} {what}; "
            f"got shape {charges.shape}"
        )
    return charges


def _contract(lx, ly, lz, cols) -> np.ndarray:
    """Eq. 12 on 1-D bases ``(n+1, M)`` for charge columns ``(R, M)``.

    Returns ``(R, (n+1)^3)``, C-order over ``(k1, k2, k3)``.  Each
    column is one GEMM of fixed shape, ``(lx * q_r) @ (ly . lz)^T``, so
    its bits do not depend on the other columns.
    """
    n1 = lx.shape[0]
    kr = (ly[:, None, :] * lz[None, :, :]).reshape(n1 * n1, -1)
    return np.matmul(lx * cols[:, None, :], kr.T).reshape(len(cols), -1)


def modified_charges(
    points: np.ndarray,
    charges: np.ndarray,
    grid: ChebyshevGrid3D,
) -> np.ndarray:
    """Compute eq. 12 for one cluster; returns ``((n+1)^3,)`` flattened.

    Flattening is C-order over ``(k1, k2, k3)``, matching
    :func:`repro.interpolation.grid.tensor_grid_points`.  A
    ``(N_C, n_rhs)`` charge block yields ``((n+1)^3, n_rhs)`` moments,
    every column contracted on the one shared basis evaluation.  This is
    the definition the upward pass reproduces; the treecode itself never
    calls it.
    """
    points = np.atleast_2d(points)
    charges = _as_moment_charges(charges, points.shape[0], "points")
    lx, ly, lz = (
        lagrange_basis(points[:, d], grid.points_1d[d], grid.weights)
        for d in range(3)
    )
    if charges.ndim == 1:
        return _contract(lx, ly, lz, charges[None])[0]
    return _contract(lx, ly, lz, charges.T).T


def moment_flop_counts(n_cluster: int, degree: int) -> tuple[float, float]:
    """(kernel-1, kernel-2) interaction counts for the device model.

    Kernel 1 (eq. 14): each of the N_C sources evaluates three
    (n+1)-term denominator sums -> 3 (n+1) N_C "interactions".
    Kernel 2 (eq. 15): each of the (n+1)^3 grid points reduces over the
    N_C sources -> (n+1)^3 N_C interactions.
    """
    np1 = degree + 1
    return 3.0 * np1 * n_cluster, float(np1**3) * n_cluster


@dataclass
class UpwardPass:
    """Charge-independent state of the upward pass over one tree."""

    #: (N_owned,) particle indices the particle stage contracts, grouped
    #: by the cluster they are contracted onto (their *owner*).
    owned: np.ndarray
    #: (n_owners + 1,) offsets of each owner's particles in ``owned``.
    owner_ptr: np.ndarray
    #: (n_owners,) ``qhat`` row of each owner.
    owner_rows: np.ndarray
    #: ``(3, n+1, N_owned)``: every owner's 1-D Lagrange bases
    #: ``(lx, ly, lz)`` at its particles.
    basis: np.ndarray
    #: Per tree level, deepest first: ``(parent_rows, child_rows, A)``
    #: over the level's transferring edges, ``A`` shaped
    #: ``(3, E, n+1, n+1)`` with ``A[d, e] = L^P(s^C_d)``.
    levels: list

    def nbytes(self) -> int:
        arrays = [self.owned, self.owner_ptr, self.owner_rows, self.basis]
        for level in self.levels:
            arrays.extend(level)
        return int(sum(a.nbytes for a in arrays))


class ClusterMoments:
    """Grids, upward-pass state and modified charges of one source tree.

    ``ids`` are the qualifying clusters (ascending node indices) and
    ``row`` maps every node to its row of the packed ``qhat`` (-1 for a
    node without moments).  ``grids`` holds each qualifying cluster's
    Chebyshev grid and ``upward`` the charge-independent state of the
    upward pass.  ``qhat`` is None until the first
    :func:`refresh_moments`, then ``(n_clusters, (n+1)^3)`` -- or
    ``(n_clusters, (n+1)^3, n_rhs)`` for a block of charge columns, each
    column contiguous.  Under a model-only backend (``numerics=False``)
    only ``ids`` / ``row`` are tracked.
    """

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.ids = np.zeros(0, dtype=np.intp)
        self.row = np.zeros(0, dtype=np.intp)
        self.grids: dict[int, ChebyshevGrid3D] = {}
        self.upward: UpwardPass | None = None
        self.qhat: np.ndarray | None = None

    def __contains__(self, node_index: int) -> bool:
        return 0 <= node_index < len(self.row) and self.row[node_index] >= 0

    @property
    def n_clusters(self) -> int:
        """Number of clusters carrying moments."""
        return len(self.ids)

    def grid(self, node_index: int) -> ChebyshevGrid3D:
        return self.grids[node_index]

    def charges(self, node_index: int) -> np.ndarray:
        """Node ``node_index``'s modified charges (a view of ``qhat``)."""
        return self.qhat[self.row[node_index]]

    def packed(self, n_nodes: int) -> np.ndarray:
        """Dense ``(n_nodes, (n+1)^3)`` array (rows of absent nodes zero).

        This is the "cluster charges" array placed in an RMA window for
        remote ranks to get during LET construction (Sec. 3.1).  When
        the stored moments carry an RHS axis the packed array does too:
        ``(n_nodes, (n+1)^3, n_rhs)``.
        """
        np3 = (self.degree + 1) ** 3
        q = self.qhat
        if q is None or q.ndim == 2 or len(q) == 0:
            out = np.zeros((n_nodes, np3))
        else:
            out = np.zeros((n_nodes, np3, q.shape[2]))
        if q is not None and len(q):
            out[self.ids] = q
        return out

    def nbytes(self) -> int:
        """Resident bytes: packed ``qhat``, grids, upward-pass state."""
        nbytes = 0 if self.qhat is None else self.qhat.nbytes
        nbytes += sum(g.points.nbytes for g in self.grids.values())
        if self.upward is not None:
            nbytes += self.upward.nbytes()
        return int(nbytes)


def _qualifying_nodes(tree: ClusterTree, params: TreecodeParams) -> np.ndarray:
    """Indices of the clusters that carry moments: those passing the size
    condition ``(n+1)^3 < N_C`` (all of them when ``size_check`` is off).
    The criterion is parameter-only, so every rank makes the same
    decision.  Counts never grow towards the leaves, so a qualifying
    cluster's ancestors all qualify.
    """
    counts = tree.node_counts
    if not params.size_check:
        return np.arange(len(counts), dtype=np.intp)
    return np.flatnonzero(params.n_interpolation_points < counts)


def _node_depths(view) -> np.ndarray:
    """Depth of every node: breadth-first numbering puts level ``L + 1``
    right after level ``L``."""
    depth = np.zeros(len(view), dtype=np.intp)
    lo, hi, level = 0, 1, 0
    while lo < hi:
        depth[lo:hi] = level
        lo, hi = hi, hi + int(view.n_children[lo:hi].sum())
        level += 1
    return depth


def _build_upward(
    moments: ClusterMoments, tree: ClusterTree, params: TreecodeParams
) -> UpwardPass:
    """The upward pass's charge-independent state on ``moments.grids``:
    which children transfer, every owner's particles and 1-D bases, and
    each level's transfer matrices."""
    view = tree.view()
    n_nodes = len(view)
    ids, row = moments.ids, moments.row
    n1 = params.degree + 1
    nodes_1d = np.empty((3, len(ids), n1))
    for r, i in enumerate(ids.tolist()):
        nodes_1d[:, r] = moments.grids[i].points_1d
    weights = barycentric_weights(params.degree)
    # A box is degenerate where two of its 1-D nodes coincide (the test
    # lagrange_basis applies to a coordinate and a node).
    degenerate = np.any(np.abs(np.diff(nodes_1d, axis=2)) <= TINY, axis=(0, 2))
    regular = np.zeros(n_nodes, dtype=bool)
    regular[ids] = ~degenerate
    child = np.arange(1, n_nodes)
    parent = np.repeat(np.arange(n_nodes), view.n_children)
    sends = regular[child] & regular[parent]

    # Particle stage: a qualifying leaf contracts its own slice, a
    # qualifying parent the slice of every child that does not send.
    leaves = ids[view.is_leaf[ids]]
    keep = (row[parent] >= 0) & ~sends
    entry_node = np.concatenate((leaves, child[keep]))
    entry_row = row[np.concatenate((leaves, parent[keep]))]
    order = np.lexsort((view.starts[entry_node], entry_row))
    entry_node, entry_row = entry_node[order], entry_row[order]
    counts = view.counts[entry_node]
    owned = tree.perm[concat_ranges(view.starts[entry_node], counts)]
    owner_rows, first = np.unique(entry_row, return_index=True)
    owner_ptr = np.zeros(len(owner_rows) + 1, dtype=np.intp)
    if len(counts):
        np.cumsum(np.add.reduceat(counts, first), out=owner_ptr[1:])
    pts = tree.positions[owned].T
    ptr = owner_ptr.tolist()
    basis = np.empty((3, n1, len(owned)))
    for o, r in enumerate(owner_rows.tolist()):
        s = slice(ptr[o], ptr[o + 1])
        for d in range(3):
            basis[d, :, s] = lagrange_basis(pts[d, s], nodes_1d[d, r], weights)

    # Transfer stage: one step per child level, deepest first.
    depth = _node_depths(view)
    e_child, e_parent = child[sends], parent[sends]
    levels = []
    for level in range(int(depth.max(initial=0)), 0, -1):
        at_level = depth[e_child] == level
        if not at_level.any():
            continue
        c_rows = row[e_child[at_level]]
        p_rows = row[e_parent[at_level]]
        a = lagrange_basis(nodes_1d[:, c_rows], nodes_1d[:, p_rows], weights)
        levels.append((p_rows, c_rows, a))
    return UpwardPass(owned, owner_ptr, owner_rows, basis, levels)


def _transfer_leading(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``sum_i a[e, k, i] t[e, i, :]`` for ``t`` shaped ``(E, n+1, M)``.

    The sum over ``i`` runs as elementwise products added in index
    order: every entry of the trailing axis -- charge columns included
    -- sees the same arithmetic, whatever the others hold.
    """
    out = a[:, :, 0, None] * t[:, None, 0]
    term = np.empty_like(out)
    for i in range(1, a.shape[2]):
        out += np.multiply(a[:, :, i, None], t[:, None, i], out=term)
    return out


def _upward_pass(moments: ClusterMoments, charges: np.ndarray) -> np.ndarray:
    """``qhat`` of every qualifying cluster for ``(N, R)`` charges;
    returns ``(n_clusters, (n+1)^3, R)``."""
    up = moments.upward
    n1 = moments.degree + 1
    n_rhs = charges.shape[1]
    q = np.zeros((len(moments.ids), n1**3, n_rhs))
    owned = charges[up.owned]
    lx, ly, lz = up.basis
    ptr = up.owner_ptr.tolist()
    for o, r in enumerate(up.owner_rows.tolist()):
        s = slice(ptr[o], ptr[o + 1])
        q[r] = _contract(lx[:, s], ly[:, s], lz[:, s], owned[s].T).T
    for p_rows, c_rows, a in up.levels:
        # (E, x, y, z, R): contract the leading grid axis, then rotate it
        # to the back, once per dimension -> (E, R, x, y, z).
        t = q[c_rows]
        for d in range(3):
            t = _transfer_leading(a[d], t.reshape(len(c_rows), n1, -1))
            t = np.moveaxis(t, 1, -1)
        t = np.moveaxis(t.reshape(len(c_rows), n_rhs, -1), 1, -1)
        # Each level's edges are ordered by parent: sum every parent's
        # children in edge order, then add the sums in.
        parents, first = np.unique(p_rows, return_index=True)
        q[parents] += np.add.reduceat(t, first, axis=0)
    return q


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

    This is :func:`prepare_moment_grids` followed by
    :func:`refresh_moments`, which charges ``device`` (optional) for the
    paper's two preprocessing kernels per cluster and honours
    ``numerics=False`` (model-only runs: qualifying clusters recorded,
    kernels charged, no arithmetic).
    """
    moments = prepare_moment_grids(tree, params, numerics=numerics)
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
) -> ClusterMoments:
    """The charge-independent half of :func:`precompute_moments`.

    Records the qualifying clusters, builds their Chebyshev grids and
    the upward pass's state (owner bases, transfer matrices), but
    computes no modified charges and charges no device (all of it
    depends only on geometry; the paper's two moment kernels are
    charge-dependent work charged per :func:`refresh_moments` call).
    Pair with :func:`refresh_moments` for the prepare/apply session
    seam; ``numerics=False`` tracks only the qualifying ids, as in the
    model-only pipeline.
    """
    moments = ClusterMoments(params.degree)
    refresh_moment_geometry(moments, tree, params, numerics=numerics)
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
    changed), drops the grids of clusters that no longer qualify,
    rebuilds the Chebyshev grid of every *dirty* qualifying cluster
    (``dirty`` is a per-node bool mask; ``None`` rebuilds all) and of
    every newly qualifying one, then rebuilds the upward pass's state
    for the whole tree.  Clean grids are those a cold build would make,
    so a refreshed session's next :func:`refresh_moments` produces
    bitwise what a cold prepare at the new positions would.  ``qhat``
    is dropped until that refresh.  Returns the number of grids rebuilt.
    """
    old = set(moments.ids.tolist())
    moments.ids = ids = _qualifying_nodes(tree, params)
    moments.row = np.full(len(tree), -1, dtype=np.intp)
    moments.row[ids] = np.arange(len(ids))
    moments.qhat = None
    if not numerics:
        return 0
    for i in old.difference(ids.tolist()):
        del moments.grids[i]
    view = tree.view()
    rebuilt = 0
    for i in ids.tolist():
        if i in old and dirty is not None and not dirty[i]:
            continue
        moments.grids[i] = ChebyshevGrid3D.for_box(
            view.lo[i], view.hi[i], params.degree
        )
        rebuilt += 1
    moments.upward = _build_upward(moments, tree, params)
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

    Runs the upward pass on the state :func:`prepare_moment_grids`
    cached and charges ``device`` (optional) for the paper's two moment
    kernels per cluster -- kernel 1 with one thread block per source
    particle, kernel 2 with one block per grid point (Sec. 3.2):
    re-momenting is real per-step device work, only the geometry
    bookkeeping is amortized.  ``numerics=False`` charges the kernels
    without computing values (model-only applies).  A ``(N, n_rhs)``
    charge block re-moments every column in this one pass.
    """
    charges = _as_moment_charges(charges, tree.n_particles, "particles")
    if numerics:
        qhat = _upward_pass(moments, charges.reshape(len(charges), -1))
        moments.qhat = qhat[:, :, 0] if charges.ndim == 1 else qhat
    if device is not None:
        n_ip = params.n_interpolation_points
        counts = tree.node_counts
        for i in moments.ids.tolist():
            _charge_moment_kernels(device, int(counts[i]), params, n_ip)
    return moments
