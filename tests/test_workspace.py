"""The evaluation workspace: reused buffers, bitwise the same results.

* Every kernel's two drivers (``potential`` per row block,
  ``potential_batched`` per stack), with forces on and off, return the
  same bytes with a :class:`~repro.kernels.workspace.Workspace` as
  without one -- with and without ``mirror``, in float64 and float32,
  with 1 and 3 RHS columns, on both r^2 arithmetics.
* One workspace reused across calls whose shapes shrink and then grow
  hands out no stale view and aliases no returned array.
* A multi-chunk execute on either path of the plan evaluator (and the
  multiprocessing backend's inline path), cold or warm, allocates each
  workspace slot once, sized exactly for the plan's largest block, and
  leaves nothing behind on the session.
"""

import pickle

import numpy as np
import pytest

from repro import (
    BarycentricTreecode,
    MultiprocessingBackend,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)
from repro.core.backends import base as backend_base
from repro.kernels.workspace import Workspace

from test_kernels import ALL_KERNELS, _stacked_with_forces, _with_forces

M, K = 60, 90
#: Six rows per block of a (M, K) evaluation: ten row blocks.
BLOCK = 6 * K
#: Every entry of a (M, K) block as a coincidence candidate: the
#: candidate path through each row block, testing the whole block.
EVERY_ENTRY = np.arange(M * K)


def _same(a, b):
    """Bitwise equality of two (tuples of) arrays, dtype included."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def _both(call):
    """``call(workspace)`` with none and with a fresh one; a kernel that
    cannot evaluate it (no gradient) must refuse it both ways."""
    try:
        plain = call(None)
    except NotImplementedError:
        with pytest.raises(NotImplementedError):
            call(Workspace())
        return None, None
    return plain, call(Workspace())


def _geometry(rng, dtype, m=M, k=K):
    """Sources with the targets among them, so blocks hold coincident
    pairs the evaluators patch."""
    s = rng.uniform(-1, 1, (k, 3)).astype(dtype)
    t = np.concatenate([s[: m // 2], rng.uniform(-1, 1, (m - m // 2, 3))])
    return np.ascontiguousarray(t, dtype=dtype), s


def _zeros_if(on, shape, dtype):
    """A forces accumulator, or None with forces off."""
    return np.zeros(shape, dtype=dtype) if on else None


def _present(*arrays):
    """The arrays a call filled (forces off leaves its slots None)."""
    return tuple(a for a in arrays if a is not None)


def _charges(rng, n, n_rhs, dtype):
    shape = (n,) if n_rhs == 1 else (n, n_rhs)
    return rng.normal(size=shape).astype(dtype)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n_rhs", [1, 3])
class TestEntryPointsBitwise:
    @pytest.mark.parametrize("forces", [False, True], ids=["phi", "forces"])
    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("fused", [False, True])
    def test_potential(
        self, kernel, dtype, n_rhs, mirror, fused, forces, rng
    ):
        t, s = _geometry(rng, dtype)
        q = _charges(rng, K, n_rhs, dtype)
        q_t = _charges(rng, M, n_rhs, dtype)
        col0 = K - 40

        def call(ws):
            rhs = q.shape[1:]
            out_t = np.zeros((K - col0,) + rhs, dtype=dtype)
            f_t = _zeros_if(forces, (K - col0, 3) + rhs, dtype)
            frc = _zeros_if(forces, (M, 3) + rhs, dtype)
            phi = kernel.potential(
                t, s, q, block_elements=BLOCK, fused=fused,
                coincident=EVERY_ENTRY,
                forces=frc,
                mirror=(col0, q_t, out_t, f_t) if mirror else None,
                workspace=ws,
            )
            return _present(phi, frc, out_t, f_t)

        plain, with_ws = _both(call)
        assert plain is None or _same(plain, with_ws)

    @pytest.mark.parametrize("forces", [False, True], ids=["phi", "forces"])
    def test_stacked(self, kernel, dtype, n_rhs, forces, rng):
        t, s = _geometry(rng, dtype, 4 * 15, 4 * 20)
        ts, ss = t.reshape(4, 15, 3), s.reshape(4, 20, 3)
        rhs = () if n_rhs == 1 else (n_rhs,)
        w = _charges(rng, 80, n_rhs, dtype).reshape((4, 20) + rhs)

        def call(ws):
            frc = _zeros_if(forces, (4, 15, 3) + rhs, dtype)
            phi = kernel.potential_batched(
                ts, ss, w, np.arange(4 * 15 * 20), forces=frc,
                workspace=ws,
            )
            return _present(phi, frc)

        plain, with_ws = _both(call)
        assert plain is None or _same(plain, with_ws)


@pytest.mark.parametrize("kernel", ALL_KERNELS[:4], ids=lambda k: k.name)
def test_one_workspace_across_shrinking_and_growing_shapes(kernel, rng):
    """Views of a reused buffer never leak stale values into a result,
    and no returned array is a workspace view: every result of the run
    still holds its bytes after the later calls overwrote the slots."""
    ws = Workspace()
    kept, allocated = [], []
    for m, k in [(60, 90), (20, 30), (7, 11), (70, 120)]:
        t, s = _geometry(rng, np.float64, m, k)
        q = rng.normal(size=k)
        ts, ss = t[: m // 2 * 2].reshape(2, m // 2, 3), s[: k // 2 * 2]
        ss = ss.reshape(2, k // 2, 3)
        w = rng.normal(size=(2, k // 2))
        calls = [
            lambda ws: kernel.potential(
                t, s, q, block_elements=4 * k, fused=True, workspace=ws
            ),
            lambda ws: _present(*_with_forces(
                kernel, t, s, q, block_elements=4 * k, fused=True,
                workspace=ws,
            )),
            lambda ws: kernel.potential_batched(ts, ss, w, workspace=ws),
            lambda ws: _present(
                *_stacked_with_forces(kernel, ts, ss, w, workspace=ws)
            ),
        ]
        for call in calls:
            result = call(ws)
            expected = call(None)
            assert _same(result, expected)
            kept.append((result, expected))
        allocated.append(dict(ws.allocations))
    for result, expected in kept:
        assert _same(result, expected)
    # The smaller shapes reused the buffers; the larger one grew them.
    assert allocated[0] == allocated[1] == allocated[2] != allocated[3]


def test_take_views_are_contiguous_and_sized_by_the_reservation():
    ws = Workspace()
    ws.reserve(1000)
    a = ws.take("r2", (3, 4, 5), np.float64)
    assert a.shape == (3, 4, 5) and a.flags.c_contiguous
    b = ws.take("r2", (10, 100), np.float64)
    assert np.shares_memory(a, b)  # one buffer, sized 1000 up front
    assert ws.allocations == {("r2", "<f8"): 1}
    ws.take("r2", (2000,), np.float64)  # more than reserved: grows
    assert ws.allocations == {("r2", "<f8"): 2}
    c = ws.take("r2", (5,), np.float32)  # dtypes keep separate slots
    g = ws.take("g", (5,), np.float32)  # and so do slot names
    assert c.dtype == np.float32 and not np.shares_memory(b, c)
    assert not np.shares_memory(c, g)


class _Recording(Workspace):
    """A workspace that remembers itself and its largest take."""

    opened: list = []

    def __init__(self):
        super().__init__()
        self.takes = {}
        self.largest = 0
        _Recording.opened.append(self)

    def take(self, slot, shape, dtype):
        self.takes[slot] = self.takes.get(slot, 0) + 1
        self.largest = max(self.largest, int(np.prod(shape)))
        return super().take(slot, shape, dtype)


@pytest.mark.parametrize(
    "backend", ["per-group", "stacked", "multiprocessing"]
)
@pytest.mark.parametrize("forces", [False, True])
def test_every_execute_allocates_each_slot_once(
    backend, forces, monkeypatch, use_backend
):
    """The evaluators reserve exactly their largest block before the
    first one, so a cold execute allocates each slot once, at its final
    size, as a warm one does (multiprocessing: its inline path)."""
    monkeypatch.setattr(backend_base, "Workspace", _Recording)
    _Recording.opened = []
    cube = random_cube(3000, seed=5)
    params = TreecodeParams(
        theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150,
        backend=use_backend(backend),
    )
    if backend == "multiprocessing":
        params = params.with_(backend=MultiprocessingBackend(n_workers=1))
    sess = BarycentricTreecode(YukawaKernel(kappa=0.5), params).prepare(cube)
    cold = sess.apply(cube.charges, compute_forces=forces)
    warm = sess.apply(cube.charges, compute_forces=forces)
    assert len(_Recording.opened) == 2
    slots = {"r2", "g"}
    if forces:
        slots.add("f")
    for ws in _Recording.opened:
        assert {slot for slot, _ in ws.allocations} == slots
        assert all(n == 1 for n in ws.allocations.values())
        assert ws.capacity == ws.largest  # exact, not an upper bound
        assert ws.takes["r2"] >= 5  # many blocks, one buffer each
    assert np.array_equal(cold.potential, warm.potential)


def test_workspace_is_transient(use_backend):
    """Nothing of the workspace outlives the execute: a warm apply
    leaves the byte ledger and the pickled plan as the first left them."""
    cube = random_cube(2000, seed=3)
    params = TreecodeParams(
        theta=0.7, degree=4, max_leaf_size=150, max_batch_size=150,
        backend=use_backend("stacked"),
    )
    sess = BarycentricTreecode(YukawaKernel(kappa=0.5), params).prepare(cube)
    sess.apply(cube.charges, compute_forces=True)
    stats, shipped = sess.memory_stats(), pickle.dumps(sess.plan)
    sess.apply(cube.charges, compute_forces=True)
    assert sess.memory_stats() == stats
    assert pickle.dumps(sess.plan) == shipped
