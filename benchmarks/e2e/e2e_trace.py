"""Spans around the calls into each layer, recorded from outside ``src/``.

The benchmark interposes timing wrappers on the public callables each
layer exports and then uses the session API as a user would; no file
under ``src/`` carries a hook, switch or environment variable for it.
A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` indexes
the span that was open when this one started, ``op`` numbers the
user-level call (one ``prepare()`` / ``apply()`` / ``update_geometry()``)
every span of that call shares.  Spans stay in memory until the run
writes them out; a layer's self time is its span minus its children.

A callable that a later refactor renamed or moved is reported as
missing -- its metric becomes ``null`` with a warning -- and never
crashes the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import warnings

__all__ = ["LAYER_CALLABLES", "Tracer", "interposed"]

#: span name -> ``module:attribute`` of the layer callable it wraps.
#: Classes are wrapped at ``__init__`` so ``isinstance`` checks and
#: subclassing elsewhere keep seeing the real class.
LAYER_CALLABLES = {
    "tree.ClusterTree": "repro.tree:ClusterTree.__init__",
    "tree.TargetBatches": "repro.tree:TargetBatches.__init__",
    "moments.prepare_moment_grids": "repro.core.moments:prepare_moment_grids",
    "moments.refresh_moments": "repro.core.moments:refresh_moments",
    "interaction_lists.build_interaction_lists":
        "repro.core.interaction_lists:build_interaction_lists",
    "plan.compile_plan": "repro.core.plan:compile_plan",
    "plan.ensure_batched_layout":
        "repro.core.plan:ExecutionPlan.ensure_batched_layout",
    "plan.refresh_weights": "repro.core.plan:ExecutionPlan.refresh_weights",
    "session.precompute": "repro.core.session:SessionCore.precompute",
    "session.execute_plan": "repro.core.session:SessionCore.execute_plan",
    "session.update_geometry":
        "repro.core.session:SessionCore.update_geometry",
}


class Tracer:
    """In-memory span recorder; a no-op while ``enabled`` is False."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``[name, start_ns, end_ns, parent_index_or_None, op]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def op(self, name: str):
        """The span of one user-level call; starts a new op id."""
        self._op += 1
        return self.span(name)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- reading the record ---------------------------------------------
    def seconds(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return (end - start) / 1e9

    def children(self, index: int, name: str | None = None) -> list[int]:
        """Direct children of span ``index`` (optionally by name)."""
        return [
            i for i, s in enumerate(self.spans)
            if s[3] == index and (name is None or s[0] == name)
        ]

    def within(self, index: int, name: str) -> list[int]:
        """Spans called ``name`` anywhere below span ``index``."""
        found = []
        for i in range(index + 1, len(self.spans)):
            parent = self.spans[i][3]
            while parent is not None and parent != index:
                parent = self.spans[parent][3]
            if parent == index and self.spans[i][0] == name:
                found.append(i)
        return found

    def self_seconds(self, index: int) -> float:
        return self.seconds(index) - sum(
            self.seconds(c) for c in self.children(index)
        )

    def as_records(self, workload: str) -> list[dict]:
        return [
            {
                "name": name, "start_ns": start, "end_ns": end,
                "parent": parent, "workload": workload, "op": op,
            }
            for name, start, end, parent, op in self.spans
        ]


def _resolve(path: str):
    """``(owner, attribute name, callable)`` for ``module:a.b``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


@contextlib.contextmanager
def interposed(tracer: Tracer, callables: dict):
    """Wrap every resolvable callable; yields the set of missing names.

    A module-level function is rebound in every ``repro`` module that
    imported it by name, since ``from .moments import refresh_moments``
    copies the reference.  Everything is restored on exit.
    """
    undo: list[tuple] = []
    missing: set[str] = set()
    try:
        for name, path in callables.items():
            try:
                owner, leaf, fn = _resolve(path)
            except (ImportError, AttributeError) as exc:
                warnings.warn(
                    f"layer callable {path!r} for span {name!r} cannot be "
                    f"resolved ({exc}); its metrics are reported as null",
                    RuntimeWarning,
                    stacklevel=2,
                )
                missing.add(name)
                continue
            wrapped = tracer.wrap(fn, name)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod is not None
                    and mod_name.partition(".")[0] == "repro"
                    and getattr(mod, leaf, None) is fn
                ]
            for holder in holders:
                setattr(holder, leaf, wrapped)
                undo.append((holder, leaf, fn))
        yield missing
    finally:
        for holder, leaf, fn in reversed(undo):
            setattr(holder, leaf, fn)
