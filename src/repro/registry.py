"""Low-level backend-name registry (import-cycle free).

The user-facing registry API lives in :mod:`repro.core.backends`
(``register_backend`` / ``get_backend`` / ``available_backends``); this
module is only the underlying name -> class store.  It exists as a
top-level leaf module so that :mod:`repro.config` can validate
``TreecodeParams(backend=...)`` names at construction time without
importing the backend package -- ``repro.core`` pulls in the whole
pipeline (which itself imports ``repro.config``), so a direct import
from the config dataclass would be circular.

Bootstrap note: while ``repro`` itself is still importing (the built-in
backends register as a side effect of importing
:mod:`repro.core.backends`), the store is empty and name validation is
a no-op.  That window only covers module-level constructions inside the
package (``DEFAULT_PARAMS``); by the time user code can construct a
``TreecodeParams`` the built-ins are registered.
"""

from __future__ import annotations

__all__ = [
    "register_backend_type",
    "unregister_backend_type",
    "backend_names",
    "backend_type",
    "shared_backend_instance",
]

_BACKEND_TYPES: dict[str, type] = {}

#: Process-wide shared instances for backends with ``share_instance``
#: (one worker pool per process, reused by every session -- including
#: sessions restored from a pickle, which re-resolve their backend by
#: name through this store).
_SHARED_INSTANCES: dict[str, object] = {}


def register_backend_type(name: str, cls: type) -> None:
    """Store ``cls`` under ``name`` (last registration wins)."""
    _BACKEND_TYPES[name] = cls


def unregister_backend_type(name: str) -> None:
    _BACKEND_TYPES.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """Sorted names of all registered backend classes."""
    return tuple(sorted(_BACKEND_TYPES))


def backend_type(name: str) -> type:
    """Look up a backend class; raises KeyError for unknown names."""
    return _BACKEND_TYPES[name]


def shared_backend_instance(name: str, cls: type) -> object:
    """The process-wide shared instance of backend ``name``.

    Creates (and caches) one on first use, or when a re-registration
    changed the class behind the name.  All sessions selecting the same
    ``share_instance`` backend -- live or unpickled -- resolve to the
    same object, so e.g. one ``ProcessPoolExecutor`` serves them all.
    """
    inst = _SHARED_INSTANCES.get(name)
    if inst is not None and type(inst) is cls:
        return inst
    inst = cls()
    _SHARED_INSTANCES[name] = inst
    return inst
