"""Runtime selection of the kernel compute backend (pure python vs numpy).

The backend picks the refinement engine, the one hot loop with two
interchangeable implementations:

* the **python** backend -- the original, dependency-free ``array``-module
  engine (incremental worklist refinement);
* the **numpy** backend -- the same partitions computed as dense array
  operations (full-width ``lexsort``/boundary signature grouping per
  refinement pass).

Only the factories in :mod:`repro.kernel.refine` act on the selection.
BFS, block-cut queries and message routing have one python implementation
whichever backend is active.  A few array steps use numpy whenever it is
importable, whatever the selection:
:meth:`repro.kernel.csr.CSRGraph.patched`'s offset shift and the python
engine's canonical renumbering
(:func:`repro.kernel.refine.first_appearance_ranks`).

Both backends are *byte-identical* in everything observable: canonical
colour tables, class counts, stable depths, ψ_Z values, advice bits and
store record bytes.  The backend therefore only ever changes *speed*, never
answers, which is what lets the rest of the library (cache, store, runner,
service) stay backend-agnostic -- certified by the three-way equivalence
matrix in ``tests/test_kernel_equivalence.py`` and the property suite in
``tests/test_kernel_backends.py``.

Selection rules (cheapest thing that propagates to worker processes):

* :func:`set_backend` pins ``"python"`` / ``"numpy"`` or restores
  ``"auto"``; it also exports ``REPRO_KERNEL_BACKEND`` so spawn-context
  worker processes (the runner's pool initializer, the service's shard
  workers) resolve the same choice without extra plumbing.
* With no pin, the ``REPRO_KERNEL_BACKEND`` environment variable decides.
* ``"auto"`` (the default everywhere) means *numpy when importable*,
  python otherwise -- numpy stays an optional extra
  (``pip install repro-leader-election[fast]``).

Forcing ``"numpy"`` where numpy is not installed raises immediately rather
than degrading silently: a benchmark asked to measure the numpy backend
must never quietly time the python one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "BACKEND_ENV_VAR",
    "active_backend",
    "numpy_available",
    "numpy_or_none",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable consulted when no backend was pinned in-process.
#: Values: ``auto`` (default), ``python``, ``numpy``.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

_CHOICES = ("auto", "python", "numpy")

#: In-process pin from :func:`set_backend` (``None`` = fall back to the env).
_forced: Optional[str] = None

#: Memoised numpy module (or ``False`` after a failed import attempt).
_numpy = None


def numpy_or_none():
    """The ``numpy`` module if importable, else ``None`` (memoised)."""
    global _numpy
    if _numpy is None:
        try:
            import numpy
        except ImportError:
            _numpy = False
        else:
            _numpy = numpy
    return _numpy or None


def numpy_available() -> bool:
    """Whether the numpy backend can be selected in this process."""
    return numpy_or_none() is not None


def _validated(name: str) -> str:
    if name not in _CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose one of {', '.join(_CHOICES)})"
        )
    return name


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a requested backend name to ``"python"`` or ``"numpy"``.

    ``None`` means "whatever is currently selected": the in-process pin if
    :func:`set_backend` was called, else :data:`BACKEND_ENV_VAR`, else
    ``auto``.  Raises :class:`RuntimeError` when ``numpy`` is demanded but
    not installed, and :class:`ValueError` on unknown names.
    """
    if name is None:
        name = _forced if _forced is not None else os.environ.get(BACKEND_ENV_VAR, "auto")
    name = _validated(name)
    if name == "auto":
        return "numpy" if numpy_available() else "python"
    if name == "numpy" and not numpy_available():
        raise RuntimeError(
            "kernel backend 'numpy' requested but numpy is not installed "
            "(pip install repro-leader-election[fast])"
        )
    return name


def active_backend() -> str:
    """The backend new kernel objects will use: ``"python"`` or ``"numpy"``.

    Note the binding is per *object*: a refinement engine built while numpy
    was active keeps its vectorised code paths even if the selection later
    changes, exactly as a python-backend engine keeps its loops.
    """
    try:
        return resolve_backend(None)
    except RuntimeError:
        # an impossible env-var demand (numpy forced, not installed) fails
        # loudly when explicitly resolved; implicit consumers degrade
        return "python"


def set_backend(name: str) -> str:
    """Pin the kernel backend process-wide; returns the resolved name.

    ``"auto"`` restores the default resolution.  The choice is exported via
    :data:`BACKEND_ENV_VAR` so worker processes spawned afterwards (runner
    pool workers, service shards) inherit it.
    """
    global _forced
    resolved = resolve_backend(_validated(name))
    _forced = name
    os.environ[BACKEND_ENV_VAR] = name
    return resolved


@contextmanager
def use_backend(name: str):
    """Context manager: pin a backend, restore the previous selection after.

    Used by the dual-backend test matrix and the benchmark harness to build
    kernel objects under each backend in one process.
    """
    global _forced
    previous_forced = _forced
    previous_env = os.environ.get(BACKEND_ENV_VAR)
    try:
        yield set_backend(name)
    finally:
        _forced = previous_forced
        if previous_env is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous_env
