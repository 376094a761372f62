"""numpy detection, and the hook that forces the refinement engine's pass kinds.

The refinement engine (:class:`repro.kernel.refine.CSRPartitionRefinement`)
runs two kinds of pass and picks one per pass from what it observes: a
*vector* pass in whole-array numpy operations while many nodes still change
class, a *worklist* pass in Python loops once few do.  numpy stays an
optional extra (``pip install repro-leader-election[fast]``): without it
every pass is a worklist pass, and nothing imports it at module load.
Outside the engine, a few array steps use numpy whenever it imports:
:meth:`repro.kernel.csr.CSRGraph.patched`'s offset shift, canonical
renumbering (:func:`repro.kernel.refine.first_appearance_ranks`), the
fingerprint's label chain and the record encoder.

Both pass kinds compute the same partitions, so everything observable --
canonical colour tables, class counts, stable depths, ψ_Z values, advice
bits and store record bytes -- is the same whichever kinds ran
(``tests/test_kernel_equivalence.py``, ``tests/test_kernel_backends.py``).

:func:`use_backend` forces the kinds in-process, for tests and for the
benchmark's reference answers: ``"python"`` runs worklist passes only,
``"numpy"`` vector passes only (it raises without numpy) and ``"auto"`` lets
the engine pick.  An engine binds the selection when it is constructed.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "active_backend",
    "numpy_available",
    "numpy_or_none",
    "selected_backend",
    "use_backend",
]

_CHOICES = ("auto", "python", "numpy")

#: The selection of :func:`use_backend` (``"auto"`` outside any).
_selected = "auto"

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
    """Whether vector passes can run in this process."""
    return numpy_or_none() is not None


def selected_backend() -> str:
    """The selection new engines bind: ``"auto"``, ``"python"`` or ``"numpy"``."""
    return _selected


def active_backend() -> str:
    """``"numpy"`` when new engines can run vector passes, else ``"python"``.

    Reported by ``GET /stats`` and the ``repro_kernel_backend_info`` gauge.
    """
    return "numpy" if _selected != "python" and numpy_available() else "python"


@contextmanager
def use_backend(name: str):
    """Force the pass kinds of engines constructed inside the context.

    Yields :func:`active_backend` under the selection and restores the
    previous selection on exit.  Forcing ``"numpy"`` without numpy raises
    rather than quietly running worklist passes.
    """
    global _selected
    if name not in _CHOICES:
        raise ValueError(f"unknown kernel backend {name!r} (choose one of {', '.join(_CHOICES)})")
    if name == "numpy" and not numpy_available():
        raise RuntimeError(
            "kernel backend 'numpy' requested but numpy is not installed "
            "(pip install repro-leader-election[fast])"
        )
    previous = _selected
    _selected = name
    try:
        yield active_backend()
    finally:
        _selected = previous
