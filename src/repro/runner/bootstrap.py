"""Worker-process bootstrap of the runner's ``multiprocessing`` fan-out.

A fresh pool worker (``bench``/``sweep --workers N``, ``repro warm
--jobs N``) needs a process-wide refinement cache backed by the persistent
artifact store, so workers exchange fingerprint-addressed *results* on disk
instead of recomputing them per process.  This module is that bootstrap;
it deliberately has no other runner or service dependencies so a spawned
worker importing it pays only for the cache/store layers.
"""

from __future__ import annotations

import os
from typing import Optional

from .cache import refinement_cache

__all__ = ["attach_store_path", "bootstrap_worker"]


def attach_store_path(store_path: str) -> None:
    """Back the process-wide refinement cache with the store at ``store_path``.

    Idempotent per path; a different path replaces the attached store.  Also
    used as the ``multiprocessing`` pool initializer so every worker process
    reads and writes through the same on-disk store -- which is what lets
    the fan-out ship fingerprint-addressed *results* between processes
    instead of recomputing them in each.
    """
    from ..store import ArtifactStore  # lazy: keep the serial path import-light

    current = refinement_cache.store
    resolved = os.path.abspath(store_path)
    if current is None or current.root != resolved:
        refinement_cache.attach_store(ArtifactStore(resolved))


def bootstrap_worker(store_path: Optional[str] = None) -> None:
    """Initialise one runner pool worker: attach the store when one is configured."""
    if store_path is not None:
        attach_store_path(store_path)
