"""Worker-process bootstrap shared by the runner fan-out and the service shards.

Both parallel subsystems of the reproduction -- the experiment runner's
``multiprocessing.Pool`` fan-out and the election service's sharded process
backend (:mod:`repro.service.workers`) -- need the same thing from a fresh
worker process: a process-wide refinement cache backed by the persistent
artifact store, so workers exchange fingerprint-addressed *results* on disk
instead of recomputing them per process.  This module is that single
bootstrap; it deliberately has no other runner or service dependencies so a
spawned worker importing it pays only for the cache/store layers.
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


def bootstrap_worker(
    store_path: Optional[str] = None,
    hot_tier_bytes: int = 0,
    cache_admission: Optional[str] = None,
) -> None:
    """Initialise one worker process (runner pool worker or service shard).

    Attaches the store when one is configured.  ``hot_tier_bytes``, when
    positive, enables the attached store's in-process hot tier with that
    byte budget (service shards serving repeat traffic); ``cache_admission``
    selects the refinement cache's admission policy (e.g. ``"second-touch"``
    for zipf-shaped service traffic) -- both are no-ops by default so runner
    pool workers keep the historical sweep-oriented behaviour.
    """
    if store_path is not None:
        attach_store_path(store_path)
        if hot_tier_bytes > 0 and refinement_cache.store is not None:
            refinement_cache.store.enable_hot_tier(hot_tier_bytes)
    if cache_admission is not None:
        refinement_cache.set_admission(cache_admission)
