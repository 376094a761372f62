"""Process-wide memoisation of :class:`~repro.views.refinement.ViewRefinement`.

Every layer of the library (feasibility checks, the four ψ_Z computations,
the twin queries of the lower-bound lemmas, graph summaries) is driven by the
same partition-refinement object, and a refinement is pure -- it depends only
on the graph.  Before this cache existed, each benchmark script and each
``all_election_indices`` call rebuilt the refinement from scratch, so a sweep
that touches the same graph from five angles paid for five refinements.

:class:`RefinementCache` is a small LRU keyed on the graph itself: exact
labeled equality (:meth:`~repro.portgraph.graph.PortLabeledGraph.__eq__`,
node handles, ports and edges; the name is ignored) under a hash memoised on
the instance, so a warm lookup costs one C-speed hash the first time an
instance is seen and a dict probe after that -- never a refinement, never a
digest.  A refinement's colour lists are indexed by node handle, so a
relabeled copy is a different key with its own entry; a hit therefore always
returns a refinement that is correct for the exact graph asked about.

The module-level singleton :data:`refinement_cache` is what the rest of the
library uses: :func:`shared_refinement` is the default source of refinements
in :mod:`repro.core.feasibility`, :mod:`repro.core.election_index` and the
experiment runner, so one memoised refinement per graph serves ψ_S / ψ_PE /
ψ_PPE / ψ_CPPE queries, feasibility and twin queries alike.

Counters (hits, misses, evictions, and the total number of refinement
*passes* performed by cached refinements) are exposed via
:meth:`RefinementCache.stats`; a repeated sweep over the same spec must not
increase ``refinement_passes``, which is how the tests and the ``bench``
CLI certify cache reuse.

Since the store subsystem (PR 3) the cache can additionally be backed by a
persistent :class:`~repro.store.store.ArtifactStore`
(:meth:`RefinementCache.attach_store`): a miss then *reads through* the
store -- looked up by the exact identity digest
:meth:`~repro.portgraph.graph.PortLabeledGraph.cache_key`, confirmed by
graph equality -- and a record found there pre-fills the new entry's memo
with its stored answers (feasibility, ψ_Z outcomes, view-class profiles) and
seeds the graph's fingerprint; computed entries are *written through* with
:meth:`RefinementCache.persist`.  That is how a cold process (a CI run, a
fresh benchmark, a service worker) inherits every answer and ψ_Z search any
previous process computed: a replayed sweep whose answers are all stored
runs no refinement pass at all, and any other query refines the graph from
scratch, which costs less than decoding stored partitions would.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple

from ..portgraph.graph import PortLabeledGraph
from ..store import ArtifactRecord, ArtifactStore
from ..views.refinement import ViewRefinement

__all__ = [
    "CacheEntry",
    "RefinementCache",
    "refinement_cache",
    "shared_refinement",
]

#: Default number of entries (exact graphs) kept by the process-wide cache.
DEFAULT_MAXSIZE = 128


class CacheEntry:
    """One cached graph: its refinement plus a memo of derived results.

    ``memo`` maps hashable query keys -- e.g. ``("psi", "PPE", max_depth,
    max_states)`` or ``("feasible",)`` -- to previously computed answers.
    Every answer memoised here is a pure function of the graph (and of the
    key's own parameters), so replaying a sweep can skip not only the
    refinement passes but also the expensive PPE/CPPE joint searches.

    The graph's block-cut tree (ψ_PE) and BFS distance arrays (ψ_PPE/ψ_CPPE
    pruning) are memoised on its CSR view
    (:class:`~repro.kernel.csr.CSRGraph`), which a hit hands to the request
    graph with the engine, so a warm sweep skips their construction exactly
    as it skips refinement passes.
    """

    __slots__ = ("graph", "refinement", "memo")

    def __init__(self, graph: PortLabeledGraph, refinement: ViewRefinement) -> None:
        self.graph = graph
        self.refinement = refinement
        self.memo: Dict[Tuple, object] = {}

    def estimated_bytes(self) -> int:
        """Rough retained footprint of this entry (bytes).

        Sums the refinement engine's per-depth state, the CSR view with its
        memos (block-cut tree, BFS distance arrays) and a flat charge per
        memo entry.  Evicting the entry releases all of it together -- the
        engine and CSR view are memoised on the graph instance, whose only
        long-lived reference is this entry.
        """
        return (
            self.graph.refinement_engine().estimated_bytes()
            + self.graph.csr().nbytes()
            + 64 * len(self.memo)
        )


class RefinementCache:
    """An LRU cache of :class:`ViewRefinement` objects, one per exact graph.

    ``maxsize`` bounds the number of entries; every miss enters the LRU, and
    relabeled copies of one graph are distinct keys, evicted one by one like
    everything else.

    Lookups may be issued from many threads at once: the service's pool
    threads share this cache, and two requests for one graph share its
    entry.  The LRU bookkeeping and the counters are guarded by the cache's
    lock.  The entry's refinement engine guards its own partitions with a
    lock of its own, held per pass and per read
    (:mod:`repro.kernel.refine`), so concurrent queries of one graph may
    refine it together.  ``entry.memo`` holds pure answers, so two threads
    that compute one key store equal values.  Lock order: the cache lock
    may be held while an engine's lock is taken (eviction and
    :meth:`live_bytes` run :meth:`CacheEntry.estimated_bytes` under it),
    and nothing that holds an engine's lock takes the cache lock.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self._maxsize = maxsize
        # graph -> entry, least recently used first; the key is the entry's
        # own graph instance, compared by exact labeled equality
        self._entries: "OrderedDict[PortLabeledGraph, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._evicted_passes = 0
        self._evicted_bytes = 0
        self._store: Optional[ArtifactStore] = None
        self._store_hits = 0
        self._store_misses = 0

    # ------------------------------------------------------------------ #
    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry(self, graph: PortLabeledGraph) -> CacheEntry:
        """The cache entry of ``graph`` (created on first request).

        On a hit by an equal but distinct instance, ``graph`` adopts what the
        cached instance holds (CSR view with its memos, engine at whatever
        depth it has reached, fingerprint;
        :meth:`~repro.portgraph.graph.PortLabeledGraph.adopt_from`), as a
        store hit adopts the record's fingerprint, so the caller's own later
        ``graph.fingerprint()`` refines nothing outside the ledger.  Nothing
        is refined under the lock.  Callers look a graph up once per
        evaluation, so ``hits`` and ``misses`` count queries.

        With a store attached, an in-memory miss first *reads through* the
        store: a record of an exactly equal graph warm-starts the entry
        (fingerprint seeded, memo pre-filled with the stored feasibility,
        ψ_Z and profile answers), so a query the record answers costs the
        cold process no refinement pass; no partition is installed, and any
        other query refines the graph from scratch.  The store lookup
        happens under the cache lock -- it is a small read of a
        content-addressed file, and serialising it also means concurrent
        threads asking for the same graph trigger one disk read, not
        several.
        """
        hash(graph)  # memoised on the instance: pay the O(n + m) once, unlocked
        with self._lock:
            stored = self._entries.get(graph)
            if stored is not None:
                self._entries.move_to_end(graph)
                self._hits += 1
                graph.adopt_from(stored.graph)
                return stored
            self._misses += 1
            memo_seed = None
            if self._store is not None:
                record = self._store.load_for_graph(graph)
                if record is not None:
                    record.adopt_onto(graph)
                    memo_seed = record.memo_entries()
                    self._store_hits += 1
                else:
                    self._store_misses += 1
            entry = CacheEntry(graph, ViewRefinement(graph))
            if memo_seed:
                entry.memo.update(memo_seed)
            self._admit_locked(entry)
            return entry

    def _admit_locked(self, entry: CacheEntry) -> None:
        """Insert ``entry`` into the LRU and evict down to ``maxsize``.

        An equal resident is popped first, so the key is always the entry's
        own graph instance (a plain assignment would keep the old key object,
        and with it the old instance's engine and CSR view).
        """
        previous = self._entries.pop(entry.graph, None)
        if previous is not None:
            self._retire_locked(previous)
        self._entries[entry.graph] = entry
        while len(self._entries) > self._maxsize:
            # the entry's CSR view and its memos (block-cut tree, BFS
            # distance arrays) go with it, accounted in evicted_bytes
            _graph, evicted = self._entries.popitem(last=False)
            self._evictions += 1
            self._retire_locked(evicted)

    def _retire_locked(self, entry: CacheEntry) -> None:
        """Fold a dropped entry into the counters, so ``refinement_passes``
        stays monotone across evictions and replacements."""
        self._evicted_passes += entry.refinement.passes
        self._evicted_bytes += entry.estimated_bytes()

    def _live_locked(self) -> Iterable[CacheEntry]:
        """Every live entry: the one scan behind the cache-wide counters."""
        return self._entries.values()

    def get(self, graph: PortLabeledGraph) -> ViewRefinement:
        """The memoised refinement of ``graph`` (created on first request)."""
        return self.entry(graph).refinement

    # ------------------------------------------------------------------ #
    # delta-derived entries (the incremental recompute path)
    # ------------------------------------------------------------------ #
    def delta_entry(
        self, base_graph: PortLabeledGraph, delta, *, events: Optional[list] = None
    ) -> CacheEntry:
        """The entry of ``delta`` applied to ``base_graph``, replayed not recomputed.

        Applies the :class:`~repro.portgraph.delta.GraphDelta`, then derives
        the mutated graph's entry from the base's instead of refining cold:
        the CSR view is patched (:meth:`~repro.kernel.csr.CSRGraph.patched`,
        a fresh view whose block-cut tree and BFS distances are built on
        first use) and the partitions are replayed over the dirty ball
        (:func:`~repro.kernel.refine.refinement_delta`).  If the exact
        mutated graph is already cached (memory or store), that entry wins
        and no replay happens.

        **Memo invalidation.**  A derived entry inherits none of the base's
        memos: every ψ index is supported by *all* classes of the graph,
        and a non-empty delta dirties at least one, so inheriting them is
        exactly the staleness the write-through regression test pins down.
        Feasibility is not carried over either: the replay leaves the
        engine at its fixpoint, where feasibility is one class count.

        The entry records nothing of the path that made it: :meth:`persist`
        writes the same record bytes for it as for a cold entry of the
        mutated graph.

        ``events``, when given, receives the delta-protocol events this call
        performed (``cache_hit``, or ``base_hit`` / ``memos_invalidated`` /
        ``replayed``) in order -- the service replays them through
        :class:`~repro.service.protocol.DeltaStatus` so the lifecycle the
        model checker verifies is the lifecycle the cache actually ran.
        """
        result = delta.apply_to(base_graph)
        graph = result.graph
        hash(graph)  # as in entry: memoise the hash outside the lock
        with self._lock:
            stored = self._entries.get(graph)
            if stored is not None:
                self._entries.move_to_end(graph)  # a hit refreshes recency, as in entry
                self._hits += 1
                if events is not None:
                    events.append("cache_hit")
                return stored
            # one in-memory miss for the mutated graph, and (below) one store
            # outcome for it, as in entry: misses == store hits + store misses
            self._misses += 1
        if self._store is not None:
            # an exact record of the mutated graph beats a replay outright
            record = self._store.load_for_graph(graph)
            if record is None:
                with self._lock:
                    self._store_misses += 1
            else:
                with self._lock:
                    self._store_hits += 1
                record.adopt_onto(graph)
                entry = CacheEntry(graph, ViewRefinement(graph))
                entry.memo.update(record.memo_entries())
                with self._lock:
                    self._admit_locked(entry)
                if events is not None:
                    events.append("cache_hit")
                return entry

        base_entry = self.entry(base_graph)
        if events is not None:
            events.append("base_hit")
        base_engine = base_entry.graph.refinement_engine()
        from ..kernel.refine import refinement_delta  # lazy, mirrors graph.py

        patched = base_entry.graph.csr().patched(result)
        graph.adopt_csr(patched)
        # the fresh entry's memo starts empty: this IS the invalidation --
        # none of the base's ψ memos survive into the derived entry
        if events is not None:
            events.append("memos_invalidated")
        engine = refinement_delta(base_engine, patched, result.node_map, result.touched)
        graph.adopt_engine(engine)
        if events is not None:
            events.append("replayed")
        entry = CacheEntry(graph, ViewRefinement(graph))
        with self._lock:
            # computing the base above may have admitted an entry for this
            # very labeling (a delta that composes back to the identity):
            # replace it -- pop, then insert, so the key becomes this graph
            # instance and a later lookup finds the entry just returned.
            # Equality is exact labeled equality, so the old entry's memos
            # answer for the same graph and carry over soundly.
            stored = self._entries.pop(graph, None)
            if stored is not None:
                self._retire_locked(stored)
                for memo_key, value in stored.memo.items():
                    entry.memo.setdefault(memo_key, value)
            self._admit_locked(entry)
        return entry

    def clear(self) -> None:
        """Drop all entries and reset the counters (the store stays attached)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._evicted_passes = 0
            self._evicted_bytes = 0
            self._store_hits = 0
            self._store_misses = 0

    # ------------------------------------------------------------------ #
    # persistent store backend
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ArtifactStore]:
        """The attached persistent artifact store, if any."""
        return self._store

    def attach_store(self, store: Optional[ArtifactStore]) -> None:
        """Back this cache with a persistent store (``None`` detaches).

        Attaching only affects *future* lookups; existing entries stay
        in memory, and each reaches the store when :meth:`persist` writes
        it through.
        """
        with self._lock:
            self._store = store

    def persist(self, entry: CacheEntry) -> bool:
        """Write-through ``entry`` to the attached store.

        Takes the entry the caller already holds (from :meth:`entry` or
        :meth:`delta_entry`) and looks nothing up in this cache, so a write
        counts no hit.  Snapshots the entry's memoised answers (feasibility,
        ψ_Z outcomes, view-class profiles) into an
        :class:`~repro.store.record.ArtifactRecord`, merges it with any
        record already stored for the exact labeled graph, and puts the
        result.  The record is a pure function of the graph and its memo,
        so a delta-replayed entry and a cold one write the same bytes.
        Returns whether bytes were written (``False`` both when no store is
        attached and when the stored record was already up to date).
        """
        store = self._store
        if store is None:
            return False
        # the record's answer sections come from entry.memo alone: a
        # delta-derived entry starts with an empty memo (its base's ψ
        # outcomes are never inherited — see delta_entry), so nothing stale
        # from the base graph can reach the store through this write
        record = ArtifactRecord.from_computed(entry.graph, memo=entry.memo)
        # merge with what the store holds for this *exact labeled graph* --
        # resolved through the same lookup the warm-start path uses, so a
        # labeling that shares its fingerprint with another graph merges
        # with its own record, never with the other graph's
        existing = store.load_for_graph(entry.graph)
        if existing is not None:
            record = record.merged_with(existing)
        return store.put(record)

    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def refinement_passes(self) -> int:
        """Total refinement passes performed by refinements this cache created.

        Includes passes of entries that have since been evicted, so the value
        is monotone: if it is unchanged after a sweep, the sweep performed no
        partition refinement at all -- every query was served from memoised
        partitions.
        """
        with self._lock:
            live = sum(entry.refinement.passes for entry in self._live_locked())
            return live + self._evicted_passes

    @property
    def evicted_bytes(self) -> int:
        """Estimated bytes released by evictions (refinements *and* CSR views)."""
        return self._evicted_bytes

    @property
    def store_hits(self) -> int:
        """In-memory misses that were served by the attached store."""
        return self._store_hits

    @property
    def store_misses(self) -> int:
        """In-memory misses the attached store could not serve either."""
        return self._store_misses

    def live_bytes(self) -> int:
        """Estimated retained footprint of all live entries (bytes)."""
        with self._lock:
            return sum(entry.estimated_bytes() for entry in self._live_locked())

    def stats(self) -> Dict[str, int]:
        """A snapshot of all counters (suitable for printing or diffing)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "currsize": len(self),
            "maxsize": self.maxsize,
            "refinement_passes": self.refinement_passes,
            "evicted_bytes": self.evicted_bytes,
            "live_bytes": self.live_bytes(),
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
        }


#: The process-wide cache used by the library's default code paths.
refinement_cache = RefinementCache()


def shared_refinement(graph: PortLabeledGraph) -> ViewRefinement:
    """The process-wide memoised :class:`ViewRefinement` of ``graph``."""
    return refinement_cache.get(graph)

