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
from itertools import chain
from typing import Dict, Iterator, Optional, Tuple

from ..kernel import GraphKernel
from ..portgraph.graph import PortLabeledGraph
from ..store import ArtifactRecord, ArtifactStore
from ..views.refinement import ViewRefinement

__all__ = [
    "CacheEntry",
    "RefinementCache",
    "refinement_cache",
    "shared_refinement",
    "shared_kernel",
]

#: Default number of entries (exact graphs) kept by the process-wide cache.
DEFAULT_MAXSIZE = 128


class CacheEntry:
    """One cached graph: its refinement and kernel plus a memo of derived results.

    ``memo`` maps hashable query keys -- e.g. ``("psi", "PPE", max_depth,
    max_states)`` or ``("feasible",)`` -- to previously computed answers.
    Every answer memoised here is a pure function of the graph (and of the
    key's own parameters), so replaying a sweep can skip not only the
    refinement passes but also the expensive PPE/CPPE joint searches.

    ``kernel`` is the graph's :class:`~repro.kernel.GraphKernel`: the lazily
    built CSR view, block-cut tree and per-source BFS distance arrays.  It is
    cached alongside the refinement so a warm sweep skips block-cut-tree
    construction (ψ_PE) and distance precomputation (ψ_PPE/ψ_CPPE pruning)
    exactly as it skips refinement passes.
    """

    __slots__ = ("graph", "refinement", "kernel", "memo")

    def __init__(self, graph: PortLabeledGraph, refinement: ViewRefinement) -> None:
        self.graph = graph
        self.refinement = refinement
        self.kernel = GraphKernel(graph)
        self.memo: Dict[Tuple, object] = {}

    def estimated_bytes(self) -> int:
        """Rough retained footprint of this entry (bytes).

        Sums the refinement engine's per-depth state, the kernel objects
        (CSR arrays, block-cut tree, BFS distance arrays) and a flat charge
        per memo entry.  Evicting the entry releases all of it together --
        the engine and CSR view are memoised on the graph instance, whose
        only long-lived reference is this entry.
        """
        return (
            self.graph.refinement_engine().estimated_bytes()
            + self.kernel.estimated_bytes()
            + 64 * len(self.memo)
        )


class RefinementCache:
    """An LRU cache of :class:`ViewRefinement` objects, one per exact graph.

    ``maxsize`` bounds the number of entries; relabeled copies of one graph
    are distinct keys and are evicted one by one like everything else.

    The LRU bookkeeping and the counters are guarded by a lock, so lookups
    may be issued from multiple threads; the *returned* objects
    (:class:`ViewRefinement`, ``entry.memo``) are not themselves
    synchronised, so concurrent queries about the same graph at uncomputed
    depths should be serialised by the caller.  The library's own
    parallelism uses ``multiprocessing`` (one private cache per worker
    process), which avoids the issue entirely.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, *, admission: str = "always") -> None:
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
        # admission policy state (see set_admission)
        self._admission = ""
        self._probation: "OrderedDict[PortLabeledGraph, CacheEntry]" = OrderedDict()
        self._admissions = 0
        self._admission_rejects = 0
        self.set_admission(admission)

    # ------------------------------------------------------------------ #
    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def admission(self) -> str:
        return self._admission

    def set_admission(self, policy: str) -> str:
        """Select the admission policy; returns the previous one.

        ``"always"`` (the default) admits every miss straight into the main
        LRU -- the historical behaviour, right for sweeps that enumerate
        distinct graphs once each.  ``"second-touch"`` is frequency-
        observing, for zipf-shaped service traffic: a first-touch entry
        lands in a small probation FIFO and is promoted to the main LRU
        only when a *second request* asks for it, so a stream of one-hit
        wonders churns the probation ring instead of evicting hot
        residents.  Internal lookups (the write-through of
        :meth:`persist`) deliberately do not count as request touches.
        """
        if policy not in ("always", "second-touch"):
            raise ValueError(f"unknown admission policy: {policy!r}")
        with self._lock:
            previous, self._admission = self._admission, policy
        return previous

    def _probation_capacity(self) -> int:
        # big enough that an entry survives until its own write-through,
        # small enough that scan traffic cannot hold meaningful memory
        return min(8, self._maxsize)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry(self, graph: PortLabeledGraph) -> CacheEntry:
        """The cache entry of ``graph`` (created on first request).

        On a hit by an equal but distinct instance, ``graph`` adopts what the
        cached instance has already computed (CSR view, stable engine,
        fingerprint; :meth:`~repro.portgraph.graph.PortLabeledGraph.adopt_from`),
        as a store hit adopts the record's fingerprint, so the caller's own
        later ``graph.fingerprint()`` refines nothing outside the ledger.
        Nothing is refined under the lock.

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
        return self._entry(graph, request=True)

    def _entry(self, graph: PortLabeledGraph, *, request: bool) -> CacheEntry:
        hash(graph)  # memoised on the instance: pay the O(n + m) once, unlocked
        with self._lock:
            stored = self._entries.get(graph)
            if stored is not None:
                self._entries.move_to_end(graph)
                self._hits += 1
                graph.adopt_from(stored.graph)
                return stored
            stored = self._probation.get(graph)
            if stored is not None:
                self._hits += 1
                graph.adopt_from(stored.graph)
                if request:
                    # second observed request: promote to the main LRU
                    del self._probation[graph]
                    self._admit_locked(stored)
                    self._admissions += 1
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
            if self._admission == "second-touch":
                self._probation[graph] = entry
                while len(self._probation) > self._probation_capacity():
                    _graph, rejected = self._probation.popitem(last=False)
                    self._admission_rejects += 1
                    self._retire_locked(rejected)
            else:
                self._admit_locked(entry)
            return entry

    def _admit_locked(self, entry: CacheEntry) -> None:
        """Insert ``entry`` into the main LRU and evict down to ``maxsize``.

        An equal resident is popped first, so the key is always the entry's
        own graph instance (a plain assignment would keep the old key object,
        and with it the old instance's engine and CSR view).
        """
        previous = self._entries.pop(entry.graph, None)
        if previous is not None:
            self._retire_locked(previous)
        self._entries[entry.graph] = entry
        while len(self._entries) > self._maxsize:
            # the entry's kernel objects (CSR, block-cut tree, BFS distance
            # arrays) go with it, accounted in evicted_bytes
            _graph, evicted = self._entries.popitem(last=False)
            self._evictions += 1
            self._retire_locked(evicted)

    def _retire_locked(self, entry: CacheEntry) -> None:
        """Fold a dropped entry into the counters, so ``refinement_passes``
        stays monotone across evictions, rejects and replacements."""
        self._evicted_passes += entry.refinement.passes
        self._evicted_bytes += entry.estimated_bytes()

    def _live_locked(self) -> Iterator[CacheEntry]:
        return chain(self._entries.values(), self._probation.values())

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
        the CSR view is patched (:meth:`~repro.kernel.csr.CSRGraph.patched`),
        the partitions are replayed over the dirty ball
        (:func:`~repro.kernel.refine.refinement_delta`) and the kernel memos
        are carried selectively (:meth:`~repro.kernel.GraphKernel.derived`).
        If the exact mutated graph is already cached (memory or store), that
        entry wins and no replay happens.

        **Memo invalidation.**  A derived entry never inherits the base's
        ψ memos: every ψ index is supported by *all* classes of the graph,
        and a non-empty delta dirties at least one, so inheriting them is
        exactly the staleness the write-through regression test pins down.
        The one class-local survivor is ``("feasible",)`` — a pure function
        of the fixpoint partition — which carries over only when the replay
        proves the partition unchanged (same handles, byte-equal canonical
        tables).

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
        hash(graph)  # as in _entry: memoise the hash outside the lock
        with self._lock:
            stored = self._entries.get(graph)
            if stored is not None:
                self._entries.move_to_end(graph)  # a hit refreshes recency, as in _entry
            else:
                stored = self._probation.get(graph)
            if stored is not None:
                self._hits += 1
                if events is not None:
                    events.append("cache_hit")
                return stored
            # one in-memory miss for the mutated graph, and (below) one store
            # outcome for it, as in _entry: misses == store hits + store misses
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

        base_entry = self._entry(base_graph, request=False)
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
        entry.kernel = GraphKernel.derived(
            graph, base_entry.kernel, topology_changed=result.topology_changed
        )
        base_feasible = base_entry.memo.get(("feasible",))
        if (
            base_feasible is not None
            and not result.renamed
            and len(result.node_map) == base_graph.num_nodes
            and engine.class_counts == base_engine.class_counts
            and engine.canonical_tables() == base_engine.canonical_tables()
        ):
            entry.memo[("feasible",)] = base_feasible
        with self._lock:
            # computing the base above may have admitted an entry for this
            # very labeling (a delta that composes back to the identity):
            # replace it -- pop, then insert, so the key becomes this graph
            # instance and a later lookup (persist() in particular) finds
            # the entry just returned.  Equality is exact labeled equality,
            # so the old entry's memos answer for the same graph and carry
            # over soundly.
            for table in (self._entries, self._probation):
                stored = table.pop(graph, None)
                if stored is not None:
                    self._retire_locked(stored)
                    for memo_key, value in stored.memo.items():
                        entry.memo.setdefault(memo_key, value)
            self._admit_locked(entry)
        return entry

    def clear(self) -> None:
        """Drop all entries and reset the counters (the store and the
        admission policy stay as configured)."""
        with self._lock:
            self._entries.clear()
            self._probation.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._evicted_passes = 0
            self._evicted_bytes = 0
            self._store_hits = 0
            self._store_misses = 0
            self._admissions = 0
            self._admission_rejects = 0

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

    def persist(self, graph: PortLabeledGraph) -> bool:
        """Write-through the entry of ``graph`` to the attached store.

        Ensures the entry exists (computing it if needed), snapshots its
        memoised answers (feasibility, ψ_Z outcomes, view-class profiles)
        into an :class:`~repro.store.record.ArtifactRecord`, merges it
        with any record already stored for the exact labeled graph, and
        puts the result.  The record is a pure function of the graph and
        its memo, so a delta-replayed entry and a cold one write the same
        bytes.  Returns whether bytes were written (``False`` both when no
        store is attached and when the stored record was already up to
        date).
        """
        store = self._store
        if store is None:
            return False
        # an internal lookup, not a request: under "second-touch" admission
        # the write-through of a freshly computed entry must not count as
        # the promoting touch, or every one-hit item would self-admit
        entry = self._entry(graph, request=False)
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
        """Estimated bytes released by evictions (refinements *and* kernels)."""
        return self._evicted_bytes

    @property
    def store_hits(self) -> int:
        """In-memory misses that were served by the attached store."""
        return self._store_hits

    @property
    def store_misses(self) -> int:
        """In-memory misses the attached store could not serve either."""
        return self._store_misses

    @property
    def admissions(self) -> int:
        """Probation entries promoted to the main LRU by a second request."""
        return self._admissions

    @property
    def admission_rejects(self) -> int:
        """Probation entries dropped without ever earning a second request."""
        return self._admission_rejects

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
            "probation": len(self._probation),
            "admissions": self.admissions,
            "admission_rejects": self.admission_rejects,
        }


#: The process-wide cache used by the library's default code paths.
refinement_cache = RefinementCache()


def shared_refinement(graph: PortLabeledGraph) -> ViewRefinement:
    """The process-wide memoised :class:`ViewRefinement` of ``graph``."""
    return refinement_cache.get(graph)


def shared_kernel(graph: PortLabeledGraph) -> GraphKernel:
    """The process-wide memoised :class:`~repro.kernel.GraphKernel` of ``graph``.

    Lives on the same cache entry as the refinement, so one lookup warms both
    and eviction drops both together.
    """
    return refinement_cache.entry(graph).kernel
