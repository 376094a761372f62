"""Persistent artifact store for the election pipeline, named by graph identity.

Everything the pipeline computes -- feasibility, the four ψ_Z election
indices, refinement partitions -- is a pure function of the port-labeled
graph, so it only ever needs to be computed once *anywhere*.  This package
is the durable layer that makes that true across processes:

* :mod:`repro.store.record` -- the versioned compact-binary
  :class:`ArtifactRecord`: the graph, canonical colour tables per depth up
  to the refinement fixpoint, feasibility and the ψ_Z outcomes keyed like
  the runner cache's memo, and nothing else.  Encoding is canonical
  (``encode(decode(b)) == b``, and bytes that would not re-encode to
  themselves do not decode), which is what makes skip-identical
  write-through work and a graph's bytes independent of the path that
  computed it.
* :mod:`repro.store.store` -- the :class:`ArtifactStore` directory: one
  object per exact labeled graph, named by its identity key
  :meth:`~repro.portgraph.graph.PortLabeledGraph.cache_key` (so lookup
  needs no refinement and no index) and written atomically (temp file +
  ``os.replace``), plus a per-fingerprint alias that resolves a
  fingerprint to its one stored graph or reports it ambiguous; safe for
  concurrent readers and writers across processes, without a lock.

The runner's :class:`~repro.runner.cache.RefinementCache` reads and writes
through this store when one is attached (see
:meth:`~repro.runner.cache.RefinementCache.attach_store`), which is how the
CLI, the benchmarks and the ``repro-leader-election serve`` service all
warm-start from disk: a cold process pointed at a populated store replays a
sweep with zero refinement passes.
"""

from .hottier import DEFAULT_HOT_TIER_BYTES, HotTier
from .record import FORMAT_VERSION, ArtifactRecord
from .store import AmbiguousFingerprint, ArtifactStore

__all__ = [
    "AmbiguousFingerprint",
    "ArtifactRecord",
    "ArtifactStore",
    "DEFAULT_HOT_TIER_BYTES",
    "FORMAT_VERSION",
    "HotTier",
]
