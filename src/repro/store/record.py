"""Versioned binary artifact records: what a reader of one graph uses.

An :class:`ArtifactRecord` is the unit the on-disk store
(:mod:`repro.store.store`) persists -- a pure function of a port-labeled
graph and of the (deterministic) computations performed on it:

* the compact binary graph encoding (:func:`repro.portgraph.io.graph_to_bytes`);
* the canonical view-refinement colour tables for every materialised depth
  plus the fixpoint (``stable_depth``), which
  :meth:`repro.kernel.refine.CSRPartitionRefinement.from_stored` re-installs
  so a cold process serves depth queries with **zero refinement passes**;
* feasibility and the computed ψ_Z outcomes, keyed exactly like the runner
  cache's memo (task, ``max_depth``, ``max_states``) so a warm sweep also
  skips the PPE/CPPE joint searches.

That is, the view partitions an anonymous node can learn plus the ψ_Z
indices of the four shades.  Nothing else is stored: the CSR view is
rebuilt from the graph when first asked for, and advice strings are
encoded from the graph when a response asks for them.

The byte encoding (format version 5) is canonical: unsigned-LEB128 varints
and length-prefixed UTF-8, sections in a fixed order, ψ entries sorted -- so
``encode(decode(b)) == b``, and :meth:`ArtifactRecord.from_bytes` refuses
bytes that would not re-encode to themselves (a flag byte other than 0 or
1, bytes after the last section).  Two processes that computed the same
things about equal graphs produce identical record bytes, whether the
tables came from a cold refinement or a delta replay.  That is what lets
write-through skip rewrites by byte comparison.

Version 5 dropped three sections of version 4 that no reader used: the CSR
arrays (decoding them took longer than rebuilding them), the map advice,
and the delta lineage (the base fingerprint and edit digest of a replayed
record, which made a graph's bytes depend on the path that computed it).
Only the current version decodes; the store quarantines an older object on
first lookup and writes the recomputed record in its place.  Volatile
observations (wall times, cumulative search-statistics snapshots) are
deliberately not part of a record either.

The encoder writes whole sections, not single integers: the concatenated
colour tables go out through one :func:`~repro.portgraph.io.write_uvarints`
call (one vectorised pass when numpy imports).  The bytes are exactly
those of the per-value encoding, with or without numpy; decoding still
reads one varint at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Mapping, Optional, Tuple

from ..portgraph.graph import PortLabeledGraph
from ..portgraph.io import (
    graph_from_bytes,
    graph_to_bytes,
    read_uvarint,
    write_uvarint,
    write_uvarints,
)

__all__ = ["ArtifactRecord", "FORMAT_VERSION", "MAGIC"]

MAGIC = b"RPLE"
#: The only version :meth:`ArtifactRecord.from_bytes` accepts.
FORMAT_VERSION = 5

#: One computed ψ_Z outcome: (task code, max_depth, max_states, status, value)
#: with status ``"ok"`` or ``"limited"`` (search budget exceeded).
PsiEntry = Tuple[str, Optional[int], int, str, Optional[int]]


def _psi_order(entry: PsiEntry) -> tuple:
    return (entry[0], -1 if entry[1] is None else entry[1], entry[2])


def _write_str(out: bytearray, text: str) -> None:
    payload = text.encode("utf-8")
    write_uvarint(out, len(payload))
    out.extend(payload)


def _read_str(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = read_uvarint(data, offset)
    return data[offset : offset + length].decode("utf-8"), offset + length


def _write_optional(out: bytearray, value: Optional[int]) -> None:
    # None <-> 0, v <-> v + 1 (values here are small non-negative ints)
    write_uvarint(out, 0 if value is None else value + 1)


def _read_optional(data: bytes, offset: int) -> Tuple[Optional[int], int]:
    raw, offset = read_uvarint(data, offset)
    return (None if raw == 0 else raw - 1), offset


def _read_flag(data: bytes, offset: int) -> Tuple[bool, int]:
    """A one-byte flag; any byte but 0 or 1 would not re-encode to itself."""
    flag = data[offset]
    if flag > 1:
        raise ValueError(f"flag byte {flag} at offset {offset} is neither 0 nor 1")
    return flag == 1, offset + 1


@dataclass(frozen=True)
class ArtifactRecord:
    """The persisted artifact of one graph (see the module docstring)."""

    fingerprint: str
    graph: PortLabeledGraph
    stable_depth: int
    color_tables: Tuple[Tuple[int, ...], ...]
    feasible: bool
    psi: Tuple[PsiEntry, ...]

    # ------------------------------------------------------------------ #
    # construction from live state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_computed(
        cls, graph: PortLabeledGraph, *, memo: Optional[Mapping[tuple, object]] = None
    ) -> "ArtifactRecord":
        """Snapshot a (possibly warm) graph into a record.

        Refines to the fixpoint if that has not happened yet; ``memo`` is the
        runner cache entry's memo dict, whose ``("psi", ...)`` and
        ``("feasible",)`` entries become the record's result sections.
        """
        fingerprint = graph.fingerprint()
        engine = graph.refinement_engine()
        stable = engine.ensure_stable()
        tables = tuple(tuple(engine.colors_at(depth)) for depth in range(engine.computed_depth + 1))
        memo = memo or {}
        feasible = memo.get(("feasible",))
        if feasible is None:
            feasible = engine.num_classes_at(stable) == graph.num_nodes
        psi = []
        for key, outcome in memo.items():
            if key and key[0] == "psi":
                _tag, task_code, max_depth, max_states = key
                status, value = outcome
                psi.append((task_code, max_depth, max_states, status, value))
        return cls(
            fingerprint=fingerprint,
            graph=graph,
            stable_depth=stable,
            color_tables=tables,
            feasible=bool(feasible),
            psi=tuple(sorted(psi, key=_psi_order)),
        )

    def merged_with(self, other: "ArtifactRecord") -> "ArtifactRecord":
        """Union of the ψ entries of two records of the same *labeled* graph.

        Both inputs are pure functions of the graph, so entries with equal
        keys are interchangeable; the union simply accumulates what different
        sweeps computed under different search parameters.  Equal
        fingerprints are **not** sufficient: the fingerprint is
        relabeling-invariant (and only as discriminating as colour
        refinement), while colour tables and ψ memos are tied to the node
        numbering -- merging across labelings would graft one labeling's
        node-indexed tables onto the other's graph.
        """
        if other.fingerprint != self.fingerprint or other.graph != self.graph:
            raise ValueError("cannot merge records of different labeled graphs")
        psi = {entry[:3]: entry for entry in other.psi}
        psi.update({entry[:3]: entry for entry in self.psi})
        deeper = self if len(self.color_tables) >= len(other.color_tables) else other
        return ArtifactRecord(
            fingerprint=self.fingerprint,
            graph=self.graph,
            stable_depth=deeper.stable_depth,
            color_tables=deeper.color_tables,
            feasible=self.feasible,
            psi=tuple(sorted(psi.values(), key=_psi_order)),
        )

    # ------------------------------------------------------------------ #
    # restoration onto live objects
    # ------------------------------------------------------------------ #
    def memo_entries(self) -> Dict[tuple, object]:
        """The runner-cache memo dict this record warms (feasibility + ψ)."""
        memo: Dict[tuple, object] = {("feasible",): self.feasible}
        for task_code, max_depth, max_states, status, value in self.psi:
            memo[("psi", task_code, max_depth, max_states)] = (status, value)
        return memo

    def adopt_onto(self, graph: PortLabeledGraph) -> None:
        """Warm-start ``graph`` (an equal labeled graph) from this record.

        Seeds the memoised fingerprint and installs the stored partitions
        (over the graph's CSR view, built here if it was not yet) so no
        consumer of ``graph`` ever refines; a no-op for state the instance
        already computed itself.
        """
        graph.adopt_fingerprint(self.fingerprint)
        graph.adopt_refinement_tables(self.color_tables, self.stable_depth)

    # ------------------------------------------------------------------ #
    # binary encoding
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        write_uvarint(out, FORMAT_VERSION)
        _write_str(out, self.fingerprint)
        out.extend(graph_to_bytes(self.graph))
        write_uvarint(out, self.stable_depth)
        write_uvarint(out, len(self.color_tables))
        write_uvarints(out, list(chain.from_iterable(self.color_tables)))
        out.append(1 if self.feasible else 0)
        write_uvarint(out, len(self.psi))
        for task_code, max_depth, max_states, status, value in self.psi:
            _write_str(out, task_code)
            _write_optional(out, max_depth)
            write_uvarint(out, max_states)
            out.append(0 if status == "ok" else 1)
            _write_optional(out, value)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArtifactRecord":
        if data[: len(MAGIC)] != MAGIC:
            raise ValueError("not an artifact record (bad magic)")
        offset = len(MAGIC)
        version, offset = read_uvarint(data, offset)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported record format version {version}")
        fingerprint, offset = _read_str(data, offset)
        graph, offset = graph_from_bytes(data, offset=offset, validate=False)
        stable_depth, offset = read_uvarint(data, offset)
        num_tables, offset = read_uvarint(data, offset)
        n = graph.num_nodes
        tables = []
        for _ in range(num_tables):
            table = []
            for _v in range(n):
                color, offset = read_uvarint(data, offset)
                table.append(color)
            tables.append(tuple(table))
        feasible, offset = _read_flag(data, offset)
        num_psi, offset = read_uvarint(data, offset)
        psi = []
        for _ in range(num_psi):
            task_code, offset = _read_str(data, offset)
            max_depth, offset = _read_optional(data, offset)
            max_states, offset = read_uvarint(data, offset)
            limited, offset = _read_flag(data, offset)
            value, offset = _read_optional(data, offset)
            psi.append((task_code, max_depth, max_states, "limited" if limited else "ok", value))
        if offset != len(data):
            raise ValueError(f"record of {len(data)} bytes ends its last section at {offset}")
        record = cls(
            fingerprint=fingerprint,
            graph=graph,
            stable_depth=stable_depth,
            color_tables=tuple(tables),
            feasible=feasible,
            psi=tuple(psi),
        )
        record.adopt_onto(graph)
        return record
