"""Versioned binary artifact records: the answers computed about one graph.

An :class:`ArtifactRecord` is the unit the on-disk store
(:mod:`repro.store.store`) persists -- a pure function of a port-labeled
graph and of the (deterministic) computations performed on it:

* the compact binary graph encoding (:func:`repro.portgraph.io.graph_to_bytes`);
* feasibility and the computed ψ_Z outcomes, keyed exactly like the runner
  cache's memo (task, ``max_depth``, ``max_states``), so a warm sweep skips
  the PPE joint searches;
* the sweep's view-class profile answers (the number of classes and of
  nodes with a unique view at a depth), keyed like the memo's
  ``("profile", depth)`` entries.

That is, the paper's answers about the graph, and nothing per depth.  A
store hit seeds the fingerprint and the memo; a query the record does not
answer refines the graph from scratch, which costs less than decoding
stored partitions did.  The CSR view is rebuilt from the graph when first
asked for, and advice strings are encoded from the graph when a response
asks for them.

The byte encoding (format version 6) is canonical: unsigned-LEB128 varints
and length-prefixed UTF-8, sections in a fixed order, ψ and profile entries
one per key and sorted -- so ``encode(decode(b)) == b``, and
:meth:`ArtifactRecord.from_bytes` re-encodes what it decoded and refuses
bytes that differ (an overlong varint, a flag byte other than 0 or 1,
entries out of order or repeated, edges out of canonical order, bytes after
the last section).  Two processes that computed the same things about equal
graphs produce identical record bytes, whether the graph came from a cold
refinement or a delta replay.  That is what lets write-through skip
rewrites by byte comparison.

Version 6 dropped the colour tables of version 5 (one canonical table per
depth up to the refinement fixpoint): they were most of the bytes written
and took longer to decode than a fresh refinement takes.  Only the current
version decodes; the store quarantines an older object on first lookup and
writes the recomputed record in its place.  Volatile observations (wall
times, cumulative search-statistics snapshots) are deliberately not part of
a record either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..portgraph.graph import PortLabeledGraph
from ..portgraph.io import graph_from_bytes, graph_to_bytes, read_uvarint, write_uvarint

__all__ = ["ArtifactRecord", "FORMAT_VERSION", "MAGIC"]

MAGIC = b"RPLE"
#: The only version :meth:`ArtifactRecord.from_bytes` accepts.
FORMAT_VERSION = 6

#: One computed ψ_Z outcome: (task code, max_depth, max_states, status, value)
#: with status ``"ok"`` or ``"limited"`` (search budget exceeded).
PsiEntry = Tuple[str, Optional[int], int, str, Optional[int]]
#: One view-class profile answer: (depth, number of classes, unique-view nodes).
ProfileEntry = Tuple[int, int, int]


def _psi_order(entry: PsiEntry) -> tuple:
    return (entry[0], -1 if entry[1] is None else entry[1], entry[2])


def _entries(
    psi: Iterable[PsiEntry], profile: Iterable[ProfileEntry]
) -> Tuple[Tuple[PsiEntry, ...], Tuple[ProfileEntry, ...]]:
    """ψ and profile entries as a record holds them: one per key, the last
    one given winning, sorted."""
    psi_by_key = {entry[:3]: entry for entry in psi}
    profile_by_depth = {entry[0]: entry for entry in profile}
    psi_entries = tuple(sorted(psi_by_key.values(), key=_psi_order))
    return psi_entries, tuple(sorted(profile_by_depth.values()))


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


@dataclass(frozen=True)
class ArtifactRecord:
    """The persisted artifact of one graph (see the module docstring)."""

    fingerprint: str
    graph: PortLabeledGraph
    feasible: bool
    psi: Tuple[PsiEntry, ...]
    profile: Tuple[ProfileEntry, ...]

    # ------------------------------------------------------------------ #
    # construction from live state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_computed(
        cls, graph: PortLabeledGraph, *, memo: Optional[Mapping[tuple, object]] = None
    ) -> "ArtifactRecord":
        """Snapshot a (possibly warm) graph into a record.

        ``memo`` is the runner cache entry's memo dict, whose
        ``("feasible",)``, ``("psi", ...)`` and ``("profile", depth)``
        entries become the record's answer sections; the graph is refined
        to the fixpoint only when the memo lacks feasibility.
        """
        memo = memo or {}
        feasible = memo.get(("feasible",))
        if feasible is None:
            engine = graph.refinement_engine()
            feasible = engine.num_classes_at(engine.ensure_stable()) == graph.num_nodes
        psi, profile = [], []
        for key, outcome in memo.items():
            if key[0] == "psi":
                psi.append((*key[1:], *outcome))
            elif key[0] == "profile":
                profile.append((key[1], *outcome))
        psi_entries, profile_entries = _entries(psi, profile)
        return cls(
            fingerprint=graph.fingerprint(),
            graph=graph,
            feasible=bool(feasible),
            psi=psi_entries,
            profile=profile_entries,
        )

    def merged_with(self, other: "ArtifactRecord") -> "ArtifactRecord":
        """Union of the ψ and profile entries of two records of the same
        *labeled* graph.

        Both inputs are pure functions of the graph, so entries with equal
        keys are interchangeable; the union simply accumulates what different
        sweeps computed under different search parameters.  Equal
        fingerprints are **not** sufficient: the fingerprint is only as
        discriminating as colour refinement, so different graphs (a torus
        and a twisted torus of one size) can share one.
        """
        if other.fingerprint != self.fingerprint or other.graph != self.graph:
            raise ValueError("cannot merge records of different labeled graphs")
        psi, profile = _entries(chain(other.psi, self.psi), chain(other.profile, self.profile))
        return ArtifactRecord(
            fingerprint=self.fingerprint,
            graph=self.graph,
            feasible=self.feasible,
            psi=psi,
            profile=profile,
        )

    # ------------------------------------------------------------------ #
    # restoration onto live objects
    # ------------------------------------------------------------------ #
    def memo_entries(self) -> Dict[tuple, object]:
        """The runner-cache memo dict this record warms (feasibility, ψ, profiles)."""
        memo: Dict[tuple, object] = {("feasible",): self.feasible}
        for task_code, max_depth, max_states, status, value in self.psi:
            memo[("psi", task_code, max_depth, max_states)] = (status, value)
        for depth, classes, unique in self.profile:
            memo[("profile", depth)] = (classes, unique)
        return memo

    def adopt_onto(self, graph: PortLabeledGraph) -> None:
        """Seed ``graph`` (an equal labeled graph) with the stored fingerprint,
        so naming it costs no refinement."""
        graph.adopt_fingerprint(self.fingerprint)

    # ------------------------------------------------------------------ #
    # binary encoding
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        write_uvarint(out, FORMAT_VERSION)
        _write_str(out, self.fingerprint)
        out.extend(graph_to_bytes(self.graph))
        out.append(1 if self.feasible else 0)
        write_uvarint(out, len(self.psi))
        for task_code, max_depth, max_states, status, value in self.psi:
            _write_str(out, task_code)
            _write_optional(out, max_depth)
            write_uvarint(out, max_states)
            out.append(0 if status == "ok" else 1)
            _write_optional(out, value)
        write_uvarint(out, len(self.profile))
        for entry in self.profile:
            for value in entry:
                write_uvarint(out, value)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArtifactRecord":
        """Decode a record; ``ValueError`` unless ``data`` is exactly the
        encoding of what it decodes to (``IndexError`` on a truncated flag).

        ``data`` may be an ``mmap``: the check compares through a
        ``memoryview`` released before returning, and every decoded value is
        a new object, so nothing keeps a view into the buffer.
        """
        if data[: len(MAGIC)] != MAGIC:
            raise ValueError("not an artifact record (bad magic)")
        offset = len(MAGIC)
        version, offset = read_uvarint(data, offset)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported record format version {version}")
        fingerprint, offset = _read_str(data, offset)
        graph, offset = graph_from_bytes(data, offset=offset, validate=False)
        feasible = data[offset] == 1
        num_psi, offset = read_uvarint(data, offset + 1)
        psi = []
        for _ in range(num_psi):
            task_code, offset = _read_str(data, offset)
            max_depth, offset = _read_optional(data, offset)
            max_states, offset = read_uvarint(data, offset)
            limited = data[offset] != 0
            value, offset = _read_optional(data, offset + 1)
            psi.append((task_code, max_depth, max_states, "limited" if limited else "ok", value))
        num_profile, offset = read_uvarint(data, offset)
        profile = []
        for _ in range(num_profile):
            depth, offset = read_uvarint(data, offset)
            classes, offset = read_uvarint(data, offset)
            unique, offset = read_uvarint(data, offset)
            profile.append((depth, classes, unique))
        psi_entries, profile_entries = _entries(psi, profile)
        record = cls(
            fingerprint=fingerprint,
            graph=graph,
            feasible=feasible,
            psi=psi_entries,
            profile=profile_entries,
        )
        with memoryview(data) as view:
            canonical = view == record.to_bytes()
        if not canonical:
            raise ValueError("record bytes are not the canonical encoding of what they decode to")
        record.adopt_onto(graph)
        return record
