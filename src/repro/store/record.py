"""Versioned binary artifact records: everything the pipeline knows about one graph.

An :class:`ArtifactRecord` is the unit the on-disk store
(:mod:`repro.store.store`) persists -- a pure function of a port-labeled
graph and of the (deterministic) computations performed on it:

* the compact binary graph encoding (:func:`repro.portgraph.io.graph_to_bytes`)
  and its CSR arrays, so a reader rebuilds the flat kernel view without
  re-deriving it;
* the canonical view-refinement colour tables for every materialised depth
  plus the fixpoint (``stable_depth``), which
  :meth:`repro.kernel.refine.CSRPartitionRefinement.from_stored` re-installs
  so a cold process serves depth queries with **zero refinement passes**;
* feasibility and the computed ψ_Z outcomes, keyed exactly like the runner
  cache's memo (task, ``max_depth``, ``max_states``) so a warm sweep also
  skips the PPE/CPPE joint searches;
* bit-exact advice strings (the full-map advice of Theorem 2.4's universal
  scheme by default).

The byte encoding (format version 4) is canonical: unsigned-LEB128 varints
and length-prefixed UTF-8, sections in a fixed order, ψ entries and advice
sorted -- so ``encode(decode(b)) == b`` and two processes that computed the
same things about equal graphs produce identical record bytes.  That is what
lets write-through skip rewrites by byte comparison.
Version 2 appended the delta lineage section -- ``parent_fingerprint`` and
``delta_digest``, naming the base record and edit script a delta-derived
record was replayed from.  Version 3 dropped the relabeling-invariant
bucket key that versions 1 and 2 stored after the fingerprint.  Version 4
keeps the version-3 layout byte for byte but names records by the
fingerprint's 64-bit integer label chain (:mod:`repro.portgraph.labels`):
every fingerprint changed, so versions 1 to 3 no longer decode.  A store
that still decoded them would adopt an old-scheme fingerprint onto a warm
graph while a cold process computed the new one.
Volatile observations (wall times, cumulative search-statistics snapshots)
are deliberately not part of a record, whose bytes stay a pure function of
the graph and its results.

The encoder writes whole sections, not single integers: each CSR array and
the concatenated colour tables go out through one
:func:`~repro.portgraph.io.write_uvarints` call (one vectorised pass when
numpy imports), and each advice string is packed by one integer
conversion.  The bytes are exactly those of the per-value encoding, with or
without numpy; decoding still reads one varint at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..kernel.csr import CSRGraph
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
FORMAT_VERSION = 4
#: Versions :meth:`ArtifactRecord.from_bytes` accepts: only the current
#: one, since every earlier version names its record by an old-scheme
#: fingerprint.
_DECODABLE_VERSIONS = (4,)

#: One computed ψ_Z outcome: (task code, max_depth, max_states, status, value)
#: with status ``"ok"`` or ``"limited"`` (search budget exceeded).
PsiEntry = Tuple[str, Optional[int], int, str, Optional[int]]

#: One advice string: (scheme name, bit string of '0'/'1').
AdviceEntry = Tuple[str, str]


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


def _pack_bits(bits: str) -> bytes:
    """Pack a '0'/'1' string eight bits per byte, zero-padding the last byte on the right.

    One ``int``/``to_bytes`` conversion of the whole string.
    """
    if not bits:
        return b""
    padding = -len(bits) % 8
    return (int(bits, 2) << padding).to_bytes((len(bits) + padding) // 8, "big")


def _unpack_bits(payload: bytes, bit_length: int) -> str:
    """Inverse of :func:`_pack_bits`: the first ``bit_length`` bits of ``payload``.

    One ``int.from_bytes``/``format`` conversion; an empty payload is an
    empty string (``format(0, "00b")`` would be ``"0"``).
    """
    if not payload:
        return ""
    return format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")[:bit_length]


@dataclass(frozen=True)
class ArtifactRecord:
    """The persisted artifact of one graph (see the module docstring)."""

    fingerprint: str
    graph: PortLabeledGraph
    stable_depth: int
    color_tables: Tuple[Tuple[int, ...], ...]
    feasible: bool
    psi: Tuple[PsiEntry, ...]
    advice: Tuple[AdviceEntry, ...]
    #: Delta lineage (format v2): the fingerprint of the base graph this
    #: record was replayed from and the edit script's content digest; empty
    #: strings for records computed cold.  Provenance only -- every result
    #: section is a pure function of ``graph`` regardless of how it was
    #: computed (the delta path is certified byte-identical).
    parent_fingerprint: str = ""
    delta_digest: str = ""

    # ------------------------------------------------------------------ #
    # construction from live state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_computed(
        cls,
        graph: PortLabeledGraph,
        *,
        memo: Optional[Mapping[tuple, object]] = None,
        include_advice: bool = True,
        parent_fingerprint: str = "",
        delta_digest: str = "",
    ) -> "ArtifactRecord":
        """Snapshot a (possibly warm) graph into a record.

        Refines to the fixpoint if that has not happened yet; ``memo`` is the
        runner cache entry's memo dict, whose ``("psi", ...)`` and
        ``("feasible",)`` entries become the record's result sections.
        ``parent_fingerprint`` / ``delta_digest`` record delta lineage when
        the graph's tables were replayed from a base record.
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
        psi.sort(key=lambda e: (e[0], -1 if e[1] is None else e[1], e[2]))
        advice: list = []
        if include_advice:
            from ..advice.map_advice import encode_map_advice  # lazy: advice sits above store

            advice.append(("map", encode_map_advice(graph)))
        return cls(
            fingerprint=fingerprint,
            graph=graph,
            stable_depth=stable,
            color_tables=tables,
            feasible=bool(feasible),
            psi=tuple(psi),
            advice=tuple(sorted(advice)),
            parent_fingerprint=parent_fingerprint,
            delta_digest=delta_digest,
        )

    def merged_with(self, other: "ArtifactRecord") -> "ArtifactRecord":
        """Union of two records of the same *labeled* graph (ψ entries, advice).

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
        advice = {name: (name, bits) for name, bits in other.advice}
        advice.update({name: (name, bits) for name, bits in self.advice})
        merged_psi = tuple(
            sorted(psi.values(), key=lambda e: (e[0], -1 if e[1] is None else e[1], e[2]))
        )
        deeper = self if len(self.color_tables) >= len(other.color_tables) else other
        return ArtifactRecord(
            fingerprint=self.fingerprint,
            graph=self.graph,
            stable_depth=deeper.stable_depth,
            color_tables=deeper.color_tables,
            feasible=self.feasible,
            psi=merged_psi,
            advice=tuple(sorted(advice.values())),
            # lineage is provenance: keep the freshest known ancestry
            parent_fingerprint=self.parent_fingerprint or other.parent_fingerprint,
            delta_digest=self.delta_digest or other.delta_digest,
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

        Seeds the memoised fingerprint and installs the stored partitions so
        no consumer of ``graph`` ever refines; a no-op for state the instance
        already computed itself.
        """
        graph.adopt_fingerprint(self.fingerprint)
        graph.adopt_refinement_tables(self.color_tables, self.stable_depth)

    def advice_bits(self, name: str) -> Optional[str]:
        """The stored advice bit string of scheme ``name`` (or ``None``)."""
        for scheme, bits in self.advice:
            if scheme == name:
                return bits
        return None

    # ------------------------------------------------------------------ #
    # binary encoding
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        write_uvarint(out, FORMAT_VERSION)
        _write_str(out, self.fingerprint)
        out.extend(graph_to_bytes(self.graph))
        csr = self.graph.csr()
        for arr in (csr.offsets, csr.neighbors, csr.reverse_ports):
            write_uvarint(out, len(arr))
            write_uvarints(out, arr)
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
        write_uvarint(out, len(self.advice))
        for name, bits in self.advice:
            _write_str(out, name)
            write_uvarint(out, len(bits))
            packed = _pack_bits(bits)
            write_uvarint(out, len(packed))
            out.extend(packed)
        # the delta lineage section comes last
        _write_str(out, self.parent_fingerprint)
        _write_str(out, self.delta_digest)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArtifactRecord":
        if data[: len(MAGIC)] != MAGIC:
            raise ValueError("not an artifact record (bad magic)")
        offset = len(MAGIC)
        version, offset = read_uvarint(data, offset)
        if version not in _DECODABLE_VERSIONS:
            raise ValueError(f"unsupported record format version {version}")
        fingerprint, offset = _read_str(data, offset)
        graph, offset = graph_from_bytes(data, offset=offset, validate=False)
        arrays = []
        for _ in range(3):
            length, offset = read_uvarint(data, offset)
            values = []
            for _i in range(length):
                value, offset = read_uvarint(data, offset)
                values.append(value)
            arrays.append(values)
        offsets, neighbors, reverse_ports = arrays
        graph.adopt_csr(
            CSRGraph(
                graph.num_nodes,
                graph.num_edges,
                _as_int_array(offsets),
                _as_int_array(neighbors),
                _as_int_array(reverse_ports),
            )
        )
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
        feasible = bool(data[offset])
        offset += 1
        num_psi, offset = read_uvarint(data, offset)
        psi = []
        for _ in range(num_psi):
            task_code, offset = _read_str(data, offset)
            max_depth, offset = _read_optional(data, offset)
            max_states, offset = read_uvarint(data, offset)
            status = "ok" if data[offset] == 0 else "limited"
            offset += 1
            value, offset = _read_optional(data, offset)
            psi.append((task_code, max_depth, max_states, status, value))
        num_advice, offset = read_uvarint(data, offset)
        advice = []
        for _ in range(num_advice):
            name, offset = _read_str(data, offset)
            bit_length, offset = read_uvarint(data, offset)
            packed_length, offset = read_uvarint(data, offset)
            packed = data[offset : offset + packed_length]
            offset += packed_length
            advice.append((name, _unpack_bits(packed, bit_length)))
        parent_fingerprint, offset = _read_str(data, offset)
        delta_digest, offset = _read_str(data, offset)
        record = cls(
            fingerprint=fingerprint,
            graph=graph,
            stable_depth=stable_depth,
            color_tables=tuple(tables),
            feasible=feasible,
            psi=tuple(psi),
            advice=tuple(advice),
            parent_fingerprint=parent_fingerprint,
            delta_digest=delta_digest,
        )
        record.adopt_onto(graph)
        return record


def _as_int_array(values: Iterable[int]):
    from array import array

    from ..kernel.csr import INT_TYPECODE

    return array(INT_TYPECODE, values)
