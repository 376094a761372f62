"""Tests for the persistent artifact store (binary records, disk layout, cache integration)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task
from repro.families import build_gdk_member
from repro.kernel import build_csr, numpy_available, use_backend
from repro.portgraph import generators
from repro.portgraph.io import graph_from_bytes, graph_to_bytes, graph_to_dict, write_uvarint
from repro.runner import (
    ExperimentRunner,
    GraphSpec,
    RefinementCache,
    SweepSpec,
    evaluate_graph,
    refinement_cache,
)
from repro.store import AmbiguousFingerprint, ArtifactRecord, ArtifactStore
from repro.store.record import FORMAT_VERSION, MAGIC


@pytest.fixture(autouse=True)
def _detached_process_cache():
    """Keep the process-wide cache store-free and empty around every test."""
    refinement_cache.attach_store(None)
    refinement_cache.clear()
    yield
    refinement_cache.attach_store(None)
    refinement_cache.clear()


def _sample_graphs():
    return [
        generators.three_node_line(),
        generators.asymmetric_cycle(7),
        generators.star_graph(5),
        generators.hypercube_graph(3),
        generators.random_connected_graph(9, extra_edges=4, seed=2),
        build_gdk_member(4, 1, 2).graph,
    ]


def _computed_record(graph, *, tasks=("S", "PE")):
    """A record carrying real ψ memo entries, produced the way the runner does."""
    sweep = SweepSpec.make((), tasks=[Task(code) for code in tasks])
    evaluate_graph(graph, sweep)
    entry = refinement_cache.entry(graph)
    return ArtifactRecord.from_computed(graph, memo=entry.memo)


def _sections(record, *, node_count=None, edges=None, psi=None):
    """``record``'s bytes written section by section, one varint at a time:
    the layout a reader decodes.  ``node_count`` (the raw bytes of the
    graph's ``n``), ``edges`` and ``psi`` replace what the record holds."""
    graph = record.graph
    out = bytearray(MAGIC)
    write_uvarint(out, FORMAT_VERSION)
    write_uvarint(out, len(record.fingerprint))
    out += record.fingerprint.encode("ascii")
    name = graph.name.encode("utf-8")
    write_uvarint(out, len(name))
    out += name
    if node_count is None:
        write_uvarint(out, graph.num_nodes)
    else:
        out += node_count
    edges = list(graph.edges()) if edges is None else edges
    write_uvarint(out, len(edges))
    for edge in edges:
        for value in edge:
            write_uvarint(out, value)
    out.append(1 if record.feasible else 0)
    psi = record.psi if psi is None else psi
    write_uvarint(out, len(psi))
    for task, max_depth, max_states, status, value in psi:
        write_uvarint(out, len(task))
        out += task.encode("utf-8")
        write_uvarint(out, 0 if max_depth is None else max_depth + 1)
        write_uvarint(out, max_states)
        out.append(0 if status == "ok" else 1)
        write_uvarint(out, 0 if value is None else value + 1)
    write_uvarint(out, len(record.profile))
    for entry in record.profile:
        for value in entry:
            write_uvarint(out, value)
    return bytes(out)


#: Ways to make record bytes that would not re-encode to themselves.
NON_CANONICAL = [
    "trailing-bytes",
    "feasibility-flag",
    "psi-status-flag",
    "overlong-node-count",
    "psi-swapped",
    "psi-duplicated",
    "edges-out-of-order",
]


def _non_canonical(record, kind):
    """``record``'s bytes with one non-canonical change of ``kind``."""
    assert _sections(record) == record.to_bytes()
    if kind == "overlong-node-count":  # n as two bytes: 0x80 | n, then 0x00
        assert record.graph.num_nodes < 0x80
        return _sections(record, node_count=bytes([0x80 | record.graph.num_nodes, 0]))
    if kind == "psi-swapped":
        assert len(record.psi) >= 2
        return _sections(record, psi=record.psi[::-1])
    if kind == "psi-duplicated":
        return _sections(record, psi=record.psi + record.psi[:1])
    if kind == "edges-out-of-order":
        edges = list(record.graph.edges())
        return _sections(record, edges=[edges[1], edges[0], *edges[2:]])
    payload = bytearray(record.to_bytes())
    if kind == "trailing-bytes":
        return bytes(payload) + b"\x00" * 8
    # the ψ count, right after the feasibility flag, is the first byte that
    # differs from the record without ψ entries
    bare = dataclasses.replace(record, psi=()).to_bytes()
    count = next(i for i, (byte, other) in enumerate(zip(payload, bare)) if byte != other)
    if kind == "feasibility-flag":
        offset = count - 1
    else:  # the first ψ entry: task, max_depth (None), max_states, status flag
        task, max_depth, max_states, _status, _value = record.psi[0]
        assert max_depth is None
        states = bytearray()
        write_uvarint(states, max_states)
        offset = count + 1 + (1 + len(task)) + 1 + len(states)
    assert payload[offset] in (0, 1)
    payload[offset] = 2
    return bytes(payload)


class TestBinaryGraphEncoding:
    def test_round_trip_exact_and_byte_identical(self):
        for graph in _sample_graphs():
            payload = graph_to_bytes(graph)
            decoded, consumed = graph_from_bytes(payload)
            assert consumed == len(payload)
            assert decoded == graph
            assert decoded.name == graph.name
            assert graph_to_bytes(decoded) == payload

    def test_embedded_offset_parsing(self):
        graph = generators.asymmetric_cycle(6)
        payload = b"prefix" + graph_to_bytes(graph) + b"suffix"
        decoded, consumed = graph_from_bytes(payload, offset=6)
        assert decoded == graph
        assert payload[consumed:] == b"suffix"

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_round_trip_property(self, n, extra, seed):
        graph = generators.random_connected_graph(n, extra_edges=extra, seed=seed)
        decoded, _ = graph_from_bytes(graph_to_bytes(graph))
        assert decoded == graph


class TestArtifactRecord:
    def test_encode_decode_byte_identical(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for graph in _sample_graphs():
            record = _computed_record(graph)
            payload = record.to_bytes()
            decoded = ArtifactRecord.from_bytes(payload)
            assert decoded.to_bytes() == payload
            assert decoded.graph == graph
            assert decoded.fingerprint == graph.fingerprint()
            # the record carries no key of its own: the store names its file
            # by the graph's identity key
            store.put(decoded)
            assert store.get_bytes(graph.cache_key()) == payload
            assert decoded.psi == record.psi
            refinement_cache.clear()

    def test_memo_entries_round_trip(self):
        graph = generators.asymmetric_cycle(7)
        sweep = SweepSpec.make((), tasks=[Task("S"), Task("PPE")], profile_depths=(2, 0))
        evaluate_graph(graph, sweep)
        computed = refinement_cache.entry(graph).memo
        record = ArtifactRecord.from_computed(graph, memo=computed)
        assert [entry[0] for entry in record.profile] == [0, 2]
        memo = ArtifactRecord.from_bytes(record.to_bytes()).memo_entries()
        assert memo == computed
        assert memo[("feasible",)] is True
        assert memo[("psi", "S", None, 200_000)] == ("ok", 1)
        assert memo[("psi", "PPE", None, 200_000)] == ("ok", 3)
        assert memo[("profile", 0)] == (1, 0)  # a cycle is 2-regular: one class at depth 0

    def test_merged_with_unions_psi_entries(self):
        graph = generators.asymmetric_cycle(7)
        first = _computed_record(graph, tasks=("S",))
        refinement_cache.clear()
        second = _computed_record(graph, tasks=("PE",))
        merged = first.merged_with(second)
        codes = {entry[0] for entry in merged.psi}
        assert codes == {"S", "PE"}
        refinement_cache.clear()
        evaluate_graph(graph, SweepSpec.make((), tasks=[], profile_depths=(1,)))
        profiled = ArtifactRecord.from_computed(graph, memo=refinement_cache.entry(graph).memo)
        both = merged.merged_with(profiled).merged_with(profiled)
        assert both.psi == merged.psi and both.profile == profiled.profile != ()

    def test_merge_rejects_different_graphs(self):
        records = [_computed_record(g) for g in (_sample_graphs()[0], _sample_graphs()[1])]
        with pytest.raises(ValueError):
            records[0].merged_with(records[1])

    @pytest.mark.parametrize("kind", NON_CANONICAL)
    def test_bytes_that_would_not_re_encode_to_themselves_do_not_decode(self, kind):
        """Decoding is the inverse of a canonical encoding: bytes after the
        last section, a flag byte other than 0 or 1, an overlong varint, ψ
        entries out of order or repeated, or edges out of canonical order
        would decode to a record whose bytes differ from the ones read."""
        record = _computed_record(generators.asymmetric_cycle(7))
        with pytest.raises(ValueError):
            ArtifactRecord.from_bytes(_non_canonical(record, kind))

    def test_a_record_holds_exactly_the_sections_a_reader_uses(self):
        """Magic, version, fingerprint, graph, feasibility, ψ entries and
        profile entries -- nothing per depth, and not one byte more."""
        assert FORMAT_VERSION == 6
        graph = generators.asymmetric_cycle(7)
        evaluate_graph(graph, SweepSpec.make((), tasks=[Task("S")], profile_depths=(1,)))
        record = ArtifactRecord.from_computed(graph, memo=refinement_cache.entry(graph).memo)
        ((task, max_depth, max_states, status, value),) = record.psi
        assert (task, max_depth, status) == ("S", None, "ok")
        ((depth, classes, unique),) = record.profile
        assert depth == 1 and unique <= classes < 0x80
        expected = bytearray(MAGIC + bytes([FORMAT_VERSION, 64]))
        expected += record.fingerprint.encode("ascii") + graph_to_bytes(graph)
        expected += bytes([1, 1, 1]) + b"S" + bytes([0])  # feasible; one entry, "S", depth None
        write_uvarint(expected, max_states)
        expected += bytes([0, value + 1])  # status ok, value
        expected += bytes([1, depth, classes, unique])  # one profile entry
        assert record.to_bytes() == bytes(expected)

    def test_a_deep_path_stores_an_object_about_the_size_of_its_graph(self, tmp_path):
        """A path refines to a fixpoint n/2 deep; write-through stores its
        answers, not a colour table per depth."""
        graph = generators.path_graph(2000)
        store = ArtifactStore(str(tmp_path))
        refinement_cache.attach_store(store)
        evaluate_graph(graph, SweepSpec.make((), tasks=[Task("S")]))
        (key,) = store.keys()
        assert len(store.get_bytes(key)) <= len(graph_to_bytes(graph)) + 128


class TestArtifactStore:
    def test_put_get_and_skip_identical(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.asymmetric_cycle(7))
        assert store.put(record) is True
        assert store.put(record) is False  # unchanged content is never rewritten
        loaded = store.get(record.graph.cache_key())
        assert loaded is not None and loaded.graph == record.graph
        assert store.get("ff" * 16) is None
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["puts"] == 1 and stats["put_skips"] == 1

    @pytest.mark.parametrize(
        "key", ["", "FF" * 16, "ff" * 15, "ff" * 17, "../" * 11, "/etc/passwd", "ff" * 32]
    )
    def test_a_malformed_key_is_a_miss_that_never_becomes_a_path(
        self, tmp_path, monkeypatch, key
    ):
        from repro.store import store as store_module

        store = ArtifactStore(str(tmp_path))
        opened = []
        monkeypatch.setattr(store_module, "open", lambda *a, **k: opened.append(a), raising=False)
        before = store.stats()["misses"]
        assert store.get_bytes(key) is None
        assert store.get(key) is None
        assert opened == []
        assert store.stats()["misses"] == before + 2

    def test_load_for_graph_without_refining(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_computed_record(generators.asymmetric_cycle(7)))
        fresh = generators.asymmetric_cycle(7)
        record = store.load_for_graph(fresh)
        assert record is not None
        record.adopt_onto(fresh)
        assert fresh.refinement_engine().passes == 0
        assert store.load_for_graph(generators.star_graph(3)) is None

    def test_objects_are_named_by_identity_key(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        keys = set()
        for graph in _sample_graphs()[:3]:
            store.put(_computed_record(graph))
            keys.add(graph.cache_key())
            refinement_cache.clear()
        assert set(store.keys()) == keys
        for key in keys:
            assert os.path.isfile(os.path.join(str(tmp_path), "objects", key[:2], key + ".rple"))
        fresh_handle = ArtifactStore(str(tmp_path))
        assert fresh_handle.stats()["records"] == 3
        assert fresh_handle.load_for_graph(generators.three_node_line()) is not None

    def test_relabeled_copy_gets_its_own_object(self, tmp_path):
        """Fingerprints are relabeling-invariant; labelings must not mix.

        A different labeled graph behind the same fingerprint has another
        identity key, so it gets its own object: the first record stays
        byte-for-byte intact while *both* labelings resolve through
        ``load_for_graph``, re-putting either is a skip, and the shared
        fingerprint's alias turns ambiguous.
        """
        store = ArtifactStore(str(tmp_path))
        graph = generators.asymmetric_cycle(7)
        record = _computed_record(graph)
        store.put(record)
        first_bytes = store.get_bytes(graph.cache_key())
        assert store.by_fingerprint(graph.fingerprint()).graph == graph

        relabeled = graph.relabeled(list(range(graph.num_nodes))[::-1])
        assert relabeled.fingerprint() == graph.fingerprint()
        assert relabeled.cache_key() != graph.cache_key()
        refinement_cache.clear()
        other = _computed_record(relabeled)
        assert store.put(other) is True
        assert store.get_bytes(graph.cache_key()) == first_bytes
        found = store.load_for_graph(relabeled)
        assert found is not None and found.graph == relabeled
        loaded = store.load_for_graph(generators.asymmetric_cycle(7))
        assert loaded is not None and loaded.graph == graph
        assert store.put(record) is False
        assert store.put(other) is False
        assert store.stats()["put_skips"] == 2
        assert store.stats()["records"] == 2
        with pytest.raises(AmbiguousFingerprint):
            store.by_fingerprint(graph.fingerprint())
        # the two records remain unmergeable (different labeled graphs)
        with pytest.raises(ValueError):
            record.merged_with(other)

    def test_a_racing_claim_of_another_labeling_marks_the_alias_ambiguous(
        self, tmp_path, monkeypatch
    ):
        """A writer that read the alias as absent just before a writer of
        another labeling claimed it marks the alias ambiguous instead of
        taking it, and both records stay readable."""
        from repro.store import store as store_module

        store = ArtifactStore(str(tmp_path))
        graph = generators.asymmetric_cycle(7)
        winner = _computed_record(graph)
        relabeled = graph.relabeled(list(range(graph.num_nodes))[::-1])
        refinement_cache.clear()
        loser = _computed_record(relabeled)
        store.put(winner)
        winner_bytes = store.get_bytes(graph.cache_key())
        real_read = store_module._read
        stale = [store._alias_path(loser.fingerprint)]

        def read_before_the_winner_claimed(path):
            if path in stale:
                stale.remove(path)
                return None
            return real_read(path)

        monkeypatch.setattr(store_module, "_read", read_before_the_winner_claimed)
        assert store.put(loser) is True
        assert not stale
        monkeypatch.undo()
        assert store.get_bytes(graph.cache_key()) == winner_bytes
        fresh = ArtifactStore(str(tmp_path))
        with pytest.raises(AmbiguousFingerprint):
            fresh.by_fingerprint(graph.fingerprint())
        assert fresh.load_for_graph(graph).graph == graph
        assert fresh.load_for_graph(relabeled).graph == relabeled

    def test_colliding_distinct_graphs_both_warm_start(self, tmp_path):
        """A torus and a twisted torus of one size share a fingerprint but
        are different graphs; both must survive the store round trip, and
        the fingerprint resolves to neither."""
        store = ArtifactStore(str(tmp_path))
        plain = generators.torus_graph(3, 4)
        twisted = generators.twisted_torus_graph(3, 4, 1)
        assert plain.fingerprint() == twisted.fingerprint()
        assert plain != twisted
        refinement_cache.clear()
        store.put(_computed_record(plain))
        plain_bytes = store.get_bytes(plain.cache_key())
        refinement_cache.clear()
        twisted_record = _computed_record(twisted)
        store.put(twisted_record)
        assert store.stats()["records"] == 2
        assert store.get_bytes(plain.cache_key()) == plain_bytes
        for original in (generators.torus_graph(3, 4), generators.twisted_torus_graph(3, 4, 1)):
            found = store.load_for_graph(original)
            assert found is not None and found.graph == original
        assert store.put(twisted_record) is False
        with pytest.raises(AmbiguousFingerprint):
            ArtifactStore(str(tmp_path)).by_fingerprint(plain.fingerprint())

    def test_read_through_survives_a_corrupt_object(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        key = record.graph.cache_key()
        with open(store._object_path(key), "wb") as handle:
            handle.write(b"garbage")
        # the warm-start path degrades to a miss, so the cache recomputes...
        cache = RefinementCache()
        cache.attach_store(store)
        entry = cache.entry(generators.asymmetric_cycle(7))
        assert entry.refinement.ensure_stable() >= 0
        assert cache.stats()["store_misses"] == 1
        # ...and the write-through replaces the corrupt incumbent
        assert cache.persist(entry) is True
        assert store.get(key) is not None

    def test_put_replaces_a_torn_incumbent_whose_decode_overruns(self, tmp_path):
        """A torn object may end just before a single-byte field, whose read
        raises ``IndexError``, not ``ValueError``.  ``put`` never decodes
        the incumbent, so it replaces the torn object of its own graph
        whatever the tear, and a relabeled copy behind the same fingerprint
        is written under its own key without touching it."""
        graph = generators.random_connected_graph(12, extra_edges=4, seed=3)
        record = _computed_record(graph)
        relabeled_graph = graph.relabeled(list(range(graph.num_nodes))[::-1])
        refinement_cache.clear()
        relabeled = _computed_record(relabeled_graph)
        assert relabeled.fingerprint == record.fingerprint
        assert relabeled.graph != record.graph
        payload = record.to_bytes()
        cuts = []
        for cut in range(len(payload)):
            try:
                ArtifactRecord.from_bytes(payload[:cut])
            except IndexError:
                cuts.append(cut)
            except ValueError:
                pass
        assert cuts, "no truncation point overruns a single-byte field"
        for cut in cuts:
            for label, candidate in (("same", record), ("relabeled", relabeled)):
                root = str(tmp_path / f"{label}-{cut}")
                store = ArtifactStore(root)
                store.put(record)
                path = store._object_path(graph.cache_key())
                with open(path, "r+b") as handle:
                    handle.truncate(cut)
                assert store.put(candidate) is True
                stored = ArtifactStore(root).get(candidate.graph.cache_key())
                assert stored is not None and stored.graph == candidate.graph
                if candidate is relabeled:
                    assert os.path.getsize(path) == cut

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncated", "empty", "misplaced", *NON_CANONICAL],
    )
    def test_corrupt_object_is_quarantined_as_a_miss(self, tmp_path, corruption):
        """A torn or misplaced object must never crash the caller.

        ``get`` validates the decode behind the read: the bad object is
        counted as a miss (``corrupt_objects``), moved to a ``*.quarantine``
        sibling off the read path, and reported as ``None`` so the caller
        falls through to recompute.
        """
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.star_graph(3))
        store.put(record)
        key = record.graph.cache_key()
        path = store._object_path(key)
        if corruption == "garbage":
            bad = b"\x00\xff garbage \xfe"
        elif corruption == "truncated":
            bad = record.to_bytes()[: len(record.to_bytes()) // 2]
        elif corruption == "empty":
            bad = b""
        elif corruption in NON_CANONICAL:
            bad = _non_canonical(record, corruption)
        else:  # misplaced: a valid record of a *different* graph
            refinement_cache.clear()
            bad = _computed_record(generators.asymmetric_cycle(7)).to_bytes()
        with open(path, "wb") as handle:
            handle.write(bad)

        before = store.stats()
        assert store.get(key) is None
        stats = store.stats()
        assert stats["corrupt_objects"] == 1
        assert stats["misses"] == before["misses"] + 1
        assert stats["hits"] == before["hits"]  # the pre-decode hit was re-booked
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantine")
        # the slot is now a plain miss; a write-through heals it
        assert store.get(key) is None
        assert store.stats()["corrupt_objects"] == 1
        assert store.put(record) is True
        healed = store.get(key)
        assert healed is not None and healed.graph == record.graph

    def test_unreadable_object_is_a_miss_not_an_error(self, tmp_path, monkeypatch):
        """Any ``OSError`` on the object read degrades to a miss.

        ``IsADirectoryError`` (compaction or an operator put a directory on
        the path) and ``PermissionError`` (permissions clamped mid-deploy)
        used to escape to the caller as 500s from the service.
        """
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.star_graph(3))
        store.put(record)
        key = record.graph.cache_key()
        path = store._object_path(key)

        os.unlink(path)
        os.makedirs(path)  # a directory squatting on the object path
        assert store.get_bytes(key) is None
        assert store.get(key) is None
        os.rmdir(path)

        import builtins

        real_open = builtins.open

        def denying_open(file, *args, **kwargs):
            if str(file) == path:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        store.put(record)
        monkeypatch.setattr(builtins, "open", denying_open)
        before = store.stats()["misses"]
        assert store.get_bytes(key) is None
        assert store.get(key) is None
        monkeypatch.setattr(builtins, "open", real_open)
        assert store.stats()["misses"] >= before + 2
        assert store.get(key) is not None  # nothing quarantined

    def test_concurrent_readers_and_writers(self, tmp_path):
        """Torn reads must be impossible: writers replace atomically, and a
        relabeled copy never resolves to the graph it was relabeled from."""
        store = ArtifactStore(str(tmp_path))
        graphs = _sample_graphs()[:4]
        graphs.append(graphs[1].relabeled(list(range(graphs[1].num_nodes))[::-1]))
        records = []
        for graph in graphs:
            records.append(_computed_record(graph))
            refinement_cache.clear()
        payloads = {record.to_bytes() for record in records}
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for _ in range(10):
                    for record in records:
                        # independent handles, as separate processes would use
                        ArtifactStore(str(tmp_path)).put(record)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                while not stop.is_set():
                    handle = ArtifactStore(str(tmp_path))
                    for graph in graphs:
                        loaded = handle.load_for_graph(graph)
                        if loaded is not None:
                            assert loaded.graph == graph
                            assert loaded.to_bytes() in payloads
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        assert ArtifactStore(str(tmp_path)).stats()["records"] == 5


def _head(record, version):
    fingerprint = record.fingerprint.encode("ascii")
    return MAGIC + bytes([version, len(fingerprint)]) + fingerprint + graph_to_bytes(record.graph)


def _as_format_5(record):
    """The object format 5 stored for ``record``, kept here as that format's
    oracle: after the graph, the fixpoint depth and the canonical colour
    table of every depth the engine materialised, then the feasibility flag
    and the ψ entries of format 6 -- and no profile entries."""
    assert record.profile == ()
    payload = record.to_bytes()
    assert payload.startswith(_head(record, FORMAT_VERSION)) and payload.endswith(b"\x00")
    engine = record.graph.refinement_engine()
    out = bytearray(_head(record, 5))
    write_uvarint(out, engine.ensure_stable())
    write_uvarint(out, engine.computed_depth + 1)
    for depth in range(engine.computed_depth + 1):
        for color in engine.colors_at(depth):
            write_uvarint(out, color)
    # the feasibility flag and the ψ entries; the last byte is the profile count
    out += payload[len(_head(record, FORMAT_VERSION)) : -1]
    return bytes(out)


def _as_format_4(record):
    """The object format 4 stored for ``record``: the format-5 sections plus
    the three format 5 dropped -- the CSR arrays after the graph, then the
    map advice and an empty delta lineage after the ψ entries."""
    from repro.advice.map_advice import encode_map_advice

    out = bytearray(_head(record, 4))
    csr = record.graph.csr()
    for values in (csr.offsets, csr.neighbors, csr.reverse_ports):
        write_uvarint(out, len(values))
        for value in values:
            write_uvarint(out, value)
    out += _as_format_5(record)[len(_head(record, 5)) :]
    bits = encode_map_advice(record.graph)
    packed = bytes(int(bits[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8))
    out += bytes([1, 3]) + b"map"  # one advice entry, named "map"
    write_uvarint(out, len(bits))
    write_uvarint(out, len(packed))
    out += packed
    out += bytes([0, 0])  # no parent fingerprint, no delta digest
    return bytes(out)


def _as_format_3(payload, fingerprint):
    """A format-3 object: a format-4 payload with version byte 3, named by
    ``fingerprint`` (the two layouts are equal; a v3 object carries a
    fingerprint of the old label scheme)."""
    assert payload[: len(MAGIC)] == MAGIC and payload[len(MAGIC)] == 4
    start = len(MAGIC) + 1
    assert payload[start] == len(fingerprint) == 64  # a one-byte varint length
    end = start + 1 + len(fingerprint)
    return payload[: len(MAGIC)] + bytes([3]) + payload[start : start + 1] + (
        fingerprint.encode("ascii") + payload[end:]
    )


def _served_fingerprint(graph):
    """The ``fingerprint`` a ``POST /election`` of ``graph``'s adjacency returns."""
    from repro.portgraph.io import graph_to_dict
    from repro.service.service import compute_election

    response = compute_election(
        {
            "graph": graph_to_dict(graph),
            "spec": None,
            "base": None,
            "delta": None,
            "tasks": [Task("S"), Task("PE")],
            "max_depth": None,
            "max_states": 200_000,
            "advice": False,
        }
    )
    return response["fingerprint"]


class TestParentLayoutUpgrade:
    """A store of the earlier layout -- format-4 objects named by
    fingerprint (one of them still format 3), a spill of a relabeled copy,
    and a manifest -- is upgraded without migration: no old object is
    served, write-through stores current-format records under identity
    keys, and compaction reclaims every old object.  The manifest is
    ignored."""

    def test_parent_layout_store_is_recomputed_and_compacted(self, tmp_path):
        import hashlib

        root = str(tmp_path)
        graphs = _sample_graphs()[:3]
        graphs.append(graphs[1].relabeled(list(range(graphs[1].num_nodes))[::-1]))
        payloads, old_names, manifest = [], [], {}
        for index, graph in enumerate(graphs):
            record = _computed_record(graph)
            refinement_cache.clear()
            payload, old_payload = record.to_bytes(), _as_format_4(record)
            fingerprint = graph.fingerprint()
            if index == 0:  # format 3, named by an old-scheme fingerprint
                name = hashlib.sha256(b"v3:" + fingerprint.encode("ascii")).hexdigest()
                stored = _as_format_3(old_payload, name)
            elif index == 3:  # the relabeled copy spilled behind graph 1
                digest = hashlib.blake2b(graph_to_bytes(graph), digest_size=8).hexdigest()
                name, stored = f"{fingerprint}~{digest}", old_payload
            else:
                name, stored = fingerprint, old_payload
            path = os.path.join(root, "objects", name[:2], name + ".rple")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(stored)
            payloads.append(payload)
            old_names.append(name)
            manifest[name] = {"cache_key": graph.cache_key(), "bytes": len(stored)}
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump({"format_version": 4, "generation": 3, "records": manifest}, handle)

        store = ArtifactStore(root)
        assert store.keys() == [] and store.stats()["records"] == 0
        for name in old_names:
            assert store.get(name) is None
            assert store.by_fingerprint(name) is None
        # served through the store, every graph misses and is recomputed, so
        # no response carries an old fingerprint...
        refinement_cache.attach_store(store)
        try:
            served = [_served_fingerprint(graph) for graph in graphs]
        finally:
            refinement_cache.attach_store(None)
        assert refinement_cache.store_hits == 0
        assert served == [graph.fingerprint() for graph in graphs]
        assert not set(served) & {old_names[0]}
        # ...and written through under identity keys, byte for byte the
        # current-format records of the old layout's graphs
        assert sorted(store.keys()) == sorted(graph.cache_key() for graph in graphs)
        for graph, payload in zip(graphs, payloads):
            assert store.get_bytes(graph.cache_key()) == payload
        assert store.by_fingerprint(graphs[0].fingerprint()).graph == graphs[0]
        summary = store.compact()
        assert summary == {
            "removed_quarantined": 0,
            "removed_tmp": 0,
            "removed_corrupt": len(old_names),
            "live_records": len(graphs),
        }
        objects = os.path.join(root, "objects")
        left = sorted(name for shard in os.listdir(objects)
                      for name in os.listdir(os.path.join(objects, shard)))
        assert left == sorted(graph.cache_key() + ".rple" for graph in graphs)
        with open(manifest_path, encoding="utf-8") as handle:
            assert json.load(handle)["records"] == manifest  # ignored, not rewritten


class TestFormatUpgrade:
    """Format-5 objects under identity keys, with their fingerprint aliases,
    are upgraded without migration: the first lookup of each quarantines it
    as an unsupported version, so nothing from it is served; the recomputed
    record is written through as format 6 in its place; and ``compact()``
    reclaims the quarantined files and the old object no lookup reached."""

    def test_format_5_objects_are_recomputed_as_format_6_and_compacted(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        graphs = _sample_graphs()[:3]
        payloads = []
        for graph in graphs:
            record = _computed_record(graph)
            refinement_cache.clear()
            payloads.append(record.to_bytes())
            path = store._object_path(graph.cache_key())
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(_as_format_5(record))
            store._claim(record.fingerprint, graph.cache_key())
        assert sorted(store.keys()) == sorted(graph.cache_key() for graph in graphs)

        refinement_cache.attach_store(store)
        try:
            served = [_served_fingerprint(graph) for graph in graphs[:2]]
        finally:
            refinement_cache.attach_store(None)
        assert served == [graph.fingerprint() for graph in graphs[:2]]
        assert refinement_cache.store_hits == 0
        stats = store.stats()
        assert (stats["hits"], stats["corrupt_objects"], stats["puts"]) == (0, 2, 2)
        for graph, payload in zip(graphs[:2], payloads):
            path = store._object_path(graph.cache_key())
            assert os.path.exists(path + ".quarantine")
            with open(path, "rb") as handle:
                stored = handle.read()
            assert stored == payload and stored[len(MAGIC)] == FORMAT_VERSION == 6
        # the alias the format-5 put claimed still names the graph
        assert store.by_fingerprint(graphs[0].fingerprint()).graph == graphs[0]

        summary = store.compact()
        assert summary == {
            "removed_quarantined": 2,
            "removed_tmp": 0,
            "removed_corrupt": 1,
            "live_records": 2,
        }
        assert sorted(store.keys()) == sorted(graph.cache_key() for graph in graphs[:2])
        leftovers = [
            name
            for _shard, _dirs, names in os.walk(os.path.join(str(tmp_path), "objects"))
            for name in names
            if not name.endswith(".rple")
        ]
        assert leftovers == []


class TestByFingerprint:
    def test_a_single_labeling_resolves_and_an_unknown_fingerprint_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        graph = generators.asymmetric_cycle(7)
        store.put(_computed_record(graph))
        found = ArtifactStore(str(tmp_path)).by_fingerprint(graph.fingerprint())
        assert found is not None and found.graph == graph
        assert store.by_fingerprint("0" * 64) is None

    @pytest.mark.parametrize(
        "fingerprint", ["", "/etc/passwd", "../" * 21 + "a", "AB" * 32, "ab" * 16, "ab" * 33]
    )
    def test_a_malformed_fingerprint_never_becomes_a_path(
        self, tmp_path, monkeypatch, fingerprint
    ):
        from repro.store import store as store_module

        store = ArtifactStore(str(tmp_path))
        opened = []
        monkeypatch.setattr(store_module, "open", lambda *a, **k: opened.append(a), raising=False)
        assert store.by_fingerprint(fingerprint) is None
        assert opened == []
        assert store.stats()["misses"] == 1

    def test_an_alias_naming_a_graph_of_another_fingerprint_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        first, second = generators.asymmetric_cycle(7), generators.star_graph(4)
        for graph in (first, second):
            store.put(_computed_record(graph))
            refinement_cache.clear()
        # a foreign alias: the first fingerprint names the second graph's key
        with open(store._alias_path(first.fingerprint()), "w", encoding="ascii") as handle:
            handle.write(second.cache_key())
        assert store.by_fingerprint(first.fingerprint()) is None
        assert store.by_fingerprint(second.fingerprint()).graph == second


class TestPutCost:
    def test_a_put_makes_the_same_calls_into_an_empty_and_a_full_store(
        self, tmp_path, monkeypatch
    ):
        """A put's cost does not depend on the store's size: into an empty
        store and into one of 500 records it makes the same ``open``,
        ``os.replace`` and ``os.link`` calls, each on the record's own
        object, its alias or their temp files, and lists no directory."""
        from repro.store import store as store_module

        graph = generators.asymmetric_cycle(7)
        record = _computed_record(graph)
        full = ArtifactStore(str(tmp_path / "full"))
        written = seed = 0
        while written < 500:
            filler = generators.random_connected_graph(10, extra_edges=4, seed=seed)
            seed += 1
            written += full.put(ArtifactRecord.from_computed(filler))
        assert full.stats()["records"] == 500
        refinement_cache.clear()

        def traced_put(store):
            own = {store._object_path(graph.cache_key()): "object",
                   store._alias_path(graph.fingerprint()): "alias"}
            calls = []

            def role(path):
                path = os.fspath(path)
                for prefix, name in own.items():
                    if path == prefix:
                        return name
                    if path.startswith(prefix + ".tmp."):
                        return name + " temp"
                return path  # a foreign path: fails the comparison below

            def traced(name, real):
                def call(*args, **kwargs):
                    paths = args[:2] if name in ("replace", "link") else args[:1]
                    calls.append((name, *map(role, paths)))
                    return real(*args, **kwargs)
                return call

            import builtins

            monkeypatch.setattr(store_module, "open", traced("open", builtins.open), raising=False)
            monkeypatch.setattr(os, "replace", traced("replace", os.replace))
            monkeypatch.setattr(os, "link", traced("link", os.link))
            monkeypatch.setattr(os, "listdir", traced("listdir", os.listdir))
            try:
                assert store.put(record) is True
            finally:
                monkeypatch.undo()
            return calls

        into_empty = traced_put(ArtifactStore(str(tmp_path / "empty")))
        into_full = traced_put(full)
        assert into_empty == into_full == [
            ("open", "object"),
            ("open", "alias"),
            ("open", "alias temp"),
            ("link", "alias temp", "alias"),
            ("open", "object temp"),
            ("replace", "object temp", "object"),
        ]


#: A writer process: puts every record file named on the command line into
#: the store, round after round (argv: store path, rounds, record files).
_PUT_CHILD = """
import sys
from repro.store import ArtifactRecord, ArtifactStore

root, rounds, paths = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
records = []
for path in paths:
    with open(path, "rb") as handle:
        records.append(ArtifactRecord.from_bytes(handle.read()))
for round_index in range(rounds):
    store = ArtifactStore(root)
    for record in records[round_index % 2 :] + records[: round_index % 2]:
        store.put(record)
"""


class TestConcurrentProcesses:
    def test_processes_putting_overlapping_graphs_keep_one_object_per_graph(self, tmp_path):
        """Three processes put overlapping graphs -- relabeled copies, and a
        torus and a twisted torus that share a fingerprint -- each graph in
        two memo variants, so concurrent writers of one graph keep replacing
        its object.  Afterwards every labeled graph has exactly one object,
        named by its identity key, every alias is exact or ambiguous as the
        stored graphs demand, and no temp file is left."""
        import repro

        cycle, star = generators.asymmetric_cycle(7), generators.star_graph(5)
        graphs = [
            cycle,
            cycle.relabeled(list(range(cycle.num_nodes))[::-1]),
            star,
            star.relabeled([0, 2, 1, 3, 4, 5]),
            generators.torus_graph(3, 4),
            generators.twisted_torus_graph(3, 4, 1),
            generators.hypercube_graph(3),
        ]
        assert len({graph.cache_key() for graph in graphs}) == len(graphs)
        files = []
        for index, graph in enumerate(graphs):
            for tasks in (("S",), ("S", "PE")):
                refinement_cache.clear()
                path = tmp_path / f"record-{index}-{len(tasks)}.rple"
                path.write_bytes(_computed_record(graph, tasks=tasks).to_bytes())
                files.append(str(path))
        root = str(tmp_path / "store")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _PUT_CHILD, root, "6", *files[start : start + 8]],
                env=env,
                stderr=subprocess.PIPE,
            )
            for start in (0, 3, 6)
        ]
        for child in children:
            _, stderr = child.communicate(timeout=300)
            assert child.returncode == 0, stderr.decode()

        # the three overlapping windows together put every graph
        store = ArtifactStore(root)
        assert sorted(store.keys()) == sorted(graph.cache_key() for graph in graphs)
        for key in store.keys():
            with open(store._object_path(key), "rb") as handle:
                assert ArtifactRecord.from_bytes(handle.read()).graph.cache_key() == key
        by_fingerprint = {}
        for graph in graphs:
            by_fingerprint.setdefault(graph.fingerprint(), set()).add(graph.cache_key())
        for fingerprint, keys in by_fingerprint.items():
            with open(store._alias_path(fingerprint), "rb") as handle:
                alias = handle.read()
            assert alias == (keys.pop().encode("ascii") if len(keys) == 1 else b"ambiguous")
        leftovers = [name for _dir, _subdirs, names in os.walk(root)
                     for name in names if ".tmp." in name]
        assert leftovers == []


class TestStoreRoot:
    def test_the_root_holds_only_objects_fingerprints_and_sweeps(self, tmp_path):
        """Puts, lookups, fingerprint lookups, compaction and a served batch
        leave nothing at the store root but its three directories."""
        from test_service import _RunningServer
        from test_service_batch import _post_stream

        from repro.service import ElectionService

        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        graph = generators.asymmetric_cycle(7)
        relabeled = graph.relabeled(list(range(graph.num_nodes))[::-1])
        for each in (graph, relabeled, generators.star_graph(4)):
            store.put(_computed_record(each))
            refinement_cache.clear()
        assert store.load_for_graph(graph) is not None
        assert store.get(relabeled.cache_key()) is not None
        assert store.by_fingerprint(generators.star_graph(4).fingerprint()) is not None
        with pytest.raises(AmbiguousFingerprint):
            store.by_fingerprint(graph.fingerprint())
        store.compact()
        with _RunningServer(ElectionService(store=ArtifactStore(root), workers=1)) as running:
            lines = _post_stream(
                running,
                {"items": [{"spec": {"kind": "star", "params": {"leaves": 5}}},
                           {"graph": graph_to_dict(graph)}]},
            )
        assert lines[-1]["status"] == "done" and lines[-1]["errors"] == 0
        assert sorted(os.listdir(root)) == ["fingerprints", "objects", "sweeps"]


class TestSweepRecords:
    def test_round_trip_listing_and_bytes(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.sweep_ids() == [] and store.get_sweep("ab" * 12) is None
        document = {"sweep": "ab" * 12, "items": "+.!", "state": "running"}
        store.put_sweep("ab" * 12, document)
        store.put_sweep("0f" * 12, {"sweep": "0f" * 12})
        assert store.get_sweep("ab" * 12) == document
        assert store.sweep_ids() == ["0f" * 12, "ab" * 12]
        path = tmp_path / "sweeps" / ("ab" * 12 + ".json")
        assert path.read_bytes() == (json.dumps(document, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize(
        "sweep_id", ["", "../x", "/tmp/x", "AB" * 12, "ab" * 12 + ".json", "a" * 65, "ab\x00"]
    )
    def test_only_hex_names_become_paths(self, tmp_path, sweep_id):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(ValueError):
            store.put_sweep(sweep_id, {})
        assert store.get_sweep(sweep_id) is None
        assert not os.path.exists(tmp_path / "store" / "sweeps")

    def test_unreadable_and_foreign_files_are_unknown_sweeps(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        sweeps = tmp_path / "sweeps"
        sweeps.mkdir()
        (sweeps / ("ab" * 12 + ".json")).write_text("{torn")
        (sweeps / ("cd" * 12 + ".json")).write_text("[1, 2]")
        (sweeps / "notes.json").write_text("{}")
        (sweeps / ("ef" * 12 + ".json.tmp.1.2")).write_text("{}")
        assert store.get_sweep("ab" * 12) is None
        assert store.get_sweep("cd" * 12) is None
        assert store.sweep_ids() == ["ab" * 12, "cd" * 12]


class TestCompaction:
    def test_compact_reclaims_debris_and_preserves_live_records(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        keys = []
        for graph in _sample_graphs()[:2]:
            store.put(_computed_record(graph))
            keys.append(graph.cache_key())
            refinement_cache.clear()
        baseline = {key: store.get_bytes(key) for key in keys}

        objects = os.path.join(str(tmp_path), "objects")
        # a quarantined object (as the corrupt-read path leaves behind)
        quarantined = os.path.join(objects, "aa")
        os.makedirs(quarantined, exist_ok=True)
        with open(os.path.join(quarantined, "aa" * 16 + ".rple.quarantine"), "wb") as handle:
            handle.write(b"old corpse")
        # a corrupt object that predates the quarantine path
        with open(os.path.join(quarantined, "ab" * 16 + ".rple"), "wb") as handle:
            handle.write(b"torn write")
        # stale temp files of an object and of an alias, from crashed writers
        aliases = os.path.join(str(tmp_path), "fingerprints", "ae")
        os.makedirs(aliases)
        stale = [
            os.path.join(quarantined, "ac" * 16 + ".rple.tmp.999.1"),
            os.path.join(aliases, "ae" * 32 + ".tmp.999.1"),
        ]
        for stale_tmp in stale:
            with open(stale_tmp, "wb") as handle:
                handle.write(b"half a file")
            os.utime(stale_tmp, (1, 1))
        # a *fresh* temp file must survive (a live writer may own it)
        fresh_tmp = os.path.join(quarantined, "ad" * 16 + ".rple.tmp.999.2")
        with open(fresh_tmp, "wb") as handle:
            handle.write(b"in flight")

        summary = store.compact()
        assert summary == {
            "removed_quarantined": 1,
            "removed_tmp": 2,
            "removed_corrupt": 1,
            "live_records": 2,
        }
        assert os.path.exists(fresh_tmp)
        assert not any(os.path.exists(path) for path in stale)
        stats = store.stats()
        assert stats["compactions"] == 1 and stats["compacted_objects"] == 4
        # live objects are byte-for-byte untouched and still resolve
        for key, payload in baseline.items():
            assert store.get_bytes(key) == payload
        assert ArtifactStore(str(tmp_path)).load_for_graph(_sample_graphs()[0]) is not None

    def test_graphs_sharing_a_fingerprint_survive_compaction(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        plain = generators.torus_graph(3, 4)
        twisted = generators.twisted_torus_graph(3, 4, 1)
        store.put(_computed_record(plain))
        refinement_cache.clear()
        store.put(_computed_record(twisted))
        summary = store.compact()
        assert summary["removed_corrupt"] == 0
        assert summary["live_records"] == 2
        for original in (generators.torus_graph(3, 4), generators.twisted_torus_graph(3, 4, 1)):
            found = store.load_for_graph(original)
            assert found is not None and found.graph == original
        with pytest.raises(AmbiguousFingerprint):
            store.by_fingerprint(plain.fingerprint())


class TestHotTier:
    def test_admit_on_second_touch_serves_from_memory(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        key = record.graph.cache_key()

        first = store.get(key)  # touch 1: doorkeeper only
        assert store.stats()["hot_entries"] == 0
        second = store.get(key)  # touch 2: admitted
        assert store.stats()["hot_entries"] == 1
        read_bytes = store.stats()["bytes_read"]
        third = store.get(key)  # resident: no filesystem at all
        stats = store.stats()
        assert stats["hot_hits"] == 1
        assert stats["bytes_read"] == read_bytes
        assert third is second  # the decoded resident is reused as-is
        for loaded in (first, second, third):
            assert loaded.graph == record.graph
            assert loaded.to_bytes() == record.to_bytes()

    def test_put_invalidates_resident(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        graph = generators.asymmetric_cycle(7)
        record = _computed_record(graph, tasks=("S",))
        store.put(record)
        store.get(record.graph.cache_key())
        store.get(record.graph.cache_key())  # resident now
        refinement_cache.clear()
        merged = record.merged_with(_computed_record(graph, tasks=("PE",)))
        assert store.put(merged) is True
        loaded = store.get(record.graph.cache_key())
        assert {entry[0] for entry in loaded.psi} == {"S", "PE"}

    def test_byte_budget_evicts_lru(self, tmp_path):
        record_a = _computed_record(generators.asymmetric_cycle(7))
        refinement_cache.clear()
        record_b = _computed_record(generators.star_graph(5))
        budget = len(record_a.to_bytes()) + len(record_b.to_bytes()) - 1
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=budget)
        store.put(record_a)
        store.put(record_b)
        for _ in range(2):
            store.get(record_a.graph.cache_key())
        assert store.stats()["hot_entries"] == 1
        for _ in range(2):
            store.get(record_b.graph.cache_key())
        stats = store.stats()
        assert stats["hot_entries"] == 1  # A was evicted to fit B
        assert stats["hot_evictions"] == 1
        assert stats["hot_bytes"] <= budget
        # the evicted key still reads fine from disk
        assert store.get(record_a.graph.cache_key()) is not None

    def test_decoded_records_outlive_close(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        store.get(record.graph.cache_key())
        resident = store.get(record.graph.cache_key())
        assert store.stats()["hot_entries"] == 1
        store.close()
        assert store.hot_tier is None
        # the mmap is released, but the decoded record copied its arrays out
        fresh = generators.asymmetric_cycle(7)
        assert resident.graph == fresh
        resident.adopt_onto(fresh)
        assert fresh.refinement_engine().passes == 0
        # the store still works, just cold
        assert store.get(record.graph.cache_key()) is not None

    def test_corrupt_object_is_never_admitted(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        record = _computed_record(generators.star_graph(3))
        store.put(record)
        path = store._object_path(record.graph.cache_key())
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        for _ in range(3):
            assert store.get(record.graph.cache_key()) is None
        assert store.stats()["hot_entries"] == 0


#: A small fixed sweep over every hot path: a G_{Δ,k} member for refinement
#: and block-cut, small mixed graphs for the PPE/CPPE joint searches.
REPLAY_SWEEP = SweepSpec.make(
    [
        GraphSpec.make("gdk", delta=4, k=1, index=3),
        GraphSpec.make("asymmetric-cycle", n=7),
        GraphSpec.make("star", leaves=4),
        GraphSpec.make("random", n=9, extra_edges=4, seed=2),
    ],
    tasks=Task.ordered(),
    profile_depths=(1,),
)

#: A genuinely cold process answering a sweep from a store: it prints what
#: it had to compute (argv: store path, sweep JSON).
_REPLAY_CHILD = """
import json, sys
from repro.core import search_statistics
from repro.runner import ExperimentRunner, SweepSpec, refinement_cache

report = ExperimentRunner(store_path=sys.argv[1]).run(SweepSpec.from_json(sys.argv[2]))
print(json.dumps({
    "refinement_passes": refinement_cache.refinement_passes,
    "search_states": search_statistics()["states"],
    "store_hits": report.cache_stats["store_hits"],
    "table_json": report.table.to_json(),
}))
"""


class TestCacheStoreIntegration:
    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param(
                "numpy",
                marks=pytest.mark.skipif(not numpy_available(), reason="numpy not installed"),
            ),
        ],
    )
    def test_cold_child_process_replays_a_sweep_from_the_store(
        self, tmp_path, backend, real_refinement_passes
    ):
        """A store written through by one process, on either forced pass kind,
        serves a fresh child process: no refinement pass of either kind, no
        search state, one store hit per graph, and the cold run's table byte
        for byte."""
        import repro

        store_path = str(tmp_path / "store")
        with use_backend(backend):
            cold = ExperimentRunner(store_path=store_path).run(REPLAY_SWEEP)
        assert real_refinement_passes.count == refinement_cache.refinement_passes > 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", _REPLAY_CHILD, store_path, REPLAY_SWEEP.to_json()],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert child.returncode == 0, child.stderr
        replay = json.loads(child.stdout)
        assert replay["refinement_passes"] == 0
        assert replay["search_states"] == 0
        assert replay["store_hits"] == len(REPLAY_SWEEP.graphs)
        assert replay["table_json"] == cold.table.to_json()

    def test_cold_process_warm_starts_from_store(self, tmp_path, real_refinement_passes):
        """The acceptance property: populated store => zero refinement passes."""
        sweep = SweepSpec.make(
            [GraphSpec.make("asymmetric-cycle", n=7), GraphSpec.make("star", leaves=4)],
            tasks=Task.ordered(),
            profile_depths=(1,),
        )
        store = ArtifactStore(str(tmp_path))
        warm_cache = RefinementCache()
        warm_cache.attach_store(store)
        for spec in sweep.graphs:
            graph = spec.build()
            entry = warm_cache.entry(graph)
            evaluate_graph(graph, sweep)  # populates the process-wide memo
            # copy the memoised outcomes onto the cache under test and persist
            entry.memo.update(refinement_cache.entry(graph).memo)
            warm_cache.persist(entry)
        assert store.stats()["records"] == 2
        cold_passes = real_refinement_passes.count
        assert cold_passes == refinement_cache.refinement_passes > 0

        # a "cold process": a brand-new cache and brand-new graph instances
        cold_cache = RefinementCache()
        cold_cache.attach_store(store)
        for spec in sweep.graphs:
            graph = spec.build()
            entry = cold_cache.entry(graph)
            assert entry.memo[("feasible",)] is True
            assert entry.refinement.passes == 0
            assert graph.refinement_engine().passes == 0
        stats = cold_cache.stats()
        assert stats["refinement_passes"] == 0
        assert real_refinement_passes.count == cold_passes
        assert stats["store_hits"] == 2 and stats["store_misses"] == 0

    def test_write_through_merges_with_existing_record(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        refinement_cache.attach_store(store)
        graph = generators.asymmetric_cycle(7)
        evaluate_graph(graph, SweepSpec.make((), tasks=[Task("S")]))
        first = store.get(graph.cache_key())
        refinement_cache.clear()
        fresh = generators.asymmetric_cycle(7)
        evaluate_graph(fresh, SweepSpec.make((), tasks=[Task("PE")]))
        merged = store.get(fresh.cache_key())
        assert {entry[0] for entry in first.psi} == {"S"}
        assert {entry[0] for entry in merged.psi} == {"S", "PE"}

    def test_eviction_accounts_kernel_bytes(self):
        cache = RefinementCache(maxsize=2)
        graphs = [
            generators.asymmetric_cycle(6),
            generators.asymmetric_cycle(7),
            generators.asymmetric_cycle(8),
        ]
        for graph in graphs:
            entry = cache.entry(graph)
            entry.refinement.ensure_stable()
            # the CSR view's memos must be accounted too
            entry.graph.csr().block_cut_tree()
            entry.graph.csr().distances_from(0)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["evicted_bytes"] > 0
        assert stats["live_bytes"] > 0
        # an entry's estimate covers refinement + CSR view and memos, so the
        # evicted bytes are at least the evicted graph's view with its memos
        evicted_view = graphs[0].csr().nbytes()
        assert evicted_view > build_csr(graphs[0]).nbytes()
        assert stats["evicted_bytes"] >= evicted_view
