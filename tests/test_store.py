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
from repro.kernel import numpy_available, use_backend
from repro.portgraph import PortLabeledGraph, generators
from repro.portgraph.io import graph_from_bytes, graph_to_bytes
from repro.runner import (
    ExperimentRunner,
    GraphSpec,
    RefinementCache,
    SweepSpec,
    evaluate_graph,
    refinement_cache,
)
from repro.store import ArtifactRecord, ArtifactStore


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
            # the record no longer carries its index key: the manifest
            # derives it from the graph
            store.put(decoded)
            meta = store.manifest()["records"][decoded.fingerprint]
            assert meta["cache_key"] == graph.cache_key()
            assert decoded.psi == record.psi
            assert decoded.advice == record.advice
            refinement_cache.clear()

    def test_decoded_graph_is_warm(self):
        graph = generators.asymmetric_cycle(7)
        record = _computed_record(graph, tasks=("S", "PE", "PPE", "CPPE"))
        decoded = ArtifactRecord.from_bytes(record.to_bytes())
        engine = decoded.graph.refinement_engine()
        # every depth query (and the fingerprint) is served from the stored
        # tables: zero refinement passes on the restored instance
        assert decoded.graph.fingerprint() == graph.fingerprint()
        stable = engine.ensure_stable()
        original = graph.refinement_engine()
        for depth in range(stable + 1):
            assert list(engine.colors_at(depth)) == list(original.colors_at(depth))
        assert engine.passes == 0

    def test_memo_entries_round_trip(self):
        graph = generators.asymmetric_cycle(7)
        record = _computed_record(graph, tasks=("S", "PPE"))
        memo = ArtifactRecord.from_bytes(record.to_bytes()).memo_entries()
        assert memo[("feasible",)] is True
        assert memo[("psi", "S", None, 200_000)] == ("ok", 1)
        assert memo[("psi", "PPE", None, 200_000)] == ("ok", 3)

    def test_merged_with_unions_psi_entries(self):
        graph = generators.asymmetric_cycle(7)
        first = _computed_record(graph, tasks=("S",))
        refinement_cache.clear()
        second = _computed_record(graph, tasks=("PE",))
        merged = first.merged_with(second)
        codes = {entry[0] for entry in merged.psi}
        assert codes == {"S", "PE"}

    def test_merge_rejects_different_graphs(self):
        records = [_computed_record(g) for g in (_sample_graphs()[0], _sample_graphs()[1])]
        with pytest.raises(ValueError):
            records[0].merged_with(records[1])

    def test_advice_is_bit_exact(self):
        from repro.advice.map_advice import encode_map_advice

        graph = generators.star_graph(4)
        record = _computed_record(graph)
        decoded = ArtifactRecord.from_bytes(record.to_bytes())
        assert decoded.advice_bits("map") == encode_map_advice(graph)


class TestArtifactStore:
    def test_put_get_and_skip_identical(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.asymmetric_cycle(7))
        assert store.put(record) is True
        assert store.put(record) is False  # unchanged content is never rewritten
        loaded = store.get(record.fingerprint)
        assert loaded is not None and loaded.graph == record.graph
        assert store.get("ff" * 32) is None
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["puts"] == 1 and stats["put_skips"] == 1

    def test_load_for_graph_without_refining(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_computed_record(generators.asymmetric_cycle(7)))
        fresh = generators.asymmetric_cycle(7)
        record = store.load_for_graph(fresh)
        assert record is not None
        record.adopt_onto(fresh)
        assert fresh.refinement_engine().passes == 0
        assert store.load_for_graph(generators.star_graph(3)) is None

    def test_atomic_objects_and_manifest_rebuild(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        fingerprints = set()
        for graph in _sample_graphs()[:3]:
            record = _computed_record(graph)
            store.put(record)
            fingerprints.add(record.fingerprint)
            refinement_cache.clear()
        assert set(store.fingerprints()) == fingerprints
        os.remove(os.path.join(str(tmp_path), "manifest.json"))
        fresh_handle = ArtifactStore(str(tmp_path))
        assert fresh_handle.stats()["records"] == 0
        assert fresh_handle.rebuild_manifest() == 3
        assert fresh_handle.stats()["records"] == 3
        # read-through works again after the rebuild
        assert fresh_handle.load_for_graph(generators.three_node_line()) is not None

    def test_relabeled_copy_spills_without_poisoning_the_incumbent(self, tmp_path):
        """Fingerprints are relabeling-invariant; labelings must not mix.

        The first writer owns the primary object; a different labeled graph
        behind the same fingerprint spills to its own deterministic key, so
        the incumbent's record stays byte-for-byte intact while *both*
        labelings resolve through ``load_for_graph`` -- and re-putting the
        spilled labeling is a skip, exactly like the primary path.
        """
        store = ArtifactStore(str(tmp_path))
        graph = generators.asymmetric_cycle(7)
        record = _computed_record(graph)
        store.put(record)
        incumbent_bytes = store.get_bytes(record.fingerprint)

        relabeled = graph.relabeled(list(range(graph.num_nodes))[::-1])
        assert relabeled.fingerprint() == graph.fingerprint()
        refinement_cache.clear()
        other = _computed_record(relabeled)
        assert store.put(other) is True
        assert store.stats()["put_spills"] == 1
        assert store.get_bytes(record.fingerprint) == incumbent_bytes
        spilled = store.load_for_graph(relabeled)
        assert spilled is not None and spilled.graph == relabeled
        loaded = store.load_for_graph(generators.asymmetric_cycle(7))
        assert loaded is not None and loaded.graph == graph
        # idempotent: same labeling, same spill key, no rewrite
        assert store.put(other) is False
        assert store.stats()["put_skips"] >= 1
        assert store.stats()["records"] == 2
        # the two records remain unmergeable (different labeled graphs)
        with pytest.raises(ValueError):
            record.merged_with(other)

    def test_racing_first_writers_of_two_labelings_both_keep_a_record(
        self, tmp_path, monkeypatch
    ):
        """A writer that read the primary as absent just before a writer of
        another labeling created it must spill, not replace that object."""
        store = ArtifactStore(str(tmp_path))
        graph = generators.asymmetric_cycle(7)
        winner = _computed_record(graph)
        relabeled = graph.relabeled(list(range(graph.num_nodes))[::-1])
        refinement_cache.clear()
        loser = _computed_record(relabeled)
        store.put(winner)
        winner_bytes = store.get_bytes(winner.fingerprint)
        real_read = ArtifactStore._read_object
        stale = [loser.fingerprint]

        def read_before_the_winner_wrote(self, key):
            if key in stale:
                stale.remove(key)
                return None
            return real_read(self, key)

        monkeypatch.setattr(ArtifactStore, "_read_object", read_before_the_winner_wrote)
        assert store.put(loser) is True
        assert not stale
        assert store.get_bytes(winner.fingerprint) == winner_bytes
        assert store.stats()["put_spills"] == 1
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.load_for_graph(graph).graph == graph
        assert fresh.load_for_graph(relabeled).graph == relabeled

    def test_colliding_distinct_graphs_both_warm_start(self, tmp_path):
        """A torus and a twisted torus of one size share a fingerprint but
        are different graphs; both must survive the store round trip."""
        store = ArtifactStore(str(tmp_path))
        plain = generators.torus_graph(3, 4)
        twisted = generators.twisted_torus_graph(3, 4, 1)
        assert plain.fingerprint() == twisted.fingerprint()
        assert plain != twisted
        refinement_cache.clear()
        store.put(_computed_record(plain))
        refinement_cache.clear()
        store.put(_computed_record(twisted))
        assert store.stats()["records"] == 2
        for original in (generators.torus_graph(3, 4), generators.twisted_torus_graph(3, 4, 1)):
            found = store.load_for_graph(original)
            assert found is not None and found.graph == original
        # the rebuilt manifest resolves both labelings too
        assert store.rebuild_manifest() == 2
        assert store.load_for_graph(generators.twisted_torus_graph(3, 4, 1)) is not None

    def test_read_through_survives_a_corrupt_object(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        path = os.path.join(str(tmp_path), "objects", record.fingerprint[:2],
                            record.fingerprint + ".rple")
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        # the warm-start path degrades to a miss, so the cache recomputes...
        cache = RefinementCache()
        cache.attach_store(store)
        entry = cache.entry(generators.asymmetric_cycle(7))
        assert entry.refinement.ensure_stable() >= 0
        assert cache.stats()["store_misses"] == 1
        # ...and the write-through replaces the corrupt incumbent
        assert cache.persist(entry.graph) is True
        assert store.get(record.fingerprint) is not None

    def test_put_replaces_a_torn_incumbent_whose_decode_overruns(self, tmp_path):
        """A torn object may end just before a single-byte field, whose read
        raises ``IndexError``, not ``ValueError``.  ``put`` must still treat
        that incumbent as corrupt and replace it, for the same record and
        for a relabeled copy behind the same fingerprint."""
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
                path = os.path.join(root, "objects", record.fingerprint[:2],
                                    record.fingerprint + ".rple")
                with open(path, "r+b") as handle:
                    handle.truncate(cut)
                assert store.put(candidate) is True
                stored = ArtifactStore(root).get(candidate.fingerprint)
                assert stored is not None and stored.graph == candidate.graph

    @pytest.mark.parametrize(
        "corruption",
        [b'{"format_version": 1, "records": {"trunc', b"\x00\xff garbage \xfe", b"[]"],
        ids=["truncated", "garbage-bytes", "wrong-shape"],
    )
    def test_corrupt_manifest_recovers_by_rebuilding_from_objects(
        self, tmp_path, corruption
    ):
        """A corrupt-but-present manifest is not an empty store.

        The objects directory is the source of truth; a torn or garbage
        manifest triggers an automatic rebuild, after which read-through
        lookups return byte-identical records to the pre-corruption store.
        """
        store = ArtifactStore(str(tmp_path))
        baseline = {}
        for graph in _sample_graphs()[:3]:
            record = _computed_record(graph)
            store.put(record)
            baseline[record.fingerprint] = store.get_bytes(record.fingerprint)
            refinement_cache.clear()
        probe = generators.three_node_line()
        before = ArtifactStore(str(tmp_path)).load_for_graph(probe)
        assert before is not None

        with open(os.path.join(str(tmp_path), "manifest.json"), "wb") as handle:
            handle.write(corruption)
        recovered = ArtifactStore(str(tmp_path))
        after = recovered.load_for_graph(probe)
        assert after is not None
        assert after.to_bytes() == before.to_bytes(), "recovery must be byte-identical"
        stats = recovered.stats()
        assert stats["manifest_rebuilds"] == 1
        assert stats["records"] == 3
        for fingerprint, payload in baseline.items():
            assert recovered.get_bytes(fingerprint) == payload
        # the rebuilt manifest is clean: a fresh handle reads it without
        # another rebuild
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.stats()["records"] == 3
        assert fresh.stats()["manifest_rebuilds"] == 0

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncated", "empty", "misplaced"],
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
        path = os.path.join(str(tmp_path), "objects", record.fingerprint[:2],
                            record.fingerprint + ".rple")
        if corruption == "garbage":
            bad = b"\x00\xff garbage \xfe"
        elif corruption == "truncated":
            bad = record.to_bytes()[: len(record.to_bytes()) // 2]
        elif corruption == "empty":
            bad = b""
        else:  # misplaced: a valid record of a *different* graph
            refinement_cache.clear()
            bad = _computed_record(generators.asymmetric_cycle(7)).to_bytes()
        with open(path, "wb") as handle:
            handle.write(bad)

        before = store.stats()
        assert store.get(record.fingerprint) is None
        stats = store.stats()
        assert stats["corrupt_objects"] == 1
        assert stats["misses"] == before["misses"] + 1
        assert stats["hits"] == before["hits"]  # the pre-decode hit was re-booked
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantine")
        # the slot is now a plain miss; a write-through heals it
        assert store.get(record.fingerprint) is None
        assert store.stats()["corrupt_objects"] == 1
        assert store.put(record) is True
        healed = store.get(record.fingerprint)
        assert healed is not None and healed.graph == record.graph

    def test_a_non_canonical_colour_table_is_quarantined_and_recomputed(self, tmp_path):
        """A record that decodes but carries colour id 2**40 at node 0 of
        every table must not be installed: its engine would count 2**40 + 1
        classes and read feasibility wrong.  ``get`` quarantines the object
        and the cache recomputes the answer of a cold run."""
        sweep = SweepSpec.make((), tasks=[Task("S"), Task("PE")])
        cold = evaluate_graph(generators.asymmetric_cycle(7), sweep)
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        tampered = dataclasses.replace(
            record,
            color_tables=tuple((2**40,) + tuple(table[1:]) for table in record.color_tables),
        )
        path = os.path.join(str(tmp_path), "objects", record.fingerprint[:2],
                            record.fingerprint + ".rple")
        with open(path, "wb") as handle:
            handle.write(tampered.to_bytes())

        refinement_cache.clear()
        refinement_cache.attach_store(store)
        graph = generators.asymmetric_cycle(7)
        assert evaluate_graph(graph, sweep) == cold
        assert store.stats()["corrupt_objects"] == 1
        engine = refinement_cache.entry(graph).graph.refinement_engine()
        assert engine.passes > 0
        assert engine.num_classes_at(engine.ensure_stable()) == graph.num_nodes

    def test_unreadable_object_is_a_miss_not_an_error(self, tmp_path, monkeypatch):
        """Any ``OSError`` on the object read degrades to a miss.

        ``IsADirectoryError`` (compaction or an operator put a directory on
        the path) and ``PermissionError`` (permissions clamped mid-deploy)
        used to escape to the caller as 500s from the service.
        """
        store = ArtifactStore(str(tmp_path))
        record = _computed_record(generators.star_graph(3))
        store.put(record)
        path = store._object_path(record.fingerprint)

        os.unlink(path)
        os.makedirs(path)  # a directory squatting on the object path
        assert store.get_bytes(record.fingerprint) is None
        assert store.get(record.fingerprint) is None
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
        assert store.get_bytes(record.fingerprint) is None
        assert store.get(record.fingerprint) is None
        monkeypatch.setattr(builtins, "open", real_open)
        assert store.stats()["misses"] >= before + 2
        assert store.get(record.fingerprint) is not None  # nothing quarantined

    def test_concurrent_readers_and_writers(self, tmp_path):
        """Torn reads must be impossible: writers replace atomically."""
        store = ArtifactStore(str(tmp_path))
        records = [_computed_record(g) for g in _sample_graphs()[:4]]
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
                    for record in records:
                        loaded = handle.get(record.fingerprint)
                        if loaded is not None:
                            assert loaded.graph == record.graph
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
        assert ArtifactStore(str(tmp_path)).stats()["records"] == 4


def _as_format_3(payload, fingerprint):
    """A format-3 object: a format-4 payload with version byte 3, named by
    ``fingerprint`` (the two layouts are equal; a v3 object carries a
    fingerprint of the old label scheme)."""
    from repro.store.record import FORMAT_VERSION, MAGIC

    assert payload[: len(MAGIC)] == MAGIC and payload[len(MAGIC)] == FORMAT_VERSION == 4
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


class TestFormatUpgrade:
    """A store written at format 3 (objects and manifest) is rebuilt once,
    never serves a record, is recomputed at format 4 under the new keys and
    gives its v3 objects up to compaction."""

    @staticmethod
    def _format_3_store(root):
        import hashlib

        graphs = _sample_graphs()[:3]
        records = {}
        for graph in graphs:
            record = _computed_record(graph)
            refinement_cache.clear()
            # a stand-in for the fingerprint the old label scheme gave it
            old_key = hashlib.sha256(b"v3:" + record.fingerprint.encode("ascii")).hexdigest()
            payload = _as_format_3(record.to_bytes(), old_key)
            with pytest.raises(ValueError, match="unsupported record format version 3"):
                ArtifactRecord.from_bytes(payload)
            path = os.path.join(root, "objects", old_key[:2], old_key + ".rple")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(payload)
            records[old_key] = ArtifactStore._record_meta(record, len(payload))
        # a v3 manifest indexed every object under its exact cache key
        with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as handle:
            json.dump({"format_version": 3, "generation": 4, "records": records}, handle)
        return graphs, sorted(records)

    @pytest.mark.parametrize("first_operation", ["lookup", "put"])
    def test_format_3_store_is_rebuilt_recomputed_and_compacted(
        self, tmp_path, first_operation
    ):
        from repro.store.record import MAGIC

        root = str(tmp_path)
        graphs, old_keys = self._format_3_store(root)
        store = ArtifactStore(root)
        if first_operation == "put":
            other = generators.hypercube_graph(3)
            assert all(graph != other for graph in graphs)
            assert store.put(_computed_record(other)) is True
            refinement_cache.clear()
        else:
            rebuilt = PortLabeledGraph([graphs[0].adjacency(v) for v in graphs[0].nodes()])
            assert store.load_for_graph(rebuilt) is None
        # rebuilt once from the objects, none of which decodes
        assert store.stats()["manifest_rebuilds"] == 1
        assert store.manifest()["format_version"] == 4
        assert not set(store.manifest()["records"]) & set(old_keys)
        # served through the store, every graph misses and is recomputed,
        # so no response carries an old fingerprint
        refinement_cache.attach_store(store)
        try:
            served = [_served_fingerprint(graph) for graph in graphs]
        finally:
            refinement_cache.attach_store(None)
        assert refinement_cache.store_hits == 0
        cold = [
            PortLabeledGraph([g.adjacency(v) for v in g.nodes()]).fingerprint() for g in graphs
        ]
        assert served == cold
        assert not set(served) & set(old_keys)
        # ... and written through at format 4 under the new keys
        new_keys = set(store.fingerprints()) - set(old_keys)
        assert set(served) <= new_keys
        for key in new_keys:
            payload = store.get_bytes(key)
            assert payload[len(MAGIC)] == 4
            assert ArtifactRecord.from_bytes(payload).fingerprint == key
        stats = store.stats()
        assert stats["records"] == len(new_keys) == len(graphs) + (first_operation == "put")
        assert stats["manifest_rebuilds"] == 1
        # a lookup by an old fingerprint (a delta item's base) misses too
        assert store.get(old_keys[0]) is None
        summary = store.compact()
        assert summary["removed_quarantined"] == 1
        assert summary["removed_corrupt"] == len(old_keys) - 1
        assert summary["live_records"] == len(new_keys)
        assert set(store.fingerprints()) == new_keys


class TestManifestLock:
    def test_threads_of_one_process_wait_without_polling(self, tmp_path, monkeypatch):
        """``flock`` locks belong to the open file description, so between two
        threads of one process the ``flock`` could only be polled (``LOCK_NB``
        and 10 ms sleeps).  A same-process waiter must block on the per-path
        thread lock and wake on release, even through another handle on the
        same root, without one poll sleep."""
        import time

        from repro.store import store as store_module

        real_sleep = time.sleep
        sleeps = []

        def recording_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(store_module.time, "sleep", recording_sleep)
        holder = ArtifactStore(str(tmp_path))
        waiter_handle = ArtifactStore(str(tmp_path))
        entering = threading.Event()
        acquired = threading.Event()

        def wait_for_lock():
            entering.set()
            with waiter_handle._manifest_lock():
                acquired.set()

        with holder._manifest_lock():
            waiter = threading.Thread(target=wait_for_lock)
            waiter.start()
            assert entering.wait(10)
            real_sleep(0.2)  # time for the waiter to reach the lock
            assert not acquired.is_set()
        waiter.join(10)
        assert not waiter.is_alive()
        assert acquired.is_set()
        assert sleeps == []

    def test_a_held_lock_still_times_out(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        errors = []

        def try_briefly():
            try:
                with store._manifest_lock(timeout=0.05):
                    pass
            except TimeoutError as error:
                errors.append(error)

        with store._manifest_lock():
            waiter = threading.Thread(target=try_briefly)
            waiter.start()
            waiter.join(10)
            assert not waiter.is_alive()
        assert len(errors) == 1
        with store._manifest_lock(timeout=1.0):
            pass  # released cleanly: the next taker gets it at once


class TestManifestStatKeying:
    def test_same_mtime_same_size_rewrite_is_detected(self, tmp_path):
        """The stale-index regression: the manifest cache used to be keyed
        on ``mtime_ns`` alone, so a rewrite landing within one mtime tick
        (and here, pinned to the *same* ``mtime_ns`` and padded to the same
        size) served the old index forever.  The stat-triple key includes
        the inode, which ``os.replace`` changes on every rewrite.
        """
        import json

        store = ArtifactStore(str(tmp_path))
        store.put(_computed_record(generators.asymmetric_cycle(7)))
        reader = ArtifactStore(str(tmp_path))
        assert reader.stats()["records"] == 1  # populate the reader's cache

        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        stat = os.stat(manifest_path)
        with open(manifest_path, "rb") as handle:
            original = handle.read()
        manifest = json.loads(original)
        manifest["records"] = {}
        rewritten = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        assert len(rewritten) < len(original)
        rewritten += b" " * (len(original) - len(rewritten))  # identical size
        tmp = manifest_path + ".tmp.test"
        with open(tmp, "wb") as handle:
            handle.write(rewritten)
        os.replace(tmp, manifest_path)
        os.utime(manifest_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(manifest_path).st_mtime_ns == stat.st_mtime_ns
        assert os.stat(manifest_path).st_size == stat.st_size

        assert reader.stats()["records"] == 0, "stale manifest cache served"

    def test_generation_advances_on_rebuild_and_compaction(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put(_computed_record(generators.asymmetric_cycle(7)))
        assert store.generation() == 0
        store.rebuild_manifest()
        assert store.generation() == 1
        summary = store.compact()
        assert summary["generation"] == 2
        assert store.generation() == 2


class TestCompaction:
    def test_compact_reclaims_debris_and_preserves_live_records(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        records = []
        for graph in _sample_graphs()[:2]:
            record = _computed_record(graph)
            store.put(record)
            records.append(record)
            refinement_cache.clear()
        baseline = {r.fingerprint: store.get_bytes(r.fingerprint) for r in records}

        objects = os.path.join(str(tmp_path), "objects")
        # a quarantined object (as the corrupt-read path leaves behind)
        quarantined = os.path.join(objects, "aa")
        os.makedirs(quarantined, exist_ok=True)
        with open(os.path.join(quarantined, "aa" * 32 + ".rple.quarantine"), "wb") as handle:
            handle.write(b"old corpse")
        # a corrupt object that predates the quarantine path
        with open(os.path.join(quarantined, "ab" * 32 + ".rple"), "wb") as handle:
            handle.write(b"torn write")
        # a stale temp file from a crashed writer
        stale_tmp = os.path.join(quarantined, "ac" * 32 + ".rple.tmp.999.1")
        with open(stale_tmp, "wb") as handle:
            handle.write(b"half a record")
        os.utime(stale_tmp, (1, 1))
        # a *fresh* temp file must survive (a live writer may own it)
        fresh_tmp = os.path.join(quarantined, "ad" * 32 + ".rple.tmp.999.2")
        with open(fresh_tmp, "wb") as handle:
            handle.write(b"in flight")

        summary = store.compact()
        assert summary["removed_quarantined"] == 1
        assert summary["removed_corrupt"] == 1
        assert summary["removed_tmp"] == 1
        assert summary["removed_spills"] == 0
        assert summary["live_records"] == 2
        assert os.path.exists(fresh_tmp)
        stats = store.stats()
        assert stats["compactions"] == 1 and stats["compacted_objects"] == 3
        # live objects are byte-for-byte untouched and still resolve
        for fingerprint, payload in baseline.items():
            assert store.get_bytes(fingerprint) == payload
        assert ArtifactStore(str(tmp_path)).load_for_graph(_sample_graphs()[0]) is not None

    def test_compact_merges_and_drops_superseded_spills(self, tmp_path):
        """A spill whose labeled graph the primary now holds is redundant --
        but its memo entries must be folded into the primary, not dropped."""
        store = ArtifactStore(str(tmp_path))
        graph = generators.asymmetric_cycle(7)
        primary = _computed_record(graph, tasks=("S",))
        store.put(primary)
        relabeled = graph.relabeled(list(range(graph.num_nodes))[::-1])
        refinement_cache.clear()
        spill_record = _computed_record(relabeled, tasks=("S", "PE"))
        store.put(spill_record)  # different labeling: spills
        assert store.stats()["put_spills"] == 1
        # the primary is torn and a later writer of the *relabeled* graph
        # replaces it -- the spill is now superseded by its own primary
        primary_path = store._object_path(graph.fingerprint())
        with open(primary_path, "wb") as handle:
            handle.write(b"torn")
        refinement_cache.clear()
        small = _computed_record(relabeled, tasks=("S",))
        store.put(small)

        summary = store.compact()
        assert summary["removed_spills"] == 1
        assert summary["live_records"] == 1
        survivor = ArtifactStore(str(tmp_path)).load_for_graph(relabeled)
        assert survivor is not None and survivor.graph == relabeled
        assert {entry[0] for entry in survivor.psi} == {"S", "PE"}

    def test_distinct_spills_survive_compaction(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        plain = generators.torus_graph(3, 4)
        twisted = generators.twisted_torus_graph(3, 4, 1)
        store.put(_computed_record(plain))
        refinement_cache.clear()
        store.put(_computed_record(twisted))
        summary = store.compact()
        assert summary["removed_spills"] == 0
        assert summary["live_records"] == 2
        for original in (generators.torus_graph(3, 4), generators.twisted_torus_graph(3, 4, 1)):
            found = store.load_for_graph(original)
            assert found is not None and found.graph == original


class TestHotTier:
    def test_admit_on_second_touch_serves_from_memory(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        key = record.fingerprint

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
        store.get(record.fingerprint)
        store.get(record.fingerprint)  # resident now
        refinement_cache.clear()
        merged = record.merged_with(_computed_record(graph, tasks=("PE",)))
        assert store.put(merged) is True
        loaded = store.get(record.fingerprint)
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
            store.get(record_a.fingerprint)
        assert store.stats()["hot_entries"] == 1
        for _ in range(2):
            store.get(record_b.fingerprint)
        stats = store.stats()
        assert stats["hot_entries"] == 1  # A was evicted to fit B
        assert stats["hot_evictions"] == 1
        assert stats["hot_bytes"] <= budget
        # the evicted key still reads fine from disk
        assert store.get(record_a.fingerprint) is not None

    def test_decoded_records_outlive_close(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        record = _computed_record(generators.asymmetric_cycle(7))
        store.put(record)
        store.get(record.fingerprint)
        resident = store.get(record.fingerprint)
        assert store.stats()["hot_entries"] == 1
        store.close()
        assert store.hot_tier is None
        # the mmap is released, but the decoded record copied its arrays out
        fresh = generators.asymmetric_cycle(7)
        assert resident.graph == fresh
        resident.adopt_onto(fresh)
        assert fresh.refinement_engine().passes == 0
        # the store still works, just cold
        assert store.get(record.fingerprint) is not None

    def test_corrupt_object_is_never_admitted(self, tmp_path):
        store = ArtifactStore(str(tmp_path), hot_tier_bytes=1 << 20)
        record = _computed_record(generators.star_graph(3))
        store.put(record)
        path = store._object_path(record.fingerprint)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        for _ in range(3):
            assert store.get(record.fingerprint) is None
        assert store.stats()["hot_entries"] == 0


class TestAdmissionPolicy:
    def test_always_is_the_default_and_admits_immediately(self):
        cache = RefinementCache(maxsize=2)
        assert cache.admission == "always"
        cache.entry(generators.asymmetric_cycle(6))
        assert len(cache) == 1
        assert cache.stats()["probation"] == 0

    def test_second_touch_promotes_only_repeat_requests(self):
        cache = RefinementCache(maxsize=4, admission="second-touch")
        hot = generators.asymmetric_cycle(7)
        cache.entry(hot)  # touch 1: probation
        assert len(cache) == 0
        assert cache.stats()["probation"] == 1
        promoted = cache.entry(hot)  # touch 2: promoted
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["probation"] == 0
        assert stats["admissions"] == 1
        assert promoted.graph == hot

    def test_one_hit_wonders_cannot_evict_hot_residents(self):
        cache = RefinementCache(maxsize=2, admission="second-touch")
        hot = generators.asymmetric_cycle(7)
        cache.entry(hot)
        cache.entry(hot)  # resident
        resident = cache.entry(hot)
        for n in range(6, 12):  # a scan of one-hit wonders
            cache.entry(generators.random_connected_graph(n, extra_edges=2, seed=n))
        stats = cache.stats()
        assert stats["evictions"] == 0  # the main LRU never churned
        assert stats["admission_rejects"] > 0
        assert cache.entry(hot) is resident

    def test_refinement_passes_stay_monotone_across_probation_drops(self):
        cache = RefinementCache(maxsize=2, admission="second-touch")
        for n in range(6, 18):
            entry = cache.entry(generators.asymmetric_cycle(n))
            entry.refinement.ensure_stable()
        assert cache.stats()["admission_rejects"] > 0
        passes = cache.refinement_passes
        assert passes > 0
        cache.entry(generators.asymmetric_cycle(6))
        assert cache.refinement_passes >= passes

    def test_persist_does_not_count_as_the_promoting_touch(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cache = RefinementCache(maxsize=4, admission="second-touch")
        cache.attach_store(store)
        graph = generators.asymmetric_cycle(7)
        entry = cache.entry(graph)  # touch 1
        entry.memo[("feasible",)] = True
        assert cache.persist(graph) is True  # write-through: not a touch
        assert len(cache) == 0, "persist must not promote a one-touch entry"
        assert cache.stats()["probation"] == 1
        cache.entry(graph)  # the genuine second request promotes
        assert len(cache) == 1

    def test_set_admission_round_trips(self):
        cache = RefinementCache(maxsize=2)
        assert cache.set_admission("second-touch") == "always"
        assert cache.set_admission("always") == "second-touch"
        with pytest.raises(ValueError):
            cache.set_admission("clairvoyant")


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
            warm_cache.entry(graph)
            evaluate_graph(graph, sweep)  # populates the process-wide memo
            # copy the memoised outcomes onto the cache under test and persist
            warm_cache.entry(graph).memo.update(refinement_cache.entry(graph).memo)
            warm_cache.persist(graph)
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
        first = store.get(graph.fingerprint())
        refinement_cache.clear()
        fresh = generators.asymmetric_cycle(7)
        evaluate_graph(fresh, SweepSpec.make((), tasks=[Task("PE")]))
        merged = store.get(fresh.fingerprint())
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
            entry.kernel.block_cut_tree()  # kernel state must be accounted too
            entry.kernel.distances_from(0)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["evicted_bytes"] > 0
        assert stats["live_bytes"] > 0
        # an entry's estimate covers refinement + kernel, so the evicted
        # bytes are at least the CSR arrays of the evicted graph
        assert stats["evicted_bytes"] >= graphs[0].csr().nbytes()
