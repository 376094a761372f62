"""Integration tests for the asyncio election-query service."""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.advice.map_advice import encode_map_advice
from repro.core import Task, all_election_indices
from repro.portgraph import generators
from repro.portgraph.io import graph_to_dict
from repro.runner import refinement_cache
from repro.service import ElectionServer, ElectionService
from repro.service import workers as worker_backends
from repro.store import ArtifactStore

@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


class _RunningServer:
    """A server on an ephemeral port, driven by a background event loop."""

    def __init__(self, service: ElectionService) -> None:
        self.service = service
        self.server = ElectionServer(service, port=0)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()

    def __enter__(self) -> "_RunningServer":
        self._thread.start()
        assert self._started.wait(10), "server failed to start"
        self.base = f"http://127.0.0.1:{self.server.port}"
        return self

    def __exit__(self, *exc_info) -> None:
        async def _shutdown() -> None:
            await self.server.close()
            await asyncio.sleep(0.05)  # let in-flight handlers finish closing

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)

    # ------------------------------------------------------------------ #
    def get(self, path: str):
        with urllib.request.urlopen(f"{self.base}{path}") as response:
            return json.loads(response.read())

    def post(self, path: str, payload) -> dict:
        request = urllib.request.Request(
            f"{self.base}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def post_expecting_error(self, path: str, payload) -> "tuple[int, dict]":
        try:
            self.post(path, payload)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())
        raise AssertionError("expected an HTTP error")


def delay_computations(monkeypatch, seconds: float) -> None:
    """Hold every computation ``seconds`` on its pool thread before it runs.

    Keeps a computation in flight while later requests arrive, so
    coalescing and window tests see a deterministic overlap.
    """
    compute = worker_backends.compute_election

    def delayed(parsed):
        time.sleep(seconds)
        return compute(parsed)

    monkeypatch.setattr(worker_backends, "compute_election", delayed)


def test_submit_matches_in_process_api_byte_exactly():
    graph = generators.asymmetric_cycle(7)
    with _RunningServer(ElectionService(workers=2)) as running:
        result = running.post("/election", {"graph": graph_to_dict(graph), "advice": True})
    direct = all_election_indices(graph)
    assert result["indices"] == {task.value: direct[task] for task in Task.ordered()}
    assert result["advice"]["map"] == encode_map_advice(graph)
    assert result["feasible"] is True
    assert result["fingerprint"] == graph.fingerprint()
    assert result["coalesced"] is False


def test_generator_spec_submission_and_task_subset():
    with _RunningServer(ElectionService(workers=1)) as running:
        result = running.post(
            "/election",
            {"spec": {"kind": "star", "params": {"leaves": 4}}, "tasks": ["S", "PE"]},
        )
    assert result["graph"] == "star(leaves=4)"
    assert set(result["indices"]) == {"S", "PE"}
    assert result["indices"]["S"] == 0


def test_identical_inflight_requests_coalesce(monkeypatch):
    graph = generators.asymmetric_cycle(7)
    payload = {"graph": graph_to_dict(graph)}
    # the delay keeps the first computation in flight while the duplicates
    # arrive, making the coalescing deterministic
    delay_computations(monkeypatch, 0.3)
    with _RunningServer(ElectionService(workers=2)) as running:
        results = [None] * 4
        errors = []

        def client(index: int) -> None:
            try:
                results[index] = running.post("/election", payload)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = running.get("/stats")
    assert not errors
    indices = [result["indices"] for result in results]
    assert all(index == indices[0] for index in indices)
    assert stats["service"]["computed"] == 1
    assert stats["service"]["coalesced"] == 3
    assert sum(1 for result in results if result["coalesced"]) == 3


def assert_real_passes(counter, expected: int) -> None:
    """The refinement passes this process really ran equal ``expected``."""
    assert counter.count == expected


def test_store_backed_service_answers_cold_with_zero_refinement(tmp_path, real_refinement_passes):
    graph = generators.asymmetric_cycle(7)
    payload = {"graph": graph_to_dict(graph), "advice": True}
    store = ArtifactStore(str(tmp_path))
    with _RunningServer(ElectionService(store=store, workers=1)) as running:
        warm = running.post("/election", payload)
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
    assert store.stats()["records"] == 1
    assert cold_ledger > 0
    assert_real_passes(real_refinement_passes, cold_ledger)

    # simulate a service restart: fresh process-wide cache, same store
    refinement_cache.clear()
    with _RunningServer(ElectionService(store=ArtifactStore(str(tmp_path)), workers=1)) as running:
        cold = running.post("/election", payload)
        stats = running.get("/stats")
    assert cold["indices"] == warm["indices"]
    assert cold["advice"] == warm["advice"]
    assert cold["fingerprint"] == warm["fingerprint"]
    assert stats["cache"]["refinement_passes"] == 0
    assert stats["cache"]["store_hits"] == 1
    assert_real_passes(real_refinement_passes, cold_ledger)


def test_spec_and_renamed_adjacency_share_one_store_record(tmp_path, real_refinement_passes):
    """The store index ignores the graph name: one graph submitted as a spec,
    then as adjacency under another name, resolves to one record, and the
    second lookup warm-starts from it with zero refinement passes."""
    spec = {"kind": "asymmetric-cycle", "params": {"n": 7}}
    graph_dict = graph_to_dict(generators.asymmetric_cycle(7))
    graph_dict["name"] = "submitted-under-another-name"
    store = ArtifactStore(str(tmp_path))
    with _RunningServer(ElectionService(store=store, workers=1)) as running:
        by_spec = running.post("/election", {"spec": spec})
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
    assert store.stats()["records"] == 1
    assert cold_ledger > 0
    assert_real_passes(real_refinement_passes, cold_ledger)

    refinement_cache.clear()
    with _RunningServer(ElectionService(store=ArtifactStore(str(tmp_path)), workers=1)) as running:
        by_adjacency = running.post("/election", {"graph": graph_dict})
        stats = running.get("/stats")
    assert by_adjacency["graph"] == "submitted-under-another-name" != by_spec["graph"]
    assert by_adjacency["indices"] == by_spec["indices"]
    assert by_adjacency["fingerprint"] == by_spec["fingerprint"]
    assert stats["cache"]["store_hits"] == 1
    assert stats["cache"]["refinement_passes"] == 0
    assert_real_passes(real_refinement_passes, cold_ledger)
    assert ArtifactStore(str(tmp_path)).stats()["records"] == 1


def test_a_hot_tier_store_leaves_every_computed_graph_in_the_one_lru(tmp_path):
    """Serving from a store with a hot tier configures no cache admission:
    a graph asked for again after nine other distinct graphs is still a
    memory hit, with no store read and no refinement pass.  (ψ_S queries
    look each graph up once, so no second lookup could keep it cached.)"""
    payloads = [
        {"spec": {"kind": "asymmetric-cycle", "params": {"n": n}}, "tasks": ["S"]}
        for n in range(5, 15)
    ]
    store = ArtifactStore(str(tmp_path), hot_tier_bytes=8 * 1024 * 1024)
    with _RunningServer(ElectionService(store=store, workers=1)) as running:
        first = running.post("/election", payloads[0])
        for payload in payloads[1:]:
            running.post("/election", payload)
        before = running.get("/stats")
        again = running.post("/election", payloads[0])
        after = running.get("/stats")
    assert before["service"]["hot_tier_bytes"] == 8 * 1024 * 1024
    assert after["cache"]["hits"] == before["cache"]["hits"] + 1
    assert after["cache"]["store_hits"] == before["cache"]["store_hits"]
    assert after["cache"]["refinement_passes"] == before["cache"]["refinement_passes"]
    assert again["indices"] == first["indices"]


def test_warm_adjacency_replay_refines_nothing_outside_the_ledger(real_refinement_passes):
    """A memory hit by an equal request graph adopts the cached instance's
    engine and fingerprint, so a warm replay runs no real refinement pass:
    the ledger's ``refinement_passes`` certificate sees every pass."""
    from repro.scenarios import corpus_specs

    payloads = [
        {"graph": graph_to_dict(spec.build())}
        for spec in corpus_specs(16, seed=7, corpus="mixed")
    ]
    with _RunningServer(ElectionService(workers=1)) as running:
        cold = [running.post("/election", payload) for payload in payloads]
        cold_passes = real_refinement_passes.count
        ledger_before = running.get("/stats")["cache"]["refinement_passes"]
        warm = [running.post("/election", payload) for payload in payloads]
        ledger_after = running.get("/stats")["cache"]["refinement_passes"]
    assert cold_passes == ledger_before > 0  # the counting wrapper sees real work
    assert real_refinement_passes.count == cold_passes
    assert ledger_after == ledger_before
    assert [r["fingerprint"] for r in warm] == [r["fingerprint"] for r in cold]
    assert [r["indices"] for r in warm] == [r["indices"] for r in cold]


def test_a_path_shaped_base_is_400_and_never_reaches_the_filesystem(tmp_path):
    """A ``base`` string names a store alias, so only a fingerprint's shape
    may reach a path: an absolute path used to be joined into the object
    path, and the read-path quarantine renamed the file it named."""
    from repro.service.service import ServiceError, compute_election

    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "victim.rple").write_bytes(b"not a store object")
    payload = {"base": str(outside / "victim"), "delta": [{"op": "add-edge", "v": 0, "u": 4}]}
    store = ArtifactStore(str(tmp_path / "store"))
    with _RunningServer(ElectionService(store=store, workers=1)) as running:
        code, body = running.post_expecting_error("/election", payload)
    assert code == 400 and "64-hex fingerprint" in body["error"]
    # behind the parser, the store refuses the shape itself
    refinement_cache.attach_store(store)
    try:
        with pytest.raises(ServiceError) as info:
            compute_election(
                dict(payload, graph=None, spec=None, tasks=[Task("S")], max_depth=None,
                     max_states=1_000, advice=False)
            )
    finally:
        refinement_cache.attach_store(None)
    assert info.value.status == 404
    assert sorted(os.listdir(outside)) == ["victim.rple"]
    assert (outside / "victim.rple").read_bytes() == b"not a store object"
    assert store.stats()["corrupt_objects"] == 0


def test_an_ambiguous_fingerprint_base_is_a_409_conflict(tmp_path):
    plain = generators.torus_graph(3, 4)
    twisted = generators.twisted_torus_graph(3, 4, 1)
    store = ArtifactStore(str(tmp_path))
    with _RunningServer(ElectionService(store=store, workers=1)) as running:
        for graph in (plain, twisted):
            fingerprint = running.post("/election", {"graph": graph_to_dict(graph)})["fingerprint"]
        code, body = running.post_expecting_error(
            "/election", {"base": fingerprint, "delta": [{"op": "add-edge", "v": 0, "u": 5}]}
        )
    assert code == 409 and "spec or adjacency" in body["error"]


def test_stats_surfaces_every_layer(tmp_path):
    service = ElectionService(store=ArtifactStore(str(tmp_path)), workers=3)
    with _RunningServer(service) as running:
        running.post("/election", {"spec": {"kind": "asymmetric-cycle", "params": {"n": 6}}})
        stats = running.get("/stats")
    assert stats["service"]["queries"] == 1
    assert stats["service"]["workers"] == 3
    # the fields clients read: perfbench's config check and the CI serve smoke
    assert stats["service"]["backend"] == "thread"
    assert stats["service"]["concurrency"] == 3
    assert {"kernel_backend", "hot_tier_bytes"} <= set(stats["service"])
    assert "shards" not in stats
    assert {"hits", "misses", "refinement_passes", "evicted_bytes"} <= set(stats["cache"])
    assert {"searches", "states", "cells", "limit_hits"} <= set(stats["search"])
    assert stats["store"]["records"] == 1


def test_healthz():
    with _RunningServer(ElectionService(workers=1)) as running:
        body = running.get("/healthz")
    assert body["status"] == "ok"
    # every JSON response carries the serving request's trace id
    assert body["trace_id"].count("-") == 1


def test_client_errors():
    with _RunningServer(ElectionService(workers=1)) as running:
        code, body = running.post_expecting_error("/election", {"spec": {"kind": "no-such"}})
        assert code == 400 and "unknown graph kind" in body["error"]
        code, _ = running.post_expecting_error(
            "/election", {"graph": {"num_nodes": 2, "edges": [[0, 0, 1, 5]]}}
        )
        assert code == 400
        code, _ = running.post_expecting_error(
            "/election",
            {"graph": {"num_nodes": 2, "edges": [[0, 0, 1, 0]]}, "spec": {"kind": "star"}},
        )
        assert code == 400
        code, _ = running.post_expecting_error(
            "/election", {"spec": {"kind": "star", "params": {"leaves": 3}}, "tasks": ["X"]}
        )
        assert code == 400
        code, _ = running.post_expecting_error("/election", [1, 2, 3])
        assert code == 400
        # malformed JSON body
        request = urllib.request.Request(
            f"{running.base}/election", data=b"{not json", headers={}
        )
        try:
            urllib.request.urlopen(request)
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400
        # unknown path and wrong method
        try:
            running.get("/nope")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
        try:
            running.get("/election")
            raise AssertionError("expected 405")
        except urllib.error.HTTPError as error:
            assert error.code == 405
