"""Integration tests for the asyncio election-query service.

The whole suite runs against either compute backend: set
``REPRO_SERVICE_BACKEND=process`` to drive every service through the
sharded worker-process pool instead of the default thread pool (this is
what the CI backend matrix does).  Behaviour, responses and the aggregated
``/stats`` invariants are backend-independent by contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.advice.map_advice import encode_map_advice
from repro.core import Task, all_election_indices
from repro.portgraph import generators
from repro.portgraph.io import graph_to_dict
from repro.runner import refinement_cache
from repro.service import ElectionServer, ElectionService
from repro.store import ArtifactStore

#: Which compute backend the service tests exercise (CI runs both).
SERVICE_BACKEND = os.environ.get("REPRO_SERVICE_BACKEND", "thread")


def make_service(**kwargs) -> ElectionService:
    """An :class:`ElectionService` on the suite's backend (default thread).

    Under the process backend the shard count is capped so tests do not pay
    for worker spawns they never use.
    """
    kwargs.setdefault("backend", SERVICE_BACKEND)
    if kwargs["backend"] == "process":
        kwargs.setdefault("shards", min(kwargs.get("workers", 4), 2))
    return ElectionService(**kwargs)


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


def test_submit_matches_in_process_api_byte_exactly():
    graph = generators.asymmetric_cycle(7)
    with _RunningServer(make_service(workers=2)) as running:
        result = running.post("/election", {"graph": graph_to_dict(graph), "advice": True})
    direct = all_election_indices(graph)
    assert result["indices"] == {task.value: direct[task] for task in Task.ordered()}
    assert result["advice"]["map"] == encode_map_advice(graph)
    assert result["feasible"] is True
    assert result["fingerprint"] == graph.fingerprint()
    assert result["coalesced"] is False


def test_generator_spec_submission_and_task_subset():
    with _RunningServer(make_service(workers=1)) as running:
        result = running.post(
            "/election",
            {"spec": {"kind": "star", "params": {"leaves": 4}}, "tasks": ["S", "PE"]},
        )
    assert result["graph"] == "star(leaves=4)"
    assert set(result["indices"]) == {"S", "PE"}
    assert result["indices"]["S"] == 0


def test_identical_inflight_requests_coalesce():
    graph = generators.asymmetric_cycle(7)
    payload = {"graph": graph_to_dict(graph)}
    # the artificial delay keeps the first computation in flight while the
    # duplicates arrive, making the coalescing deterministic
    with _RunningServer(make_service(workers=2, compute_delay=0.3)) as running:
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
    """On the thread backend the counted real passes equal ``expected``.

    Under the process backend the work runs in shard workers, which the
    in-process counter cannot see; only the ledger is checked there.
    """
    if SERVICE_BACKEND == "thread":
        assert counter.count == expected


def test_store_backed_service_answers_cold_with_zero_refinement(tmp_path, real_refinement_passes):
    graph = generators.asymmetric_cycle(7)
    payload = {"graph": graph_to_dict(graph), "advice": True}
    store = ArtifactStore(str(tmp_path))
    with _RunningServer(make_service(store=store, workers=1)) as running:
        warm = running.post("/election", payload)
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
    assert store.stats()["records"] == 1
    assert cold_ledger > 0
    assert_real_passes(real_refinement_passes, cold_ledger)

    # simulate a service restart: fresh process-wide cache, same store
    refinement_cache.clear()
    with _RunningServer(make_service(store=ArtifactStore(str(tmp_path)), workers=1)) as running:
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
    with _RunningServer(make_service(store=store, workers=1)) as running:
        by_spec = running.post("/election", {"spec": spec})
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
    assert store.stats()["records"] == 1
    assert cold_ledger > 0
    assert_real_passes(real_refinement_passes, cold_ledger)

    refinement_cache.clear()
    with _RunningServer(make_service(store=ArtifactStore(str(tmp_path)), workers=1)) as running:
        by_adjacency = running.post("/election", {"graph": graph_dict})
        stats = running.get("/stats")
    assert by_adjacency["graph"] == "submitted-under-another-name" != by_spec["graph"]
    assert by_adjacency["indices"] == by_spec["indices"]
    assert by_adjacency["fingerprint"] == by_spec["fingerprint"]
    assert stats["cache"]["store_hits"] == 1
    assert stats["cache"]["refinement_passes"] == 0
    assert_real_passes(real_refinement_passes, cold_ledger)
    assert ArtifactStore(str(tmp_path)).stats()["records"] == 1


def test_warm_adjacency_replay_refines_nothing_outside_the_ledger(real_refinement_passes):
    """A memory hit by an equal request graph adopts the cached instance's
    engine and fingerprint, so a warm replay runs no real refinement pass:
    the ledger's ``refinement_passes`` certificate sees every pass."""
    from repro.scenarios import corpus_specs

    payloads = [
        {"graph": graph_to_dict(spec.build())}
        for spec in corpus_specs(16, seed=7, corpus="mixed")
    ]
    # thread backend on purpose: the passes must run in this process to be counted
    with _RunningServer(ElectionService(backend="thread", workers=1)) as running:
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


def test_stats_surfaces_every_layer(tmp_path):
    service = make_service(store=ArtifactStore(str(tmp_path)), workers=3)
    with _RunningServer(service) as running:
        running.post("/election", {"spec": {"kind": "asymmetric-cycle", "params": {"n": 6}}})
        stats = running.get("/stats")
    assert stats["service"]["queries"] == 1
    assert stats["service"]["workers"] == 3
    assert {"hits", "misses", "refinement_passes", "evicted_bytes"} <= set(stats["cache"])
    assert {"searches", "states", "cells", "limit_hits"} <= set(stats["search"])
    assert stats["store"]["records"] == 1


def test_healthz():
    with _RunningServer(make_service(workers=1)) as running:
        body = running.get("/healthz")
    assert body["status"] == "ok"
    # every JSON response carries the serving request's trace id
    assert body["trace_id"].count("-") == 1


def test_client_errors():
    with _RunningServer(make_service(workers=1)) as running:
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
