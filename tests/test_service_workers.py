"""Tests for the sharded process backend and the service lifecycle fixes.

Tentpole coverage: deterministic shard routing, byte-identity of process-
vs thread-backend responses over the 200-graph mixed corpus, worker
recycling, crash detection with a single resubmit, and the graceful
thread-backend fallback.  Plus regression tests for the three lifecycle
bugs fixed in the same PR: malformed ``Content-Length``/header lines are
400s (not 500s or silent acceptance), a sweep whose client vanishes
between compute and emit is marked ``cancelled``, and
``ElectionService.close`` is idempotent and leak-free.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest
from test_service import _RunningServer, make_service
from test_service_batch import _post_stream

from repro.runner import refinement_cache
from repro.service import (
    BatchCoordinator,
    ElectionService,
    ServiceError,
    deterministic_response,
    shard_index,
)
from repro.service import workers as worker_backends
from repro.service.batch import expand_sweep
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


MIXED_SWEEP = {"corpus": "mixed", "count": 200, "seed": 4}


# --------------------------------------------------------------------------- #
# shard routing
# --------------------------------------------------------------------------- #
def test_shard_index_is_deterministic_and_spreads():
    keys = [f"{value:032x}" for value in range(997)]
    first = [shard_index(key, 4) for key in keys]
    second = [shard_index(key, 4) for key in keys]
    assert first == second
    assert set(first) == {0, 1, 2, 3}, "997 distinct keys must hit every shard"
    # non-hex keys route through a stable digest, not the salted builtin hash
    assert shard_index("not hex!", 4) == shard_index("not hex!", 4)
    with pytest.raises(ValueError):
        shard_index("00", 0)


def test_same_graph_routes_to_same_shard_regardless_of_parameters():
    service = ElectionService(workers=1)
    try:
        base = {"spec": {"kind": "asymmetric-cycle", "params": {"n": 9}}}
        _, key_a, route_a = service._parse(dict(base))
        _, key_b, route_b = service._parse(dict(base, tasks=["S"], max_states=999))
        _, key_c, route_c = service._parse(dict(base, advice=True))
        # different answers -> different coalescing keys ...
        assert len({key_a, key_b, key_c}) == 3
        # ... but one graph -> one route key -> one warm shard
        assert route_a == route_b == route_c
        other = {"spec": {"kind": "asymmetric-cycle", "params": {"n": 11}}}
        _, _, route_other = service._parse(other)
        assert route_other != route_a
    finally:
        service.close()


def test_shard_caches_stay_sticky_for_repeat_submissions():
    payload = {"spec": {"kind": "asymmetric-cycle", "params": {"n": 9}}}
    with _RunningServer(
        ElectionService(backend="process", shards=2, workers=2)
    ) as running:
        for _ in range(3):
            running.post("/election", payload)
            time.sleep(0.05)  # let the coalescing future clear between posts
        stats = running.get("/stats")
    assert stats["service"]["backend"] == "process"
    per_shard = stats["shards"]["per_shard"]
    assert sum(row["dispatched"] for row in per_shard) == 3
    assert max(row["dispatched"] for row in per_shard) == 3, (
        "repeat submissions of one graph must all land on its owning shard"
    )
    # the owning shard refined the graph exactly once and served the rest warm
    assert stats["cache"]["misses"] == 1


# --------------------------------------------------------------------------- #
# thread/process equivalence
# --------------------------------------------------------------------------- #
def _strip_trace(lines):
    # trace ids are per-request (and per-server-nonce) by design: the only
    # field allowed to differ between two streams of the same batch
    return [{k: v for k, v in line.items() if k != "trace_id"} for line in lines]


def test_process_backend_byte_identical_to_thread_on_mixed_corpus(
    tmp_path, real_refinement_passes
):
    """Cold thread and cold 4-shard process streams are byte-identical; the
    cold stream equals sequential singles; store-warm thread and process
    replays of it equal it again, with zero refinement passes."""
    store_path = str(tmp_path / "store")
    with _RunningServer(
        ElectionService(store=ArtifactStore(store_path), backend="thread", workers=4)
    ) as running:
        thread_lines = _post_stream(running, {"sweep": MIXED_SWEEP})
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
        cold_passes = real_refinement_passes.count
        # every streamed item equals a sequential POST /election
        for payload, line in zip(expand_sweep(MIXED_SWEEP), thread_lines[1:-1]):
            single = deterministic_response(running.post("/election", payload))
            streamed = {
                k: v for k, v in line.items() if k not in ("index", "status", "trace_id")
            }
            assert streamed == single, line["index"]
    assert thread_lines[-1]["ok"] == MIXED_SWEEP["count"]
    assert not thread_lines[-1]["errors"]
    assert cold_passes == cold_ledger > 0
    cold_items = _strip_trace(thread_lines[1:-1])

    refinement_cache.clear()
    with _RunningServer(
        ElectionService(backend="process", shards=4, workers=4)
    ) as running:
        process_lines = _post_stream(running, {"sweep": MIXED_SWEEP})
        stats = running.get("/stats")
    assert stats["service"]["backend"] == "process"
    assert json.dumps(_strip_trace(thread_lines), sort_keys=True) == json.dumps(
        _strip_trace(process_lines), sort_keys=True
    ), "process-backend NDJSON must be byte-identical to the thread backend"
    # the work genuinely happened in the shard workers, not the parent
    assert stats["cache"]["misses"] > 0
    assert refinement_cache.stats()["misses"] == 0

    # store-warm replays: a fresh service over the same store, on each backend
    for backend in ("thread", "process"):
        refinement_cache.clear()
        replay_passes = real_refinement_passes.count
        with _RunningServer(
            ElectionService(
                store=ArtifactStore(store_path), backend=backend, shards=4, workers=4
            )
        ) as running:
            replay_lines = _post_stream(running, {"sweep": MIXED_SWEEP})
            stats = running.get("/stats")
        assert stats["service"]["backend"] == backend, "no fallback"
        if backend == "process":
            assert stats["shards"]["crashes"] == 0
        assert replay_lines[-1]["ok"] == MIXED_SWEEP["count"]
        assert _strip_trace(replay_lines[1:-1]) == cold_items, backend
        assert stats["cache"]["refinement_passes"] == 0, backend
        assert real_refinement_passes.count == replay_passes, backend


# --------------------------------------------------------------------------- #
# recycling and crash recovery
# --------------------------------------------------------------------------- #
def test_worker_recycled_after_task_budget():
    items = [
        {"spec": {"kind": "asymmetric-cycle", "params": {"n": n}}} for n in (5, 6, 7)
    ]
    with _RunningServer(
        ElectionService(backend="process", shards=1, workers=1, recycle_after=2)
    ) as running:
        for item in items:
            running.post("/election", item)
        stats = running.get("/stats")
    shard = stats["shards"]["per_shard"][0]
    assert shard["dispatched"] == 3
    assert shard["recycles"] == 1, "the worker must retire after its 2-task budget"
    assert stats["shards"]["spawns"] == 2
    assert shard["crashes"] == 0
    # counters of the retired worker survive: all three tasks are accounted
    assert shard["jobs"] == 3
    assert stats["cache"]["misses"] == 3


def test_worker_crash_detected_and_task_resubmitted_once():
    with _RunningServer(
        ElectionService(backend="process", shards=1, workers=1)
    ) as running:
        running.post("/election", {"spec": {"kind": "star", "params": {"leaves": 4}}})
        stats = running.get("/stats")
        victim = stats["shards"]["per_shard"][0]["pid"]
        assert victim is not None
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 10
        while time.time() < deadline:  # SIGKILL delivery is asynchronous
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        # the next query lands on the dead shard, which respawns and resubmits
        result = running.post(
            "/election", {"spec": {"kind": "asymmetric-cycle", "params": {"n": 6}}}
        )
        stats = running.get("/stats")
    assert result["feasible"] is True
    shard = stats["shards"]["per_shard"][0]
    assert shard["crashes"] == 1
    assert shard["pid"] is not None and shard["pid"] != victim


def test_process_backend_falls_back_to_thread_when_unavailable(monkeypatch, capsys):
    def broken_backend(*args, **kwargs):
        raise OSError("no multiprocessing on this platform")

    monkeypatch.setattr(worker_backends, "ProcessShardBackend", broken_backend)
    service = ElectionService(backend="process", shards=2)
    try:
        assert service.backend == "thread"
        assert "falling back to the thread backend" in capsys.readouterr().err
    finally:
        service.close()


# --------------------------------------------------------------------------- #
# satellite: HTTP request parsing hardening
# --------------------------------------------------------------------------- #
def _raw_request(running, request: bytes) -> int:
    """Send raw bytes to the server; return the HTTP status code."""
    host, port = "127.0.0.1", running.server.port
    with socket.create_connection((host, port), timeout=10) as raw:
        raw.sendall(request)
        reader = raw.makefile("rb")
        status_line = reader.readline().decode("latin-1")
    return int(status_line.split()[1])


def test_negative_and_garbage_content_length_are_400():
    body = b'{"spec": {"kind": "star", "params": {"leaves": 3}}}'
    with _RunningServer(make_service(workers=1)) as running:
        for bad_length in (b"-5", b"12abc", b"+12", b"1_0", b"0x10"):
            status = _raw_request(
                running,
                b"POST /election HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + bad_length + b"\r\n\r\n" + body,
            )
            assert status == 400, f"Content-Length {bad_length!r} must be a 400"
        # a valid request on the same server still works
        status = _raw_request(
            running,
            b"POST /election HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert status == 200


def test_header_line_without_colon_is_400():
    with _RunningServer(make_service(workers=1)) as running:
        status = _raw_request(
            running,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nNotAHeaderLine\r\n\r\n",
        )
        assert status == 400
        status = _raw_request(
            running,
            b"GET /healthz HTTP/1.1\r\n: empty-name\r\n\r\n",
        )
        assert status == 400
        assert running.get("/healthz")["status"] == "ok"


# --------------------------------------------------------------------------- #
# satellite: sweep-status leak on emit failure
# --------------------------------------------------------------------------- #
def _stream_with_failing_emit(service: ElectionService, fail_at: int):
    """Run one 3-item sweep whose emit raises on call number ``fail_at``."""
    coordinator = BatchCoordinator(service)
    request = coordinator.prepare(
        json.dumps(
            {
                "items": [
                    {"spec": {"kind": "star", "params": {"leaves": n}}} for n in (3, 4, 5)
                ]
            }
        ).encode("utf-8")
    )
    calls = {"count": 0}

    async def emit(line):
        calls["count"] += 1
        if calls["count"] >= fail_at:
            raise ConnectionResetError("client went away")

    with pytest.raises(ConnectionResetError):
        asyncio.run(coordinator.stream(request, emit))
    return coordinator, request.sweep_id


def test_disconnect_before_header_marks_sweep_cancelled():
    service = ElectionService(workers=2)
    try:
        coordinator, sweep_id = _stream_with_failing_emit(service, fail_at=1)
        status = coordinator.sweep_status(sweep_id)
        assert status is not None and status["state"] == "cancelled"
    finally:
        service.close()


def test_disconnect_between_compute_and_emit_marks_sweep_cancelled():
    service = ElectionService(workers=2)
    try:
        # the header emits fine; the first *item* line fails after its
        # computation completed -- exactly the compute-to-emit gap
        coordinator, sweep_id = _stream_with_failing_emit(service, fail_at=2)
        status = coordinator.sweep_status(sweep_id)
        assert status is not None and status["state"] == "cancelled"
        assert coordinator.stats()["cancelled"] == 1
    finally:
        service.close()


# --------------------------------------------------------------------------- #
# satellite: deterministic, idempotent shutdown
# --------------------------------------------------------------------------- #
def test_thread_service_close_is_idempotent_and_joins_threads():
    service = ElectionService(workers=3)

    async def run_one():
        await service.query({"spec": {"kind": "star", "params": {"leaves": 3}}})

    asyncio.run(run_one())
    assert any(t.name.startswith("repro-serve") for t in threading.enumerate())
    service.close()
    service.close()  # idempotent
    assert not any(
        t.name.startswith("repro-serve") and t.is_alive() for t in threading.enumerate()
    ), "close() must join the compute pool's threads deterministically"


def test_process_service_close_terminates_workers_idempotently():
    service = ElectionService(backend="process", shards=2, workers=2)

    async def run_one():
        await service.query({"spec": {"kind": "star", "params": {"leaves": 3}}})

    asyncio.run(run_one())
    pids = [pid for pid in service._backend.shard_pids() if pid is not None]
    assert pids, "at least one shard worker must be live"
    service.close()
    service.close()  # idempotent
    deadline = time.time() + 10
    while time.time() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        if not alive:
            break
        time.sleep(0.05)
    assert not alive, f"shard workers {alive} must not outlive close()"
    # a closed service refuses new work instead of silently respawning
    with pytest.raises(ServiceError):
        asyncio.run(service.query({"spec": {"kind": "star", "params": {"leaves": 3}}}))
