"""The compute pool's certificates and the service lifecycle fixes.

The mixed-corpus certificate: every streamed item of a 200-graph batch is
byte-identical to a sequential ``POST /election``, the real refinement
passes equal the cache's ledger, and a store-warm replay reproduces the
cold stream with zero passes.  The pool's bounds: it refuses fewer than
one worker, runs at most ``workers`` computations at once, keys coalescing
by answer, and shares one refinement per graph across its threads.  Plus
regression tests for three lifecycle bugs: malformed
``Content-Length``/header lines are 400s (not 500s or silent acceptance), a
sweep whose client vanishes between compute and emit is marked
``cancelled``, and ``ElectionService.close`` is idempotent, joins the
pool's threads and leaves a service that refuses new work.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest
from test_service import _RunningServer
from test_service_batch import _post_stream

from repro.runner import refinement_cache
from repro.service import (
    BatchCoordinator,
    ElectionService,
    ServiceError,
    deterministic_response,
)
from repro.service import workers as worker_backends
from repro.service.batch import expand_sweep
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


MIXED_SWEEP = {"corpus": "mixed", "count": 200, "seed": 4}


# --------------------------------------------------------------------------- #
# the mixed-corpus certificate
# --------------------------------------------------------------------------- #
def _strip_trace(lines):
    # trace ids are per-request (and per-server-nonce) by design: the only
    # field allowed to differ between two streams of the same batch
    return [{k: v for k, v in line.items() if k != "trace_id"} for line in lines]


def test_mixed_corpus_batch_matches_singles_and_replays_with_zero_passes(
    tmp_path, real_refinement_passes
):
    """The cold stream equals sequential singles, its real refinement passes
    equal the ledger, and a store-warm replay of it equals it again with
    zero refinement passes, in the ledger and in fact."""
    store_path = str(tmp_path / "store")
    with _RunningServer(
        ElectionService(store=ArtifactStore(store_path), workers=4)
    ) as running:
        cold_lines = _post_stream(running, {"sweep": MIXED_SWEEP})
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
        cold_passes = real_refinement_passes.count
        # every streamed item equals a sequential POST /election
        for payload, line in zip(expand_sweep(MIXED_SWEEP), cold_lines[1:-1]):
            single = deterministic_response(running.post("/election", payload))
            streamed = {
                k: v for k, v in line.items() if k not in ("index", "status", "trace_id")
            }
            assert streamed == single, line["index"]
    assert cold_lines[-1]["ok"] == MIXED_SWEEP["count"]
    assert not cold_lines[-1]["errors"]
    assert cold_passes == cold_ledger > 0
    cold_items = _strip_trace(cold_lines[1:-1])

    # store-warm replay: a fresh service and cache over the same store
    refinement_cache.clear()
    replay_passes = real_refinement_passes.count
    with _RunningServer(
        ElectionService(store=ArtifactStore(store_path), workers=4)
    ) as running:
        replay_lines = _post_stream(running, {"sweep": MIXED_SWEEP})
        stats = running.get("/stats")
    assert replay_lines[-1]["ok"] == MIXED_SWEEP["count"]
    assert _strip_trace(replay_lines[1:-1]) == cold_items
    assert stats["cache"]["refinement_passes"] == 0
    assert real_refinement_passes.count == replay_passes


# --------------------------------------------------------------------------- #
# the bounded pool
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [0, -1])
def test_a_pool_of_fewer_than_one_worker_is_refused(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        ElectionService(workers=workers)


def test_the_pool_runs_at_most_workers_computations_at_once(monkeypatch):
    release = threading.Event()
    lock = threading.Lock()
    seen = {"running": 0, "peak": 0, "started": 0}

    def held_computation(parsed):
        with lock:
            seen["running"] += 1
            seen["started"] += 1
            seen["peak"] = max(seen["peak"], seen["running"])
        release.wait(10)
        with lock:
            seen["running"] -= 1
        return {"item": parsed["item"]}

    monkeypatch.setattr(worker_backends, "compute_election", held_computation)
    backend = worker_backends.ThreadBackend(workers=2)

    async def scenario():
        pending = [asyncio.ensure_future(backend.submit({"item": i})) for i in range(5)]
        deadline = time.monotonic() + 10
        while seen["started"] < 2 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # both threads are held: the other three wait in the queue
        queued = backend.queue_depth()
        release.set()
        results = await asyncio.gather(*pending)
        return queued, results, backend.queue_depth()

    try:
        queued, results, drained = asyncio.run(scenario())
    finally:
        release.set()
        backend.close()
    assert (queued, drained) == (3, 0)
    assert results == [{"item": i} for i in range(5)]
    assert seen == {"running": 0, "peak": 2, "started": 5}


def test_the_coalescing_key_separates_the_answers_of_one_graph():
    """One key per answer: every field that changes the answer changes the
    key, and nothing else does (key order, defaults spelled out)."""
    service = ElectionService(workers=1)
    try:
        base = {"spec": {"kind": "asymmetric-cycle", "params": {"n": 9}}}
        parsed, key = service._parse(dict(base))
        assert parsed["spec"] == base["spec"]
        variants = [
            dict(base, tasks=["S"]),
            dict(base, max_states=999),
            dict(base, max_depth=3),
            dict(base, advice=True),
            {"spec": {"kind": "asymmetric-cycle", "params": {"n": 11}}},
        ]
        keys = {key} | {service._parse(variant)[1] for variant in variants}
        assert len(keys) == 1 + len(variants)
        reordered = {"spec": {"params": {"n": 9}, "kind": "asymmetric-cycle"}}
        assert service._parse(reordered)[1] == key
        spelled_out = dict(
            base, tasks=["S", "PE", "PPE", "CPPE"], max_states=200_000, advice=False
        )
        assert service._parse(spelled_out)[1] == key
    finally:
        service.close()


def test_repeat_submissions_of_one_graph_refine_it_once(real_refinement_passes):
    """The pool's threads share the process-wide cache: later queries of a
    graph, whatever their tasks, run no refinement pass."""
    payload = {"spec": {"kind": "asymmetric-cycle", "params": {"n": 9}}}
    with _RunningServer(ElectionService(workers=2)) as running:
        first = running.post("/election", payload)
        cold = real_refinement_passes.count
        again = [
            running.post("/election", dict(payload, tasks=tasks))
            for tasks in (["S"], ["PE", "CPPE"], ["S", "PE", "PPE", "CPPE"])
        ]
        stats = running.get("/stats")
    assert cold > 0
    assert real_refinement_passes.count == cold
    assert stats["cache"]["misses"] == 1
    assert stats["cache"]["refinement_passes"] == cold
    assert stats["service"]["computed"] == 4
    assert stats["service"]["coalesced"] == 0
    for answer in again:
        assert answer["fingerprint"] == first["fingerprint"]
        assert answer["indices"] == {
            task: first["indices"][task] for task in answer["indices"]
        }


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
    with _RunningServer(ElectionService(workers=1)) as running:
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
    with _RunningServer(ElectionService(workers=1)) as running:
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


def test_a_closed_service_refuses_new_work_with_503():
    service = ElectionService(workers=1)
    service.close()
    with pytest.raises(ServiceError) as refused:
        asyncio.run(service.query({"spec": {"kind": "star", "params": {"leaves": 3}}}))
    assert refused.value.status == 503
    assert service.stats()["service"]["errors"] == 1
    assert service.in_flight == 0

