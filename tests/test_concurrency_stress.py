"""Randomized concurrency stress schedules against live servers.

The model checker (``tests/test_verify.py``) proves the *protocol* has no
bad interleavings within its bounds; this suite hammers the *real*
implementation -- actual sockets, the actual compute pool -- with
hypothesis-generated schedules of hostile client behaviour:

* normal queries and NDJSON sweeps, interleaved,
* concurrent queries of one graph under different task lists, which share
  its cache entry and refine its engine at once,
* clients that disconnect mid-stream (RST, not FIN),
* clients that read the stream one tiny chunk at a time,
* malformed sweep-id probes.

After every schedule the server must *converge*: health endpoint alive, no
sweep left ``running``, every window slot released.  Schedules are
derandomized so a CI failure is reproducible locally by running the same
test.

Marked ``stress``: excluded from the tier-1 run (see ``pytest.ini``), run
by the dedicated CI job via ``-m stress``.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest
from test_service import _RunningServer
from test_service_batch import _post_stream

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ElectionService

pytestmark = pytest.mark.stress

#: Randomized schedules (the acceptance floor is 200).
EXAMPLES = 200
#: Seconds a server gets to reach quiescence after one schedule.
CONVERGE_TIMEOUT = 10.0

STRESS_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,  # wall time varies with the schedule; no per-example cap
    derandomize=True,  # CI failures replay locally with the same schedules
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# the server (module-scoped: the compute pool is amortized across schedules)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def thread_server():
    with _RunningServer(ElectionService(workers=4)) as running:
        yield running


# --------------------------------------------------------------------------- #
# schedule operations
# --------------------------------------------------------------------------- #
def _op_query(running, n: int) -> None:
    result = running.post(
        "/election", {"spec": {"kind": "asymmetric-cycle", "params": {"n": 5 + n}}}
    )
    assert result["fingerprint"]


#: Task lists for one graph.  Each is its own coalescing key, so the queries
#: run together and share the graph's refinement engine.
_TASK_VARIANTS = (["S"], ["PE"], ["S", "PE"], ["PE", "S"])


def _op_task_variants(running, tail: int, seed: int) -> None:
    """Query one graph under every task list at once; the answers must agree."""
    spec = {"kind": "beacon-tail", "params": {"blob": 60, "tail": tail, "seed": seed}}
    results, errors = {}, []

    def query(tasks) -> None:
        try:
            results[",".join(tasks)] = running.post("/election", {"spec": spec, "tasks": tasks})
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=query, args=(tasks,)) for tasks in _TASK_VARIANTS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [], errors
    assert len({result["fingerprint"] for result in results.values()}) == 1, results
    assert len({result["feasible"] for result in results.values()}) == 1, results
    for task in ("S", "PE"):
        assert len({r["indices"][task] for r in results.values() if task in r["indices"]}) == 1


def _op_sweep(running, count: int, seed: int, window: int) -> None:
    lines = _post_stream(
        running,
        {"sweep": {"corpus": "mixed", "count": count, "seed": seed}, "window": window},
    )
    assert lines[-1]["status"] == "done"
    assert lines[-1]["ok"] + lines[-1]["errors"] == count


def _raw_batch_socket(running, payload: dict) -> socket.socket:
    """POST a batch on a raw socket and return it with headers consumed."""
    body = json.dumps(payload).encode("utf-8")
    raw = socket.create_connection(("127.0.0.1", running.server.port), timeout=10)
    raw.sendall(
        (
            f"POST /elections HTTP/1.1\r\nHost: stress\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        + body
    )
    # consume the headers unbuffered (a makefile() reader would also swallow
    # however much of the NDJSON body fits its buffer)
    raw.settimeout(CONVERGE_TIMEOUT)
    buffered = b""
    while b"\r\n\r\n" not in buffered:
        byte = raw.recv(1)
        assert byte, f"connection closed during response headers: {buffered!r}"
        buffered += byte
    assert b" 200 " in buffered.split(b"\r\n", 1)[0], buffered
    return raw

def _op_disconnect(running, count: int, seed: int) -> None:
    """Read the header line, then hang up hard (RST) mid-stream."""
    raw = _raw_batch_socket(
        running, {"sweep": {"corpus": "mixed", "count": count, "seed": seed}, "window": 1}
    )
    try:
        raw.recv(256)
    finally:
        # SO_LINGER(1, 0): close() sends RST instead of FIN, the rudest exit
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()


def _op_slow_read(running, count: int, seed: int) -> None:
    """Drain a stream 64 bytes at a time with pauses (backpressure path)."""
    raw = _raw_batch_socket(
        running, {"sweep": {"corpus": "mixed", "count": count, "seed": seed}, "window": 1}
    )
    try:
        raw.settimeout(CONVERGE_TIMEOUT)
        chunks = []
        while True:
            chunk = raw.recv(64)
            if not chunk:
                break
            chunks.append(chunk)
            time.sleep(0.005)
    finally:
        raw.close()
    lines = [json.loads(line) for line in b"".join(chunks).splitlines()]
    assert lines[-1]["status"] == "done"


def _op_bad_sweep_id(running) -> None:
    try:
        running.get("/sweeps/ZZ..%2Fnope")
        raise AssertionError("expected 404")
    except urllib.error.HTTPError as error:
        assert error.code == 404


# --------------------------------------------------------------------------- #
# schedule strategies
# --------------------------------------------------------------------------- #
_counts = st.integers(min_value=1, max_value=4)
_seeds = st.integers(min_value=0, max_value=9)
_windows = st.integers(min_value=1, max_value=3)

_common_ops = st.one_of(
    st.tuples(st.just("query"), st.integers(min_value=0, max_value=6)),
    st.tuples(
        st.just("task_variants"),
        st.integers(min_value=100, max_value=160),
        st.integers(min_value=0, max_value=99),
    ),
    st.tuples(st.just("sweep"), _counts, _seeds, _windows),
    st.tuples(st.just("disconnect"), _counts, _seeds),
    st.tuples(st.just("slow_read"), _counts, _seeds),
    st.tuples(st.just("bad_id")),
)

_thread_schedules = st.lists(_common_ops, min_size=1, max_size=4)


def _run_op(running, op: tuple) -> None:
    kind, args = op[0], op[1:]
    if kind == "query":
        _op_query(running, *args)
    elif kind == "task_variants":
        _op_task_variants(running, *args)
    elif kind == "sweep":
        _op_sweep(running, *args)
    elif kind == "disconnect":
        _op_disconnect(running, *args)
    elif kind == "slow_read":
        _op_slow_read(running, *args)
    elif kind == "bad_id":
        _op_bad_sweep_id(running)
    else:  # pragma: no cover - strategy and dispatcher must stay in sync
        raise AssertionError(f"unknown op {kind!r}")


def _assert_converged(running) -> None:
    """The server reached quiescence: alive, no running sweeps, window drained."""
    assert running.get("/healthz")["status"] == "ok"
    deadline = time.time() + CONVERGE_TIMEOUT
    stats = None
    while time.time() < deadline:
        stats = running.get("/stats")
        if stats["batch"]["active"] == 0:
            break
        time.sleep(0.05)
    assert stats is not None and stats["batch"]["active"] == 0, (
        f"sweeps stuck running after {CONVERGE_TIMEOUT}s: {stats['batch']}"
    )
    scrape = urllib.request.urlopen(f"{running.base}/metrics").read().decode("utf-8")
    occupancy = next(
        line for line in scrape.splitlines() if line.startswith("repro_window_in_flight ")
    )
    assert occupancy.endswith(" 0"), f"window slot leaked: {occupancy}"
    # the span recorder's memory stays hard-capped no matter how hostile the
    # schedule was; anything over the cap shows up as `dropped`, not growth
    from repro.obs import default_recorder

    recorder = default_recorder.stats()
    assert recorder["traces"] <= recorder["max_traces"], recorder
    assert recorder["spans"] <= recorder["max_traces"] * recorder["max_spans_per_trace"], recorder
    # the snapshot /stats served respects the same cap; exact equality with the
    # live recorder would race against the spans of the /stats request itself
    span_cap = recorder["max_traces"] * recorder["max_spans_per_trace"]
    assert 0 <= stats["traces"]["spans"] <= span_cap, stats["traces"]
    assert stats["traces"]["dropped"] >= 0


# --------------------------------------------------------------------------- #
# the stress tests
# --------------------------------------------------------------------------- #
@STRESS_SETTINGS
@given(schedule=_thread_schedules)
def test_thread_backend_survives_hostile_schedules(thread_server, schedule):
    for op in schedule:
        _run_op(thread_server, op)
    _assert_converged(thread_server)

