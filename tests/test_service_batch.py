"""Integration tests for the batch/streaming endpoint (``POST /elections``).

Error paths, backpressure and consistency: malformed NDJSON items fail per
item while the stream continues; envelope problems and oversized sweeps are
clean 400s; a mid-stream client disconnect cancels the sweep without hurting
the server; coalescing holds across batch items and single queries with
byte-identical results; the in-flight window genuinely bounds concurrency.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest
from test_service import _RunningServer, assert_real_passes, delay_computations

from repro.portgraph import generators
from repro.portgraph.io import graph_to_dict
from repro.runner import refinement_cache
from repro.service import ElectionService, deterministic_response
from repro.service.batch import MAX_BATCH_ITEMS, expand_sweep
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


def _post_stream(running, payload) -> list:
    """POST a batch and return the parsed NDJSON lines."""
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(f"{running.base}/elections", data=body)
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in response.read().splitlines()]


def _post_expecting_status(running, payload, status: int) -> dict:
    try:
        _post_stream(running, payload)
    except urllib.error.HTTPError as error:
        assert error.code == status
        return json.loads(error.read())
    raise AssertionError(f"expected HTTP {status}")


# --------------------------------------------------------------------------- #
# consistency
# --------------------------------------------------------------------------- #
def test_corpus_sweep_items_byte_identical_to_sequential_singles():
    sweep = {"corpus": "mixed", "count": 11, "seed": 13}
    with _RunningServer(ElectionService(workers=4)) as running:
        lines = _post_stream(running, {"sweep": sweep, "window": 4})
        header, items, trailer = lines[0], lines[1:-1], lines[-1]
        assert header["items"] == 11
        assert trailer == {
            "sweep": header["sweep"],
            "status": "done",
            "ok": 11,
            "errors": 0,
            "trace_id": header["trace_id"],
        }
        # one request, one trace id, stamped on every line of the stream
        assert {line["trace_id"] for line in lines} == {header["trace_id"]}
        assert [line["index"] for line in items] == list(range(11))
        for payload, line in zip(expand_sweep(sweep), items):
            single = deterministic_response(running.post("/election", payload))
            streamed = {
                k: v for k, v in line.items() if k not in ("index", "status", "trace_id")
            }
            assert json.dumps(streamed, sort_keys=True) == json.dumps(single, sort_keys=True)


def test_duplicate_inflight_batch_items_coalesce_with_identical_results(monkeypatch):
    item = {"spec": {"kind": "asymmetric-cycle", "params": {"n": 9}}}
    delay_computations(monkeypatch, 0.25)
    with _RunningServer(ElectionService(workers=4)) as running:
        lines = _post_stream(running, {"items": [item, item, item], "window": 3})
        stats = running.get("/stats")
    results = [json.dumps(line, sort_keys=True) for line in lines[1:-1]]
    assert len(set(r.replace(f'"index": {i}', '"index": 0') for i, r in enumerate(results))) == 1
    assert stats["service"]["computed"] == 1
    assert stats["service"]["coalesced"] == 2
    assert stats["batch"]["batches"] == 1 and stats["batch"]["batch_items"] == 3


# --------------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------------- #
def test_malformed_ndjson_items_fail_per_item_not_per_request():
    body = (
        b'{"spec": {"kind": "star", "params": {"leaves": 3}}}\n'
        b"{definitely not json\n"
        b"[1, 2, 3]\n"
        b'{"spec": {"kind": "erdos-renyi", "params": {"n": 6, "seed": 1}}}\n'
    )
    with _RunningServer(ElectionService(workers=2)) as running:
        lines = _post_stream(running, body)
    statuses = [line["status"] for line in lines[1:-1]]
    assert statuses == ["ok", "error", "error", "ok"]
    assert "malformed NDJSON line" in lines[2]["error"]
    assert "must be a JSON object" in lines[3]["error"]
    assert lines[-1] == {
        "sweep": lines[0]["sweep"],
        "status": "done",
        "ok": 2,
        "errors": 2,
        "trace_id": lines[0]["trace_id"],
    }


def test_single_line_ndjson_body_is_a_one_item_batch():
    # one NDJSON line parses as a plain JSON object; the contract says it is
    # still a batch of one item, not a malformed envelope
    body = b'{"spec": {"kind": "star", "params": {"leaves": 3}}}\n'
    with _RunningServer(ElectionService(workers=1)) as running:
        lines = _post_stream(running, body)
    assert lines[0]["items"] == 1
    assert lines[1]["status"] == "ok" and lines[1]["graph"] == "star(leaves=3)"
    assert lines[-1] == {
        "sweep": lines[0]["sweep"],
        "status": "done",
        "ok": 1,
        "errors": 0,
        "trace_id": lines[0]["trace_id"],
    }


def test_item_level_query_errors_do_not_abort_the_stream():
    items = [
        {"spec": {"kind": "no-such-kind"}},
        {"spec": {"kind": "star", "params": {"leaves": 3}}, "tasks": ["X"]},
        {"graph": {"num_nodes": 2, "edges": [[0, 0, 1, 5]]}},
        {"spec": {"kind": "star", "params": {"leaves": 4}}},
    ]
    with _RunningServer(ElectionService(workers=2)) as running:
        lines = _post_stream(running, {"items": items})
    assert [line["status"] for line in lines[1:-1]] == ["error", "error", "error", "ok"]
    assert "unknown graph kind" in lines[1]["error"]
    assert "unknown task" in lines[2]["error"]
    assert lines[4]["graph"] == "star(leaves=4)"


def test_oversized_delta_is_a_400_before_any_graph_is_built(monkeypatch):
    from repro.runner import GraphSpec
    from repro.service.service import MAX_DELTA_OPS

    builds = []
    real_build = GraphSpec.build

    def counting_build(self):
        builds.append(self.label)
        return real_build(self)

    monkeypatch.setattr(GraphSpec, "build", counting_build)
    oversized = {
        "base": {"kind": "grid", "params": {"rows": 3, "cols": 3}},
        "delta": [{"op": "add-edge", "v": 0, "u": 4}] * (MAX_DELTA_OPS + 1),
    }
    plain = {"graph": graph_to_dict(generators.asymmetric_cycle(7))}
    with _RunningServer(ElectionService(workers=2)) as running:
        code, body = running.post_expecting_error("/election", oversized)
        assert code == 400 and "delta too large" in body["error"]
        lines = _post_stream(running, {"items": [plain, oversized, plain]})
    items = lines[1:-1]
    assert [line["status"] for line in items] == ["ok", "error", "ok"]
    assert "delta too large" in items[1]["error"]
    assert builds == []


@pytest.mark.parametrize("field", ["spec", "base"])
@pytest.mark.parametrize(
    "spec, fragment",
    [
        ({"kind": "path", "params": [9]}, "'params' must be an object"),
        ({"kind": ["path"]}, "string 'kind'"),
    ],
    ids=["params-list", "kind-list"],
)
def test_a_malformed_spec_object_is_a_400_alone_and_in_a_batch(field, spec, fragment):
    """A spec's ``kind`` must be a string and its ``params`` an object;
    anything else used to raise ``TypeError`` out of the computation: a 500
    on ``/election``, an internal error as a batch item."""
    if field == "spec":
        payload = {"spec": spec}
    else:
        payload = {"base": spec, "delta": [{"op": "add-edge", "v": 0, "u": 2}]}
    with _RunningServer(ElectionService(workers=1)) as running:
        code, body = running.post_expecting_error("/election", payload)
        lines = _post_stream(running, {"items": [payload]})
    assert code == 400 and fragment in body["error"]
    assert lines[1]["status"] == "error" and fragment in lines[1]["error"]
    assert not lines[1]["error"].startswith("internal error")


@pytest.mark.parametrize(
    "field, value",
    [("max_states", True), ("max_states", False), ("max_depth", True), ("max_depth", False)],
)
def test_a_boolean_search_parameter_is_a_400_alone_and_in_a_batch(field, value):
    """``bool`` subclasses ``int``, so ``{"max_states": true}`` used to run
    with budget 1 (PPE/CPPE search-limited) and ``{"max_depth": false}`` at
    depth 0, instead of being refused like any other non-integer."""
    payload = {"spec": {"kind": "star", "params": {"leaves": 3}}, field: value}
    with _RunningServer(ElectionService(workers=1)) as running:
        code, body = running.post_expecting_error("/election", payload)
        lines = _post_stream(running, {"items": [payload]})
        swept = _post_stream(running, {"sweep": {"corpus": "mixed", "count": 1, field: value}})
    assert code == 400 and f"'{field}'" in body["error"]
    for line in (lines[1], swept[1]):
        assert line["status"] == "error" and f"'{field}'" in line["error"]


#: A 3×3 grid base; node 0 is a corner and node 4 the degree-4 centre.
_GRID_BASE = {"kind": "grid", "params": {"rows": 3, "cols": 3}}


@pytest.mark.parametrize(
    "op, fragment",
    [
        ({"op": "add-edge", "v": "0", "u": 4}, "'v' must be an integer"),
        ({"op": "add-edge", "v": 0, "u": 4.9}, "'u' must be an integer"),
        ({"op": "add-edge", "v": True, "u": 4}, "'v' must be an integer"),
        ({"op": "add-node", "anchor": 4.0}, "'anchor' must be an integer"),
        ({"op": "remove-node", "v": False}, "'v' must be an integer"),
        ({"op": "relabel-ports", "v": 4, "perm": [1, 0, "3", 2]}, "'perm' must be a list"),
        ({"op": "relabel-ports", "v": 4, "perm": [True, False, 3, 2]}, "'perm' must be a list"),
        ({"op": "relabel-ports", "v": 4, "perm": "1032"}, "'perm' must be a list"),
    ],
    ids=["v-string", "u-float", "v-true", "anchor-float", "v-false", "perm-string",
         "perm-booleans", "perm-not-a-list"],
)
def test_a_delta_field_that_is_no_json_integer_is_a_400_alone_and_in_a_batch(op, fragment):
    """Node ids and ``perm`` entries used to be coerced with ``int()``, so
    ``"v": "0"``, ``"u": 4.9`` and ``"v": true`` edited nodes 0, 4 and 1 and
    were answered 200."""
    payload = {"base": _GRID_BASE, "delta": [op]}
    with _RunningServer(ElectionService(workers=1)) as running:
        code, body = running.post_expecting_error("/election", payload)
        lines = _post_stream(running, {"items": [payload]})
    assert code == 400 and fragment in body["error"]
    assert lines[1]["status"] == "error" and fragment in lines[1]["error"]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "grid", "params": {"rows": True, "cols": 3}},
        {"kind": "grid", "params": {"rows": 3, "cols": False}},
        {"kind": "circulant", "params": {"n": 9, "steps": [1, True]}},
    ],
    ids=["rows-true", "cols-false", "in-a-list"],
)
def test_a_boolean_spec_param_is_a_400_as_a_spec_a_delta_base_and_a_batch_item(spec):
    """``bool`` subclasses ``int``, so ``{"rows": true, "cols": 3}`` used to
    be answered 200 with a 3-node graph.  A float stays a valid parameter."""
    queries = [{"spec": spec}, {"base": spec, "delta": [{"op": "add-edge", "v": 0, "u": 4}]}]
    with _RunningServer(ElectionService(workers=1)) as running:
        errors = [running.post_expecting_error("/election", query) for query in queries]
        lines = _post_stream(running, {"items": queries})
        floats = running.post(
            "/election",
            {"spec": {"kind": "erdos-renyi", "params": {"n": 8, "p": 0.5}}, "tasks": ["S"]},
        )
    for code, body in errors:
        assert code == 400 and "must not be a boolean" in body["error"]
    for line in lines[1:-1]:
        assert line["status"] == "error" and "must not be a boolean" in line["error"]
    assert floats["n"] == 8


@pytest.mark.parametrize(
    "graph, fragment",
    [
        ({"num_nodes": True, "edges": []}, "'num_nodes' must be an integer"),
        ({"num_nodes": 2, "edges": [[0, 0, True, 0]]}, "is not four integers"),
        ({"num_nodes": 2, "edges": [[0, False, 1, 0]]}, "is not four integers"),
        ({"num_nodes": 2, "edges": [[0, 0, 1]]}, "is not four integers"),
    ],
    ids=["num-nodes-true", "endpoint-true", "port-false", "three-fields"],
)
def test_a_submitted_adjacency_of_no_json_integers_is_a_400_alone_and_in_a_batch(graph, fragment):
    """``{"num_nodes": true}`` used to be answered 200 as a 1-node graph and
    the edge ``[0, 0, true, 0]`` as an edge to node 1."""
    payload = {"graph": graph, "tasks": ["S"]}
    with _RunningServer(ElectionService(workers=1)) as running:
        code, body = running.post_expecting_error("/election", payload)
        lines = _post_stream(running, {"items": [payload]})
    assert code == 400 and fragment in body["error"]
    assert lines[1]["status"] == "error" and fragment in lines[1]["error"]


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"items": [{"spec": {"kind": "star"}}], "window": True}, "window"),
        ({"sweep": {"corpus": "mixed", "count": True}}, "count"),
        ({"sweep": {"corpus": "mixed", "count": 1, "seed": False}}, "seed"),
        ({"sweep": {"corpus": "mixed", "count": 1, "seed": True}}, "seed"),
    ],
    ids=["window", "count", "seed-false", "seed-true"],
)
def test_a_boolean_batch_integer_is_a_400(payload, field):
    with _RunningServer(ElectionService(workers=1)) as running:
        assert f"'{field}'" in _post_expecting_status(running, payload, 400)["error"]


def test_envelope_errors_are_400s():
    with _RunningServer(ElectionService(workers=1)) as running:
        for payload, fragment in [
            ({"items": [], "sweep": {"corpus": "mixed"}}, "exactly one"),
            ({}, "exactly one"),
            ({"items": "nope"}, "must be a list"),
            ({"items": [{"spec": {"kind": "star"}}], "window": 0}, "window"),
            ({"sweep": {"corpus": "no-such-corpus", "count": 1}}, "unknown corpus"),
            ({"sweep": {"grid": [{"kind": "torus", "sizes": [5]}]}}, "not a single-size"),
            ({"sweep": {"grid": [{"kind": "no-such", "sizes": [5]}]}}, "unknown graph kind"),
            (b"", "empty batch"),
            (b"\n\n", "empty batch"),
        ]:
            assert fragment in _post_expecting_status(running, payload, 400)["error"]
        # wrong method on the batch path
        try:
            running.get("/elections")
            raise AssertionError("expected 405")
        except urllib.error.HTTPError as error:
            assert error.code == 405


def test_oversized_sweep_rejected_with_clear_error():
    with _RunningServer(ElectionService(workers=1)) as running:
        body = _post_expecting_status(
            running,
            {"sweep": {"corpus": "mixed", "count": MAX_BATCH_ITEMS + 1}},
            400,
        )
        assert "oversized sweep" in body["error"]
        items = [{"spec": {"kind": "star", "params": {"leaves": 3}}}] * (MAX_BATCH_ITEMS + 1)
        assert "oversized sweep" in _post_expecting_status(running, {"items": items}, 400)["error"]


# --------------------------------------------------------------------------- #
# backpressure and disconnect
# --------------------------------------------------------------------------- #
def test_window_bounds_in_flight_computations(monkeypatch):
    # distinct sizes (no coalescing), plenty of workers: only the window
    # may limit concurrency
    items = [
        {"spec": {"kind": "asymmetric-cycle", "params": {"n": n}}} for n in range(5, 17)
    ]
    delay_computations(monkeypatch, 0.05)
    with _RunningServer(ElectionService(workers=8)) as running:
        lines = _post_stream(running, {"items": items, "window": 2})
        status = running.get(f"/sweeps/{lines[0]['sweep']}")
    assert status["state"] == "done"
    assert status["completed"] == len(items)
    assert status["max_in_flight"] == 2, "window must cap concurrent computations"


def test_mid_stream_disconnect_cancels_the_sweep_and_server_survives(monkeypatch):
    items = [
        {"spec": {"kind": "asymmetric-cycle", "params": {"n": n}}} for n in range(5, 25)
    ]
    body = json.dumps({"items": items, "window": 2}).encode("utf-8")
    delay_computations(monkeypatch, 0.1)
    with _RunningServer(ElectionService(workers=2)) as running:
        host, port = "127.0.0.1", running.server.port
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(
                (
                    f"POST /elections HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
                + body
            )
            reader = raw.makefile("rb")
            reader.readline()  # status line
            while reader.readline() not in (b"\r\n", b""):
                pass  # headers
            header = json.loads(reader.readline())
            sweep_id = header["sweep"]
            reader.readline()  # one item, then hang up mid-stream
            reader.close()  # makefile holds the fd; close it so the socket really dies
        deadline = time.time() + 10
        state = None
        while time.time() < deadline:
            state = running.get(f"/sweeps/{sweep_id}")["state"]
            if state == "cancelled":
                break
            time.sleep(0.1)
        assert state == "cancelled"
        # the server is still fully alive for other clients
        assert running.get("/healthz")["status"] == "ok"
        follow_up = _post_stream(
            running, {"items": [{"spec": {"kind": "star", "params": {"leaves": 3}}}]}
        )
        assert follow_up[-1]["status"] == "done"


# --------------------------------------------------------------------------- #
# sweeps registry
# --------------------------------------------------------------------------- #
def test_sweep_status_listing_and_unknown_id():
    with _RunningServer(ElectionService(workers=1)) as running:
        lines = _post_stream(running, {"sweep": {"corpus": "mixed", "count": 3, "seed": 1}})
        sweep_id = lines[0]["sweep"]
        assert sweep_id in running.get("/sweeps")["sweeps"]
        status = running.get(f"/sweeps/{sweep_id}")
        assert status["state"] == "done" and status["items"] == "+++"
        try:
            running.get("/sweeps/ffffffffffffffffffffffff")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404


def test_sweep_status_persists_across_service_restart(tmp_path, real_refinement_passes):
    payload = {"sweep": {"corpus": "mixed", "count": 4, "seed": 2}}
    with _RunningServer(ElectionService(store=ArtifactStore(str(tmp_path)), workers=1)) as running:
        sweep_id = _post_stream(running, payload)[0]["sweep"]
        cold_ledger = running.get("/stats")["cache"]["refinement_passes"]
    assert cold_ledger > 0
    assert_real_passes(real_refinement_passes, cold_ledger)
    refinement_cache.clear()
    with _RunningServer(ElectionService(store=ArtifactStore(str(tmp_path)), workers=1)) as running:
        status = running.get(f"/sweeps/{sweep_id}")
        assert status["state"] == "done" and status["total"] == 4
        assert sweep_id in running.get("/sweeps")["sweeps"]
        # resume: the same batch replays store-warm, without a refinement pass
        replay = _post_stream(running, payload)
        assert replay[-1]["ok"] == 4
        stats = running.get("/stats")
    assert stats["cache"]["refinement_passes"] == 0
    assert_real_passes(real_refinement_passes, cold_ledger)
    assert stats["cache"]["store_hits"] == 4
