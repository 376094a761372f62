"""End-to-end tracing through the service: ``GET /trace/<id>`` trees with
every named stage and the span schema, the slow-request log and the linted
``/metrics`` exposition.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest
from test_service import _RunningServer
from test_service_batch import _post_stream

from repro.obs import SPAN_SCHEMA_KEYS, default_recorder
from repro.service import ElectionService
from repro.service.metrics import validate_exposition
from repro.service.server import ElectionServer

#: Stages every traced batch item must surface.
_COMMON_STAGES = {
    "http_request",
    "parse",
    "batch_prepare",
    "item",
    "window_acquire",
    "compute",
    "compute_election",
    "evaluate_graph",
}

_ONE_ITEM_BATCH = {
    "items": [{"spec": {"kind": "cycle", "params": {"n": 5}}, "tasks": ["S"]}]
}


@pytest.fixture(autouse=True)
def _clean_recorder(isolated_refinement_cache):
    default_recorder.clear()
    yield
    default_recorder.clear()


def _flatten(nodes, acc=None):
    acc = [] if acc is None else acc
    for node in nodes:
        acc.append(node)
        _flatten(node["children"], acc)
    return acc


def _trace_tree(running, trace_id):
    # spans of a stream are recorded as its stages finish; the root span
    # lands when the connection closes, just before this follow-up request
    return running.get(f"/trace/{trace_id}")


def _run_batch_and_fetch_trace():
    with _RunningServer(ElectionService(workers=2)) as running:
        lines = _post_stream(running, _ONE_ITEM_BATCH)
        trace_id = lines[0]["trace_id"]
        assert {line["trace_id"] for line in lines} == {trace_id}
        tree = _trace_tree(running, trace_id)
    return trace_id, tree


# --------------------------------------------------------------------------- #
# the acceptance path: one batch item, one resolvable span tree
# --------------------------------------------------------------------------- #
def test_thread_batch_trace_resolves_with_named_stages():
    trace_id, tree = _run_batch_and_fetch_trace()
    spans = _flatten(tree["spans"])
    assert tree["queried"] == trace_id
    assert tree["span_count"] == len(spans) >= 6
    assert _COMMON_STAGES <= {span["name"] for span in spans}
    assert all(span["trace_id"] == trace_id for span in spans)
    # the raw recorded spans keep the schema contract
    for span in default_recorder.trace(trace_id):
        assert tuple(span.keys()) == SPAN_SCHEMA_KEYS, span


# --------------------------------------------------------------------------- #
# /trace lookup hardening
# --------------------------------------------------------------------------- #
def test_trace_lookup_rejects_malformed_and_unknown_ids():
    with _RunningServer(ElectionService(workers=1)) as running:
        for bad, expected in (("/trace/NOT%20VALID!", "malformed"),
                              ("/trace/ffffff-00ff42", "unknown")):
            try:
                running.get(bad)
                raise AssertionError(f"expected 404 for {bad}")
            except urllib.error.HTTPError as error:
                assert error.code == 404
                body = json.loads(error.read())
                assert expected in body["error"]
                assert "trace_id" in body, "errors carry trace ids too"


# --------------------------------------------------------------------------- #
# slow-request log and the /stats slowest table
# --------------------------------------------------------------------------- #
def _serve_with_slow_log(threshold):
    logged = []
    service = ElectionService(workers=1)
    running = _RunningServer(service)
    running.server = ElectionServer(
        service, port=0, slow_request_s=threshold, slow_log=logged.append
    )
    return running, logged


def test_slow_request_log_fires_above_threshold_only():
    running, logged = _serve_with_slow_log(threshold=0.0)
    with running:
        body = running.post("/election", {"spec": {"kind": "cycle", "params": {"n": 4}}})
    assert logged, "a 0s threshold logs every request"
    assert any(body["trace_id"] in line for line in logged)
    assert all("duration_ms=" in line for line in logged)

    running, logged = _serve_with_slow_log(threshold=3600.0)
    with running:
        running.get("/healthz")
    assert logged == [], "an hour-long threshold logs nothing in a unit test"


def test_stats_slowest_table_ranks_by_duration():
    with _RunningServer(ElectionService(workers=1)) as running:
        running.post("/election", {"spec": {"kind": "cycle", "params": {"n": 4}}})
        running.get("/healthz")
        stats = running.get("/stats")
    traces = stats["traces"]
    assert {"issued", "recent", "spans", "dropped", "slowest"} <= set(traces)
    slowest = traces["slowest"]
    assert slowest, "requests were served, the table cannot be empty"
    durations = [row["duration_ms"] for row in slowest]
    assert durations == sorted(durations, reverse=True)
    assert {"trace_id", "path", "status", "duration_ms"} == set(slowest[0])


# --------------------------------------------------------------------------- #
# /metrics: linted exposition + tracing families
# --------------------------------------------------------------------------- #
def test_metrics_scrape_passes_exposition_lint_with_tracing_families():
    with _RunningServer(ElectionService(workers=2)) as running:
        _post_stream(running, _ONE_ITEM_BATCH)
        scrape = urllib.request.urlopen(f"{running.base}/metrics").read().decode()
        families = validate_exposition(scrape)
        for name in (
            "repro_trace_dropped_total",
            "repro_trace_spans",
            "repro_search_events",
            "repro_store_events",
        ):
            assert name in families, name
        assert families["repro_trace_dropped_total"]["type"] == "counter"
        spans_held = families["repro_trace_spans"]["samples"][("repro_trace_spans", ())]
        assert spans_held > 0, "the batch just traced must hold spans"


def test_search_counters_aggregate_in_stats_and_metrics():
    batch = {
        "items": [
            {"spec": {"kind": "cycle", "params": {"n": 5}}, "tasks": ["PPE"]},
            {"spec": {"kind": "star", "params": {"leaves": 4}}, "tasks": ["PPE"]},
        ]
    }
    with _RunningServer(ElectionService(workers=2)) as running:
        _post_stream(running, batch)
        scrape = urllib.request.urlopen(f"{running.base}/metrics").read().decode()
        families = validate_exposition(scrape)
        searches = families["repro_search_events"]["samples"][
            ("repro_search_events", (("event", "searches"),))
        ]
        assert searches > 0, "PPE items ran joint searches; the scrape must see them"
