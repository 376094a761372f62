"""Observability surfaces: the metrics registry, ``GET /metrics``, trace ids
and the hardened ``GET /sweeps/<id>`` lookup.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest
from test_service import _RunningServer
from test_service_batch import _post_stream

from repro.service import ElectionService
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
    validate_exposition,
)


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


# --------------------------------------------------------------------------- #
# registry unit tests
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_renders_prometheus_text(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things.", ("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        text = registry.render()
        assert "# HELP repro_things_total Things." in text
        assert "# TYPE repro_things_total counter" in text
        assert 'repro_things_total{kind="a"} 1' in text
        assert 'repro_things_total{kind="b"} 2' in text

    def test_counter_rejects_negative_and_wrong_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c", ("x",))
        with pytest.raises(ValueError):
            counter.inc(-1, x="a")
        with pytest.raises(ValueError):
            counter.inc(y="a")

    def test_gauge_set_and_callback_forms(self):
        registry = MetricsRegistry()
        plain = registry.gauge("g_plain", "plain")
        plain.set(3.5)
        live = {"depth": 7}
        registry.gauge("g_live", "live", callback=lambda: live["depth"])
        registry.gauge(
            "g_labeled",
            "labeled",
            ("event",),
            callback=lambda: {("a",): 1, ("b",): 2},
        )
        text = registry.render()
        assert "g_plain 3.5" in text
        assert "g_live 7" in text
        assert 'g_labeled{event="a"} 1' in text
        live["depth"] = 9
        assert "g_live 9" in registry.render(), "callback gauges read at scrape time"

    def test_callback_gauge_cannot_be_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "g", callback=lambda: 1)
        with pytest.raises(ValueError):
            gauge.set(2)

    def test_histogram_cumulative_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render()
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 3' in text, "buckets must be cumulative"
        assert 'h_seconds_bucket{le="+Inf"} 4' in text
        assert "h_seconds_count 4" in text
        assert "h_seconds_sum 6.05" in text

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("dup_total", "y")

    def test_rendering_is_deterministic(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "t", ("k",))
        for key in ("b", "a", "c"):
            counter.inc(k=key)
        assert registry.render() == registry.render()
        lines = registry.render().splitlines()
        samples = [line for line in lines if line.startswith("t_total{")]
        assert samples == sorted(samples)

    def test_callback_counter_reads_at_scrape_time(self):
        registry = MetricsRegistry()
        live = {"dropped": 0}
        counter = registry.counter("d_total", "d", callback=lambda: live["dropped"])
        assert "d_total 0" in registry.render()
        live["dropped"] = 4
        assert "d_total 4" in registry.render()
        with pytest.raises(ValueError):
            counter.inc()


# --------------------------------------------------------------------------- #
# the exposition lint (parse_exposition / validate_exposition)
# --------------------------------------------------------------------------- #
class TestExpositionLint:
    def test_parses_every_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("l_total", "c", ("k",)).inc(k="a")
        registry.gauge("l_gauge", "g").set(2.5)
        registry.histogram("l_seconds", "h", buckets=(0.1,)).observe(0.05)
        families = validate_exposition(registry.render())
        assert families["l_total"]["type"] == "counter"
        assert families["l_total"]["samples"][("l_total", (("k", "a"),))] == 1.0
        assert families["l_gauge"]["samples"][("l_gauge", ())] == 2.5
        assert families["l_seconds"]["type"] == "histogram"

    def test_label_escapes_round_trip(self):
        registry = MetricsRegistry()
        tricky = 'quote " slash \\ newline \n end'
        registry.counter("e_total", "e", ("p",)).inc(p=tricky)
        families = parse_exposition(registry.render())
        ((_, labels),) = families["e_total"]["samples"]
        assert dict(labels)["p"] == tricky

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("# TYPE x counter\nx 1\n", "TYPE without preceding HELP"),
            ("# HELP x h\nx 1\n", "no TYPE"),
            ("# HELP x h\n# TYPE x widget\n", "unknown metric kind"),
            ("# HELP x h\n# TYPE x counter\nx 1\nx 1\n", "duplicate series"),
            ("# HELP x h\n# TYPE x counter\nx nope\n", "unparseable sample value"),
            ("# HELP x h\n# TYPE x counter\nx{k=\"v} 1\n", "unterminated"),
            ("# HELP x h\n# TYPE x counter\nx{k=\"\\q\"} 1\n", "bad escape"),
            ("# HELP x h\n# TYPE x counter\nx_bucket{le=\"1\"} 1\n", "declaration"),
            ("# HELP 0bad h\n# TYPE 0bad counter\n0bad 1\n", "bad metric name"),
        ],
    )
    def test_rejects_grammar_violations(self, text, complaint):
        with pytest.raises(ValueError, match=complaint.split()[0]):
            parse_exposition(text)

    def test_validate_rejects_noncumulative_histogram(self):
        text = (
            "# HELP h_s h\n# TYPE h_s histogram\n"
            'h_s_bucket{le="0.1"} 5\nh_s_bucket{le="+Inf"} 3\n'
            "h_s_sum 1\nh_s_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            validate_exposition(text)

    def test_validate_rejects_missing_inf_bucket_and_count_mismatch(self):
        missing_inf = (
            "# HELP h_s h\n# TYPE h_s histogram\n"
            'h_s_bucket{le="0.1"} 1\nh_s_sum 1\nh_s_count 1\n'
        )
        with pytest.raises(ValueError, match="\\+Inf bucket"):
            validate_exposition(missing_inf)
        mismatch = (
            "# HELP h_s h\n# TYPE h_s histogram\n"
            'h_s_bucket{le="+Inf"} 2\nh_s_sum 1\nh_s_count 3\n'
        )
        with pytest.raises(ValueError, match="!= _count"):
            validate_exposition(mismatch)

    def test_validate_rejects_negative_counter(self):
        with pytest.raises(ValueError, match="negative counter"):
            validate_exposition("# HELP x h\n# TYPE x counter\nx -1\n")


# --------------------------------------------------------------------------- #
# GET /metrics end to end
# --------------------------------------------------------------------------- #
def _scrape(running) -> str:
    with urllib.request.urlopen(f"{running.base}/metrics") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


def _sample_value(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix) and not line.startswith("#"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no sample {prefix!r} in scrape")


def test_metrics_endpoint_exposes_every_layer():
    with _RunningServer(ElectionService(workers=2)) as running:
        running.post("/election", {"spec": {"kind": "star", "params": {"leaves": 4}}})
        _post_stream(
            running, {"sweep": {"corpus": "mixed", "count": 3, "seed": 5}}
        )
        text = _scrape(running)
        again = _scrape(running)
    for family, kind in [
        ("repro_requests_total", "counter"),
        ("repro_request_seconds", "histogram"),
        ("repro_service_events", "gauge"),
        ("repro_service_in_flight", "gauge"),
        ("repro_backend_queue_depth", "gauge"),
        ("repro_batch_events", "gauge"),
        ("repro_window_in_flight", "gauge"),
        ("repro_traces_issued", "gauge"),
    ]:
        assert f"# TYPE {family} {kind}" in text
    assert (
        _sample_value(text, 'repro_requests_total{method="POST",path="/election"')
        == 1
    )
    assert _sample_value(text, 'repro_service_events{event="queries"}') == 4
    assert _sample_value(text, 'repro_batch_events{event="batches"}') == 1
    assert _sample_value(text, 'repro_batch_events{event="batch_items"}') == 3
    assert _sample_value(text, "repro_window_in_flight") == 0
    assert (
        _sample_value(text, 'repro_request_seconds_count{path="/election"}') == 1
    )
    # scrapes count themselves, so the second scrape sees the first
    assert (
        _sample_value(again, 'repro_requests_total{method="GET",path="/metrics"')
        >= 1
    )


def test_metrics_normalises_sweep_paths_to_bounded_cardinality():
    with _RunningServer(ElectionService(workers=1)) as running:
        lines = _post_stream(running, {"sweep": {"corpus": "mixed", "count": 2, "seed": 1}})
        running.get(f"/sweeps/{lines[0]['sweep']}")
        try:
            running.get("/sweeps/00112233445566778899aabb")
        except urllib.error.HTTPError as error:
            assert error.code == 404
        text = _scrape(running)
    assert 'path="/sweeps/{id}"' in text
    assert lines[0]["sweep"] not in text, "raw sweep ids must never label metrics"


def test_metrics_rejects_non_get():
    with _RunningServer(ElectionService(workers=1)) as running:
        try:
            running.post("/metrics", {})
            raise AssertionError("expected 405")
        except urllib.error.HTTPError as error:
            assert error.code == 405


# --------------------------------------------------------------------------- #
# trace ids
# --------------------------------------------------------------------------- #
def test_trace_ids_are_unique_and_echoed_in_stats():
    with _RunningServer(ElectionService(workers=1)) as running:
        traces = [
            running.post(
                "/election", {"spec": {"kind": "star", "params": {"leaves": 3}}}
            )["trace_id"]
            for _ in range(3)
        ]
        stream = _post_stream(
            running, {"sweep": {"corpus": "mixed", "count": 2, "seed": 3}}
        )
        stats = running.get("/stats")
    assert len(set(traces)) == 3, "every request gets its own trace id"
    stream_traces = {line["trace_id"] for line in stream}
    assert len(stream_traces) == 1, "one stream, one trace id on every line"
    ring = stats["traces"]
    assert ring["issued"] >= 5
    recent = {entry["trace_id"] for entry in ring["recent"]}
    assert set(traces) <= recent
    assert stream_traces <= recent
    by_trace = {entry["trace_id"]: entry for entry in ring["recent"]}
    assert by_trace[traces[0]]["path"] == "/election"
    assert by_trace[traces[0]]["status"] == 200
    assert by_trace[next(iter(stream_traces))]["path"] == "/elections"


def test_error_responses_carry_the_trace_id():
    with _RunningServer(ElectionService(workers=1)) as running:
        code, body = running.post_expecting_error("/election", {"spec": {"kind": "no"}})
        stats = running.get("/stats")
    assert code == 400
    assert body["trace_id"] in {entry["trace_id"] for entry in stats["traces"]["recent"]}
    assert any(
        entry["trace_id"] == body["trace_id"] and entry["status"] == 400
        for entry in stats["traces"]["recent"]
    )


# --------------------------------------------------------------------------- #
# GET /sweeps/<id> hardening (regression: malformed ids were 500s)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "sweep_id",
    [
        "no-such-sweep!",
        "abc.json",
        "ffffffffffffffffffffffff.json%2Fx",
        "..%2F..%2Fmanifest",
        "%00abc",
        "a" * 65,
        "UPPERCASE",
    ],
)
def test_malformed_sweep_ids_are_404_json_not_500(tmp_path, sweep_id):
    from repro.store import ArtifactStore

    with _RunningServer(
        ElectionService(store=ArtifactStore(str(tmp_path)), workers=1)
    ) as running:
        # a persisted sweep makes the store path live, the worst case for
        # ids that turn into hostile filesystem paths
        _post_stream(running, {"sweep": {"corpus": "mixed", "count": 2, "seed": 9}})
        try:
            running.get(f"/sweeps/{sweep_id}")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            body = json.loads(error.read())
            assert "sweep id" in body["error"] or "unknown sweep" in body["error"]
            assert "trace_id" in body
        # the server survived and still answers
        assert running.get("/healthz")["status"] == "ok"


def test_unknown_wellformed_sweep_id_is_404():
    with _RunningServer(ElectionService(workers=1)) as running:
        try:
            running.get("/sweeps/" + "d" * 24)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            assert "unknown sweep" in json.loads(error.read())["error"]
