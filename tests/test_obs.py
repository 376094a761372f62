"""Unit tests for :mod:`repro.obs`: spans, context propagation, the bounded
recorder rings, trees, profiles and the JSONL sink.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    MAX_TAGS_PER_SPAN,
    SPAN_SCHEMA_KEYS,
    SpanRecorder,
    activate,
    current_context,
    new_trace_id,
    record_span,
    set_tracing,
    span,
    tracing_enabled,
)


@pytest.fixture()
def recorder() -> SpanRecorder:
    return SpanRecorder()


# --------------------------------------------------------------------------- #
# span production and context propagation
# --------------------------------------------------------------------------- #
class TestSpan:
    def test_root_span_records_full_schema(self, recorder):
        with span("http_request", trace_id="t-1", recorder=recorder) as live:
            assert live.recording
            live.set_tag("status", 200)
        spans = recorder.trace("t-1")
        assert len(spans) == 1
        assert tuple(spans[0].keys()) == SPAN_SCHEMA_KEYS
        assert spans[0]["name"] == "http_request"
        assert spans[0]["parent_id"] is None
        assert spans[0]["tags"] == {"status": 200}
        assert spans[0]["duration_ms"] >= 0.0

    def test_nested_span_links_to_parent(self, recorder):
        with span("outer", trace_id="t-2", recorder=recorder) as outer:
            with span("inner", recorder=recorder):
                pass
        by_name = {s["name"]: s for s in recorder.trace("t-2")}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["trace_id"] == "t-2"

    def test_span_without_context_is_noop(self, recorder):
        assert current_context() is None
        with span("orphan", recorder=recorder) as live:
            assert not live.recording
            live.set_tag("ignored", 1)  # must not raise
        assert recorder.stats()["spans"] == 0

    def test_set_tracing_kill_switch(self, recorder):
        assert tracing_enabled()
        prior = set_tracing(False)
        try:
            with span("off", trace_id="t-3", recorder=recorder) as live:
                assert not live.recording
            record_span(
                "manual", start_s=0.0, duration_ms=1.0,
                context=("t-3", None), recorder=recorder,
            )
            assert recorder.stats()["spans"] == 0
        finally:
            set_tracing(prior)

    def test_tag_cap_is_enforced(self, recorder):
        with span("tagged", trace_id="t-4", recorder=recorder) as live:
            for index in range(MAX_TAGS_PER_SPAN + 5):
                live.set_tag(f"k{index}", index)
            live.set_tag("k0", "updated")  # existing keys may still be updated
        tags = recorder.trace("t-4")[0]["tags"]
        assert len(tags) == MAX_TAGS_PER_SPAN
        assert tags["k0"] == "updated"

    def test_record_span_manual_timing(self, recorder):
        record_span(
            "queue_wait",
            start_s=123.0,
            duration_ms=4.5,
            context=("t-5", "abc.1"),
            tags={"shard": 2},
            recorder=recorder,
        )
        (rec,) = recorder.trace("t-5")
        assert tuple(rec.keys()) == SPAN_SCHEMA_KEYS
        assert rec["parent_id"] == "abc.1"
        assert rec["duration_ms"] == 4.5
        assert rec["tags"] == {"shard": 2}

    def test_activate_adopts_context_in_foreign_thread(self, recorder):
        captured = {}

        def worker(context):
            with activate(context):
                with span("threaded", recorder=recorder):
                    pass
            captured["after"] = current_context()

        with span("parent", trace_id="t-6", recorder=recorder):
            context = current_context()
            thread = threading.Thread(target=worker, args=(context,))
            thread.start()
            thread.join()
        by_name = {s["name"]: s for s in recorder.trace("t-6")}
        assert by_name["threaded"]["parent_id"] == by_name["parent"]["span_id"]
        assert captured["after"] is None, "activate() must reset on exit"

    def test_new_trace_id_has_prefix_and_is_unique(self):
        first, second = new_trace_id("bench"), new_trace_id("bench")
        assert first.startswith("bench-") and first != second


# --------------------------------------------------------------------------- #
# recorder bounds, trees, profiles, sink
# --------------------------------------------------------------------------- #
class TestRecorder:
    def _record(self, recorder, trace_id, name="stage", parent=None):
        record_span(
            name, start_s=1.0, duration_ms=1.0,
            context=(trace_id, parent), recorder=recorder,
        )

    def test_trace_ring_evicts_oldest_and_counts_drops(self):
        recorder = SpanRecorder(max_traces=2, max_spans_per_trace=10)
        for trace_id in ("t-a", "t-b", "t-c"):
            self._record(recorder, trace_id)
        stats = recorder.stats()
        assert stats["traces"] == 2
        assert recorder.trace("t-a") is None, "oldest trace evicted"
        assert stats["dropped"] == 1

    def test_per_trace_span_cap_drops_not_grows(self):
        recorder = SpanRecorder(max_traces=4, max_spans_per_trace=3)
        for _ in range(10):
            self._record(recorder, "t-big")
        stats = recorder.stats()
        assert len(recorder.trace("t-big")) == 3
        assert stats["dropped"] == 7

    def test_tree_orphan_spans_become_roots(self, recorder):
        self._record(recorder, "t-t", name="shard_stage", parent="gone.99")
        with span("root", trace_id="t-t", recorder=recorder):
            with span("child", recorder=recorder):
                pass
        roots = recorder.tree("t-t")
        names = {node["name"] for node in roots}
        assert names == {"shard_stage", "root"}, "dropped parents must not hide spans"
        root = next(node for node in roots if node["name"] == "root")
        assert [child["name"] for child in root["children"]] == ["child"]

    def test_tree_unknown_trace_is_none(self, recorder):
        assert recorder.tree("nope") is None

    def test_profile_aggregates_by_name(self, recorder):
        for duration in (1.0, 3.0):
            record_span(
                "compute", start_s=0.0, duration_ms=duration,
                context=("t-p", None), recorder=recorder,
            )
        self._record(recorder, "t-p", name="parse")
        rows = {row["name"]: row for row in recorder.profile("t-p")}
        assert rows["compute"]["count"] == 2
        assert rows["compute"]["total_ms"] == 4.0
        assert rows["compute"]["max_ms"] == 3.0
        assert rows["parse"]["count"] == 1

    def test_sink_tees_jsonl(self, recorder, tmp_path):
        sink = tmp_path / "spans.jsonl"
        recorder.attach_sink(str(sink))
        try:
            self._record(recorder, "t-s")
        finally:
            recorder.attach_sink(None)
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(lines) == 1
        assert tuple(sorted(lines[0].keys())) == tuple(sorted(SPAN_SCHEMA_KEYS))
        assert recorder.sink_path is None

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_traces=0)

    def test_clear_resets(self, recorder):
        self._record(recorder, "t-c")
        recorder.clear()
        assert recorder.stats()["spans"] == 0
