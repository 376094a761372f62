"""The four workloads: set-up, timed rounds, answer collection, traced rounds.

A *round* is one set-up followed by a fixed amount of timed work:

* ``serve-warm``: ``repro warm`` fills a fresh store, a server starts on it
  (default flags), one throwaway request; timed: 600 zipf-drawn
  ``POST /election`` requests from one client, one connection at a time.
* ``sweep-cold``: a server on an empty store, one throwaway request; timed:
  one ``POST /elections`` batch, items read as they stream.
* ``delta-stream``: a server on an empty store, each base submitted once,
  one throwaway request; timed: every mutation-stream item as a single
  request, closed loop.
* ``refine-xl``: a fresh process builds three large graphs and evaluates a
  throwaway graph; timed: one cold evaluation per graph (library).

An untraced pass repeats rounds until the timed work reaches ``--seconds``
(and at least :data:`MIN_ROUNDS`), so set-up is measured several times per
run.  A traced pass runs one round with the layer wrappers installed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import answers
import inputs
import layers
from common import HERE, ROOT, WORK, Server, http_call, http_stream_lines, program_env, run_program, scratch_dir
from repro.core import Task
from repro.runner import SweepSpec

WORKLOADS = ("serve-warm", "sweep-cold", "delta-stream", "refine-xl")
#: Rounds per untraced pass, at least: set-up is timed this many times.
MIN_ROUNDS = {"serve-warm": 3, "sweep-cold": 5, "delta-stream": 3, "refine-xl": 2}
HOT_TIER_DEFAULT_BYTES = 64 * 1024 * 1024


@dataclass
class Round:
    """What one round measured; ``responses`` pairs a reference key with a parsed response."""

    setup_s: float
    op_seconds: List[float]
    begin: float
    end: float
    peak_rss_mb: float
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    responses: List[Tuple[str, bool, Dict[str, Any]]] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    item_gaps_ms: List[float] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return self.end - self.begin


# --------------------------------------------------------------------------- #
# inputs prepared once per invocation
# --------------------------------------------------------------------------- #
class Prepared:
    """A workload's seeded inputs, encoded request bodies and reference keys."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.payloads: Dict[str, Dict[str, Any]] = {}
        if name == "serve-warm":
            self.specs = inputs.serve_warm_graphs(seed)
            self.requests = []
            encoded: Dict[Tuple[int, str, bool], Tuple[bytes, str]] = {}
            for graph, form, advice in inputs.serve_warm_requests(seed):
                if (graph, form, advice) not in encoded:
                    body = inputs.encode(inputs.serve_warm_payload(self.specs[graph], form, advice))
                    reference = inputs.serve_warm_payload(self.specs[graph], form, True)
                    key = self.add(reference)
                    encoded[(graph, form, advice)] = (body, key)
                body, key = encoded[(graph, form, advice)]
                self.requests.append((body, key, advice))
            self.spec_file = WORK / "serve-warm-spec.json"
            WORK.mkdir(parents=True, exist_ok=True)
            self.spec_file.write_text(
                SweepSpec.make(self.specs, tasks=[Task(c) for c in inputs.ALL_TASKS], max_states=inputs.MAX_STATES).to_json()
            )
        elif name == "sweep-cold":
            self.items = inputs.sweep_cold_items(seed)
            self.item_keys = [self.add(item) for item in self.items]
            self.batch_body = inputs.encode({"items": self.items})
        elif name == "delta-stream":
            self.requests = [(inputs.encode(item), self.add(item), False) for item in inputs.delta_items(seed)]
            self.base_bodies = [inputs.encode(p) for p in inputs.delta_base_payloads(seed)]

    def add(self, payload: Dict[str, Any]) -> str:
        key = answers.payload_key(inputs.encode(payload))
        self.payloads[key] = payload
        return key


def reference_set(name: str, seed: int) -> Dict[str, Dict[str, Any]]:
    """Every reference answer of the workload's input set, by payload key."""
    if name == "refine-xl":
        return {
            label: answers.reference_record(label, build(), ["S", "PE"])
            for label, build in inputs.refine_xl_graphs(seed)
        }
    prepared = Prepared(name, seed)
    if name == "serve-warm":
        # every graph in both forms, with advice: the full input set, not just what was sent
        for spec in prepared.specs:
            for form in ("graph", "spec"):
                prepared.add(inputs.serve_warm_payload(spec, form, True))
    return {key: answers.reference_answer(payload) for key, payload in sorted(prepared.payloads.items())}


# --------------------------------------------------------------------------- #
# server rounds
# --------------------------------------------------------------------------- #
_THROWAWAY = inputs.encode({"spec": inputs.THROWAWAY_SPEC, "tasks": inputs.ALL_TASKS, "max_states": inputs.MAX_STATES})


def _start(prepared: Prepared, store, spans: Optional[str]) -> Server:
    launcher = [str(HERE / "traced_serve.py"), "--spans", spans] if spans else None
    return Server(prepared.name, ["--store", str(store)], launcher=launcher)


def _post(server: Server, body: bytes) -> None:
    status, raw = http_call(server.port, "POST", "/election", body)
    if status != 200:
        raise RuntimeError(f"set-up request failed with {status}: {raw[:200]!r}")


def _closed_loop(server: Server, requests, result: Round) -> None:
    """One request at a time; latency is send to last byte."""
    raw_responses = []
    result.attempted = len(requests)
    result.begin = time.monotonic()
    for body, key, advice in requests:
        started = time.monotonic()
        status, raw = http_call(server.port, "POST", "/election", body)
        result.op_seconds.append(time.monotonic() - started)
        raw_responses.append((key, advice, status, raw))
    result.end = time.monotonic()
    for key, advice, status, raw in raw_responses:
        if status != 200:
            result.failed += 1
        else:
            result.responses.append((key, advice, json.loads(raw)))


def _stats(server: Server) -> Dict[str, Any]:
    status, stats = server.call("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats failed with {status}")
    return stats


def _server_round(prepared: Prepared, spans: Optional[str]) -> Round:
    name = prepared.name
    store = scratch_dir(f"{name}-store")
    launched = time.monotonic()
    if name == "serve-warm":
        run_program(["warm", "--store", str(store), "--spec", str(prepared.spec_file), "--quiet"])
    server = _start(prepared, store, spans)
    try:
        if name == "delta-stream":
            for body in prepared.base_bodies:
                _post(server, body)
        _post(server, _THROWAWAY)
        result = Round(setup_s=time.monotonic() - launched, op_seconds=[], begin=0.0, end=0.0, peak_rss_mb=0.0)
        before = _stats(server) if spans else None
        cpu_before = server.cpu_seconds()
        if name == "sweep-cold":
            _batch(server, prepared, result)
        else:
            _closed_loop(server, prepared.requests, result)
        result.cpu_s = server.cpu_seconds() - cpu_before
        after = _stats(server)
        result.config = {key: after["service"][key] for key in ("backend", "kernel_backend", "hot_tier_bytes")}
        if before is not None:
            result.counters = _counter_deltas(before, after)
        result.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    if spans:
        side, span_list = layers.load(spans)
        result.layer_metrics = layers.summarize(side, span_list, result.begin, result.end)
        result.layer_metrics["service.outside_compute_ms"] = _outside_compute_ms(result, span_list)
    return result


def _outside_compute_ms(result: Round, span_list) -> float:
    """Client time per operation not spent inside ``compute_election``.

    On a closed loop: the median client latency minus the median
    ``compute_election`` duration.  On the batch, where computations
    overlap: the timed wall time no ``compute_election`` span covers, per item.
    """
    if result.item_gaps_ms:
        computes = [s for s in span_list if s[layers.NAME] == "service.compute_election"]
        covered = layers.covered_seconds(computes, result.begin, result.end)
        return (result.timed_s - covered) * 1000.0 / max(result.attempted, 1)
    computes = layers.compute_durations_ms(span_list, result.begin, result.end)
    if not computes:
        return 0.0
    return statistics.median(result.op_seconds) * 1000.0 - statistics.median(computes)


def _batch(server: Server, prepared: Prepared, result: Round) -> None:
    result.attempted = len(prepared.items)
    result.begin = time.monotonic()
    status, lines = http_stream_lines(server.port, "/elections", prepared.batch_body)
    result.end = time.monotonic()
    items = [(arrived, json.loads(raw)) for arrived, raw in lines]
    items = [(arrived, line) for arrived, line in items if "index" in line]
    if status != 200 or len(items) != len(prepared.items):
        result.failed += len(prepared.items) - (len(items) if status == 200 else 0)
    previous = result.begin
    for arrived, line in items:
        # an item's latency is the wait from sending the batch to its line
        result.op_seconds.append(arrived - result.begin)
        result.item_gaps_ms.append((arrived - previous) * 1000.0)
        previous = arrived
        if line.get("status") != "ok":
            result.failed += 1
        else:
            result.responses.append((prepared.item_keys[line["index"]], False, line))


def _counter_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """The program's own ledgers over the timed window (from ``GET /stats``)."""
    def delta(section: str, key: str) -> float:
        return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    store_hits, store_misses = delta("store", "hits"), delta("store", "misses")
    counters = {
        "runner.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runner.cache.store_hits": delta("cache", "store_hits"),
        "runner.cache.refinement_passes": delta("cache", "refinement_passes"),
        "store.hit_ratio": store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0,
        "store.bytes_read": delta("store", "bytes_read"),
        "store.bytes_written": delta("store", "bytes_written"),
        "store.hot_hits": delta("store", "hot_hits"),
        "store.corrupt_objects": delta("store", "corrupt_objects"),
    }
    for key in ("searches", "states", "cells", "limit_hits"):
        counters[f"core.search.{key}"] = delta("search", key)
    return counters


# --------------------------------------------------------------------------- #
# refine-xl rounds (a fresh process each)
# --------------------------------------------------------------------------- #
def _refine_round(prepared: Prepared, spans: Optional[str]) -> Round:
    out = scratch_dir("refine-xl") / "round.json"
    command = [sys.executable, str(HERE / "refine_child.py"), str(prepared.seed), str(out)]
    if spans:
        command.append(spans)
    launched = time.monotonic()
    completed = subprocess.run(command, cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"refine-xl round failed: {completed.stderr.decode(errors='replace')[-2000:]}")
    child = json.loads(out.read_text())
    ops = child["ops"]
    result = Round(
        setup_s=ops[0]["start"] - launched,
        op_seconds=[op["end"] - op["start"] for op in ops],
        begin=ops[0]["start"],
        end=ops[-1]["end"],
        peak_rss_mb=child["peak_rss_mb"],
        cpu_s=child["cpu_s"],
        attempted=len(ops),
        config={"backend": "library", "kernel_backend": child["kernel_backend"], "hot_tier_bytes": 0},
    )
    result.responses = [(op["answer"]["graph"], False, op["answer"]) for op in ops]
    if spans:
        cache, search = child["cache"], child["search"]
        side, span_list = layers.load(spans)
        result.layer_metrics = layers.summarize(side, span_list, result.begin, result.end)
        result.layer_metrics["service.outside_compute_ms"] = 0.0
        hits, misses = cache["hits"], cache["misses"]
        result.counters = {
            "runner.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runner.cache.store_hits": cache["store_hits"],
            "runner.cache.refinement_passes": cache["refinement_passes"],
            **{f"core.search.{key}": search[key] for key in ("searches", "states", "cells", "limit_hits")},
        }
    return result


# --------------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------------- #
def run_round(prepared: Prepared, traced: bool) -> Round:
    spans = str(WORK / f"{prepared.name}-seed{prepared.seed}-spans.jsonl") if traced else None
    if prepared.name == "refine-xl":
        return _refine_round(prepared, spans)
    return _server_round(prepared, spans)


def run_pass(prepared: Prepared, seconds: float, rounds: Optional[int] = None) -> List[Round]:
    """Untraced rounds: until ``seconds`` of timed work and :data:`MIN_ROUNDS` (or exactly ``rounds``)."""
    done: List[Round] = []
    while True:
        done.append(run_round(prepared, traced=False))
        if rounds is not None:
            if len(done) == rounds:
                return done
        elif len(done) >= MIN_ROUNDS[prepared.name] and sum(r.timed_s for r in done) >= seconds:
            return done


def expected_config(name: str) -> Dict[str, Any]:
    """What was launched: the thread backend with the default 64 MiB hot tier."""
    if name == "refine-xl":
        return {"backend": "library", "hot_tier_bytes": 0}
    return {"backend": "thread", "hot_tier_bytes": HOT_TIER_DEFAULT_BYTES}
