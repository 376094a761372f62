"""Per-layer attribution from outside: wrappers around each layer's public calls.

:func:`install` replaces the public entry points listed in :data:`CALLS`
with timing wrappers, in every loaded ``repro`` module that holds them, so
the program needs no span of its own.  Each thread keeps its own call stack
(the server computes on a thread pool), so a span's *self* time is its
duration minus the time of the wrapped calls nested inside it on the same
thread.  Spans stay in memory, capped at :data:`MAX_SPANS` (later ones are
counted as dropped), and are written out when the run ends.

Clock: ``time.monotonic`` (CLOCK_MONOTONIC), which the benchmark process
shares with the processes it starts, so spans can be cut to its timed
window.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: ``(metric prefix, module, attribute)``: the wrapped public calls per layer.
CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("service.compute_election", "repro.service.service", "compute_election"),
    ("portgraph.graph_from_dict", "repro.portgraph.io", "graph_from_dict"),
    ("portgraph.cache_key", "repro.portgraph.graph", "PortLabeledGraph.cache_key"),
    ("portgraph.fingerprint", "repro.portgraph.graph", "PortLabeledGraph.fingerprint"),
    ("portgraph.delta_apply", "repro.portgraph.delta", "GraphDelta.apply_to"),
    ("runner.spec_build", "repro.runner.spec", "GraphSpec.build"),
    ("runner.evaluate_graph", "repro.runner.runner", "evaluate_graph"),
    ("runner.cache_entry", "repro.runner.cache", "RefinementCache.entry"),
    ("runner.delta_entry", "repro.runner.cache", "RefinementCache.delta_entry"),
    ("runner.persist", "repro.runner.cache", "RefinementCache.persist"),
    ("kernel.csr_build", "repro.kernel.csr", "build_csr"),
    ("kernel.csr_patched", "repro.kernel.csr", "CSRGraph.patched"),
    ("kernel.refine", "repro.kernel.refine", "CSRPartitionRefinement.ensure_depth"),
    ("kernel.refine", "repro.kernel.refine", "CSRPartitionRefinement.ensure_stable"),
    ("kernel.refine", "repro.kernel.refine_numpy", "NumpyPartitionRefinement.ensure_depth"),
    ("kernel.refine", "repro.kernel.refine_numpy", "NumpyPartitionRefinement.ensure_stable"),
    ("kernel.refine_delta", "repro.kernel.refine", "refinement_delta"),
    ("kernel.blockcut", "repro.kernel.blockcut", "BlockCutTree.__init__"),
    ("kernel.bfs", "repro.kernel.csr", "bfs_distances_csr"),
    ("core.psi_s", "repro.core.election_index", "selection_index"),
    ("core.psi_pe", "repro.core.election_index", "port_election_index"),
    ("core.psi_ppe", "repro.core.election_index", "port_path_election_index"),
    ("core.psi_cppe", "repro.core.election_index", "complete_port_path_election_index"),
    ("core.path_assignment", "repro.core.election_index", "path_election_assignment"),
    ("store.get", "repro.store.store", "ArtifactStore.get"),
    ("store.load_for_graph", "repro.store.store", "ArtifactStore.load_for_graph"),
    ("store.put", "repro.store.store", "ArtifactStore.put"),
    ("advice.encode_map_advice", "repro.advice.map_advice", "encode_map_advice"),
)

#: Every module whose namespace may hold a wrapped function by name.
PRELOAD = (
    "repro.cli",
    "repro.service",
    "repro.service.server",
    "repro.service.batch",
    "repro.service.workers",
    "repro.runner",
    "repro.runner.warm",
    "repro.kernel",
    "repro.kernel.refine",
    "repro.advice.map_advice",
    "repro.store",
    "repro.scenarios",
)

MAX_SPANS = 400_000

# span tuple fields
NAME, THREAD, START, END, SELF, DEPTH = range(6)


class Tracer:
    """Span store plus the per-thread stacks and the counts taken at the wrappers."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Tuple[str, int, float, float, float, int]] = []
        self.dropped = 0
        self.refine_passes: List[Tuple[float, int]] = []
        self.path_assignments: List[Tuple[float, bool]] = []
        self.replays: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, span: Tuple[str, int, float, float, float, int]) -> None:
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1


def _wrap(tracer: Tracer, name: str, fn):
    refine = name == "kernel.refine"
    assignment = name == "core.path_assignment"
    delta_entry = name == "runner.delta_entry"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        stack = tracer.stack()
        frame = [0.0, name]
        outer_refine = refine and not any(f[1] == "kernel.refine" for f in stack)
        passes_before = args[0].passes if outer_refine else 0
        stack.append(frame)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            total = end - start
            if stack:
                stack[-1][0] += total
            tracer.record((name, threading.get_ident(), start, end, total - frame[0], len(stack)))
        if outer_refine:
            tracer.refine_passes.append((start, args[0].passes - passes_before))
        elif assignment:
            tracer.path_assignments.append((start, result is not None))
        elif delta_entry:
            _note_replay(tracer, args[1], result, start)
        return result

    return wrapper


def _note_replay(tracer: Tracer, base_graph, entry, start: float) -> None:
    """Remember a replayed mutation: its replay time and the graph, for a cold baseline.

    The replay is the delta application, CSR patch and dirty-ball replay
    spans inside this ``delta_entry`` call; a cache hit has none and is
    skipped.  The cold fixpoint is timed at exit (:func:`replay_baselines`),
    in the same process, off the request path.
    """
    ident = threading.get_ident()
    parts = ("portgraph.delta_apply", "kernel.csr_patched", "kernel.refine_delta")
    with tracer._lock:
        recent = [s for s in tracer.spans[-64:] if s[THREAD] == ident and s[START] >= start]
    if not any(s[NAME] == "kernel.refine_delta" for s in recent):
        return
    tracer.enabled = False
    try:
        began = time.monotonic()
        entry.graph.refinement_engine().ensure_stable()
        finish = time.monotonic() - began
    finally:
        tracer.enabled = True
    graph = entry.graph
    tracer.replays.append(
        {
            "start": start,
            "family": "beacon_tail" if base_graph.name.startswith("beacon") else "grid" if "grid" in base_graph.name else "other",
            "replay_s": sum(s[END] - s[START] for s in recent if s[NAME] in parts) + finish,
            "rows": [graph.adjacency(v) for v in graph.nodes()],
        }
    )


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`CALLS` wherever a loaded ``repro`` module binds it."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for name, module_name, attribute in CALLS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:  # numpy backend absent: nothing to wrap
            continue
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, _wrap(tracer, name, owner.__dict__[method]))
            continue
        original = getattr(module, attribute)
        wrapped = _wrap(tracer, name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapped)


def replay_baselines(tracer: Tracer) -> None:
    """Time a cold fixpoint of a fresh copy of every replayed graph (untraced)."""
    from repro.portgraph.graph import PortLabeledGraph

    tracer.enabled = False
    for replay in tracer.replays:
        fresh = PortLabeledGraph(replay.pop("rows"), validate=False)
        began = time.monotonic()
        engine = fresh.refinement_engine()
        engine.colors_at(engine.ensure_stable())
        replay["cold_s"] = time.monotonic() - began


def dump(tracer: Tracer, path: str) -> None:
    """Write the spans (one JSON array per line) and the side records."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "dropped": tracer.dropped,
                    "refine_passes": tracer.refine_passes,
                    "path_assignments": tracer.path_assignments,
                    "replays": [{k: v for k, v in r.items() if k != "rows"} for r in tracer.replays],
                }
            )
            + "\n"
        )
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def load(path: str) -> Tuple[Dict[str, Any], List[list]]:
    with open(path, "r", encoding="utf-8") as handle:
        side = json.loads(handle.readline())
        return side, [json.loads(line) for line in handle]


# --------------------------------------------------------------------------- #
# summary of one traced window
# --------------------------------------------------------------------------- #
CALL_NAMES = tuple(dict.fromkeys(name for name, _, _ in CALLS))


def covered_seconds(spans: Sequence[list], begin: float, end: float) -> float:
    """Length of the union of the spans' intervals, clipped to ``[begin, end]``."""
    intervals = sorted((max(s[START], begin), min(s[END], end)) for s in spans)
    covered, reach = 0.0, begin
    for low, high in intervals:
        low = max(low, reach)
        if high > low:
            covered += high - low
            reach = high
    return covered


def summarize(side: Dict[str, Any], spans: Sequence[list], begin: float, end: float) -> Dict[str, float]:
    """Per-call ``calls``/``self_ms``, the wrapper counts and wall-time coverage in the window."""
    inside = [s for s in spans if begin <= s[START] <= end]
    metrics: Dict[str, float] = {}
    for name in CALL_NAMES:
        mine = [s for s in inside if s[NAME] == name]
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.self_ms"] = sum(s[SELF] for s in mine) * 1000.0
    metrics["kernel.refine.passes"] = sum(n for t, n in side["refine_passes"] if begin <= t <= end)
    tried = [ok for t, ok in side["path_assignments"] if begin <= t <= end]
    metrics["core.path_assignment.success_ratio"] = sum(tried) / len(tried) if tried else 0.0
    for family in ("beacon_tail", "grid"):
        ratios = [
            r["cold_s"] / r["replay_s"]
            for r in side["replays"]
            if r["family"] == family and begin <= r["start"] <= end and r["replay_s"] > 0
        ]
        metrics[f"kernel.replay_speedup.{family}.median"] = statistics.median(ratios) if ratios else 0.0
        metrics[f"kernel.replay_speedup.{family}.min"] = min(ratios) if ratios else 0.0
    covered = covered_seconds([s for s in inside if s[DEPTH] == 0], begin, end)
    metrics["obs.covered_share"] = covered / (end - begin)
    metrics["obs.uncovered_s"] = (end - begin) - covered
    metrics["obs.spans_dropped"] = side["dropped"]
    return metrics


def compute_durations_ms(spans: Iterable[list], begin: float, end: float) -> List[float]:
    """Inclusive ``compute_election`` durations in the window (ms)."""
    return [
        (s[END] - s[START]) * 1000.0
        for s in spans
        if s[NAME] == "service.compute_election" and begin <= s[START] <= end
    ]
