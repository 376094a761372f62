"""Speed floors: hard performance checks against a baseline measured in-process.

Each floor times a fixed workload twice in the same process -- once on the
path it certifies, once on the plain path it replaces -- and fails when the
ratio falls under its threshold:

* **delta replay** -- at least 3x faster than a cold fixpoint at every edit
  distance 1-4 on the 6 000-node beacon-tail member;
* **kernel** -- cold refinement on forced vector passes at least 3x faster
  than on forced worklist passes;
* **hot tier** -- hot-tier ``ArtifactStore.get`` p99 below the cold read p99;
* **tracing** -- a traced warm replay within 3 % of an untraced one.

The delta floor's margin is thin, and it reads lower after the large-graph
and store tests have run in the same process, so it runs first, as in a
fresh process.

The whole module is ``slow``-marked, so the tier-1 run deselects it::

    PYTHONPATH=src python -m pytest -q -m slow tests/test_speed_floors.py -rP

(``-rP`` prints each floor's reading.)  Byte identity rides along with
every floor: a speedup for diverging outputs does not count.
"""

from __future__ import annotations

import random
import time

import pytest
from test_kernel_equivalence import _fresh_copy

from repro.core import Task
from repro.families import build_jmuk_member, jmuk_border_count
from repro.kernel import CSRPartitionRefinement, numpy_available, use_backend
from repro.kernel.refine import refinement_delta
from repro.obs import default_recorder, new_trace_id, set_tracing, span
from repro.portgraph.generators import random_connected_graph
from repro.runner import ExperimentRunner, GraphSpec, SweepSpec, refinement_cache, warm_sweep
from repro.scenarios import corpus_specs, mutation_stream
from repro.store import ArtifactStore

pytestmark = pytest.mark.slow

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: The E16 mixed sweep: family members, generators and joint searches.
E16_SWEEP = SweepSpec.make(
    [
        GraphSpec.make("gdk", delta=4, k=1, index=1),
        GraphSpec.make("gdk", delta=4, k=1, index=2),
        GraphSpec.make("gdk", delta=4, k=1, index=3),
        GraphSpec.make("asymmetric-cycle", n=7),
        GraphSpec.make("asymmetric-cycle", n=9),
        GraphSpec.make("star", leaves=4),
        GraphSpec.make("random", n=9, extra_edges=4, seed=2),
        GraphSpec.make("random", n=10, extra_edges=5, seed=3),
    ],
    tasks=Task.ordered(),
    profile_depths=(1,),
)


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


# --------------------------------------------------------------------------- #
# delta replay vs cold recompute
# --------------------------------------------------------------------------- #
DELTA_SEED = 10
MAX_EDIT_DISTANCE = 4
DELTA_MIN_SPEEDUP = 3.0
COLD_REPS = 2
DELTA_REPS = 3
#: Localised edits, confined to the beacon of the beacon-tail member.
BEACON_KINDS = ("add-edge", "remove-edge", "relabel-ports")


def _cold_fixpoint(graph):
    """Refine a cold copy to the fixpoint: ``(seconds, engine)``."""
    fresh = _fresh_copy(graph)
    started = time.perf_counter()
    engine = fresh.refinement_engine()  # builds the CSR view too
    engine.colors_at(engine.ensure_stable())
    return time.perf_counter() - started, engine


def _delta_fixpoint(base, delta):
    """Apply, patch and replay over the warm base: ``(seconds, engine)``."""
    base_engine = base.refinement_engine()
    started = time.perf_counter()
    result = delta.apply_to(base)
    patched = base.csr().patched(result)
    engine = refinement_delta(base_engine, patched, result.node_map, result.touched)
    engine.colors_at(engine.ensure_stable())
    return time.perf_counter() - started, engine


def _delta_curve(base, *, kinds=None, region=None):
    """Replay speedups over cold per cumulative edit distance, and table diffs."""
    base.refinement_engine().ensure_stable()  # the warm state a delta replays over
    speedups, diffs = [], 0
    stream = mutation_stream(
        base, seed=DELTA_SEED, length=MAX_EDIT_DISTANCE, kinds=kinds, region=region
    )
    for delta in stream:
        cold_s, cold_engine = min(
            (_cold_fixpoint(delta.apply_to(base).graph) for _ in range(COLD_REPS)),
            key=lambda pair: pair[0],
        )
        delta_s, delta_engine = min(
            (_delta_fixpoint(base, delta) for _ in range(DELTA_REPS)),
            key=lambda pair: pair[0],
        )
        if (
            delta_engine.canonical_tables() != cold_engine.canonical_tables()
            or delta_engine.class_counts != cold_engine.class_counts
        ):
            diffs += 1
        speedups.append(round(cold_s / delta_s, 2))
    return speedups, diffs


def _beacon_tail():
    """The ``dynamic-xl`` beacon-tail member and its beacon's node range."""
    spec = corpus_specs(3, seed=DELTA_SEED, corpus="dynamic-xl")[2]
    return spec, range(spec.to_dict()["params"]["blob"])


def test_delta_replay_is_3x_faster_than_cold_on_beacon_tail():
    spec, region = _beacon_tail()
    with use_backend("python"):
        base = spec.build()
        speedups, diffs = _delta_curve(base, kinds=BEACON_KINDS, region=region)
    assert base.num_nodes >= 5_000
    assert diffs == 0
    print(f"delta floor: replay speedups {speedups} at edit distances 1-{MAX_EDIT_DISTANCE}")
    assert min(speedups) >= DELTA_MIN_SPEEDUP


def test_grid_delta_curve_is_byte_identical():
    """On the 72x72 grid one edit shifts the partition at every depth, so the
    replay cannot win; its tables must still equal the cold ones."""
    spec = corpus_specs(1, seed=DELTA_SEED, corpus="dynamic-xl")[0]
    with use_backend("python"):
        speedups, diffs = _delta_curve(spec.build())
    print(f"grid delta curve: replay speedups {speedups}")
    assert diffs == 0


@needs_numpy
def test_numpy_beacon_tail_delta_curve_is_byte_identical():
    spec, region = _beacon_tail()
    with use_backend("numpy"):
        speedups, diffs = _delta_curve(spec.build(), kinds=BEACON_KINDS, region=region)
    print(f"numpy delta curve: replay speedups {speedups}")
    assert diffs == 0


# --------------------------------------------------------------------------- #
# kernel: vector passes vs worklist passes, cold
# --------------------------------------------------------------------------- #
#: Big enough that vectorisation wins by a wide margin; small graphs would
#: measure per-call overhead, where vector passes are slower by design.
KERNEL_NODES = 12_000
KERNEL_DEPTH = 6
KERNEL_MIN_SPEEDUP = 3.0


def _cold_refinement(csr, backend: str, depth: int, repeats: int):
    """Best-of-``repeats`` cold refinement to ``depth``: ``(seconds, engine)``.

    ``backend`` forces the pass kinds: ``"python"`` worklist passes only,
    ``"numpy"`` vector passes only, ``"auto"`` the engine's choice.
    """
    best, engine = float("inf"), None
    with use_backend(backend):
        for _ in range(repeats):
            started = time.perf_counter()
            engine = CSRPartitionRefinement(csr)
            engine.ensure_depth(depth)
            best = min(best, time.perf_counter() - started)
    return best, engine


@needs_numpy
def test_vector_passes_refine_3x_faster_than_worklist_passes():
    graph = random_connected_graph(KERNEL_NODES, extra_edges=KERNEL_NODES, seed=7)
    csr = graph.csr()
    worklist_s, worklist_engine = _cold_refinement(csr, "python", KERNEL_DEPTH, 2)
    vector_s, vector_engine = _cold_refinement(csr, "numpy", KERNEL_DEPTH, 2)
    assert worklist_engine.canonical_tables() == vector_engine.canonical_tables()
    speedup = worklist_s / vector_s
    print(
        f"kernel floor: worklist passes {worklist_s:.3f}s, "
        f"vector passes {vector_s:.3f}s, {speedup:.2f}x"
    )
    assert speedup >= KERNEL_MIN_SPEEDUP


def _jmuk_member_graph():
    z = jmuk_border_count(2, 4)
    return build_jmuk_member(2, 4, tuple(i % 2 for i in range(2 ** (z - 1)))).graph


@needs_numpy
@pytest.mark.parametrize(
    "build, depth",
    [
        (lambda: random_connected_graph(20_000, extra_edges=20_000, seed=3), 6),
        (_jmuk_member_graph, 4),
    ],
    ids=["random-20k", "jmuk-2-4"],
)
def test_pass_kinds_refine_large_graphs_to_identical_tables(build, depth):
    csr = build().csr()
    _, python_engine = _cold_refinement(csr, "python", depth, 1)
    for backend in ("numpy", "auto"):
        _, engine = _cold_refinement(csr, backend, depth, 1)
        assert engine.canonical_tables() == python_engine.canonical_tables()


# --------------------------------------------------------------------------- #
# hot tier: zipf store lookups, cold vs hot
# --------------------------------------------------------------------------- #
CORPUS_COUNT = 16
CORPUS_SEED = 9
#: Zipf exponent of the replayed key stream: a hot head, a long tail.
ZIPF_S = 1.1
STORE_DRAWS = 1500
MAX_STATES = 50_000


def _p99_ms(samples_ms) -> float:
    ordered = sorted(samples_ms)
    return round(ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))], 4)


def test_hot_tier_p99_beats_cold_store_reads(tmp_path):
    store_dir = str(tmp_path / "store")
    sweep = SweepSpec.make(corpus_specs(CORPUS_COUNT, seed=CORPUS_SEED), max_states=MAX_STATES)
    report = warm_sweep(sweep, store_dir, shared={"max_states": MAX_STATES}, jobs=2)
    assert report.errors == 0
    refinement_cache.attach_store(None)
    refinement_cache.clear()

    cold_store = ArtifactStore(store_dir)
    keys = sorted(cold_store.keys())
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    stream = random.Random(CORPUS_SEED).choices(keys, weights=weights, k=STORE_DRAWS)

    def replay(store):
        samples, payloads = [], {}
        for key in stream:
            started = time.perf_counter()
            record = store.get(key)
            samples.append((time.perf_counter() - started) * 1000.0)
            assert record is not None, key
            if key not in payloads:
                payloads[key] = record.to_bytes()
        return samples, payloads

    cold_samples, cold_payloads = replay(cold_store)
    hot_store = ArtifactStore(store_dir, hot_tier_bytes=64 * 1024 * 1024)
    try:
        hot_samples, hot_payloads = replay(hot_store)
        hot_hits = hot_store.stats()["hot_hits"]
    finally:
        hot_store.close()
    assert hot_payloads == cold_payloads
    assert hot_hits > 0
    cold_p99, hot_p99 = _p99_ms(cold_samples), _p99_ms(hot_samples)
    print(f"hot-tier floor: cold p99 {cold_p99} ms, hot p99 {hot_p99} ms, {hot_hits} hot hits")
    assert hot_p99 < cold_p99


# --------------------------------------------------------------------------- #
# tracing overhead on the warm path
# --------------------------------------------------------------------------- #
TRACE_ROUNDS = 7
#: Warm sweep replays per timed round (one replay is too short to time).
TRACE_REPS_PER_ROUND = 10
TRACE_MAX_OVERHEAD = 0.03


def _timed_round(runner: ExperimentRunner, traced: bool) -> float:
    prior = set_tracing(traced)
    try:
        started = time.perf_counter()
        if traced:
            with span("speed_floor", trace_id=new_trace_id("floor")):
                for _ in range(TRACE_REPS_PER_ROUND):
                    runner.run(E16_SWEEP)
        else:
            for _ in range(TRACE_REPS_PER_ROUND):
                runner.run(E16_SWEEP)
        return time.perf_counter() - started
    finally:
        set_tracing(prior)


def test_tracing_overhead_on_warm_replay_is_below_3_percent(tmp_path):
    """Traced (an active root span, every evaluation a real span) against
    untraced (tracing switched off); rounds alternate which mode goes first,
    and the minimum round per mode is compared."""
    store_dir = str(tmp_path / "store")
    default_recorder.clear()
    runner = ExperimentRunner(store_path=store_dir)
    runner.run(E16_SWEEP)
    warm_passes = refinement_cache.stats()["refinement_passes"]
    runner.run(E16_SWEEP)
    assert refinement_cache.stats()["refinement_passes"] == warm_passes, (
        "the replay must be fully warm before timing starts"
    )
    runner = ExperimentRunner(store_path=store_dir)
    rounds = {True: [], False: []}
    for round_index in range(TRACE_ROUNDS):
        order = (True, False) if round_index % 2 == 0 else (False, True)
        for traced in order:
            rounds[traced].append(_timed_round(runner, traced))
    spans = default_recorder.stats()["spans"]
    default_recorder.clear()
    traced_s, untraced_s = min(rounds[True]), min(rounds[False])
    overhead = traced_s / untraced_s - 1.0
    print(f"tracing floor: traced {traced_s:.6f}s, untraced {untraced_s:.6f}s, {overhead:+.2%}")
    assert spans > 0
    assert overhead < TRACE_MAX_OVERHEAD
