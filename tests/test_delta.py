"""Delta-aware incremental recompute: edit scripts, replay, cache, service.

The contract under test is *byte-identity*: a mutation applied as a
:class:`~repro.portgraph.delta.GraphDelta` and replayed over the base
graph's warm state -- patched CSR, dirty-ball partition replay, carried
kernel memos -- must be indistinguishable, in every observable, from
building the mutated graph cold.  The hypothesis suite at the bottom
drives random seeded edit scripts through both forced pass kinds and a
store round-trip; the targeted classes above it pin the individual
layers (op validation, cache lifecycle events, the ψ-memo write-through
regression, the stored object's bytes, the service envelope, the verified
delta-lifecycle model).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_kernel_equivalence import _fresh_copy, legacy_color_history

from repro.core import Task, is_feasible
from repro.kernel import numpy_available, use_backend
from repro.kernel.refine import refinement_delta
from repro.portgraph import generators
from repro.portgraph.delta import DELTA_OPS, DeltaError, GraphDelta
from repro.portgraph.io import graph_to_dict
from repro.runner import GraphSpec, SweepSpec, refinement_cache
from repro.runner.runner import evaluate_graph
from repro.scenarios import (
    MUTATION_KINDS,
    corpus_specs,
    mutation_stream,
    mutation_sweep_items,
)
from repro.service.protocol import (
    DELTA_DONE,
    DELTA_EVALUATING,
    DELTA_INVALIDATING,
    DELTA_RECEIVED,
    DELTA_REPLAYING,
    DELTA_RESOLVING,
    DELTA_STATES,
    DELTA_TERMINAL,
    DELTA_TRANSITIONS,
    DeltaStatus,
    ProtocolViolation,
    delta_transition,
)
from repro.service.service import ServiceError, compute_election, deterministic_response
from repro.store import ArtifactStore
from repro.verify import DeltaLifecycleModel, check_model, run_verification
from repro.verify.mutants import SkipInvalidationMutant

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())


@pytest.fixture(autouse=True)
def _detached_cache(isolated_refinement_cache):
    yield


def _cold_tables(graph):
    """Canonical fixpoint tables of a cold rebuild (no warm state leaks in)."""
    fresh = _fresh_copy(graph)
    engine = fresh.refinement_engine()
    engine.ensure_stable()
    return engine.canonical_tables(), engine.class_counts, fresh.fingerprint()


def _parsed(payload: dict) -> dict:
    """A worker-side parsed query, the shape ``compute_election`` consumes."""
    return {
        "graph": payload.get("graph"),
        "spec": payload.get("spec"),
        "base": payload.get("base"),
        "delta": payload.get("delta"),
        "tasks": list(Task.ordered()),
        "max_depth": None,
        "max_states": 200_000,
        "advice": False,
    }


# --------------------------------------------------------------------- #
# edit-script object
# --------------------------------------------------------------------- #
class TestGraphDelta:
    def test_payload_round_trip_and_digest_stability(self):
        ops = [
            {"op": "remove-edge", "v": 0, "u": 1},
            {"op": "add-edge", "v": 0, "u": 4},
            {"op": "add-node", "anchor": 2},
            {"op": "remove-node", "v": 5},
            {"op": "relabel-ports", "v": 3, "perm": [1, 0]},
        ]
        delta = GraphDelta.from_payload(ops)
        assert delta.edit_distance == len(delta) == 5
        again = GraphDelta.from_payload(delta.to_payload())
        assert again == delta and hash(again) == hash(delta)
        assert again.digest() == delta.digest()

    def test_rejects_malformed_payloads(self):
        with pytest.raises(DeltaError):
            GraphDelta.from_payload({"op": "add-edge"})  # not a list
        with pytest.raises(DeltaError):
            GraphDelta.from_payload([])  # empty script
        with pytest.raises(DeltaError):
            GraphDelta([{"op": "grow-edge", "v": 0, "u": 1}])  # unknown op
        with pytest.raises(DeltaError):
            GraphDelta([{"op": "add-edge", "v": 0}])  # missing endpoint
        with pytest.raises(DeltaError):
            GraphDelta(["add-edge"])  # bare string is not an op object

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "add-edge", "v": "0", "u": 4},
            {"op": "remove-edge", "v": 0, "u": 1.0},
            {"op": "add-node", "anchor": True},
            {"op": "remove-node", "v": None},
            {"op": "relabel-ports", "v": 4, "perm": [1, 0, 3, 2.0]},
            {"op": "relabel-ports", "v": 4, "perm": "1032"},
        ],
        ids=["string", "float", "boolean", "null", "float-in-perm", "perm-string"],
    )
    def test_rejects_fields_that_are_no_json_integers(self, op):
        with pytest.raises(DeltaError, match="must be"):
            GraphDelta([op])

    def test_apply_rejects_invalid_edits(self):
        base = generators.grid_graph(3, 3)
        cases = [
            [{"op": "remove-edge", "v": 0, "u": 4}],  # not an edge
            [{"op": "add-edge", "v": 0, "u": 1}],  # already an edge
            [{"op": "add-edge", "v": 2, "u": 2}],  # self-loop
            [{"op": "remove-edge", "v": 0, "u": 999}],  # out of range
            [{"op": "add-node", "anchor": 99}],  # dangling anchor
        ]
        for ops in cases:
            with pytest.raises(DeltaError):
                GraphDelta(ops).apply_to(base)

    def test_remove_node_renames_and_reports_map(self):
        base = generators.grid_graph(3, 3)
        result = GraphDelta([{"op": "remove-node", "v": 4}]).apply_to(base)
        assert result.graph.num_nodes == base.num_nodes - 1
        # node_map is new handle -> base handle: 4 is gone, the rest survive
        assert 4 not in result.node_map
        assert sorted(result.node_map) == [v for v in range(base.num_nodes) if v != 4]


# --------------------------------------------------------------------- #
# kernel replay byte-identity
# --------------------------------------------------------------------- #
class TestKernelReplay:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cumulative_prefixes_replay_byte_identical(self, backend):
        with use_backend(backend):
            base = generators.grid_graph(4, 4)
            for delta in mutation_stream(base, seed=9, length=4):
                result = delta.apply_to(base)
                warm = result.graph
                warm.adopt_csr(base.csr().patched(result))
                engine = refinement_delta(
                    base.refinement_engine(), warm.csr(), result.node_map, result.touched
                )
                engine.ensure_stable()
                cold_tables, cold_counts, cold_fp = _cold_tables(warm)
                assert engine.canonical_tables() == cold_tables
                assert engine.class_counts == cold_counts

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_base_past_a_checkpoint_replays_byte_identical(self, backend):
        """The beacon-tail's fixpoint is 99 deep and its engine stores a full
        table at depth 69 between logged depths: the replay reads the base
        through the log across it, and the fast-forward copies the log."""
        with use_backend(backend):
            base = generators.beacon_tail_graph(100, 200, seed=11)
            base_engine = base.refinement_engine()
            base_engine.ensure_stable()
            assert len(base_engine._full) >= 2  # depth 0 and a checkpoint
            edits = mutation_stream(base, seed=9, length=3, kinds=("add-edge", "relabel-ports"))
            edits += mutation_stream(base, seed=4, length=2)
            for delta in edits:
                result = delta.apply_to(base)
                warm = result.graph
                warm.adopt_csr(base.csr().patched(result))
                engine = refinement_delta(base_engine, warm.csr(), result.node_map, result.touched)
                cold_tables, cold_counts, _cold_fp = _cold_tables(warm)
                assert engine.canonical_tables() == cold_tables
                assert engine.class_counts == cold_counts

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_replayed_engine_is_a_sound_base_for_the_next_replay(self, backend):
        """A replay's tables hold labels of its own making; replaying from
        them once merged a fresh class with an inherited one (seeds 4 and 9
        went wrong at their third edit)."""
        with use_backend(backend):
            for seed in range(10):
                graph = generators.grid_graph(4, 4)
                engine = graph.refinement_engine()
                for op in mutation_stream(graph, seed=seed, length=3)[-1].to_payload():
                    result = GraphDelta([op]).apply_to(graph)
                    patched = graph.csr().patched(result)
                    engine = refinement_delta(engine, patched, result.node_map, result.touched)
                    graph = result.graph
                    graph.adopt_csr(patched)
                    cold_tables, cold_counts, _cold_fp = _cold_tables(graph)
                    assert engine.canonical_tables() == cold_tables, (seed, op)
                    assert engine.class_counts == cold_counts

    def test_legacy_cold_and_replay_partitions_agree_on_dynamic_corpus(self):
        """The three-way matrix: a faithful legacy full-sweep refinement, the
        cold kernel and the delta replay reach one fixpoint partition."""

        def partition(colors):
            classes = {}
            for node, color in enumerate(colors):
                classes.setdefault(color, []).append(node)
            return frozenset(frozenset(members) for members in classes.values())

        with use_backend("python"):
            for spec in corpus_specs(5, seed=10, corpus="dynamic"):
                base = spec.build()
                delta = mutation_stream(base, seed=10, length=2)[-1]
                result = delta.apply_to(base)
                legacy = partition(legacy_color_history(result.graph)[-1])
                cold = _fresh_copy(result.graph).refinement_engine()
                replay = refinement_delta(
                    base.refinement_engine(),
                    base.csr().patched(result),
                    result.node_map,
                    result.touched,
                )
                assert legacy == partition(cold.colors_at(cold.ensure_stable())), spec.label
                assert legacy == partition(replay.colors_at(replay.ensure_stable())), spec.label

    @pytest.mark.parametrize(
        "kinds",
        [
            None,  # node joins/leaves: exercises the renamed-handle slow path
            # identity node_map: exercises the memcpy + offset-shift fast path
            ("add-edge", "remove-edge", "relabel-ports"),
            ("relabel-ports",),  # identity with zero degree shifts
        ],
    )
    def test_patched_csr_matches_built_csr(self, kinds):
        base = generators.torus_graph(4, 5)
        for delta in mutation_stream(base, seed=2, length=3, kinds=kinds):
            result = delta.apply_to(base)
            patched = base.csr().patched(result)
            built = _fresh_copy(result.graph).csr()
            assert patched.offsets == built.offsets
            assert patched.neighbors == built.neighbors
            assert patched.reverse_ports == built.reverse_ports

    def test_offset_shift_without_numpy_matches_built_csr(self, monkeypatch):
        # the identity fast path shifts the offsets suffix with numpy whenever
        # it is importable, whatever the backend; force the python loop
        from repro.kernel import csr as csr_module

        monkeypatch.setattr(csr_module, "numpy_or_none", lambda: None)
        base = generators.torus_graph(4, 5)
        for delta in mutation_stream(base, seed=4, length=4, kinds=("add-edge", "remove-edge")):
            result = delta.apply_to(base)
            patched = base.csr().patched(result)
            built = _fresh_copy(result.graph).csr()
            assert patched.offsets != base.csr().offsets  # degrees shifted
            assert patched.offsets == built.offsets
            assert patched.neighbors == built.neighbors
            assert patched.reverse_ports == built.reverse_ports

    def test_patched_csr_builds_its_own_twin_darts(self):
        base = generators.torus_graph(4, 5)
        base_twins = base.csr().twin_darts
        for delta in mutation_stream(base, seed=6, length=3):
            result = delta.apply_to(base)
            patched = base.csr().patched(result)
            assert patched.twin_darts == _fresh_copy(result.graph).csr().twin_darts
        assert base.csr().twin_darts is base_twins


# --------------------------------------------------------------------- #
# cache lifecycle
# --------------------------------------------------------------------- #
class TestDeltaEntry:
    def test_first_call_replays_second_hits_with_events(self):
        base = generators.grid_graph(3, 4)
        delta = mutation_stream(base, seed=5, length=1)[0]
        events: list = []
        entry = refinement_cache.delta_entry(base, delta, events=events)
        assert events == ["base_hit", "memos_invalidated", "replayed"]
        again: list = []
        hit = refinement_cache.delta_entry(base, delta, events=again)
        assert again == ["cache_hit"]
        assert hit is entry

    def test_delta_hit_refreshes_lru_recency(self):
        from repro.runner import RefinementCache

        cache = RefinementCache(maxsize=3)
        base = generators.grid_graph(3, 4)
        first = GraphDelta([{"op": "add-edge", "v": 0, "u": 5}])
        second = GraphDelta([{"op": "add-edge", "v": 0, "u": 6}])
        derived = cache.delta_entry(base, first)  # LRU: base, first
        cache.delta_entry(base, second)  # LRU: first, base, second
        assert cache.delta_entry(base, first) is derived  # the hit moves it last
        cache.entry(generators.path_graph(4))  # evicts the least recent: base
        assert cache.evictions == 1
        assert cache.entry(_fresh_copy(derived.graph)) is derived

    def test_identity_composed_delta_replaces_the_base_entry(self):
        # a delta that composes back to the base labeling, base not cached:
        # computing the base admits an entry equal to the derived graph, and
        # the derived entry replaces it -- pop, then insert, so the one key
        # left is the derived instance (a plain dict update would keep the
        # base instance, and with it an engine and CSR nothing else uses)
        base = generators.grid_graph(3, 4)
        identity = list(range(base.degree(0)))
        delta = GraphDelta([{"op": "relabel-ports", "v": 0, "perm": identity}])
        entry = refinement_cache.delta_entry(base, delta)
        assert entry.graph == base and entry.graph is not base
        assert len(refinement_cache) == 1
        (key,) = refinement_cache._entries
        assert key is entry.graph
        assert refinement_cache.entry(_fresh_copy(base)) is entry

    def test_store_record_of_mutated_graph_beats_replay(self, tmp_path):
        base = generators.grid_graph(3, 4)
        delta = mutation_stream(base, seed=5, length=1)[0]
        mutated = delta.apply_to(base).graph
        store = ArtifactStore(tmp_path / "store")
        refinement_cache.attach_store(store)
        sweep = SweepSpec.make((), tasks=list(Task.ordered()), max_states=200_000)
        evaluate_graph(_fresh_copy(mutated), sweep)  # persists the exact record
        refinement_cache.clear()
        events: list = []
        entry = refinement_cache.delta_entry(base, delta, events=events)
        assert events == ["cache_hit"]
        assert entry.memo  # arrived warm, ψ memos included
        refinement_cache.attach_store(None)

    def test_store_lookup_counts_as_one_miss_and_one_store_outcome(self, tmp_path):
        """Every in-memory miss has exactly one store outcome, as in entry()."""
        from repro.runner import RefinementCache

        base = generators.asymmetric_cycle(8)
        delta = GraphDelta([{"op": "add-edge", "v": 0, "u": 4}])
        mutated = delta.apply_to(base).graph
        # the store holds the mutated graph: one miss, served by the store
        store = ArtifactStore(tmp_path / "full")
        writer = RefinementCache()
        writer.attach_store(store)
        assert writer.persist(writer.entry(mutated))
        cache = RefinementCache()
        cache.attach_store(store)
        cache.delta_entry(base, delta)
        stats = cache.stats()
        assert (stats["misses"], stats["store_hits"], stats["store_misses"]) == (1, 1, 0)
        # an empty store: the mutated graph and the base each miss both tiers
        cache = RefinementCache()
        cache.attach_store(ArtifactStore(tmp_path / "empty"))
        cache.delta_entry(base, delta)
        stats = cache.stats()
        assert (stats["misses"], stats["store_hits"], stats["store_misses"]) == (2, 0, 2)

    def test_feasibility_memo_not_carried_across_partition_change(self):
        base = generators.circulant_graph(8, (1,))  # symmetric: infeasible
        refinement_cache.entry(base).memo[("feasible",)] = is_feasible(base)
        assert refinement_cache.entry(base).memo[("feasible",)] is False
        delta = GraphDelta([{"op": "add-edge", "v": 0, "u": 3}])  # breaks symmetry
        entry = refinement_cache.delta_entry(base, delta)
        assert ("feasible",) not in entry.memo
        assert is_feasible(entry.graph, refinement=entry.refinement) is True

    def test_inapplicable_delta_raises_delta_error(self):
        base = generators.grid_graph(3, 3)
        with pytest.raises(DeltaError):
            refinement_cache.delta_entry(
                base, GraphDelta([{"op": "remove-edge", "v": 0, "u": 8}])
            )


class TestPersistRegression:
    def test_delta_entry_never_writes_through_stale_psi_memos(self, tmp_path):
        """The ψ_PE-feasibility-flip write-through regression.

        Evaluating the *base* fills its entry with ψ memos; the delta flips
        feasibility (symmetric ring -> chorded ring).  The derived entry
        must start memo-clean, so the record persisted for the mutated
        graph carries freshly computed answers -- never the base's stale ψ
        table.
        """
        store = ArtifactStore(tmp_path / "store")
        refinement_cache.attach_store(store)
        try:
            base = generators.circulant_graph(8, (1,))
            sweep = SweepSpec.make((), tasks=list(Task.ordered()), max_states=200_000)
            base_record = evaluate_graph(base, sweep)
            assert base_record["feasible"] is False
            delta = GraphDelta([{"op": "add-edge", "v": 0, "u": 3}])
            entry = refinement_cache.delta_entry(base, delta)
            assert not entry.memo, "derived entry must start with an empty memo"
            warm_record = evaluate_graph(entry.graph, sweep)
            assert warm_record["feasible"] is True
            stored = store.load_for_graph(entry.graph)
            assert stored is not None and stored.feasible is True
            # the stored memo answers equal a cold evaluation of the graph
            refinement_cache.clear()
            refinement_cache.attach_store(None)
            cold_record = evaluate_graph(_fresh_copy(entry.graph), sweep)
            for key in ("feasible", "psi_S", "psi_PE", "psi_PPE", "psi_CPPE"):
                assert warm_record[key] == cold_record[key], key
        finally:
            refinement_cache.attach_store(None)


class TestStoreBytesAcrossPaths:
    @pytest.mark.parametrize(
        "spec, edit",
        [
            (
                {"kind": "beacon-tail", "params": {"blob": 100, "tail": 200, "seed": 11}},
                {"kinds": ("add-edge", "remove-edge", "relabel-ports"), "region": range(100)},
            ),
            ({"kind": "grid", "params": {"rows": 6, "cols": 6}}, {}),
        ],
        ids=["beacon-tail", "grid"],
    )
    def test_replayed_and_cold_graphs_store_identical_objects(self, spec, edit, tmp_path):
        """A record is a pure function of the labeled graph: write-through
        stores the same object bytes for an edited graph whether it was
        replayed from its base through ``delta_entry`` or submitted cold."""
        base = GraphSpec.from_dict(spec).build()
        ops = mutation_stream(base, seed=1, length=1, **edit)[0].to_payload()
        mutated = GraphDelta(ops).apply_to(base).graph
        objects = {}
        for path, payload in (
            ("replayed", {"base": spec, "delta": ops}),
            ("cold", {"graph": graph_to_dict(mutated)}),
        ):
            refinement_cache.clear()
            store = ArtifactStore(tmp_path / path)
            refinement_cache.attach_store(store)
            try:
                response = compute_election(dict(_parsed(payload), tasks=[Task("S"), Task("PE")]))
            finally:
                refinement_cache.attach_store(None)
            if path == "replayed":
                assert "replayed" in response["delta_path"]
            assert store.keys() == [mutated.cache_key()]
            objects[path] = store.get_bytes(mutated.cache_key())
        assert objects["replayed"] == objects["cold"]


# --------------------------------------------------------------------- #
# mutation streams
# --------------------------------------------------------------------- #
class TestMutationStreams:
    def test_streams_are_seed_deterministic_and_cumulative(self):
        base = generators.grid_graph(4, 4)
        one = mutation_stream(base, seed=13, length=4)
        two = mutation_stream(base, seed=13, length=4)
        assert [d.digest() for d in one] == [d.digest() for d in two]
        assert [d.edit_distance for d in one] == [1, 2, 3, 4]
        # cumulative: each script extends the previous one
        for shorter, longer in zip(one, one[1:]):
            assert longer.ops[: len(shorter.ops)] == shorter.ops
        assert mutation_stream(base, seed=14, length=4)[-1].digest() != one[-1].digest()

    def test_every_prefix_applies_and_stays_connected(self):
        for spec in corpus_specs(3, seed=21, corpus="dynamic"):
            base = spec.build()
            for delta in mutation_stream(base, seed=8, length=3):
                mutated = delta.apply_to(base).graph
                # connectivity is what the generators promise by never
                # removing bridges or cut vertices
                from repro.portgraph.validation import check_connected

                adjacency = [mutated.adjacency(v) for v in mutated.nodes()]
                assert check_connected(adjacency), (spec.label, delta.ops)

    def test_kind_restriction_and_validation(self):
        base = generators.grid_graph(4, 4)
        only_ports = mutation_stream(
            base, seed=3, length=3, kinds=("relabel-ports",)
        )
        assert all(
            op[0] == "relabel-ports" for delta in only_ports for op in delta.ops
        )
        with pytest.raises(ValueError):
            mutation_stream(base, seed=3, length=2, kinds=("melt-node",))

    def test_sweep_items_envelope(self):
        specs = corpus_specs(2, seed=7, corpus="dynamic")
        items = mutation_sweep_items(specs, seed=7, per_graph=2)
        assert len(items) == 4
        for item in items:
            assert set(item) == {"base", "delta"}
            assert isinstance(item["delta"], list) and item["delta"]
            GraphSpec.from_dict(item["base"])  # round-trips as a spec

    def test_dynamic_xl_corpus_leads_with_5k_grid(self):
        spec = corpus_specs(1, seed=0, corpus="dynamic-xl")[0]
        assert spec.kind == "grid"
        params = dict(spec.params)
        assert params["rows"] * params["cols"] >= 5_000

    def test_region_restricted_stream_draws_only_region_nodes(self):
        base = generators.grid_graph(6, 6)
        region = range(12)
        stream = mutation_stream(
            base,
            seed=4,
            length=4,
            kinds=("add-edge", "remove-edge", "relabel-ports"),
            region=region,
        )
        for delta in stream:
            for op in delta.ops:
                named = op[1:3] if op[0] in ("add-edge", "remove-edge") else op[1:2]
                assert all(v in region for v in named), op

    def test_region_none_preserves_legacy_draw_sequence(self):
        base = generators.grid_graph(4, 4)
        legacy = mutation_stream(base, seed=13, length=4)
        explicit = mutation_stream(base, seed=13, length=4, region=None)
        assert [d.digest() for d in legacy] == [d.digest() for d in explicit]

    def test_beacon_tail_member_is_xl_and_region_edits_apply(self):
        spec = corpus_specs(3, seed=10, corpus="dynamic-xl")[2]
        assert spec.kind == "beacon-tail"
        blob = dict(spec.params)["blob"]
        base = spec.build()
        assert base.num_nodes >= 5_000
        delta = mutation_stream(
            base,
            seed=10,
            length=1,
            kinds=("add-edge", "remove-edge", "relabel-ports"),
            region=range(blob),
        )[0]
        result = delta.apply_to(base)
        assert all(v < blob for v in result.touched)


# --------------------------------------------------------------------- #
# protocol + verified model
# --------------------------------------------------------------------- #
class TestDeltaProtocol:
    def test_happy_paths(self):
        for events, final in [
            (["lookup", "cache_hit", "evaluated"], DELTA_DONE),
            (
                ["lookup", "base_hit", "memos_invalidated", "replayed", "evaluated"],
                DELTA_DONE,
            ),
            (["lookup", "base_miss", "recomputed", "evaluated"], DELTA_DONE),
        ]:
            status = DeltaStatus()
            for event in events:
                status.apply(event)
            assert status.state == final and status.events == events

    def test_illegal_transitions_raise(self):
        with pytest.raises(ProtocolViolation):
            delta_transition(DELTA_RECEIVED, "replayed")
        with pytest.raises(ProtocolViolation):
            delta_transition(DELTA_RESOLVING, "replayed")  # must invalidate first
        with pytest.raises(ProtocolViolation):
            delta_transition(DELTA_DONE, "lookup")  # terminal

    def test_table_is_closed_over_declared_states(self):
        for (state, _event), nxt in DELTA_TRANSITIONS.items():
            assert state in DELTA_STATES and nxt in DELTA_STATES
            assert state not in DELTA_TERMINAL

    def test_model_verifies_clean_and_mutant_is_caught(self):
        result = check_model(DeltaLifecycleModel(), max_states=10_000, max_depth=100)
        assert result.ok and result.complete
        mutant = check_model(SkipInvalidationMutant(), max_states=10_000, max_depth=100)
        assert any(v.kind == "invariant" for v in mutant.violations)

    def test_run_verification_includes_delta_leg(self):
        report = run_verification(["delta"], max_states=10_000, max_depth=100)
        assert report["ok"] is True
        assert [m["model"] for m in report["models"]] == ["delta-lifecycle"]
        caught = {m["model"]: m["caught"] for m in report["mutants"]}
        assert caught["delta-lifecycle[mutant:skip-invalidation]"] is True


# --------------------------------------------------------------------- #
# service envelope
# --------------------------------------------------------------------- #
class TestServiceDelta:
    def test_spec_base_replays_then_hits_and_matches_cold_submission(self):
        spec = {"kind": "grid", "params": {"rows": 3, "cols": 3}}
        ops = [
            {"op": "remove-edge", "v": 0, "u": 1},
            {"op": "add-edge", "v": 0, "u": 4},
        ]
        first = compute_election(_parsed({"base": spec, "delta": ops}))
        assert first["delta_path"] == [
            "lookup",
            "base_hit",
            "memos_invalidated",
            "replayed",
            "evaluated",
        ]
        assert first["delta"]["base"] == GraphSpec.from_dict(spec).label
        assert first["delta"]["edit_distance"] == 2
        repeat = compute_election(_parsed({"base": spec, "delta": ops}))
        assert repeat["delta_path"] == ["lookup", "cache_hit", "evaluated"]
        assert deterministic_response(repeat) == deterministic_response(first)
        # a plain submission of the mutated graph answers byte-identically
        base = GraphSpec.from_dict(spec).build()
        mutated = GraphDelta(ops).apply_to(base).graph
        cold = compute_election(_parsed({"graph": graph_to_dict(mutated)}))
        for key in ("fingerprint", "feasible", "indices", "n", "m"):
            assert cold[key] == first[key], key

    def test_a_cold_delta_item_counts_one_miss_and_one_hit(self):
        """The mutated graph misses once and its cached base hits once: the
        evaluation takes the entry the delta path resolved, so ``hits`` and
        ``misses`` count queries on the delta path too."""
        spec = {"kind": "grid", "params": {"rows": 3, "cols": 3}}
        compute_election(_parsed({"spec": spec}))  # caches the base
        before = refinement_cache.stats()
        response = compute_election(
            _parsed({"base": spec, "delta": [{"op": "add-edge", "v": 0, "u": 4}]})
        )
        after = refinement_cache.stats()
        assert "replayed" in response["delta_path"]
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_fingerprint_base_resolves_through_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        refinement_cache.attach_store(store)
        try:
            spec = {"kind": "grid", "params": {"rows": 3, "cols": 3}}
            seeded = compute_election(_parsed({"spec": spec}))
            response = compute_election(
                _parsed(
                    {
                        "base": seeded["fingerprint"],
                        "delta": [{"op": "add-edge", "v": 0, "u": 4}],
                    }
                )
            )
            assert response["delta"]["edit_distance"] == 1
            assert response["delta"]["base"] == GraphSpec.from_dict(spec).build().name
            assert response["delta_path"][1] in ("base_hit", "cache_hit")
        finally:
            refinement_cache.attach_store(None)

    def test_a_replayed_graph_named_by_fingerprint_answers_as_a_plain_submission(self, tmp_path):
        """A mutated graph's fingerprint names it as the base of the next
        delta, whose replay then starts from the first replay's engine.  It
        used to answer ψ_PPE = ψ_CPPE = 2 here, where the graph has 1."""
        spec = {"kind": "grid", "params": {"rows": 4, "cols": 4}}
        ops = mutation_stream(GraphSpec.from_dict(spec).build(), seed=22, length=2)[-1].to_payload()
        refinement_cache.attach_store(ArtifactStore(tmp_path / "store"))
        try:
            first = compute_election(_parsed({"base": spec, "delta": ops[:1]}))
            chained = compute_election(_parsed({"base": first["fingerprint"], "delta": ops[1:]}))
        finally:
            refinement_cache.attach_store(None)
        assert chained["delta_path"][1:4] == ["base_hit", "memos_invalidated", "replayed"]
        mutated = GraphDelta(ops).apply_to(GraphSpec.from_dict(spec).build()).graph
        refinement_cache.clear()
        plain = compute_election(_parsed({"graph": graph_to_dict(mutated)}))
        for key in ("fingerprint", "feasible", "indices"):
            assert chained[key] == plain[key], key

    @pytest.mark.parametrize("pair", ["torus-and-twisted-torus", "relabeled-copy"])
    def test_a_fingerprint_two_stored_graphs_share_is_409(self, tmp_path, pair):
        """A fingerprint names what colour refinement sees, not a graph: once
        two labeled graphs behind one fingerprint are stored, a fingerprint
        base must not resolve to either -- not even through a fresh store
        handle, as a restarted service would open."""
        if pair == "torus-and-twisted-torus":
            first, second = generators.torus_graph(3, 4), generators.twisted_torus_graph(3, 4, 1)
        else:
            first = generators.grid_graph(3, 3)
            second = first.relabeled(list(range(first.num_nodes))[::-1])
        assert first.fingerprint() == second.fingerprint() and first != second
        perm = list(range(first.degree(0)))[::-1]
        store_path = tmp_path / "store"
        refinement_cache.attach_store(ArtifactStore(store_path))
        try:
            served = [
                compute_election(_parsed({"graph": graph_to_dict(graph)}))["fingerprint"]
                for graph in (first, second)
            ]
            assert served == [first.fingerprint()] * 2
            refinement_cache.clear()
            refinement_cache.attach_store(ArtifactStore(store_path))
            with pytest.raises(ServiceError) as info:
                compute_election(
                    _parsed(
                        {
                            "base": served[1],
                            "delta": [{"op": "relabel-ports", "v": 0, "perm": perm}],
                        }
                    )
                )
            assert info.value.status == 409
            assert "send the base as a spec or adjacency" in info.value.message
        finally:
            refinement_cache.attach_store(None)

    def test_fingerprint_base_miss_is_404(self, tmp_path):
        refinement_cache.attach_store(ArtifactStore(tmp_path / "store"))
        try:
            with pytest.raises(ServiceError) as info:
                compute_election(
                    _parsed(
                        {"base": "0" * 64, "delta": [{"op": "add-edge", "v": 0, "u": 4}]}
                    )
                )
            assert info.value.status == 404
        finally:
            refinement_cache.attach_store(None)

    def test_inapplicable_delta_is_400(self):
        with pytest.raises(ServiceError) as info:
            compute_election(
                _parsed(
                    {
                        "base": {"kind": "grid", "params": {"rows": 3, "cols": 3}},
                        "delta": [{"op": "remove-edge", "v": 0, "u": 8}],
                    }
                )
            )
        assert info.value.status == 400

    def test_mutation_sweep_items_match_plain_submissions(self):
        """Every ``{base, delta}`` item of a mutation sweep replays through the
        verified lifecycle and answers as a plain submission of the mutated
        graph does."""
        specs = corpus_specs(5, seed=10, corpus="dynamic")
        items = mutation_sweep_items(specs, seed=10, per_graph=2)
        assert len(items) == 10
        for item in items:
            refinement_cache.clear()
            replayed = compute_election(dict(_parsed(item), max_states=50_000))
            assert replayed["delta_path"][1:4] == ["base_hit", "memos_invalidated", "replayed"]
            base = next(spec.build() for spec in specs if spec.to_dict() == item["base"])
            mutated = GraphDelta(item["delta"]).apply_to(base).graph
            refinement_cache.clear()
            plain = compute_election(
                dict(_parsed({"graph": graph_to_dict(mutated)}), max_states=50_000)
            )
            for key in ("fingerprint", "feasible", "indices", "n", "m", "max_degree"):
                assert replayed[key] == plain[key], (item["base"], key)

    def test_delta_path_is_volatile_in_deterministic_response(self):
        spec = {"kind": "grid", "params": {"rows": 3, "cols": 3}}
        ops = [{"op": "add-edge", "v": 0, "u": 4}]
        response = compute_election(_parsed({"base": spec, "delta": ops}))
        cleaned = deterministic_response(response)
        assert "delta_path" not in cleaned
        assert "delta" in cleaned  # the identifying section stays


# --------------------------------------------------------------------- #
# hypothesis: random edit scripts == cold recompute, everywhere
# --------------------------------------------------------------------- #
_BASE_BUILDERS = (
    lambda: generators.grid_graph(4, 4),
    lambda: generators.torus_graph(3, 5),
    lambda: generators.circulant_graph(10, (1, 2)),
    lambda: generators.random_regular_graph(10, 4, seed=6),
    lambda: generators.erdos_renyi_graph(11, seed=9),
)


class TestDeltaProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        base_index=st.integers(min_value=0, max_value=len(_BASE_BUILDERS) - 1),
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=4),
    )
    def test_replay_matches_cold_recompute(self, base_index, seed, length):
        base = _BASE_BUILDERS[base_index]()
        delta = mutation_stream(base, seed=seed, length=length)[-1]
        refinement_cache.clear()
        entry = refinement_cache.delta_entry(base, delta)
        warm_engine = entry.graph.refinement_engine()
        warm_engine.ensure_stable()
        cold_tables, cold_counts, cold_fp = _cold_tables(entry.graph)
        assert warm_engine.canonical_tables() == cold_tables
        assert warm_engine.class_counts == cold_counts
        assert entry.graph.fingerprint() == cold_fp
        assert is_feasible(entry.graph, refinement=entry.refinement) == is_feasible(
            _fresh_copy(entry.graph)
        )

    @needs_numpy
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_backends_agree_on_replayed_tables(self, seed):
        base_graph = generators.grid_graph(4, 5)
        delta = mutation_stream(base_graph, seed=seed, length=3)[-1]
        observed = {}
        for backend in ("python", "numpy"):
            with use_backend(backend):
                refinement_cache.clear()
                entry = refinement_cache.delta_entry(_fresh_copy(base_graph), delta)
                engine = entry.graph.refinement_engine()
                engine.ensure_stable()
                observed[backend] = (
                    engine.canonical_tables(),
                    engine.class_counts,
                    entry.graph.fingerprint(),
                )
        assert observed["python"] == observed["numpy"]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_store_round_trip_preserves_answers(self, seed, tmp_path_factory):
        base = generators.grid_graph(4, 4)
        delta = mutation_stream(base, seed=seed, length=2)[-1]
        store = ArtifactStore(tmp_path_factory.mktemp("delta-store"))
        refinement_cache.clear()
        refinement_cache.attach_store(store)
        try:
            sweep = SweepSpec.make((), tasks=list(Task.ordered()), max_states=200_000)
            entry = refinement_cache.delta_entry(base, delta)
            warm = evaluate_graph(entry.graph, sweep)
            assert store.load_for_graph(entry.graph) is not None
            refinement_cache.clear()
            reloaded: list = []
            again = refinement_cache.delta_entry(base, delta, events=reloaded)
            assert reloaded == ["cache_hit"]  # the stored record answered
            replayed = evaluate_graph(again.graph, sweep)
            for key in ("feasible", "psi_S", "psi_PE", "psi_PPE", "psi_CPPE"):
                assert replayed[key] == warm[key], key
        finally:
            refinement_cache.attach_store(None)
