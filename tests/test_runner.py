"""Tests for the batched experiment runner and the shared refinement cache."""

from __future__ import annotations

import json

import pytest

from repro.core import Task, all_election_indices, search_statistics
from repro.portgraph import generators
from repro.portgraph.graph import PortLabeledGraph
from repro.runner import (
    ExperimentRunner,
    GraphSpec,
    RefinementCache,
    SweepSpec,
    evaluate_graph_spec,
    graph_kinds,
    refinement_cache,
    shared_refinement,
)


@pytest.fixture(autouse=True)
def _fresh_process_cache():
    """Isolate every test from cache state left behind by other tests."""
    refinement_cache.clear()
    yield
    refinement_cache.clear()


def _reversal_perm(graph):
    return list(range(graph.num_nodes))[::-1]


class TestFingerprint:
    def test_stable_under_node_relabeling(self):
        for graph in [
            generators.asymmetric_cycle(7),
            generators.star_graph(4),
            generators.random_connected_graph(9, extra_edges=4, seed=3),
        ]:
            relabeled = graph.relabeled(_reversal_perm(graph))
            assert graph.fingerprint() == relabeled.fingerprint()

    def test_rotated_relabeling(self):
        graph = generators.random_connected_graph(10, extra_edges=3, seed=5)
        perm = [(v + 3) % graph.num_nodes for v in range(graph.num_nodes)]
        assert graph.fingerprint() == graph.relabeled(perm).fingerprint()

    def test_differs_across_structures(self):
        fingerprints = {
            generators.path_graph(6).fingerprint(),
            generators.star_graph(5).fingerprint(),
            generators.cycle_graph(6).fingerprint(),
            generators.asymmetric_cycle(6).fingerprint(),
            generators.complete_graph(4).fingerprint(),
        }
        assert len(fingerprints) == 5

    def test_sensitive_to_port_labeling(self):
        # same underlying 5-cycle, but one node's ports are swapped
        symmetric = generators.cycle_graph(5)
        asymmetric = generators.asymmetric_cycle(5)
        assert symmetric.fingerprint() != asymmetric.fingerprint()

    def test_name_does_not_matter(self):
        a = generators.path_graph(4, name="alpha")
        b = generators.path_graph(4, name="beta")
        assert a.fingerprint() == b.fingerprint()

    def test_deterministic_hex_digest(self):
        graph = generators.path_graph(4)
        digest = graph.fingerprint()
        assert digest == graph.fingerprint()
        assert len(digest) == 64
        int(digest, 16)  # valid hex


class TestRefinementCache:
    def test_miss_then_hit(self):
        cache = RefinementCache()
        graph = generators.asymmetric_cycle(6)
        first = cache.get(graph)
        second = cache.get(graph)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_equal_graphs_share_an_entry(self):
        cache = RefinementCache()
        cache.get(generators.asymmetric_cycle(6))
        cache.get(generators.asymmetric_cycle(6))
        assert cache.hits == 1 and len(cache) == 1

    def test_relabeled_graph_gets_its_own_refinement(self):
        # same fingerprint, different handles: the bucket must not hand back
        # a refinement whose colour lists are indexed for the other graph
        cache = RefinementCache()
        graph = generators.random_connected_graph(8, extra_edges=2, seed=7)
        relabeled = graph.relabeled(_reversal_perm(graph))
        original = cache.get(graph)
        other = cache.get(relabeled)
        assert graph.fingerprint() == relabeled.fingerprint()
        assert cache.misses == 2
        assert original is not other
        # classes correspond under the permutation
        perm = _reversal_perm(graph)
        depth = original.ensure_stable()
        mapped = {tuple(sorted(perm[u] for u in members)) for members in original.classes(depth).values()}
        theirs = {tuple(sorted(members)) for members in other.classes(other.ensure_stable()).values()}
        assert mapped == theirs

    def test_lru_eviction(self):
        cache = RefinementCache(maxsize=2)
        a, b, c = (generators.path_graph(n) for n in (4, 5, 6))
        cache.get(a)
        cache.get(b)
        cache.get(c)  # evicts a
        assert cache.evictions == 1
        cache.get(b)
        assert cache.hits == 1
        cache.get(a)  # rebuilt
        assert cache.misses == 4

    def test_maxsize_bounds_entries_not_fingerprints(self):
        # relabeled copies share a fingerprint but are separate entries, so a
        # bucket of isomorphic graphs must not grow past maxsize
        cache = RefinementCache(maxsize=2)
        graph = generators.random_connected_graph(7, extra_edges=2, seed=9)
        copies = [graph] + [
            graph.relabeled([(v + shift) % graph.num_nodes for v in range(graph.num_nodes)])
            for shift in (1, 2, 3)
        ]
        for copy in copies:
            cache.get(copy)
        assert len(cache) == 2
        assert cache.evictions == 2

    def test_refinement_passes_monotone_across_eviction(self):
        cache = RefinementCache(maxsize=1)
        a = generators.path_graph(5)
        cache.get(a).ensure_stable()
        passes = cache.refinement_passes
        assert passes > 0
        cache.get(generators.path_graph(6))  # evicts a
        assert cache.refinement_passes >= passes

    def test_stats_snapshot(self):
        cache = RefinementCache(maxsize=3)
        cache.get(generators.star_graph(3))
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["currsize"] == 1 and stats["maxsize"] == 3

    def test_clear_resets(self):
        cache = RefinementCache()
        cache.get(generators.star_graph(3))
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0

    def test_memory_lookups_never_compute_the_store_key(self, monkeypatch):
        # the in-memory cache keys on the graph itself; cache_key() is the
        # store index's digest and has no business on a memory lookup
        calls = []
        original = PortLabeledGraph.cache_key

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(PortLabeledGraph, "cache_key", counted)
        cache = RefinementCache()
        graph = generators.asymmetric_cycle(7)
        miss = cache.entry(graph)
        assert cache.entry(graph) is miss
        assert cache.entry(generators.asymmetric_cycle(7)) is miss  # equal instance
        assert cache.misses == 1 and cache.hits == 2
        assert calls == []

    def test_concurrent_lookups_keep_counters_bound_and_identity(self):
        import sys
        import threading

        cache = RefinementCache(maxsize=3)
        base = [generators.asymmetric_cycle(n) for n in (5, 6, 7)]
        variants = base + [graph.relabeled(_reversal_perm(graph)) for graph in base]
        workers, rounds = 8, 40
        errors = []

        def worker(seed):
            try:
                for i in range(rounds):
                    source = variants[(seed + i) % len(variants)]
                    # a fresh, equal instance per lookup, as served requests are
                    graph = PortLabeledGraph([source.adjacency(v) for v in source.nodes()])
                    if cache.entry(graph).graph != graph:
                        errors.append((seed, i))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == workers * rounds
        assert stats["currsize"] <= 3

    def test_shared_refinement_uses_process_cache(self):
        graph = generators.asymmetric_cycle(5)
        assert shared_refinement(graph) is shared_refinement(graph)
        assert refinement_cache.hits >= 1


class TestGraphSpec:
    def test_build_matches_direct_construction(self):
        spec = GraphSpec.make("asymmetric-cycle", n=6)
        assert spec.build() == generators.asymmetric_cycle(6)

    def test_label_is_stable(self):
        spec = GraphSpec.make("random", seed=1, n=8, extra_edges=2)
        assert spec.label == "random(extra_edges=2,n=8,seed=1)"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            GraphSpec.make("banana", n=3)

    def test_wrong_parameter_names_raise_value_error(self):
        # grid takes rows/cols, not n: must not leak a TypeError traceback
        with pytest.raises(ValueError, match="invalid parameters for graph kind 'grid'"):
            GraphSpec.make("grid", n=4).build()

    def test_kind_registry_contains_families_and_generators(self):
        kinds = graph_kinds()
        for expected in ("gdk", "udk", "jmuk", "path", "asymmetric-cycle", "hypercube"):
            assert expected in kinds

    def test_sweep_json_roundtrip(self):
        sweep = SweepSpec.make(
            [GraphSpec.make("path", n=5), GraphSpec.make("udk", delta=4, k=1, sigma=[1] * 9)],
            tasks=[Task.SELECTION, Task.PORT_ELECTION],
            max_depth=7,
            profile_depths=(0, 1),
        )
        assert SweepSpec.from_json(sweep.to_json()) == sweep


class TestRunner:
    def _sweep(self):
        return SweepSpec.make(
            [
                GraphSpec.make("three-node-line"),
                GraphSpec.make("asymmetric-cycle", n=5),
                GraphSpec.make("asymmetric-cycle", n=6),
                GraphSpec.make("star", leaves=4),
                GraphSpec.make("random", n=8, extra_edges=3, seed=2),
            ],
            profile_depths=(0,),
        )

    def test_rows_match_direct_computation(self):
        report = ExperimentRunner().run(self._sweep())
        records = report.table.records()
        assert [r["graph"] for r in records] == [spec.label for spec in self._sweep().graphs]
        for spec, record in zip(self._sweep().graphs, records):
            expected = all_election_indices(spec.build())
            for task in Task.ordered():
                assert record[f"psi_{task.value}"] == expected[task]

    def test_infeasible_graph_reports_none(self):
        sweep = SweepSpec.make([GraphSpec.make("cycle", n=6)])
        record = ExperimentRunner().run(sweep).table.records()[0]
        assert record["feasible"] is False
        assert all(record[f"psi_{task.value}"] is None for task in Task.ordered())

    def test_second_run_performs_no_new_refinement_passes(self, real_refinement_passes):
        runner = ExperimentRunner()
        states_at_start = search_statistics()["states"]
        first = runner.run(self._sweep())
        before = refinement_cache.stats()
        cold_passes = real_refinement_passes.count
        states_before = search_statistics()["states"]
        assert states_before > states_at_start  # the cold run searched
        second = runner.run(self._sweep())
        after = refinement_cache.stats()
        assert cold_passes == before["refinement_passes"] > 0
        assert after["refinement_passes"] == before["refinement_passes"]
        assert real_refinement_passes.count == cold_passes
        assert search_statistics()["states"] == states_before
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        assert second.table == first.table

    @pytest.mark.parametrize("with_store", [False, True])
    def test_each_evaluation_looks_its_graph_up_once(
        self, tmp_path, isolated_refinement_cache, with_store
    ):
        """ψ_PE's block-cut tree and ψ_PPE/ψ_CPPE's distances live on the
        CSR view and the write-through takes the held entry, so the cache's
        ``hits`` and ``misses`` count evaluations, not lookups."""
        sweep = SweepSpec.make(
            [
                GraphSpec.make("asymmetric-cycle", n=5),
                GraphSpec.make("asymmetric-cycle", n=6),
                GraphSpec.make("star", leaves=4),
            ],
            tasks=Task.ordered(),
        )
        runner = ExperimentRunner(store_path=str(tmp_path) if with_store else None)
        cold = runner.run(sweep).cache_stats
        assert (cold["hits"], cold["misses"]) == (0, 3)
        replay = runner.run(sweep).cache_stats
        assert (replay["hits"], replay["misses"]) == (3, 3)

    def test_parallel_and_serial_tables_are_byte_identical(self):
        sweep = self._sweep()
        serial = ExperimentRunner().run(sweep)
        parallel = ExperimentRunner(workers=2).run(sweep)
        assert parallel.workers == 2
        assert parallel.table.to_json() == serial.table.to_json()
        assert parallel.table.to_csv() == serial.table.to_csv()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_raises_the_first_error_item_of_the_stream(self, workers):
        """``run`` collects ``stream``: the item a bad spec fails in the stream
        is the error ``run`` raises, and a pool is shut down with it."""
        import multiprocessing

        bad = GraphSpec.make("gdk", delta=4, k=1, index=99)
        sweep = SweepSpec.make(
            [GraphSpec.make("path", n=4), bad, GraphSpec.make("path", n=5)],
            tasks=[Task.SELECTION],
        )
        runner = ExperimentRunner(workers=workers)
        items = list(runner.stream(sweep))
        assert [status for _index, status, _payload in items] == ["ok", "error", "ok"]
        message = items[1][2]
        assert message.startswith(f"{bad.label}: ")
        with pytest.raises(ValueError) as raised:
            runner.run(sweep)
        assert str(raised.value) == message
        assert multiprocessing.active_children() == []

    def test_search_limit_recorded_not_raised(self):
        sweep = SweepSpec.make(
            [GraphSpec.make("random", n=10, extra_edges=8, seed=6)],
            tasks=[Task.COMPLETE_PORT_PATH_ELECTION],
            max_states=1,
        )
        record = ExperimentRunner().run(sweep).table.records()[0]
        assert record["psi_CPPE"] is None
        assert "CPPE" in record["search_limited"]

    def test_evaluate_graph_spec_memoises_indices(self):
        spec = GraphSpec.make("asymmetric-cycle", n=7)
        sweep = SweepSpec.make([spec])
        evaluate_graph_spec(spec, sweep)
        entry = refinement_cache.entry(spec.build())
        assert ("psi", "CPPE", None, 200_000) in entry.memo

    def test_traced_evaluation_tags_its_own_passes_without_a_cache_scan(self, monkeypatch):
        from repro.obs import default_recorder, new_trace_id, span
        from repro.runner.runner import evaluate_graph

        for n in range(2, 102):  # 100 live entries a cache-wide pass sum would scan
            refinement_cache.entry(generators.path_graph(n))
        scans = []
        original = RefinementCache._live_locked

        def counted(self):
            scans.append(self)
            return original(self)

        monkeypatch.setattr(RefinementCache, "_live_locked", counted)
        sweep = SweepSpec.make([])

        def traced_tags(graph):
            trace_id = new_trace_id()
            with span("test", trace_id=trace_id):
                evaluate_graph(graph, sweep)
            spans = default_recorder.trace(trace_id)
            (tags,) = [s["tags"] for s in spans if s["name"] == "evaluate_graph"]
            return tags

        graph = generators.asymmetric_cycle(9)
        cold = traced_tags(graph)
        engine = graph.refinement_engine()
        assert cold["refinement_passes"] == engine.passes > 0
        passes = engine.passes
        warm = traced_tags(generators.asymmetric_cycle(9))
        assert warm["refinement_passes"] == 0
        assert engine.passes == passes
        assert scans == []

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(workers=0)

    def test_attach_store_path_attaches_once_per_path(self, tmp_path, isolated_refinement_cache):
        """The pool initializer: a worker attaches the configured store once."""
        from repro.runner import attach_store_path

        attach_store_path(str(tmp_path / "store"))
        attached = refinement_cache.store
        assert attached is not None
        assert attached.root == str(tmp_path / "store")
        attach_store_path(str(tmp_path / "store"))
        assert refinement_cache.store is attached  # once per path
        attach_store_path(str(tmp_path / "other"))
        assert refinement_cache.store.root == str(tmp_path / "other")


class TestResultTable:
    def test_json_and_csv_are_deterministic(self):
        sweep = SweepSpec.make([GraphSpec.make("path", n=4)], tasks=[Task.SELECTION])
        table = ExperimentRunner().run(sweep).table
        assert table.to_json() == table.to_json()
        payload = json.loads(table.to_json())
        assert payload["columns"][0] == "graph"
        assert table.to_csv().splitlines()[0].startswith("graph,n,m")

    def test_render_rejects_unknown_format(self):
        sweep = SweepSpec.make([GraphSpec.make("path", n=4)], tasks=[])
        table = ExperimentRunner().run(sweep).table
        with pytest.raises(ValueError, match="unknown format"):
            table.render("yaml")


class TestStableDepthSingleNode:
    def test_single_node_graph_is_stable_at_depth_zero(self):
        from repro.views import ViewRefinement

        graph = PortLabeledGraph([[]], name="singleton")
        refinement = ViewRefinement(graph)
        assert refinement.stable_depth == 0
        assert refinement.ensure_stable() == 0
        assert refinement.passes == 0  # no pass is ever needed
        assert refinement.colors(5) == [0]
        assert refinement.num_classes(3) == 1
        assert refinement.is_discrete()
        assert refinement.unique_nodes(0) == [0]
