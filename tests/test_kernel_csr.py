"""Unit tests for the flat-array kernel: CSR views and block-cut-tree queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import BlockCutTree, bfs_distances_csr, build_csr
from repro.portgraph import generators
from repro.portgraph.paths import bfs_distances, reachable_without

graph_strategy = st.builds(
    generators.random_connected_graph,
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestCSRGraph:
    def test_csr_is_memoised_on_the_graph(self):
        graph = generators.path_graph(5)
        assert graph.csr() is graph.csr()

    @given(graph=graph_strategy)
    @settings(max_examples=40, deadline=None)
    def test_csr_matches_the_port_table(self, graph):
        csr = graph.csr()
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        assert len(csr.neighbors) == len(csr.reverse_ports)
        assert csr.offsets[csr.num_nodes] == 2 * csr.num_edges
        for v in graph.nodes():
            assert csr.degree(v) == graph.degree(v)
            assert list(csr.neighbor_slice(v)) == list(graph.neighbors(v))
            for p in graph.ports(v):
                assert csr.endpoint(v, p) == graph.endpoint(v, p)
                assert csr.neighbor(v, p) == graph.neighbor(v, p)

    @given(graph=graph_strategy)
    @settings(max_examples=30, deadline=None)
    def test_twin_darts_is_the_reverse_dart_involution(self, graph):
        csr = graph.csr()
        twin = csr.twin_darts
        assert len(twin) == 2 * csr.num_edges
        for v in graph.nodes():
            for p in graph.ports(v):
                u, q = graph.endpoint(v, p)
                dart = csr.offsets[v] + p
                assert twin[dart] == csr.offsets[u] + q
                assert twin[twin[dart]] == dart
        assert csr.twin_darts is twin

    @given(graph=graph_strategy, source=st.integers(min_value=0, max_value=13))
    @settings(max_examples=30, deadline=None)
    def test_bfs_distances_match_the_reference(self, graph, source):
        source %= graph.num_nodes
        assert list(bfs_distances_csr(graph.csr(), source)) == bfs_distances(graph, source)

    def test_build_csr_standalone(self):
        graph = generators.star_graph(3)
        csr = build_csr(graph)
        assert csr.endpoint(0, 1) == (2, 0)


class TestBlockCutTree:
    @staticmethod
    def _brute_articulation_points(graph):
        points = set()
        for v in graph.nodes():
            others = [w for w in graph.nodes() if w != v]
            if not others:
                continue
            reach = reachable_without(graph, others[0], v)
            if not all(reach[w] for w in others):
                points.add(v)
        return points

    @given(graph=graph_strategy)
    @settings(max_examples=40, deadline=None)
    def test_articulation_points_match_brute_force(self, graph):
        tree = BlockCutTree(graph.csr())
        assert tree.articulation_points() == self._brute_articulation_points(graph)

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_removed_node_connectivity_matches_brute_force(self, graph):
        tree = BlockCutTree(graph.csr())
        for removed in graph.nodes():
            for a in graph.nodes():
                if a == removed:
                    continue
                reach = reachable_without(graph, a, removed)
                for b in graph.nodes():
                    if b in (removed, a):
                        continue
                    assert tree.same_component_without(a, b, removed) == reach[b]

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_starts_simple_path_matches_the_paths_module(self, graph):
        from repro.portgraph.paths import is_first_port_of_simple_path

        tree = BlockCutTree(graph.csr())
        nodes = list(graph.nodes())
        for v in nodes[:6]:
            for target in nodes[:6]:
                for port in graph.ports(v):
                    assert tree.starts_simple_path(v, port, target) == (
                        is_first_port_of_simple_path(graph, v, port, target)
                    )

    def test_blocks_of_a_tree_are_its_edges(self):
        graph = generators.path_graph(5)
        tree = BlockCutTree(graph.csr())
        blocks = sorted(tree.biconnected_components())
        assert blocks == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert tree.articulation_points() == {1, 2, 3}

    def test_cycle_is_one_block(self):
        graph = generators.cycle_graph(6)
        tree = BlockCutTree(graph.csr())
        assert tree.biconnected_components() == [tuple(range(6))]
        assert tree.articulation_points() == set()

    def test_component_key_rejects_the_removed_node(self):
        graph = generators.path_graph(3)
        tree = BlockCutTree(graph.csr())
        with pytest.raises(ValueError):
            tree.component_key(1, 1)


def _class_port_cases(graph):
    """Every (class, port, target) of ψ_PE's port search over all depths:
    classes of the refinement at each depth up to the fixpoint, every port
    below the class's minimum degree, every target node."""
    engine = graph.refinement_engine()
    stable = engine.ensure_stable()
    classes = {tuple(group) for depth in range(stable + 1) for group in engine.members_at(depth)}
    for members in sorted(classes):
        for port in range(min(graph.degree(v) for v in members)):
            for target in graph.nodes():
                yield list(members), port, target


class TestClassPortScreen:
    """``class_port_ok`` is the per-member definition, whichever backend was
    active when the tree was built."""

    @staticmethod
    def _graphs():
        from repro.families import build_gdk_member
        from repro.scenarios import corpus_specs

        graphs = [spec.build() for spec in corpus_specs(16, seed=7, corpus="mixed")]
        return graphs + [build_gdk_member(4, 1, 1).graph]

    def test_class_port_ok_matches_the_definition(self):
        large_with_cuts = 0
        for graph in self._graphs():
            tree = BlockCutTree(graph.csr())
            cut = tree.articulation_points()
            for members, port, target in _class_port_cases(graph):
                expected = all(tree.starts_simple_path(v, port, target) for v in members)
                assert tree.class_port_ok(members, port, target) == expected
                if len(members) >= 8 and cut.intersection(members):
                    large_with_cuts += 1
        # the cases cover large classes whose articulation members need the
        # exact removed-node component comparison
        assert large_with_cuts > 0

    @pytest.mark.parametrize("built_under", ["numpy", "python"])
    def test_tree_built_under_either_backend_asks_every_member(self, monkeypatch, built_under):
        if built_under == "numpy":
            pytest.importorskip("numpy")
        from repro.families import build_gdk_member
        from repro.kernel import use_backend

        graph = build_gdk_member(4, 1, 1).graph
        with use_backend(built_under):
            tree = BlockCutTree(graph.csr())
        members, port, target = next(
            (members, port, target)
            for members, port, target in _class_port_cases(graph)
            if len(members) >= 8
            and all(tree.starts_simple_path(v, port, target) for v in members)
        )
        calls = []
        original = BlockCutTree.starts_simple_path

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(BlockCutTree, "starts_simple_path", counted)
        assert tree.class_port_ok(members, port, target)
        assert calls == [(v, port, target) for v in members]


class TestCSRMemos:
    def test_csr_view_memoises_blockcut_and_distances(self):
        graph = generators.random_connected_graph(9, extra_edges=3, seed=1)
        csr = graph.csr()
        bare = csr.nbytes()
        assert csr.block_cut_tree() is csr.block_cut_tree()
        assert csr.distances_from(2) is csr.distances_from(2)
        assert list(csr.distances_from(2)) == bfs_distances(graph, 2)
        # both memos are sized with the view, for the cache's eviction bytes
        assert csr.nbytes() > bare

    def test_an_equal_graph_shares_the_cached_view_and_its_memos(self):
        from repro.runner import RefinementCache

        cache = RefinementCache()
        cached = generators.asymmetric_cycle(7)
        entry = cache.entry(cached)
        tree = cached.csr().block_cut_tree()
        distances = cached.csr().distances_from(0)
        request = generators.asymmetric_cycle(7)
        assert cache.entry(request) is entry
        assert request.csr() is cached.csr()
        assert request.csr().block_cut_tree() is tree
        assert request.csr().distances_from(0) is distances
        # the engine has run no pass yet, and is shared all the same
        assert request.refinement_engine() is cached.refinement_engine()
