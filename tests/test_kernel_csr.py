"""Unit tests for the flat-array kernel: CSR views and the dart block labelling."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

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

    @staticmethod
    def _brute_bridges(graph):
        """Every edge whose removal disconnects its two ends."""
        bridges = set()
        for v in graph.nodes():
            for u in graph.neighbors(v):
                if v > u:
                    continue
                seen, frontier = {v}, [v]
                while frontier:
                    x = frontier.pop()
                    for y in graph.neighbors(x):
                        if {x, y} != {v, u} and y not in seen:
                            seen.add(y)
                            frontier.append(y)
                if u not in seen:
                    bridges.add((v, u))
        return bridges

    @given(graph=graph_strategy)
    @settings(max_examples=40, deadline=None)
    def test_articulation_points_match_brute_force(self, graph):
        tree = BlockCutTree(graph.csr())
        assert tree.articulation_points() == self._brute_articulation_points(graph)

    @given(graph=graph_strategy)
    @settings(max_examples=40, deadline=None)
    def test_bridges_match_brute_force(self, graph):
        tree = BlockCutTree(graph.csr())
        assert tree.bridges() == self._brute_bridges(graph)

    # The DFS starts at node 0.  The star's centre is a cut vertex at the DFS
    # root, where every target lies inside the root's subtree; from a leaf,
    # every other target lies outside it.  The path has both cases at one node.
    @given(graph=graph_strategy)
    @example(graph=generators.star_graph(3))
    @example(graph=generators.path_graph(5))
    @settings(max_examples=25, deadline=None)
    def test_block_comparison_matches_the_paths_module(self, graph):
        from repro.portgraph.paths import is_first_port_of_simple_path

        tree = BlockCutTree(graph.csr())
        offsets = graph.csr().offsets
        for v in graph.nodes():
            for target in graph.nodes():
                toward = tree.block_toward(v, target)
                for port in graph.ports(v):
                    assert (tree.block[offsets[v] + port] == toward) == (
                        is_first_port_of_simple_path(graph, v, port, target)
                    )

    def test_block_toward_at_the_cut_root_and_from_a_leaf(self):
        graph = generators.star_graph(3)
        tree = BlockCutTree(graph.csr())
        offsets = graph.csr().offsets
        dart_to = {u: offsets[0] + p for p, u in enumerate(graph.neighbors(0))}
        # every leaf lies in the root's subtree, each behind its own block
        assert len({tree.block[dart] for dart in dart_to.values()}) == 3
        for leaf, dart in dart_to.items():
            assert tree.block_toward(0, leaf) == tree.block[dart]
            # from a leaf, every other node lies outside its subtree
            for target in graph.nodes():
                if target != leaf:
                    assert tree.block_toward(leaf, target) == tree.block[offsets[leaf]]
        # no dart starts a simple path from a node to itself
        assert all(tree.block_toward(v, v) == -1 for v in graph.nodes())

    def test_blocks_of_a_tree_are_its_edges(self):
        graph = generators.path_graph(5)
        tree = BlockCutTree(graph.csr())
        offsets = graph.csr().offsets
        edge_blocks = {
            (v, u): tree.block[offsets[v] + p]
            for v in graph.nodes()
            for p, u in enumerate(graph.neighbors(v))
        }
        assert all(edge_blocks[v, u] == edge_blocks[u, v] for v, u in edge_blocks)
        assert len(set(edge_blocks.values())) == 4
        assert tree.bridges() == {(0, 1), (1, 2), (2, 3), (3, 4)}
        assert tree.articulation_points() == {1, 2, 3}

    def test_cycle_is_one_block(self):
        graph = generators.cycle_graph(6)
        tree = BlockCutTree(graph.csr())
        assert len(tree.block) == 12
        assert len(set(tree.block)) == 1
        assert tree.bridges() == set()
        assert tree.articulation_points() == set()


def _class_target_cases(graph):
    """Every (class, target) of ψ_PE's port search over all depths: classes
    of the refinement at each depth up to the fixpoint, every target node."""
    engine = graph.refinement_engine()
    stable = engine.ensure_stable()
    classes = {tuple(group) for depth in range(stable + 1) for group in engine.members_at(depth)}
    for members in sorted(classes):
        for target in graph.nodes():
            yield list(members), target


def _reference_class_port(graph, members, target, reach):
    """The smallest port below the class's minimum degree that starts a simple
    path to ``target`` from every member, by the paths module's condition:
    the neighbour ``w`` is the target, or reaches it without the member.
    ``reach`` memoises ``reachable_without(graph, w, v)`` per ``(v, port)``."""

    def starts_simple_path(v, port):
        if v == target:
            return False
        w = graph.neighbor(v, port)
        if w == target:
            return True
        if (v, port) not in reach:
            reach[v, port] = reachable_without(graph, w, v)
        return reach[v, port][target]

    ports = range(min(graph.degree(v) for v in members))
    return next((p for p in ports if all(starts_simple_path(v, p) for v in members)), None)


class TestClassPortScreen:
    """``_pe_class_port`` is the per-member definition, whichever backend was
    active when the tree was built."""

    @staticmethod
    def _graphs():
        from repro.families import build_gdk_member
        from repro.scenarios import corpus_specs

        graphs = [spec.build() for spec in corpus_specs(16, seed=7, corpus="mixed")]
        return graphs + [build_gdk_member(4, 1, 1).graph]

    def test_pe_class_port_matches_the_definition(self):
        from repro.core.election_index import _pe_class_port

        large_with_cuts = 0
        for graph in self._graphs():
            tree = BlockCutTree(graph.csr())
            cut = tree.articulation_points()
            reach = {}
            for members, target in _class_target_cases(graph):
                expected = _reference_class_port(graph, members, target, reach)
                assert _pe_class_port(graph, members, target, tree) == expected
                if len(members) >= 8 and cut.intersection(members):
                    large_with_cuts += 1
        # the cases cover large classes whose cut-vertex members have darts
        # in several blocks, so the block toward the target decides
        assert large_with_cuts > 0

    @pytest.mark.parametrize("built_under", ["numpy", "python"])
    def test_pe_class_port_asks_block_toward_once_per_member(self, monkeypatch, built_under):
        if built_under == "numpy":
            pytest.importorskip("numpy")
        from repro.core.election_index import _pe_class_port
        from repro.families import build_gdk_member
        from repro.kernel import use_backend

        graph = build_gdk_member(4, 1, 1).graph
        with use_backend(built_under):
            tree = BlockCutTree(graph.csr())
        reach = {}
        members, target = next(
            (members, target)
            for members, target in _class_target_cases(graph)
            if len(members) >= 8 and _reference_class_port(graph, members, target, reach) is not None
        )
        calls = []
        original = BlockCutTree.block_toward

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(BlockCutTree, "block_toward", counted)
        assert _pe_class_port(graph, members, target, tree) is not None
        assert calls == [(v, target) for v in members]


class TestCSRMemos:
    def test_csr_view_memoises_blockcut_and_distances(self):
        graph = generators.random_connected_graph(9, extra_edges=3, seed=1)
        csr = graph.csr()
        bare = csr.nbytes()
        tree = csr.block_cut_tree()
        assert csr.block_cut_tree() is tree
        # the labelling is charged exactly: a block per dart, and a parent
        # dart and a DFS interval (tin, tout) per node
        labelled = csr.nbytes()
        assert labelled - bare == tree.nbytes()
        assert tree.nbytes() == (2 * csr.num_edges + 3 * csr.num_nodes) * tree.block.itemsize
        assert csr.distances_from(2) is csr.distances_from(2)
        assert list(csr.distances_from(2)) == bfs_distances(graph, 2)
        # both memos are sized with the view, for the cache's byte accounting
        assert csr.nbytes() == labelled + len(csr.distances_from(2)) * csr.distances_from(2).itemsize

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
