"""Unit tests for the PortLabeledGraph data structure."""

from __future__ import annotations

import types

import pytest

from repro.portgraph import PortLabeledGraph, PortLabelingError, generators


class TestConstruction:
    def test_from_edge_list_roundtrip(self):
        graph = PortLabeledGraph.from_edge_list(3, [(0, 0, 1, 0), (1, 1, 2, 0)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.degree(1) == 2
        assert graph.endpoint(0, 0) == (1, 0)
        assert graph.endpoint(1, 1) == (2, 0)

    def test_from_mapping_adjacency(self):
        adjacency = [
            {0: (1, 0)},
            {0: (0, 0), 1: (2, 0)},
            {0: (1, 1)},
        ]
        graph = PortLabeledGraph(adjacency)
        assert graph.neighbors(1) == (0, 2)

    def test_rejects_noncontiguous_ports(self):
        with pytest.raises(PortLabelingError):
            PortLabeledGraph.from_edge_list(2, [(0, 1, 1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(PortLabelingError):
            PortLabeledGraph([{0: (0, 0)}])

    def test_rejects_disconnected(self):
        with pytest.raises(PortLabelingError):
            PortLabeledGraph.from_edge_list(4, [(0, 0, 1, 0), (2, 0, 3, 0)])

    def test_rejects_bad_reciprocity(self):
        adjacency = [
            {0: (1, 0)},
            {0: (0, 0), 1: (2, 1)},
            {0: (1, 1)},
        ]
        with pytest.raises(PortLabelingError):
            PortLabeledGraph(adjacency)

    def test_rejects_multi_edge(self):
        adjacency = [
            {0: (1, 0), 1: (1, 1)},
            {0: (0, 0), 1: (0, 1)},
        ]
        with pytest.raises(PortLabelingError):
            PortLabeledGraph(adjacency)


#: Invalid adjacencies as ``port -> (neighbour, neighbour port)`` rows, one
#: per validation check.  The last two are expressible with mapping rows
#: only: a list or tuple row always has ports 0..d-1.
_INVALID_ADJACENCIES = {
    "no-nodes": [],
    "not-a-pair": [{0: (1,)}, {0: (0, 0)}],
    "neighbour-out-of-range": [{0: (1, 0)}, {0: (0, 0), 1: (5, 0)}],
    "self-loop": [{0: (0, 0)}],
    "multi-edge": [{0: (1, 0), 1: (1, 1)}, {0: (0, 0), 1: (0, 1)}],
    "missing-back-port": [{0: (1, 1)}, {0: (0, 0)}],
    "bad-reciprocity": [{0: (1, 0)}, {0: (0, 0), 1: (2, 1)}, {0: (1, 1)}],
    "disconnected": [{0: (1, 0)}, {0: (0, 0)}, {0: (3, 0)}, {0: (2, 0)}],
    "negative-port": [{-1: (1, 0)}, {0: (0, -1)}],
    "noncontiguous-ports": [{1: (1, 0)}, {0: (0, 1)}],
}

_ROW_FORMS = {
    "dict": dict,
    "list": lambda row: [row[p] for p in range(len(row))],
    "tuple": lambda row: tuple(row[p] for p in range(len(row))),
    "mappingproxy": lambda row: types.MappingProxyType(dict(row)),
}


def _in_form(rows, form):
    """``rows`` with every row converted to ``form``; ``None`` if a sequence
    form cannot express the ports."""
    if form in ("list", "tuple") and any(set(row) != set(range(len(row))) for row in rows):
        return None
    return [_ROW_FORMS[form](row) for row in rows]


class TestRowForms:
    """Dict, list, tuple and read-only mapping rows validate and build alike."""

    @pytest.mark.parametrize("case", sorted(_INVALID_ADJACENCIES))
    def test_every_error_case_raises_the_same_error_in_every_form(self, case):
        messages = {}
        for form in _ROW_FORMS:
            adjacency = _in_form(_INVALID_ADJACENCIES[case], form)
            if adjacency is None:
                continue
            with pytest.raises(PortLabelingError) as error:
                PortLabeledGraph(adjacency)
            messages[form] = str(error.value)
        assert "dict" in messages and "mappingproxy" in messages
        assert len(set(messages.values())) == 1, messages

    @pytest.mark.parametrize(
        "graph",
        [
            generators.asymmetric_cycle(7),
            generators.star_graph(4),
            generators.random_connected_graph(12, extra_edges=5, seed=4),
            generators.hypercube_graph(3),
        ],
        ids=lambda graph: graph.name,
    )
    def test_valid_graph_builds_equal_graphs_in_every_form(self, graph):
        rows = [dict(enumerate(graph.adjacency(v))) for v in graph.nodes()]
        for form in _ROW_FORMS:
            built = PortLabeledGraph(_in_form(rows, form), name=graph.name)
            assert built == graph, form
            assert built.cache_key() == graph.cache_key()


class TestAccessors:
    def test_degrees_and_ports(self):
        graph = generators.star_graph(4)
        assert graph.degree(0) == 4
        assert graph.max_degree == 4
        assert graph.min_degree == 1
        assert list(graph.ports(0)) == [0, 1, 2, 3]
        assert graph.degree_sequence() == (4, 1, 1, 1, 1)

    def test_port_to_and_edge_ports(self):
        graph = generators.three_node_line()
        assert graph.port_to(1, 0) == 0
        assert graph.port_to(1, 2) == 1
        assert graph.edge_ports(1, 2) == (1, 0)
        with pytest.raises(KeyError):
            graph.port_to(0, 2)

    def test_edges_iteration_is_consistent(self):
        graph = generators.complete_graph(5)
        edges = list(graph.edges())
        assert len(edges) == graph.num_edges == 10
        for v, pv, u, pu in edges:
            assert graph.endpoint(v, pv) == (u, pu)
            assert graph.endpoint(u, pu) == (v, pv)

    def test_degree_histogram(self):
        graph = generators.star_graph(3)
        assert graph.degree_histogram() == {3: 1, 1: 3}
        assert graph.nodes_of_degree(1) == [1, 2, 3]

    def test_has_edge(self):
        graph = generators.path_graph(4)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)


class TestEqualityAndRelabeling:
    def test_exact_equality(self):
        first = generators.path_graph(4)
        second = generators.path_graph(4)
        assert first == second
        assert hash(first) == hash(second)

    def test_inequality_different_ports(self):
        first = generators.three_node_line((0, 0, 1, 0))
        second = generators.three_node_line((0, 1, 0, 0))
        assert first != second

    def test_relabeling_is_bijective(self):
        graph = generators.path_graph(4)
        relabeled = graph.relabeled([3, 2, 1, 0])
        assert relabeled.num_nodes == 4
        assert relabeled.degree(3) == 1
        assert relabeled.has_edge(3, 2)
        with pytest.raises(ValueError):
            graph.relabeled([0, 0, 1, 2])
