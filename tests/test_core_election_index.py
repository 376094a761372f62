"""Unit and property tests for exact election indices ψ_Z(G)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Task,
    all_election_indices,
    complete_port_path_election_index,
    election_index,
    indices_respect_hierarchy,
    is_feasible,
    path_election_assignment,
    port_election_assignment,
    port_election_index,
    port_path_election_index,
    selection_assignment,
    selection_index,
    validate,
    verify_fact_1_1,
)
from repro.core.tasks import LEADER
from repro.portgraph import generators
from repro.views import ViewRefinement


class TestSelectionIndex:
    def test_paper_example_three_node_line(self, three_line):
        # ψ_S = 0: the middle node has unique degree.
        assert selection_index(three_line) == 0

    def test_star_is_zero(self):
        assert selection_index(generators.star_graph(4)) == 0

    def test_infeasible_graph_has_no_index(self, infeasible_graphs):
        for graph in infeasible_graphs:
            assert selection_index(graph) is None

    def test_asymmetric_cycle_needs_one_round(self):
        assert selection_index(generators.asymmetric_cycle(6)) == 1

    def test_selection_assignment_returns_unique_view_node(self):
        graph = generators.star_graph(3)
        assert selection_assignment(graph, 0) == 0
        cycle = generators.asymmetric_cycle(6)
        assert selection_assignment(cycle, 0) is None
        leader = selection_assignment(cycle, 1)
        assert leader is not None
        assert ViewRefinement(cycle).has_unique_view(leader, 1)


class TestPortElectionIndex:
    def test_paper_example_three_node_line(self, three_line):
        assert port_election_index(three_line) == 0

    def test_star_is_zero(self):
        assert port_election_index(generators.star_graph(5)) == 0

    def test_infeasible_graph_has_no_index(self, infeasible_graphs):
        for graph in infeasible_graphs:
            assert port_election_index(graph) is None

    def test_assignment_is_a_valid_pe_solution(self, small_feasible_graphs):
        for graph in small_feasible_graphs:
            index = port_election_index(graph)
            assert index is not None
            leader, ports = port_election_assignment(graph, index)
            outputs = dict(ports)
            outputs[leader] = LEADER
            assert validate(Task.PORT_ELECTION, graph, outputs).ok, graph.name

    def test_assignment_constant_on_view_classes(self):
        graph = generators.asymmetric_cycle(7)
        index = port_election_index(graph)
        leader, ports = port_election_assignment(graph, index)
        refinement = ViewRefinement(graph)
        for u in graph.nodes():
            for v in graph.nodes():
                if u == leader or v == leader:
                    continue
                if refinement.views_equal(u, v, index):
                    assert ports[u] == ports[v]


class TestPathElectionIndices:
    def test_paper_example_three_node_line(self, three_line):
        # The paper's Section 1 example: ψ_CPPE = 1 for the line 0,0,1,0.
        assert port_path_election_index(three_line) == 0
        assert complete_port_path_election_index(three_line) == 1

    def test_star_needs_one_round_for_cppe(self):
        # Leaves of a star reach the centre on distinct incoming ports, so a
        # common CPPE output only exists once the leaves can tell each other apart.
        graph = generators.star_graph(3)
        assert port_path_election_index(graph) == 0
        assert complete_port_path_election_index(graph) == 1

    def test_infeasible_graph_has_no_index(self, infeasible_graphs):
        for graph in infeasible_graphs:
            assert port_path_election_index(graph) is None
            assert complete_port_path_election_index(graph) is None

    def test_assignments_validate(self, small_feasible_graphs):
        for graph in small_feasible_graphs:
            for complete, task in ((False, Task.PORT_PATH_ELECTION), (True, Task.COMPLETE_PORT_PATH_ELECTION)):
                index = election_index(task, graph)
                assert index is not None, graph.name
                leader, sequences = path_election_assignment(graph, index, complete=complete)
                outputs = dict(sequences)
                outputs[leader] = LEADER
                assert validate(task, graph, outputs).ok, (graph.name, task)


class TestHierarchyAndDispatch:
    def test_all_indices_three_node_line(self, three_line):
        indices = all_election_indices(three_line)
        assert indices == {
            Task.SELECTION: 0,
            Task.PORT_ELECTION: 0,
            Task.PORT_PATH_ELECTION: 0,
            Task.COMPLETE_PORT_PATH_ELECTION: 1,
        }

    def test_fact_1_1_on_small_graphs(self, small_feasible_graphs):
        for graph in small_feasible_graphs:
            indices = verify_fact_1_1(graph)
            assert indices_respect_hierarchy(indices)

    def test_election_index_dispatch_matches_specific_functions(self, three_line):
        assert election_index(Task.SELECTION, three_line) == selection_index(three_line)
        assert election_index(Task.PORT_ELECTION, three_line) == port_election_index(three_line)
        assert election_index(Task.PORT_PATH_ELECTION, three_line) == port_path_election_index(three_line)
        assert election_index(Task.COMPLETE_PORT_PATH_ELECTION, three_line) == (
            complete_port_path_election_index(three_line)
        )

    def test_max_depth_caps_the_depth_searches(self):
        graph = generators.asymmetric_cycle(9)
        indices = all_election_indices(graph)
        for task in (Task.PORT_ELECTION, Task.PORT_PATH_ELECTION, Task.COMPLETE_PORT_PATH_ELECTION):
            depth = indices[task]
            assert election_index(task, graph, max_depth=depth) == depth
            assert election_index(task, graph, max_depth=depth - 1) is None

    def test_unknown_task_rejected(self, three_line):
        with pytest.raises(ValueError):
            election_index("bogus", three_line)  # type: ignore[arg-type]

    @given(
        n=st.integers(min_value=4, max_value=10),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_hierarchy_and_validity(self, n, extra, seed):
        graph = generators.random_connected_graph(n, extra_edges=extra, seed=seed)
        indices = all_election_indices(graph)
        assert indices_respect_hierarchy(indices)
        if not is_feasible(graph):
            assert all(value is None for value in indices.values())
            return
        assert all(value is not None for value in indices.values())
        # the S assignment at ψ_S and the PE assignment at ψ_PE must validate
        index_pe = indices[Task.PORT_ELECTION]
        leader, ports = port_election_assignment(graph, index_pe)
        outputs = dict(ports)
        outputs[leader] = LEADER
        assert validate(Task.PORT_ELECTION, graph, outputs).ok
