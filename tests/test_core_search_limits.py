"""Tests for the bounded-search guardrails of the PPE index computation, and
for the CPPE index, which runs no search and so is exact at any budget."""

from __future__ import annotations

import importlib
from collections import deque
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core import (
    SearchLimitExceeded,
    Task,
    complete_port_path_election_index,
    election_index,
    path_election_assignment,
    port_path_election_index,
    reset_search_statistics,
    search_statistics,
)
from repro.core.election_index import (
    _DEFAULT_CELLS_PER_STATE,
    _common_path_exists,
    _common_path_sequence,
)
from repro.kernel.csr import bfs_distances_csr
from repro.portgraph import generators
from repro.runner import GraphSpec, SweepSpec, evaluate_graph
from repro.scenarios import corpus_specs


class TestCommonPathSearch:
    def test_finds_obvious_common_sequence(self):
        graph = generators.star_graph(4)
        # all leaves reach the centre with the single-port sequence (0,)
        sequence = _common_path_sequence(graph, [1, 2, 3, 4], 0)
        assert sequence == (0,)

    def test_no_complete_assignment_below_the_discrete_depth(self):
        graph = generators.star_graph(3)
        # the leaves share a view at depth 0 and enter the centre on distinct
        # incoming ports, so no common CPPE sequence exists there
        assert path_election_assignment(graph, 0, complete=True) is None
        assert path_election_assignment(graph, 1, complete=True) == (
            0,
            {1: (0, 0), 2: (0, 1), 3: (0, 2)},
        )

    def test_leader_inside_the_class_means_no_sequence(self):
        graph = generators.path_graph(4)
        assert _common_path_sequence(graph, [0, 1], 1) is None

    def test_max_length_cuts_off_long_paths(self):
        graph = generators.path_graph(6)
        assert _common_path_sequence(graph, [5], 0, max_length=2) is None
        assert _common_path_sequence(graph, [5], 0) is not None

    def test_state_budget_raises_instead_of_guessing(self):
        graph = generators.asymmetric_cycle(8)
        # nodes 3 and 4 need several joint steps to reach node 0 together
        with pytest.raises(SearchLimitExceeded):
            _common_path_sequence(graph, [3, 4], 0, max_states=2)

    def test_index_functions_propagate_the_limit(self):
        # at depth ψ_S = 1 the asymmetric cycle still has a large twin class far
        # from the irregular node, whose joint search needs more than 2 states
        graph = generators.asymmetric_cycle(9)
        with pytest.raises(SearchLimitExceeded):
            port_path_election_index(graph, max_states=2)
        # CPPE runs no search: the first discrete depth is exact at any budget
        assert election_index(Task.COMPLETE_PORT_PATH_ELECTION, graph, max_states=2) == 4


class TestMemoryAccounting:
    def test_cell_budget_caps_the_real_footprint(self):
        # each stored state costs k positions plus k growing visited sets, so
        # a generous *state* budget can still be stopped by the *cell* budget
        graph = generators.path_graph(12)
        with pytest.raises(SearchLimitExceeded):
            _common_path_sequence(
                graph, [11], 0, max_states=10_000, max_cells=12
            )
        # with the footprint cap lifted the same search completes
        assert (
            _common_path_sequence(graph, [11], 0, max_states=10_000)
            is not None
        )

    def test_limit_message_reports_states_cells_and_class_size(self):
        graph = generators.asymmetric_cycle(9)
        with pytest.raises(SearchLimitExceeded) as excinfo:
            _common_path_sequence(graph, [3, 4], 0, max_states=2)
        message = str(excinfo.value)
        assert "states" in message
        assert "cells" in message
        assert "class size 2" in message

    def test_max_cells_threads_through_the_index_functions(self):
        graph = generators.asymmetric_cycle(9)
        with pytest.raises(SearchLimitExceeded):
            port_path_election_index(graph, max_states=10_000, max_cells=8)

    def test_search_statistics_count_states_and_cells(self):
        reset_search_statistics()
        graph = generators.star_graph(4)
        assert _common_path_sequence(graph, [1, 2, 3, 4], 0) == (0,)
        stats = search_statistics()
        assert stats["searches"] == 1
        assert stats["states"] >= 1
        assert stats["cells"] >= 8  # the start state alone holds 2 * 4 cells
        assert stats["limit_hits"] == 0
        reset_search_statistics()
        assert search_statistics() == {
            "searches": 0,
            "states": 0,
            "cells": 0,
            "limit_hits": 0,
        }


# --------------------------------------------------------------------------- #
# outcomes across budgets: PPE is limited or exact, CPPE is never limited
# --------------------------------------------------------------------------- #
BUDGETS = (20, 50, 200, 50_000)
PATH_TASKS = (Task.PORT_PATH_ELECTION, Task.COMPLETE_PORT_PATH_ELECTION)


def _gdk_member(index: int):
    return GraphSpec.make("gdk", delta=4, k=1, index=index).build()


def _outcome(index_function, graph, **kwargs) -> Tuple[str, Optional[int]]:
    try:
        return "ok", index_function(graph, **kwargs)
    except SearchLimitExceeded:
        return "limited", None


def _assert_budgets_only_limit(graph, budgets: Sequence[int]) -> set:
    """Every PPE outcome is limited or equals the largest budget's, and every
    CPPE outcome is exact; returns the PPE verdicts met."""
    outcomes = {
        max_states: {
            task: _outcome(partial(election_index, task), graph, max_states=max_states)
            for task in PATH_TASKS
        }
        for max_states in budgets
    }
    reference = outcomes[max(budgets)]
    verdicts = set()
    for max_states, outcome in outcomes.items():
        ppe, cppe = (outcome[task] for task in PATH_TASKS)
        verdicts.add(ppe[0])
        context = (graph.name, max_states)
        assert ppe[0] == "limited" or ppe == reference[Task.PORT_PATH_ELECTION], context
        assert cppe[0] == "ok", context
        assert cppe == reference[Task.COMPLETE_PORT_PATH_ELECTION], context
    return verdicts


class TestOutcomesAcrossBudgets:
    def test_mixed_corpus_at_every_budget(self, corpus_rng_factory):
        seed = corpus_rng_factory("budget-outcomes-corpus").randrange(10**6)
        verdicts = set()
        for spec in corpus_specs(200, seed=seed, corpus="mixed"):
            verdicts |= _assert_budgets_only_limit(spec.build(), BUDGETS)
        assert verdicts == {"ok", "limited"}  # the smallest budget limits some searches

    def test_gdk_members_at_every_budget(self):
        verdicts = set()
        for index in (1, 2, 3):
            verdicts |= _assert_budgets_only_limit(_gdk_member(index), BUDGETS)
        assert verdicts == {"ok", "limited"}

    def test_cppe_is_exact_where_the_joint_search_ran_out(self):
        # the CPPE joint search this replaced ran out of budgets up to 30 here
        graph = _gdk_member(1)
        before = search_statistics()
        assert election_index(Task.COMPLETE_PORT_PATH_ELECTION, graph, max_states=1) == 6
        assert search_statistics() == before

    def test_the_runner_never_lists_cppe_as_search_limited(self, isolated_refinement_cache):
        sweep = SweepSpec.make((), tasks=list(Task.ordered()), max_states=1)
        record = evaluate_graph(_gdk_member(1), sweep)
        assert (record["psi_CPPE"], record["search_limited"]) == (6, "PPE")


# --------------------------------------------------------------------------- #
# the slimmed joint BFS against the loop it replaced
# --------------------------------------------------------------------------- #
def _reference_common_path_sequence(
    graph,
    members: Sequence[int],
    leader: int,
    stats: Dict[str, int],
    *,
    complete: bool,
    max_length: Optional[int] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
) -> Optional[Tuple[int, ...]]:
    """The joint BFS as it was before its inner loop was slimmed (a verbatim
    copy, counting into ``stats`` instead of the process-wide counters)."""
    if any(v == leader for v in members):
        return None
    if max_length is None:
        max_length = graph.num_nodes - 1
    if max_cells is None:
        max_cells = max_states * _DEFAULT_CELLS_PER_STATE
    distances = bfs_distances_csr(graph.csr(), leader)
    stats["searches"] += 1
    if any(distances[v] > max_length for v in members):
        return None
    csr = graph.csr()
    offsets = csr.offsets
    neighbors = csr.neighbors
    reverse_ports = csr.reverse_ports
    k = len(members)
    start_positions = tuple(members)
    start_visited = tuple(frozenset((v,)) for v in members)
    queue: deque = deque([(start_positions, start_visited, ())])
    seen = {(start_positions, start_visited)}
    cells = 2 * k
    try:
        while queue:
            positions, visited, sequence = queue.popleft()
            steps_taken = len(sequence) // 2 if complete else len(sequence)
            if steps_taken >= max_length:
                continue
            remaining = max_length - steps_taken - 1
            min_degree = min(offsets[v + 1] - offsets[v] for v in positions)
            for port in range(min_degree):
                next_nodes: List[int] = []
                incoming_ports = set()
                blocked = False
                for i, v in enumerate(positions):
                    dart = offsets[v] + port
                    u = neighbors[dart]
                    if u in visited[i] or distances[u] > remaining:
                        blocked = True
                        break
                    next_nodes.append(u)
                    incoming_ports.add(reverse_ports[dart])
                if blocked:
                    continue
                if complete and len(incoming_ports) != 1:
                    continue
                if complete:
                    new_sequence = sequence + (port, next(iter(incoming_ports)))
                else:
                    new_sequence = sequence + (port,)
                if all(u == leader for u in next_nodes):
                    return new_sequence
                if any(u == leader for u in next_nodes):
                    continue
                new_positions = tuple(next_nodes)
                new_visited = tuple(visited[i] | {next_nodes[i]} for i in range(k))
                key = (new_positions, new_visited)
                if key in seen:
                    continue
                seen.add(key)
                cells += k + k * (steps_taken + 2)
                if len(seen) > max_states or cells > max_cells:
                    stats["limit_hits"] += 1
                    raise SearchLimitExceeded("reference budget exceeded")
                queue.append((new_positions, new_visited, new_sequence))
        return None
    finally:
        stats["states"] += len(seen)
        stats["cells"] += cells


class TestSlimJointSearchMatchesTheReferenceLoop:
    @staticmethod
    def _run_both(graph, members, leader, **kwargs):
        expected_stats = dict.fromkeys(("searches", "states", "cells", "limit_hits"), 0)
        expected = _outcome(
            lambda g, **kw: _reference_common_path_sequence(
                g, members, leader, expected_stats, complete=False, **kw
            ),
            graph,
            **kwargs,
        )
        before = search_statistics()
        actual = _outcome(
            lambda g, **kw: _common_path_sequence(g, members, leader, **kw), graph, **kwargs
        )
        after = search_statistics()
        assert actual == expected, (graph.name, members, leader, kwargs)
        assert {key: after[key] - before[key] for key in after} == expected_stats
        return actual[0]

    def test_random_classes_and_leaders(self, corpus_rng_factory):
        rng = corpus_rng_factory("slim-joint-search")
        verdicts = set()
        for trial in range(120):
            n = rng.randint(5, 14)
            graph = generators.random_connected_graph(
                n, extra_edges=rng.randint(0, n), seed=rng.randrange(10**6)
            )
            leader = rng.randrange(n)
            others = [v for v in graph.nodes() if v != leader]
            members = sorted(rng.sample(others, rng.randint(1, min(4, len(others)))))
            kwargs = {"max_states": rng.choice((3, 10, 100, 200_000))}
            if trial % 5 == 0:
                kwargs["max_length"] = rng.randint(1, n - 1)
            verdicts.add(self._run_both(graph, members, leader, **kwargs))
        assert verdicts == {"ok", "limited"}

    def test_view_classes_of_the_gdk_member(self):
        # the classes the index search really meets, budget exhausted or not
        graph = _gdk_member(1)
        from repro.views.refinement import ViewRefinement

        refinement = ViewRefinement(graph)
        classes = [members for members in refinement.classes(2).values() if len(members) > 1]
        leaders = sorted(refinement.unique_nodes(2))[:3]
        verdicts = set()
        for leader in leaders:
            for members in classes:
                for max_states in (20, 5_000):
                    verdicts.add(self._run_both(graph, members, leader, max_states=max_states))
        assert "limited" in verdicts


# --------------------------------------------------------------------------- #
# the best-first existence search behind ψ_PPE / ψ_CPPE
# --------------------------------------------------------------------------- #
def _searched_outcome(search, graph, members, leader, **kwargs):
    """``(outcome, counter deltas)`` of one search on the process-wide counters."""
    before = search_statistics()
    outcome = _outcome(lambda g, **kw: search(g, members, leader, **kw), graph, **kwargs)
    after = search_statistics()
    return outcome, {key: after[key] - before[key] for key in after}


class TestExistenceSearchMatchesTheWitnessSearch:
    """``_common_path_exists`` finds a sequence exactly when the breadth-first
    ``_common_path_sequence`` does, and a failing search stores the same
    closure in either order: the same states and the same cells."""

    @staticmethod
    def _run_both(graph, members, leader, **kwargs) -> str:
        witness, witness_stats = _searched_outcome(
            _common_path_sequence, graph, members, leader, **kwargs
        )
        found, found_stats = _searched_outcome(
            _common_path_exists, graph, members, leader, **kwargs
        )
        context = (graph.name, members, leader, kwargs)
        if witness[0] == "ok" and found[0] == "ok":
            assert found[1] == (witness[1] is not None), context
        if witness == ("ok", None):
            assert found == ("ok", False), context
            assert found_stats == witness_stats, context
        if witness[0] == "limited":
            return "limited"
        return "found" if witness[1] is not None else "none"

    def test_random_classes_and_leaders(self, corpus_rng_factory):
        rng = corpus_rng_factory("existence-joint-search")
        verdicts = set()
        for trial in range(160):
            n = rng.randint(5, 14)
            graph = generators.random_connected_graph(
                n, extra_edges=rng.randint(0, n), seed=rng.randrange(10**6)
            )
            leader = rng.randrange(n)
            others = [v for v in graph.nodes() if v != leader]
            members = sorted(rng.sample(others, rng.randint(1, min(4, len(others)))))
            kwargs = {"max_states": rng.choice((3, 10, 100, 200_000))}
            if trial % 5 == 0:
                kwargs["max_length"] = rng.randint(1, n - 1)
            verdicts.add(self._run_both(graph, members, leader, **kwargs))
        assert verdicts == {"found", "none", "limited"}

    def test_view_classes_of_the_gdk_member(self):
        graph = _gdk_member(1)
        from repro.views.refinement import ViewRefinement

        refinement = ViewRefinement(graph)
        classes = [members for members in refinement.classes(2).values() if len(members) > 1]
        leaders = sorted(refinement.unique_nodes(2))[:3]
        verdicts = set()
        for leader in leaders:
            for members in classes:
                for max_states in (20, 5_000):
                    verdicts.add(self._run_both(graph, members, leader, max_states=max_states))
        # no class has a common sequence to these leaders at depth 2 (ψ is 6)
        assert verdicts == {"none", "limited"}


class TestPathIndexSearchesEachLeaderAndClassOnce:
    def test_a_limited_verdict_turns_exact(self):
        # best-first, the existence search stops at its first hit and stores
        # fewer states than the breadth-first search, which runs out of a
        # 5-state budget on this cycle; the value is the unbounded one
        graph = generators.asymmetric_cycle(7)
        assert port_path_election_index(graph, max_states=5) == 3
        assert port_path_election_index(graph, max_states=50_000) == 3
        assert complete_port_path_election_index(graph) == 3

    def test_memo_spans_the_depths_of_one_index(self, monkeypatch):
        module = importlib.import_module("repro.core.election_index")
        searched: List[Tuple[int, Tuple[int, ...]]] = []
        exists = module._common_path_exists

        def spy(graph, members, leader, **kwargs):
            searched.append((leader, tuple(members)))
            return exists(graph, members, leader, **kwargs)

        monkeypatch.setattr(module, "_common_path_exists", spy)
        graph = _gdk_member(1)
        before = search_statistics()
        assert port_path_election_index(graph, max_states=50) == 6
        after = search_statistics()
        assert searched and len(set(searched)) == len(searched)
        # searches run, memo hits excluded
        assert after["searches"] - before["searches"] == len(searched)
        # the per-depth breadth-first loop stored 3 526 states, running 244
        # searches over 168 distinct (leader, class) pairs; the existence
        # search stored 1 813 in those 168; asking only classes of two or
        # more nodes, from leaders that pass the PE check, it stores 944 in 46
        assert after["states"] - before["states"] <= 1_813 * 55 // 100
        # the CPPE index runs no joint search
        searched.clear()
        assert complete_port_path_election_index(graph) == 6
        assert searched == [] and search_statistics() == after


# --------------------------------------------------------------------------- #
# the witness sequences against the per-leader breadth-first loop
# --------------------------------------------------------------------------- #
def _reference_path_election_assignment(graph, depth, *, complete, refinement):
    """``path_election_assignment`` as it was before its leader was chosen by
    the existence search (a verbatim copy of its per-leader loop, over the
    verbatim breadth-first search above, which still has CPPE steps)."""
    classes = refinement.classes(depth)
    stats = dict.fromkeys(("searches", "states", "cells", "limit_hits"), 0)
    singleton_nodes = sorted(m[0] for m in classes.values() if len(m) == 1)
    for leader in singleton_nodes:
        sequences: Dict[int, Tuple[int, ...]] = {}
        feasible = True
        for members in classes.values():
            if members == [leader]:
                continue
            sequence = _reference_common_path_sequence(
                graph, members, leader, stats, complete=complete
            )
            if sequence is None:
                feasible = False
                break
            for v in members:
                sequences[v] = sequence
        if feasible:
            return leader, sequences
    return None


class TestWitnessSequencesAreUnchanged:
    """Map advice is built from ``path_election_assignment``'s sequences, so
    they stay those of the per-leader breadth-first loop at every depth."""

    @staticmethod
    def _assert_every_depth_matches(graph) -> int:
        from repro.views.refinement import ViewRefinement

        refinement = ViewRefinement(graph)
        stable = refinement.ensure_stable()
        compared = 0
        for complete, index_function in (
            (False, port_path_election_index),
            (True, complete_port_path_election_index),
        ):
            index = index_function(graph, refinement=refinement)
            if index is None:
                continue
            for depth in range(index, stable + 1):
                assignment = path_election_assignment(
                    graph, depth, complete=complete, refinement=refinement
                )
                assert assignment is not None, (graph.name, depth, complete)
                assert assignment == _reference_path_election_assignment(
                    graph, depth, complete=complete, refinement=refinement
                ), (graph.name, depth, complete)
                compared += 1
        return compared

    def test_gdk_members(self):
        for index in (1, 2, 3):
            assert self._assert_every_depth_matches(_gdk_member(index)) > 0

    def test_mixed_corpus(self, corpus_rng_factory):
        seed = corpus_rng_factory("witness-sequences-corpus").randrange(10**6)
        compared = sum(
            self._assert_every_depth_matches(spec.build())
            for spec in corpus_specs(60, seed=seed, corpus="mixed")
        )
        assert compared > 60

    def test_map_advice_table_carries_the_witness_sequences(self):
        from repro.advice.map_advice import _decision_table
        from repro.core import LEADER
        from repro.views.encoding import augmented_view_key
        from repro.views.refinement import ViewRefinement

        graph = _gdk_member(1)
        refinement = ViewRefinement(graph)
        for task, complete in (
            (Task.PORT_PATH_ELECTION, False),
            (Task.COMPLETE_PORT_PATH_ELECTION, True),
        ):
            depth, table = _decision_table(graph, task)
            leader, sequences = _reference_path_election_assignment(
                graph, depth, complete=complete, refinement=refinement
            )
            for v in graph.nodes():
                expected = LEADER if v == leader else sequences[v]
                assert table[augmented_view_key(graph, v, depth)] == expected
