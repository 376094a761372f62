"""Tests for the bounded-search guardrails of the PPE/CPPE index computation."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core import (
    SearchLimitExceeded,
    Task,
    complete_port_path_election_index,
    port_election_index,
    port_path_election_index,
    reset_search_statistics,
    search_statistics,
)
from repro.core.election_index import _DEFAULT_CELLS_PER_STATE, _common_path_sequence
from repro.kernel.csr import bfs_distances_csr
from repro.portgraph import generators
from repro.runner import GraphSpec, SweepSpec, evaluate_graph
from repro.scenarios import corpus_specs


class TestCommonPathSearch:
    def test_finds_obvious_common_sequence(self):
        graph = generators.star_graph(4)
        # all leaves reach the centre with the single-port sequence (0,)
        sequence = _common_path_sequence(graph, [1, 2, 3, 4], 0, complete=False)
        assert sequence == (0,)

    def test_no_common_complete_sequence_for_star_leaves(self):
        graph = generators.star_graph(3)
        # the incoming ports at the centre differ, so no common CPPE sequence exists
        assert _common_path_sequence(graph, [1, 2, 3], 0, complete=True) is None

    def test_leader_inside_the_class_means_no_sequence(self):
        graph = generators.path_graph(4)
        assert _common_path_sequence(graph, [0, 1], 1, complete=False) is None

    def test_max_length_cuts_off_long_paths(self):
        graph = generators.path_graph(6)
        assert _common_path_sequence(graph, [5], 0, complete=False, max_length=2) is None
        assert _common_path_sequence(graph, [5], 0, complete=False) is not None

    def test_state_budget_raises_instead_of_guessing(self):
        graph = generators.asymmetric_cycle(8)
        # nodes 3 and 4 need several joint steps to reach node 0 together
        with pytest.raises(SearchLimitExceeded):
            _common_path_sequence(graph, [3, 4], 0, complete=False, max_states=2)

    def test_index_functions_propagate_the_limit(self):
        # at depth ψ_S = 1 the asymmetric cycle still has a large twin class far
        # from the irregular node, whose joint search needs more than 2 states
        graph = generators.asymmetric_cycle(9)
        with pytest.raises(SearchLimitExceeded):
            port_path_election_index(graph, max_states=2)
        with pytest.raises(SearchLimitExceeded):
            complete_port_path_election_index(graph, max_states=2)


class TestMemoryAccounting:
    def test_cell_budget_caps_the_real_footprint(self):
        # each stored state costs k positions plus k growing visited sets, so
        # a generous *state* budget can still be stopped by the *cell* budget
        graph = generators.path_graph(12)
        with pytest.raises(SearchLimitExceeded):
            _common_path_sequence(
                graph, [11], 0, complete=False, max_states=10_000, max_cells=12
            )
        # with the footprint cap lifted the same search completes
        assert (
            _common_path_sequence(
                graph, [11], 0, complete=False, max_states=10_000
            )
            is not None
        )

    def test_limit_message_reports_states_cells_and_class_size(self):
        graph = generators.asymmetric_cycle(9)
        with pytest.raises(SearchLimitExceeded) as excinfo:
            _common_path_sequence(graph, [3, 4], 0, complete=False, max_states=2)
        message = str(excinfo.value)
        assert "states" in message
        assert "cells" in message
        assert "class size 2" in message

    def test_max_cells_threads_through_the_index_functions(self):
        graph = generators.asymmetric_cycle(9)
        with pytest.raises(SearchLimitExceeded):
            port_path_election_index(graph, max_states=10_000, max_cells=8)
        with pytest.raises(SearchLimitExceeded):
            complete_port_path_election_index(graph, max_states=10_000, max_cells=8)

    def test_search_statistics_count_states_and_cells(self):
        reset_search_statistics()
        graph = generators.star_graph(4)
        assert _common_path_sequence(graph, [1, 2, 3, 4], 0, complete=False) == (0,)
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
# seeding the PPE/CPPE depth searches with the weaker index (Fact 1.1)
# --------------------------------------------------------------------------- #
BUDGETS = (20, 50, 200, 50_000)


def _gdk_member(index: int):
    return GraphSpec.make("gdk", delta=4, k=1, index=index).build()


def _outcome(index_function, graph, **kwargs) -> Tuple[str, Optional[int]]:
    try:
        return "ok", index_function(graph, **kwargs)
    except SearchLimitExceeded:
        return "limited", None


def _unseeded(graph, max_states: int) -> Dict[str, Tuple[str, Optional[int]]]:
    return {
        "PPE": _outcome(port_path_election_index, graph, max_states=max_states),
        "CPPE": _outcome(complete_port_path_election_index, graph, max_states=max_states),
    }


def _seeded(graph, max_states: int) -> Dict[str, Tuple[str, Optional[int]]]:
    """The runner's chain: PPE from ψ_PE, CPPE from PPE when that is exact."""
    ppe = _outcome(
        port_path_election_index,
        graph,
        max_states=max_states,
        lower_bound=port_election_index(graph),
    )
    cppe = _outcome(
        complete_port_path_election_index,
        graph,
        max_states=max_states,
        lower_bound=ppe[1] if ppe[0] == "ok" else None,
    )
    return {"PPE": ppe, "CPPE": cppe}


def _assert_seeding_is_exact(graph, budgets: Sequence[int]) -> set:
    """Seeded outcomes never contradict unseeded ones; returns the unseeded verdicts met.

    A seeded exact value where the unseeded search is limited must agree
    with the unseeded value at the largest budget whenever that is exact.
    """
    unseeded_at = {max_states: _unseeded(graph, max_states) for max_states in budgets}
    reference = unseeded_at[max(budgets)]
    verdicts = set()
    for max_states, unseeded in unseeded_at.items():
        seeded = _seeded(graph, max_states)
        for task in ("PPE", "CPPE"):
            verdicts.add(unseeded[task][0])
            if unseeded[task][0] == "ok":
                assert seeded[task] == unseeded[task], (graph.name, max_states, task)
                continue
            assert seeded[task][0] in ("ok", "limited"), (graph.name, max_states, task)
            if seeded[task][0] == "ok" and reference[task][0] == "ok":
                assert seeded[task] == reference[task], (graph.name, max_states, task)
    return verdicts


class TestSeededSearchIsExact:
    def test_mixed_corpus_at_every_budget(self, corpus_rng_factory):
        seed = corpus_rng_factory("seeded-search-corpus").randrange(10**6)
        verdicts = set()
        for spec in corpus_specs(200, seed=seed, corpus="mixed"):
            verdicts |= _assert_seeding_is_exact(spec.build(), BUDGETS)
        assert verdicts == {"ok", "limited"}  # the smallest budget limits some searches

    def test_gdk_members_at_every_budget(self):
        verdicts = set()
        for index in (1, 2, 3):
            verdicts |= _assert_seeding_is_exact(_gdk_member(index), BUDGETS)
        assert verdicts == {"ok", "limited"}

    def test_udk_member_at_small_budgets(self):
        # U_{4,1} (450 nodes) is the smallest U member; its joint searches
        # take minutes at the largest budget, so only the small ones run.
        # The smallest J member (J_{2,4}) has 132k nodes: out of reach here.
        graph = GraphSpec.make("udk", delta=4, k=1).build()
        _assert_seeding_is_exact(graph, BUDGETS[:3])

    def test_seeding_turns_a_limited_verdict_exact(self):
        graph = _gdk_member(1)
        with pytest.raises(SearchLimitExceeded):
            complete_port_path_election_index(graph, max_states=20)
        assert complete_port_path_election_index(graph, max_states=20, lower_bound=6) == 6


class TestRunnerSeedsOnlyFromExactSameBudgetOutcomes:
    """``evaluate_graph`` seeds CPPE with a memoised ``("ok", int)`` PPE of
    the same ``max_states`` only; the search counters show which search ran."""

    @staticmethod
    def _searched(index_function, graph, **kwargs) -> Dict[str, int]:
        before = search_statistics()
        _outcome(index_function, graph, **kwargs)
        after = search_statistics()
        return {key: after[key] - before[key] for key in after}

    @staticmethod
    def _evaluated(graph, tasks, max_states) -> Tuple[Dict[str, object], Dict[str, int]]:
        sweep = SweepSpec.make((), tasks=tasks, max_states=max_states)
        before = search_statistics()
        record = evaluate_graph(graph, sweep)
        after = search_statistics()
        return record, {key: after[key] - before[key] for key in after}

    def test_exact_ppe_of_the_same_budget_seeds_cppe(self, isolated_refinement_cache):
        graph = _gdk_member(1)
        record, _ = self._evaluated(graph, [Task.PORT_PATH_ELECTION], 50)
        assert record["psi_PPE"] == 6
        record, searched = self._evaluated(graph, [Task.COMPLETE_PORT_PATH_ELECTION], 50)
        assert record["psi_CPPE"] == 6
        seeded = self._searched(complete_port_path_election_index, graph, max_states=50, lower_bound=6)
        unseeded = self._searched(complete_port_path_election_index, graph, max_states=50)
        assert searched == seeded
        assert seeded["searches"] < unseeded["searches"]

    def test_seeded_runner_reports_exact_where_unseeded_is_limited(self, isolated_refinement_cache):
        graph = _gdk_member(1)
        record, _ = self._evaluated(graph, list(Task.ordered()), 50)
        assert (record["psi_PPE"], record["psi_CPPE"], record["search_limited"]) == (6, 6, "")
        # at max_states=20 PPE seeded from ψ_PE = 2 still runs out of budget
        record, _ = self._evaluated(graph, list(Task.ordered()), 20)
        assert record["search_limited"] == "PPE,CPPE"

    def test_limited_ppe_leaves_cppe_unseeded(self, isolated_refinement_cache):
        graph = _gdk_member(1)
        record, _ = self._evaluated(graph, [Task.PORT_PATH_ELECTION], 20)
        assert record["search_limited"] == "PPE"
        record, searched = self._evaluated(graph, [Task.COMPLETE_PORT_PATH_ELECTION], 20)
        assert record["search_limited"] == "CPPE"
        assert searched == self._searched(complete_port_path_election_index, graph, max_states=20)

    def test_exact_ppe_of_another_budget_leaves_cppe_unseeded(self, isolated_refinement_cache):
        graph = _gdk_member(1)
        record, _ = self._evaluated(graph, [Task.PORT_PATH_ELECTION], 50)
        assert record["psi_PPE"] == 6
        record, searched = self._evaluated(graph, [Task.COMPLETE_PORT_PATH_ELECTION], 200)
        assert record["psi_CPPE"] == 6
        unseeded = self._searched(complete_port_path_election_index, graph, max_states=200)
        seeded = self._searched(complete_port_path_election_index, graph, max_states=200, lower_bound=6)
        assert searched == unseeded != seeded

    def test_missing_weaker_index_leaves_the_search_unseeded(self, isolated_refinement_cache):
        graph = _gdk_member(1)
        record, searched = self._evaluated(graph, [Task.PORT_PATH_ELECTION], 200)
        assert record["psi_PPE"] == 6
        assert searched == self._searched(port_path_election_index, graph, max_states=200)


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
            lambda g, **kw: _reference_common_path_sequence(g, members, leader, expected_stats, **kw),
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
            kwargs = {
                "complete": trial % 2 == 1,
                "max_states": rng.choice((3, 10, 100, 200_000)),
            }
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
                for complete in (False, True):
                    for max_states in (20, 5_000):
                        verdicts.add(
                            self._run_both(
                                graph, members, leader, complete=complete, max_states=max_states
                            )
                        )
        assert "limited" in verdicts
