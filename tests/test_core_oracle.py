"""A small-scope oracle for all four shades: ψ_S, ψ_PE, ψ_PPE and ψ_CPPE, and
their assignments, computed from the definitions alone.

The oracle classes nodes by their explicit augmented views
(:func:`~repro.views.view_tree.augmented_view`), lists every simple path by
DFS, and asks for a non-empty per-class intersection of first ports (PE),
outgoing-port sequences (PPE) or complete (outgoing, incoming) sequences
(CPPE).  It uses no refinement engine, block-cut tree or joint search, so
it checks production independently: production's indices satisfy Fact 1.1
by construction and cannot check themselves.

Its assignment rule is the one production documents: the smallest unique
node that passes is the leader; the smallest common port is the PE output;
the shortest common sequence, lexicographically smallest among those, is
the PPE/CPPE output.

Tier-1 runs every port labeling of every connected graph on 2, 3 and 4
labeled nodes (2 583 graphs); a slow-marked test runs the first 20 000
labelings on 5 nodes.  Seeded mutants show the comparison is not vacuous.
"""

from __future__ import annotations

import importlib
import inspect
import textwrap
from itertools import combinations, islice, permutations, product
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.core import (
    LEADER,
    Task,
    all_election_indices,
    path_election_assignment,
    port_election_assignment,
    validate,
)
from repro.portgraph.graph import PortLabeledGraph
from repro.views.view_tree import augmented_view

election_index_module = importlib.import_module("repro.core.election_index")

#: Each election shade's output along one simple path, given as its flat
#: ``(p1, q1, ..., pk, qk)`` port pairs: the first port (as a 1-tuple, so
#: every output orders by length, then lexicographically), the outgoing
#: ports, or the whole sequence.
SHADES = {
    Task.PORT_ELECTION: lambda pairs: pairs[:1],
    Task.PORT_PATH_ELECTION: lambda pairs: pairs[0::2],
    Task.COMPLETE_PORT_PATH_ELECTION: lambda pairs: pairs,
}


def labelings(n: int) -> Iterator[PortLabeledGraph]:
    """Every port labeling of every connected simple graph on ``n`` labeled nodes."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1, 1 << len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        reached = {0}
        for _ in range(n):
            reached |= {b for a, b in edges if a in reached} | {a for a, b in edges if b in reached}
        if len(reached) < n:
            continue
        incident = [[e for e, edge in enumerate(edges) if v in edge] for v in range(n)]
        for orders in product(*(permutations(edge_ids) for edge_ids in incident)):
            port = {(v, e): p for v, order in enumerate(orders) for p, e in enumerate(order)}
            yield PortLabeledGraph.from_edge_list(
                n, [(a, port[a, e], b, port[b, e]) for e, (a, b) in enumerate(edges)]
            )


def view_classes(graph: PortLabeledGraph, depth: int) -> List[List[int]]:
    """The nodes grouped by equal ``B^depth``, each group in node order."""
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for v in graph.nodes():
        groups.setdefault(augmented_view(graph, v, depth).canonical_key(), []).append(v)
    return list(groups.values())


def simple_paths(graph: PortLabeledGraph, source: int, target: int) -> List[Tuple[int, ...]]:
    """Every simple path from ``source`` to ``target`` ≠ ``source`` as flat port pairs."""
    found = []

    def walk(v: int, visited: frozenset, pairs: Tuple[int, ...]) -> None:
        if v == target:
            found.append(pairs)
            return
        for p in graph.ports(v):
            u, q = graph.endpoint(v, p)
            if u not in visited:
                walk(u, visited | {u}, pairs + (p, q))

    walk(source, frozenset((source,)), ())
    return found


def oracle_assignment(task: Task, classes, paths) -> Optional[Tuple[int, Dict[int, object]]]:
    """The oracle's assignment for one shade at one depth, or ``None``."""
    shade = SHADES[task]
    for leader in sorted(members[0] for members in classes if len(members) == 1):
        outputs: Dict[int, object] = {}
        for members in classes:
            if members == [leader]:
                continue
            common = set.intersection(*({shade(pairs) for pairs in paths[v, leader]} for v in members))
            if not common:
                break
            output = min(common, key=lambda out: (len(out), out))
            for v in members:
                outputs[v] = output[0] if task is Task.PORT_ELECTION else output
        else:
            return leader, outputs
    return None


def oracle(graph: PortLabeledGraph):
    """``(indices, assignments)``: every ψ_Z and the assignment at each ψ.

    Views at depth ``n - 1`` separate every pair of nodes any depth separates
    (Norris), so a depth past ``n - 1`` decides nothing new, and a graph
    with no answer up to there is infeasible.
    """
    n = graph.num_nodes
    paths = {(v, u): simple_paths(graph, v, u) for v in graph.nodes() for u in graph.nodes() if u != v}
    indices: Dict[Task, Optional[int]] = dict.fromkeys(Task.ordered())
    assignments = {}
    for depth in range(n):
        classes = view_classes(graph, depth)
        if indices[Task.SELECTION] is None and any(len(members) == 1 for members in classes):
            indices[Task.SELECTION] = depth
        for task in SHADES:
            if indices[task] is None:
                found = oracle_assignment(task, classes, paths)
                if found is not None:
                    indices[task], assignments[task] = depth, found
    return indices, assignments


def production_assignment(task: Task, graph: PortLabeledGraph, depth: int):
    if task is Task.PORT_ELECTION:
        return port_election_assignment(graph, depth)
    return path_election_assignment(
        graph, depth, complete=task is Task.COMPLETE_PORT_PATH_ELECTION
    )


def mismatch(graph: PortLabeledGraph, expected) -> Optional[str]:
    """Where production disagrees with the oracle on ``graph``, or ``None``."""
    indices, assignments = expected
    produced = all_election_indices(graph)
    if produced != indices:
        return f"indices {produced} != oracle {indices}"
    for task in SHADES:
        depth = indices[task]
        if depth is None:
            continue
        assignment = production_assignment(task, graph, depth)
        if assignment != assignments[task]:
            return f"{task.value} at {depth}: {assignment} != oracle {assignments[task]}"
        leader, outputs = assignment
        result = validate(task, graph, {**outputs, leader: LEADER})
        if not result.ok:
            return f"{task.value} at {depth}: {result.errors}"
        if depth > 0 and production_assignment(task, graph, depth - 1) is not None:
            return f"{task.value}: an assignment at {depth - 1}, below ψ"
    return None


def first_mismatch(corpus) -> Optional[Tuple[list, str]]:
    """The edges of the first graph production gets wrong, with the mismatch."""
    for graph, expected in corpus:
        found = mismatch(graph, expected)
        if found is not None:
            return list(graph.edges()), found
    return None


@pytest.fixture(scope="module")
def small_scope():
    """Every labeling with n ≤ 4 next to its oracle answer."""
    return [(graph, oracle(graph)) for n in (2, 3, 4) for graph in labelings(n)]


def test_every_labeling_with_at_most_four_nodes(small_scope):
    assert len(small_scope) == 2_583
    assert first_mismatch(small_scope) is None
    feasible = [indices for _graph, (indices, _) in small_scope if indices[Task.SELECTION] is not None]
    assert len(feasible) == 2_364
    # ψ_S < ψ_PE, ψ_PE < ψ_PPE and ψ_PPE < ψ_CPPE: all but the first are strict here
    ordered = Task.ordered()
    strict = [
        sum(indices[weaker] < indices[stronger] for indices in feasible)
        for weaker, stronger in zip(ordered, ordered[1:])
    ]
    assert strict == [0, 144, 174]


@pytest.mark.slow
def test_first_labelings_with_five_nodes():
    corpus = [(graph, oracle(graph)) for graph in islice(labelings(5), 20_000)]
    assert first_mismatch(corpus) is None


# --------------------------------------------------------------------------- #
# non-vacuity: seeded mutants the comparison must catch
# --------------------------------------------------------------------------- #
def _patch_source(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace ``repro.core.election_index.<name>`` by a copy with ``old`` → ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(election_index_module, name)))
    assert source.count(old) == 1, old
    namespace = dict(vars(election_index_module))
    exec(compile(source.replace(old, new), election_index_module.__file__, "exec"), namespace)
    monkeypatch.setattr(election_index_module, name, namespace[name])


def test_catches_a_joint_search_without_the_early_hit_cut(small_scope, monkeypatch):
    _patch_source(monkeypatch, "_joint_search", "if 0 < hits < k:", "if False:")
    assert first_mismatch(small_scope) is not None


def test_catches_a_cppe_index_one_depth_early(small_scope, monkeypatch):
    index = election_index_module.complete_port_path_election_index

    def early(graph, **kwargs):
        depth = index(graph, **kwargs)
        return None if depth is None else depth - 1

    monkeypatch.setattr(election_index_module, "complete_port_path_election_index", early)
    assert first_mismatch(small_scope) is not None


def test_catches_a_pe_check_that_accepts_any_port(small_scope, monkeypatch):
    # no labeling with n ≤ 4 has ψ_S < ψ_PE, so only the PE assignment shows it
    monkeypatch.setattr(election_index_module, "_pe_class_port", lambda graph, members, leader, cut: 0)
    assert first_mismatch(small_scope)[1].startswith("PE at")
