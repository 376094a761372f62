"""Exact election indices ψ_Z(G) for the four tasks.

For a feasible network ``G`` whose map is given to the nodes, the *Z-index*
ψ_Z(G) is the minimum number of communication rounds in which task
``Z ∈ {S, PE, PPE, CPPE}`` can be solved (Section 1 of the paper).  Because a
node's decision after ``t`` rounds is a function of its augmented truncated
view ``B^t``, the indices admit exact combinatorial characterisations:

* **ψ_S(G)** is the smallest ``t`` at which some node's ``B^t`` is unique
  (Proposition 2.1 for necessity; the map-based comparison algorithm for
  sufficiency).

* **ψ_PE(G)** is the smallest ``t`` at which there is a node ``u`` with a
  unique ``B^t`` such that every other view-equivalence class has a *common*
  port that starts a simple path to ``u`` from each of its members.

* **ψ_PPE(G)** is the smallest ``t`` at which there is such a ``u`` and
  every other class has a *common outgoing-port sequence* that traces a
  simple path from each member to ``u``.

* **ψ_CPPE(G)** is the smallest ``t`` at which all ``B^t`` are distinct:
  read backwards from the leader, a common sequence of (outgoing, incoming)
  port pairs retraces one start node, so every class must be a singleton,
  and then every node can output its own path.

ψ_S, ψ_PE and ψ_CPPE are computed in polynomial time.  ψ_PPE uses an exact
joint search over common sequences, which is exponential in the worst case
but bounded by ``max_states`` (raising :class:`SearchLimitExceeded` rather
than silently guessing).  It asks only the classes of two or more nodes (a
singleton always has its own shortest path), and only from leaders that
pass the PE check (a sequence's first port is a PE port).  The index only
asks whether a sequence exists, so its search runs best-first, stops at its
first hit and answers each (leader, class) once per index;
:func:`path_election_assignment`, whose sequences are an output, finds them
breadth-first, so each is a shortest one.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..kernel.csr import bfs_distances_csr
from ..portgraph.graph import PortLabeledGraph
from ..views.refinement import ViewRefinement
from .feasibility import default_refinement
from .tasks import Task

__all__ = [
    "SearchLimitExceeded",
    "selection_index",
    "port_election_index",
    "port_path_election_index",
    "complete_port_path_election_index",
    "election_index",
    "all_election_indices",
    "selection_assignment",
    "port_election_assignment",
    "path_election_assignment",
    "search_statistics",
    "reset_search_statistics",
]


class SearchLimitExceeded(RuntimeError):
    """Raised when the PPE sequence search exceeds its state budget."""


#: When ``max_cells`` is not given explicitly, the footprint cap of the joint
#: search defaults to this many int cells per allowed state.  A stored state
#: costs ``k`` position ints plus ``k`` visited sets of up to path-length
#: nodes each, so a pure state *count* wildly undercounts real memory for
#: large classes; the cell cap bounds the actual footprint of ``seen`` (and
#: with it the queue, which only holds states already in ``seen``).
_DEFAULT_CELLS_PER_STATE = 32

#: Process-wide counters of the PPE joint searches (monotone; workers
#: keep their own copies).  ``states``/``cells`` count *stored* search states
#: and their int-cell footprint, so the CI benchmark gate can certify that a
#: warm sweep replay performed zero fresh search work.
_SEARCH_STATS = {"searches": 0, "states": 0, "cells": 0, "limit_hits": 0}


def search_statistics() -> Dict[str, int]:
    """A snapshot of the cumulative PPE joint-search counters."""
    return dict(_SEARCH_STATS)


def reset_search_statistics() -> None:
    """Zero the cumulative joint-search counters (tests and benchmarks)."""
    for key in _SEARCH_STATS:
        _SEARCH_STATS[key] = 0


# --------------------------------------------------------------------------- #
# ψ_S
# --------------------------------------------------------------------------- #
def selection_index(
    graph: PortLabeledGraph, *, refinement: Optional[ViewRefinement] = None
) -> Optional[int]:
    """ψ_S(G): smallest depth at which some node has a unique augmented view.

    Returns ``None`` for infeasible graphs (no such depth exists).
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    return refinement.first_depth_with_unique_node()


def selection_assignment(
    graph: PortLabeledGraph,
    depth: int,
    *,
    refinement: Optional[ViewRefinement] = None,
) -> Optional[int]:
    """The leader a map-based Selection algorithm elects at ``depth``.

    Among all nodes with a unique ``B^depth``, the one with the smallest view
    in the canonical (lexicographic) order is chosen, mirroring the oracle of
    Theorem 2.2.  Returns ``None`` if no node has a unique view at ``depth``.
    """
    from ..views.encoding import augmented_view_key

    refinement = refinement if refinement is not None else default_refinement(graph)
    unique = refinement.unique_nodes(depth)
    if not unique:
        return None
    return min(unique, key=lambda v: augmented_view_key(graph, v, depth))


# --------------------------------------------------------------------------- #
# ψ_PE
# --------------------------------------------------------------------------- #
def _pe_class_port(
    graph: PortLabeledGraph,
    members: Sequence[int],
    leader: int,
    cut,
) -> Optional[int]:
    """A single port valid as PE output for every member of a class, or ``None``.

    ``cut`` is the graph's :class:`~repro.kernel.blockcut.BlockCutTree`: one
    DFS per graph answers every "does this port start a simple path to the
    leader?" question in O(log Δ), replacing the per-removed-node BFS family
    this helper used to drive.  Each class is checked by
    :meth:`~repro.kernel.blockcut.BlockCutTree.class_port_ok`, which stops
    at the first member the port fails.
    """
    min_degree = min(graph.degree(v) for v in members)
    for port in range(min_degree):
        if cut.class_port_ok(members, port, leader):
            return port
    return None


def port_election_assignment(
    graph: PortLabeledGraph,
    depth: int,
    *,
    refinement: Optional[ViewRefinement] = None,
) -> Optional[Tuple[int, Dict[int, int]]]:
    """A (leader, per-node port) assignment realising PE at ``depth``, or ``None``.

    The assignment is constant on view-equivalence classes at ``depth``, so it
    can be implemented by a distributed algorithm running for ``depth`` rounds
    with the map as advice.  The block-cut tree is the one memoised on the
    graph's CSR view (:meth:`~repro.kernel.csr.CSRGraph.block_cut_tree`), so
    every depth tried, and every equal graph the runner's cache hands that
    view, shares one DFS.
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    classes = refinement.classes(depth)
    cut = graph.csr().block_cut_tree()
    singleton_nodes = sorted(m[0] for m in classes.values() if len(m) == 1)
    for leader in singleton_nodes:
        ports: Dict[int, int] = {}
        feasible = True
        for members in classes.values():
            if members == [leader]:
                continue
            port = _pe_class_port(graph, members, leader, cut)
            if port is None:
                feasible = False
                break
            for v in members:
                ports[v] = port
        if feasible:
            return leader, ports
    return None


def port_election_index(
    graph: PortLabeledGraph,
    *,
    refinement: Optional[ViewRefinement] = None,
    max_depth: Optional[int] = None,
) -> Optional[int]:
    """ψ_PE(G); ``None`` if the graph is infeasible (or ``max_depth`` is hit first)."""
    refinement = refinement if refinement is not None else default_refinement(graph)
    start = refinement.first_depth_with_unique_node(max_depth=max_depth)
    if start is None:
        return None
    depth = start
    stable = refinement.ensure_stable()
    while max_depth is None or depth <= max_depth:
        if port_election_assignment(graph, depth, refinement=refinement) is not None:
            return depth
        if depth >= stable:
            # At the fixpoint every class is a singleton in a feasible graph,
            # so PE is solvable there; reaching this point means infeasible.
            return None
        depth += 1
    return None


# --------------------------------------------------------------------------- #
# ψ_PPE and ψ_CPPE
# --------------------------------------------------------------------------- #
def _joint_search(
    graph: PortLabeledGraph,
    members: Sequence[int],
    leader: int,
    *,
    witness: bool,
    max_length: Optional[int] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
    distances=None,
) -> Union[Tuple[int, ...], bool, None]:
    """The joint search over common outgoing-port sequences from ``members``
    to ``leader``.

    A state is the members' positions with their visited sets.  A step
    moves every member through the same outgoing port to a node its path
    has not visited.  Paths are simple, so a state fixes its step count (its
    visited sets hold the start plus one node per step), and every cut
    depends on the state alone.  A search that fails therefore stores the
    same closure of states in any order: the same states, the same cells
    and the same limit verdict.  The caller picks the order:

    * ``witness=True`` pops states by step count, ties in insertion order,
      which is breadth-first order, and returns the first sequence found, a
      shortest one (see :func:`_common_path_sequence`), or ``None``.
    * ``witness=False`` pops the state whose members' largest distance to
      the leader is smallest, carries no sequence, and returns ``True`` at
      the first hit or ``False``.  A success stores a different number of
      states than the breadth-first search, so a verdict at the budget's
      edge can move; a value cannot.

    The frontier is a heap keyed ``(priority, insertion counter)``, so it
    never compares states.

    Two budgets guard the exponential search, both raising
    :class:`SearchLimitExceeded`: ``max_states`` bounds the number of stored
    states, and ``max_cells`` bounds their actual int-cell footprint
    (positions plus per-member visited sets; default
    ``max_states * 32``).  The state count alone undercounts memory by a
    factor of ``class size × path length``, which is what the cell cap fixes.

    ``distances`` (hop distances to ``leader``, e.g. from
    :meth:`repro.kernel.csr.CSRGraph.distances_from`) enables lower-bound
    pruning: a branch whose member provably cannot reach the leader within
    the remaining simple-path budget is dead and never enters ``seen``.
    Pruning only removes provably fruitless states, so the outcome is
    identical with and without it.  When ``None``, one BFS from ``leader``
    over the graph's CSR view is performed here.
    """
    if any(v == leader for v in members):
        return None if witness else False
    if max_length is None:
        max_length = graph.num_nodes - 1
    if max_cells is None:
        max_cells = max_states * _DEFAULT_CELLS_PER_STATE
    if distances is None:
        distances = bfs_distances_csr(graph.csr(), leader)
    stats = _SEARCH_STATS
    stats["searches"] += 1
    if any(distances[v] > max_length for v in members):
        return None if witness else False
    csr = graph.csr()
    offsets = csr.offsets
    neighbors = csr.neighbors
    distance_of = distances.__getitem__
    k = len(members)
    start = (tuple(members), tuple(frozenset((v,)) for v in members))
    frontier = [(0, 0, start, ())]
    pushed = 1
    seen = {start}
    cells = 2 * k  # the start state: k positions + k singleton visited sets
    try:
        while frontier:
            _, _, (positions, visited), sequence = heappop(frontier)
            steps_taken = len(visited[0]) - 1
            if steps_taken >= max_length:
                continue
            remaining = max_length - steps_taken - 1
            # a child costs k positions plus k visited sets one node longer
            child_cells = k * (steps_taken + 3)
            bases = [offsets[v] for v in positions]
            min_degree = min(offsets[v + 1] - base for v, base in zip(positions, bases))
            for port in range(min_degree):
                next_nodes: List[int] = []
                for i, base in enumerate(bases):
                    u = neighbors[base + port]
                    if u in visited[i] or distances[u] > remaining:
                        # revisit, or provably unable to reach the leader
                        # within the simple-path budget (distance lower
                        # bound; never triggers for the leader itself)
                        break
                    next_nodes.append(u)
                if len(next_nodes) < k:
                    continue
                hits = next_nodes.count(leader)
                if 0 < hits < k:
                    # Some members reached the leader early: their simple path
                    # can no longer end at the leader later: a dead branch.
                    continue
                if hits:
                    return sequence + (port,) if witness else True
                new_positions = tuple(next_nodes)
                new_visited = tuple(
                    path | {u} for path, u in zip(visited, next_nodes)
                )
                key = (new_positions, new_visited)
                if key in seen:
                    continue
                seen.add(key)
                cells += child_cells
                if len(seen) > max_states or cells > max_cells:
                    stats["limit_hits"] += 1
                    raise SearchLimitExceeded(
                        f"common-path search exceeded its budget: "
                        f"{len(seen)} states / {cells} cells "
                        f"(limits {max_states} states / {max_cells} cells, "
                        f"class size {k})"
                    )
                if witness:
                    heappush(frontier, (steps_taken + 1, pushed, key, sequence + (port,)))
                else:
                    heappush(frontier, (max(map(distance_of, next_nodes)), pushed, key, ()))
                pushed += 1
        return None if witness else False
    finally:
        stats["states"] += len(seen)
        stats["cells"] += cells


def _common_path_sequence(
    graph: PortLabeledGraph, members: Sequence[int], leader: int, **search
) -> Optional[Tuple[int, ...]]:
    """A common outgoing-port sequence ``(p1, ..., pk)`` tracing a simple path
    from every member to ``leader``: the breadth-first witness search of
    :func:`_joint_search`.  Returns ``None`` if no common sequence of length
    at most ``max_length`` exists.
    """
    return _joint_search(graph, members, leader, witness=True, **search)


def _common_path_exists(
    graph: PortLabeledGraph, members: Sequence[int], leader: int, **search
) -> bool:
    """Whether :func:`_common_path_sequence` has a sequence to find: the
    best-first existence search of :func:`_joint_search`, with the same
    arguments, budgets and counters.  It returns ``False`` exactly when the
    witness search returns ``None``, after storing the same states and cells.
    """
    return _joint_search(graph, members, leader, witness=False, **search)


def _path_leader(
    graph: PortLabeledGraph,
    classes: Dict[int, List[int]],
    *,
    max_states: int,
    max_cells: Optional[int],
    answers: Dict[Tuple[int, Tuple[int, ...]], bool],
) -> Optional[int]:
    """The smallest node with a unique view from which every other class has a
    common outgoing-port sequence, or ``None``; existence only.

    Only classes of two or more members are asked: a singleton class always
    has a sequence, its member's shortest path.  A sequence's first port is
    a PE port, so a leader from which some such class has no common PE port
    (:func:`_pe_class_port`) is skipped without a joint search; the CSR
    view's block-cut tree that answers this is built only when such a class
    exists.

    ``answers`` memoises each ``(leader, members)`` verdict.  A verdict is a
    pure function of the graph, the class, the leader and the budgets, so a
    caller that keeps the budgets fixed may share one dict across depths: a
    class that did not split is then not searched again.
    """
    csr = graph.csr()
    singleton_nodes = sorted(m[0] for m in classes.values() if len(m) == 1)
    shared = [members for members in classes.values() if len(members) > 1]
    cut = csr.block_cut_tree() if shared else None
    for leader in singleton_nodes:
        if any(_pe_class_port(graph, members, leader, cut) is None for members in shared):
            continue
        for members in shared:
            key = (leader, tuple(members))
            found = answers.get(key)
            if found is None:
                found = answers[key] = _common_path_exists(
                    graph,
                    members,
                    leader,
                    max_states=max_states,
                    max_cells=max_cells,
                    distances=csr.distances_from(leader),
                )
            if not found:
                break
        else:
            return leader
    return None


def path_election_assignment(
    graph: PortLabeledGraph,
    depth: int,
    *,
    complete: bool,
    refinement: Optional[ViewRefinement] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
) -> Optional[Tuple[int, Dict[int, Tuple[int, ...]]]]:
    """A (leader, per-node sequence) assignment realising PPE/CPPE at ``depth``, or ``None``.

    PPE: the leader is the smallest node with a unique view from which every
    other class has a common sequence, found by the existence search; the
    breadth-first witness search then runs for that leader's classes only,
    so each sequence is a shortest one.  The distance-to-leader arrays that
    prune both searches are memoised on the graph's CSR view
    (:meth:`~repro.kernel.csr.CSRGraph.distances_from`), one BFS per leader
    for every depth tried.

    CPPE (``complete=True``) needs a discrete partition (see
    :func:`complete_port_path_election_index`), so it is ``None`` at any
    other depth and runs no search: the leader is node 0, and every other
    node outputs the flat ``(p1, q1, ..., pk, qk)`` (outgoing, incoming)
    port pairs of its lexicographically smallest shortest path to node 0,
    the one the breadth-first search finds.  ``max_states`` and
    ``max_cells`` bound the PPE searches only.
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    if complete:
        if refinement.num_classes(depth) < graph.num_nodes:
            return None
        return 0, _shortest_path_pairs(graph, 0)
    classes = refinement.classes(depth)
    leader = _path_leader(
        graph, classes, max_states=max_states, max_cells=max_cells, answers={}
    )
    if leader is None:
        return None
    distances = graph.csr().distances_from(leader)
    sequences: Dict[int, Tuple[int, ...]] = {}
    for members in classes.values():
        if members == [leader]:
            continue
        sequence = _common_path_sequence(
            graph,
            members,
            leader,
            max_states=max_states,
            max_cells=max_cells,
            distances=distances,
        )
        for v in members:
            sequences[v] = sequence
    return leader, sequences


def _shortest_path_pairs(graph: PortLabeledGraph, leader: int) -> Dict[int, Tuple[int, ...]]:
    """Each other node's ``(p1, q1, ..., pk, qk)`` along its lexicographically
    smallest shortest path to ``leader``.

    Greedy descent: a node takes its smallest port to a neighbour one hop
    closer, then that neighbour's pairs.  Nodes are taken by distance, so
    the neighbour's pairs are already known.
    """
    csr = graph.csr()
    distances = csr.distances_from(leader)
    offsets = csr.offsets
    neighbors = csr.neighbors
    reverse_ports = csr.reverse_ports
    pairs: Dict[int, Tuple[int, ...]] = {leader: ()}
    for v in sorted(range(graph.num_nodes), key=distances.__getitem__)[1:]:
        base = offsets[v]
        closer = distances[v] - 1
        dart = base
        while distances[neighbors[dart]] != closer:
            dart += 1
        pairs[v] = (dart - base, reverse_ports[dart]) + pairs[neighbors[dart]]
    del pairs[leader]
    return pairs


def port_path_election_index(
    graph: PortLabeledGraph,
    *,
    refinement: Optional[ViewRefinement] = None,
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
) -> Optional[int]:
    """ψ_PPE(G): the smallest depth from ψ_S with a PPE assignment (exact,
    bounded search).

    Decided by existence alone: no witness sequence is built.  The
    ``(leader, members)`` verdicts are memoised across the depths of this
    one call, whose budgets are fixed.
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    depth = refinement.first_depth_with_unique_node(max_depth=max_depth)
    if depth is None:
        return None
    stable = refinement.ensure_stable()
    answers: Dict[Tuple[int, Tuple[int, ...]], bool] = {}
    while max_depth is None or depth <= max_depth:
        leader = _path_leader(
            graph,
            refinement.classes(depth),
            max_states=max_states,
            max_cells=max_cells,
            answers=answers,
        )
        if leader is not None:
            return depth
        if depth >= stable:
            return None
        depth += 1
    return None


def complete_port_path_election_index(
    graph: PortLabeledGraph,
    *,
    refinement: Optional[ViewRefinement] = None,
    max_depth: Optional[int] = None,
) -> Optional[int]:
    """ψ_CPPE(G): the first depth at which all n views are distinct.

    Read backwards from the leader, a CPPE sequence retraces one start
    node, so no two nodes share one, while nodes with equal views output
    equal ones: a CPPE assignment needs a discrete partition.  At a discrete
    depth every node outputs its own path (:func:`path_election_assignment`).
    ``None`` if no depth up to ``max_depth`` is discrete (an infeasible
    graph has none).  No search runs, so no budget applies.
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    last = refinement.ensure_stable()
    if max_depth is not None:
        last = min(last, max_depth)
    for depth in range(last + 1):
        if refinement.num_classes(depth) == graph.num_nodes:
            return depth
    return None


# --------------------------------------------------------------------------- #
# dispatch helpers
# --------------------------------------------------------------------------- #
def election_index(
    task: Task,
    graph: PortLabeledGraph,
    *,
    refinement: Optional[ViewRefinement] = None,
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
) -> Optional[int]:
    """ψ_Z(G) for any of the four tasks Z.

    ``max_states`` bounds the PPE joint searches, the only searches left:
    S, PE and CPPE are decided without one and never raise
    :class:`SearchLimitExceeded`.
    """
    if task is Task.SELECTION:
        return selection_index(graph, refinement=refinement)
    if task is Task.PORT_ELECTION:
        return port_election_index(graph, refinement=refinement, max_depth=max_depth)
    if task is Task.PORT_PATH_ELECTION:
        return port_path_election_index(
            graph, refinement=refinement, max_depth=max_depth, max_states=max_states
        )
    if task is Task.COMPLETE_PORT_PATH_ELECTION:
        return complete_port_path_election_index(
            graph, refinement=refinement, max_depth=max_depth
        )
    raise ValueError(f"unknown task {task!r}")


def all_election_indices(
    graph: PortLabeledGraph,
    *,
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
) -> Dict[Task, Optional[int]]:
    """ψ_Z(G) for all four tasks, sharing one (process-cached) refinement.

    The values satisfy Fact 1.1 by construction: ψ_PE's depth search starts
    at ψ_S, a ψ_PPE leader passes the PE check at its depth, and ψ_CPPE is
    the first discrete depth, where every shade has an assignment.  So
    :func:`~repro.core.hierarchy.verify_fact_1_1` cannot catch a wrong index;
    the small-scope oracle test, which computes all four from the
    definitions, is the independent check.
    """
    refinement = default_refinement(graph)
    return {
        task: election_index(
            task,
            graph,
            refinement=refinement,
            max_depth=max_depth,
            max_states=max_states,
        )
        for task in Task.ordered()
    }
