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

* **ψ_PPE(G)** / **ψ_CPPE(G)** are the smallest ``t`` at which there is such
  a ``u`` and every other class has a *common outgoing-port sequence*
  (respectively, a common sequence of (outgoing, incoming) port pairs) that
  traces a simple path from each member to ``u``.

ψ_S and ψ_PE are computed in polynomial time.  ψ_PPE and ψ_CPPE use an exact
joint breadth-first search over common sequences, which is exponential in the
worst case but bounded by ``max_states`` (raising :class:`SearchLimitExceeded`
rather than silently guessing).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel import GraphKernel
from ..kernel.csr import bfs_distances_csr
from ..portgraph.graph import PortLabeledGraph
from ..views.refinement import ViewRefinement
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
    """Raised when the PPE/CPPE sequence search exceeds its state budget."""


#: When ``max_cells`` is not given explicitly, the footprint cap of the joint
#: search defaults to this many int cells per allowed state.  A stored state
#: costs ``k`` position ints plus ``k`` visited sets of up to path-length
#: nodes each, so a pure state *count* wildly undercounts real memory for
#: large classes; the cell cap bounds the actual footprint of ``seen`` (and
#: with it the queue, which only holds states already in ``seen``).
_DEFAULT_CELLS_PER_STATE = 32

#: Process-wide counters of the PPE/CPPE joint searches (monotone; workers
#: keep their own copies).  ``states``/``cells`` count *stored* search states
#: and their int-cell footprint, so the CI benchmark gate can certify that a
#: warm sweep replay performed zero fresh search work.
_SEARCH_STATS = {"searches": 0, "states": 0, "cells": 0, "limit_hits": 0}


def search_statistics() -> Dict[str, int]:
    """A snapshot of the cumulative PPE/CPPE joint-search counters."""
    return dict(_SEARCH_STATS)


def reset_search_statistics() -> None:
    """Zero the cumulative joint-search counters (tests and benchmarks)."""
    for key in _SEARCH_STATS:
        _SEARCH_STATS[key] = 0


def _default_refinement(graph: PortLabeledGraph) -> ViewRefinement:
    """The process-wide memoised refinement of ``graph``.

    Every index function takes an explicit ``refinement`` for callers that
    manage their own; when none is passed, the shared LRU cache of the runner
    subsystem supplies one, so repeated queries about the same graph -- from
    feasibility checks, from different ψ_Z computations, from benchmark
    sweeps -- all refine it at most once per process.  (Imported lazily:
    ``repro.runner`` imports this module.)
    """
    from ..runner.cache import shared_refinement

    return shared_refinement(graph)


def _default_kernel(graph: PortLabeledGraph) -> GraphKernel:
    """The process-wide memoised kernel (CSR, block-cut tree, BFS distances).

    Lives on the same cache entry as the refinement, so a warm sweep skips
    block-cut-tree construction exactly as it skips refinement passes.
    (Imported lazily for the same layering reason as above.)
    """
    from ..runner.cache import shared_kernel

    return shared_kernel(graph)


# --------------------------------------------------------------------------- #
# ψ_S
# --------------------------------------------------------------------------- #
def selection_index(
    graph: PortLabeledGraph, *, refinement: Optional[ViewRefinement] = None
) -> Optional[int]:
    """ψ_S(G): smallest depth at which some node has a unique augmented view.

    Returns ``None`` for infeasible graphs (no such depth exists).
    """
    refinement = refinement if refinement is not None else _default_refinement(graph)
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

    refinement = refinement if refinement is not None else _default_refinement(graph)
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
    this helper used to drive.  Whole classes are screened at once via
    :meth:`~repro.kernel.blockcut.BlockCutTree.class_port_ok`, which the
    numpy backend vectorises down to the articulation-point members.
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
    with the map as advice.
    """
    refinement = refinement if refinement is not None else _default_refinement(graph)
    classes = refinement.classes(depth)
    cut = _default_kernel(graph).block_cut_tree()
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
    refinement = refinement if refinement is not None else _default_refinement(graph)
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
def _common_path_sequence(
    graph: PortLabeledGraph,
    members: Sequence[int],
    leader: int,
    *,
    complete: bool,
    max_length: Optional[int] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
    distances=None,
) -> Optional[Tuple[int, ...]]:
    """A common port sequence tracing a simple path from every member to ``leader``.

    For ``complete=False`` the sequence is the PPE-style outgoing ports
    ``(p1, ..., pk)``; for ``complete=True`` it is the CPPE-style flat
    ``(p1, q1, ..., pk, qk)``.  Returns ``None`` if no common sequence of
    length at most ``max_length`` exists.

    Two budgets guard the exponential joint search, both raising
    :class:`SearchLimitExceeded`: ``max_states`` bounds the number of stored
    states, and ``max_cells`` bounds their actual int-cell footprint
    (positions plus per-member visited sets; default
    ``max_states * 32``).  The state count alone undercounts memory by a
    factor of ``class size × path length``, which is what the cell cap fixes.

    ``distances`` (hop distances to ``leader``, e.g. from
    :meth:`repro.kernel.GraphKernel.distances_from`) enables lower-bound
    pruning: a branch whose member provably cannot reach the leader within
    the remaining simple-path budget is dead and never enters ``seen``.
    Pruning only removes provably fruitless states, so the returned sequence
    is identical with and without it.  When ``None``, one BFS from ``leader``
    over the graph's CSR view is performed here.
    """
    if any(v == leader for v in members):
        return None
    if max_length is None:
        max_length = graph.num_nodes - 1
    if max_cells is None:
        max_cells = max_states * _DEFAULT_CELLS_PER_STATE
    if distances is None:
        distances = bfs_distances_csr(graph.csr(), leader)
    stats = _SEARCH_STATS
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
    cells = 2 * k  # the start state: k positions + k singleton visited sets
    try:
        while queue:
            positions, visited, sequence = queue.popleft()
            steps_taken = len(sequence) // 2 if complete else len(sequence)
            if steps_taken >= max_length:
                continue
            remaining = max_length - steps_taken - 1
            # a child costs k positions plus k visited sets one node longer
            child_cells = k * (steps_taken + 3)
            bases = [offsets[v] for v in positions]
            min_degree = min(offsets[v + 1] - base for v, base in zip(positions, bases))
            for port in range(min_degree):
                next_nodes: List[int] = []
                # CPPE needs one incoming port shared by every member: the
                # first member's fixes it, and any other port blocks the
                # extension just like a revisit does
                incoming = reverse_ports[bases[0] + port]
                for i, base in enumerate(bases):
                    dart = base + port
                    u = neighbors[dart]
                    if (
                        u in visited[i]
                        or distances[u] > remaining
                        or (complete and reverse_ports[dart] != incoming)
                    ):
                        # revisit, provably unable to reach the leader
                        # within the simple-path budget (distance lower
                        # bound; never triggers for the leader itself), or
                        # a second incoming port
                        break
                    next_nodes.append(u)
                if len(next_nodes) < k:
                    continue
                hits = next_nodes.count(leader)
                if 0 < hits < k:
                    # Some members reached the leader early: their simple path
                    # can no longer end at the leader later: a dead branch.
                    continue
                new_sequence = sequence + ((port, incoming) if complete else (port,))
                if hits:
                    return new_sequence
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
                queue.append((new_positions, new_visited, new_sequence))
        return None
    finally:
        stats["states"] += len(seen)
        stats["cells"] += cells


def path_election_assignment(
    graph: PortLabeledGraph,
    depth: int,
    *,
    complete: bool,
    refinement: Optional[ViewRefinement] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
) -> Optional[Tuple[int, Dict[int, Tuple[int, ...]]]]:
    """A (leader, per-node sequence) assignment realising PPE/CPPE at ``depth``, or ``None``."""
    refinement = refinement if refinement is not None else _default_refinement(graph)
    classes = refinement.classes(depth)
    kernel = _default_kernel(graph)
    singleton_nodes = sorted(m[0] for m in classes.values() if len(m) == 1)
    for leader in singleton_nodes:
        distances = kernel.distances_from(leader)
        sequences: Dict[int, Tuple[int, ...]] = {}
        feasible = True
        for members in classes.values():
            if members == [leader]:
                continue
            sequence = _common_path_sequence(
                graph,
                members,
                leader,
                complete=complete,
                max_states=max_states,
                max_cells=max_cells,
                distances=distances,
            )
            if sequence is None:
                feasible = False
                break
            for v in members:
                sequences[v] = sequence
        if feasible:
            return leader, sequences
    return None


def _path_index(
    graph: PortLabeledGraph,
    *,
    complete: bool,
    refinement: Optional[ViewRefinement],
    max_depth: Optional[int],
    max_states: int,
    max_cells: Optional[int] = None,
    lower_bound: Optional[int] = None,
) -> Optional[int]:
    """The smallest depth from ``max(ψ_S, lower_bound)`` with a PPE/CPPE assignment."""
    refinement = refinement if refinement is not None else _default_refinement(graph)
    start = refinement.first_depth_with_unique_node(max_depth=max_depth)
    if start is None:
        return None
    stable = refinement.ensure_stable()
    depth = start if lower_bound is None else max(start, lower_bound)
    while max_depth is None or depth <= max_depth:
        assignment = path_election_assignment(
            graph,
            depth,
            complete=complete,
            refinement=refinement,
            max_states=max_states,
            max_cells=max_cells,
        )
        if assignment is not None:
            return depth
        if depth >= stable:
            return None
        depth += 1
    return None


def port_path_election_index(
    graph: PortLabeledGraph,
    *,
    refinement: Optional[ViewRefinement] = None,
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
    lower_bound: Optional[int] = None,
) -> Optional[int]:
    """ψ_PPE(G) (exact, bounded search).

    ``lower_bound``, a proven lower bound on the index, seeds the depth
    search (see :func:`election_index`).
    """
    return _path_index(
        graph,
        complete=False,
        refinement=refinement,
        max_depth=max_depth,
        max_states=max_states,
        max_cells=max_cells,
        lower_bound=lower_bound,
    )


def complete_port_path_election_index(
    graph: PortLabeledGraph,
    *,
    refinement: Optional[ViewRefinement] = None,
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
    max_cells: Optional[int] = None,
    lower_bound: Optional[int] = None,
) -> Optional[int]:
    """ψ_CPPE(G) (exact, bounded search).

    ``lower_bound``, a proven lower bound on the index, seeds the depth
    search (see :func:`election_index`).
    """
    return _path_index(
        graph,
        complete=True,
        refinement=refinement,
        max_depth=max_depth,
        max_states=max_states,
        max_cells=max_cells,
        lower_bound=lower_bound,
    )


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
    lower_bound: Optional[int] = None,
) -> Optional[int]:
    """ψ_Z(G) for any of the four tasks Z.

    ``lower_bound`` seeds the PPE/CPPE depth search: it starts at
    ``max(ψ_S, lower_bound)`` instead of ψ_S.  It must be a proven lower
    bound on the index under the same ``max_depth``, such as the exact
    weaker index of Fact 1.1 (ψ_PE for PPE, ψ_PPE for CPPE); every skipped
    depth then has no assignment, so the value is unchanged.  A skipped
    depth cannot exhaust ``max_states`` either, so a seeded search may
    return an exact value where the unseeded one raises
    :class:`SearchLimitExceeded`.  S and PE ignore ``lower_bound``: their
    searches already start at ψ_S, the weakest index.
    """
    if task is Task.SELECTION:
        return selection_index(graph, refinement=refinement)
    if task is Task.PORT_ELECTION:
        return port_election_index(graph, refinement=refinement, max_depth=max_depth)
    if task is Task.PORT_PATH_ELECTION:
        return port_path_election_index(
            graph,
            refinement=refinement,
            max_depth=max_depth,
            max_states=max_states,
            lower_bound=lower_bound,
        )
    if task is Task.COMPLETE_PORT_PATH_ELECTION:
        return complete_port_path_election_index(
            graph,
            refinement=refinement,
            max_depth=max_depth,
            max_states=max_states,
            lower_bound=lower_bound,
        )
    raise ValueError(f"unknown task {task!r}")


def all_election_indices(
    graph: PortLabeledGraph,
    *,
    max_depth: Optional[int] = None,
    max_states: int = 200_000,
) -> Dict[Task, Optional[int]]:
    """ψ_Z(G) for all four tasks, sharing one (process-cached) refinement.

    Each index is searched independently and never seeded with a weaker one
    (no ``lower_bound``), so the result is the unseeded reference against
    which Fact 1.1 (:func:`~repro.core.hierarchy.verify_fact_1_1`) is checked.
    """
    refinement = _default_refinement(graph)
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
