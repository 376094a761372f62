"""The Fact 1.1 hierarchy of election indices.

The four tasks form a hierarchy: a solution of a stronger task can be turned
into a solution of a weaker one without extra communication, hence

    ψ_CPPE(G) >= ψ_PPE(G) >= ψ_PE(G) >= ψ_S(G)     (Fact 1.1)

This module provides checks of that ordering for computed index dictionaries
and classification helpers used by tests and the E13 bench.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..portgraph.graph import PortLabeledGraph
from .election_index import all_election_indices
from .tasks import Task

__all__ = [
    "indices_respect_hierarchy",
    "verify_fact_1_1",
    "index_gaps",
]


def indices_respect_hierarchy(indices: Mapping[Task, Optional[int]]) -> bool:
    """Whether a ψ_Z dictionary satisfies ψ_CPPE >= ψ_PPE >= ψ_PE >= ψ_S.

    Missing (``None``) entries are skipped: ``None`` means either the graph is
    infeasible (all four are then ``None``) or the index was not computed.
    """
    ordered = [indices.get(task) for task in Task.ordered()]
    previous = None
    for value in ordered:
        if value is None:
            continue
        if previous is not None and value < previous:
            return False
        previous = value
    return True


def verify_fact_1_1(graph: PortLabeledGraph, **kwargs) -> Dict[Task, Optional[int]]:
    """Compute all four indices of ``graph`` and assert the Fact 1.1 ordering.

    The indices come from :func:`~repro.core.election_index.all_election_indices`,
    which never seeds a search with a weaker index, so the check is
    independent: seeded values (as the runner computes them) satisfy the
    ordering by construction and could not test it.
    """
    indices = all_election_indices(graph, **kwargs)
    if not indices_respect_hierarchy(indices):
        raise AssertionError(f"Fact 1.1 violated: {indices}")
    return indices


def index_gaps(indices: Mapping[Task, Optional[int]]) -> Dict[str, Optional[int]]:
    """Pairwise gaps between consecutive indices in the hierarchy (``None`` if unknown)."""
    ordered = Task.ordered()
    gaps: Dict[str, Optional[int]] = {}
    for weaker, stronger in zip(ordered, ordered[1:]):
        a, b = indices.get(weaker), indices.get(stronger)
        gaps[f"{stronger.value}-{weaker.value}"] = None if a is None or b is None else b - a
    return gaps
