"""Feasibility of leader election in anonymous networks.

By the characterisation of Yamashita and Kameda (reference [44] of the
paper), leader election -- in any of the four formulations -- is possible in
an anonymous network whose map is known to the nodes if and only if the
(infinite) views of all nodes are pairwise distinct.  The paper calls such
networks *feasible* and restricts attention to them.

Infinite-view equality coincides with the fixpoint of partition refinement,
so feasibility is decided in polynomial time by
:class:`repro.views.refinement.ViewRefinement`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..portgraph.graph import PortLabeledGraph
from ..views.refinement import ViewRefinement

__all__ = [
    "default_refinement",
    "is_feasible",
    "infeasibility_witness",
    "symmetry_classes",
]


def default_refinement(graph: PortLabeledGraph) -> ViewRefinement:
    """The process-wide memoised refinement of ``graph``.

    Every feasibility, ψ_Z and summary function takes an explicit
    ``refinement`` for callers that manage their own; when none is passed,
    this default routes through the runner's shared LRU cache, so a
    feasibility check, the four ψ_Z computations and a later summary of
    the same graph refine it at most once per process.  (Imported lazily:
    ``repro.runner`` imports :mod:`repro.core`.)
    """
    from ..runner.cache import shared_refinement

    return shared_refinement(graph)


def is_feasible(
    graph: PortLabeledGraph, *, refinement: Optional[ViewRefinement] = None
) -> bool:
    """Whether leader election is possible in ``graph`` (given the map).

    True iff all nodes have pairwise distinct infinite views.
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    return refinement.is_discrete()


def infeasibility_witness(
    graph: PortLabeledGraph, *, refinement: Optional[ViewRefinement] = None
) -> Optional[List[int]]:
    """A class of two or more nodes sharing the same infinite view, or ``None`` if feasible.

    Any two nodes of the returned class are indistinguishable forever, which
    is the paper's reason why no deterministic algorithm can elect a leader.
    """
    refinement = refinement if refinement is not None else default_refinement(graph)
    stable = refinement.ensure_stable()
    for members in refinement.classes(stable).values():
        if len(members) > 1:
            return members
    return None


def symmetry_classes(
    graph: PortLabeledGraph, *, refinement: Optional[ViewRefinement] = None
) -> Dict[int, List[int]]:
    """The partition of nodes into classes of equal infinite views."""
    refinement = refinement if refinement is not None else default_refinement(graph)
    return refinement.classes(refinement.ensure_stable())
