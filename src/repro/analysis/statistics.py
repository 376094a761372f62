"""Descriptive statistics of port-labeled graphs and of election instances.

Used by the examples and the benchmark harness to print compact summaries
(node/edge counts, degree histograms, view-class counts per depth, election
indices) of the graphs under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.election_index import selection_index
from ..core.feasibility import default_refinement, is_feasible
from ..portgraph.graph import PortLabeledGraph

__all__ = ["GraphSummary", "summarize_graph", "view_class_profile", "format_table"]


@dataclass
class GraphSummary:
    """Compact description of one graph instance."""

    name: str
    num_nodes: int
    num_edges: int
    max_degree: int
    min_degree: int
    degree_histogram: Dict[int, int]
    feasible: bool
    selection_index: Optional[int]
    view_classes_by_depth: List[int] = field(default_factory=list)


def summarize_graph(graph: PortLabeledGraph, *, max_depth: Optional[int] = None) -> GraphSummary:
    """Summarise a graph: size, degrees, feasibility, ψ_S, view-class growth."""
    refinement = default_refinement(graph)
    feasible = is_feasible(graph, refinement=refinement)
    index = selection_index(graph, refinement=refinement)
    stable = refinement.ensure_stable()
    depth_limit = stable if max_depth is None else min(max_depth, stable)
    profile = [refinement.num_classes(depth) for depth in range(depth_limit + 1)]
    return GraphSummary(
        name=graph.name or f"graph-{graph.num_nodes}",
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        min_degree=graph.min_degree,
        degree_histogram=graph.degree_histogram(),
        feasible=feasible,
        selection_index=index,
        view_classes_by_depth=profile,
    )


def view_class_profile(graph: PortLabeledGraph, max_depth: int) -> List[int]:
    """Number of distinct views at every depth 0..max_depth."""
    refinement = default_refinement(graph)
    return [refinement.num_classes(depth) for depth in range(max_depth + 1)]


def format_table(headers: List[str], rows: List[List[object]]) -> str:
    """Plain-text table formatting used by the examples and the bench harness output."""
    columns = [[str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
