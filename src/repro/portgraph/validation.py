"""Validation of port-labeled adjacency structures.

The network model of the paper is a simple, undirected, connected graph in
which every node of degree ``d`` labels its incident edges with distinct
*port numbers* ``0 .. d-1``.  Each edge therefore carries two port numbers,
one per endpoint, and there is no relation between the two.

This module checks that an adjacency structure (a sequence indexed by node,
mapping ports to ``(neighbour, neighbour_port)`` pairs) satisfies the model's
invariants.  Builders use it before freezing a graph, and the graph
constructor re-uses it when ``validate=True``.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence, Tuple

__all__ = [
    "PortLabelingError",
    "validate_adjacency",
    "check_connected",
    "is_json_int",
]

Endpoint = Tuple[int, int]


class PortLabelingError(ValueError):
    """Raised when an adjacency structure violates the port-labeled model."""


def is_json_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer: ``bool`` subclasses
    ``int``, but ``true`` and ``false`` are no numbers to a client."""
    return isinstance(value, int) and not isinstance(value, bool)


def _iter_ports(entry) -> Mapping[int, Endpoint]:
    """Normalise a per-node adjacency entry to a ``port -> (nbr, nbr_port)`` mapping."""
    # concrete types first: the ABC check of the fallback is several times
    # slower, and this runs once per node of every validated graph
    kind = type(entry)
    if kind is dict:
        return entry
    if kind is not list and kind is not tuple and isinstance(entry, Mapping):
        return entry
    # Sequence indexed by port.
    return dict(enumerate(entry))


def validate_adjacency(
    adjacency: Sequence,
    *,
    require_contiguous_ports: bool = True,
    require_connected: bool = True,
    allow_empty: bool = False,
) -> None:
    """Validate a port-labeled adjacency structure.

    Parameters
    ----------
    adjacency:
        Sequence over nodes ``0..n-1``.  Entry ``v`` is either a mapping
        ``port -> (neighbour, neighbour_port)`` or a sequence of
        ``(neighbour, neighbour_port)`` pairs indexed by port.
    require_contiguous_ports:
        If true (the paper's model), the ports at a degree-``d`` node must be
        exactly ``{0, .., d-1}``.  If false, ports only need to be distinct
        non-negative integers (useful for intermediate construction states).
    require_connected:
        If true, the graph must be connected.
    allow_empty:
        Permit the zero-node graph.

    Raises
    ------
    PortLabelingError
        If any invariant is violated.
    """
    n = len(adjacency)
    if n == 0:
        if allow_empty:
            return
        raise PortLabelingError("graph has no nodes")

    # normalise every row once: the reciprocity check below reads the
    # neighbour's row for every dart
    rows = [_iter_ports(adjacency[v]) for v in range(n)]
    for v in range(n):
        ports = rows[v]
        degree = len(ports)
        seen_neighbours = set()
        for port, pair in ports.items():
            if not isinstance(port, int) or port < 0:
                raise PortLabelingError(f"node {v}: port {port!r} is not a non-negative integer")
            try:
                u, q = pair
            except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
                raise PortLabelingError(
                    f"node {v}, port {port}: entry {pair!r} is not a (neighbour, port) pair"
                ) from exc
            if not (0 <= u < n):
                raise PortLabelingError(f"node {v}, port {port}: neighbour {u} out of range")
            if u == v:
                raise PortLabelingError(f"node {v}: self-loop on port {port}")
            if u in seen_neighbours:
                raise PortLabelingError(f"node {v}: multiple edges to neighbour {u}")
            seen_neighbours.add(u)
            # Reciprocity: the neighbour's port q must point back to v with port `port`.
            other = rows[u]
            if q not in other:
                raise PortLabelingError(
                    f"node {v}, port {port}: neighbour {u} has no port {q}"
                )
            back_u, back_p = other[q]
            if back_u != v or back_p != port:
                raise PortLabelingError(
                    f"edge mismatch: node {v} port {port} -> ({u}, {q}) but "
                    f"node {u} port {q} -> ({back_u}, {back_p})"
                )
        if require_contiguous_ports and set(ports) != set(range(degree)):
            raise PortLabelingError(
                f"node {v}: ports {sorted(ports)} are not contiguous 0..{degree - 1}"
            )

    if require_connected and not _connected(rows):
        raise PortLabelingError("graph is not connected")


def check_connected(adjacency: Sequence) -> bool:
    """Return True iff the graph described by ``adjacency`` is connected."""
    return _connected([_iter_ports(adjacency[v]) for v in range(len(adjacency))])


def _connected(rows: Sequence[Mapping[int, Endpoint]]) -> bool:
    n = len(rows)
    if n == 0:
        return True
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for pair in rows[v].values():
            u = pair[0]
            if not seen[u]:
                seen[u] = 1
                count += 1
                queue.append(u)
    return count == n
