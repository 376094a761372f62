"""Serialization of port-labeled graphs.

Graphs round-trip through a plain ``dict`` (and JSON), convert to and from
``networkx`` multigraph-free graphs carrying port attributes, and export to
Graphviz DOT for eyeballing small instances.  The dict format is also the
payload of the "full map" advice used by the universal minimum-time
algorithms (:mod:`repro.advice.map_advice`).

:func:`graph_to_bytes` / :func:`graph_from_bytes` are the *compact binary*
round-trip used by the on-disk artifact store (:mod:`repro.store`):
unsigned-LEB128 varints over the canonical ``v < u`` edge iteration order, so
the encoding of a graph is a pure function of its labeled adjacency --
byte-identical across processes and Python versions, and typically 4-6x
smaller than the JSON form.  Its name-free body (:func:`write_graph_body`)
is also what :meth:`PortLabeledGraph.cache_key` digests.  Whole runs of
varints go out through :func:`write_uvarints`, one vectorised pass when
numpy imports, with the bytes of the per-value :func:`write_uvarint`.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from typing import Any, Dict, List

from ..kernel.backend import numpy_or_none
from .graph import PortLabeledGraph
from .validation import PortLabelingError, is_json_int

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "graph_to_bytes",
    "graph_from_bytes",
    "graph_to_networkx",
    "graph_from_networkx",
    "graph_to_dot",
]


# --------------------------------------------------------------------------- #
# varint primitives (shared with repro.store's record format)
# --------------------------------------------------------------------------- #
def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_uvarints(out: bytearray, values) -> None:
    """Append every value of ``values`` as an unsigned LEB128 varint, in order.

    The bytes are exactly those of :func:`write_uvarint` applied to each
    value in turn, and a negative value raises :class:`ValueError` as it
    does.  ``values`` is a sequence of ints: a list, a tuple or an integer
    ``array``.  With numpy importable the whole sequence is encoded in one
    vectorised pass, reading an ``array`` through a zero-copy view.  Without
    numpy, or for a list numpy cannot hold as one 64-bit integer column
    (ints of 2^63 and beyond next to other values, or non-ints), the
    per-value loop runs.
    """
    numpy = numpy_or_none()
    column = None if numpy is None else _uint64_column(numpy, values)
    if column is None:
        for value in values:
            write_uvarint(out, value)
    else:
        out += _uvarint_bytes(numpy, column)


def _uint64_column(numpy, values):
    """``values`` as a ``uint64`` array, or ``None`` when only the loop encodes them."""
    if isinstance(values, array):
        # a zero-copy view typed by the array's own typecode: "l" is 8 bytes
        # on most platforms and 4 on Windows
        column = numpy.frombuffer(values, dtype=numpy.dtype(values.typecode))
    else:
        column = numpy.asarray(values)
    # ints numpy cannot hold come back as float64 or object, an empty list
    # as float64: none of them is an integer column
    if column.ndim != 1 or column.dtype.kind not in "iu":
        return None
    if column.dtype.kind == "i" and column.shape[0] and column.min() < 0:
        raise ValueError("varints are unsigned")
    return column.astype(numpy.uint64, copy=False)


def _uvarint_bytes(numpy, values) -> bytes:
    """The varints of a ``uint64`` array, concatenated in order.

    A value takes one byte below 2^7, two below 2^14, and so on.  Byte ``k``
    of a value holds its ``k``-th 7-bit group, with the continuation bit set
    when the value reaches the next threshold.  Every group goes into a
    (values x groups) byte matrix, and a mask of the bytes each value uses
    reads them out row by row, which is value order.  All arithmetic is
    ``uint64`` with ``uint64`` constants, which promotes alike on numpy 1.x
    and 2.x.
    """
    u64 = numpy.uint64
    count = values.shape[0]
    top = int(values.max()) if count else 0
    groups = max(1, -(-top.bit_length() // 7))
    encoded = numpy.empty((count, groups), dtype=numpy.uint8)
    used = numpy.empty((count, groups), dtype=bool)
    used[:, 0] = True
    rest = values
    for group in range(groups):
        more = rest >= u64(0x80)
        encoded[:, group] = (rest & u64(0x7F)) | (more.astype(u64) << u64(7))
        if group + 1 < groups:
            used[:, group + 1] = more
        rest = rest >> u64(7)
    return encoded[used].tobytes()


def read_uvarint(data: bytes, offset: int) -> "tuple[int, int]":
    """Read an unsigned LEB128 varint at ``offset``; return ``(value, next offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def write_graph_body(out: bytearray, graph: PortLabeledGraph) -> None:
    """Append the name-free part of :func:`graph_to_bytes`: ``n, m`` and the edges.

    A pure function of the labeled adjacency, so two graphs encode to equal
    bodies exactly when they are equal (``==``), whatever their names --
    which is what :meth:`PortLabeledGraph.cache_key` digests.
    """
    write_uvarint(out, graph.num_nodes)
    write_uvarint(out, graph.num_edges)
    write_uvarints(out, list(chain.from_iterable(graph.edges())))


def graph_to_bytes(graph: PortLabeledGraph) -> bytes:
    """Compact, canonical binary encoding of a graph (name included).

    Layout: ``name length, name utf-8, n, m`` followed by ``m`` edges as
    ``(v, port_at_v, u, port_at_u)`` varint quadruples in the canonical
    ``v < u`` iteration order of :meth:`PortLabeledGraph.edges`.  Two equal
    labeled graphs with equal names encode to identical bytes.
    """
    out = bytearray()
    name = graph.name.encode("utf-8")
    write_uvarint(out, len(name))
    out.extend(name)
    write_graph_body(out, graph)
    return bytes(out)


def graph_from_bytes(
    payload: bytes, *, offset: int = 0, validate: bool = True
) -> "tuple[PortLabeledGraph, int]":
    """Inverse of :func:`graph_to_bytes`.

    Returns ``(graph, next offset)`` so callers embedding the encoding in a
    larger record (the artifact store) can keep parsing after it.  Pass
    ``validate=False`` only for trusted payloads (e.g. content-addressed
    store records, whose integrity the fingerprint certifies).
    """
    name_length, offset = read_uvarint(payload, offset)
    name = payload[offset : offset + name_length].decode("utf-8")
    offset += name_length
    num_nodes, offset = read_uvarint(payload, offset)
    num_edges, offset = read_uvarint(payload, offset)
    edges = []
    for _ in range(num_edges):
        v, offset = read_uvarint(payload, offset)
        pv, offset = read_uvarint(payload, offset)
        u, offset = read_uvarint(payload, offset)
        pu, offset = read_uvarint(payload, offset)
        edges.append((v, pv, u, pu))
    graph = PortLabeledGraph.from_edge_list(num_nodes, edges, name=name, validate=validate)
    return graph, offset


def graph_to_dict(graph: PortLabeledGraph) -> Dict[str, Any]:
    """A JSON-friendly dictionary representation of a graph."""
    return {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "edges": [[v, pv, u, pu] for v, pv, u, pu in graph.edges()],
    }


def graph_from_dict(data: Dict[str, Any], *, validate: bool = True) -> PortLabeledGraph:
    """Inverse of :func:`graph_to_dict`.

    With ``validate``, ``num_nodes`` and the four fields of every edge must
    be JSON integers: ``bool`` subclasses ``int``, but ``true`` is no node
    id or port to a client.
    """
    num_nodes = data["num_nodes"]
    edges = [tuple(edge) for edge in data["edges"]]
    if validate:
        if not is_json_int(num_nodes):
            raise PortLabelingError(f"'num_nodes' must be an integer, not {num_nodes!r}")
        for edge in edges:
            if len(edge) != 4 or not all(map(is_json_int, edge)):
                raise PortLabelingError(f"edge {list(edge)!r} is not four integers (v, port, u, port)")
    return PortLabeledGraph.from_edge_list(
        num_nodes, edges, name=data.get("name", ""), validate=validate
    )


def graph_to_json(graph: PortLabeledGraph, *, indent: int | None = None) -> str:
    """Serialize to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent)


def graph_from_json(payload: str, *, validate: bool = True) -> PortLabeledGraph:
    """Parse a JSON string produced by :func:`graph_to_json`."""
    return graph_from_dict(json.loads(payload), validate=validate)


def graph_to_networkx(graph: PortLabeledGraph):
    """Convert to a ``networkx.Graph`` whose edges carry ``ports={node: port}`` attributes."""
    import networkx as nx

    g = nx.Graph(name=graph.name)
    g.add_nodes_from(graph.nodes())
    for v, pv, u, pu in graph.edges():
        g.add_edge(v, u, ports={v: pv, u: pu})
    return g


def graph_from_networkx(g, *, name: str = "", validate: bool = True) -> PortLabeledGraph:
    """Convert a networkx graph with ``ports`` edge attributes back to a port-labeled graph.

    Nodes may be arbitrary hashables; they are relabeled to ``0..n-1`` in
    sorted-by-insertion order.
    """
    nodes = list(g.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges: List[tuple] = []
    for u, v, data in g.edges(data=True):
        ports = data.get("ports")
        if ports is None:
            raise ValueError(f"edge ({u}, {v}) is missing a 'ports' attribute")
        edges.append((index[u], ports[u], index[v], ports[v]))
    return PortLabeledGraph.from_edge_list(
        len(nodes), edges, name=name or g.name if hasattr(g, "name") else name, validate=validate
    )


def graph_to_dot(graph: PortLabeledGraph, *, highlight: Dict[int, str] | None = None) -> str:
    """Graphviz DOT output with ports rendered as ``taillabel``/``headlabel``."""
    highlight = highlight or {}
    lines = ["graph G {", "  node [shape=circle];"]
    for v in graph.nodes():
        attrs = f' [style=filled, fillcolor="{highlight[v]}"]' if v in highlight else ""
        lines.append(f"  n{v}{attrs};")
    for v, pv, u, pu in graph.edges():
        lines.append(f'  n{v} -- n{u} [taillabel="{pv}", headlabel="{pu}"];')
    lines.append("}")
    return "\n".join(lines)
