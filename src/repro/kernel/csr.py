"""Flat compressed-sparse-row (CSR) view of a port-labeled graph.

A port-labeled graph stores, per node ``v`` of degree ``d``, the port table
``(neighbour, neighbour_port)`` for ports ``0..d-1``.  Because ports are
contiguous by the model's definition, the whole graph flattens into three int
arrays with *darts* (directed edge slots) as the unit:

* ``offsets[v] .. offsets[v+1]`` — the dart range of node ``v`` (the
  outgoing port of dart ``i`` is ``i - offsets[v]``);
* ``neighbors[offsets[v] + p]`` — the node reached from ``v`` via port ``p``;
* ``reverse_ports[offsets[v] + p]`` — the port number on the far side.

Every hot loop of the kernel (refinement signatures, block-cut DFS, BFS,
message routing) walks these arrays instead of tuples-of-tuples, which avoids
one Python object dereference per edge visit.  The arrays use the standard
:mod:`array` module so the kernel stays dependency-free; numpy, when
installed, shifts the offsets suffix in :meth:`CSRGraph.patched`, and the
refinement engine's vector passes read the arrays through zero-copy views
typed by each array's own typecode.

The view also memoises what those loops derive from it: the dart
involution, the block-cut tree and one BFS distance array per source, so
every consumer of one graph, and of every equal instance that shares its
view, builds each at most once.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Tuple

from .backend import numpy_or_none

__all__ = ["CSRGraph", "build_csr", "bfs_distances_csr"]

#: array typecode for all kernel int arrays (signed, at least 32 bits).
INT_TYPECODE = "l"


class CSRGraph:
    """The flat-array encoding of one port-labeled graph.

    Instances are immutable by convention (the arrays are never written after
    construction) and are memoised per graph by
    :meth:`repro.portgraph.graph.PortLabeledGraph.csr`; the runner's cache
    hands a cached instance's view to every equal request graph
    (:meth:`~repro.portgraph.graph.PortLabeledGraph.adopt_from`), so the
    memos below are built once per graph the cache holds.  Two threads may
    build one memo at once; both results are equal, and either is kept.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "offsets",
        "neighbors",
        "reverse_ports",
        "_twin_darts",
        "_blockcut",
        "_distances",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        offsets: array,
        neighbors: array,
        reverse_ports: array,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.offsets = offsets
        self.neighbors = neighbors
        self.reverse_ports = reverse_ports
        self._twin_darts = None  # built on first access (message routing)
        self._blockcut = None  # built on first access (ψ_PE, ψ_PPE)
        self._distances = {}  # source -> BFS distances (ψ_PPE pruning, ψ_CPPE paths)

    @property
    def twin_darts(self) -> array:
        """The dart involution: ``twin[offsets[v] + p]`` is the dart back.

        ``twin[dart] = offsets[neighbors[dart]] + reverse_ports[dart]`` — a
        message sent out of ``dart`` arrives in dart ``twin[dart]``'s inbox
        slot.  Materialised lazily: only message routing reads it.
        """
        if self._twin_darts is None:
            offsets = self.offsets
            neighbors = self.neighbors
            reverse_ports = self.reverse_ports
            self._twin_darts = array(
                INT_TYPECODE,
                [
                    offsets[neighbors[dart]] + reverse_ports[dart]
                    for dart in range(len(neighbors))
                ],
            )
        return self._twin_darts

    def block_cut_tree(self):
        """The graph's :class:`~repro.kernel.blockcut.BlockCutTree` (built on first request)."""
        if self._blockcut is None:
            from .blockcut import BlockCutTree  # lazy: blockcut imports this module

            self._blockcut = BlockCutTree(self)
        return self._blockcut

    def distances_from(self, source: int) -> array:
        """BFS hop distances from ``source`` to every node (memoised per source)."""
        cached = self._distances.get(source)
        if cached is None:
            cached = bfs_distances_csr(self, source)
            self._distances[source] = cached
        return cached

    def nbytes(self) -> int:
        """Footprint of the arrays and the memos built so far (bytes).

        Every array is counted exactly, the block labelling's included.
        Feeds the runner cache's ``live_bytes`` / ``evicted_bytes`` accounting.
        """
        arrays = [self.offsets, self.neighbors, self.reverse_ports]
        if self._twin_darts is not None:
            arrays.append(self._twin_darts)
        # a snapshot: a pool thread may memoise another source meanwhile
        arrays.extend(list(self._distances.values()))
        total = sum(len(arr) * arr.itemsize for arr in arrays)
        if self._blockcut is not None:
            total += self._blockcut.nbytes()
        return total

    # ------------------------------------------------------------------ #
    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def endpoint(self, v: int, port: int) -> Tuple[int, int]:
        """``(u, q)``: the neighbour via ``port`` at ``v`` and the port back."""
        dart = self.offsets[v] + port
        return self.neighbors[dart], self.reverse_ports[dart]

    def neighbor(self, v: int, port: int) -> int:
        return self.neighbors[self.offsets[v] + port]

    def neighbor_slice(self, v: int) -> array:
        """The port-ordered neighbours of ``v`` as an array slice."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    # ------------------------------------------------------------------ #
    def patched(self, result) -> "CSRGraph":
        """The mutated graph's CSR view, patched from this one (the edit API).

        ``result`` is a :class:`repro.portgraph.delta.DeltaResult` whose
        delta was applied to the graph these arrays encode.  Instead of
        re-flattening the whole adjacency (:func:`build_csr`'s O(m) python
        loop), rows of nodes the delta did not touch are *slice-copied* from
        this instance's arrays (a C-level memcpy per row); only touched rows
        — and rows adjacent to a renamed handle, whose neighbour ids must be
        rewritten — are rebuilt entry-by-entry.  The returned view is a
        fresh instance with no memos, so this one's arrays and memos are
        untouched and the mutated graph builds its own dart involution,
        block-cut tree and BFS distances on first use.

        Byte-identical to ``build_csr(result.graph)`` — certified by the
        delta equivalence suite.
        """
        graph = result.graph
        node_map = result.node_map
        n = graph.num_nodes
        base_offsets = self.offsets
        base_neighbors = self.neighbors
        base_reverse = self.reverse_ports

        rebuild = set(result.touched)
        for new_id in result.renamed.values():
            # rows referencing a renamed handle hold stale neighbour ids
            for u, _q in graph.adjacency(new_id):
                rebuild.add(u)

        # Identity fast path: no handles added, removed or renamed, so node
        # ``v`` maps to base node ``v`` and untouched spans between touched
        # rows are contiguous in *both* dart arrays.  Copy the base arrays
        # wholesale (C memcpy), shift the offsets suffix per degree change,
        # and rewrite only the touched rows — O(touched + shifts), not O(n).
        if not result.renamed and n == self.num_nodes and -1 not in node_map:
            order = sorted(rebuild)
            offsets = array(INT_TYPECODE, base_offsets)
            shifts = []
            for v in order:
                delta = graph.degree(v) - (base_offsets[v + 1] - base_offsets[v])
                if delta:
                    shifts.append((v, delta))
            if shifts:
                numpy = numpy_or_none()
                if numpy is not None:
                    off_np = numpy.frombuffer(offsets, dtype=numpy.dtype(INT_TYPECODE))
                    for v, delta in shifts:
                        off_np[v + 1 :] += delta
                else:
                    bounds = shifts + [(n, 0)]
                    cumulative = 0
                    for (v, delta), (nxt, _d) in zip(bounds, bounds[1:]):
                        cumulative += delta
                        for i in range(v + 1, nxt + 1):
                            offsets[i] += cumulative
            total = offsets[n]
            neighbors = array(INT_TYPECODE, bytes(total * base_neighbors.itemsize))
            reverse_ports = array(INT_TYPECODE, bytes(total * base_reverse.itemsize))
            prev = 0
            for v in order + [n]:
                if prev < v:
                    dst_lo, dst_hi = offsets[prev], offsets[v]
                    src_lo, src_hi = base_offsets[prev], base_offsets[v]
                    neighbors[dst_lo:dst_hi] = base_neighbors[src_lo:src_hi]
                    reverse_ports[dst_lo:dst_hi] = base_reverse[src_lo:src_hi]
                if v < n:
                    start = offsets[v]
                    for p, (u, q) in enumerate(graph.adjacency(v)):
                        neighbors[start + p] = u
                        reverse_ports[start + p] = q
                prev = v + 1
            return CSRGraph(n, total // 2, offsets, neighbors, reverse_ports)

        offsets = array(INT_TYPECODE, [0] * (n + 1))
        total = 0
        for v in range(n):
            offsets[v] = total
            total += graph.degree(v)
        offsets[n] = total
        neighbors = array(INT_TYPECODE, [0] * total)
        reverse_ports = array(INT_TYPECODE, [0] * total)
        for v in range(n):
            base = offsets[v]
            if v in rebuild:
                for p, (u, q) in enumerate(graph.adjacency(v)):
                    neighbors[base + p] = u
                    reverse_ports[base + p] = q
            else:
                b = node_map[v]
                lo, hi = base_offsets[b], base_offsets[b + 1]
                end = base + (hi - lo)
                neighbors[base:end] = base_neighbors[lo:hi]
                reverse_ports[base:end] = base_reverse[lo:hi]
        return CSRGraph(n, total // 2, offsets, neighbors, reverse_ports)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CSRGraph n={self.num_nodes} m={self.num_edges}>"


def build_csr(graph) -> CSRGraph:
    """Flatten a :class:`~repro.portgraph.graph.PortLabeledGraph` into CSR arrays."""
    n = graph.num_nodes
    offsets = array(INT_TYPECODE, [0] * (n + 1))
    total = 0
    for v in range(n):
        offsets[v] = total
        total += graph.degree(v)
    offsets[n] = total
    neighbors = array(INT_TYPECODE, [0] * total)
    reverse_ports = array(INT_TYPECODE, [0] * total)
    for v in range(n):
        base = offsets[v]
        for p, (u, q) in enumerate(graph.adjacency(v)):
            neighbors[base + p] = u
            reverse_ports[base + p] = q
    return CSRGraph(n, total // 2, offsets, neighbors, reverse_ports)


def bfs_distances_csr(csr: CSRGraph, source: int) -> array:
    """Hop distances from ``source`` to every node (-1 if unreachable)."""
    dist = array(INT_TYPECODE, [-1] * csr.num_nodes)
    dist[source] = 0
    offsets = csr.offsets
    neighbors = csr.neighbors
    queue = deque([source])
    while queue:
        v = queue.popleft()
        next_dist = dist[v] + 1
        for i in range(offsets[v], offsets[v + 1]):
            u = neighbors[i]
            if dist[u] < 0:
                dist[u] = next_dist
                queue.append(u)
    return dist
