"""Block-cut-tree (biconnected components) queries on CSR graphs.

ψ_PE's correctness condition asks, for a candidate leader ``u`` and every
member ``v`` of every other view class: *does port ``p`` at ``v`` start a
simple path from ``v`` to ``u``?*  Equivalently (for ``w`` the neighbour via
``p``): ``w == u``, or ``w`` and ``u`` lie in the same connected component of
``G - v``.  The previous implementation answered this with a cached BFS of
``G - v`` per removed node — O(n·(n+m)) per (leader, class) family and
rebuilt for every depth probed.

One depth-first search computes everything needed to answer all such queries
for *all* removed nodes at once (Hopcroft–Tarjan):

* ``tin`` / ``tout`` — preorder entry time and subtree interval end, so
  "is ``u`` in the DFS subtree of ``v``" is two comparisons;
* ``low`` — the classic lowlink: the smallest ``tin`` reachable from a
  subtree using at most one back edge;
* the DFS children of every node in increasing-``tin`` order, so "which child
  subtree of ``v`` contains ``u``" is a binary search over the children.

**Query contract** (``component_key``): for a removed node ``v`` and any
``u != v``, the key identifies the connected component of ``u`` in ``G - v``:

* if ``v`` is the DFS root, each child subtree is its own component (there
  are no cross edges between root subtrees in an undirected DFS);
* otherwise everything outside the subtree of ``v`` forms the "up" component
  (key ``-1``), a child subtree ``c`` with ``low[c] < tin[v]`` escapes along
  a back edge above ``v`` and merges with "up", and a child subtree with
  ``low[c] >= tin[v]`` is a separate component keyed by ``c``.

Two nodes are connected in ``G - v`` iff their keys match; each query costs
O(log deg v).  The biconnected components themselves (edge-partition blocks)
and the articulation points are exposed for tests and analyses.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import List, Sequence, Set, Tuple

from .csr import INT_TYPECODE, CSRGraph

__all__ = ["BlockCutTree"]


class BlockCutTree:
    """One DFS pass over a connected CSR graph; O(log Δ) cut queries forever after."""

    __slots__ = (
        "_csr",
        "_root",
        "_tin",
        "_tout",
        "_low",
        "_parent",
        "_children",
        "_child_tins",
        "_blocks",
        "_articulation",
    )

    def __init__(self, csr: CSRGraph, root: int = 0) -> None:
        self._csr = csr
        self._root = root
        n = csr.num_nodes
        self._tin = array(INT_TYPECODE, [-1] * n)
        self._tout = array(INT_TYPECODE, [-1] * n)
        self._low = array(INT_TYPECODE, [-1] * n)
        self._parent = array(INT_TYPECODE, [-1] * n)
        self._children: List[List[int]] = [[] for _ in range(n)]
        self._blocks: List[Tuple[int, ...]] = []
        self._articulation: Set[int] = set()
        self._dfs()
        self._child_tins = [
            array(INT_TYPECODE, [self._tin[c] for c in kids]) for kids in self._children
        ]

    def _dfs(self) -> None:
        csr = self._csr
        offsets = csr.offsets
        neighbors = csr.neighbors
        tin, tout, low, parent = self._tin, self._tout, self._low, self._parent
        children = self._children
        root = self._root
        timer = 0
        edge_stack: List[Tuple[int, int]] = []
        # iterative DFS: (node, index of next dart to scan)
        tin[root] = low[root] = timer
        timer += 1
        stack = [(root, offsets[root])]
        while stack:
            v, i = stack[-1]
            if i < offsets[v + 1]:
                stack[-1] = (v, i + 1)
                u = neighbors[i]
                if tin[u] < 0:
                    parent[u] = v
                    children[v].append(u)
                    edge_stack.append((v, u))
                    tin[u] = low[u] = timer
                    timer += 1
                    stack.append((u, offsets[u]))
                elif u != parent[v] and tin[u] < tin[v]:
                    # a genuine back edge (each undirected edge handled once)
                    edge_stack.append((v, u))
                    if tin[u] < low[v]:
                        low[v] = tin[u]
            else:
                stack.pop()
                tout[v] = timer
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= tin[p]:
                        # p separates v's subtree: close one biconnected block
                        block_nodes: Set[int] = set()
                        while edge_stack:
                            a, b = edge_stack.pop()
                            block_nodes.add(a)
                            block_nodes.add(b)
                            if (a, b) == (p, v):
                                break
                        self._blocks.append(tuple(sorted(block_nodes)))
                        if p != root:
                            self._articulation.add(p)
        if len(children[root]) >= 2:
            self._articulation.add(root)

    # ------------------------------------------------------------------ #
    # structure accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> int:
        return self._root

    def articulation_points(self) -> Set[int]:
        """The cut vertices of the graph."""
        return set(self._articulation)

    def biconnected_components(self) -> List[Tuple[int, ...]]:
        """The biconnected blocks as sorted node tuples (bridges are 2-blocks)."""
        return list(self._blocks)

    def is_articulation(self, v: int) -> bool:
        return v in self._articulation

    # ------------------------------------------------------------------ #
    # removed-node connectivity queries
    # ------------------------------------------------------------------ #
    def _in_subtree(self, u: int, v: int) -> bool:
        return self._tin[v] <= self._tin[u] < self._tout[v]

    def _child_containing(self, u: int, v: int) -> int:
        """The DFS child of ``v`` whose subtree contains ``u`` (``u`` must be below ``v``)."""
        kids = self._children[v]
        index = bisect_right(self._child_tins[v], self._tin[u]) - 1
        return kids[index]

    def component_key(self, u: int, removed: int) -> int:
        """Identifier of the component of ``u`` in ``G - removed`` (``u != removed``)."""
        if u == removed:
            raise ValueError("component_key: u must differ from the removed node")
        if removed == self._root:
            return self._child_containing(u, removed)
        if not self._in_subtree(u, removed):
            return -1
        child = self._child_containing(u, removed)
        if self._low[child] < self._tin[removed]:
            # the child's subtree climbs past `removed` along a back edge
            return -1
        return child

    def same_component_without(self, a: int, b: int, removed: int) -> bool:
        """Whether ``a`` and ``b`` are connected in ``G - removed``."""
        if not self._articulation or removed not in self._articulation:
            # removing a non-cut vertex of a connected graph keeps it connected
            return True
        return self.component_key(a, removed) == self.component_key(b, removed)

    def class_port_ok(self, members: Sequence[int], port: int, target: int) -> bool:
        """Whether ``port`` starts a simple path to ``target`` from *every* member.

        The per-class feasibility test of ψ_PE's port search (``port`` must
        be < every member's degree); stops at the first member that fails.
        """
        return all(self.starts_simple_path(v, port, target) for v in members)

    def starts_simple_path(self, v: int, port: int, target: int) -> bool:
        """Whether ``port`` at ``v`` is the first port of a simple path ``v -> target``.

        The PE output-correctness condition: the neighbour ``w`` via ``port``
        either *is* the target, or stays connected to it once ``v`` is gone.
        """
        if v == target:
            return False
        w = self._csr.neighbor(v, port)
        if w == target:
            return True
        return self.same_component_without(w, target, v)
