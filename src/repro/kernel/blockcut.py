"""Biconnected-block labelling of CSR graphs: ψ_PE's port check in one comparison.

ψ_PE's correctness condition asks, for a candidate leader ``t`` and every
member ``v != t`` of every other view class: *does port ``p`` at ``v`` start
a simple path from ``v`` to ``t``?*  The answer is a fact about biconnected
blocks (Hopcroft–Tarjan): every simple path from ``v`` to ``t`` leaves ``v``
through an edge of one block, ``B_t(v)``, the block at ``v`` on the
block-cut-tree path toward ``t``, and every edge of ``B_t(v)`` at ``v`` starts
one.  An edge at ``v`` in any other block leads into a part of the graph that
``v`` cuts off from ``t``.

One iterative DFS from node 0 labels every dart with its block (both darts of
an edge share one id) and records each node's parent dart and its preorder
interval, so ``u`` lies in the DFS subtree of ``v`` iff
``tin[v] <= tin[u] < tout[v]``.

**Query contract** (:meth:`BlockCutTree.block_toward`): the DFS-tree path from
``v`` to ``t`` is a simple path, so its first dart lies in ``B_t(v)``.  That
dart is ``v``'s parent dart when ``t`` lies outside the subtree of ``v``, and
otherwise the dart to the child whose interval holds ``t``.  A back edge from
``v`` down to a node whose interval holds ``t`` closes a cycle through that
child's edge, so its block is the same and the O(deg v) scan may stop at
either.  Port ``p`` at ``v`` therefore starts a simple path to ``t`` iff
``block[offsets[v] + p] == block_toward(v, t)``; this includes the edge to
``t`` itself.

The articulation points (nodes whose darts carry two or more ids) and the
bridges (blocks of one edge) are read off the same labels.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Set, Tuple

from .csr import INT_TYPECODE, CSRGraph

__all__ = ["BlockCutTree"]


class BlockCutTree:
    """One DFS pass over a connected CSR graph: a block id per dart, O(deg v) queries."""

    __slots__ = ("block", "_offsets", "_neighbors", "_parent_dart", "_tin", "_tout")

    def __init__(self, csr: CSRGraph) -> None:
        n = csr.num_nodes
        offsets = csr.offsets
        neighbors = csr.neighbors
        reverse_ports = csr.reverse_ports
        tin = [-1] * n
        tout = [0] * n
        low = [0] * n
        parent_dart = [-1] * n
        up = [-1] * n  # the block of each node's parent edge
        resume = list(offsets)  # the next dart each node scans
        path = [0]  # the DFS stack
        open_nodes = [0]  # discovered nodes whose parent edge has no block yet
        tin[0] = 0
        timer = 1
        blocks = 0
        while path:
            v = path[-1]
            low_v = low[v]
            for i in range(resume[v], offsets[v + 1]):
                u = neighbors[i]
                seen = tin[u]
                if seen < 0:
                    resume[v] = i + 1
                    low[v] = low_v
                    parent_dart[u] = offsets[u] + reverse_ports[i]
                    tin[u] = low[u] = timer
                    timer += 1
                    path.append(u)
                    open_nodes.append(u)
                    break
                # a visited neighbour: only an ancestor can lower the
                # lowlink, and counting the parent edge too leaves the
                # ``low_v >= tin[p]`` test below unchanged
                if seen < low_v:
                    low_v = seen
            else:
                path.pop()
                tout[v] = timer
                if path:
                    p = path[-1]
                    if low_v >= tin[p]:
                        # p cuts v's subtree off: v's parent edge and those
                        # of the nodes opened after v form one block
                        while True:
                            x = open_nodes.pop()
                            up[x] = blocks
                            if x == v:
                                break
                        blocks += 1
                    elif low_v < low[p]:
                        low[p] = low_v
        # a dart's edge is the parent edge of its later-discovered end, or a
        # back edge, which lies in that end's parent-edge block
        block = [0] * len(neighbors)
        for v in range(n):
            tin_v = tin[v]
            up_v = up[v]
            for i in range(offsets[v], offsets[v + 1]):
                u = neighbors[i]
                block[i] = up[u] if tin[u] > tin_v else up_v
        self.block = array(INT_TYPECODE, block)
        self._offsets = offsets
        self._neighbors = neighbors
        self._parent_dart = array(INT_TYPECODE, parent_dart)
        self._tin = array(INT_TYPECODE, tin)
        self._tout = array(INT_TYPECODE, tout)

    def block_toward(self, v: int, target: int) -> int:
        """The block of the darts at ``v`` that start a simple path to ``target``.

        ``-1`` when ``v == target``, which no dart starts a simple path to.
        """
        tin = self._tin
        tout = self._tout
        tin_v = tin[v]
        at = tin[target]
        if not tin_v <= at < tout[v]:
            return self.block[self._parent_dart[v]]
        neighbors = self._neighbors
        for i in range(self._offsets[v], self._offsets[v + 1]):
            u = neighbors[i]
            if tin_v < tin[u] <= at < tout[u]:
                return self.block[i]
        return -1

    def articulation_points(self) -> Set[int]:
        """The cut vertices: the nodes whose darts lie in two or more blocks."""
        offsets = self._offsets
        block = self.block
        return {
            v
            for v in range(len(offsets) - 1)
            if len(set(block[offsets[v] : offsets[v + 1]])) > 1
        }

    def bridges(self) -> Set[Tuple[int, int]]:
        """The bridges as ``(v, u)`` pairs with ``v < u``: the blocks of one edge."""
        offsets = self._offsets
        neighbors = self._neighbors
        block = self.block
        darts = Counter(block)
        return {
            (v, neighbors[i])
            for v in range(len(offsets) - 1)
            for i in range(offsets[v], offsets[v + 1])
            if v < neighbors[i] and darts[block[i]] == 2
        }

    def nbytes(self) -> int:
        """Bytes of the labelling's own arrays (the CSR arrays it reads are the view's)."""
        return sum(
            len(arr) * arr.itemsize
            for arr in (self.block, self._parent_dart, self._tin, self._tout)
        )
