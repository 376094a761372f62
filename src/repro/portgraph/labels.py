"""The fingerprint's label chain: one 64-bit integer per view class per depth.

:meth:`~repro.portgraph.graph.PortLabeledGraph.fingerprint` names every
depth-``d`` view class (the paper's ``B^d(v)``) by an integer label computed
from the class's port-ordered refinement signature, all mod 2^64:

* ``label_0(v) = mix(deg v + C)``;
* ``label_d(v) = mix(K * label_{d-1}(v)
  + sum over ports p of mix(label_{d-1}(u_p) XOR salt(p, q_p)))``,

where ``u_p`` is the neighbour behind port ``p`` of ``v`` and ``q_p`` the
port back.  ``mix`` is the splitmix64 finaliser.  ``salt`` mixes the outgoing
*and* the reverse port, so the sum, order-free by itself, still tells two
port orders apart.  Nodes of one depth-``d`` class share their signature, so
by induction on ``d`` they share ``label_d``: per node and per class the
chain gives the same values.

Two implementations, the same split as the refinement engine's two pass
kinds:

* with numpy importable, per node, one depth at a time over whole arrays
  (gather through ``neighbors``, mix, ``add.reduceat`` over ``offsets``),
  whatever passes refined the graph -- a delta replay runs none of either
  kind, and the chain must not care;
* without numpy, per class, on first-appearance representatives.

Only :func:`class_label_pairs` is public.  A 64-bit collision makes two
graphs share a fingerprint, which refinement-indistinguishable graphs do
anyway; the store resolves a shared fingerprint by exact graph equality.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from ..kernel.backend import numpy_or_none
from ..kernel.csr import INT_TYPECODE

__all__ = ["class_label_pairs"]

_MASK = (1 << 64) - 1
#: splitmix64 finaliser multipliers (shifts 30, 27, 31).
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
#: ``C``: added to the degree before the depth-0 mix.
_DEGREE_SEED = 0x9E3779B97F4A7C15
#: ``K``: weight of a node's own previous label (odd, so invertible).
_SELF_WEIGHT = 0xD1B54A32D192ED03
#: XORed into the packed ``(port, reverse port)`` pair before its mix.
_PORT_SEED = 0xDB4F0B9175AE2165


def class_label_pairs(engine, final_depth: int) -> Tuple[Tuple[int, int], ...]:
    """The sorted ``(label_final, class size)`` pairs of the classes at ``final_depth``.

    ``engine`` is the graph's refinement engine, materialised through
    ``final_depth``.  The result holds plain Python ints and is identical
    on both implementations.
    """
    numpy = numpy_or_none()
    if numpy is not None:
        return _pairs_numpy(numpy, engine, final_depth)
    return _pairs_python(engine, final_depth)


# --------------------------------------------------------------------------- #
# python: per class, on representatives
# --------------------------------------------------------------------------- #
def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def _representatives(colors, count: int) -> List[int]:
    """The first member of each class ``0..count-1``, read off canonical colours.

    Canonical colours are numbered by first appearance, so class ``c``'s
    first member is the first ``c`` after class ``c - 1``'s: one C-level
    scan of the table in total (on a list: ``array.index`` takes a start
    only from Python 3.10).
    """
    table = colors.tolist()
    reps: List[int] = []
    v = -1
    for color in range(count):
        v = table.index(color, v + 1)
        reps.append(v)
    return reps


def _pairs_python(engine, final_depth: int) -> Tuple[Tuple[int, int], ...]:
    csr = engine.csr
    offsets = csr.offsets
    neighbors = csr.neighbors
    colors = engine.colors_at(0)
    labels = [
        _mix((offsets[v + 1] - offsets[v] + _DEGREE_SEED) & _MASK)
        for v in _representatives(colors, engine.num_classes_at(0))
    ]
    reverse_ports = csr.reverse_ports
    salts = [
        _mix(((i - offsets[v]) << 32 | reverse_ports[i]) ^ _PORT_SEED)
        for v in range(csr.num_nodes)
        for i in range(offsets[v], offsets[v + 1])
    ]
    for depth in range(1, final_depth + 1):
        previous = colors
        colors = engine.colors_at(depth)
        next_labels = []
        for v in _representatives(colors, engine.num_classes_at(depth)):
            total = _SELF_WEIGHT * labels[previous[v]]
            for i in range(offsets[v], offsets[v + 1]):
                total += _mix(labels[previous[neighbors[i]]] ^ salts[i])
            next_labels.append(_mix(total & _MASK))
        labels = next_labels
    sizes = Counter(colors)
    return tuple(sorted((label, sizes[color]) for color, label in enumerate(labels)))


# --------------------------------------------------------------------------- #
# numpy: per node, whole arrays per depth
# --------------------------------------------------------------------------- #
def _mix_array(numpy, z):
    """splitmix64 finaliser over a ``uint64`` array, in place (returns ``z``).

    Every operand is an explicit ``numpy.uint64``: mixing Python ints into
    ``uint64`` arithmetic promotes differently on numpy 1.x and 2.x.
    """
    u64 = numpy.uint64
    z ^= z >> u64(30)
    z *= u64(_MIX_1)
    z ^= z >> u64(27)
    z *= u64(_MIX_2)
    z ^= z >> u64(31)
    return z


def _pairs_numpy(numpy, engine, final_depth: int) -> Tuple[Tuple[int, int], ...]:
    u64 = numpy.uint64
    dtype = numpy.dtype(INT_TYPECODE)
    csr = engine.csr
    offsets = numpy.frombuffer(csr.offsets, dtype=dtype)
    degrees = offsets[1:] - offsets[:-1]
    labels = _mix_array(numpy, degrees.astype(u64) + u64(_DEGREE_SEED))
    darts = len(csr.neighbors)
    if darts:
        # a graph without darts (n = 1) has no neighbour term: reduceat
        # would fail on the empty dart array
        neighbors = numpy.frombuffer(csr.neighbors, dtype=dtype)
        starts = offsets[:-1]
        ports = numpy.arange(darts, dtype=dtype) - numpy.repeat(starts, degrees)
        reverse_ports = numpy.frombuffer(csr.reverse_ports, dtype=dtype)
        salts = _mix_array(
            numpy, ((ports.astype(u64) << u64(32)) | reverse_ports.astype(u64)) ^ u64(_PORT_SEED)
        )
    weight = u64(_SELF_WEIGHT)
    for _depth in range(final_depth):
        total = labels * weight
        if darts:
            total += numpy.add.reduceat(_mix_array(numpy, labels[neighbors] ^ salts), starts)
        labels = _mix_array(numpy, total)
    colors = numpy.frombuffer(engine.colors_at(final_depth), dtype=dtype)
    # first members: where the running maximum of the canonical colours grows
    running = numpy.maximum.accumulate(colors)
    first = numpy.ones(colors.shape[0], dtype=bool)
    first[1:] = running[1:] > running[:-1]
    class_labels = labels[first]
    sizes = numpy.bincount(colors)
    order = numpy.lexsort((sizes, class_labels))
    return tuple(zip(class_labels[order].tolist(), sizes[order].tolist()))
