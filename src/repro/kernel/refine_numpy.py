"""Vectorised (numpy) partition refinement on CSR arrays.

The numpy twin of :class:`repro.kernel.refine.CSRPartitionRefinement`: the
same lazy per-depth view-equivalence partitions of one CSR graph, computed
as dense array operations instead of per-node Python loops.  One refinement
pass is one *full-width signature grouping*:

* nodes are bucketed by degree once, up front (refinement classes never
  cross degrees, so within a bucket every signature is a fixed-width row);
* the depth-``h`` signature of node ``v`` -- its depth-``h-1`` colour
  followed by the port-ordered ``(incoming port, neighbour's colour)``
  pairs -- becomes one row of a ``(nodes, 2·degree + 1)`` key matrix, built
  by slice assignment from precomputed per-bucket dart matrices;
* rows are grouped exactly (no hashing) with a lexicographic sort and a
  vectorised run-boundary scan, and the pass closes with one global
  ``numpy.unique`` that renumbers the class ids compactly.

Nodes already in singleton classes are excluded from the key matrices
(singletons can never split -- the same skip the python engine performs),
so a mostly-discrete graph pays only for its residual symmetric core.

Where the python engine is *incremental* (only the neighbourhood of the
previous pass's splits is re-signatured -- the right trade for warm,
shallow, or slowly-churning workloads), this engine is *batched*: every
pass costs O((n + m) log n) in C-speed primitives regardless of churn,
which wins by a wide margin on the cold bounded-depth sweeps the paper's
exponential families generate (the 132k-node J_{µ,k} member, the E14
substrate benchmarks).  The kernel speed floor in
``tests/test_speed_floors.py`` enforces the speedup; the three-way
equivalence matrix enforces that nothing else differs.

Everything observable is **byte-identical** to the python engine:
:meth:`~NumpyPartitionRefinement.colors_at` returns the same canonical
(first-appearance renumbered) colour tables as ``array`` instances of the
same typecode, ``class_counts``/``stable_depth``/``passes`` follow the same
trajectory (one pass per materialised depth), and inverse indexes contain
plain Python ints.  Partitions are what both engines compute; canonical
renumbering is a pure function of the partition; hence equality is
structural, not coincidental.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from .backend import numpy_or_none
from .csr import INT_TYPECODE, CSRGraph
from .refine import RefinementQueries

__all__ = ["NumpyPartitionRefinement"]


def _np():
    numpy = numpy_or_none()
    if numpy is None:  # pragma: no cover - constructors are backend-gated
        raise RuntimeError("numpy backend requested but numpy is not installed")
    return numpy


def _group_words(numpy, words):
    """Exact row grouping of packed key words: ``(count, per-row group ids)``.

    Each row's signature is spread across the same positions of the arrays
    in ``words``; rows are grouped by full equality via one lexicographic
    sort and a boundary scan -- no hashing, so no collisions.  Group ids are
    dense, ordered by the rows' lexicographic rank (any deterministic order
    works: the ids are renumbered compactly at the end of the pass and
    canonicalised by first appearance when queried).
    """
    rows = words[0].shape[0]
    dtype = words[0].dtype
    if rows == 1:
        return 1, numpy.zeros(1, dtype=dtype)
    if len(words) == 1:
        _distinct, ids = numpy.unique(words[0], return_inverse=True)
        return int(_distinct.shape[0]), ids
    order = numpy.lexsort(words)
    differs = numpy.zeros(rows - 1, dtype=bool)
    for word in words:
        ordered = word[order]
        differs |= ordered[1:] != ordered[:-1]
    ids_sorted = numpy.empty(rows, dtype=dtype)
    ids_sorted[0] = 0
    numpy.cumsum(differs, out=ids_sorted[1:])
    ids = numpy.empty(rows, dtype=dtype)
    ids[order] = ids_sorted
    return int(ids_sorted[-1]) + 1, ids


class NumpyPartitionRefinement(RefinementQueries):
    """Lazy per-depth view-equivalence partitions, computed with numpy.

    Drop-in for :class:`repro.kernel.refine.CSRPartitionRefinement`: same
    constructor shape, same public surface, byte-identical answers.
    """

    __slots__ = (
        "_csr",
        "_numpy",
        "_dtype",
        "_offsets",
        "_neighbors",
        "_reverse_ports",
        "_raw",
        "_num_classes",
        "_buckets",
        "_rp_bits",
        "_stable_depth",
        "_passes",
        "_canonical_np",
        "_canonical",
        "_members",
        "_unique",
    )

    def __init__(self, csr: CSRGraph) -> None:
        numpy = _np()
        self._csr = csr
        self._numpy = numpy
        self._dtype = numpy.dtype(INT_TYPECODE)
        # zero-copy views of the kernel's array-module CSR arrays
        self._offsets = numpy.frombuffer(csr.offsets, dtype=self._dtype)
        self._neighbors = numpy.frombuffer(csr.neighbors, dtype=self._dtype)
        self._reverse_ports = numpy.frombuffer(csr.reverse_ports, dtype=self._dtype)
        n = csr.num_nodes
        degrees = self._offsets[1:] - self._offsets[:-1]
        # depth 0: classes are degrees (compact internal ids; canonical
        # first-appearance renumbering happens lazily in colors_at)
        distinct, initial = numpy.unique(degrees, return_inverse=True)
        self._raw: List = [initial.astype(self._dtype, copy=False)]
        self._num_classes: List[int] = [int(distinct.shape[0])]
        #: per-degree bucket matrices, built lazily on the first pass:
        #: (nodes of the bucket, their neighbour matrix, their
        #: reverse-port matrix), each matrix of shape (|bucket|, degree).
        self._buckets: Optional[List[Tuple]] = None
        #: bits needed for any reverse-port value (for signature packing)
        self._rp_bits = (
            max(1, int(self._reverse_ports.max()).bit_length())
            if self._reverse_ports.shape[0]
            else 1
        )
        self._stable_depth: Optional[int] = None
        self._passes = 0
        self._canonical_np: Dict[int, object] = {}
        self._canonical: Dict[int, array] = {}
        self._members: Dict[int, List[List[int]]] = {}
        self._unique: Dict[int, List[int]] = {}
        if n == 1 or self._num_classes[0] == n:
            self._stable_depth = 0

    @classmethod
    def from_stored(
        cls,
        csr: CSRGraph,
        tables: "List[List[int]]",
        stable_depth: int,
    ) -> "NumpyPartitionRefinement":
        """An engine pre-loaded with canonical tables from an earlier process.

        Same contract as the python engine's ``from_stored``: the loaded
        engine answers every depth query from the installed tables with
        :attr:`passes` frozen at ``0`` -- the store-warm zero-refinement
        certificate holds identically under both backends.
        """
        numpy = _np()
        n = csr.num_nodes
        if stable_depth < 0 or len(tables) < stable_depth + 1:
            raise ValueError("tables must cover depths 0..stable_depth")
        engine = cls(csr)
        raw: List = []
        num_classes: List[int] = []
        for table in tables:
            if len(table) != n:
                raise ValueError("each colour table must have one entry per node")
            arr = numpy.asarray(table, dtype=engine._dtype)
            raw.append(arr)
            num_classes.append(int(arr.max()) + 1 if n else 0)
        engine._raw = raw
        engine._num_classes = num_classes
        engine._stable_depth = stable_depth
        engine._passes = 0
        engine._canonical_np = {}
        engine._canonical = {}
        engine._members = {}
        engine._unique = {}
        return engine

    # ------------------------------------------------------------------ #
    def _ensure_buckets(self) -> List[Tuple]:
        """Per-degree (nodes, neighbour matrix, reverse-port matrix) triples.

        The matrices depend only on the CSR arrays, so they are built once
        and reused by every pass; together they are an O(n + m) footprint.
        """
        if self._buckets is None:
            numpy = self._numpy
            offsets = self._offsets
            degrees = offsets[1:] - offsets[:-1]
            buckets: List[Tuple] = []
            for d in numpy.unique(degrees):
                d = int(d)
                if d == 0:
                    continue  # a degree-0 node only exists when n == 1 (stable at depth 0)
                nodes = numpy.flatnonzero(degrees == d)
                darts = offsets[nodes][:, None] + numpy.arange(d, dtype=self._dtype)
                buckets.append((nodes, self._neighbors[darts], self._reverse_ports[darts]))
            self._buckets = buckets
        return self._buckets

    def _refine_once(self) -> None:
        numpy = self._numpy
        previous = self._raw[-1]
        previous_count = self._num_classes[-1]
        self._passes += 1

        sizes = numpy.bincount(previous, minlength=previous_count)
        active = sizes[previous] > 1
        # fresh ids start past every previous id, so an unsplit singleton
        # class can never collide with a regrouped one
        scratch = previous.copy()
        next_fresh = previous_count
        # bit widths for signature packing: previous ids are compact
        # (< previous_count), reverse ports bounded by the max degree
        colour_bits = max(1, int(previous_count - 1).bit_length())
        rp_bits = self._rp_bits
        for nodes, nbr_matrix, rp_matrix in self._ensure_buckets():
            mask = active[nodes]
            if not mask.any():
                continue
            sel_nodes = nodes[mask]
            nbr_sel = nbr_matrix[mask]
            rp_sel = rp_matrix[mask]
            # the signature row of node v is the fixed-width column sequence
            #   prev[v], rp[v,0], prev[nbr[v,0]], ..., rp[v,d-1], prev[nbr[v,d-1]]
            # packed greedily into as few non-negative 64-bit words as fit
            # (usually one or two), so the exact grouping sorts narrow keys
            words = []
            current = previous[sel_nodes]  # fancy indexing: already a fresh array
            used = colour_bits
            for port in range(nbr_sel.shape[1]):
                for column, bits in (
                    (rp_sel[:, port], rp_bits),
                    (previous[nbr_sel[:, port]], colour_bits),
                ):
                    if used + bits > 63:
                        words.append(current)
                        current = column.astype(self._dtype, copy=True)
                        used = bits
                    else:
                        current = (current << bits) | column
                        used += bits
            words.append(current)
            group_count, group_ids = _group_words(numpy, words)
            scratch[sel_nodes] = next_fresh + group_ids
            next_fresh += group_count
        # compact renumbering keeps the id space O(n) across any number of
        # passes; which compact ids the classes get is irrelevant (colors_at
        # canonicalises by first appearance).  O(n) presence scan -- no sort.
        present = numpy.zeros(next_fresh, dtype=bool)
        present[scratch] = True
        remap = numpy.cumsum(present)
        count = int(remap[-1])
        new_colors = (remap[scratch] - 1).astype(self._dtype, copy=False)
        self._raw.append(new_colors)
        self._num_classes.append(count)
        if self._stable_depth is None and count == previous_count:
            # a pass with no splits: the fixpoint was one depth earlier
            self._stable_depth = len(self._raw) - 2

    # ------------------------------------------------------------------ #
    def ensure_depth(self, depth: int) -> int:
        """Materialise partitions up to ``depth`` (or the fixpoint).

        Returns the *effective* depth at which to read: ``depth`` itself, or
        the stable depth when that is smaller.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        while len(self._raw) <= depth and self._stable_depth is None:
            self._refine_once()
        if self._stable_depth is not None and depth > self._stable_depth:
            return self._stable_depth
        return depth

    def ensure_stable(self) -> int:
        while self._stable_depth is None:
            self._refine_once()
        return self._stable_depth

    def apply_delta(self, csr: CSRGraph, node_map, touched):
        """Delta replay — the certified python fallback.

        The dirty-ball replay is inherently sparse (per depth it signatures
        only the dirty ball plus one O(n) inheritance sweep), which the
        batched full-width passes of this backend cannot exploit, so the
        numpy engine delegates to
        :meth:`repro.kernel.refine.CSRPartitionRefinement.apply_delta`,
        reading this engine's raw tables as the base.  The returned engine
        is the python one; its tables are byte-identical to a cold full
        refinement on either backend (certified by the delta equivalence
        suite).
        """
        from .refine import CSRPartitionRefinement

        return CSRPartitionRefinement.apply_delta(self, csr, node_map, touched)

    # ------------------------------------------------------------------ #
    # O(1) / O(output) queries (depth must already be effective)
    # ------------------------------------------------------------------ #
    def _canonical_at(self, effective: int):
        """Canonical colours as a numpy array (first appearance in node order)."""
        cached = self._canonical_np.get(effective)
        if cached is None:
            numpy = self._numpy
            raw = self._raw[effective]
            _distinct, first_index, inverse = numpy.unique(
                raw, return_index=True, return_inverse=True
            )
            # class rank = order of the class's first appearance in node order
            order = numpy.argsort(first_index)
            rank = numpy.empty(order.shape[0], dtype=self._dtype)
            rank[order] = numpy.arange(order.shape[0], dtype=self._dtype)
            cached = rank[inverse]
            self._canonical_np[effective] = cached
        return cached

    def colors_at(self, effective: int) -> array:
        """Canonical colours at a materialised depth (0..c-1 by first appearance).

        Byte-identical to the python engine's: first-appearance renumbering
        is a pure function of the partition, and the result is returned as
        the same ``array(INT_TYPECODE)`` type the rest of the kernel uses.
        """
        cached = self._canonical.get(effective)
        if cached is None:
            canonical = self._canonical_at(effective)
            cached = array(INT_TYPECODE)
            cached.frombytes(canonical.astype(self._dtype, copy=False).tobytes())
            self._canonical[effective] = cached
        return cached

    def members_at(self, effective: int) -> List[List[int]]:
        """Canonical class → members (ascending node order), built lazily."""
        cached = self._members.get(effective)
        if cached is None:
            numpy = self._numpy
            colors = self._canonical_at(effective)
            count = self._num_classes[effective]
            # stable argsort groups nodes by class while preserving the
            # ascending node order inside each class
            order = numpy.argsort(colors, kind="stable")
            bounds = numpy.cumsum(numpy.bincount(colors, minlength=count))[:-1]
            cached = [group.tolist() for group in numpy.split(order, bounds)]
            self._members[effective] = cached
        return cached

    # ------------------------------------------------------------------ #
    def estimated_bytes(self) -> int:
        """Rough retained footprint of the engine's per-depth state (bytes).

        Counts the raw/canonical colour arrays and bucket matrices exactly
        and the inverse indexes at Python-list rates, mirroring the python
        engine's accounting for the runner cache's eviction bookkeeping.
        """
        total = 0
        for arr in self._raw:
            total += arr.nbytes
        for arr in self._canonical_np.values():
            total += arr.nbytes
        for arr in self._canonical.values():
            total += len(arr) * arr.itemsize
        if self._buckets is not None:
            for nodes, nbr_matrix, rp_matrix in self._buckets:
                total += nodes.nbytes + nbr_matrix.nbytes + rp_matrix.nbytes
        for groups in self._members.values():
            total += sum(56 + 8 * len(group) for group in groups)
        for group in self._unique.values():
            total += 56 + 8 * len(group)
        return total
