"""View-equivalence partition refinement on CSR arrays: one engine, two pass kinds.

The view-equivalence partitions of a port-labeled graph (depth-``h`` classes
= equal truncated views ``B^h``) are computed by iterated signature
refinement: the depth-``h`` class of ``v`` is determined by its depth-(h-1)
class together with the port-ordered ``(incoming port, neighbour's class)``
pairs.  :class:`CSRPartitionRefinement` computes one depth per *pass* and
runs each pass as one of two kinds:

* a **vector pass** re-signatures every node of every non-singleton class in
  whole-array numpy operations.  Nodes are bucketed by degree once (classes
  never cross degrees, so within a bucket a signature is a fixed-width row);
  each row is packed into as few 63-bit words as fit, and rows are grouped
  exactly by a lexicographic sort and a boundary scan -- no hashing.  A
  vector pass costs O((n + m) log n) in C-speed primitives, however few
  nodes change class.
* a **worklist pass** re-signatures only the neighbourhood of the previous
  pass's splits, in the style of Hopcroft / Paige–Tarjan.  When a class
  splits, one fragment (the largest -- the deterministic "retained"
  fragment) keeps the id and only the members of the *other* fragments
  enter the worklist.  A pass then re-signatures exactly the classes
  containing a worklist node or one of its CSR neighbours, skipping
  singletons (they can never split):

  * a class none of whose members or members' neighbours changed class
    cannot split -- restricted to that neighbourhood, the partition is
    literally the same equivalence relation as one depth earlier;
  * a neighbour that stayed in the *retained* fragment of its old class
    kept its class id, so signatures referencing it are unchanged -- which
    is why retained-fragment members may be excluded from the worklist.

  On slowly stabilising graphs (long quasi-symmetric cycles, paths, beacon
  tails) a pass touches only the O(Δ)-sized frontier where classes are
  still splitting, turning the O((n + m) · n) worst case into
  O(n + m + total churn).

Both kinds number classes alike: ids are ``0..c-1``, a class's largest
fragment keeps its id and the other fragments take fresh ids above every
previous id.  The nodes whose id a pass changed are its *churn*, which is
exactly the worklist the next worklist pass takes, so the engine can switch
kinds between any two passes.  It picks vector passes while the churn is a
large share of the nodes still in non-singleton classes and worklist passes
once it is small (:data:`VECTOR_MIN_NODES`, :data:`CHURN_RATIO`); without
numpy every pass is a worklist pass.  :func:`repro.kernel.use_backend`
forces one kind, for tests and reference answers.

Partitions are stored as a churn log.  The engine keeps one working raw id
table (``array`` of :data:`~repro.kernel.csr.INT_TYPECODE`; a vector pass
reads it and the CSR arrays through zero-copy numpy views), which a pass
updates in place at its end, so signatures read depth h-1 throughout the
pass.  Each depth is then stored as the ``(node, new id)`` pairs of its churn,
in flat arrays with per-depth offsets, or as a full table when the pairs are
at least half the nodes or when the pairs logged since the last full table
would reach n.  Memory is therefore O(n + total churn) -- at most n·log₂ n,
since a node changes id only when it leaves a largest fragment -- where one
table per depth would cost Θ(n²) on a path or a beacon tail, whose fixpoints
lie ~n/2 deep.  Any depth materialises in O(n) from the nearest full table at
or below it.

Raw tables are canonicalised lazily -- renumbered 0..c-1 by first appearance
in node order -- only for depths actually queried.  Canonical renumbering is
a pure function of the partition, so the public colour lists are
byte-identical whichever kinds ran, and byte-identical to the classic
full-sweep implementation.  The canonical colours and the inverse indexes
built from them (``members_at``: class → node list, ``unique_at``) are kept
for the :data:`VIEW_CACHE_DEPTHS` depths queried last, so class/twin/
uniqueness queries are O(1) / O(output) after a one-off O(n) build per
queried depth.

One engine may be driven from several threads at once: the service's pool
threads share a cached graph's engine.  A re-entrant lock per engine guards
its partition state.  It is held for one pass or one read at a time, never
across a whole :meth:`~CSRPartitionRefinement.ensure_stable`, so a reader
such as :meth:`~CSRPartitionRefinement.estimated_bytes` waits at most one
pass.  The colour tables and inverse indexes a read returns are never
written after they are built, so callers use them outside the lock.  An
engine's lock is the innermost lock: nothing holding it takes another.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter
from itertools import compress
from operator import ne
from typing import Dict, List, Optional, Tuple

from .backend import numpy_or_none, selected_backend
from .csr import INT_TYPECODE, CSRGraph

__all__ = [
    "CHURN_RATIO",
    "CSRPartitionRefinement",
    "VECTOR_MIN_NODES",
    "VIEW_CACHE_DEPTHS",
    "refinement_delta",
]

#: Fewest nodes for which the engine starts on a vector pass, and fewest
#: worklist nodes that send a worklist pass back to vector passes.  Below it
#: numpy's per-call overhead loses.  Cold refinement, worklist passes
#: against vector passes (2-core VM, Python 3.11, numpy 2.4): the 24-node
#: G_{Δ=4,k=1}[1] 0.33 against 1.00 ms; random graphs break even near 200
#: nodes (100 nodes: 0.54 against 0.74 ms); the 16×16 grid 2.2 against
#: 1.5 ms.
VECTOR_MIN_NODES = 256

#: Vector passes go on while churn × CHURN_RATIO ≥ the active nodes (those
#: in non-singleton classes, all of which a vector pass re-signatures); a
#: worklist pass goes back to vector passes when its worklist holds at least
#: n / CHURN_RATIO nodes.  A worklist pass costs ~6 µs per churned node on
#: grids and a vector pass ~0.1 µs per active node.  Set on two graphs
#: (same machine): the 72×72 grid moves 284 of up to 5 148 active nodes
#: per pass and refines in 18.6 ms on vector passes only (62.4 ms on
#: worklist passes, 59.0 ms with a ratio of 8, which hands it over after
#: one pass); the beacon-tail (blob 1 000, tail 5 000) moves 25 and then 2
#: of ~5 000 active nodes per pass from its third pass to its 2 500th, and
#: hands over there: 88.5 ms, against 98.5 ms on worklist passes only and
#: 938 ms on vector passes only.
CHURN_RATIO = 32

#: Depths whose canonical colours and inverse indexes an engine keeps, least
#: recently queried out first.  Serving a cold mixed-corpus sweep (123 items,
#: in one process), the engines build 269 canonical tables when they keep 4
#: depths, 274 when they keep 2, and 265 when they keep every queried depth.
VIEW_CACHE_DEPTHS = 4


def _view(numpy, values: array):
    """A zero-copy numpy view of an ``array``, typed by its own typecode."""
    return numpy.frombuffer(values, dtype=numpy.dtype(values.typecode))


def first_appearance_ranks(numpy, raw, dtype):
    """Canonical colours of one raw colour table, as a numpy array of ``dtype``.

    Renumbers the classes ``0..c-1`` in the order of their first appearance
    in node order -- a pure function of the partition.
    """
    _distinct, first_index, inverse = numpy.unique(raw, return_index=True, return_inverse=True)
    # class rank = order of the class's first appearance in node order
    order = numpy.argsort(first_index)
    rank = numpy.empty(order.shape[0], dtype=dtype)
    rank[order] = numpy.arange(order.shape[0], dtype=dtype)
    return rank[inverse]


def pack_columns(numpy, columns) -> list:
    """Pack ``(column, bits)`` pairs, in order, into as few int64 words as fit.

    Each word holds consecutive columns in at most 63 bits, so it stays
    non-negative; every value of a column must lie in ``0..2**bits - 1``.
    The words are int64 whatever the columns' dtype: where C ``long`` is 32
    bits, shifting in the table dtype would overflow and merge distinct
    signatures.
    """
    words = []
    word, used = None, 0
    for column, bits in columns:
        if word is not None and used + bits <= 63:
            word = (word << bits) | column
            used += bits
        else:
            if word is not None:
                words.append(word)
            word, used = column.astype(numpy.int64), bits
    words.append(word)
    return words


def _group_words(numpy, words):
    """Exact row grouping of packed key words: ``(count, per-row group ids)``.

    Each row's signature is spread across the same positions of the arrays
    in ``words``; rows are grouped by full equality via one lexicographic
    sort and a boundary scan -- no hashing, so no collisions.  Group ids are
    dense, ordered by the rows' lexicographic rank.
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


def _class_lists(table: array, count: int) -> List[List[int]]:
    """Class id → its nodes in ascending order, for a table of ids ``0..count-1``."""
    numpy = numpy_or_none()
    if numpy is None:
        groups: List[List[int]] = [[] for _ in range(count)]
        for v, c in enumerate(table):
            groups[c].append(v)
        return groups
    ids = _view(numpy, table)
    # a stable argsort groups nodes by class in ascending node order; one
    # tolist, then plain slices at the class ends
    order = numpy.argsort(ids, kind="stable").tolist()
    ends = numpy.cumsum(numpy.bincount(ids, minlength=count)).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


def _singletons(table: array, count: int) -> List[int]:
    """Nodes alone in their class (ascending), for a table of ids ``0..count-1``."""
    numpy = numpy_or_none()
    if numpy is None:
        sizes = [0] * count
        for c in table:
            sizes[c] += 1
        return [v for v, c in enumerate(table) if sizes[c] == 1]
    ids = _view(numpy, table)
    return numpy.flatnonzero(numpy.bincount(ids, minlength=count)[ids] == 1).tolist()


def _write(table: array, nodes: array, ids: array) -> None:
    """``table[nodes[i]] = ids[i]`` in order, so a node's last pair wins."""
    for v, c in zip(nodes, ids):
        table[v] = c


def _canonical(raw: array) -> array:
    """Canonical colours of a raw table: 0..c-1 by first appearance.

    By :func:`first_appearance_ranks` when numpy imports, else by one dict
    pass over the nodes.
    """
    numpy = numpy_or_none()
    if numpy is not None:
        dtype = numpy.dtype(INT_TYPECODE)
        return array(INT_TYPECODE, first_appearance_ranks(numpy, _view(numpy, raw), dtype).tobytes())
    mapping: Dict[int, int] = {}
    mapping_get = mapping.get
    colors = array(INT_TYPECODE, raw)
    for v, r in enumerate(raw):
        color = mapping_get(r)
        if color is None:
            color = len(mapping)
            mapping[r] = color
        colors[v] = color
    return colors


class CSRPartitionRefinement:
    """Lazy per-depth view-equivalence partitions of one CSR graph.

    The partitions (and the canonical colour numberings exposed by
    :meth:`colors_at`) are exactly those of the classic full-sweep
    refinement; each pass is a vector or a worklist pass, picked from the
    churn of the pass before (see the module docstring).
    """

    __slots__ = (
        "_csr",
        "_table",
        "_full",
        "_log_nodes",
        "_log_ids",
        "_log_ends",
        "_since_full",
        "_num_classes",
        "_stable_depth",
        "_passes",
        "_backend",
        "_buckets",
        "_churned",
        "_active",
        "_current_members",
        "_class_size",
        "_next_id",
        "_changed",
        "_touched",
        "_views",
        "_no_unique_below",
        "_lock",
    )

    def __init__(self, csr: CSRGraph) -> None:
        n = csr.num_nodes
        offsets = csr.offsets
        # depth 0: classes are degrees, numbered by first appearance
        degree_ids: Dict[int, int] = {}
        initial = array(
            INT_TYPECODE,
            [degree_ids.setdefault(offsets[v + 1] - offsets[v], len(degree_ids)) for v in range(n)],
        )
        self._csr = csr
        #: the raw colour table of the deepest computed depth (ids 0..c-1,
        #: stable across depths in each class's largest fragment); each pass
        #: writes its churn into it at the end of the pass.
        self._table = array(INT_TYPECODE, initial)
        #: every computed depth: full raw tables of some depths (depth 0
        #: always), and for each other depth d the (node, new id) pairs its
        #: pass changed, at ``log_nodes/log_ids[log_ends[d - 1]:log_ends[d]]``
        #: (an empty range at a full depth); see :meth:`_push`.
        self._full: Dict[int, array] = {0: initial}
        self._log_nodes = array(INT_TYPECODE)
        self._log_ids = array(INT_TYPECODE)
        self._log_ends = array(INT_TYPECODE, [0])
        self._since_full = 0
        #: class counts per depth
        self._num_classes = array(INT_TYPECODE, [len(degree_ids)])
        self._stable_depth: Optional[int] = 0 if n == 1 or len(degree_ids) == n else None
        self._passes = 0
        #: the pass kinds this engine may run, bound from
        #: :func:`repro.kernel.use_backend` at construction: "auto" picks per
        #: pass, "python" runs worklist passes only, "numpy" vector passes only.
        self._backend = "python" if numpy_or_none() is None else selected_backend()
        #: vector-pass state: the per-degree bucket matrices (built on the
        #: first vector pass), and the churned nodes and active-node count of
        #: the last pass when it was a vector pass.
        self._buckets: Optional[List[Tuple]] = None
        self._churned = None
        self._active = 0
        #: worklist-pass state, built by the first worklist pass after
        #: construction or after vector passes (:meth:`_start_worklist`) and
        #: dropped by a vector pass: live class id -> member list (which may
        #: hold *stale* entries: nodes split off to a fresh id since; a node
        #: v is a live member of d iff the working table says so), live
        #: class id -> exact live member count, the next fresh id, the
        #: worklist (members of non-retained fragments of the latest pass;
        #: ``None`` means "everything", before the first pass) and a
        #: per-node scratch mark, cleared after each pass.
        self._current_members: Optional[Dict[int, List[int]]] = None
        self._class_size: Optional[Dict[int, int]] = None
        self._next_id = 0
        self._changed: Optional[List[int]] = None
        self._touched: Optional[bytearray] = None
        #: canonical views of the depths queried last, least recent first:
        #: depth -> [colours, class -> members, unique nodes] (the last two
        #: built on demand).
        self._views: Dict[int, list] = {}
        #: no depth below this one has a node alone in its class (a
        #: singleton class stays one, so the scan for the first such depth
        #: resumes here)
        self._no_unique_below = 0
        #: guards everything above (see the module docstring)
        self._lock = threading.RLock()

    @property
    def csr(self) -> CSRGraph:
        return self._csr

    @property
    def passes(self) -> int:
        return self._passes

    @property
    def stable_depth(self) -> Optional[int]:
        return self._stable_depth

    @property
    def computed_depth(self) -> int:
        """Deepest depth whose partition has been materialised."""
        return len(self._num_classes) - 1

    @property
    def class_counts(self) -> Tuple[int, ...]:
        """Class counts of every materialised depth (0..computed_depth)."""
        return tuple(self._num_classes)

    # ------------------------------------------------------------------ #
    # storage: the working table, full tables and the churn log
    # ------------------------------------------------------------------ #
    def _push(self, nodes: array, ids: array, count: int) -> None:
        """Append the next depth: the working table's ``nodes`` take ``ids``.

        ``nodes`` are pairwise distinct.  The depth is logged as these pairs,
        or stored as a full table when they are at least half the nodes (as
        pairs they would cost more) or when the pairs logged since the last
        full table would reach n.  Each full table thus stands for at least
        n logged entries, and materialising a depth replays O(n) pairs.
        """
        table = self._table
        _write(table, nodes, ids)
        churn = len(nodes)
        if 2 * churn >= len(table) or self._since_full + churn >= len(table):
            self._full[len(self._num_classes)] = array(INT_TYPECODE, table)
            self._since_full = 0
        else:
            self._log_nodes.extend(nodes)
            self._log_ids.extend(ids)
            self._since_full += churn
        self._log_ends.append(len(self._log_nodes))
        self._num_classes.append(count)

    def _push_table(self, new: array, count: int) -> None:
        """Append the next depth, given as a whole raw table."""
        table = self._table
        numpy = numpy_or_none()
        if numpy is None:
            nodes = array(INT_TYPECODE, compress(range(len(new)), map(ne, new, table)))
            ids = array(INT_TYPECODE, map(new.__getitem__, nodes))
        else:
            values = _view(numpy, new)
            changed = numpy.flatnonzero(values != _view(numpy, table))
            nodes = array(INT_TYPECODE, changed.astype(values.dtype).tobytes())
            ids = array(INT_TYPECODE, values[changed].tobytes())
        self._push(nodes, ids, count)

    def _push_from(self, base: "CSRPartitionRefinement", first: int, last: int) -> None:
        """Append ``base``'s depths ``first..last`` as this engine's own.

        One copy of ``base``'s log between them, sharing its full tables
        (nothing writes a full table); past ``base``'s computed depth a
        depth changes nothing.  This engine must be at depth ``first - 1``,
        with ``base``'s raw table of that depth as its working table.  Reads
        ``base`` under its lock.
        """
        with base._lock:
            computed = base.computed_depth
            top = min(last, computed)
            if first <= top:
                ends = base._log_ends
                start, stop = ends[first - 1], ends[top]
                fulls = [depth for depth in base._full if first <= depth <= top]
                if fulls:
                    self._table[:] = base._full[max(fulls)]
                    written = ends[max(fulls)]
                    self._since_full = stop - written
                else:
                    written = start
                    self._since_full += stop - start
                _write(self._table, base._log_nodes[written:stop], base._log_ids[written:stop])
                shift = len(self._log_nodes) - start
                self._log_nodes.extend(base._log_nodes[start:stop])
                self._log_ids.extend(base._log_ids[start:stop])
                self._log_ends.extend([end + shift for end in ends[first : top + 1]])
                self._num_classes.extend(base._num_classes[first : top + 1])
                for depth in fulls:
                    self._full[depth] = base._full[depth]
            for _ in range(max(first, top + 1), last + 1):
                self._log_ends.append(len(self._log_nodes))
                self._num_classes.append(base._num_classes[computed])

    def _advance(self, table: array, sizes: Counter, depth: int) -> None:
        """Move ``table`` from this engine's raw table of ``depth - 1`` to
        ``depth``'s, and ``sizes`` (label -> nodes holding it) with it."""
        with self._lock:
            full = self._full.get(depth)
            if full is not None:
                table[:] = full
                sizes.clear()
                sizes.update(table)
            else:
                start, stop = self._log_ends[depth - 1], self._log_ends[depth]
                for v, c in zip(self._log_nodes[start:stop], self._log_ids[start:stop]):
                    sizes[table[v]] -= 1
                    sizes[c] += 1
                    table[v] = c

    def _raw_at(self, depth: int) -> array:
        """The raw colour table of a computed depth, materialised from the
        nearest full table at or below it and the pairs logged after that
        (O(n) of them, by the rule of :meth:`_push`)."""
        base = max(full for full in self._full if full <= depth)
        table = array(INT_TYPECODE, self._full[base])
        start, stop = self._log_ends[base], self._log_ends[depth]
        _write(table, self._log_nodes[start:stop], self._log_ids[start:stop])
        return table

    # ------------------------------------------------------------------ #
    def apply_delta(self, csr: CSRGraph, node_map, touched) -> "CSRPartitionRefinement":
        """Re-refine an edited graph by replaying only the dirtied classes.

        ``self`` is the (stable or stabilisable) engine of the *base* graph;
        ``csr`` encodes the mutated graph, ``node_map`` maps its handles back
        to base handles (``-1`` for fresh nodes) and ``touched`` lists the
        handles whose port tables the edit changed — exactly the fields of a
        :class:`repro.portgraph.delta.DeltaResult`.  Returns a **new** engine
        for the mutated graph; the base engine is not modified.

        Naively re-seeding this engine's own worklist would be unsound: one
        engine's partitions only ever *split* across depths, but an edit can
        make the mutated graph's partition at some depth **coarser** than the
        base's (classes merge).  Instead the replay rebuilds each depth's
        partition from two provably-exact sources:

        * a node is *dirty at depth h* iff its radius-``h`` ball contains a
          touched node (the dirty set grows one hop per depth).  A **clean**
          node's depth-``h`` truncated view is isomorphic to its base
          counterpart's, so clean nodes inherit the base partition verbatim:
          their label is the base raw colour at depth ``min(h, base stable)``
          pulled through ``node_map``.  The replay reads those colours from
          one rolling copy of the base table, advanced through the base's
          log at each depth;
        * **dirty** nodes are re-signatured against the depth-(h-1) labels —
          the true partition by induction — and either matched to a clean
          class via one representative signature probe per candidate class,
          or grouped among themselves under fresh ids.  Fresh ids, and
          the sentinels of delta-created nodes, lie above every label the
          base holds, so they never coincide with an inherited label --
          also when the base is itself a replay, whose tables hold the
          fresh ids of its own replay.

        After each depth a *conformance certificate* is attempted: the
        depth's partition equals the base partition pulled through
        ``node_map`` (plus one singleton class per delta-created node) iff
        every matched dirty node landed on its own base label and every
        fresh class corresponds member-for-member to one base class.  When
        the certificate holds, the depth's table is (re)labeled to the base
        labeling — for an identity ``node_map`` following a conforming depth,
        the base's logged change into this depth is copied — and the dirty
        ball collapses back to the touched set: only a changed port table
        can make the *next* depth's signature deviate from a conforming
        labeling.  Local edits therefore replay in O(|touched|) signatures
        per depth instead of O(ball), which is what the delta-vs-cold speed
        floor in ``tests/test_speed_floors.py`` measures.  The replayed
        engine stores its depths as a log too.

        Since first-appearance canonicalisation is a pure function of the
        partition, every ``colors_at`` table of the returned engine is
        byte-identical to a cold full refinement of the mutated graph; the
        certified equivalence matrix in the delta test suite pins this.
        Replayed passes count toward :attr:`passes` (one per depth): delta
        recompute is real refinement work.
        """
        engine = CSRPartitionRefinement(csr)
        if engine._stable_depth is not None:
            return engine  # single node or already-discrete depth 0
        # the base is read under its lock, one depth at a time
        base_stable = self.ensure_stable()
        base_counts = self.class_counts
        with self._lock:
            # the base's raw table at depth min(depth, base_stable), and the
            # size of each of its classes
            table = array(INT_TYPECODE, self._full[0])
            # labels the replay makes (fresh classes, then per-node sentinels)
            # start here, above every base label and every depth-0 (degree) id
            offset = max(
                engine._num_classes[0],
                1 + max(max(labels, default=-1) for labels in [self._log_ids, *self._full.values()]),
            )
        sizes = Counter(table)
        n = csr.num_nodes
        offsets = csr.offsets
        neighbors = csr.neighbors
        reverse_ports = csr.reverse_ports

        # identity transport: same handles, no joins/leaves — a conforming
        # depth after a conforming depth copies the base's logged change
        identity = n == self._csr.num_nodes and all(
            m == v for v, m in enumerate(node_map)
        )

        touched_list: List[int] = sorted(set(touched))
        dirty = bytearray(n)
        for v in touched_list:
            dirty[v] = 1
        dirty_list: List[int] = list(touched_list)
        # base nodes observed to sit in a singleton base class: refinement
        # only ever splits, so one size observation serves every later depth
        singleton_base = bytearray(self._csr.num_nodes)
        # the previous depth's labels: the replayed engine's working table,
        # which each depth's push advances once that depth is labeled
        prev = engine._table
        # prev equals the base table of the previous depth (the
        # identity-transport conforming case): base-space facts apply to it
        prev_is_base = False
        # the ball must widen only while some label deviated from the base
        # inheritance at the previous depth; after a conforming depth the
        # candidates collapse to the touched set alone
        grow = True
        depth = 0
        while True:
            depth += 1
            if grow:
                # grow the dirty ball one hop
                frontier: List[int] = []
                for v in dirty_list:
                    for i in range(offsets[v], offsets[v + 1]):
                        u = neighbors[i]
                        if not dirty[u]:
                            dirty[u] = 1
                            frontier.append(u)
                if frontier:
                    dirty_list = sorted(dirty_list + frontier)
            if depth <= base_stable:
                self._advance(table, sizes, depth)
            # previous-depth labels under which a dirty node could still
            # coincide with a clean class (a replay-made label never does;
            # a known-singleton base class has no clean members to probe)
            candidate_prev: set = set()
            for v in dirty_list:
                parent = prev[v]
                if parent < offset and not (prev_is_base and singleton_base[v]):
                    candidate_prev.add(parent)
            # one representative signature per *distinct child label* among
            # the clean members of each candidate class
            rep_signatures: Dict[tuple, int] = {}
            if len(candidate_prev) > 64:
                # wide candidate set: one bulk sweep of the previous table
                # beats thousands of per-class occurrence scans
                probed_pairs: set = set()
                for i in range(n):
                    parent = prev[i]
                    if parent not in candidate_prev or dirty[i]:
                        continue
                    label = table[node_map[i]]
                    if (parent, label) in probed_pairs:
                        continue
                    probed_pairs.add((parent, label))
                    rep_signatures[
                        (
                            parent,
                            tuple(
                                (reverse_ports[k], prev[neighbors[k]])
                                for k in range(offsets[i], offsets[i + 1])
                            ),
                        )
                    ] = label
            elif candidate_prev:
                # narrow candidate set: C-level occurrence scans per class
                # (on a list: array.index takes a start only from Python 3.10)
                scan = prev.tolist()
                for parent in candidate_prev:
                    probed: set = set()
                    i = -1
                    while True:
                        try:
                            i = scan.index(parent, i + 1)
                        except ValueError:
                            break
                        if dirty[i]:
                            continue
                        label = table[node_map[i]]
                        if label in probed:
                            continue
                        probed.add(label)
                        rep_signatures[
                            (
                                parent,
                                tuple(
                                    (reverse_ports[k], prev[neighbors[k]])
                                    for k in range(offsets[i], offsets[i + 1])
                                ),
                            )
                        ] = label
            fresh: Dict[tuple, int] = {}
            labels: Dict[int, int] = {}
            for v in dirty_list:
                signature = (
                    prev[v],
                    tuple(
                        (reverse_ports[i], prev[neighbors[i]])
                        for i in range(offsets[v], offsets[v + 1])
                    ),
                )
                label = rep_signatures.get(signature)
                if label is None:
                    label = fresh.get(signature)
                    if label is None:
                        label = offset + len(fresh)
                        fresh[signature] = label
                labels[v] = label

            # conformance certificate: does this partition equal the base's
            # (through node_map, plus a singleton per created node)?
            conforming = True
            fresh_groups: Dict[int, List[int]] = {}
            for v in dirty_list:
                label = labels[v]
                if label < offset:
                    if node_map[v] < 0 or table[node_map[v]] != label:
                        conforming = False
                        break
                else:
                    fresh_groups.setdefault(label, []).append(v)
            if conforming:
                for members in fresh_groups.values():
                    mapped = [node_map[v] for v in members]
                    if mapped[0] < 0:
                        # a delta-created node is its own class either way
                        if len(members) == 1:
                            continue
                        conforming = False
                        break
                    base_label = table[mapped[0]]
                    if not all(m >= 0 and table[m] == base_label for m in mapped):
                        conforming = False
                        break
                    # node_map is injective, so a full-size image set means
                    # no clean or matched node can share this base class
                    if len(members) == 1:
                        b = mapped[0]
                        if not singleton_base[b]:
                            if sizes[base_label] == 1:
                                singleton_base[b] = 1
                            else:
                                conforming = False
                                break
                    elif sizes[base_label] != len(members):
                        conforming = False
                        break

            if conforming:
                # relabel to the base labeling (same partition) and collapse
                # the ball: only a changed port table can deviate next depth
                if identity:
                    count = base_counts[min(depth, base_stable)]
                    if prev_is_base:
                        engine._push_from(self, depth, depth)
                    else:
                        engine._push_table(table, count)
                    prev_is_base = True
                else:
                    cur = array(INT_TYPECODE, map(table.__getitem__, node_map))
                    for v in range(n):
                        if node_map[v] < 0:
                            cur[v] = offset + n + v  # stable per-node sentinel
                    count = len(set(cur))
                    engine._push_table(cur, count)
                    prev_is_base = False
                dirty = bytearray(n)
                for v in touched_list:
                    dirty[v] = 1
                dirty_list = list(touched_list)
                grow = False
                if identity and all(singleton_base[v] for v in touched_list):
                    # discrete-touched fast-forward: every touched node sits
                    # in a singleton base class from here on (splitting never
                    # merges), and signatures embed the previous labels --
                    # which this conforming depth just reset to the base's,
                    # pairwise distinct for the touched set.  Each touched
                    # node therefore stays a class of its own at every
                    # remaining depth, every clean node groups exactly as the
                    # base does, and the whole remaining refinement conforms:
                    # copy the base's log suffix, up to the first depth whose
                    # class count repeats.
                    engine._passes += 1
                    if count != engine._num_classes[-2]:
                        last = max(depth + 1, self.computed_depth)
                        engine._push_from(self, depth + 1, last)
                        engine._passes += last - depth
                        depth = last
                    engine._stable_depth = depth - 1
                    break
            else:
                if identity:
                    cur = array(INT_TYPECODE, table)
                else:
                    cur = array(INT_TYPECODE, map(table.__getitem__, node_map))
                # keep only the nodes whose label actually deviated from the
                # base inheritance (plus the ever-suspect touched set): a
                # matched-to-its-own-class node is indistinguishable from a
                # clean one and needs no ring of its own next depth
                deviating: List[int] = []
                for v, label in labels.items():
                    cur[v] = label
                    b = node_map[v]
                    if label >= offset or b < 0 or label != table[b]:
                        deviating.append(v)
                count = len(set(cur))
                engine._push_table(cur, count)
                prev_is_base = False
                dirty = bytearray(n)
                for v in touched_list:
                    dirty[v] = 1
                for v in deviating:
                    dirty[v] = 1
                dirty_list = sorted(set(touched_list) | set(deviating))
                grow = True
            engine._passes += 1
            if count == engine._num_classes[-2]:
                # same class count + nesting partitions => same partition:
                # the fixpoint was reached one depth earlier, and this depth
                # repeats it — exactly the shape _refine_once leaves.
                engine._stable_depth = depth - 1
                break
        return engine

    # ------------------------------------------------------------------ #
    def _signature(self, v: int, previous: array) -> tuple:
        csr = self._csr
        offsets = csr.offsets
        neighbors = csr.neighbors
        reverse_ports = csr.reverse_ports
        return tuple(
            (reverse_ports[i], previous[neighbors[i]])
            for i in range(offsets[v], offsets[v + 1])
        )

    def _split_class(
        self,
        d: int,
        parts: List[List[int]],
        retained_index: int,
        changed_next: List[int],
        new_ids: List[int],
    ) -> None:
        """Give every fragment except ``parts[retained_index]`` a fresh id."""
        current_members = self._current_members
        class_size = self._class_size
        for index, part in enumerate(parts):
            if index == retained_index:
                continue
            fresh = self._next_id
            self._next_id = fresh + 1
            current_members[fresh] = part
            class_size[fresh] = len(part)
            changed_next.extend(part)
            new_ids.extend([fresh] * len(part))
        retained = parts[retained_index]
        current_members[d] = retained
        class_size[d] = len(retained)

    def _worklist_pass(self) -> None:
        """Re-signature only the neighbourhood of the previous pass's splits."""
        if self._current_members is None:
            self._start_worklist()
        csr = self._csr
        offsets = csr.offsets
        neighbors = csr.neighbors
        # the working table holds the previous depth until the pass's writes
        # (changed_next[i] takes new_ids[i]) are pushed at its end
        previous = self._table
        current_members = self._current_members
        class_size = self._class_size
        changed = self._changed

        changed_next: List[int] = []
        new_ids: List[int] = []
        splits = 0

        if changed is None:
            # First pass: every multi-member class is re-signatured in full.
            for d in sorted(current_members):
                group = current_members[d]
                if len(group) <= 1:
                    continue
                fragments: Dict[tuple, List[int]] = {}
                for v in group:
                    signature = self._signature(v, previous)
                    bucket = fragments.get(signature)
                    if bucket is None:
                        fragments[signature] = [v]
                    else:
                        bucket.append(v)
                if len(fragments) > 1:
                    parts = list(fragments.values())
                    retained_index = max(range(len(parts)), key=lambda i: len(parts[i]))
                    self._split_class(d, parts, retained_index, changed_next, new_ids)
                    splits += len(parts) - 1
        else:
            # 1. collect the *touched* nodes (worklist nodes and their
            #    neighbours), bucketed by their current class.  Only these
            #    members can have a signature differing from their class's;
            #    every untouched member of a touched class provably shares
            #    one common signature, so it never needs re-signaturing.
            touched = self._touched
            touched_by_class: Dict[int, List[int]] = {}
            for v in changed:
                if not touched[v]:
                    touched[v] = 1
                    touched_by_class.setdefault(previous[v], []).append(v)
                for i in range(offsets[v], offsets[v + 1]):
                    u = neighbors[i]
                    if not touched[u]:
                        touched[u] = 1
                        touched_by_class.setdefault(previous[u], []).append(u)

            # 2. re-signature the touched members of each dirty class.
            for d in sorted(touched_by_class):
                if class_size[d] <= 1:
                    continue
                touched_members = touched_by_class[d]
                untouched_count = class_size[d] - len(touched_members)
                sig_groups: Dict[tuple, List[int]] = {}
                for v in touched_members:
                    signature = self._signature(v, previous)
                    bucket = sig_groups.get(signature)
                    if bucket is None:
                        sig_groups[signature] = [v]
                    else:
                        bucket.append(v)

                if untouched_count == 0:
                    if len(sig_groups) == 1:
                        continue
                    parts = list(sig_groups.values())
                    retained_index = max(range(len(parts)), key=lambda i: len(parts[i]))
                    self._split_class(d, parts, retained_index, changed_next, new_ids)
                    splits += len(parts) - 1
                    continue

                # Some members are untouched: they all share the signature of
                # any untouched representative, so one O(Δ) probe stands in
                # for all of them.  A node that left d never returns to it,
                # so stale entries at the list's tail are dropped for good
                # and the search starts there: on a path or a beacon tail
                # the head holds ever more stale entries.
                group = current_members[d]
                while previous[group[-1]] != d:
                    group.pop()
                rep = None
                for v in reversed(group):
                    if not touched[v] and previous[v] == d:
                        rep = v
                        break
                rep_signature = self._signature(rep, previous)
                rep_group = sig_groups.pop(rep_signature, None)
                implicit_size = untouched_count + (len(rep_group) if rep_group else 0)
                if not sig_groups:
                    continue  # every touched member matched: no split
                moved = list(sig_groups.values())
                largest_moved = max(len(part) for part in moved)
                if implicit_size >= largest_moved:
                    # the untouched fragment is retained: it keeps id d and
                    # is never materialised, so the pass stays O(touched)
                    for part in moved:
                        fresh = self._next_id
                        self._next_id = fresh + 1
                        current_members[fresh] = part
                        class_size[fresh] = len(part)
                        changed_next.extend(part)
                        new_ids.extend([fresh] * len(part))
                    class_size[d] = implicit_size
                    splits += len(moved)
                else:
                    # a touched fragment outgrew the untouched one; the class
                    # is mostly churn anyway, so materialising it is within
                    # the touched budget
                    rep_set = set(rep_group) if rep_group else ()
                    implicit = [
                        v
                        for v in current_members[d]
                        if previous[v] == d and (not touched[v] or v in rep_set)
                    ]
                    parts = [implicit] + moved
                    retained_index = 1 + max(
                        range(len(moved)), key=lambda i: len(moved[i])
                    )
                    self._split_class(d, parts, retained_index, changed_next, new_ids)
                    splits += len(parts) - 1

            for members in touched_by_class.values():
                for v in members:
                    touched[v] = 0

        # the classes that lost members, read before the pass's writes
        shrunk = {previous[v] for v in changed_next}
        self._push(
            array(INT_TYPECODE, changed_next),
            array(INT_TYPECODE, new_ids),
            self._num_classes[-1] + splits,
        )
        # compact member lists whose stale entries dominate
        table = self._table
        for d in shrunk:
            group = current_members.get(d)
            if group is not None and len(group) > 2 * max(1, class_size[d]):
                current_members[d] = [v for v in group if table[v] == d]
        self._changed = changed_next

    def _start_worklist(self) -> None:
        """Build the worklist state of the working table, for a worklist pass.

        Before any pass the worklist is "everything".  After vector passes it
        is the churn of the last one, since vector passes number classes as
        worklist passes do.  Member lists are built here, not at
        construction, so an engine that runs vector passes only holds no
        per-node Python lists.
        """
        count = self._num_classes[-1]
        self._changed = None if len(self._num_classes) == 1 else self._churned.tolist()
        groups = _class_lists(self._table, count)
        self._current_members = dict(enumerate(groups))
        self._class_size = {c: len(group) for c, group in enumerate(groups)}
        self._next_id = count
        if self._touched is None:
            self._touched = bytearray(self._csr.num_nodes)

    def _ensure_buckets(self, numpy) -> List[Tuple]:
        """Per-degree (nodes, neighbour matrix, reverse-port matrix) triples.

        Each matrix has shape (nodes of the bucket, degree).  They depend
        only on the CSR arrays, so they are built once and reused by every
        vector pass; together they are an O(n + m) footprint.
        """
        if self._buckets is None:
            csr = self._csr
            offsets = _view(numpy, csr.offsets)
            neighbors = _view(numpy, csr.neighbors)
            reverse_ports = _view(numpy, csr.reverse_ports)
            degrees = offsets[1:] - offsets[:-1]
            buckets: List[Tuple] = []
            for degree in numpy.unique(degrees).tolist():
                if degree == 0:
                    continue  # a degree-0 node only exists when n == 1 (stable at depth 0)
                nodes = numpy.flatnonzero(degrees == degree)
                darts = offsets[nodes][:, None] + numpy.arange(degree)
                buckets.append((nodes, neighbors[darts], reverse_ports[darts]))
            self._buckets = buckets
        return self._buckets

    def _vector_pass(self) -> None:
        """Re-signature every node of every non-singleton class, in whole arrays."""
        numpy = numpy_or_none()
        previous = _view(numpy, self._table)
        previous_count = self._num_classes[-1]
        active = numpy.bincount(previous, minlength=previous_count)[previous] > 1
        buckets = self._ensure_buckets(numpy)
        # field widths: previous ids are 0..previous_count-1, reverse ports
        # below the largest degree
        colour_bits = max(1, (previous_count - 1).bit_length())
        port_bits = max(1, (buckets[-1][1].shape[1] - 1).bit_length())
        # regrouped nodes get ids from previous_count up, so they never
        # collide with an unsplit singleton class, which keeps its id
        scratch = previous.astype(numpy.int64)
        next_fresh = previous_count
        for nodes, neighbor_matrix, port_matrix in buckets:
            mask = active[nodes]
            if not mask.any():
                continue
            selected = nodes[mask]
            neighbor_rows = neighbor_matrix[mask]
            port_rows = port_matrix[mask]
            # the signature of v: prev[v], then per port the reverse port and
            # the neighbour's previous colour
            columns = [(previous[selected], colour_bits)]
            for port in range(neighbor_rows.shape[1]):
                columns.append((port_rows[:, port], port_bits))
                columns.append((previous[neighbor_rows[:, port]], colour_bits))
            group_count, group_ids = _group_words(numpy, pack_columns(numpy, columns))
            scratch[selected] = next_fresh + group_ids
            next_fresh += group_count
        # number the fragments as a worklist pass does: each previous class's
        # largest fragment (the first by scratch id among equals) keeps the
        # previous id, the others take fresh ids from previous_count up.
        # Scratch ids of regrouped classes are unused; they get size 0 and
        # their own id as parent, so no previous class counts them.
        sizes = numpy.bincount(scratch, minlength=next_fresh)
        parent = numpy.arange(next_fresh)
        parent[scratch] = previous
        largest = numpy.zeros(previous_count, dtype=sizes.dtype)
        numpy.maximum.at(largest, parent, sizes)
        retained = numpy.full(previous_count, next_fresh, dtype=parent.dtype)
        candidates = numpy.flatnonzero(sizes == largest[parent])
        numpy.minimum.at(retained, parent[candidates], candidates)
        fresh = sizes > 0
        fresh[retained] = False
        count = previous_count + int(fresh.sum())
        ids = numpy.empty(next_fresh, dtype=previous.dtype)
        ids[retained] = numpy.arange(previous_count)
        ids[fresh] = numpy.arange(previous_count, count)
        new = ids[scratch]
        # the churn: exactly the nodes outside their class's largest fragment
        churned = numpy.flatnonzero(new != previous)
        self._churned = churned
        self._active = int(sizes[sizes > 1].sum())
        self._current_members = self._class_size = self._changed = None
        self._push(
            array(INT_TYPECODE, churned.astype(previous.dtype).tobytes()),
            array(INT_TYPECODE, new[churned].tobytes()),
            count,
        )

    def _next_pass_is_vector(self) -> bool:
        """The engine's choice of kind for the next pass (see the constants)."""
        if self._backend != "auto":
            return self._backend == "numpy"
        n = self._csr.num_nodes
        if len(self._num_classes) == 1:
            return n >= VECTOR_MIN_NODES
        if self._current_members is None:  # the last pass was a vector pass
            return len(self._churned) * CHURN_RATIO >= self._active
        worklist = len(self._changed)
        return worklist >= VECTOR_MIN_NODES and worklist * CHURN_RATIO >= n

    def _refine_once(self) -> None:
        """Materialise the next depth with one pass of the chosen kind."""
        self._passes += 1
        if self._next_pass_is_vector():
            self._vector_pass()
        else:
            self._worklist_pass()
        if self._stable_depth is None and self._num_classes[-1] == self._num_classes[-2]:
            # refinement only splits classes: a pass with no splits means the
            # partition reached its fixpoint one depth earlier.
            self._stable_depth = len(self._num_classes) - 2

    # ------------------------------------------------------------------ #
    def ensure_depth(self, depth: int) -> int:
        """Materialise partitions up to ``depth`` (or the fixpoint).

        Returns the *effective* depth at which to read: ``depth`` itself, or
        the stable depth when that is smaller.  Takes the lock per pass.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        while True:
            with self._lock:
                stable = self._stable_depth
                if stable is not None:
                    return min(depth, stable)
                if len(self._num_classes) > depth:
                    return depth
                self._refine_once()

    def ensure_stable(self) -> int:
        """Refine to the fixpoint and return the stable depth (locked per pass)."""
        while True:
            with self._lock:
                if self._stable_depth is not None:
                    return self._stable_depth
                self._refine_once()

    # ------------------------------------------------------------------ #
    # O(1) / O(output) queries (depth must already be effective)
    # ------------------------------------------------------------------ #
    def num_classes_at(self, effective: int) -> int:
        with self._lock:
            return self._num_classes[effective]

    def _views_at(self, effective: int) -> list:
        """The cached ``[colours, members, unique]`` of a depth, made most recent.

        The caller holds the lock.
        """
        views = self._views
        entry = views.pop(effective, None)
        if entry is None:
            entry = [_canonical(self._raw_at(effective)), None, None]
            excess = len(views) + 1 - VIEW_CACHE_DEPTHS
            if excess > 0:
                for stale in list(views)[:excess]:
                    views.pop(stale, None)
        views[effective] = entry
        return entry

    def colors_at(self, effective: int) -> array:
        """Canonical colours at a materialised depth (0..c-1 by first appearance).

        Byte-identical to the lists the classic full-sweep implementation
        produced, because first-appearance renumbering is a pure function of
        the partition.  Built lazily from the depth's raw table and kept
        for the :data:`VIEW_CACHE_DEPTHS` depths queried last.
        """
        with self._lock:
            return self._views_at(effective)[0]

    def members_at(self, effective: int) -> List[List[int]]:
        """Canonical class → members (ascending node order), built lazily."""
        with self._lock:
            entry = self._views_at(effective)
            if entry[1] is None:
                entry[1] = _class_lists(entry[0], self._num_classes[effective])
            return entry[1]

    def unique_at(self, effective: int) -> List[int]:
        """Nodes in singleton classes (ascending), built lazily per depth."""
        with self._lock:
            entry = self._views_at(effective)
            if entry[2] is None:
                entry[2] = _singletons(entry[0], self._num_classes[effective])
            return entry[2]

    def first_unique_depth(self, max_depth: Optional[int] = None) -> Optional[int]:
        """Smallest depth at which some node is alone in its class.

        ``None`` if no depth up to the fixpoint (or up to ``max_depth``) has
        one.  Refines no further than the depth it returns or gives up at,
        and takes the lock per depth.
        """
        depth = self._no_unique_below
        while max_depth is None or depth <= max_depth:
            effective = self.ensure_depth(depth)
            if self.unique_at(effective):
                return depth
            with self._lock:
                self._no_unique_below = max(self._no_unique_below, depth + 1)
                stable = self._stable_depth
            if stable is not None and depth >= stable:
                return None
            depth += 1
        return None

    def class_members(self, node: int, effective: int) -> List[int]:
        return self.members_at(effective)[self.colors_at(effective)[node]]

    def canonical_tables(self) -> List[List[int]]:
        """Canonical colour tables for every materialised depth (0..computed).

        A pure function of the partitions, so two engines of one graph
        return equal lists whichever pass kinds or replays built them.
        """
        with self._lock:
            return [list(self.colors_at(depth)) for depth in range(len(self._num_classes))]

    # ------------------------------------------------------------------ #
    def estimated_bytes(self) -> int:
        """Rough retained footprint of the engine's state (bytes).

        Counts exactly the working table, the full tables, the churn log,
        the class counts, the cached canonical colours and the degree-bucket
        matrices, and the cached inverse indexes and the worklist state
        (member lists, worklist) at Python-list rates; used by the runner
        cache's eviction accounting, not for allocation decisions.
        """
        with self._lock:
            arrays = [self._table, self._log_nodes, self._log_ids, self._log_ends, self._num_classes]
            arrays.extend(self._full.values())
            total = sum(len(arr) * arr.itemsize for arr in arrays)
            for colors, members, unique in self._views.values():
                total += len(colors) * colors.itemsize
                if members is not None:
                    total += sum(56 + 8 * len(group) for group in members)
                if unique is not None:
                    total += 56 + 8 * len(unique)
            if self._buckets is not None:
                for matrices in self._buckets:
                    total += sum(matrix.nbytes for matrix in matrices)
            if self._churned is not None:
                total += self._churned.nbytes
            if self._current_members is not None:
                for group in self._current_members.values():
                    total += 56 + 8 * len(group)
            if self._changed is not None:
                total += 56 + 8 * len(self._changed)
            if self._touched is not None:
                total += len(self._touched)
            return total


def refinement_delta(base_engine, csr, node_map, touched):
    """An engine for an edited graph, replayed from its base's partitions.

    Runs :meth:`CSRPartitionRefinement.apply_delta`: per depth the replay
    signatures only the dirty ball plus one cheap O(n) inheritance sweep,
    work that vector passes cannot exploit, and its output is certified
    byte-identical to a cold refinement by the delta equivalence suite.
    """
    return CSRPartitionRefinement.apply_delta(base_engine, csr, node_map, touched)
