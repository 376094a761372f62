"""Typed edit scripts over port-labeled graphs.

A :class:`GraphDelta` is a small, validated, JSON-serialisable script of
mutations against a *base* graph — the unit that flows through the dynamic
compute path (``kernel.refine`` delta replay, the runner cache's derived
entries, ``POST /elections`` items with a ``"delta"`` field).  Five op kinds
cover the mutation streams of the dynamic-graph workload:

``{"op": "add-edge", "v": v, "u": u}``
    Join two existing non-adjacent nodes.  The new edge takes the next free
    port on each side (``deg(v)`` / ``deg(u)``), which keeps port tables
    contiguous without renumbering anything else.
``{"op": "remove-edge", "v": v, "u": u}``
    Remove the edge ``{v, u}``.  The freed port slot on each side is filled
    by *swap-with-last*: the dart at the highest port moves into the hole
    (updating its far side's reverse port), so ports stay contiguous and the
    repair is deterministic.
``{"op": "add-node", "anchor": a}``
    Join a fresh node (handle ``n``) by one edge to ``anchor`` — port
    ``deg(anchor)`` on the anchor side, port ``0`` on the new node.
``{"op": "remove-node", "v": v}``
    Remove ``v`` and its incident edges (each repaired swap-with-last);
    the last node handle ``n-1`` is then renamed to ``v`` (swap-with-last on
    node handles) so handles stay ``0..n-2``.
``{"op": "relabel-ports", "v": v, "perm": [...]}``
    Permute the port labels of ``v``: the dart at old port ``p`` gets port
    ``perm[p]``.  Topology is unchanged; the neighbours' reverse ports are
    rewritten.

Ops apply *in order*, each validated against the graph produced by its
predecessors; the final graph must satisfy the full model invariants
(simple, connected, contiguous ports) or :class:`DeltaError` is raised.

:meth:`GraphDelta.apply_to` returns a :class:`DeltaResult` carrying, beside
the mutated graph, exactly the bookkeeping the incremental kernel needs:

* ``node_map`` — new handle → base handle (``-1`` for freshly joined nodes),
* ``touched`` — new handles whose *port table content* differs from their
  base counterpart's (handle renames alone do not touch a node),
* ``renamed`` — base handle → new handle for handles moved by node removal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graph import PortLabeledGraph
from .validation import is_json_int

__all__ = ["DeltaError", "DeltaResult", "GraphDelta", "DELTA_OPS"]

#: The op kinds a delta may contain, in canonical order.
DELTA_OPS = ("add-edge", "remove-edge", "add-node", "remove-node", "relabel-ports")


class DeltaError(ValueError):
    """An edit script is malformed or inapplicable to its base graph."""


@dataclass(frozen=True)
class DeltaResult:
    """The outcome of applying a :class:`GraphDelta` to a base graph."""

    graph: PortLabeledGraph
    #: new handle -> base handle; -1 for nodes the delta created.
    node_map: Tuple[int, ...]
    #: new handles whose port-table content changed (sorted ascending).
    touched: Tuple[int, ...]
    #: base handle -> new handle, only for handles moved by node removal.
    renamed: Dict[int, int]


def _int_field(op: dict, field: str) -> int:
    """The node id ``op[field]``: a JSON integer, never a string, float or
    boolean coerced into one."""
    value = op[field]
    if not is_json_int(value):
        raise DeltaError(f"malformed {op['op']!r} op: {field!r} must be an integer, got {value!r}")
    return value


def _canonical_op(op: object) -> Tuple:
    """Normalise one wire/op value into its canonical internal tuple."""
    if isinstance(op, tuple) and op and op[0] in DELTA_OPS:
        return op
    if not isinstance(op, dict):
        raise DeltaError(f"delta op must be an object, got {type(op).__name__}")
    kind = op.get("op")
    try:
        if kind == "add-edge" or kind == "remove-edge":
            return (kind, _int_field(op, "v"), _int_field(op, "u"))
        if kind == "add-node":
            return (kind, _int_field(op, "anchor"))
        if kind == "remove-node":
            return (kind, _int_field(op, "v"))
        if kind == "relabel-ports":
            perm = op["perm"]
            if not isinstance(perm, (list, tuple)) or not all(is_json_int(p) for p in perm):
                raise DeltaError(
                    f"malformed {kind!r} op: 'perm' must be a list of integers, got {perm!r}"
                )
            return (kind, _int_field(op, "v"), tuple(perm))
    except KeyError as exc:
        raise DeltaError(f"malformed {kind!r} op: missing {exc}") from exc
    raise DeltaError(f"unknown delta op {kind!r} (expected one of {DELTA_OPS})")


class GraphDelta:
    """An immutable, validated edit script (see the module docstring)."""

    __slots__ = ("_ops", "_digest")

    def __init__(self, ops: Iterable[object]) -> None:
        self._ops: Tuple[Tuple, ...] = tuple(_canonical_op(op) for op in ops)
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> Tuple[Tuple, ...]:
        return self._ops

    @property
    def edit_distance(self) -> int:
        """Number of ops — the x-axis of the E19 speedup curve."""
        return len(self._ops)

    def digest(self) -> str:
        """A stable content digest of the script (response stanza, graph name)."""
        if self._digest is None:
            self._digest = hashlib.blake2b(
                repr(self._ops).encode("ascii"), digest_size=16
            ).hexdigest()
        return self._digest

    def __len__(self) -> int:
        return len(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GraphDelta ops={len(self._ops)} digest={self.digest()[:8]}>"

    # ------------------------------------------------------------------ #
    # wire format
    # ------------------------------------------------------------------ #
    def to_payload(self) -> List[dict]:
        """The JSON-ready list-of-objects form (canonical key order)."""
        out: List[dict] = []
        for op in self._ops:
            kind = op[0]
            if kind in ("add-edge", "remove-edge"):
                out.append({"op": kind, "v": op[1], "u": op[2]})
            elif kind == "add-node":
                out.append({"op": kind, "anchor": op[1]})
            elif kind == "remove-node":
                out.append({"op": kind, "v": op[1]})
            else:
                out.append({"op": kind, "v": op[1], "perm": list(op[2])})
        return out

    @classmethod
    def from_payload(cls, payload: object) -> "GraphDelta":
        if not isinstance(payload, (list, tuple)):
            raise DeltaError("delta payload must be a list of ops")
        if not payload:
            raise DeltaError("delta payload must contain at least one op")
        return cls(payload)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def apply_to(
        self,
        base: PortLabeledGraph,
        *,
        name: Optional[str] = None,
        validate: bool = True,
    ) -> DeltaResult:
        """Apply the script to ``base`` and return the :class:`DeltaResult`.

        ``base`` is never modified.  The mutated graph's default name is
        ``"<base-name>~<digest[:8]>"`` so the full and delta recompute paths
        agree on the derived graph byte-for-byte.
        """
        # Copy-on-write over the base rows: untouched nodes keep sharing the
        # base graph's (immutable tuple) port tables, so a small edit script
        # on a large graph copies O(touched) rows, not O(n).
        adj: List[Sequence[Tuple[int, int]]] = [base.adjacency(v) for v in base.nodes()]
        node_map: List[int] = list(range(len(adj)))
        touched: set = set()

        def _mut(x: int) -> List[Tuple[int, int]]:
            """The port table of ``x`` as a private mutable list (CoW fault)."""
            row = adj[x]
            if type(row) is tuple:
                row = list(row)
                adj[x] = row
            return row  # type: ignore[return-value]

        def _require_node(v: int, what: str) -> None:
            if not isinstance(v, int) or not 0 <= v < len(adj):
                raise DeltaError(f"{what}: node {v!r} out of range (n={len(adj)})")

        def _drop_dart(x: int, hole: int) -> None:
            """Remove the dart at port ``hole`` of ``x``, swap-with-last repair."""
            row = _mut(x)
            last = len(row) - 1
            if hole != last:
                w, r = row[last]
                row[hole] = (w, r)
                _mut(w)[r] = (x, hole)
                touched.add(w)
            row.pop()
            touched.add(x)

        def _remove_edge(v: int, u: int, what: str) -> None:
            for p, (w, _q) in enumerate(adj[v]):
                if w == u:
                    _drop_dart(v, p)
                    break
            else:
                raise DeltaError(f"{what}: {{{v}, {u}}} is not an edge")
            for p, (w, _q) in enumerate(adj[u]):
                if w == v:
                    _drop_dart(u, p)
                    break

        for op in self._ops:
            kind = op[0]
            if kind == "add-edge":
                _kind, v, u = op
                _require_node(v, "add-edge")
                _require_node(u, "add-edge")
                if v == u:
                    raise DeltaError("add-edge: self-loops are not allowed")
                if any(w == u for w, _q in adj[v]):
                    raise DeltaError(f"add-edge: {{{v}, {u}}} already exists")
                row_v = _mut(v)
                row_u = _mut(u)
                row_v.append((u, len(row_u)))
                row_u.append((v, len(row_v) - 1))
                touched.add(v)
                touched.add(u)
            elif kind == "remove-edge":
                _kind, v, u = op
                _require_node(v, "remove-edge")
                _require_node(u, "remove-edge")
                _remove_edge(v, u, "remove-edge")
            elif kind == "add-node":
                _kind, anchor = op
                _require_node(anchor, "add-node")
                fresh = len(adj)
                row_a = _mut(anchor)
                adj.append([(anchor, len(row_a))])
                row_a.append((fresh, 0))
                node_map.append(-1)
                touched.add(anchor)
                touched.add(fresh)
            elif kind == "remove-node":
                _kind, v = op
                _require_node(v, "remove-node")
                if len(adj) < 2:
                    raise DeltaError("remove-node: cannot empty the graph")
                while adj[v]:
                    _remove_edge(v, adj[v][0][0], "remove-node")
                touched.discard(v)
                last = len(adj) - 1
                if v != last:
                    # rename handle last -> v; row contents are unchanged
                    # modulo the rename, so this touches nothing by itself.
                    adj[v] = adj[last]
                    for w, r in adj[v]:
                        row_w = _mut(w)
                        row_w[r] = (v, row_w[r][1])
                    node_map[v] = node_map[last]
                    if last in touched:
                        touched.discard(last)
                        touched.add(v)
                adj.pop()
                node_map.pop()
            else:  # relabel-ports
                _kind, v, perm = op
                _require_node(v, "relabel-ports")
                degree = len(adj[v])
                if sorted(perm) != list(range(degree)):
                    raise DeltaError(
                        f"relabel-ports: perm must be a permutation of 0..{degree - 1}"
                    )
                row = adj[v]
                new_row: List[Optional[Tuple[int, int]]] = [None] * degree
                for p, (u, q) in enumerate(row):
                    new_row[perm[p]] = (u, q)
                    _mut(u)[q] = (v, perm[p])
                    touched.add(u)
                adj[v] = new_row  # type: ignore[assignment]
                touched.add(v)

        if validate and any(op[0] in ("remove-edge", "remove-node") for op in self._ops):
            # the surgery maintains reciprocity and port contiguity by
            # construction (each op repairs the darts it moves); the one
            # model invariant a removal can break is connectivity, so check
            # exactly that instead of re-validating the whole graph
            seen = bytearray(len(adj))
            seen[0] = 1
            stack = [0]
            reached = 1
            while stack:
                x = stack.pop()
                for w, _r in adj[x]:
                    if not seen[w]:
                        seen[w] = 1
                        reached += 1
                        stack.append(w)
            if reached != len(adj):
                raise DeltaError("delta disconnects the graph")
        if name is None:
            stem = base.name or "graph"
            name = f"{stem}~{self.digest()[:8]}"
        graph = PortLabeledGraph(adj, name=name, validate=False)
        renamed = {
            base_id: new_id
            for new_id, base_id in enumerate(node_map)
            if base_id >= 0 and base_id != new_id
        }
        return DeltaResult(
            graph=graph,
            node_map=tuple(node_map),
            touched=tuple(sorted(touched)),
            renamed=renamed,
        )
