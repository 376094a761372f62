"""Seeded mutation-stream generators: reproducible edit scripts over corpus graphs.

The dynamic-graph workload mutates corpus graphs with streams of edge
rewirings, node joins/leaves and port relabelings.  This module generates
those streams deterministically: :func:`mutation_stream` derives its RNG from
``(seed, base graph identity)`` alone — never from global state — and every
emitted op is validated against the graph the preceding ops produce, so each
stream is a reproducible random walk through the space of valid port-labeled
graphs around its base.

Connectivity is preserved *by construction*, not by rejection sampling alone:
edge removals draw from the non-bridge edges and node leaves from the
non-articulation nodes, both read off the biconnected-block label of every
dart (:class:`~repro.kernel.blockcut.BlockCutTree`): a block of one edge is
a bridge, and a node whose darts lie in two or more blocks is a cut vertex.
The emitted scripts are **cumulative**: entry ``i`` of a stream is a
:class:`~repro.portgraph.delta.GraphDelta` of edit distance ``i + 1``
against the *base* graph, which is the shape both the ``{"base": ...,
"delta": [...]}`` sweep items and the E19 speedup-vs-edit-distance curve
consume.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..portgraph.delta import GraphDelta
from ..portgraph.graph import PortLabeledGraph

__all__ = ["MUTATION_KINDS", "mutation_stream", "mutation_sweep_items"]

#: The op kinds a stream may draw, in canonical order.
MUTATION_KINDS = ("add-edge", "remove-edge", "add-node", "remove-node", "relabel-ports")


def _bridges_and_cuts(graph: PortLabeledGraph) -> Tuple[set, set]:
    """``(bridge edge set (v<u pairs), articulation node set)`` of ``graph``."""
    from ..kernel.blockcut import BlockCutTree  # lazy: scenarios sit below kernel users

    tree = BlockCutTree(graph.csr())
    return tree.bridges(), tree.articulation_points()


def _candidate_op(
    rng: random.Random,
    graph: PortLabeledGraph,
    kind: str,
    region: Optional[Sequence[int]] = None,
) -> Optional[dict]:
    """One valid ``kind`` op against ``graph``, or ``None`` if none exists.

    When ``region`` is given, every node the op names is drawn from it (both
    endpoints for edge ops); ``None`` means the whole node set.
    """
    n = graph.num_nodes
    pool: Sequence[int] = range(n) if region is None else region
    if kind == "add-edge":
        if len(pool) > 256:
            # sparse large pool: rejection-sample pairs (deterministic in the
            # rng) instead of materialising the Theta(n^2) non-edge list
            if graph.num_edges >= n * (n - 1) // 2:
                return None
            while True:
                v = pool[rng.randrange(len(pool))]
                u = pool[rng.randrange(len(pool))]
                if v != u and not graph.has_edge(v, u):
                    break
            return {"op": "add-edge", "v": min(v, u), "u": max(v, u)}
        # sorted non-edges keep the draw deterministic
        members = sorted(set(pool))
        candidates = [
            (v, u)
            for iv, v in enumerate(members)
            for u in members[iv + 1 :]
            if not graph.has_edge(v, u)
        ]
        if not candidates:
            return None
        v, u = rng.choice(candidates)
        return {"op": "add-edge", "v": v, "u": u}
    in_pool = (lambda v: True) if region is None else set(pool).__contains__
    if kind == "remove-edge":
        bridges, _cuts = _bridges_and_cuts(graph)
        candidates = [
            (v, u)
            for v, _pv, u, _pu in graph.edges()
            if (v, u) not in bridges and in_pool(v) and in_pool(u)
        ]
        if not candidates:
            return None
        v, u = rng.choice(candidates)
        return {"op": "remove-edge", "v": v, "u": u}
    if kind == "add-node":
        return {"op": "add-node", "anchor": pool[rng.randrange(len(pool))]}
    if kind == "remove-node":
        if n < 3:
            return None
        _bridges, cuts = _bridges_and_cuts(graph)
        candidates = [v for v in pool if v not in cuts]
        if not candidates:
            return None
        return {"op": "remove-node", "v": rng.choice(candidates)}
    if kind == "relabel-ports":
        candidates = [v for v in pool if graph.degree(v) >= 2]
        if not candidates:
            return None
        v = rng.choice(candidates)
        degree = graph.degree(v)
        perm = list(range(degree))
        while perm == list(range(degree)):
            rng.shuffle(perm)
        return {"op": "relabel-ports", "v": v, "perm": perm}
    raise ValueError(f"unknown mutation kind {kind!r} (expected one of {MUTATION_KINDS})")


def mutation_stream(
    base: PortLabeledGraph,
    *,
    seed: int,
    length: int,
    kinds: Optional[Sequence[str]] = None,
    region: Optional[Sequence[int]] = None,
) -> List[GraphDelta]:
    """``length`` cumulative edit scripts over ``base``, deterministic in ``seed``.

    Entry ``i`` is a :class:`GraphDelta` of ``i + 1`` ops against ``base``:
    the scripts share a prefix, so the stream is one random walk observed at
    every step (and prefix-stable: the first ``k`` scripts never depend on
    ``length``).  Kinds are drawn round-robin-free from ``kinds`` (default
    :data:`MUTATION_KINDS`); a kind with no valid op on the current graph is
    skipped for that step.  Raises ``ValueError`` when no requested kind has
    a valid op at some step (e.g. ``remove-node`` streams on a path graph).

    ``region`` restricts every drawn op to the given node handles — the
    localised-edit workloads of the E19 speedup curve (edits confined to a
    beacon-tail graph's beacon).  Handles are interpreted against the
    *current* graph of the walk, so region streams are meant for the
    topology-stable kinds (edge and port ops); combining a region with node
    joins/leaves is allowed but the region does not follow renames.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    allowed = tuple(kinds) if kinds is not None else MUTATION_KINDS
    for kind in allowed:
        if kind not in MUTATION_KINDS:
            raise ValueError(
                f"unknown mutation kind {kind!r} (expected one of {MUTATION_KINDS})"
            )
    rng = random.Random(
        f"mutations:{seed}:{base.name}:{base.num_nodes}:{base.num_edges}"
    )
    ops: List[dict] = []
    scripts: List[GraphDelta] = []
    current = base
    for _step in range(length):
        op = None
        for kind in rng.sample(allowed, len(allowed)):
            op = _candidate_op(rng, current, kind, region)
            if op is not None:
                break
        if op is None:
            raise ValueError(
                f"no valid mutation of kinds {allowed} on {current!r} "
                f"after {len(ops)} steps"
            )
        ops.append(op)
        script = GraphDelta(ops)
        current = script.apply_to(base).graph
        scripts.append(script)
    return scripts


def mutation_sweep_items(
    specs: Iterable,
    *,
    seed: int,
    per_graph: int = 3,
    kinds: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Expand base graph specs into ``{"base": ..., "delta": [...]}`` sweep items.

    For each :class:`~repro.runner.spec.GraphSpec` in ``specs``, the base is
    built and a :func:`mutation_stream` of ``per_graph`` steps generated; one
    item per step references the base *by spec* (the service resolves either
    a spec dict or a store fingerprint) with the cumulative delta payload.
    Deterministic in ``(specs, seed)`` — the shape ``repro sweep --mutate``
    and the warm pipeline feed to ``POST /elections``.
    """
    items: List[Dict[str, object]] = []
    for spec in specs:
        base = spec.build()
        for script in mutation_stream(base, seed=seed, length=per_graph, kinds=kinds):
            items.append({"base": spec.to_dict(), "delta": script.to_payload()})
    return items
