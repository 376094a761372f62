"""Seeded workload inputs: the same ``--seed`` always yields the same inputs.

The program only ever sees what these functions generate.  Sizes are fixed
per workload; the seed varies the random draws (corpus members, zipf
ranks, mutation scripts, random graph seeds), never the mix.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Tuple

from repro.portgraph.io import graph_to_dict
from repro.runner import GraphSpec
from repro.scenarios import corpus_specs, mutation_stream

MAX_STATES = 50_000
ALL_TASKS = ["S", "PE", "PPE", "CPPE"]
DELTA_TASKS = ["S", "PE"]

#: A graph no workload contains: the set-up request that pays lazy first calls.
THROWAWAY_SPEC = {"kind": "path", "params": {"n": 9}}

# serve-warm: more distinct graphs than the refinement cache's 128 entries
SERVE_WARM_GRAPHS = 256
SERVE_WARM_REQUESTS = 600
ZIPF_S = 1.1

# sweep-cold: one batch of mixed-corpus specs plus the G_{4,1} members
SWEEP_CORPUS_ITEMS = 120
GDK_MEMBERS = ({"delta": 4, "k": 1, "index": 1}, {"delta": 4, "k": 1, "index": 2}, {"delta": 4, "k": 1, "index": 3})

# delta-stream: beacon-tail bases (edits confined to the beacon) and grids
BEACON_BASES = 2
BEACON_BLOB, BEACON_TAIL = 100, 200
GRID_BASES = ((24, 24),)
STREAM_LENGTH = 6
BEACON_KINDS = ("add-edge", "remove-edge", "relabel-ports")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# --------------------------------------------------------------------------- #
# serve-warm
# --------------------------------------------------------------------------- #
def serve_warm_graphs(seed: int) -> List[GraphSpec]:
    """The distinct mixed-corpus graphs, deduplicated by spec, corpus order."""
    seen, specs = set(), []
    for spec in corpus_specs(4 * SERVE_WARM_GRAPHS, seed=seed, corpus="mixed"):
        if spec.label not in seen:
            seen.add(spec.label)
            specs.append(spec)
        if len(specs) == SERVE_WARM_GRAPHS:
            return specs
    raise ValueError("mixed corpus too small for the serve-warm graph count")


def serve_warm_payload(spec: GraphSpec, form: str, advice: bool) -> Dict[str, Any]:
    """One ``POST /election`` body: ``form`` is ``graph`` (adjacency) or ``spec``."""
    payload: Dict[str, Any] = {"tasks": ALL_TASKS, "max_states": MAX_STATES}
    if form == "graph":
        payload["graph"] = graph_to_dict(spec.build())
    else:
        payload["spec"] = spec.to_dict()
    if advice:
        payload["advice"] = True
    return payload


def serve_warm_requests(seed: int) -> List[Tuple[int, str, bool]]:
    """The request sequence: ``(graph index, form, advice)``, zipf(1.1) over graphs.

    Half the payloads are adjacency and half spec; every fourth asks for
    advice.  Zipf ranks are a seeded permutation of the graphs.
    """
    rng = _rng("serve-warm", seed)
    ranked = list(range(SERVE_WARM_GRAPHS))
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(SERVE_WARM_GRAPHS)]
    draws = rng.choices(ranked, weights=weights, k=SERVE_WARM_REQUESTS)
    return [
        (graph, "graph" if i % 2 == 0 else "spec", i % 4 == 3) for i, graph in enumerate(draws)
    ]


# --------------------------------------------------------------------------- #
# sweep-cold
# --------------------------------------------------------------------------- #
def sweep_cold_items(seed: int) -> List[Dict[str, Any]]:
    """The batch items: corpus specs (duplicates kept) with the G_{4,1} members.

    Items stream back in submission order, so an expensive member delays
    every later line: the members sit at fixed quarter points, keeping the
    time-to-item distribution comparable across seeds.
    """
    specs = [spec.to_dict() for spec in corpus_specs(SWEEP_CORPUS_ITEMS, seed=seed, corpus="mixed")]
    for quarter, params in zip((3, 2, 1), reversed(GDK_MEMBERS)):
        specs.insert(quarter * len(specs) // 4, {"kind": "gdk", "params": dict(params)})
    return [{"spec": spec, "tasks": ALL_TASKS, "max_states": MAX_STATES} for spec in specs]


# --------------------------------------------------------------------------- #
# delta-stream
# --------------------------------------------------------------------------- #
def delta_bases(seed: int) -> List[Tuple[str, GraphSpec]]:
    """``(family, base spec)`` pairs: beacon-tails first, then grids."""
    rng = _rng("delta-stream", seed)
    bases = [
        ("beacon_tail", GraphSpec.make("beacon-tail", blob=BEACON_BLOB, tail=BEACON_TAIL, seed=rng.randint(0, 9999)))
        for _ in range(BEACON_BASES)
    ]
    bases += [("grid", GraphSpec.make("grid", rows=rows, cols=cols)) for rows, cols in GRID_BASES]
    return bases


def delta_items(seed: int) -> List[Dict[str, Any]]:
    """Cumulative mutation-stream prefixes of every base, interleaved across bases."""
    streams = []
    for family, spec in delta_bases(seed):
        base = spec.build()
        if family == "beacon_tail":
            scripts = mutation_stream(base, seed=seed, length=STREAM_LENGTH, kinds=BEACON_KINDS, region=range(BEACON_BLOB))
        else:
            scripts = mutation_stream(base, seed=seed, length=STREAM_LENGTH)
        streams.append(
            [{"base": spec.to_dict(), "delta": script.to_payload(), "tasks": DELTA_TASKS} for script in scripts]
        )
    return [stream[step] for step in range(STREAM_LENGTH) for stream in streams]


def delta_base_payloads(seed: int) -> List[Dict[str, Any]]:
    return [{"spec": spec.to_dict(), "tasks": DELTA_TASKS} for _, spec in delta_bases(seed)]


# --------------------------------------------------------------------------- #
# refine-xl
# --------------------------------------------------------------------------- #
def refine_xl_graphs(seed: int) -> List[Tuple[str, Any]]:
    """``(label, builder)`` of the three large graphs; builders run in set-up."""
    from repro.families import build_jmuk_member, jmuk_border_count
    from repro.portgraph import generators

    rng = _rng("refine-xl", seed)
    z = jmuk_border_count(2, 4)
    y = tuple(rng.randrange(2) for _ in range(2 ** (z - 1)))
    beacon = corpus_specs(3, seed=seed, corpus="dynamic-xl")[2]
    substrate_seed = rng.randint(0, 9999)
    return [
        ("J_{2,4} member", lambda: build_jmuk_member(2, 4, y).graph),
        (beacon.label, beacon.build),
        (
            f"random(n=20000,seed={substrate_seed})",
            lambda: generators.random_connected_graph(20000, extra_edges=20000, seed=substrate_seed),
        ),
    ]


def encode(payload: Dict[str, Any]) -> bytes:
    """Canonical request body bytes (also the key of a payload's reference answer)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
