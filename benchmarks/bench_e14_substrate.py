"""E14 -- substrate performance: the LOCAL-model simulator and partition refinement.

Not a table of the paper, but the scalability record of the simulator and the
view machinery everything else runs on (the "measure before optimising"
discipline of the HPC guides): rounds/second of the message-passing engine
and refinement throughput on graphs up to the full 132k-node J_Y member.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.families import build_component, build_gadget, build_jmuk_member, jmuk_border_count
from repro.kernel import BlockCutTree, CSRPartitionRefinement, build_csr
from repro.portgraph import generators
from repro.sim import gather_views
from repro.views import ViewRefinement


@pytest.mark.parametrize("n", [50, 200, 800])
def bench_simulator_view_gathering(benchmark, table_printer, n):
    graph = generators.random_connected_graph(n, extra_edges=n, seed=1)
    rounds = 3
    views = benchmark(gather_views, graph, rounds)
    table_printer(
        "E14: LOCAL-model engine, view gathering",
        ["n", "m", "rounds", "messages per round"],
        [[graph.num_nodes, graph.num_edges, rounds, 2 * graph.num_edges]],
    )
    assert len(views) == n


@pytest.mark.parametrize(
    "name,builder",
    [
        ("component H (µ=3, k=5)", lambda: build_component(3, 5)[0]),
        ("gadget (µ=3, k=5)", lambda: build_gadget(3, 5)[0]),
        ("random n=20000", lambda: generators.random_connected_graph(20000, extra_edges=20000, seed=3)),
    ],
)
def bench_refinement_throughput(benchmark, table_printer, name, builder):
    graph = builder()
    csr = graph.csr()

    def refine():
        # a fresh engine per call: ViewRefinement shares the graph-memoised
        # engine since the kernel refactor, which would measure warm state
        engine = CSRPartitionRefinement(csr)
        effective = engine.ensure_depth(6)
        return engine.num_classes_at(effective)

    classes = benchmark(refine)
    table_printer(
        "E14: partition refinement throughput (cold kernel engine)",
        ["graph", "n", "m", "classes at depth 6"],
        [[name, graph.num_nodes, graph.num_edges, classes]],
    )
    assert classes >= 1
    assert ViewRefinement(graph).num_classes(6) == classes


def bench_full_member_refinement(benchmark, table_printer):
    z = jmuk_border_count(2, 4)
    member = build_jmuk_member(2, 4, tuple(i % 2 for i in range(2 ** (z - 1))))
    csr = member.graph.csr()

    def refine():
        engine = CSRPartitionRefinement(csr)
        effective = engine.ensure_depth(4)
        return engine.num_classes_at(effective)

    classes = benchmark.pedantic(refine, iterations=1, rounds=2)
    table_printer(
        "E14: refinement on the full J_Y member (132k nodes)",
        ["n", "m", "depth", "classes"],
        [[member.graph.num_nodes, member.graph.num_edges, 4, classes]],
    )
    assert classes == member.graph.num_nodes


@pytest.mark.parametrize("n", [200, 800])
def bench_blockcut_vs_removed_node_bfs(benchmark, table_printer, n):
    """ψ_PE's port checks: one block-labelling DFS, then a dart's block against
    ``block_toward``, vs the legacy per-removed-node BFS."""
    graph = generators.random_connected_graph(n, extra_edges=n // 4, seed=7)
    leader = 0
    queries = [(v, p) for v in list(graph.nodes())[1:] for p in graph.ports(v)]

    def kernel_queries():
        csr = build_csr(graph)
        tree = BlockCutTree(csr)
        block, offsets = tree.block, csr.offsets
        return sum(block[offsets[v] + p] == tree.block_toward(v, leader) for v, p in queries)

    def legacy_queries():
        hits = 0
        comps = {}
        for v, p in queries:
            w = graph.neighbor(v, p)
            if w == leader:
                hits += 1
                continue
            comp = comps.get(v)
            if comp is None:
                comp = [-1] * graph.num_nodes
                comp[v] = -2
                next_id = 0
                for start in graph.nodes():
                    if comp[start] != -1:
                        continue
                    comp[start] = next_id
                    queue = deque([start])
                    while queue:
                        x = queue.popleft()
                        for y in graph.neighbors(x):
                            if comp[y] == -1:
                                comp[y] = next_id
                                queue.append(y)
                    next_id += 1
                comps[v] = comp
            hits += comp[w] == comp[leader]
        return hits

    kernel_hits = benchmark(kernel_queries)
    assert kernel_hits == legacy_queries()
    table_printer(
        "E14: simple-path query throughput (dart block labels vs per-removed-node BFS)",
        ["n", "m", "queries", "ports starting a simple path to the leader"],
        [[graph.num_nodes, graph.num_edges, len(queries), kernel_hits]],
    )
