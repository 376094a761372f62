"""Regression tests for the fixpoint-precise ``fingerprint()`` and the exact ``cache_key()``.

The original fingerprint folded a *fixed* 3 rounds of port-aware colour
refinement.  That aliases structurally different graphs whose refinements
only diverge at depth >= 4.  The colliding pair constructed here is explicit:
two leaf-decorated cycles whose leaf positions follow two *distinct* binary
de Bruijn sequences of order 7 (length 128).  Every 7-bit window occurs
exactly once in each sequence, so the multisets of radius-3 neighbourhoods —
everything 3 refinement rounds can see — coincide, while the sequences (and
hence the graphs, and their refinement fixpoints) differ.

The label chain has two implementations (:mod:`repro.portgraph.labels`):
the tests at the end require them to agree, and each to keep the
fingerprint's properties.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernel import numpy_available, use_backend
from repro.portgraph import labels as label_chain
from repro.portgraph.graph import PortLabeledGraph
from repro.portgraph import generators


# --------------------------------------------------------------------------- #
# the colliding pair
# --------------------------------------------------------------------------- #
def debruijn_prefer_one(order: int):
    """The greedy ('prefer one') binary de Bruijn sequence of the given order."""
    length = 1 << order
    seen = set()
    sequence = [0] * order
    seen.add(tuple(sequence))
    while len(sequence) < length:
        tail = sequence[-(order - 1):] if order > 1 else []
        if tuple(tail + [1]) not in seen:
            sequence.append(1)
        else:
            sequence.append(0)
        seen.add(tuple(sequence[-order:]))
    return sequence


def debruijn_fkm(order: int):
    """The lexicographically smallest binary de Bruijn sequence (FKM algorithm)."""
    a = [0] * (order + 1)
    sequence = []

    def extend(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                sequence.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            extend(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                extend(t + 1, t)

    extend(1, 1)
    return sequence


def leaf_decorated_cycle(bits, name: str) -> PortLabeledGraph:
    """A cycle of ``len(bits)`` nodes with a pendant leaf wherever ``bits[i] == 1``.

    Cycle ports are uniform (0 = successor, 1 = predecessor; the leaf edge,
    when present, uses port 2), so the radius-r neighbourhood of cycle node
    ``i`` is determined exactly by the bit window ``bits[i-r .. i+r]``.
    """
    n = len(bits)
    adjacency = [{0: ((i + 1) % n, 1), 1: ((i - 1) % n, 0)} for i in range(n)]
    for i in range(n):
        if bits[i]:
            leaf = len(adjacency)
            adjacency[i][2] = (leaf, 0)
            adjacency.append({0: (i, 2)})
    return PortLabeledGraph(adjacency, name=name)


def three_round_summary(graph: PortLabeledGraph):
    """The pre-fix fingerprint payload: exactly 3 hash rounds, then fold."""

    def digest(payload: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(payload.encode("ascii"), digest_size=8).digest(), "big"
        )

    rows = [graph.adjacency(v) for v in graph.nodes()]
    colors = [len(row) for row in rows]
    for _ in range(3):
        colors = [
            digest(repr((colors[v], tuple((q, colors[u]) for u, q in row))))
            for v, row in enumerate(rows)
        ]
    return (
        graph.num_nodes,
        graph.num_edges,
        tuple(sorted(graph.degree_histogram().items())),
        tuple(sorted(colors)),
    )


class TestFingerprintCollisionFix:
    def test_debruijn_pair_collides_at_three_rounds_but_not_at_the_fixpoint(self):
        first = debruijn_prefer_one(7)
        second = debruijn_fkm(7)
        # genuinely different necklaces (no rotation maps one to the other)
        assert first != second
        rotations = {tuple(first[i:] + first[:i]) for i in range(len(first))}
        assert tuple(second) not in rotations
        g1 = leaf_decorated_cycle(first, "debruijn-prefer-one")
        g2 = leaf_decorated_cycle(second, "debruijn-fkm")
        # the legacy fixed-round scheme cannot tell them apart ...
        assert three_round_summary(g1) == three_round_summary(g2)
        # ... the fixpoint fingerprint can
        assert g1.fingerprint() != g2.fingerprint()

    def test_fingerprint_still_relabeling_invariant(self):
        graph = leaf_decorated_cycle(debruijn_prefer_one(4), "small-necklace")
        n = graph.num_nodes
        perm = [(v * 7 + 3) % n for v in range(n)]
        assert sorted(perm) == list(range(n))
        assert graph.fingerprint() == graph.relabeled(perm).fingerprint()

    def test_fingerprint_is_memoised_and_stable(self):
        graph = generators.asymmetric_cycle(9)
        digest = graph.fingerprint()
        assert digest == graph.fingerprint()
        rebuilt = PortLabeledGraph([graph.adjacency(v) for v in graph.nodes()])
        assert rebuilt.fingerprint() == digest


class TestCacheKey:
    def test_relabeled_copy_that_differs_gets_a_different_key(self):
        # the key names the exact labeled graph: a relabeling that changes
        # the adjacency is a different store-index key (the fingerprint,
        # which is relabeling-invariant, stays equal)
        graph = generators.random_connected_graph(10, extra_edges=4, seed=3)
        n = graph.num_nodes
        perm = [(v * 3 + 1) % n for v in range(n)]
        assert sorted(perm) == list(range(n))
        relabeled = graph.relabeled(perm)
        assert relabeled != graph
        assert relabeled.fingerprint() == graph.fingerprint()
        assert relabeled.cache_key() != graph.cache_key()
        assert graph.cache_key() == graph.cache_key()

    def test_debruijn_pair_gets_distinct_keys(self):
        # the pair the old 3-round relabeling-invariant key aliased
        g1 = leaf_decorated_cycle(debruijn_prefer_one(7), "a")
        g2 = leaf_decorated_cycle(debruijn_fkm(7), "b")
        assert g1 != g2
        assert g1.cache_key() != g2.cache_key()

    def test_rebuilt_and_renamed_copies_share_the_key(self):
        # equal graphs share the key whatever their names: one graph
        # submitted as adjacency and as a spec must hit one store record
        graph = generators.random_connected_graph(10, extra_edges=4, seed=3)
        rows = [graph.adjacency(v) for v in graph.nodes()]
        rebuilt = PortLabeledGraph(rows)
        renamed = PortLabeledGraph(rows, name="a different name")
        assert rebuilt == graph == renamed
        assert rebuilt.cache_key() == graph.cache_key() == renamed.cache_key()

    def test_cache_key_digest_is_pinned(self):
        from repro.portgraph.io import graph_to_bytes

        graph = generators.asymmetric_cycle(6)
        # BLAKE2b-128 of the name-free body of graph_to_bytes: for an
        # unnamed graph that is everything after the zero name length
        unnamed = PortLabeledGraph([graph.adjacency(v) for v in graph.nodes()])
        body = graph_to_bytes(unnamed)[1:]
        assert graph.cache_key() == hashlib.blake2b(body, digest_size=16).hexdigest()
        assert graph.cache_key() == "769fe3842008b4b85a8ad76c87209221"

    def test_distinct_small_graphs_get_distinct_cache_keys(self):
        keys = {
            generators.path_graph(6).cache_key(),
            generators.star_graph(5).cache_key(),
            generators.cycle_graph(6).cache_key(),
            generators.asymmetric_cycle(6).cache_key(),
            generators.complete_graph(4).cache_key(),
        }
        assert len(keys) == 5


def never_refined_copy(graph: PortLabeledGraph) -> PortLabeledGraph:
    return PortLabeledGraph([graph.adjacency(v) for v in graph.nodes()], validate=False)


def deep_fixpoint_graphs():
    """Graphs whose refinement fixpoint lies past the fingerprint's 64-round cap."""
    from repro.runner import GraphSpec

    return [
        generators.path_graph(300),
        GraphSpec.make("beacon-tail", blob=100, tail=200, seed=3).build(),
    ]


class TestFingerprintRoundCap:
    """The fingerprint must not depend on who refined the shared engine first."""

    def test_deep_fixpoints_really_pass_the_cap(self):
        for graph in deep_fixpoint_graphs():
            assert graph.refinement_engine().ensure_stable() + 1 > 64

    def test_refined_engine_gives_the_fresh_fingerprint(self):
        for graph in deep_fixpoint_graphs():
            graph.refinement_engine().ensure_stable()
            assert graph.fingerprint() == never_refined_copy(graph).fingerprint()

    def test_delta_replayed_engine_gives_the_fresh_fingerprint(self, isolated_refinement_cache):
        from repro.scenarios import mutation_stream

        base = deep_fixpoint_graphs()[1]
        scripts = mutation_stream(
            base,
            seed=1,
            length=2,
            kinds=("add-edge", "remove-edge", "relabel-ports"),
            region=range(100),
        )
        for script in scripts:
            entry = isolated_refinement_cache.delta_entry(base, script)
            assert entry.graph.refinement_engine().stable_depth + 1 > 64
            assert entry.graph.fingerprint() == never_refined_copy(entry.graph).fingerprint()

    def test_shallow_fixpoint_digests_are_pinned(self):
        # fixpoints well under the cap, digested with the 64-bit label chain
        # of record format 4
        pinned = {
            "373f42671695ee704bc90318e7a86e86f2cd3b26021167a1291fa789f55ef949": generators.asymmetric_cycle(9),
            "0216fceec9194a652ae25fc4446afd6d015833d4b125f6484adcc98eef81bc11": (
                generators.random_connected_graph(30, extra_edges=10, seed=5)
            ),
        }
        for digest, graph in pinned.items():
            assert graph.refinement_engine().ensure_stable() + 1 <= 63
            assert graph.fingerprint() == digest


# --------------------------------------------------------------------------- #
# the label chain's two implementations
# --------------------------------------------------------------------------- #
needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: The label chain's implementations: numpy whenever it imports, python
#: only without it (forced here by hiding numpy from the chain alone).
LABEL_PATHS = [pytest.param("numpy", marks=needs_numpy), "python"]


@contextmanager
def label_path(path: str):
    """Compute fingerprints on one implementation of the label chain."""
    if path == "python":
        with mock.patch.object(label_chain, "numpy_or_none", lambda: None):
            yield
    else:
        yield


def path_fingerprint(graph: PortLabeledGraph, path: str) -> str:
    """``fingerprint()`` of a never-refined copy of ``graph`` on ``path``."""
    with label_path(path):
        return never_refined_copy(graph).fingerprint()


def _small_connected_graph(n: int, extra_edges: int, seed: int) -> PortLabeledGraph:
    if n == 1:
        return PortLabeledGraph([{}], name="K1")
    return generators.random_connected_graph(n, extra_edges, seed=seed)


small_connected_graphs = st.builds(
    _small_connected_graph,
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)


def alternating_cycle(n: int) -> PortLabeledGraph:
    """An even cycle whose edges alternate the port pairs 0-0 and 1-1.

    Like the oriented :func:`generators.cycle_graph` (every edge 0-1), every
    node has one port 0 and one port 1 with reverse ports 0 and 1 behind
    them, and every node has the same view at every depth; only which
    reverse port sits behind which port differs.
    """
    assert n % 2 == 0
    adjacency = [{} for _ in range(n)]
    for v in range(n):
        u = (v + 1) % n
        port = v % 2
        adjacency[v][port] = (u, port)
        adjacency[u][port] = (v, port)
    return PortLabeledGraph(adjacency, name=f"alternating-cycle-{n}")


@needs_numpy
class TestLabelChainPathsAgree:
    """The python path (per class) and the numpy path (per node) give one value."""

    @given(graph=small_connected_graphs)
    @example(graph=PortLabeledGraph([{}]))  # n = 1: no darts
    @example(graph=generators.two_node_graph())
    @settings(max_examples=60, deadline=None)
    def test_random_connected_graphs(self, graph):
        assert path_fingerprint(graph, "python") == path_fingerprint(graph, "numpy")

    def test_deep_fixpoints_past_the_round_cap(self):
        for graph in deep_fixpoint_graphs():
            assert path_fingerprint(graph, "python") == path_fingerprint(graph, "numpy")

    def test_delta_replayed_engine_under_numpy(self, isolated_refinement_cache):
        from test_kernel_equivalence import kinds_of, pass_log

        from repro.scenarios import mutation_stream

        with use_backend("numpy"), pass_log() as log:
            base = deep_fixpoint_graphs()[1]
            base.refinement_engine().ensure_stable()
            assert set(kinds_of(log, base.refinement_engine())) == {"vector"}
            scripts = mutation_stream(
                base,
                seed=2,
                length=2,
                kinds=("add-edge", "remove-edge", "relabel-ports"),
                region=range(100),
            )
            for script in scripts:
                replayed = isolated_refinement_cache.delta_entry(base, script).graph
                engine = replayed.refinement_engine()
                # the replay refines by its own per-depth replay, not by
                # passes of either kind, even under numpy
                assert engine.passes > 0 and kinds_of(log, engine) == []
                twin = never_refined_copy(replayed)
                twin.adopt_csr(replayed.csr())
                twin.adopt_engine(engine)
                with label_path("python"):
                    python_value = twin.fingerprint()
                assert replayed.fingerprint() == python_value
                assert python_value == never_refined_copy(replayed).fingerprint()


@pytest.mark.parametrize("path", LABEL_PATHS)
class TestFingerprintPropertiesOnEachLabelPath:
    def test_relabeling_invariant(self, path):
        for graph in (
            leaf_decorated_cycle(debruijn_prefer_one(4), "small-necklace"),
            generators.random_connected_graph(12, extra_edges=5, seed=9),
        ):
            n = graph.num_nodes
            perm = [(v * 7 + 3) % n for v in range(n)]
            assert sorted(perm) == list(range(n))
            assert path_fingerprint(graph, path) == path_fingerprint(graph.relabeled(perm), path)

    def test_debruijn_pair_stays_distinct(self, path):
        g1 = leaf_decorated_cycle(debruijn_prefer_one(7), "debruijn-prefer-one")
        g2 = leaf_decorated_cycle(debruijn_fkm(7), "debruijn-fkm")
        assert path_fingerprint(g1, path) != path_fingerprint(g2, path)

    def test_port_order_is_part_of_the_label(self, path):
        # same n, m, degrees and class counts (one class at every depth):
        # only the pairing of ports with reverse ports tells them apart
        oriented = generators.cycle_graph(8)
        alternating = alternating_cycle(8)
        for graph in (oriented, alternating):
            engine = graph.refinement_engine()
            assert engine.ensure_stable() == 0 and engine.class_counts == (1, 1)
        assert path_fingerprint(oriented, path) != path_fingerprint(alternating, path)
