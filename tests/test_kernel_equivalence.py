"""Kernel-vs-legacy equivalence suite.

The CSR kernel refactor (incremental worklist refinement, block-cut-tree PE
queries, distance-pruned PPE/CPPE searches) must be *observationally
identical* to the straightforward implementations it replaced.  This module
keeps faithful copies of the pre-refactor algorithms — full-sweep partition
refinement, per-removed-node BFS components, the unpruned joint sequence
search — and checks, on a randomized corpus and on members of the paper's
three lower-bound families, that

* the refinement partition at *every* depth is identical (and identical to a
  brute-force comparison of explicit view trees), and
* ψ_S / ψ_PE / ψ_PPE / ψ_CPPE agree exactly.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    complete_port_path_election_index,
    is_feasible,
    port_election_index,
    port_path_election_index,
    selection_index,
)
from repro.families import (
    build_gdk_member,
    build_jmuk_member,
    build_udk_member,
    jmuk_border_count,
    udk_tree_count,
)
from repro.kernel import CSRPartitionRefinement, numpy_available, use_backend
from repro.portgraph import generators
from repro.portgraph.graph import PortLabeledGraph
from repro.views import ViewRefinement, augmented_view, view_key


# --------------------------------------------------------------------------- #
# faithful copies of the pre-refactor implementations
# --------------------------------------------------------------------------- #
def legacy_color_history(graph, extra_depths: int = 1) -> List[List[int]]:
    """Full-sweep refinement colours per depth, up to the fixpoint (+ extras)."""

    def canonical(colors):
        mapping: Dict[int, int] = {}
        out = []
        for c in colors:
            if c not in mapping:
                mapping[c] = len(mapping)
            out.append(mapping[c])
        return out

    history = [canonical([graph.degree(v) for v in graph.nodes()])]
    prev_count = len(set(history[0]))
    stable_hit = 0
    while stable_hit < extra_depths:
        last = history[-1]
        signatures: Dict[Tuple, int] = {}
        new_colors = []
        for v in graph.nodes():
            signature = (last[v], tuple((q, last[u]) for u, q in graph.adjacency(v)))
            color = signatures.get(signature)
            if color is None:
                color = len(signatures)
                signatures[signature] = color
            new_colors.append(color)
        history.append(new_colors)
        if len(signatures) == prev_count:
            stable_hit += 1
        prev_count = len(signatures)
    return history


def _legacy_classes(colors: Sequence[int]) -> Dict[int, List[int]]:
    classes: Dict[int, List[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return classes


def _legacy_first_unique_depth(history: List[List[int]], stable: int) -> Optional[int]:
    for depth in range(stable + 1):
        counts: Dict[int, int] = {}
        for c in history[depth]:
            counts[c] = counts.get(c, 0) + 1
        if any(count == 1 for count in counts.values()):
            return depth
    return None


def legacy_selection_index(graph) -> Optional[int]:
    history = legacy_color_history(graph)
    return _legacy_first_unique_depth(history, len(history) - 2)


class LegacyRemovedNodeComponents:
    """The pre-refactor per-removed-node BFS component cache."""

    def __init__(self, graph) -> None:
        self._graph = graph
        self._cache: Dict[int, List[int]] = {}

    def components_without(self, removed: int) -> List[int]:
        cached = self._cache.get(removed)
        if cached is not None:
            return cached
        graph = self._graph
        comp = [-1] * graph.num_nodes
        comp[removed] = -2
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
        self._cache[removed] = comp
        return comp

    def first_port_ok(self, v: int, port: int, leader: int) -> bool:
        w = self._graph.neighbor(v, port)
        if w == leader:
            return True
        comp = self.components_without(v)
        return comp[w] == comp[leader]


def legacy_port_election_index(graph) -> Optional[int]:
    history = legacy_color_history(graph)
    stable = len(history) - 2
    start = _legacy_first_unique_depth(history, stable)
    if start is None:
        return None
    cut = LegacyRemovedNodeComponents(graph)
    depth = start
    while True:
        classes = _legacy_classes(history[min(depth, stable)])
        singletons = sorted(m[0] for m in classes.values() if len(m) == 1)
        for leader in singletons:
            feasible = True
            for members in classes.values():
                if members == [leader]:
                    continue
                min_degree = min(graph.degree(v) for v in members)
                if not any(
                    all(cut.first_port_ok(v, port, leader) for v in members)
                    for port in range(min_degree)
                ):
                    feasible = False
                    break
            if feasible:
                return depth
        if depth >= stable:
            return None
        depth += 1


def legacy_common_path_sequence(
    graph, members, leader, *, complete, max_states=200_000
) -> Optional[Tuple[int, ...]]:
    """The pre-refactor joint BFS: no distance pruning, state-count budget only."""
    if any(v == leader for v in members):
        return None
    max_length = graph.num_nodes - 1
    start_positions = tuple(members)
    start_visited = tuple(frozenset((v,)) for v in members)
    queue: deque = deque([(start_positions, start_visited, ())])
    seen = {(start_positions, start_visited)}
    while queue:
        positions, visited, sequence = queue.popleft()
        steps_taken = len(sequence) // 2 if complete else len(sequence)
        if steps_taken >= max_length:
            continue
        min_degree = min(graph.degree(v) for v in positions)
        for port in range(min_degree):
            next_nodes: List[int] = []
            incoming_ports = set()
            blocked = False
            for i, v in enumerate(positions):
                u, q = graph.endpoint(v, port)
                if u in visited[i]:
                    blocked = True
                    break
                next_nodes.append(u)
                incoming_ports.add(q)
            if blocked:
                continue
            if complete and len(incoming_ports) != 1:
                continue
            if complete:
                new_sequence = sequence + (port, next(iter(incoming_ports)))
            else:
                new_sequence = sequence + (port,)
            if all(u == leader for u in next_nodes):
                return new_sequence
            if any(u == leader for u in next_nodes):
                continue
            new_positions = tuple(next_nodes)
            new_visited = tuple(visited[i] | {next_nodes[i]} for i in range(len(positions)))
            key = (new_positions, new_visited)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise RuntimeError("legacy search limit")
            queue.append((new_positions, new_visited, new_sequence))
    return None


def legacy_path_index(graph, *, complete) -> Optional[int]:
    history = legacy_color_history(graph)
    stable = len(history) - 2
    start = _legacy_first_unique_depth(history, stable)
    if start is None:
        return None
    depth = start
    while True:
        classes = _legacy_classes(history[min(depth, stable)])
        singletons = sorted(m[0] for m in classes.values() if len(m) == 1)
        for leader in singletons:
            feasible = True
            for members in classes.values():
                if members == [leader]:
                    continue
                if (
                    legacy_common_path_sequence(
                        graph, members, leader, complete=complete
                    )
                    is None
                ):
                    feasible = False
                    break
            if feasible:
                return depth
        if depth >= stable:
            return None
        depth += 1


def assert_partitions_identical(graph, depths=None) -> None:
    refinement = ViewRefinement(graph)
    stable = refinement.ensure_stable()
    history = legacy_color_history(graph, extra_depths=2)
    if depths is None:
        depths = range(min(stable + 2, len(history)))
    for depth in depths:
        assert refinement.colors(depth) == history[depth], f"depth {depth}"
        assert refinement.num_classes(depth) == len(set(history[depth]))


# --------------------------------------------------------------------------- #
# randomized corpus
# --------------------------------------------------------------------------- #
graph_strategy = st.builds(
    generators.random_connected_graph,
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestRandomizedEquivalence:
    @given(graph=graph_strategy)
    @settings(max_examples=40, deadline=None)
    def test_partitions_identical_at_every_depth(self, graph):
        assert_partitions_identical(graph)

    @given(graph=graph_strategy)
    @settings(max_examples=20, deadline=None)
    def test_partitions_match_brute_force_view_trees(self, graph):
        refinement = ViewRefinement(graph)
        for depth in range(4):
            keys = [view_key(augmented_view(graph, v, depth)) for v in graph.nodes()]
            assert len(set(keys)) == refinement.num_classes(depth)
            for u in graph.nodes():
                for v in graph.nodes():
                    assert (keys[u] == keys[v]) == refinement.views_equal(u, v, depth)

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_selection_and_port_election_indices_match_legacy(self, graph):
        refinement = ViewRefinement(graph)
        assert selection_index(graph, refinement=refinement) == legacy_selection_index(graph)
        assert port_election_index(graph, refinement=refinement) == legacy_port_election_index(
            graph
        )

    @given(
        graph=st.builds(
            generators.random_connected_graph,
            st.integers(min_value=3, max_value=10),
            st.integers(min_value=0, max_value=5),
            seed=st.integers(min_value=0, max_value=10_000),
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_path_election_indices_match_legacy(self, graph):
        refinement = ViewRefinement(graph)
        assert port_path_election_index(graph, refinement=refinement) == legacy_path_index(
            graph, complete=False
        )
        assert complete_port_path_election_index(
            graph, refinement=refinement
        ) == legacy_path_index(graph, complete=True)


# --------------------------------------------------------------------------- #
# the seeded scenario corpus: differential conformance
# --------------------------------------------------------------------------- #
def _corpus_graph(index: int, seed: int):
    """The ``index``-th graph of the mixed corpus at ``seed`` (prefix-stable)."""
    from repro.scenarios import corpus_specs

    return corpus_specs(index + 1, seed=seed, corpus="mixed")[index].build()


#: Random draws over the whole mixed corpus -- every scenario family
#: (random-regular, connected Erdős–Rényi, circulant, torus, twisted torus,
#: de Bruijn-like) plus the classic generators, at every corpus seed.
corpus_strategy = st.builds(
    _corpus_graph,
    st.integers(min_value=0, max_value=21),
    st.integers(min_value=0, max_value=2_000),
)


class TestCorpusConformance:
    """The kernel path must agree with the legacy ``views/`` path on the corpus.

    The randomized-equivalence suite above draws from one generator family;
    the scenario corpus deliberately mixes regular, heavy-edged, symmetric
    and shift-structured graphs, which exercise different refinement
    splitting orders, block-cut shapes and joint-search prunings.
    """

    @given(graph=corpus_strategy)
    @settings(max_examples=30, deadline=None)
    def test_partitions_identical_at_every_depth(self, graph):
        assert_partitions_identical(graph)

    @given(graph=corpus_strategy)
    @settings(max_examples=30, deadline=None)
    def test_feasibility_and_polynomial_indices_match_legacy(self, graph):
        refinement = ViewRefinement(graph)
        legacy_psi_s = legacy_selection_index(graph)
        assert is_feasible(graph, refinement=refinement) == (legacy_psi_s is not None)
        assert selection_index(graph, refinement=refinement) == legacy_psi_s
        assert port_election_index(graph, refinement=refinement) == legacy_port_election_index(
            graph
        )

    @given(graph=corpus_strategy)
    @settings(max_examples=12, deadline=None)
    def test_path_election_indices_match_legacy(self, graph):
        refinement = ViewRefinement(graph)
        assert port_path_election_index(graph, refinement=refinement) == legacy_path_index(
            graph, complete=False
        )
        assert complete_port_path_election_index(
            graph, refinement=refinement
        ) == legacy_path_index(graph, complete=True)


# --------------------------------------------------------------------------- #
# the three lower-bound families
# --------------------------------------------------------------------------- #
class TestFamilyEquivalence:
    def test_gdk_member_full_equivalence(self):
        graph = build_gdk_member(4, 1, 3).graph
        assert_partitions_identical(graph)
        assert selection_index(graph) == legacy_selection_index(graph) == 1
        assert port_election_index(graph) == legacy_port_election_index(graph) == 2
        assert port_path_election_index(graph) == legacy_path_index(graph, complete=False)
        assert complete_port_path_election_index(graph) == legacy_path_index(
            graph, complete=True
        )

    def test_udk_member_refinement_and_poly_indices(self):
        sigma = tuple(1 for _ in range(udk_tree_count(4, 1)))
        graph = build_udk_member(4, 1, sigma).graph
        assert_partitions_identical(graph)
        assert selection_index(graph) == legacy_selection_index(graph) == 1
        assert port_election_index(graph) == legacy_port_election_index(graph) == 1

    @pytest.mark.slow
    def test_jmuk_member_refinement_and_selection(self):
        # J_{2,4} is the smallest member of the family (n > 10^5): the
        # exponential PPE/CPPE searches are out of reach for the legacy
        # implementation by design, so the equivalence check covers the
        # partitions around the interesting depths and the polynomial ψ_S
        # (ψ_PE = ψ_S = k on this class is asserted against the paper's value).
        k = 4
        y = tuple(0 for _ in range(2 ** (jmuk_border_count(2, k) - 1)))
        graph = build_jmuk_member(2, k, y).graph
        refinement = ViewRefinement(graph)
        history = legacy_color_history(graph, extra_depths=1)
        for depth in range(min(k + 2, len(history))):
            assert refinement.colors(depth) == history[depth], f"depth {depth}"
        assert selection_index(graph, refinement=refinement) == k
        assert _legacy_first_unique_depth(history[: k + 2], k + 1) == k
        assert port_election_index(graph, refinement=refinement) == k


# --------------------------------------------------------------------------- #
# depths stored as churn past a full table
# --------------------------------------------------------------------------- #
#: Graphs whose engines store a full table after depth 0, then log depths
#: past it: the beacon tail's log reaches n pairs at depth 69 of 99, and the
#: random graph's first pass changes over half its nodes.
STORED_DEPTH_GRAPHS = {
    "beacon-tail": lambda: generators.beacon_tail_graph(100, 200, seed=11),
    "random": lambda: generators.random_connected_graph(300, 300, seed=1),
}

STORED_DEPTH_BACKENDS = ("python",) + (("numpy", "auto") if numpy_available() else ())


class TestStoredDepths:
    @pytest.mark.parametrize("backend", STORED_DEPTH_BACKENDS)
    @pytest.mark.parametrize("name", sorted(STORED_DEPTH_GRAPHS))
    def test_depths_queried_in_any_order_match_the_full_sweep(self, name, backend):
        graph = STORED_DEPTH_GRAPHS[name]()
        history = legacy_color_history(graph, extra_depths=1)
        with use_backend(backend):
            engine = CSRPartitionRefinement(graph.csr())
            sequential = CSRPartitionRefinement(graph.csr())
        engine.ensure_stable()
        sequential.ensure_stable()
        assert len(engine._full) >= 2  # a full table past depth 0
        depths = list(range(engine.computed_depth + 1))
        shuffled = random.Random(len(depths)).sample(depths, len(depths))
        by_depth = {depth: list(engine.colors_at(depth)) for depth in shuffled}
        in_order = [list(sequential.colors_at(depth)) for depth in depths]
        assert [by_depth[depth] for depth in depths] == in_order == history
        assert engine.canonical_tables() == history


# --------------------------------------------------------------------------- #
# four-way matrix: legacy views / worklist passes / vector passes / auto
# --------------------------------------------------------------------------- #
def _fresh_copy(graph) -> PortLabeledGraph:
    """An independent instance of the same labeled graph (no memoised state)."""
    return PortLabeledGraph(
        [graph.adjacency(v) for v in graph.nodes()], name=graph.name, validate=False
    )


@contextmanager
def pass_log():
    """Log ``(engine, kind)`` for every refinement pass run inside the context."""
    log = []
    originals = {}
    for kind in ("vector", "worklist"):
        name = f"_{kind}_pass"
        originals[name] = original = getattr(CSRPartitionRefinement, name)

        def logged(self, _original=original, _kind=kind):
            log.append((self, _kind))
            return _original(self)

        setattr(CSRPartitionRefinement, name, logged)
    try:
        yield log
    finally:
        for name, original in originals.items():
            setattr(CSRPartitionRefinement, name, original)


def kinds_of(log, engine):
    """The pass kinds ``engine`` ran, in order, from a :func:`pass_log`."""
    return [kind for owner, kind in log if owner is engine]


#: The pass kinds each selection of the hook may run.
KINDS_BY_BACKEND = {"python": {"worklist"}, "numpy": {"vector"}, "auto": {"vector", "worklist"}}


def _four_way_partitions_identical(graph) -> None:
    """Legacy full-sweep, worklist passes, vector passes and the engine's own
    choice per pass must agree exactly."""
    history = legacy_color_history(graph, extra_depths=1)
    engines = {}
    for backend in KINDS_BY_BACKEND:
        with use_backend(backend):
            engines[backend] = CSRPartitionRefinement(graph.csr())
    python_engine = engines["python"]
    with pass_log() as log:
        stable = python_engine.ensure_stable()
        for engine in engines.values():
            assert engine.ensure_stable() == stable
    for backend, engine in engines.items():
        kinds = kinds_of(log, engine)
        assert len(kinds) == engine.passes
        assert set(kinds) <= KINDS_BY_BACKEND[backend]
    tables = python_engine.canonical_tables()
    for depth in range(min(len(tables), len(history))):
        assert tables[depth] == history[depth], f"depth {depth}"
    # depths queried out of order materialise from the stored partitions
    # exactly as in order
    depths = list(range(stable + 1))
    shuffled = random.Random(stable).sample(depths, len(depths))
    for engine in engines.values():
        by_depth = {depth: list(engine.colors_at(depth)) for depth in shuffled}
        assert [by_depth[depth] for depth in depths] == tables[: stable + 1]
    for engine in (engines["numpy"], engines["auto"]):
        assert engine.class_counts == python_engine.class_counts
        assert engine.computed_depth == python_engine.computed_depth
        assert engine.passes == python_engine.passes
        assert engine.canonical_tables() == tables
        for depth in range(stable + 1):
            python_colors = python_engine.colors_at(depth)
            colors = engine.colors_at(depth)
            # byte identity, not just value equality: same array typecode too
            assert python_colors.typecode == colors.typecode
            assert python_colors.tobytes() == colors.tobytes()
            assert python_engine.members_at(depth) == engine.members_at(depth)
            assert python_engine.unique_at(depth) == engine.unique_at(depth)
            assert python_engine.num_classes_at(depth) == engine.num_classes_at(depth)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestFourWayPassKindMatrix:
    """Vector passes and the engine's per-pass choice join the legacy-vs-worklist
    contract as third and fourth columns."""

    @given(graph=graph_strategy)
    @settings(max_examples=30, deadline=None)
    def test_partitions_identical_across_all_four(self, graph):
        _four_way_partitions_identical(graph)

    @given(graph=corpus_strategy)
    @settings(max_examples=20, deadline=None)
    def test_corpus_partitions_identical_across_all_four(self, graph):
        _four_way_partitions_identical(graph)

    @given(graph=graph_strategy)
    @settings(max_examples=12, deadline=None)
    def test_indices_identical_across_backends(self, graph):
        from repro.runner import refinement_cache

        observed = {}
        for backend in KINDS_BY_BACKEND:
            with use_backend(backend):
                refinement_cache.clear()  # no cross-backend entry reuse
                fresh = _fresh_copy(graph)
                refinement = ViewRefinement(fresh)
                observed[backend] = (
                    selection_index(fresh, refinement=refinement),
                    port_election_index(fresh, refinement=refinement),
                    port_path_election_index(fresh, refinement=refinement),
                    complete_port_path_election_index(fresh, refinement=refinement),
                    fresh.fingerprint(),
                )
        refinement_cache.clear()
        assert observed["python"] == observed["numpy"] == observed["auto"]

    def test_stored_depths_identical_across_all_four(self):
        for build in STORED_DEPTH_GRAPHS.values():
            _four_way_partitions_identical(build())

    def test_family_members_identical_across_backends(self):
        members = [
            build_gdk_member(4, 1, 3).graph,
            build_udk_member(4, 1, tuple(1 for _ in range(udk_tree_count(4, 1)))).graph,
        ]
        for graph in members:
            _four_way_partitions_identical(graph)
