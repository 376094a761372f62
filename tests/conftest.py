"""Shared fixtures for the test suite.

Seed discipline
---------------
Every randomised test input in this suite derives from :data:`TEST_CORPUS_SEED`
through the :func:`corpus_rng_factory` fixture or the pinned corpus fixtures
below -- no test seeds or samples the *global* ``random`` module.  Global
seeding is what caused seed drift between suites: whichever test ran first
moved the shared Mersenne–Twister state, so "random" fixtures silently
depended on execution order.  A per-purpose ``random.Random`` instance keyed
by a name (plus the pinned suite seed) gives every consumer its own
reproducible stream regardless of test ordering or parallelism.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.portgraph import generators

#: The single pinned seed behind every randomised fixture of the suite.
TEST_CORPUS_SEED = 20260728

#: Size of the shared scenario-corpus sample (kept small: the corpus
#: fixtures feed exact ψ searches and LOCAL-model simulations).
CORPUS_SAMPLE_COUNT = 33


@pytest.fixture
def isolated_refinement_cache():
    """A detached, empty process-wide refinement cache around one test.

    The service suites opt in with a per-file autouse wrapper; the logic
    lives here so cache-detachment semantics cannot silently diverge
    between files.
    """
    from repro.runner import refinement_cache

    refinement_cache.attach_store(None)
    refinement_cache.clear()
    yield refinement_cache
    refinement_cache.attach_store(None)
    refinement_cache.clear()


class RealPassCounter:
    """The refinement passes this process actually ran, counted at the engines."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def add(self, passes: int) -> None:
        with self._lock:
            self.count += passes


@pytest.fixture
def real_refinement_passes(monkeypatch):
    """Count every refinement pass run in this process, outside the ledger.

    Wraps the engine's ``_refine_once``, which runs every vector and
    worklist pass, and every ``apply_delta`` replay (whose per-depth passes
    bypass ``_refine_once``), so a zero-pass certificate read from the
    cache's ``refinement_passes`` ledger can be checked against the work
    that really happened.  The service computes on a thread pool in this
    process, so the counter sees every pass a served request runs; passes
    in child processes (the runner's ``--workers`` pool) are not seen.
    """
    from repro.kernel.refine import CSRPartitionRefinement

    counter = RealPassCounter()
    refine_once = CSRPartitionRefinement._refine_once

    def counted(self):
        counter.add(1)
        return refine_once(self)

    monkeypatch.setattr(CSRPartitionRefinement, "_refine_once", counted)
    replay = CSRPartitionRefinement.apply_delta

    def counted_replay(base_engine, csr, node_map, touched):
        engine = replay(base_engine, csr, node_map, touched)
        counter.add(engine.passes)
        return engine

    monkeypatch.setattr(CSRPartitionRefinement, "apply_delta", counted_replay)
    return counter


@pytest.fixture(scope="session")
def corpus_rng_factory():
    """``factory(name, seed=None) -> random.Random``: isolated, reproducible streams.

    Without ``seed``, the stream is derived from ``name`` and the suite's
    pinned :data:`TEST_CORPUS_SEED`; pass an explicit ``seed`` only to keep
    continuity with values a test pinned historically.
    """

    def factory(name: str, seed=None) -> random.Random:
        if seed is not None:
            return random.Random(seed)
        return random.Random(f"{name}:{TEST_CORPUS_SEED}")

    return factory


@pytest.fixture(scope="session")
def corpus_sample_specs():
    """A pinned slice of the mixed scenario corpus (deterministic, prefix-stable)."""
    from repro.scenarios import corpus_specs

    return corpus_specs(CORPUS_SAMPLE_COUNT, seed=TEST_CORPUS_SEED, corpus="mixed")


@pytest.fixture(scope="session")
def corpus_sample_graphs(corpus_sample_specs):
    """The built graphs of the pinned corpus sample (session-cached)."""
    return [spec.build() for spec in corpus_sample_specs]


@pytest.fixture(scope="session")
def feasible_corpus_graphs(corpus_sample_graphs):
    """Small feasible corpus graphs: the simulation-certification population."""
    from repro.core import is_feasible

    return [
        graph
        for graph in corpus_sample_graphs
        if graph.num_nodes <= 10 and is_feasible(graph)
    ]


@pytest.fixture
def three_line():
    """The paper's 3-node line with ports 0,0,1,0 (ψ_CPPE = 1)."""
    return generators.three_node_line()


@pytest.fixture
def small_feasible_graphs():
    """A handful of small feasible graphs covering different shapes."""
    return [
        generators.three_node_line(),
        generators.path_graph(4),
        generators.path_graph(5),
        generators.star_graph(3),
        generators.asymmetric_cycle(5),
        generators.asymmetric_cycle(6),
        generators.random_connected_graph(8, extra_edges=3, seed=1),
        generators.random_connected_graph(9, extra_edges=4, seed=2),
    ]


@pytest.fixture
def infeasible_graphs():
    """Graphs in which leader election is impossible (symmetric views)."""
    return [
        generators.two_node_graph(),
        generators.cycle_graph(4),
        generators.cycle_graph(6),
        generators.rotational_complete_graph(3),
        generators.rotational_complete_graph(5),
    ]
