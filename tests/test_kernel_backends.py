"""Dual-backend byte-identity property suite.

The numpy kernel backend must be *byte-identical* to the pure-python one in
everything observable -- canonical colour tables, ψ indices, advice
bitstrings, store record bytes, fingerprints -- across the seeded scenario
corpus and the known hard cases (the de Bruijn fingerprint-collision
regression pair).  These properties are what lets every layer above the
kernel (cache, store, runner, service) treat the backend as a pure speed
knob; the selection machinery itself (env var, pinning, fallback) is
exercised here too.

Everything backend-comparing is skipped cleanly when numpy is absent --
that environment instead exercises the fallback path of the whole suite.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    complete_port_path_election_index,
    port_election_index,
    selection_index,
)
from repro.kernel import (
    BACKEND_ENV_VAR,
    active_backend,
    make_refinement,
    numpy_available,
    refinement_from_stored,
    resolve_backend,
    use_backend,
)
from repro.portgraph import generators
from repro.portgraph.graph import PortLabeledGraph
from repro.runner import refinement_cache
from repro.scenarios import corpus_specs
from repro.store import ArtifactRecord

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def _fresh_copy(graph) -> PortLabeledGraph:
    """An independent instance of the same labeled graph (no memoised state)."""
    return PortLabeledGraph(
        [graph.adjacency(v) for v in graph.nodes()], name=graph.name, validate=False
    )


def _per_backend(graph, compute):
    """``compute(fresh_graph)`` under each backend, with the cache isolated."""
    observed = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            refinement_cache.clear()
            observed[backend] = compute(_fresh_copy(graph))
    refinement_cache.clear()
    return observed


def _corpus_graph(index: int, seed: int):
    return corpus_specs(index + 1, seed=seed, corpus="mixed")[index].build()


corpus_strategy = st.builds(
    _corpus_graph,
    st.integers(min_value=0, max_value=21),
    st.integers(min_value=0, max_value=2_000),
)

small_graph_strategy = st.builds(
    generators.random_connected_graph,
    st.integers(min_value=3, max_value=11),
    st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)


# --------------------------------------------------------------------------- #
# backend selection machinery
# --------------------------------------------------------------------------- #
class TestBackendSelection:
    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_python_always_resolvable(self):
        assert resolve_backend("python") == "python"

    def test_use_backend_restores_prior_selection(self):
        before_env = os.environ.get(BACKEND_ENV_VAR)
        before = active_backend()
        with use_backend("python") as resolved:
            assert resolved == "python"
            assert active_backend() == "python"
            assert os.environ[BACKEND_ENV_VAR] == "python"
        assert active_backend() == before
        assert os.environ.get(BACKEND_ENV_VAR) == before_env

    def test_auto_resolves_to_numpy_exactly_when_available(self):
        with use_backend("auto") as resolved:
            assert resolved == ("numpy" if numpy_available() else "python")

    @pytest.mark.skipif(numpy_available(), reason="needs a numpy-free interpreter")
    def test_forcing_numpy_without_numpy_raises(self):
        with pytest.raises(RuntimeError):
            resolve_backend("numpy")

    def test_engine_type_follows_backend(self):
        graph = generators.asymmetric_cycle(7)
        with use_backend("python"):
            assert type(make_refinement(graph.csr())).__name__ == "CSRPartitionRefinement"
        if numpy_available():
            with use_backend("numpy"):
                assert (
                    type(make_refinement(graph.csr())).__name__
                    == "NumpyPartitionRefinement"
                )


# --------------------------------------------------------------------------- #
# byte-identity properties
# --------------------------------------------------------------------------- #
@needs_numpy
class TestByteIdentity:
    @given(graph=corpus_strategy)
    @settings(max_examples=25, deadline=None)
    def test_colour_tables_byte_identical_on_corpus(self, graph):
        def tables(fresh):
            engine = fresh.refinement_engine()
            engine.ensure_stable()
            return [colors.tobytes() for colors in map(engine.colors_at, range(engine.computed_depth + 1))]

        observed = _per_backend(graph, tables)
        assert observed["python"] == observed["numpy"]

    @given(graph=small_graph_strategy)
    @settings(max_examples=15, deadline=None)
    def test_psi_indices_identical(self, graph):
        def indices(fresh):
            return (
                selection_index(fresh),
                port_election_index(fresh),
                complete_port_path_election_index(fresh),
            )

        observed = _per_backend(graph, indices)
        assert observed["python"] == observed["numpy"]

    @given(graph=small_graph_strategy)
    @settings(max_examples=15, deadline=None)
    def test_advice_bitstrings_identical(self, graph):
        from repro.advice import selection_with_advice_scheme

        def advice(fresh):
            scheme = selection_with_advice_scheme()
            try:
                bits = scheme.oracle.advise(fresh)
            except ValueError:
                return None  # infeasible: identically so under both backends
            assert set(bits) <= {"0", "1"}
            return bits

        observed = _per_backend(graph, advice)
        assert observed["python"] == observed["numpy"]

    @given(graph=corpus_strategy)
    @settings(max_examples=15, deadline=None)
    def test_store_record_bytes_identical(self, graph):
        def record_bytes(fresh):
            return ArtifactRecord.from_computed(fresh).to_bytes()

        observed = _per_backend(graph, record_bytes)
        assert observed["python"] == observed["numpy"]

    @given(graph=corpus_strategy)
    @settings(max_examples=20, deadline=None)
    def test_fingerprints_identical(self, graph):
        observed = _per_backend(graph, lambda fresh: fresh.fingerprint())
        assert observed["python"] == observed["numpy"]
        # the label chain runs on numpy whenever it imports, whatever the
        # engine: hide numpy from the chain alone to take its python path
        from test_portgraph_fingerprint import label_path

        with label_path("python"):
            python_path = _per_backend(graph, lambda fresh: fresh.fingerprint())
        assert python_path == observed

    @given(graph=small_graph_strategy)
    @settings(max_examples=10, deadline=None)
    def test_from_stored_serves_python_tables_unchanged(self, graph):
        csr = graph.csr()
        with use_backend("python"):
            python_engine = make_refinement(csr)
        stable = python_engine.ensure_stable()
        tables = python_engine.canonical_tables()
        with use_backend("numpy"):
            warmed = refinement_from_stored(csr, tables, stable)
        assert type(warmed).__name__ == "NumpyPartitionRefinement"
        assert warmed.passes == 0
        assert warmed.stable_depth == stable
        assert warmed.canonical_tables() == tables
        for depth in range(stable + 1):
            assert warmed.colors_at(depth).tobytes() == python_engine.colors_at(depth).tobytes()
            assert warmed.members_at(depth) == python_engine.members_at(depth)
        assert warmed.passes == 0  # queries never trigger refinement

    def test_colour_entries_are_plain_python_ints(self):
        # numpy scalars leaking into the public surface would break JSON
        # serialisation downstream (service responses, NDJSON streams)
        graph = generators.asymmetric_cycle(9)
        with use_backend("numpy"):
            engine = make_refinement(graph.csr())
        stable = engine.ensure_stable()
        for depth in range(stable + 1):
            assert all(type(c) is int for c in engine.colors_at(depth))
            assert all(
                type(v) is int for group in engine.members_at(depth) for v in group
            )
            assert all(type(v) is int for v in engine.unique_at(depth))


# --------------------------------------------------------------------------- #
# the de Bruijn fingerprint-collision regression pair
# --------------------------------------------------------------------------- #
@needs_numpy
class TestDeBruijnRegressionPair:
    """The pair that aliased under 3-round fingerprints must behave the same
    under both backends: identical per-backend fingerprints, and still
    *distinct* from each other at the fixpoint."""

    def _pair(self):
        from test_portgraph_fingerprint import (
            debruijn_fkm,
            debruijn_prefer_one,
            leaf_decorated_cycle,
        )

        return (
            leaf_decorated_cycle(debruijn_prefer_one(7), "debruijn-prefer-one"),
            leaf_decorated_cycle(debruijn_fkm(7), "debruijn-fkm"),
        )

    def test_pair_fingerprints_backend_identical_and_distinct(self):
        first, second = self._pair()
        first_prints = _per_backend(first, lambda fresh: fresh.fingerprint())
        second_prints = _per_backend(second, lambda fresh: fresh.fingerprint())
        assert first_prints["python"] == first_prints["numpy"]
        assert second_prints["python"] == second_prints["numpy"]
        assert first_prints["python"] != second_prints["python"]

    def test_pair_colour_tables_byte_identical(self):
        for graph in self._pair():
            def tables(fresh):
                engine = fresh.refinement_engine()
                stable = engine.ensure_stable()
                return [engine.colors_at(d).tobytes() for d in range(stable + 1)]

            observed = _per_backend(graph, tables)
            assert observed["python"] == observed["numpy"]
