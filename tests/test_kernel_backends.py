"""Pass-kind byte-identity property suite.

The refinement engine runs each pass as a *vector* pass (whole-array numpy)
or a *worklist* pass (Python loops over the previous pass's splits), picked
per pass.  Whichever kinds run, everything observable must be
*byte-identical* -- canonical colour tables, ψ indices, advice bitstrings,
store record bytes, fingerprints -- across the seeded scenario corpus and
the known hard cases (the de Bruijn fingerprint-collision regression pair).
These properties are what lets every layer above the kernel (cache, store,
runner, service) ignore which kinds ran.  The pass choice itself, the hook
that forces it and the vector pass's signature packing are exercised here
too.

Everything that runs vector passes is skipped cleanly when numpy is absent
-- that environment runs worklist passes only.
"""

from __future__ import annotations

import itertools
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_kernel_equivalence import _fresh_copy, kinds_of, pass_log
from test_portgraph_fingerprint import label_path

from repro.core import (
    complete_port_path_election_index,
    port_election_index,
    selection_index,
)
from repro.kernel import (
    CSRPartitionRefinement,
    active_backend,
    numpy_available,
    use_backend,
)
from repro.kernel import backend as backend_module
from repro.kernel.csr import CSRGraph
from repro.kernel.refine import VECTOR_MIN_NODES, pack_columns
from repro.portgraph import generators
from repro.runner import refinement_cache
from repro.scenarios import corpus_specs
from repro.store import ArtifactRecord

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def _per_backend(graph, compute):
    """``compute(fresh_graph)`` with worklist passes only and vector passes only."""
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
# the hook that forces pass kinds
# --------------------------------------------------------------------------- #
class TestBackendSelection:
    def test_use_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            with use_backend("fortran"):
                pass

    def test_use_backend_restores_prior_selection(self):
        before = active_backend()
        with use_backend("python") as resolved:
            assert resolved == "python"
            assert active_backend() == "python"
        assert active_backend() == before

    def test_auto_resolves_to_numpy_exactly_when_available(self):
        with use_backend("auto") as resolved:
            assert resolved == ("numpy" if numpy_available() else "python")

    @pytest.mark.skipif(numpy_available(), reason="needs a numpy-free interpreter")
    def test_forcing_numpy_without_numpy_raises(self):
        with pytest.raises(RuntimeError):
            with use_backend("numpy"):
                pass

    def test_forced_kinds_bind_at_construction(self):
        """An engine keeps the kinds forced when it was built, refined outside."""
        graph = generators.grid_graph(24, 24)  # large enough for vector passes
        forced = {"python": "worklist"}
        if numpy_available():
            forced["numpy"] = "vector"
        engines = {}
        for backend in forced:
            with use_backend(backend):
                engines[backend] = CSRPartitionRefinement(graph.csr())
        with pass_log() as log:
            for engine in engines.values():
                engine.ensure_stable()
        for backend, kind in forced.items():
            assert set(kinds_of(log, engines[backend])) == {kind}
            assert engines[backend].canonical_tables() == engines["python"].canonical_tables()


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
                return None  # infeasible: identically so under both pass kinds
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
        # pass kinds: hide numpy from the chain alone to take its python path
        with label_path("python"):
            python_path = _per_backend(graph, lambda fresh: fresh.fingerprint())
        assert python_path == observed

    def test_colour_entries_are_plain_python_ints(self):
        # numpy scalars leaking into the public surface would break JSON
        # serialisation downstream (service responses, NDJSON streams)
        graph = generators.asymmetric_cycle(9)
        with use_backend("numpy"):
            engine = CSRPartitionRefinement(graph.csr())
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
    under both pass kinds: identical per-kind fingerprints, and still
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


# --------------------------------------------------------------------------- #
# the engine's choice of pass kind
# --------------------------------------------------------------------------- #
def _beacon_tail(blob: int, tail: int, seed: int):
    return generators.beacon_tail_graph(blob, tail, seed=seed)


#: Graphs whose fixpoints lie from one to a few dozen depths deep.
deep_or_shallow_strategy = st.one_of(
    corpus_strategy,
    st.builds(
        generators.random_connected_graph,
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(
        _beacon_tail,
        st.integers(min_value=2, max_value=15).map(lambda half: 2 * half),  # a 3-regular beacon
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(generators.asymmetric_cycle, st.integers(min_value=3, max_value=40)),
)


def _observed(engine):
    return (
        engine.canonical_tables(),
        engine.class_counts,
        engine.stable_depth,
        engine.computed_depth,
        engine.passes,
    )


@needs_numpy
class TestPassChoice:
    @given(
        graph=deep_or_shallow_strategy,
        kinds=st.lists(st.booleans(), min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_sequence_of_pass_kinds_matches_worklist_passes(self, graph, kinds):
        """Forcing each pass's kind -- hand-overs at every depth, and returns
        to vector passes -- changes nothing observable."""
        csr = graph.csr()
        with use_backend("python"):
            reference = CSRPartitionRefinement(csr)
        reference.ensure_stable()
        sequence = itertools.cycle(kinds)  # True = vector
        with mock.patch.object(
            CSRPartitionRefinement, "_next_pass_is_vector", lambda self: next(sequence)
        ):
            engine = CSRPartitionRefinement(csr)
            engine.ensure_stable()
        assert _observed(engine) == _observed(reference)

    def _kinds(self, graph):
        engine = CSRPartitionRefinement(graph.csr())
        with pass_log() as log:
            engine.ensure_stable()
        return engine, kinds_of(log, engine)

    def test_a_graph_under_the_size_constant_runs_worklist_passes_only(self):
        graph = generators.asymmetric_cycle(VECTOR_MIN_NODES - 1)
        _engine, kinds = self._kinds(graph)
        assert set(kinds) == {"worklist"}

    def test_beacon_tail_hands_over_to_worklist_passes_to_its_fixpoint(self):
        engine, kinds = self._kinds(_beacon_tail(1_000, 5_000, 1))
        vector = kinds.count("vector")
        assert 1 <= vector <= 4
        assert kinds == ["vector"] * vector + ["worklist"] * (len(kinds) - vector)
        assert engine.stable_depth > 2_000

    def test_a_random_graph_runs_vector_passes_only(self):
        _engine, kinds = self._kinds(generators.random_connected_graph(5_000, 5_000, seed=1))
        assert set(kinds) == {"vector"}

    def test_without_numpy_every_pass_is_a_worklist_pass(self):
        graph = generators.random_connected_graph(5_000, 5_000, seed=1)
        with use_backend("python"):
            reference = CSRPartitionRefinement(graph.csr())
        reference.ensure_stable()
        with mock.patch.object(backend_module, "_numpy", False):
            engine, kinds = self._kinds(graph)
            assert _observed(engine) == _observed(reference)
        assert set(kinds) == {"worklist"}


# --------------------------------------------------------------------------- #
# the vector pass's signature packing
# --------------------------------------------------------------------------- #
@needs_numpy
class TestVectorPacking:
    def test_int32_columns_pack_like_python_ints(self):
        import numpy

        rng = numpy.random.default_rng(3)
        widths = (20, 3, 20, 3, 20, 3, 20, 3, 20)  # words wider than 31 bits
        columns = [
            (rng.integers(0, 2**bits, size=50).astype(numpy.int32), bits) for bits in widths
        ]
        words = pack_columns(numpy, columns)
        expected = []
        for row in range(50):
            packed, word, used = [], 0, 0
            for column, bits in columns:
                if used + bits > 63:
                    packed.append(word)
                    word, used = 0, 0
                word = (word << bits) | int(column[row])
                used += bits
            packed.append(word)
            expected.append(packed)
        assert [[int(word[row]) for word in words] for row in range(50)] == expected

    def test_vector_passes_read_csr_arrays_of_any_typecode(self):
        """A CSR graph on 32-bit ``"i"`` arrays refines like the worklist passes."""
        graph = generators.random_connected_graph(3_000, extra_edges=3_000, seed=0)
        csr = graph.csr()
        narrow = CSRGraph(
            csr.num_nodes,
            csr.num_edges,
            array("i", csr.offsets),
            array("i", csr.neighbors),
            array("i", csr.reverse_ports),
        )
        with use_backend("python"):
            reference = CSRPartitionRefinement(csr)
        reference.ensure_stable()
        with use_backend("numpy"):
            engine = CSRPartitionRefinement(narrow)
        engine.ensure_stable()
        assert _observed(engine) == _observed(reference)
