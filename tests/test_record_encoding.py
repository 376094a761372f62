"""The encoders' whole-section paths, checked against per-value oracles.

A graph's edge varints are written in one run through
:func:`repro.portgraph.io.write_uvarints`, and the engine ranks canonical
colours through :func:`repro.kernel.refine.first_appearance_ranks`, and
groups them into the per-depth class lists and singleton lists.  Each
bulk path must give exactly the output of the per-value code it replaced,
kept below as oracles, with numpy and with numpy hidden from the module;
three pinned record digests hold the whole record to the same bytes.  The
advice bit-string helpers convert through one integer call and are checked
against per-byte oracles too.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.advice import bits_from_bytes, bytes_from_bits
from repro.core import Task
from repro.kernel import numpy_available
from repro.kernel import refine as refine_module
from repro.kernel.csr import INT_TYPECODE
from repro.kernel.refine import CSRPartitionRefinement, refinement_delta
from repro.portgraph import PortLabeledGraph, generators
from repro.portgraph import io as graph_io
from repro.portgraph.io import write_uvarints
from repro.runner import SweepSpec, evaluate_graph, refinement_cache
from repro.scenarios import corpus_specs, mutation_stream
from repro.store import ArtifactRecord


@pytest.fixture(autouse=True)
def _detached_cache(isolated_refinement_cache):
    yield isolated_refinement_cache


# --------------------------------------------------------------------------- #
# oracles: the per-value varint writer and the per-byte bit-string helpers
# --------------------------------------------------------------------------- #
def oracle_write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def oracle_uvarints(values) -> bytes:
    out = bytearray()
    for value in values:
        oracle_write_uvarint(out, value)
    return bytes(out)


def oracle_bits_from_bytes(payload: bytes) -> str:
    return "".join(format(byte, "08b") for byte in payload)


def oracle_bytes_from_bits(bits: str) -> bytes:
    if len(bits) % 8 != 0:
        raise ValueError("bit string length must be a multiple of 8")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


# --------------------------------------------------------------------------- #
# the two paths: numpy whenever it imports, the loops with numpy hidden
# --------------------------------------------------------------------------- #
needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

ENCODER_PATHS = [pytest.param("numpy", marks=needs_numpy), "python"]


@contextmanager
def encoder_path(path: str):
    """Run the varint writer and the python engine's per-depth views on one path."""
    if path == "python":
        with mock.patch.object(graph_io, "numpy_or_none", lambda: None), mock.patch.object(
            refine_module, "numpy_or_none", lambda: None
        ):
            yield
    else:
        yield


def encoded(values, path: str) -> bytes:
    out = bytearray(b"head")
    with encoder_path(path):
        write_uvarints(out, values)
    assert out[:4] == b"head"  # appends, never rewrites
    return bytes(out[4:])


#: ``array`` typecodes of integer items and the non-negative range each holds.
TYPECODE_RANGES = {
    code: (0, 2 ** (8 * array(code).itemsize - (1 if code.islower() else 0)) - 1)
    for code in "bBhHiIlLqQ"
}

BOUNDARIES = [0, 1, 127, 128, 16383, 16384, 2**21 - 1, 2**21, 2**31, 2**63 - 1]


@st.composite
def typed_arrays(draw):
    code = draw(st.sampled_from(sorted(TYPECODE_RANGES)))
    low, high = TYPECODE_RANGES[code]
    values = draw(
        st.lists(
            st.one_of(
                st.integers(low, high),
                st.sampled_from([b for b in BOUNDARIES if b <= high] + [high]),
            ),
            max_size=40,
        )
    )
    return array(code, values)


@pytest.mark.parametrize("path", ENCODER_PATHS)
class TestWriteUvarints:
    @given(values=st.lists(st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(BOUNDARIES))))
    @example(values=[])
    @example(values=[127, 128, 16383, 16384])
    @example(values=[2**31, 2**63 - 1])
    @settings(max_examples=80, deadline=None)
    def test_lists_match_the_per_value_oracle(self, path, values):
        assert encoded(values, path) == oracle_uvarints(values)
        assert encoded(tuple(values), path) == oracle_uvarints(values)

    @given(
        values=st.lists(st.integers(0, 2**63 - 1), max_size=10),
        big=st.lists(st.integers(2**63, 2**80), min_size=1, max_size=3),
        seed=st.randoms(use_true_random=False),
    )
    @example(values=[], big=[2**63], seed=None)
    @example(values=[5], big=[2**64 - 1], seed=None)
    @settings(max_examples=40, deadline=None)
    def test_lists_with_ints_of_2_63_and_beyond_match(self, path, values, big, seed):
        # numpy holds such a list as float64 or object, if at all: the loop runs
        mixed = values + big
        if seed is not None:
            seed.shuffle(mixed)
        assert encoded(mixed, path) == oracle_uvarints(mixed)

    @given(values=typed_arrays())
    @settings(max_examples=80, deadline=None)
    def test_arrays_of_every_integer_typecode_match(self, path, values):
        assert encoded(values, path) == oracle_uvarints(values.tolist())

    def test_an_empty_array_writes_nothing(self, path):
        for code in TYPECODE_RANGES:
            assert encoded(array(code), path) == b""

    @pytest.mark.parametrize(
        "values",
        [[-1], [3, -128, 4], [2**64, -1], [2**63, -1], array("l", [7, -2]), array("b", [-1])],
        ids=["list", "list-inside", "list-past-uint64", "list-past-int64", "array-l", "array-b"],
    )
    def test_negative_values_raise(self, path, values):
        with encoder_path(path), pytest.raises(ValueError):
            write_uvarints(bytearray(), values)


@needs_numpy
def test_the_numpy_path_never_falls_back_to_the_loop():
    """Integer lists, tuples and arrays are encoded without one per-value call."""

    def no_loop(out, value):
        raise AssertionError("per-value loop ran on the numpy path")

    values = [0, 127, 128, 16383, 16384, 2**40, 2**63 - 1]
    with mock.patch.object(graph_io, "write_uvarint", no_loop):
        for sequence in (values, tuple(values), array("q", values), array(INT_TYPECODE, range(300))):
            out = bytearray()
            write_uvarints(out, sequence)
            assert bytes(out) == oracle_uvarints(list(sequence))


class TestBitHelpersMatchTheirOracles:
    @given(payload=st.binary(max_size=80))
    @example(payload=b"")
    @example(payload=b"\x00\x00")
    @example(payload=b"\x80\x01\xff")
    def test_bits_from_bytes(self, payload):
        assert bits_from_bytes(payload) == oracle_bits_from_bytes(payload)

    @given(payload=st.binary(max_size=80))
    @example(payload=b"")
    def test_bytes_from_bits(self, payload):
        bits = oracle_bits_from_bytes(payload)
        assert bytes_from_bits(bits) == oracle_bytes_from_bits(bits) == payload


# --------------------------------------------------------------------------- #
# the python engine's canonical colours on both paths
# --------------------------------------------------------------------------- #
def _small_connected_graph(n: int, extra_edges: int, seed: int) -> PortLabeledGraph:
    if n == 1:
        return PortLabeledGraph([{}], name="K1")
    return generators.random_connected_graph(n, extra_edges, seed=seed)


small_connected_graphs = st.builds(
    _small_connected_graph,
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)


def python_engine_tables(engine_factory, path: str):
    """Every depth's ``colors_at``, ``members_at`` and ``unique_at`` of a
    fresh python engine, on ``path``."""
    engine = engine_factory()
    assert type(engine) is CSRPartitionRefinement
    with encoder_path(path):
        engine.ensure_stable()
        depths = range(engine.computed_depth + 1)
        tables = [engine.colors_at(depth) for depth in depths]
        views = [(engine.members_at(depth), engine.unique_at(depth)) for depth in depths]
    for table in tables:
        assert isinstance(table, array) and table.typecode == INT_TYPECODE
    return [table.tolist() for table in tables], views


@needs_numpy
class TestPythonEngineColorsAtPaths:
    @given(graph=small_connected_graphs)
    @example(graph=PortLabeledGraph([{}]))
    @example(graph=generators.cycle_graph(9))
    @settings(max_examples=60, deadline=None)
    def test_cold_engines_agree(self, graph):
        csr = graph.csr()
        ranked = python_engine_tables(lambda: CSRPartitionRefinement(csr), "numpy")
        looped = python_engine_tables(lambda: CSRPartitionRefinement(csr), "python")
        assert ranked == looped

    @pytest.mark.parametrize(
        "base",
        [
            generators.beacon_tail_graph(20, 30, degree=3, seed=2),
            generators.grid_graph(6, 7),
        ],
        ids=["beacon-tail", "grid"],
    )
    def test_delta_replayed_engines_agree_with_cold(self, base):
        base_engine = CSRPartitionRefinement(base.csr())
        base_engine.ensure_stable()
        for script in mutation_stream(base, seed=4, length=5):
            result = script.apply_to(base)
            csr = base.csr().patched(result)

            def replay():
                return refinement_delta(base_engine, csr, result.node_map, result.touched)

            ranked = python_engine_tables(replay, "numpy")
            assert ranked == python_engine_tables(replay, "python")
            cold = python_engine_tables(lambda: CSRPartitionRefinement(result.graph.csr()), "python")
            assert ranked == cold


# --------------------------------------------------------------------------- #
# the per-depth class views, checked against per-node oracles
# --------------------------------------------------------------------------- #
def oracle_class_lists(colours) -> list:
    """Class ``c`` → its nodes in ascending order, one append per node."""
    groups = {}
    for node, colour in enumerate(colours):
        groups.setdefault(colour, []).append(node)
    return [groups[colour] for colour in sorted(groups)]


def oracle_singletons(colours) -> list:
    """The nodes that share their colour with no other node."""
    sizes = Counter(colours)
    return [node for node, colour in enumerate(colours) if sizes[colour] == 1]


def _first_appearance(raw) -> list:
    first = {}
    return [first.setdefault(value, len(first)) for value in raw]


#: dense colour tables: ids ``0..c-1``, numbered by first appearance
dense_tables = st.lists(st.integers(min_value=0, max_value=6), max_size=40).map(
    _first_appearance
)

CLASS_VIEW_GRAPHS = {
    "K1": lambda: PortLabeledGraph([{}], name="K1"),
    "cycle": lambda: generators.cycle_graph(9),
    "asymmetric-cycle": lambda: generators.asymmetric_cycle(9),
    "beacon-tail": lambda: generators.beacon_tail_graph(20, 30, degree=3, seed=2),
    "grid": lambda: generators.grid_graph(6, 7),
}


class TestClassViewsMatchTheirOracles:
    """``members_at`` slices one sorted node list at the class ends and
    ``unique_at`` counts class sizes instead of building the class lists;
    both must give exactly what grouping the colour table node by node
    gives, with numpy and with numpy hidden."""

    @pytest.mark.parametrize("path", ENCODER_PATHS)
    @given(colours=dense_tables)
    @example(colours=[])
    @example(colours=[0, 1, 0, 2])
    @settings(max_examples=60, deadline=None)
    def test_any_dense_table(self, path, colours):
        table = array(INT_TYPECODE, colours)
        count = len(set(colours))
        with encoder_path(path):
            members = refine_module._class_lists(table, count)
            singletons = refine_module._singletons(table, count)
        assert members == oracle_class_lists(colours)
        assert singletons == oracle_singletons(colours)
        assert all(type(node) is int for group in members for node in group)
        assert all(type(node) is int for node in singletons)

    @pytest.mark.parametrize("path", ENCODER_PATHS)
    @pytest.mark.parametrize("name", sorted(CLASS_VIEW_GRAPHS))
    def test_every_depth_of_an_engine(self, name, path):
        engine = CSRPartitionRefinement(CLASS_VIEW_GRAPHS[name]().csr())
        with encoder_path(path):
            engine.ensure_stable()
            for depth in range(engine.computed_depth + 1):
                colours = engine.colors_at(depth).tolist()
                assert sorted(set(colours)) == list(range(engine.num_classes_at(depth)))
                # singletons first: unique_at must not lean on members_at
                assert engine.unique_at(depth) == oracle_singletons(colours)
                assert engine.members_at(depth) == oracle_class_lists(colours)


# --------------------------------------------------------------------------- #
# pinned record bytes (record format 6)
# --------------------------------------------------------------------------- #
def _replayed_record(base, script, tasks) -> ArtifactRecord:
    """The record write-through stores for ``script`` replayed onto ``base``."""
    sweep = SweepSpec.make((), tasks=[Task(code) for code in tasks])
    evaluate_graph(base, sweep)
    entry = refinement_cache.delta_entry(base, script)
    evaluate_graph(entry.graph, sweep)
    return ArtifactRecord.from_computed(entry.graph, memo=entry.memo)


def _beacon_tail_record() -> ArtifactRecord:
    base = generators.beacon_tail_graph(100, 200, degree=3, seed=11)
    script = mutation_stream(
        base, seed=1, length=1, kinds=("add-edge", "remove-edge", "relabel-ports"), region=range(100)
    )[0]
    return _replayed_record(base, script, ("S", "PE"))


def _grid_record() -> ArtifactRecord:
    base = generators.grid_graph(24, 24)
    return _replayed_record(base, mutation_stream(base, seed=1, length=1)[0], ("S", "PE"))


def _mixed_record() -> ArtifactRecord:
    graph = corpus_specs(1, seed=7, corpus="mixed")[0].build()
    evaluate_graph(graph, SweepSpec.make((), tasks=list(Task.ordered())))
    return ArtifactRecord.from_computed(graph, memo=refinement_cache.entry(graph).memo)


PINNED_RECORDS = {
    "beacon-tail": (_beacon_tail_record, "c66c4ba17beeb3daf29ac9cd390fa553a1b3de1b63d6ba02bd4dc5db6eac4286"),
    "grid": (_grid_record, "237e998cda3c932518edda28eb334df1d3d5ef778313676134fd16c2d8f8e631"),
    "mixed": (_mixed_record, "b38438c984700d6303cf1a08411732c18334274cf061668781a355fbdca22b5e"),
}


@pytest.mark.parametrize("path", ENCODER_PATHS)
@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_record_bytes_are_pinned(name, path):
    """The record bytes of format 6, on both encoder paths."""
    build, digest = PINNED_RECORDS[name]
    with encoder_path(path):
        record = build()
        payload = record.to_bytes()
    assert hashlib.sha256(payload).hexdigest() == digest
    decoded = ArtifactRecord.from_bytes(payload)
    assert decoded == record
    assert decoded.to_bytes() == payload
    if name == "mixed":
        assert [entry[0] for entry in record.psi] == ["CPPE", "PE", "PPE", "S"]
        assert all(entry[3] == "ok" and entry[4] is not None for entry in record.psi)
