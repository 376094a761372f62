"""Concurrent use of one refinement engine, from the engine and from the service.

The service computes on a thread pool, so two requests for one graph whose
coalescing keys differ (other ``tasks``, ``advice`` or budgets) reach one
cache entry and drive its :class:`~repro.kernel.refine.CSRPartitionRefinement`
at once.  The engine serialises its passes and reads under its own lock;
these tests hammer it from four threads and compare every answer with a
serial one.

The engine tests run their threads in a fresh child process: a corrupted
heap then fails the test (a non-zero exit or a signal) instead of killing
pytest.  The child sees numpy exactly when this process does, so a suite run
with numpy hidden by an import hook checks the worklist-only engine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.kernel import numpy_available
from repro.portgraph import generators

#: ``beacon-tail(blob=100, tail=400, seed=3)``: 500 nodes, fixpoint at depth
#: 199, so four threads overlap across hundreds of passes.
BEACON_TAIL = {"kind": "beacon-tail", "params": {"blob": 100, "tail": 400, "seed": 3}}

THREADS = 4
ROUNDS = 10

_ENGINE_CHILD = """
import json, sys, threading
from repro.kernel import use_backend
from repro.kernel.refine import CSRPartitionRefinement
from repro.runner import GraphSpec

spec, pass_kinds, threads, rounds = json.loads(sys.argv[1])
graph = GraphSpec.make(spec["kind"], **spec["params"]).build()
with use_backend(pass_kinds):
    serial = CSRPartitionRefinement(graph.csr())
    serial.ensure_stable()
    expected = serial.canonical_tables()
    wrong, errors = 0, []
    for _ in range(rounds):
        engine = CSRPartitionRefinement(graph.csr())
        start = threading.Barrier(threads)

        def refine():
            start.wait()
            try:
                engine.ensure_stable()
            except Exception as error:
                errors.append(repr(error))

        workers = [threading.Thread(target=refine) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if engine.canonical_tables() != expected or engine.stable_depth != serial.stable_depth:
            wrong += 1
print(json.dumps({"wrong": wrong, "errors": errors[:3]}))
"""

_SERVICE_CHILD = """
import asyncio, json, sys
from repro.runner import refinement_cache
from repro.service import ElectionService
from repro.service.service import deterministic_response

spec, threads, rounds = json.loads(sys.argv[1])
# four coalescing keys for one graph: other tasks, other depth bound
payloads = [
    {"spec": spec, "tasks": ["S"]},
    {"spec": spec, "tasks": ["PE"]},
    {"spec": spec, "tasks": ["S", "PE"]},
    {"spec": spec, "tasks": ["S"], "max_depth": 500},
][:threads]


async def serial(service):
    answers = []
    for payload in payloads:
        refinement_cache.clear()
        answers.append(deterministic_response(await service.query(payload)))
    return answers


async def concurrent(service):
    refinement_cache.clear()
    results = await asyncio.gather(
        *(service.query(payload) for payload in payloads), return_exceptions=True
    )
    return [
        repr(result) if isinstance(result, BaseException) else deterministic_response(result)
        for result in results
    ]


async def main():
    service = ElectionService(workers=threads)
    try:
        expected = await serial(service)
        wrong, seen = 0, []
        for _ in range(rounds):
            answers = await concurrent(service)
            if answers != expected:
                wrong += 1
                seen.append(answers)
        return {"expected": expected, "wrong": wrong, "seen": seen[:2]}
    finally:
        service.close()


print(json.dumps(asyncio.run(main()), default=str))
"""


_LEDGER_CHILD = """
import asyncio, json, sys, threading
from repro.kernel.refine import CSRPartitionRefinement
from repro.runner import refinement_cache
from repro.service import ElectionService

spec, seeds, threads = json.loads(sys.argv[1])
task_lists = [["S"], ["PE"], ["S", "PE"], ["PE", "S"]][:threads]
counted_lock = threading.Lock()
real = [0]
refine_once = CSRPartitionRefinement._refine_once


def counted(self):
    with counted_lock:
        real[0] += 1
    return refine_once(self)


CSRPartitionRefinement._refine_once = counted


async def main():
    service = ElectionService(workers=threads)
    try:
        readings = []
        for seed in seeds:
            refinement_cache.clear()
            real[0] = 0
            graph_spec = {"kind": spec["kind"], "params": dict(spec["params"], seed=seed)}
            await asyncio.gather(
                *(service.query({"spec": graph_spec, "tasks": tasks}) for tasks in task_lists)
            )
            readings.append(
                {"seed": seed, "real": real[0], "ledger": refinement_cache.refinement_passes}
            )
        return readings
    finally:
        service.close()


print(json.dumps(asyncio.run(main())))
"""


def _run_child(source: str, argument) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # switch threads every 10 µs, not every 5 ms, so they interleave
    # inside passes, not only between them
    prelude = "import sys\nsys.setswitchinterval(1e-5)\n"
    if not numpy_available():
        # numpy is hidden here (or absent): hide it in the child too
        prelude += "sys.modules['numpy'] = None\n"
    child = subprocess.run(
        [sys.executable, "-c", prelude + source, json.dumps(argument)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert child.returncode == 0, f"child exited {child.returncode}: {child.stderr[-2000:]}"
    return json.loads(child.stdout)


@pytest.mark.parametrize("pass_kinds", ["auto", "python"])
def test_four_threads_refining_one_engine_agree_with_a_serial_engine(pass_kinds):
    report = _run_child(_ENGINE_CHILD, [BEACON_TAIL, pass_kinds, THREADS, ROUNDS])
    assert report == {"wrong": 0, "errors": []}


def test_concurrent_queries_of_one_graph_answer_as_serial_queries_do():
    report = _run_child(_SERVICE_CHILD, [BEACON_TAIL, THREADS, ROUNDS])
    assert all(answer["feasible"] for answer in report["expected"]), report["expected"]
    assert report["wrong"] == 0, report["seen"]


def test_concurrent_task_lists_run_only_the_passes_the_ledger_counts():
    """Four concurrent task lists of one graph share its cache entry, and
    every refinement pass their requests run (the fingerprint of each
    response included) is one the cache's ``refinement_passes`` counts."""
    readings = _run_child(_LEDGER_CHILD, [BEACON_TAIL, list(range(5)), THREADS])
    assert all(reading["ledger"] > 0 for reading in readings), readings
    assert [reading["real"] for reading in readings] == [
        reading["ledger"] for reading in readings
    ], readings


def test_sizing_a_csr_view_while_a_thread_memoises_distances_does_not_raise():
    """The cache sizes entries (eviction, ``/stats``) while pool threads
    memoise BFS arrays on the same CSR view."""
    graph = generators.random_connected_graph(400, extra_edges=200, seed=1)
    csr = graph.csr()
    bare = csr.nbytes()
    done = threading.Event()
    errors = []

    def memoise() -> None:
        for source in range(graph.num_nodes):
            csr.distances_from(source)
        done.set()

    def size() -> None:
        while not done.is_set():
            try:
                csr.nbytes()
            except RuntimeError as error:
                errors.append(error)
                return

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=memoise), threading.Thread(target=size)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert csr.nbytes() > bare
