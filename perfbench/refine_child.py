"""One refine-xl round in a fresh process: build the graphs, then evaluate each cold.

Usage: ``python3 perfbench/refine_child.py SEED OUT_JSON [SPANS_FILE]``.

Set-up builds fresh instances of the three graphs and evaluates one small
graph outside the workload (lazy first calls land there); the timed part is
one cold ``evaluate_graph`` (tasks S and PE) per graph, through the library
because the largest graph exceeds the service's submission cap.  With
``SPANS_FILE`` the layer wrappers are installed first.
"""

from __future__ import annotations

import json
import os
import sys
import time

TASKS = ["S", "PE"]


def main(argv) -> int:
    seed, out_path = int(argv[0]), argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path is not None:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    import answers
    import inputs
    from common import vm_hwm_mb
    from repro.core import Task, search_statistics
    from repro.kernel import active_backend
    from repro.runner import GraphSpec, SweepSpec, evaluate_graph, refinement_cache

    sweep = SweepSpec.make((), tasks=[Task(code) for code in TASKS], max_depth=None, max_states=inputs.MAX_STATES)
    graphs = [(label, build()) for label, build in inputs.refine_xl_graphs(seed)]
    evaluate_graph(GraphSpec.from_dict(inputs.THROWAWAY_SPEC).build(), sweep)
    refinement_cache.clear()
    search_before = search_statistics()
    ops = []
    cpu_before = time.process_time()
    for label, graph in graphs:
        started = time.monotonic()
        record = evaluate_graph(graph, sweep, label=label)
        ops.append({"start": started, "end": time.monotonic(), "answer": answers.record_answer(record, TASKS)})
    cpu_s = time.process_time() - cpu_before
    search_after = search_statistics()
    result = {
        "ops": ops,
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
        "cpu_s": cpu_s,
        "kernel_backend": active_backend(),
        "cache": refinement_cache.stats(),
        "search": {key: search_after[key] - search_before[key] for key in search_after},
    }
    if tracer is not None:
        layers.dump(tracer, spans_path)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
