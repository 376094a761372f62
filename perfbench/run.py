"""The repository's benchmark: four workloads, an answer check, per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics.  Every run checks every answer against a plain cold
reference and exits non-zero on any difference.  The last stdout line is
the JSON result; the lines above it are the human-readable record.

``python3 perfbench/run.py --record-reference`` rewrites the default
seed's reference digests (``reference_answers.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
)


def per_layer_units(call_names):
    """Every per-layer metric name with its unit, in declaration order."""
    units = {}
    for name in call_names:
        units[f"{name}.calls"] = "count"
        if name != "core.path_assignment":
            units[f"{name}.self_ms"] = "ms"
    units.update(
        {
            "service.outside_compute_ms": "ms",
            "service.batch.item_gap_ms": "ms",
            "portgraph.fingerprint.mismatches": "count",
            "runner.cache.hit_ratio": "ratio",
            "runner.cache.store_hits": "count",
            "runner.cache.refinement_passes": "count",
            "kernel.refine.passes": "count",
            "kernel.replay_speedup.beacon_tail.median": "ratio",
            "kernel.replay_speedup.beacon_tail.min": "ratio",
            "kernel.replay_speedup.grid.median": "ratio",
            "kernel.replay_speedup.grid.min": "ratio",
            "core.path_assignment.success_ratio": "ratio",
            "core.search.searches": "count",
            "core.search.states": "count",
            "core.search.cells": "count",
            "core.search.limit_hits": "count",
            "store.hit_ratio": "ratio",
            "store.bytes_read": "bytes",
            "store.bytes_written": "bytes",
            "store.hot_hits": "count",
            "store.corrupt_objects": "count",
            "obs.tracing_overhead": "ratio",
            "obs.spans_dropped": "count",
            "obs.covered_share": "ratio",
            "obs.uncovered_s": "s",
        }
    )
    return units


def _check(prepared, rounds, reference):
    """Compare every response with the reference; count fingerprint mismatches."""
    import answers

    wrong, mismatches, fresh = [], 0, {}
    for round_ in rounds:
        for key, advice, response in round_.responses:
            expected = reference[key] if advice or "advice" not in reference[key] else answers.without_advice(reference[key])
            diff = answers.differences(expected, response)
            if diff:
                wrong.append({"key": key, "fields": diff, "graph": expected.get("graph")})
            if "fingerprint" in response:
                if key not in fresh:
                    fresh[key] = answers.fresh_fingerprint(prepared.payloads[key])
                mismatches += response["fingerprint"] != fresh[key]
    return wrong, mismatches


def _end_to_end(rounds):
    """Per-round medians of the rate, set-up and cost metrics; latency over all samples."""
    from common import latency_summary

    latency = latency_summary([s for r in rounds for s in r.op_seconds])
    values = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "throughput_per_s": statistics.median(r.attempted / r.timed_s for r in rounds),
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        "cpu_ms_per_op": statistics.median(r.cpu_s * 1000.0 / r.attempted for r in rounds),
    }
    return values, latency


def run(args) -> int:
    import answers
    import layers
    import workloads
    from common import WORK

    name, seed = args.workload, args.seed
    prepared = workloads.Prepared(name, seed)
    if args.trace:
        untraced = workloads.run_pass(prepared, 0, rounds=1)
        traced = workloads.run_round(prepared, traced=True)
        rounds = untraced + [traced]
    else:
        rounds = workloads.run_pass(prepared, args.seconds)
    reference = workloads.reference_set(name, seed)

    wrong, mismatches = _check(prepared, rounds, reference)
    caught = answers.check_catches(list(reference.values()))
    expected_config = workloads.expected_config(name)
    config_ok = all(
        all(r.config.get(key) == value for key, value in expected_config.items()) for r in rounds
    )
    reference_digest = answers.digest(reference)
    digest_ok = seed != answers.DEFAULT_SEED or reference_digest == answers.committed_digest(name)
    attempted = max(sum(r.attempted for r in rounds), 1)
    failed = sum(r.failed for r in rounds)
    correct = not wrong and all(caught.values()) and config_ok and digest_ok and failed == 0

    values, latency = _end_to_end(rounds if not args.trace else rounds[:1])
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"

    record = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_throughput_per_s": [round(r.attempted / r.timed_s, 4) for r in rounds],
        "round_setup_s": [round(r.setup_s, 4) for r in rounds],
        "samples": latency["samples"],
        "latency_tail_percentile": latency["tail_percentile"],
        "error_rate": failed / attempted,
        "fingerprint_mismatches": mismatches,
        "answers_wrong": len(wrong),
        "answer_check_catches": caught,
        "reference_digest": reference_digest,
        "reference_digest_ok": digest_ok,
        "config": rounds[0].config,
        "config_ok": config_ok,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    for metric, unit in END_TO_END:
        print(f"metric {metric} = {values[metric]:.6g} {unit}")
    print(f"metric error_rate = {record['error_rate']:.6g} fraction")
    print(f"metric fingerprint_mismatches = {mismatches} count")
    if wrong:
        print("answer check FAILED: " + json.dumps(wrong[:5]), file=sys.stderr)

    if args.trace:
        traced = rounds[-1]
        metrics = dict(traced.layer_metrics)
        metrics.update(traced.counters)
        untraced_tp = len(rounds[0].op_seconds) / rounds[0].timed_s
        metrics["obs.tracing_overhead"] = (len(traced.op_seconds) / traced.timed_s) / untraced_tp - 1.0
        metrics["service.batch.item_gap_ms"] = statistics.median(traced.item_gaps_ms) if traced.item_gaps_ms else 0.0
        _, traced_mismatches = _check(prepared, [traced], reference)
        metrics["portgraph.fingerprint.mismatches"] = traced_mismatches
        units = per_layer_units(layers.CALL_NAMES)
        for metric in units:
            metrics.setdefault(metric, 0)
        for metric in sorted(metrics):
            print(f"layer {metric} = {metrics[metric]:.6g} {units.get(metric, 'ms')}")
        reported = {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()}
    else:
        reported = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}

    for path in WORK.iterdir():
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


def record_reference() -> int:
    import answers
    import workloads

    digests = {name: answers.digest(workloads.reference_set(name, answers.DEFAULT_SEED)) for name in workloads.WORKLOADS}
    answers.DIGEST_FILE.write_text(json.dumps({"seed": answers.DEFAULT_SEED, "digests": digests}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("serve-warm", "sweep-cold", "delta-stream", "refine-xl"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
