"""E13 -- Fact 1.1: the hierarchy ψ_CPPE >= ψ_PPE >= ψ_PE >= ψ_S.

Computes all four election indices exactly on a spread of small graphs
(including the paper's own 3-node example with ψ_CPPE = 1 > 0 = ψ_S) and
checks the ordering, plus the downward output derivations.

The sweep goes through the batched experiment runner: the study graphs are
declared as :class:`~repro.runner.GraphSpec` objects, one shared refinement
per graph serves all four ψ_Z queries, and a second bench certifies that
re-running the same spec is served entirely from the refinement cache.

The runner starts the PPE/CPPE depth searches at the weaker index, so its
values satisfy the ordering by construction.  The ordering is therefore
checked on :func:`~repro.core.all_election_indices`, which searches each
index independently, and the runner's values must equal those.
"""

from __future__ import annotations

import pytest

from repro.core import Task, all_election_indices, indices_respect_hierarchy
from repro.runner import ExperimentRunner, GraphSpec, SweepSpec, refinement_cache

_STUDY_SPECS = (
    GraphSpec.make("three-node-line"),
    GraphSpec.make("star", leaves=3),
    GraphSpec.make("star", leaves=5),
    GraphSpec.make("path", n=6),
    GraphSpec.make("asymmetric-cycle", n=5),
    GraphSpec.make("asymmetric-cycle", n=7),
    GraphSpec.make("random", n=8, extra_edges=3, seed=2),
    GraphSpec.make("random", n=9, extra_edges=5, seed=4),
    GraphSpec.make("random", n=10, extra_edges=2, seed=8),
)


def _indices_of(record):
    return {task: record[f"psi_{task.value}"] for task in Task.ordered()}


def bench_fact_1_1_indices(benchmark, table_printer):
    sweep = SweepSpec.make(_STUDY_SPECS)
    runner = ExperimentRunner()

    report = benchmark(runner.run, sweep)
    rows = []
    for spec, record in zip(_STUDY_SPECS, report.table.records()):
        independent = all_election_indices(spec.build())
        rows.append([
            record["graph"],
            record["n"],
            independent[Task.SELECTION],
            independent[Task.PORT_ELECTION],
            independent[Task.PORT_PATH_ELECTION],
            independent[Task.COMPLETE_PORT_PATH_ELECTION],
            indices_respect_hierarchy(independent),
            _indices_of(record) == independent,
        ])
    table_printer(
        "E13 / Fact 1.1: election indices of assorted feasible graphs",
        ["graph", "n", "ψ_S", "ψ_PE", "ψ_PPE", "ψ_CPPE", "hierarchy holds", "runner agrees"],
        rows,
    )
    assert all(row[-2] and row[-1] for row in rows)
    # the paper's example: 3-node line with ports 0,0,1,0 has ψ_S = 0, ψ_CPPE = 1
    line_row = rows[0]
    assert line_row[2] == 0 and line_row[5] == 1


def bench_fact_1_1_cached_resweep(benchmark, table_printer):
    """Re-running the same sweep spec performs no new refinement passes."""
    sweep = SweepSpec.make(_STUDY_SPECS)
    runner = ExperimentRunner()
    warm = runner.run(sweep)
    before = refinement_cache.stats()

    report = benchmark(runner.run, sweep)
    after = refinement_cache.stats()
    table_printer(
        "E13: cached re-sweep of the Fact 1.1 study",
        ["graphs", "run 1 elapsed (s)", "run 2 elapsed (s)", "new refinement passes in run 2 (expected: 0)"],
        [[
            len(sweep.graphs),
            round(warm.elapsed, 4),
            round(report.elapsed, 4),
            after["refinement_passes"] - before["refinement_passes"],
        ]],
    )
    assert report.table.to_json() == warm.table.to_json()
    assert after["refinement_passes"] == before["refinement_passes"]
