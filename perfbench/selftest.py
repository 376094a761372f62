"""Self-tests of the benchmark's answer check and declarations.

Run from the repository root::

    python3 perfbench/selftest.py

They fail if the answer check is made to accept everything, if it cannot
tell a served answer from a reference on a non-default seed, or if
``BENCHMARK.json`` and the metrics the benchmark prints drift apart.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import answers  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.core import Task  # noqa: E402
from repro.runner import refinement_cache  # noqa: E402
from repro.service.service import compute_election  # noqa: E402

OTHER_SEED = 7


def _parsed(payload):
    """The service's parsed form of a payload (delta items included)."""
    return {
        "graph": payload.get("graph"),
        "spec": payload.get("spec"),
        "base": payload.get("base"),
        "delta": payload.get("delta"),
        "tasks": [Task(code) for code in payload["tasks"]],
        "max_depth": None,
        "max_states": payload.get("max_states", inputs.MAX_STATES),
        "advice": bool(payload.get("advice", False)),
    }


def _served(payloads):
    """Answers from the measured code path in this process: default backend, warm cache."""
    refinement_cache.clear()
    return [compute_election(_parsed(payload)) for payload in payloads]


class AnswerCheckCatchesErrors(unittest.TestCase):
    """Each one-field alteration of a reference-equal response fails the check."""

    @classmethod
    def setUpClass(cls):
        spec = inputs.serve_warm_graphs(OTHER_SEED)[0]
        advice_payload = inputs.serve_warm_payload(spec, "graph", True)
        delta_payload = inputs.delta_items(OTHER_SEED)[0]
        cls.references = [answers.reference_answer(advice_payload), answers.reference_answer(delta_payload)]

    def test_every_alteration_is_caught(self):
        caught = answers.check_catches(self.references)
        self.assertEqual(set(caught), set(answers.ALTERATIONS))
        self.assertTrue(all(caught.values()), caught)

    def test_an_accept_everything_check_is_detected(self):
        caught = answers.check_catches(self.references, check=lambda expected, actual: [])
        self.assertFalse(any(caught.values()))

    def test_fingerprint_is_not_compared(self):
        response = dict(self.references[0], fingerprint="f" * 64)
        self.assertEqual(answers.differences(self.references[0], response), [])


class AnswerCheckOnAnotherSeed(unittest.TestCase):
    """The check passes the measured path's answers on a non-default seed."""

    def test_batch_items_match_reference(self):
        items = inputs.sweep_cold_items(OTHER_SEED)[:12]
        for item, served in zip(items, _served(items)):
            self.assertEqual(answers.differences(answers.reference_answer(item), served), [], item)

    def test_delta_items_match_reference_and_show_the_fingerprint_defect(self):
        bases = inputs.delta_base_payloads(OTHER_SEED)
        items = inputs.delta_items(OTHER_SEED)[: inputs.BEACON_BASES + len(inputs.GRID_BASES)]
        served = _served(bases + items)[len(bases):]
        mismatches = 0
        for item, response in zip(items, served):
            self.assertEqual(answers.differences(answers.reference_answer(item), response), [], item["base"])
            mismatches += response["fingerprint"] != answers.fresh_fingerprint(item)
        # one per beacon-tail item (fixpoint past 63 rounds), none on the grid
        self.assertEqual(mismatches, inputs.BEACON_BASES)


class Declarations(unittest.TestCase):
    def test_benchmark_json_lists_what_the_benchmark_prints(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in declared["end_to_end"]], [name for name, _ in run.END_TO_END])
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["per_layer"]}, run.per_layer_units(layers.CALL_NAMES)
        )

    def test_default_seed_digests_are_committed(self):
        committed = json.loads(answers.DIGEST_FILE.read_text())
        self.assertEqual(committed["seed"], answers.DEFAULT_SEED)
        self.assertEqual(set(committed["digests"]), {"serve-warm", "sweep-cold", "delta-stream", "refine-xl"})


if __name__ == "__main__":
    unittest.main()
