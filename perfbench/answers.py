"""The answer check: every response is compared with a plain cold reference.

The reference path is the simplest one the program has: the python kernel
backend, no store, a cleared refinement cache and freshly built graph
instances, one payload at a time, in the benchmark's own process.  The
compared fields are the paper's answers plus the identifying fields of
``deterministic_response`` -- everything except ``fingerprint``, which has
its own count (see ``fresh_fingerprint``) because of a known defect.

The default seed's reference answers are committed as digests in
``reference_answers.json``: a change to code shared by the reference and
the measured path (core, kernel) moves the digest even when both paths
move together.

``python3 perfbench/run.py --record-reference`` recomputes those digests.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import Task
from repro.kernel import use_backend
from repro.portgraph.delta import GraphDelta
from repro.portgraph.graph import PortLabeledGraph
from repro.portgraph.io import graph_from_dict, graph_to_dict
from repro.runner import GraphSpec, SweepSpec, evaluate_graph, refinement_cache
from repro.service.service import compute_election

CHECKED_FIELDS = (
    "graph",
    "n",
    "m",
    "max_degree",
    "feasible",
    "indices",
    "search_limited",
    "advice",
    "delta",
)
DEFAULT_SEED = 1
DIGEST_FILE = Path(__file__).resolve().parent / "reference_answers.json"


def checked(response: Dict[str, Any]) -> Dict[str, Any]:
    """The compared part of a response."""
    return {key: response[key] for key in CHECKED_FIELDS if key in response}


def differences(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Names of the compared fields on which ``actual`` differs (empty = equal)."""
    got = checked(actual)
    return [key for key in CHECKED_FIELDS if expected.get(key) != got.get(key)]


def without_advice(answer: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in answer.items() if key != "advice"}


# --------------------------------------------------------------------------- #
# the reference path
# --------------------------------------------------------------------------- #
def _parsed(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "graph": payload.get("graph"),
        "spec": payload.get("spec"),
        "base": None,
        "delta": None,
        "tasks": [Task(code) for code in payload.get("tasks", [t.value for t in Task.ordered()])],
        "max_depth": payload.get("max_depth"),
        "max_states": payload.get("max_states", 200_000),
        "advice": bool(payload.get("advice", False)),
    }


def _mutated(payload: Dict[str, Any]) -> Tuple[GraphSpec, GraphDelta, PortLabeledGraph]:
    spec = GraphSpec.from_dict(payload["base"])
    delta = GraphDelta.from_payload(payload["delta"])
    return spec, delta, delta.apply_to(spec.build()).graph


def reference_answer(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The cold-path answer to one ``POST /election`` payload.

    A ``{base, delta}`` item is answered by submitting the mutated graph
    outright, so the reference never runs the replay it checks; its label
    and ``delta`` stanza follow the service's documented rules.
    """
    with use_backend("python"):
        refinement_cache.clear()
        if payload.get("delta") is None:
            return checked(compute_election(_parsed(payload)))
        spec, delta, mutated = _mutated(payload)
        plain = dict(payload, graph=graph_to_dict(mutated))
        answer = checked(compute_election(_parsed(plain)))
        answer["graph"] = mutated.name or spec.label
        answer["delta"] = {"base": spec.label, "digest": delta.digest(), "edit_distance": delta.edit_distance}
        return answer


def fresh_fingerprint(payload: Dict[str, Any]) -> str:
    """``fingerprint()`` of a freshly built, never-refined copy of the payload's graph."""
    with use_backend("python"):
        if payload.get("delta") is not None:
            graph = _mutated(payload)[2]
        elif payload.get("spec") is not None:
            graph = GraphSpec.from_dict(payload["spec"]).build()
        else:
            graph = graph_from_dict(payload["graph"], validate=False)
        fresh = PortLabeledGraph([graph.adjacency(v) for v in graph.nodes()], name=graph.name, validate=False)
        return fresh.fingerprint()


def record_answer(record: Dict[str, Any], tasks: Iterable[str]) -> Dict[str, Any]:
    """An ``evaluate_graph`` record in the shape of a service answer."""
    return {
        "graph": record["graph"],
        "n": record["n"],
        "m": record["m"],
        "max_degree": record["max_degree"],
        "feasible": record["feasible"],
        "indices": {code: record[f"psi_{code}"] for code in tasks},
        "search_limited": [code for code in record.get("search_limited", "").split(",") if code],
    }


def reference_record(label: str, graph: PortLabeledGraph, tasks: List[str]) -> Dict[str, Any]:
    """The cold-path answer of a library evaluation (refine-xl)."""
    sweep = SweepSpec.make((), tasks=[Task(code) for code in tasks], max_depth=None, max_states=50_000)
    with use_backend("python"):
        refinement_cache.clear()
        answer = record_answer(evaluate_graph(graph, sweep, label=label), tasks)
        refinement_cache.clear()
        return answer


# --------------------------------------------------------------------------- #
# digests and the check's own self-test
# --------------------------------------------------------------------------- #
def digest(answers: Dict[str, Dict[str, Any]]) -> str:
    """Order-free digest of ``{payload key: answer}`` (answers carry no fingerprint)."""
    canonical = json.dumps(sorted(answers.items()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_key(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=12).hexdigest()


def committed_digest(workload: str) -> Optional[str]:
    try:
        return json.loads(DIGEST_FILE.read_text())["digests"].get(workload)
    except FileNotFoundError:
        return None


def _alter_psi(answer: Dict[str, Any]) -> bool:
    for task, value in sorted(answer.get("indices", {}).items()):
        answer["indices"][task] = 1 if value is None else value + 1
        return True
    return False


def _alter_advice(answer: Dict[str, Any]) -> bool:
    bits = answer.get("advice", {}).get("map")
    if not bits:
        return False
    answer["advice"]["map"] = ("1" if bits[0] == "0" else "0") + bits[1:]
    return True


def _alter_feasible(answer: Dict[str, Any]) -> bool:
    answer["feasible"] = not answer["feasible"]
    return True


def _alter_delta_digest(answer: Dict[str, Any]) -> bool:
    stanza = answer.get("delta")
    if not stanza:
        return False
    old = stanza["digest"]
    stanza["digest"] = ("0" if old[0] != "0" else "1") + old[1:]
    return True


ALTERATIONS: Dict[str, Callable[[Dict[str, Any]], bool]] = {
    "psi": _alter_psi,
    "advice_bit": _alter_advice,
    "feasible": _alter_feasible,
    "delta_digest": _alter_delta_digest,
}


def check_catches(answers: Iterable[Dict[str, Any]], check=differences) -> Dict[str, bool]:
    """For each alteration that applies to some answer: does ``check`` reject it?

    Each alteration changes one field of a copy of a reference-equal
    response, one at a time; a sound check reports a difference every time.
    """
    caught: Dict[str, bool] = {}
    for name, alter in ALTERATIONS.items():
        for answer in answers:
            response = copy.deepcopy(answer)
            response["fingerprint"] = "0" * 64
            if alter(response):
                caught[name] = bool(check(answer, response))
                break
    return caught
