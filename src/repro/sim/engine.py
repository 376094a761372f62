"""Synchronous execution engine for the LOCAL model.

The engine owns the only piece of global knowledge -- the graph -- and uses
it exclusively to route messages between ports.  Routing runs on the graph's
flat CSR view (:meth:`~repro.portgraph.graph.PortLabeledGraph.csr`): one
preallocated inbox slot per directed edge side, stamped per round, instead of
a dict-of-dicts rebuilt every round.  Node algorithms are instantiated per
node and only ever learn their degree, the advice string and the messages
arriving on their ports, which keeps the simulation faithful to the
anonymous model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..portgraph.graph import PortLabeledGraph
from .model import Advice, NodeAlgorithm
from .trace import ExecutionTrace

__all__ = ["run_synchronous", "SimulationResult"]

AlgorithmFactory = Callable[[], NodeAlgorithm]


class SimulationResult:
    """Outputs and trace of one synchronous run."""

    def __init__(self, outputs: Dict[int, Any], trace: ExecutionTrace) -> None:
        self.outputs = outputs
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SimulationResult rounds={self.trace.rounds} nodes={len(self.outputs)}>"


def _resolve_rounds(
    rounds: Optional[int], algorithms: Dict[int, NodeAlgorithm]
) -> int:
    if rounds is not None:
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return rounds
    requested = {alg.rounds_needed() for alg in algorithms.values()}
    requested.discard(None)
    if not requested:
        raise ValueError(
            "no round budget: pass rounds=... or have the algorithms report rounds_needed()"
        )
    if len(requested) > 1:
        raise ValueError(
            f"nodes disagree on the number of rounds needed: {sorted(requested)}; "
            "a correct anonymous algorithm must derive it from degree/advice alone"
        )
    return requested.pop()


def run_synchronous(
    graph: PortLabeledGraph,
    algorithm_factory: AlgorithmFactory,
    *,
    rounds: Optional[int] = None,
    advice: Advice = None,
) -> SimulationResult:
    """Run one synchronous LOCAL-model execution.

    Parameters
    ----------
    graph:
        The network.  Used by the engine only for message routing.
    algorithm_factory:
        Zero-argument callable producing a fresh :class:`NodeAlgorithm` per
        node (the same factory for every node -- nodes are anonymous).
    rounds:
        Number of communication rounds.  ``None`` lets the algorithms declare
        their budget via ``rounds_needed()`` (they must all agree).
    advice:
        The advice bit string given identically to every node (or ``None``).

    Returns
    -------
    SimulationResult
        Node outputs (keyed by node handle, for the benefit of validators)
        and an execution trace.
    """
    algorithms: Dict[int, NodeAlgorithm] = {}
    for v in graph.nodes():
        algorithm = algorithm_factory()
        algorithm.setup(graph.degree(v), advice)
        algorithms[v] = algorithm

    total_rounds = _resolve_rounds(rounds, algorithms)
    trace = ExecutionTrace(advice_bits=0 if advice is None else len(advice))

    # Message routing runs on the graph's CSR view: one preallocated flat
    # inbox slot per dart (directed edge side) addressed through the
    # precomputed twin-dart involution.  Slots are stamped with the round
    # number instead of being cleared, and each node reads its own dart range
    # in port order, which builds the ascending per-port dicts the
    # algorithms' `receive` contract requires.
    csr = graph.csr()
    offsets = csr.offsets
    twin_darts = csr.twin_darts
    num_darts = offsets[csr.num_nodes]
    inbox_flat: list = [None] * num_darts
    inbox_stamp = [0] * num_darts

    for round_number in range(1, total_rounds + 1):
        outboxes: Dict[int, Dict[int, Any]] = {
            v: algorithms[v].messages_to_send(round_number) for v in graph.nodes()
        }
        message_count = 0
        for v, outbox in outboxes.items():
            base = offsets[v]
            degree = offsets[v + 1] - base
            for port, payload in outbox.items():
                if port < 0 or port >= degree:
                    raise RuntimeError(f"node {v} tried to send on missing port {port}")
                target_dart = twin_darts[base + port]
                inbox_flat[target_dart] = payload
                inbox_stamp[target_dart] = round_number
                message_count += 1
        for v in graph.nodes():
            base = offsets[v]
            messages = {
                port: inbox_flat[base + port]
                for port in range(offsets[v + 1] - base)
                if inbox_stamp[base + port] == round_number
            }
            algorithms[v].receive(round_number, messages)
        trace.record_round(round_number, message_count)

    outputs = {v: algorithms[v].output() for v in graph.nodes()}
    trace.rounds = total_rounds
    return SimulationResult(outputs, trace)
