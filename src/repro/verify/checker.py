"""A small explicit-state bounded model checker (Spin-style, pure Python).

:func:`check_model` explores a :class:`Model`'s state space breadth-first
from the initial state, checking a safety invariant in every reachable
state and a bounded liveness property (no reachable non-terminal state is
a deadlock).  States are ordinary hashable Python values; transitions are
whatever ``actions(state)`` yields.  Because the service's protocol models
(:mod:`repro.verify.models`) evolve their states through the *same*
transition tables the production code uses
(:mod:`repro.service.protocol`), an illegal step raises
:class:`~repro.service.protocol.ProtocolViolation` inside the exploration
and is reported with the exact event trace that reaches it -- a
counterexample, not a stack trace.

The checker is bounded (``max_states``/``max_depth``) but the service
models are finite and small, so under the default bounds exploration is
exhaustive and :attr:`CheckResult.complete` is ``True``; a result with
``complete=False`` proved nothing beyond the frontier it reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from ..service.protocol import ProtocolViolation

__all__ = ["CheckResult", "Model", "Violation", "check_model"]

#: Default exploration bounds; far above any service model's true size.
DEFAULT_MAX_STATES = 200_000
DEFAULT_MAX_DEPTH = 10_000


class Model:
    """What a protocol model must provide (duck-typed; this is documentation).

    ``initial()`` returns the (hashable) initial state.  ``actions(state)``
    yields ``(event_label, successor_state)`` pairs -- every transition the
    protocol *and* its environment (client disconnects, cache and store
    outcomes, failures) allow from ``state``; raising
    :class:`~repro.service.protocol.ProtocolViolation` while computing a
    successor is itself a reported violation.  ``invariant(state)`` returns
    ``None`` for a healthy state or a human-readable defect description.
    ``is_terminal(state)`` marks states where quiescence is legitimate;
    a non-terminal state with no enabled action is reported as a deadlock
    (the bounded-liveness check: every run can make progress until it
    legitimately stops).
    """

    name: str = "model"

    def initial(self) -> Hashable:
        raise NotImplementedError

    def actions(self, state: Hashable) -> Iterable[Tuple[str, Hashable]]:
        raise NotImplementedError

    def invariant(self, state: Hashable) -> Optional[str]:
        raise NotImplementedError

    def is_terminal(self, state: Hashable) -> bool:
        raise NotImplementedError

    def describe(self, state: Hashable) -> str:
        """Render one state for counterexample traces (override for clarity)."""
        return repr(state)


@dataclass
class Violation:
    """One defect with the event path that reaches it from the initial state."""

    kind: str  # "invariant" | "deadlock" | "transition"
    message: str
    #: ``[(event, state-description), ...]`` from the initial state to the
    #: defective state; the first entry's event is ``"<init>"``.
    trace: List[Tuple[str, str]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.kind}: {self.message}", "  counterexample:"]
        lines.extend(f"    {event:>14}  {state}" for event, state in self.trace)
        return "\n".join(lines)


@dataclass
class CheckResult:
    """The outcome of one model exploration."""

    model: str
    states: int = 0
    transitions: int = 0
    depth: int = 0
    complete: bool = True
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "states": self.states,
            "transitions": self.transitions,
            "depth": self.depth,
            "complete": self.complete,
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "message": v.message, "trace": v.trace}
                for v in self.violations
            ],
        }


def _trace_to(
    model: Model,
    state: Hashable,
    parents: Dict[Hashable, Optional[Tuple[Hashable, str]]],
) -> List[Tuple[str, str]]:
    """The event path from the initial state to ``state`` (BFS => shortest)."""
    steps: List[Tuple[str, str]] = []
    cursor: Optional[Hashable] = state
    while cursor is not None:
        parent = parents[cursor]
        event = "<init>" if parent is None else parent[1]
        steps.append((event, model.describe(cursor)))
        cursor = None if parent is None else parent[0]
    steps.reverse()
    return steps


def check_model(
    model: Model,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_violations: int = 3,
) -> CheckResult:
    """Explore ``model`` breadth-first; see the module docstring.

    Stops early once ``max_violations`` defects are recorded (each with its
    shortest counterexample); a clean run visits every reachable state
    within the bounds and reports ``complete=True`` only if neither bound
    was hit.
    """
    result = CheckResult(model=model.name)
    initial = model.initial()
    parents: Dict[Hashable, Optional[Tuple[Hashable, str]]] = {initial: None}
    frontier: "deque[Tuple[Hashable, int]]" = deque([(initial, 0)])

    def report(kind: str, message: str, state: Hashable) -> bool:
        result.violations.append(
            Violation(kind=kind, message=message, trace=_trace_to(model, state, parents))
        )
        return len(result.violations) >= max_violations

    while frontier:
        state, depth = frontier.popleft()
        result.states += 1
        result.depth = max(result.depth, depth)
        defect = model.invariant(state)
        if defect is not None and report("invariant", defect, state):
            break
        try:
            successors = list(model.actions(state))
        except ProtocolViolation as violation:
            if report("transition", str(violation), state):
                break
            continue
        if not successors:
            if not model.is_terminal(state):
                if report(
                    "deadlock",
                    "non-terminal state with no enabled action "
                    "(a run can get stuck here forever)",
                    state,
                ):
                    break
            continue
        if depth >= max_depth:
            result.complete = False
            continue
        for event, successor in successors:
            result.transitions += 1
            if successor in parents:
                continue
            if len(parents) >= max_states:
                result.complete = False
                continue
            parents[successor] = (state, event)
            frontier.append((successor, depth + 1))
    return result
