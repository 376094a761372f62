"""Shared protocol state tables of the service's concurrency lifecycles.

The service has two protocol surfaces with real lifecycle state: the batch
streamer (window slots, in-order emits, cancellation) and the delta item
(resolve, invalidate, replay or recompute, evaluate).  Every lifecycle bug
fixed so far -- sweeps stuck ``running``, leaked window slots, a base's
memos carried onto a replayed graph -- was a transition that the code
performed but the protocol does not allow.

This module is the single source of truth for those transitions.  The
production code (:mod:`repro.service.batch`, :mod:`repro.service.service`
and the refinement cache's delta path) drives its state through the tables
below, so an illegal transition raises :class:`ProtocolViolation` at the
exact call site instead of surfacing ten seconds later as a hung client;
and the bounded model checker (:mod:`repro.verify`) imports the *same*
tables to explore every interleaving of the environment (client
disconnects, cache and store outcomes, failures) exhaustively.  The model
is the implementation's state logic, not a parallel copy: a transition
added here is simultaneously enforced in production and explored by
``repro verify``.

Sweep lifecycle (:data:`SWEEP_TRANSITIONS`)::

    running --item_resolved--> running     one NDJSON line emitted
    running --completed-----> done         trailer reached, all items out
    running --aborted-------> cancelled    client gone / emit failed / error

``done`` and ``cancelled`` are terminal: nothing transitions out of them,
so double-finalisation (the PR-5 bug family) is a :class:`ProtocolViolation`
rather than a silently overwritten state.

Window ledger (:func:`window_acquire` / :func:`window_release`): the
bounded in-flight window is a conserved resource.  ``acquire`` past the
capacity and ``release`` of a free slot are both violations; a terminal
sweep must have released every slot it acquired.

Delta-item lifecycle: see :data:`DELTA_TRANSITIONS`.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "DELTA_DONE",
    "DELTA_EVALUATING",
    "DELTA_FAILED",
    "DELTA_INVALIDATING",
    "DELTA_RECEIVED",
    "DELTA_RECOMPUTING",
    "DELTA_REPLAYING",
    "DELTA_RESOLVING",
    "DELTA_STATES",
    "DELTA_TERMINAL",
    "DELTA_TRANSITIONS",
    "DeltaStatus",
    "ProtocolViolation",
    "SWEEP_CANCELLED",
    "SWEEP_DONE",
    "SWEEP_RUNNING",
    "SWEEP_STATES",
    "SWEEP_TERMINAL",
    "SWEEP_TRANSITIONS",
    "WindowLedger",
    "delta_transition",
    "sweep_transition",
    "window_acquire",
    "window_release",
]


class ProtocolViolation(AssertionError):
    """A state transition the protocol does not allow.

    Raised by the transition functions below -- in production when the
    service code attempts an illegal step, and inside the model checker
    when an explored interleaving drives a model into one.
    """


# --------------------------------------------------------------------------- #
# sweep (batch stream) lifecycle
# --------------------------------------------------------------------------- #
SWEEP_RUNNING = "running"
SWEEP_DONE = "done"
SWEEP_CANCELLED = "cancelled"

SWEEP_STATES = (SWEEP_RUNNING, SWEEP_DONE, SWEEP_CANCELLED)
SWEEP_TERMINAL = frozenset({SWEEP_DONE, SWEEP_CANCELLED})

#: ``(state, event) -> state``.  Events: ``item_resolved`` (one result line
#: accounted), ``completed`` (all items emitted), ``aborted`` (client gone,
#: emit failed, or the stream died for any other reason).
SWEEP_TRANSITIONS: Dict[Tuple[str, str], str] = {
    (SWEEP_RUNNING, "item_resolved"): SWEEP_RUNNING,
    (SWEEP_RUNNING, "completed"): SWEEP_DONE,
    (SWEEP_RUNNING, "aborted"): SWEEP_CANCELLED,
}


def sweep_transition(state: str, event: str) -> str:
    """The sweep state after ``event``; raises on an illegal transition."""
    try:
        return SWEEP_TRANSITIONS[(state, event)]
    except KeyError:
        raise ProtocolViolation(
            f"sweep protocol: event {event!r} is not allowed in state {state!r}"
        ) from None


# --------------------------------------------------------------------------- #
# bounded in-flight window accounting
# --------------------------------------------------------------------------- #
def window_acquire(in_flight: int, capacity: int) -> int:
    """One more item past the gate; raises if the window bound would break."""
    if not 0 <= in_flight < capacity:
        raise ProtocolViolation(
            f"window protocol: acquire with {in_flight} of {capacity} slots in flight"
        )
    return in_flight + 1


def window_release(in_flight: int) -> int:
    """One slot handed back; raises on releasing a slot nobody holds."""
    if in_flight <= 0:
        raise ProtocolViolation("window protocol: release with no slot in flight")
    return in_flight - 1


class WindowLedger:
    """Mutable window bookkeeping for production code, over the pure functions.

    The asyncio semaphore *enforces* the bound; the ledger *audits* it --
    acquire/release imbalances (the leaked-slot bug family) surface as
    :class:`ProtocolViolation` at the faulty call site.  The checker's batch
    model evolves the same ``in_flight`` integer through the same
    :func:`window_acquire`/:func:`window_release`.
    """

    __slots__ = ("capacity", "in_flight", "peak")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = capacity
        self.in_flight = 0
        self.peak = 0

    def acquire(self) -> None:
        self.in_flight = window_acquire(self.in_flight, self.capacity)
        self.peak = max(self.peak, self.in_flight)

    def release(self) -> None:
        self.in_flight = window_release(self.in_flight)

    def assert_drained(self) -> None:
        """Every acquired slot must be back (checked on clean completion)."""
        if self.in_flight != 0:
            raise ProtocolViolation(
                f"window protocol: sweep finished with {self.in_flight} slots leaked"
            )


# --------------------------------------------------------------------------- #
# delta-item lifecycle
# --------------------------------------------------------------------------- #
DELTA_RECEIVED = "received"
DELTA_RESOLVING = "resolving"
DELTA_INVALIDATING = "invalidating"
DELTA_REPLAYING = "replaying"
DELTA_RECOMPUTING = "recomputing"
DELTA_EVALUATING = "evaluating"
DELTA_DONE = "done"
DELTA_FAILED = "failed"

DELTA_STATES = (
    DELTA_RECEIVED,
    DELTA_RESOLVING,
    DELTA_INVALIDATING,
    DELTA_REPLAYING,
    DELTA_RECOMPUTING,
    DELTA_EVALUATING,
    DELTA_DONE,
    DELTA_FAILED,
)
DELTA_TERMINAL = frozenset({DELTA_DONE, DELTA_FAILED})

#: ``(state, event) -> state`` for one ``{"base": ..., "delta": [...]}`` item.
#:
#: The ordering this table encodes is the memo-invalidation discipline: a
#: ``base_hit`` item MUST pass ``memos_invalidated`` before ``replayed`` --
#: the base's ψ/advice memos are valid for the *base* graph only, so an
#: entry replayed from it starts memo-clean (the PR-10 blind-spot fix in
#: ``RefinementCache``).  There is deliberately no edge from
#: ``invalidating`` or ``resolving`` straight to ``replaying``'s successor:
#: skipping invalidation is the seeded mutant ``repro verify`` must catch.
#: ``cache_hit`` (the exact mutated graph already cached/stored) jumps to
#: ``evaluating`` because that entry's memos were scoped correctly when it
#: was created; ``base_miss`` (a base fingerprint the store does not hold)
#: falls back to ``recomputing``, which can only succeed when the item
#: carries enough information to build the mutated graph cold.
DELTA_TRANSITIONS: Dict[Tuple[str, str], str] = {
    (DELTA_RECEIVED, "lookup"): DELTA_RESOLVING,
    (DELTA_RESOLVING, "cache_hit"): DELTA_EVALUATING,
    (DELTA_RESOLVING, "base_hit"): DELTA_INVALIDATING,
    (DELTA_RESOLVING, "base_miss"): DELTA_RECOMPUTING,
    (DELTA_RESOLVING, "error"): DELTA_FAILED,
    (DELTA_INVALIDATING, "memos_invalidated"): DELTA_REPLAYING,
    (DELTA_INVALIDATING, "error"): DELTA_FAILED,
    (DELTA_REPLAYING, "replayed"): DELTA_EVALUATING,
    (DELTA_REPLAYING, "error"): DELTA_FAILED,
    (DELTA_RECOMPUTING, "recomputed"): DELTA_EVALUATING,
    (DELTA_RECOMPUTING, "error"): DELTA_FAILED,
    (DELTA_EVALUATING, "evaluated"): DELTA_DONE,
    (DELTA_EVALUATING, "error"): DELTA_FAILED,
}


def delta_transition(state: str, event: str) -> str:
    """The delta-item state after ``event``; raises on an illegal transition."""
    try:
        return DELTA_TRANSITIONS[(state, event)]
    except KeyError:
        raise ProtocolViolation(
            f"delta protocol: event {event!r} is not allowed in state {state!r}"
        ) from None


class DeltaStatus:
    """Mutable delta-item lifecycle for production code, over the pure table.

    The service's delta path (and the refinement cache, through the
    ``events`` hook of ``delta_entry``) advances one of these per item; an
    out-of-order step -- replaying before invalidating, evaluating a failed
    item -- raises :class:`ProtocolViolation` at the faulty call site.  The
    ``repro verify`` delta model evolves the same table exhaustively.
    """

    __slots__ = ("state", "events")

    def __init__(self) -> None:
        self.state = DELTA_RECEIVED
        self.events: list = []

    def apply(self, event: str) -> None:
        self.state = delta_transition(self.state, event)
        self.events.append(event)

