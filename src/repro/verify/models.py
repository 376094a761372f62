"""The service's concurrency protocols as checkable models.

Both models evolve their lifecycle state through the *production*
transition tables and window accounting of :mod:`repro.service.protocol` --
the same ``sweep_transition`` / ``window_acquire`` / ``delta_transition``
calls :mod:`repro.service.batch` and the delta path execute at runtime.
What the models add is the **environment**: every interleaving of client
disconnects, cache and store outcomes and failures, explored exhaustively
by :func:`repro.verify.checker.check_model` instead of sampled by a
scheduler.

States are plain tuples (hashable, comparable, cheap); the default bounds
are exhaustive for the shipped parameters -- a few thousand states per
model, milliseconds per check.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Tuple

from ..service.protocol import (
    DELTA_DONE,
    DELTA_EVALUATING,
    DELTA_FAILED,
    DELTA_INVALIDATING,
    DELTA_RECEIVED,
    DELTA_RECOMPUTING,
    DELTA_REPLAYING,
    DELTA_RESOLVING,
    DELTA_TERMINAL,
    SWEEP_CANCELLED,
    SWEEP_DONE,
    SWEEP_RUNNING,
    SWEEP_TERMINAL,
    delta_transition,
    sweep_transition,
    window_acquire,
    window_release,
)
from .checker import Model

__all__ = ["BatchStreamModel", "DeltaLifecycleModel"]

# item stages of the batch stream (strictly ordered per item)
_PENDING = 0  # not yet past the window gate
_ACQUIRED = 1  # holds a window slot, computation in flight
_COMPUTED = 2  # result ready, slot still held, awaiting in-order emit
_EMITTED = 3  # line written, slot released

_CLIENT_READING = "reading"
_CLIENT_GONE = "gone"


class BatchStreamModel(Model):
    """The ``POST /elections`` stream: window/emit/disconnect lifecycle.

    State: ``(sweep_state, item_stages, client)`` where ``item_stages`` is
    one stage per item and ``client`` is reading or gone.  The window
    occupancy is *derived* (items in ``acquired``/``computed``), evolved
    through :func:`window_acquire`/:func:`window_release` so an
    over-acquire or double-release raises mid-exploration exactly as the
    production :class:`~repro.service.protocol.WindowLedger` would.

    Faithfulness notes, matching :meth:`repro.service.batch.BatchCoordinator.stream`:

    * window slots are acquired in item order (tasks are created in order
      and ``asyncio.Semaphore`` wakes waiters FIFO);
    * lines are emitted strictly in item order, only while the client
      reads; a disconnect makes the next emit fail, which aborts the sweep
      (the ``finally`` block) and cancellation releases every held slot;
    * the ``aborted`` transition is enabled from the moment the client is
      gone -- including before anything was emitted, the exact interleaving
      whose mishandling once left sweeps ``running`` forever.
    """

    name = "batch-stream"

    def __init__(self, *, items: int = 4, window: int = 2) -> None:
        if items < 1 or window < 1:
            raise ValueError("items and window must be at least 1")
        self.items = items
        self.window = window

    # -- helpers -------------------------------------------------------- #
    @staticmethod
    def _occupancy(stages: Tuple[int, ...]) -> int:
        return sum(1 for stage in stages if stage in (_ACQUIRED, _COMPUTED))

    def _abort_enabled(self, sweep: str, stages: Tuple[int, ...], client: str) -> bool:
        """Whether the stream's ``finally`` path may fire: the client is
        gone (the next emit/drain raises) and the sweep has not finished."""
        return sweep == SWEEP_RUNNING and client == _CLIENT_GONE

    # -- Model interface ------------------------------------------------ #
    def initial(self) -> Hashable:
        return (SWEEP_RUNNING, (_PENDING,) * self.items, _CLIENT_READING)

    def actions(self, state: Hashable) -> Iterable[Tuple[str, Hashable]]:
        sweep, stages, client = state
        moves: List[Tuple[str, Hashable]] = []
        if sweep != SWEEP_RUNNING:
            return moves  # terminal: the coroutine has returned
        occupancy = self._occupancy(stages)
        # the client can hang up at any moment while the stream runs
        if client == _CLIENT_READING:
            moves.append(("disconnect", (sweep, stages, _CLIENT_GONE)))
        # acquire: the lowest-index pending item enters the window (FIFO)
        pending = [i for i, stage in enumerate(stages) if stage == _PENDING]
        if pending and occupancy < self.window:
            updated = list(stages)
            updated[pending[0]] = _ACQUIRED
            window_acquire(occupancy, self.window)  # audits the bound
            moves.append((f"acquire[{pending[0]}]", (sweep, tuple(updated), client)))
        # compute: any in-flight item's backend call can finish
        for index, stage in enumerate(stages):
            if stage == _ACQUIRED:
                updated = list(stages)
                updated[index] = _COMPUTED
                moves.append((f"compute[{index}]", (sweep, tuple(updated), client)))
        # emit: strictly in item order, only while the client reads
        next_to_emit = sum(1 for stage in stages if stage == _EMITTED)
        if (
            client == _CLIENT_READING
            and next_to_emit < self.items
            and stages[next_to_emit] == _COMPUTED
        ):
            updated = list(stages)
            updated[next_to_emit] = _EMITTED
            window_release(occupancy)  # audits the release
            moves.append(
                (
                    f"emit[{next_to_emit}]",
                    (
                        sweep_transition(sweep, "item_resolved"),
                        tuple(updated),
                        client,
                    ),
                )
            )
        # complete: all lines out -> trailer, terminal "done"
        if client == _CLIENT_READING and all(stage == _EMITTED for stage in stages):
            moves.append(
                ("complete", (sweep_transition(sweep, "completed"), stages, client))
            )
        # abort: the finally block -- cancel tasks, release every held slot
        if self._abort_enabled(sweep, stages, client):
            released = tuple(
                _EMITTED if stage == _EMITTED else _PENDING for stage in stages
            )
            moves.append(
                ("abort", (sweep_transition(sweep, "aborted"), released, client))
            )
        return moves

    def invariant(self, state: Hashable) -> Optional[str]:
        sweep, stages, client = state
        occupancy = self._occupancy(stages)
        if occupancy > self.window:
            return f"window bound broken: {occupancy} slots held, capacity {self.window}"
        if sweep in SWEEP_TERMINAL and occupancy != 0:
            return f"terminal sweep ({sweep}) still holds {occupancy} window slot(s)"
        if sweep == SWEEP_DONE and not all(stage == _EMITTED for stage in stages):
            return "sweep marked done with unemitted items"
        if sweep == SWEEP_CANCELLED and client == _CLIENT_READING:
            return "sweep cancelled while the client was still reading"
        emitted = [i for i, stage in enumerate(stages) if stage == _EMITTED]
        if emitted != list(range(len(emitted))):
            return f"out-of-order emission: emitted set {emitted}"
        return None

    def is_terminal(self, state: Hashable) -> bool:
        return state[0] in SWEEP_TERMINAL

    def describe(self, state: Hashable) -> str:
        sweep, stages, client = state
        glyphs = "".join(".acE"[stage] for stage in stages)
        return f"sweep={sweep} items={glyphs} client={client}"


class DeltaLifecycleModel(Model):
    """One ``{"base": ..., "delta": [...]}`` item's recompute lifecycle.

    State: ``(state, invalidated, replayed, recomputed)`` -- the protocol
    state plus history bits recording which certifying events have fired.
    The environment chooses every outcome at each stage: the exact mutated
    graph may already be cached (``cache_hit``), the base may resolve
    (``base_hit``) or be missing from the store (``base_miss`` -> the
    recompute fallback), and any stage may fail (``error``).  Transitions go
    through the production table
    (:data:`~repro.service.protocol.DELTA_TRANSITIONS`) via
    :meth:`_transition`, which mutants override to reintroduce bugs.

    The safety property is the **memo-invalidation ordering**: a replayed
    entry must have had its inherited ψ/advice memos invalidated first
    (the base's memos are valid for the base graph only).  Concretely:
    whenever the item reaches ``replaying`` or beyond along the replay path,
    ``memos_invalidated`` must already have fired -- the exact blind spot
    the ``RefinementCache.persist`` regression test pins at the store layer.
    """

    name = "delta-lifecycle"

    #: events the environment can choose from each non-terminal state
    _STAGE_EVENTS = {
        DELTA_RECEIVED: ("lookup",),
        DELTA_RESOLVING: ("cache_hit", "base_hit", "base_miss", "error"),
        DELTA_INVALIDATING: ("memos_invalidated", "error"),
        DELTA_REPLAYING: ("replayed", "error"),
        DELTA_RECOMPUTING: ("recomputed", "error"),
        DELTA_EVALUATING: ("evaluated", "error"),
    }

    def _transition(self, state: str, event: str) -> str:
        """The successor state of ``event`` (mutants override this)."""
        return delta_transition(state, event)

    # -- Model interface ------------------------------------------------ #
    def initial(self) -> Hashable:
        return (DELTA_RECEIVED, False, False, False)

    def actions(self, state: Hashable) -> Iterable[Tuple[str, Hashable]]:
        protocol_state, invalidated, replayed, recomputed = state
        moves: List[Tuple[str, Hashable]] = []
        for event in self._STAGE_EVENTS.get(protocol_state, ()):
            successor = self._transition(protocol_state, event)
            moves.append(
                (
                    event,
                    (
                        successor,
                        invalidated or event == "memos_invalidated",
                        replayed or event == "replayed",
                        recomputed or event == "recomputed",
                    ),
                )
            )
        return moves

    def invariant(self, state: Hashable) -> Optional[str]:
        protocol_state, invalidated, replayed, recomputed = state
        if replayed and not invalidated:
            return (
                "memo-invalidation ordering broken: the delta was replayed "
                "without invalidating the base's ψ/advice memos first"
            )
        if protocol_state == DELTA_REPLAYING and not invalidated:
            return (
                "memo-invalidation ordering broken: replaying with the "
                "base's ψ/advice memos still live"
            )
        if protocol_state == DELTA_DONE and invalidated and not replayed:
            # the invalidation path's only legal exit into "done" is replay
            return "delta item done after invalidation but without a replay"
        return None

    def is_terminal(self, state: Hashable) -> bool:
        return state[0] in DELTA_TERMINAL

    def describe(self, state: Hashable) -> str:
        protocol_state, invalidated, replayed, recomputed = state
        flags = "".join(
            glyph if flag else "-"
            for glyph, flag in (
                ("i", invalidated),
                ("r", replayed),
                ("c", recomputed),
            )
        )
        return f"state={protocol_state} history={flags}"

