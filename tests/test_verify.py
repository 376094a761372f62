"""The bounded model checker and the service protocol models.

Two kinds of guarantees: the checker machinery itself is sound (finds
planted violations, reports shortest counterexample traces, respects its
bounds), and the shipped protocol models verify clean *and* are
demonstrably non-vacuous (the seeded known-bad mutants are caught).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service.protocol import (
    ProtocolViolation,
    SWEEP_TERMINAL,
    WindowLedger,
    sweep_transition,
)
from repro.verify import (
    BatchStreamModel,
    Model,
    check_model,
    run_verification,
)
from repro.verify.mutants import MUTANTS, CancelledSweepMutant


# --------------------------------------------------------------------------- #
# the shared transition tables (production semantics)
# --------------------------------------------------------------------------- #
class TestProtocolTables:
    def test_sweep_lifecycle_and_terminality(self):
        state = "running"
        state = sweep_transition(state, "item_resolved")
        assert state == "running"
        assert sweep_transition(state, "completed") == "done"
        assert sweep_transition(state, "aborted") == "cancelled"
        assert SWEEP_TERMINAL == {"done", "cancelled"}
        for terminal in SWEEP_TERMINAL:
            for event in ("item_resolved", "completed", "aborted"):
                with pytest.raises(ProtocolViolation):
                    sweep_transition(terminal, event)

    def test_window_ledger_audits_bounds(self):
        ledger = WindowLedger(2)
        ledger.acquire()
        ledger.acquire()
        assert ledger.peak == 2
        with pytest.raises(ProtocolViolation):
            ledger.acquire()
        ledger.release()
        ledger.release()
        with pytest.raises(ProtocolViolation):
            ledger.release()
        ledger.assert_drained()
        ledger.acquire()
        with pytest.raises(ProtocolViolation):
            ledger.assert_drained()


# --------------------------------------------------------------------------- #
# checker machinery
# --------------------------------------------------------------------------- #
class _CounterModel(Model):
    """0..limit counter; configurable defects for checker soundness tests."""

    name = "counter"

    def __init__(self, limit=5, bad_state=None, deadlock_at=None):
        self.limit = limit
        self.bad_state = bad_state
        self.deadlock_at = deadlock_at

    def initial(self):
        return 0

    def actions(self, state):
        if state == self.deadlock_at:
            return []
        if state >= self.limit:
            return []
        return [("inc", state + 1)]

    def invariant(self, state):
        if state == self.bad_state:
            return f"reached the planted bad state {state}"
        return None

    def is_terminal(self, state):
        return state >= self.limit


class TestChecker:
    def test_clean_model_explores_exhaustively(self):
        result = check_model(_CounterModel(limit=5))
        assert result.ok and result.complete
        assert result.states == 6 and result.depth == 5

    def test_invariant_violation_comes_with_shortest_trace(self):
        result = check_model(_CounterModel(limit=10, bad_state=3))
        assert not result.ok
        violation = result.violations[0]
        assert violation.kind == "invariant"
        events = [event for event, _ in violation.trace]
        assert events == ["<init>", "inc", "inc", "inc"]

    def test_deadlock_detected(self):
        result = check_model(_CounterModel(limit=10, deadlock_at=4))
        assert [v.kind for v in result.violations] == ["deadlock"]

    def test_bounds_mark_result_incomplete(self):
        result = check_model(_CounterModel(limit=1000), max_states=10)
        assert result.complete is False
        result = check_model(_CounterModel(limit=1000), max_depth=3)
        assert result.complete is False


# --------------------------------------------------------------------------- #
# the production protocol models
# --------------------------------------------------------------------------- #
class TestProtocolModels:
    def test_batch_stream_verifies_clean_and_exhaustively(self):
        result = check_model(BatchStreamModel(items=4, window=2))
        assert result.ok, [v.render() for v in result.violations]
        assert result.complete
        assert result.states > 20

    @pytest.mark.parametrize("items,window", [(1, 1), (3, 3), (5, 2), (6, 3)])
    def test_batch_stream_clean_across_parameters(self, items, window):
        result = check_model(BatchStreamModel(items=items, window=window))
        assert result.ok and result.complete

    def test_cancelled_sweep_mutant_is_caught_as_deadlock(self):
        """The PR-5 bug (disconnect before any emit leaves the sweep
        ``running``) must produce a counterexample, proving the checker can
        actually see that bug family."""
        result = check_model(CancelledSweepMutant(items=4, window=2))
        assert not result.ok
        assert any(v.kind == "deadlock" for v in result.violations)
        deadlock = next(v for v in result.violations if v.kind == "deadlock")
        events = [event for event, _ in deadlock.trace]
        assert "disconnect" in events
        assert "abort" not in events
        # the stuck state is a running sweep with the client gone
        assert "sweep=running" in deadlock.trace[-1][1]
        assert "client=gone" in deadlock.trace[-1][1]

    def test_every_registered_mutant_is_caught(self):
        for mutant_factory in MUTANTS:
            result = check_model(mutant_factory())
            assert result.violations, f"{mutant_factory.__name__} slipped through"


# --------------------------------------------------------------------------- #
# run_verification and the CLI
# --------------------------------------------------------------------------- #
class TestRunVerification:
    def test_full_report_is_ok_and_json_able(self):
        report = run_verification()
        assert report["ok"] is True
        assert {entry["model"] for entry in report["models"]} == {
            "batch-stream",
            "delta-lifecycle",
        }
        assert all(entry["complete"] for entry in report["models"])
        assert all(entry["caught"] for entry in report["mutants"])
        json.dumps(report)  # must be serialisable for --json and CI

    def test_hit_bound_fails_the_run(self):
        report = run_verification(["batch"], max_states=5, include_mutants=False)
        assert report["ok"] is False

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_verification(["quantum"])

    def test_cli_verify_all_exits_zero(self, capsys):
        assert main(["verify", "--all"]) == 0
        out = capsys.readouterr().out
        assert "batch-stream: ok" in out
        assert "delta-lifecycle: ok" in out
        assert "caught" in out

    def test_cli_verify_json_output(self, capsys):
        assert main(["verify", "--all", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_cli_verify_batch_bounds_reach_the_model(self, capsys):
        """``--items``/``--window`` size the batch model: the larger bounds
        CI checks explore a strictly larger space, still clean and complete."""
        assert main(["verify", "--protocol", "batch", "--json"]) == 0
        (default,) = json.loads(capsys.readouterr().out)["models"]
        argv = ["verify", "--protocol", "batch", "--items", "6", "--window", "3", "--json"]
        assert main(argv) == 0
        (larger,) = json.loads(capsys.readouterr().out)["models"]
        assert larger["ok"] and larger["complete"]
        assert larger["states"] > default["states"]

    def test_cli_verify_fails_when_bound_hit(self, capsys):
        assert main(["verify", "--protocol", "batch", "--max-states", "5"]) == 1
        assert "bound hit" in capsys.readouterr().out
