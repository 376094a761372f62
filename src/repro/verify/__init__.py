"""Bounded model checking of the service's concurrency protocols.

``repro verify`` (the CLI front end of :func:`run_verification`)
exhaustively explores the batch-stream and delta-item lifecycles -- every
interleaving of client disconnects, cache and store outcomes and failures
within the configured bounds -- against the *same* transition tables the
production code executes (:mod:`repro.service.protocol`).
The run fails if any reachable state violates a safety invariant, if a
non-terminal state deadlocks, or if the checker cannot find the seeded
known-bad mutants (:mod:`repro.verify.mutants`), which guards against a
vacuous pass.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from .checker import CheckResult, Model, Violation, check_model
from .models import BatchStreamModel, DeltaLifecycleModel
from .mutants import MUTANTS

__all__ = [
    "BatchStreamModel",
    "CheckResult",
    "DeltaLifecycleModel",
    "Model",
    "Violation",
    "check_model",
    "run_verification",
]

#: Protocol name -> model factory (the CLI's ``--protocol`` choices).
PROTOCOL_MODELS = {
    "batch": BatchStreamModel,
    "delta": DeltaLifecycleModel,
}


def run_verification(
    protocols: Optional[Iterable[str]] = None,
    *,
    max_states: int = 200_000,
    max_depth: int = 10_000,
    include_mutants: bool = True,
    batch_items: int = 4,
    batch_window: int = 2,
) -> Dict[str, Any]:
    """Check the requested protocol models; returns a JSON-able report.

    The report's ``ok`` is ``True`` only if every production model verified
    clean *and complete* (the bounds were not hit -- a truncated search
    proves nothing) and, when ``include_mutants``, every seeded mutant was
    caught with the expected defect kind.
    """
    names = list(protocols) if protocols is not None else sorted(PROTOCOL_MODELS)
    report: Dict[str, Any] = {"ok": True, "models": [], "mutants": []}
    for name in names:
        try:
            factory = PROTOCOL_MODELS[name]
        except KeyError:
            raise ValueError(
                f"unknown protocol {name!r}; choose from {sorted(PROTOCOL_MODELS)}"
            ) from None
        if factory is BatchStreamModel:
            model: Model = BatchStreamModel(items=batch_items, window=batch_window)
        else:
            model = factory()
        result = check_model(model, max_states=max_states, max_depth=max_depth)
        entry = result.to_dict()
        if not result.ok or not result.complete:
            report["ok"] = False
        report["models"].append(entry)
    if include_mutants:
        for mutant_factory in MUTANTS:
            if issubclass(mutant_factory, BatchStreamModel):
                mutant = mutant_factory(items=batch_items, window=batch_window)
            else:
                mutant = mutant_factory()
            result = check_model(mutant, max_states=max_states, max_depth=max_depth)
            expected = getattr(mutant, "expected_kind", None)
            caught = any(
                expected is None or violation.kind == expected
                for violation in result.violations
            ) and bool(result.violations)
            entry = result.to_dict()
            entry["expected_kind"] = expected
            entry["caught"] = caught
            if not caught:
                # the checker sailed past a known bug: the verification
                # itself is broken, fail loudly
                report["ok"] = False
            report["mutants"].append(entry)
    return report
