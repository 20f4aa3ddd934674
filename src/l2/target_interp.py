"""The target language's runs: ``source_interp``'s one small-step semantics
with the target's rule names (``source_interp.TARGET_RULES``), and the check
for a DEAD cast over a value that a stuck target run is blocked on."""

from __future__ import annotations

from .source_interp import DEFAULT_FUEL, TARGET_RULES, Outcome, StepResult, step, trace
from .syntax import subexprs
from .target import TgtExpr, is_dead_value


def step_target(w: TgtExpr) -> StepResult:
    return step(w, TARGET_RULES)


def eval_target_trace(
    w: TgtExpr, fuel: int = DEFAULT_FUEL
) -> tuple[Outcome, list[str], list[TgtExpr]]:
    return trace(step_target, w, fuel)


def contains_dead_value(w: TgtExpr) -> bool:
    """Does any subterm carry a DEAD cast over a value?"""
    return any(is_dead_value(s) for s in subexprs(w))
