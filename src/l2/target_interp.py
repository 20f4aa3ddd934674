"""Small-step semantics of the target language.

The target steps the source core's own classes, and its evaluation contexts
extend the source ones with projections, injections, case scrutinees and
DEAD-cast bodies; each class declares its evaluation positions, and
``step_target`` is the source interpreter's ``step`` with the target redex
rules.  Let and if contract by the source rules.  A DEAD cast over a value
is itself a value; the only rule that inspects DEAD is primitive
application, which refuses DEAD arguments and gets stuck there.  Pairs are
values with unevaluated components, so projection selects first and
evaluation continues inside the selected component.  Step results, outcomes
and the trace loop are the source interpreter's.
"""

from __future__ import annotations

from . import constants, source_interp
from .source_interp import DEFAULT_FUEL, Outcome, StepResult, Stepped, Stuck, step, trace
from .syntax import App, Const, FunType, If, Lam, Let, subexprs, subst
from .target import TCase, TInj, TPair, TProj, TgtExpr, is_dead_value, is_target_value


def _contract_target(w: TgtExpr) -> StepResult:
    """The target redex rules; w is not a value, its positions are."""
    match w:
        case Let() | If():
            return source_interp.contract_source(w)
        case App(Lam(param, body), arg):
            return Stepped(subst(body, param, arg), "E-Beta")
        case App(Const(con), arg):
            if is_dead_value(arg):
                return Stuck("dead-argument", w)
            result = constants.delta_apply(con, arg)
            if result is not None:
                return Stepped(result, "E-App-C")
            if isinstance(con.source_type, FunType):
                return Stuck("delta-undefined", w)
            return Stuck("apply-non-function", w)
        case App():
            return Stuck("apply-non-function", w)
        case TProj(index, TPair(first, second)):
            return Stepped(first if index == 1 else second, "E-Proj")
        case TProj():
            return Stuck("proj-non-pair", w)
        case TCase(TInj(index, payload), x1, b1, x2, b2):
            var, branch = (x1, b1) if index == 1 else (x2, b2)
            return Stepped(subst(branch, var, payload), "E-Case")
        case TCase():
            return Stuck("case-non-sum", w)
    raise TypeError(f"not a target expression: {w!r}")


def step_target(w: TgtExpr) -> StepResult:
    return step(w, is_target_value, _contract_target)


def eval_target_trace(
    w: TgtExpr, fuel: int = DEFAULT_FUEL
) -> tuple[Outcome, list[str], list[TgtExpr]]:
    return trace(step_target, w, fuel)


def contains_dead_value(w: TgtExpr) -> bool:
    """Does any subterm carry a DEAD cast over a value?"""
    return any(is_dead_value(s) for s in subexprs(w))
