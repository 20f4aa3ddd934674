"""Small-step operational semantics of the source language.

Six rules over left-to-right evaluation contexts:

    E ::= [] | let x = E in e | if E then e1 else e2 | E e | v E

Stepping is deterministic; stuck terms are reported with a reason instead of
raising.  Type ascriptions are erased before evaluation starts, they have no
runtime meaning.  The step results, the outcomes and the trace loop defined
here serve the target interpreter as well.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import constants, syntax
from .syntax import App, Ascribe, Const, FunType, If, Lam, Let, SrcExpr, subst

if TYPE_CHECKING:
    from .syntax import Term

DEFAULT_FUEL = 100000


@dataclass(frozen=True)
class Stepped:
    next: Term
    rule: str


@dataclass(frozen=True)
class AlreadyValue:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str
    focus: Term


StepResult = Stepped | AlreadyValue | Stuck


@dataclass(frozen=True)
class Value:
    value: Term


@dataclass(frozen=True)
class StuckAt:
    expr: Term
    reason: str
    focus: Term  # the innermost redex the term is blocked on


@dataclass(frozen=True)
class FuelExhausted:
    expr: Term


Outcome = Value | StuckAt | FuelExhausted


def step_source(e: SrcExpr) -> StepResult:
    if isinstance(e, Ascribe):
        raise ValueError("ascriptions must be erased before evaluation")
    if syntax.is_value(e):
        return AlreadyValue()
    match e:
        case Let(name, bound, body, pos):
            if syntax.is_value(bound):
                return Stepped(subst(body, name, bound), "E-Let")
            inner = step_source(bound)
            if isinstance(inner, Stepped):
                return Stepped(Let(name, inner.next, body, pos), inner.rule)
            return inner
        case If(cond, then, els, pos):
            if syntax.is_value(cond):
                b = constants.const_bool_value(cond)
                if b is True:
                    return Stepped(then, "E-If-True")
                if b is False:
                    return Stepped(els, "E-If-False")
                return Stuck("if-non-boolean", e)
            inner = step_source(cond)
            if isinstance(inner, Stepped):
                return Stepped(If(inner.next, then, els, pos), inner.rule)
            return inner
        case App(fn, arg, pos):
            if not syntax.is_value(fn):
                inner = step_source(fn)
                if isinstance(inner, Stepped):
                    return Stepped(App(inner.next, arg, pos), inner.rule)
                return inner
            if not syntax.is_value(arg):
                inner = step_source(arg)
                if isinstance(inner, Stepped):
                    return Stepped(App(fn, inner.next, pos), inner.rule)
                return inner
            match fn:
                case Lam(param, body):
                    return Stepped(subst(body, param, arg), "E-App-B")
                case Const(con):
                    result = constants.delta_apply(con, arg)
                    if result is not None:
                        return Stepped(result, "E-App-A")
                    if isinstance(con.source_type, FunType):
                        return Stuck("delta-undefined", e)
                    return Stuck("apply-non-function", e)
                case _:
                    return Stuck("apply-non-function", e)
    raise TypeError(f"not a source expression: {e!r}")


def trace(
    step: Callable[[Term], StepResult], e: Term, fuel: int
) -> tuple[Outcome, list[str], list[Term]]:
    """Step until a value, a stuck term or no fuel; keep the applied rule
    names and every intermediate term."""
    rules: list[str] = []
    states: list[Term] = [e]
    for _ in range(fuel):
        match step(e):
            case AlreadyValue():
                return Value(e), rules, states
            case Stuck(reason, focus):
                return StuckAt(e, reason, focus), rules, states
            case Stepped(next_e, rule):
                rules.append(rule)
                states.append(next_e)
                e = next_e
    return FuelExhausted(e), rules, states


def eval_source_trace(
    e: SrcExpr, fuel: int = DEFAULT_FUEL
) -> tuple[Outcome, list[str], list[SrcExpr]]:
    """Evaluate with ascriptions erased and keep the trace."""
    return trace(step_source, syntax.erase_ascriptions(e), fuel)
