"""Small-step operational semantics of the source language.

Six rules over left-to-right evaluation contexts:

    E ::= [] | let x = E in e | if E then e1 else e2 | E e | v E

The contexts are not written here: each term class declares its evaluation
positions next to its shape (``syntax.POSITIONS``), and ``step`` descends
through them, without recursion, to the redex, contracts it with a
per-language contraction and plugs the result back.  ``step_source`` is
``step`` with the source redex rules.  Stepping is deterministic; stuck
terms are reported with a reason instead of raising.  Type ascriptions are
erased before evaluation starts, they have no runtime meaning.  The stepper,
the step results, the outcomes, the trace loop and the let and if rules
defined here serve the target interpreter as well.
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


def step(
    e: Term, is_value: Callable[[Term], bool], contract: Callable[[Term], StepResult]
) -> StepResult:
    """One step of either language.  Descend into the leftmost evaluation
    position that is not a value until a node's positions all are: that node
    is the redex.  Contract it and plug the result back into its context."""
    if is_value(e):
        return AlreadyValue()
    ctx = None
    while True:
        positions = syntax.POSITIONS[type(e)]
        child = next((c for c in positions if not is_value(getattr(e, c))), None)
        if child is None:
            break
        ctx, e = (ctx, e, child), getattr(e, child)
    result = contract(e)
    if isinstance(result, Stepped):
        return Stepped(syntax.plug(ctx, result.next), result.rule)
    return result


def contract_source(e: SrcExpr) -> StepResult:
    """The source redex rules; e is not a value, its positions are."""
    match e:
        case Let(name, bound, body):
            return Stepped(subst(body, name, bound), "E-Let")
        case If(cond, then, els):
            b = constants.const_bool_value(cond)
            if b is None:
                return Stuck("if-non-boolean", e)
            return Stepped(then, "E-If-True") if b else Stepped(els, "E-If-False")
        case App(Lam(param, body), arg):
            return Stepped(subst(body, param, arg), "E-App-B")
        case App(Const(con), arg):
            result = constants.delta_apply(con, arg)
            if result is not None:
                return Stepped(result, "E-App-A")
            if isinstance(con.source_type, FunType):
                return Stuck("delta-undefined", e)
            return Stuck("apply-non-function", e)
        case App():
            return Stuck("apply-non-function", e)
        case Ascribe():
            raise ValueError("ascriptions must be erased before evaluation")
    raise TypeError(f"not a source expression: {e!r}")


def step_source(e: SrcExpr) -> StepResult:
    return step(e, syntax.is_value, contract_source)


def trace(
    step_one: Callable[[Term], StepResult], e: Term, fuel: int
) -> tuple[Outcome, list[str], list[Term]]:
    """Step until a value, a stuck term or no fuel; keep the applied rule
    names and every intermediate term."""
    rules: list[str] = []
    states: list[Term] = [e]
    for _ in range(fuel):
        match step_one(e):
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
