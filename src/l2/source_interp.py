"""Small-step operational semantics of both languages.

One reduction relation over left-to-right evaluation contexts, the source's

    E ::= [] | let x = E in e | if E then e1 else e2 | E e | v E

extended in the target with projections, injections, case scrutinees and
DEAD-cast bodies.  The contexts are not written here: each term class
declares its evaluation positions and its values next to its shape
(``syntax.POSITIONS``, ``syntax.is_value``), and ``step`` descends through
them, without recursion, to the redex, contracts it and plugs the result
back.  ``contract`` holds every redex rule of both languages; they name the
beta and primitive steps differently (``SOURCE_RULES``, ``TARGET_RULES``).
The only rule that inspects DEAD is primitive application, which refuses a
DEAD argument and is stuck there; a pair is a value with unevaluated
components, so projection selects first.  Stepping is deterministic; stuck
terms are reported with a reason instead of raising.  Type ascriptions are
erased before evaluation starts, they have no runtime meaning.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import constants, syntax
from .syntax import App, Ascribe, Const, If, Lam, Let, SrcExpr, is_value, subst
from .target import TCase, TInj, TPair, TProj, is_dead_value

if TYPE_CHECKING:
    from .syntax import Term

DEFAULT_FUEL = 100000

# The names of each language's beta and primitive-application steps.
SOURCE_RULES = ("E-App-B", "E-App-A")
TARGET_RULES = ("E-Beta", "E-App-C")


@dataclass(frozen=True)
class Stepped:
    next: Term
    rule: str


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


StepResult = Stepped | Value | StuckAt
Outcome = Value | StuckAt | FuelExhausted


def step(e: Term, rules: tuple[str, str]) -> StepResult:
    """One step of either language.  Descend into the leftmost evaluation
    position that is not a value until a node's positions all are: that node
    is the redex.  Contract it and plug the result back into its context."""
    if is_value(e):
        return Value(e)
    whole, ctx = e, None
    while True:
        positions = syntax.POSITIONS[type(e)]
        child = next((c for c in positions if not is_value(getattr(e, c))), None)
        if child is None:
            break
        ctx, e = (ctx, e, child), getattr(e, child)
    result = contract(e, rules)
    if isinstance(result, str):
        return StuckAt(whole, result, e)
    return Stepped(syntax.plug(ctx, result.next), result.rule)


def contract(e: Term, rules: tuple[str, str]) -> Stepped | str:
    """The redex rules; e is not a value, its positions are.  ``rules`` names
    the beta and the primitive step.  A stuck redex gives the reason."""
    beta, delta = rules
    match e:
        case Let(name, bound, body):
            return Stepped(subst(body, name, bound), "E-Let")
        case If(cond, then, els):
            b = constants.const_bool_value(cond)
            if b is None:
                return "if-non-boolean"
            return Stepped(then, "E-If-True") if b else Stepped(els, "E-If-False")
        case App(Lam(param, body), arg):
            return Stepped(subst(body, param, arg), beta)
        case App(Const(con), arg):
            if is_dead_value(arg):
                return "dead-argument"
            result = constants.delta_apply(con, arg)
            if result is not None:
                return Stepped(result, delta)
            return "delta-undefined" if con.is_function else "apply-non-function"
        case App():
            return "apply-non-function"
        case TProj(index, TPair(first, second)):
            return Stepped(first if index == 1 else second, "E-Proj")
        case TProj():
            return "proj-non-pair"
        case TCase(TInj(index, payload), x1, b1, x2, b2):
            var, branch = (x1, b1) if index == 1 else (x2, b2)
            return Stepped(subst(branch, var, payload), "E-Case")
        case TCase():
            return "case-non-sum"
        case Ascribe():
            raise ValueError("ascriptions must be erased before evaluation")
    raise TypeError(f"not a term: {e!r}")


def step_source(e: SrcExpr) -> StepResult:
    return step(e, SOURCE_RULES)


def trace(
    step_one: Callable[[Term], StepResult], e: Term, fuel: int
) -> tuple[Outcome, list[str], list[Term]]:
    """Step until a value, a stuck term or no fuel; keep the applied rule
    names and every intermediate term."""
    rules: list[str] = []
    states: list[Term] = [e]
    for _ in range(fuel):
        result = step_one(e)
        if not isinstance(result, Stepped):
            return result, rules, states
        rules.append(result.rule)
        states.append(e := result.next)
    return FuelExhausted(e), rules, states


def eval_source_trace(
    e: SrcExpr, fuel: int = DEFAULT_FUEL
) -> tuple[Outcome, list[str], list[SrcExpr]]:
    """Evaluate with ascriptions erased and keep the trace."""
    return trace(step_source, syntax.erase_ascriptions(e), fuel)
