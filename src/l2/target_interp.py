"""Small-step semantics of the target language.

Evaluation contexts extend the source ones with projections, injections,
case scrutinees, and DEAD-cast bodies.  A DEAD cast over a value is itself a
value; the only rule that inspects DEAD is primitive application, which
refuses DEAD arguments and gets stuck there.  Pairs are values with
unevaluated components, so projection selects first and evaluation continues
inside the selected component.  Step results, outcomes and the trace loop are
the source interpreter's.
"""

from __future__ import annotations

from . import constants
from .source_interp import (
    DEFAULT_FUEL,
    AlreadyValue,
    Outcome,
    StepResult,
    Stepped,
    Stuck,
    trace,
)
from .syntax import Const, FunType, SrcExpr, subexprs, subst
from .target import (
    TApp,
    TCase,
    TConst,
    TDead,
    TIf,
    TInj,
    TLam,
    TLet,
    TPair,
    TProj,
    TgtExpr,
    is_dead_value,
    is_target_value,
)


def _lift_const(w: TgtExpr) -> SrcExpr | None:
    if isinstance(w, TConst):
        return Const(w.con)
    return None


def step_target(w: TgtExpr) -> StepResult:
    if is_target_value(w):
        return AlreadyValue()
    match w:
        case TLet(name, bound, body, pos):
            if is_target_value(bound):
                return Stepped(subst(body, name, bound), "E-Let")
            return _in_context(bound, lambda b: TLet(name, b, body, pos))
        case TIf(cond, then, els, pos):
            if is_target_value(cond):
                match cond:
                    case TConst(con) if con == constants.TRUE_CONST:
                        return Stepped(then, "E-If-True")
                    case TConst(con) if con == constants.FALSE_CONST:
                        return Stepped(els, "E-If-False")
                    case _:
                        return Stuck("if-non-boolean", w)
            return _in_context(cond, lambda c: TIf(c, then, els, pos))
        case TApp(fn, arg, pos):
            if not is_target_value(fn):
                return _in_context(fn, lambda f: TApp(f, arg, pos))
            if not is_target_value(arg):
                return _in_context(arg, lambda a: TApp(fn, a, pos))
            match fn:
                case TLam(param, body):
                    return Stepped(subst(body, param, arg), "E-Beta")
                case TConst(con):
                    if is_dead_value(arg):
                        return Stuck("dead-argument", w)
                    src_arg = _lift_const(arg)
                    result = constants.delta_apply(con, src_arg) if src_arg else None
                    if result is not None:
                        assert isinstance(result, Const)
                        return Stepped(TConst(result.con), "E-App-C")
                    if isinstance(con.source_type, FunType):
                        return Stuck("delta-undefined", w)
                    return Stuck("apply-non-function", w)
                case _:
                    return Stuck("apply-non-function", w)
        case TProj(index, t, pos):
            if isinstance(t, TPair):
                return Stepped(t.first if index == 1 else t.second, "E-Proj")
            if is_target_value(t):
                return Stuck("proj-non-pair", w)
            return _in_context(t, lambda s: TProj(index, s, pos))
        case TCase(scrut, x1, b1, x2, b2, pos):
            if is_target_value(scrut):
                if isinstance(scrut, TInj):
                    var, branch = (x1, b1) if scrut.index == 1 else (x2, b2)
                    return Stepped(subst(branch, var, scrut.payload), "E-Case")
                return Stuck("case-non-sum", w)
            return _in_context(scrut, lambda s: TCase(s, x1, b1, x2, b2, pos))
        case TInj(index, payload, src_ann, pos):
            return _in_context(payload, lambda p: TInj(index, p, src_ann, pos))
        case TDead(from_ty, to_ty, inner, pos):
            return _in_context(inner, lambda i: TDead(from_ty, to_ty, i, pos))
    raise TypeError(f"not a target expression: {w!r}")


def _in_context(inner: TgtExpr, rebuild) -> StepResult:
    result = step_target(inner)
    if isinstance(result, Stepped):
        return Stepped(rebuild(result.next), result.rule)
    if isinstance(result, AlreadyValue):
        # The caller believed this position needed a step; treat as stuck.
        return Stuck("internal-no-step", inner)
    return result


def eval_target_trace(
    w: TgtExpr, fuel: int = DEFAULT_FUEL
) -> tuple[Outcome, list[str], list[TgtExpr]]:
    return trace(step_target, w, fuel)


def contains_dead_value(w: TgtExpr) -> bool:
    """Does any subterm carry a DEAD cast over a value?"""
    return any(is_dead_value(s) for s in subexprs(w))
