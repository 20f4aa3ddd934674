"""The shared stepper, value test and ``decompose`` against the
per-language code they replaced.

The reference functions below are the former ``step_source`` and
``step_target``, which wrote each evaluation context out by hand, their
value tests and step results, and the elaborator's former
``_decompositions``, kept unchanged.  The shared code must agree with them
on every state of the fuzz traces, a reference step read through
``as_outcome``; the deep terms pin that stepping and the value test do not
recurse.
"""

from dataclasses import dataclass

import pytest

from l2 import constants
from l2.harness import gen_program, run_trial
from l2.source_interp import Stepped, StuckAt, Value, step_source
from l2.syntax import (
    POSITIONS,
    SHAPES,
    App,
    Ascribe,
    BOOL,
    Const,
    FunType,
    If,
    Lam,
    Let,
    NUM,
    Var,
    decompose,
    is_value,
    subexprs,
    subst,
)
from l2.target import (
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
    TVar,
)
from l2.target_interp import step_target

# ---------------------------------------------------------------------------
# References: the hand-written evaluation contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlreadyValue:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str
    focus: object


def ref_is_source_value(e) -> bool:
    """v ::= c | x | \\x => e"""
    return isinstance(e, (Const, Var, Lam))


def is_target_value(w) -> bool:
    """w ::= c | x | \\x.W | inj_k w | (W, W) | DEAD(t,s,w)

    Pair components need not be values; injection payloads and DEAD bodies
    do, so the check walks down through those (a loop: they can nest deeply).
    """
    while isinstance(w, (TInj, TDead)):
        w = w.payload if isinstance(w, TInj) else w.inner
    return isinstance(w, (TConst, TVar, TLam, TPair))


def is_dead_value(w) -> bool:
    return isinstance(w, TDead) and is_target_value(w.inner)


def as_outcome(e, result):
    """A reference step of e as the shared stepper reports it."""
    if isinstance(result, AlreadyValue):
        return Value(e)
    if isinstance(result, Stuck):
        return StuckAt(e, result.reason, result.focus)
    return result


def ref_step_source(e):
    if isinstance(e, Ascribe):
        raise ValueError("ascriptions must be erased before evaluation")
    if ref_is_source_value(e):
        return AlreadyValue()
    match e:
        case Let(name, bound, body, pos):
            if ref_is_source_value(bound):
                return Stepped(subst(body, name, bound), "E-Let")
            inner = ref_step_source(bound)
            if isinstance(inner, Stepped):
                return Stepped(Let(name, inner.next, body, pos), inner.rule)
            return inner
        case If(cond, then, els, pos):
            if ref_is_source_value(cond):
                b = constants.const_bool_value(cond)
                if b is True:
                    return Stepped(then, "E-If-True")
                if b is False:
                    return Stepped(els, "E-If-False")
                return Stuck("if-non-boolean", e)
            inner = ref_step_source(cond)
            if isinstance(inner, Stepped):
                return Stepped(If(inner.next, then, els, pos), inner.rule)
            return inner
        case App(fn, arg, pos):
            if not ref_is_source_value(fn):
                inner = ref_step_source(fn)
                if isinstance(inner, Stepped):
                    return Stepped(App(inner.next, arg, pos), inner.rule)
                return inner
            if not ref_is_source_value(arg):
                inner = ref_step_source(arg)
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


def _lift_const(w):
    if isinstance(w, TConst):
        return Const(w.con)
    return None


def ref_step_target(w):
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


def _in_context(inner, rebuild):
    result = ref_step_target(inner)
    if isinstance(result, Stepped):
        return Stepped(rebuild(result.next), result.rule)
    if isinstance(result, AlreadyValue):
        # The caller believed this position needed a step; treat as stuck.
        return Stuck("internal-no-step", inner)
    return result


def ref_decompositions(e):
    yield (lambda h: h), e
    match e:
        case Let(name, bound, body, pos):
            for plug, e0 in ref_decompositions(bound):
                yield (lambda h, p=plug: Let(name, p(h), body, pos)), e0
        case If(cond, then, els, pos):
            for plug, e0 in ref_decompositions(cond):
                yield (lambda h, p=plug: If(p(h), then, els, pos)), e0
        case App(fn, arg, pos):
            for plug, e0 in ref_decompositions(fn):
                yield (lambda h, p=plug: App(p(h), arg, pos)), e0
            if ref_is_source_value(fn):
                for plug, e0 in ref_decompositions(arg):
                    yield (lambda h, p=plug: App(fn, p(h), pos)), e0


# ---------------------------------------------------------------------------
# The shared code against the references on the fuzz traces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trials():
    return [run_trial(gen_program(seed, budget)) for budget in (30, 60) for seed in range(100)]


def test_values_match_reference(trials):
    for trial in trials:
        for state in (trial.program.main, *trial.source[2]):  # ascriptions too
            for e in subexprs(state):
                assert is_value(e) == ref_is_source_value(e)
        for state in trial.target[2]:
            for w in subexprs(state):
                assert is_value(w) == is_target_value(w)


def test_source_steps_match_reference(trials):
    for trial in trials:
        for state in trial.source[2]:
            for e in subexprs(state):
                assert step_source(e) == as_outcome(e, ref_step_source(e))


def test_target_steps_match_reference(trials):
    for trial in trials:
        for state in trial.target[2]:
            for w in subexprs(state):
                assert step_target(w) == as_outcome(w, ref_step_target(w))


def _plugged(decompositions):
    hole = Var("$hole")
    return [(e0, plug(hole)) for plug, e0 in decompositions]


def test_decompositions_match_reference(trials):
    for trial in trials:
        # the program itself keeps its ascriptions, which have no positions
        for state in (*subexprs(trial.program.main), *trial.source[2]):
            assert _plugged(decompose(state)) == _plugged(ref_decompositions(state))


# ---------------------------------------------------------------------------
# The positions table and deep terms
# ---------------------------------------------------------------------------


def test_positions_are_the_evaluation_contexts():
    assert POSITIONS == {
        Const: (), Var: (), Lam: (), Ascribe: (),
        Let: ("bound",), If: ("cond",), App: ("fn", "arg"),
        TConst: (), TVar: (), TLam: (), TPair: (),
        TLet: ("bound",), TIf: ("cond",), TApp: ("fn", "arg"), TProj: ("tuple_",),
        TInj: ("payload",), TCase: ("scrutinee",), TDead: ("inner",),
    }
    for cls, positions in POSITIONS.items():
        leading = SHAPES[cls][0][: len(positions)]
        assert leading == tuple((p, None) for p in positions), cls


def _bound_chain(make_let, leaf, n):
    e = leaf
    for i in range(n):
        e = make_let(f"x{i}", e)
    return e


def _assert_innermost_let_stepped(result, deep, n, leaf):
    """The step contracted the innermost let and kept every other node's body."""
    assert isinstance(result, Stepped) and result.rule == "E-Let"
    e, old = result.next, deep
    for _ in range(n - 1):
        assert e.body is old.body
        e, old = e.bound, old.bound
    assert e == leaf


def test_deep_source_let_chain_steps_without_recursion():
    one = Const(constants.int_const(1))
    deep = _bound_chain(lambda x, b: Let(x, b, Var(x)), one, 5000)
    _assert_innermost_let_stepped(step_source(deep), deep, 5000, one)


def test_deep_target_let_chain_steps_without_recursion():
    one = TConst(constants.int_const(1))
    deep = _bound_chain(lambda x, b: TLet(x, b, TVar(x)), one, 5000)
    _assert_innermost_let_stepped(step_target(deep), deep, 5000, one)


def test_deep_injections_around_a_redex_step_without_recursion():
    # Value-ness looks through injection payloads and DEAD bodies.
    redex = TApp(TConst(constants.NOT), TConst(constants.TRUE_CONST))
    deep = redex
    for i in range(5000):
        deep = TInj(1, deep) if i % 2 else TDead(NUM, BOOL, deep)
    result = step_target(deep)
    assert isinstance(result, Stepped)
    e, old = result.next, deep
    for _ in range(5000):
        assert type(e) is type(old)
        e, old = (e.payload, old.payload) if isinstance(e, TInj) else (e.inner, old.inner)
    assert e == TConst(constants.FALSE_CONST)
    assert is_value(result.next) and not is_value(deep)
    assert is_target_value(result.next) and not is_target_value(deep)
