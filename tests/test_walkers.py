"""The shared term walkers against the per-constructor walkers they replaced.

The reference functions below are the former one-per-language, one-case-per-
constructor substitution, free-variable, erasure and normalization walkers,
kept unchanged, and the former recursive ``uniquify``.  The shared walkers
must agree with them on every state of the fuzz traces; the hand-built terms
pin shadowing, capture and the order in which ``uniquify`` picks names.
"""

import pytest

from l2 import constants, source_interp, target_interp
from l2.harness import gen_program, normalize_admin, run_trial
from l2.source_interp import eval_source_trace
from l2.syntax import (
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
    OrType,
    Var,
    erase_ascriptions,
    free_vars,
    subexprs,
    subst,
    uniquify,
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
from l2.target_interp import contains_dead_value, eval_target_trace

# ---------------------------------------------------------------------------
# References: the per-constructor walkers
# ---------------------------------------------------------------------------


def ref_free_vars(e):
    match e:
        case Const():
            return frozenset()
        case Var(name):
            return frozenset([name])
        case Lam(param, body):
            return ref_free_vars(body) - {param}
        case Ascribe(expr, _):
            return ref_free_vars(expr)
        case Let(name, bound, body):
            return ref_free_vars(bound) | (ref_free_vars(body) - {name})
        case If(c, t, f):
            return ref_free_vars(c) | ref_free_vars(t) | ref_free_vars(f)
        case App(fn, arg):
            return ref_free_vars(fn) | ref_free_vars(arg)
    raise TypeError(f"not a source expression: {e!r}")


def ref_erase_ascriptions(e):
    match e:
        case Const() | Var():
            return e
        case Lam(param, body, pos):
            return Lam(param, ref_erase_ascriptions(body), pos)
        case Ascribe(expr, _):
            return ref_erase_ascriptions(expr)
        case Let(name, bound, body, pos):
            return Let(name, ref_erase_ascriptions(bound), ref_erase_ascriptions(body), pos)
        case If(c, t, f, pos):
            return If(ref_erase_ascriptions(c), ref_erase_ascriptions(t),
                      ref_erase_ascriptions(f), pos)
        case App(fn, arg, pos):
            return App(ref_erase_ascriptions(fn), ref_erase_ascriptions(arg), pos)
    raise TypeError(f"not a source expression: {e!r}")


def ref_uniquify(e):
    """The former recursive uniquify: binders renamed apart in preorder, each
    keeping its name while that is unused, the map copied at each binder."""
    used, counters = set(ref_free_vars(e)), {}

    def fresh(base):
        name, n = base, counters.get(base, 1)
        while name in used:
            name, n = f"{base}_{n}", n + 1
            counters[base] = n
        used.add(name)
        return name

    def go(e, ren):
        match e:
            case Const():
                return e
            case Var(name, pos):
                return Var(ren.get(name, name), pos)
            case Lam(param, body, pos):
                new = fresh(param)
                return Lam(new, go(body, {**ren, param: new}), pos)
            case Ascribe(expr, ty, pos):
                return Ascribe(go(expr, ren), ty, pos)
            case Let(name, bound, body, pos):
                new = fresh(name)
                return Let(new, go(bound, ren), go(body, {**ren, name: new}), pos)
            case If(c, t, f, pos):
                return If(go(c, ren), go(t, ren), go(f, ren), pos)
            case App(fn, arg, pos):
                return App(go(fn, ren), go(arg, ren), pos)
        raise TypeError(f"not a source expression: {e!r}")

    return go(e, {})


def subst_source(e, x, v):
    match e:
        case Const():
            return e
        case Var(name):
            return v if name == x else e
        case Lam(param, body, pos):
            if param == x:
                return e
            if param in ref_free_vars(v):
                fresh = param + "'"
                while fresh in ref_free_vars(v) or fresh in ref_free_vars(body):
                    fresh += "'"
                body = subst_source(body, param, Var(fresh))
                return Lam(fresh, subst_source(body, x, v), pos)
            return Lam(param, subst_source(body, x, v), pos)
        case Ascribe(expr, ty, pos):
            return Ascribe(subst_source(expr, x, v), ty, pos)
        case Let(name, bound, body, pos):
            bound2 = subst_source(bound, x, v)
            if name == x:
                return Let(name, bound2, body, pos)
            return Let(name, bound2, subst_source(body, x, v), pos)
        case If(c, t, f, pos):
            return If(subst_source(c, x, v), subst_source(t, x, v), subst_source(f, x, v), pos)
        case App(fn, arg, pos):
            return App(subst_source(fn, x, v), subst_source(arg, x, v), pos)
    raise TypeError(f"not a source expression: {e!r}")


def target_free_vars(w):
    match w:
        case TConst():
            return frozenset()
        case TVar(name):
            return frozenset([name])
        case TLam(param, body):
            return target_free_vars(body) - {param}
        case TIf(c, t, f):
            return target_free_vars(c) | target_free_vars(t) | target_free_vars(f)
        case TApp(fn, arg):
            return target_free_vars(fn) | target_free_vars(arg)
        case TLet(name, bound, body):
            return target_free_vars(bound) | (target_free_vars(body) - {name})
        case TPair(a, b):
            return target_free_vars(a) | target_free_vars(b)
        case TProj(_, t):
            return target_free_vars(t)
        case TInj(_, p):
            return target_free_vars(p)
        case TCase(s, x1, b1, x2, b2):
            return (
                target_free_vars(s)
                | (target_free_vars(b1) - {x1})
                | (target_free_vars(b2) - {x2})
            )
        case TDead(_, _, inner):
            return target_free_vars(inner)
    raise TypeError(f"not a target expression: {w!r}")


def subst_target(w, x, value):
    match w:
        case TConst():
            return w
        case TVar(name):
            return value if name == x else w
        case TLam(param, body, src_ann, pos):
            if param == x:
                return w
            if param in target_free_vars(value):
                fresh = param + "'"
                while fresh in target_free_vars(value) or fresh in target_free_vars(body):
                    fresh += "'"
                body = subst_target(body, param, TVar(fresh))
                return TLam(fresh, subst_target(body, x, value), src_ann, pos)
            return TLam(param, subst_target(body, x, value), src_ann, pos)
        case TIf(c, t, f, pos):
            return TIf(
                subst_target(c, x, value), subst_target(t, x, value), subst_target(f, x, value), pos
            )
        case TApp(fn, arg, pos):
            return TApp(subst_target(fn, x, value), subst_target(arg, x, value), pos)
        case TLet(name, bound, body, pos):
            bound2 = subst_target(bound, x, value)
            if name == x:
                return TLet(name, bound2, body, pos)
            return TLet(name, bound2, subst_target(body, x, value), pos)
        case TPair(a, b, pos):
            return TPair(subst_target(a, x, value), subst_target(b, x, value), pos)
        case TProj(index, t, pos):
            return TProj(index, subst_target(t, x, value), pos)
        case TInj(index, payload, src_ann, pos):
            return TInj(index, subst_target(payload, x, value), src_ann, pos)
        case TCase(s, x1, b1, x2, b2, pos):
            s2 = subst_target(s, x, value)
            b1n = b1 if x1 == x else subst_target(b1, x, value)
            b2n = b2 if x2 == x else subst_target(b2, x, value)
            return TCase(s2, x1, b1n, x2, b2n, pos)
        case TDead(from_ty, to_ty, inner, pos):
            return TDead(from_ty, to_ty, subst_target(inner, x, value), pos)
    raise TypeError(f"not a target expression: {w!r}")


def ref_normalize_admin(w):
    match w:
        case TConst() | TVar():
            return w
        case TLam(p, body, sa, pos):
            return TLam(p, ref_normalize_admin(body), sa, pos)
        case TIf(c, t, f, pos):
            return TIf(ref_normalize_admin(c), ref_normalize_admin(t), ref_normalize_admin(f), pos)
        case TApp(fn, arg, pos):
            return TApp(ref_normalize_admin(fn), ref_normalize_admin(arg), pos)
        case TLet(n, b, body, pos):
            return TLet(n, ref_normalize_admin(b), ref_normalize_admin(body), pos)
        case TPair(a, b, pos):
            return TPair(ref_normalize_admin(a), ref_normalize_admin(b), pos)
        case TProj(k, t, pos):
            t2 = ref_normalize_admin(t)
            if isinstance(t2, TPair):
                return t2.first if k == 1 else t2.second
            return TProj(k, t2, pos)
        case TInj(k, p, ann, pos):
            return TInj(k, ref_normalize_admin(p), ann, pos)
        case TCase(s, x1, b1, x2, b2, pos):
            return TCase(
                ref_normalize_admin(s), x1, ref_normalize_admin(b1), x2,
                ref_normalize_admin(b2), pos,
            )
        case TDead(ft, tt, inner, pos):
            return TDead(ft, tt, ref_normalize_admin(inner), pos)
    raise TypeError(f"not a target expression: {w!r}")


# ---------------------------------------------------------------------------
# Differential: every state of the fuzz traces
# ---------------------------------------------------------------------------


def one(k=1):
    return Const(constants.int_const(k))


def tone(k=1):
    return TConst(constants.int_const(k))


@pytest.fixture(scope="module")
def trials():
    return [run_trial(gen_program(seed, budget)) for budget in (30, 60) for seed in range(100)]


def _names(e):
    """Every binder and variable name in e, in a fixed order."""
    names = set()
    for s in subexprs(e):
        for field in ("name", "param", "var1", "var2"):
            if isinstance(getattr(s, field, None), str):
                names.add(getattr(s, field))
    return sorted(names)


def test_source_walkers_match_references(trials):
    for trial in trials:
        main = trial.program.main
        assert erase_ascriptions(main) == ref_erase_ascriptions(main)
        assert free_vars(main) == ref_free_vars(main)
        for state in trial.source[2]:
            assert free_vars(state) == ref_free_vars(state)
            for x in _names(state):
                assert subst(state, x, one(7)) == subst_source(state, x, one(7))


def test_target_walkers_match_references(trials):
    for trial in trials:
        for state in trial.target[2]:
            assert free_vars(state) == target_free_vars(state)
            assert normalize_admin(state) == ref_normalize_admin(state)
            for x in _names(state):
                assert subst(state, x, tone(7)) == subst_target(state, x, tone(7))


def test_traces_match_reference_substitution(trials, monkeypatch):
    """Each interpreter, stepping with the reference substitution, retraces
    the same states."""
    runs = [(t.program.main, t.elab.target, t.source, t.target) for t in trials]
    monkeypatch.setattr(source_interp, "subst", subst_source)
    monkeypatch.setattr(target_interp, "subst", subst_target)
    for main, target, source, tgt in runs:
        assert eval_source_trace(main) == source
        assert eval_target_trace(target) == tgt


# ---------------------------------------------------------------------------
# Hand-built terms
# ---------------------------------------------------------------------------


def test_shapes_cover_both_languages():
    assert set(SHAPES) == {
        Const, Var, Lam, Ascribe, Let, If, App,
        TConst, TVar, TLam, TIf, TApp, TLet, TPair, TProj, TInj, TCase, TDead,
    }
    for cls, (children, variable) in SHAPES.items():
        binders = [b for _, b in children if b is not None]
        assert {c for c, _ in children} | set(binders) <= set(cls.__match_args__), cls
        assert not (variable and children), cls


def test_let_binder_shadows_its_body_only():
    e = Let("x", Var("x"), App(Var("x"), Var("y")))
    got = subst(e, "x", one())
    assert got == Let("x", one(), App(Var("x"), Var("y")))
    assert got == subst_source(e, "x", one())
    w = TLet("x", TVar("x"), TApp(TVar("x"), TVar("y")))
    assert subst(w, "x", tone()) == TLet("x", tone(), TApp(TVar("x"), TVar("y")))


def test_lambda_binder_is_primed_past_value_and_scope():
    # y' is free in the body, so the capturing binder y becomes y''
    e = Lam("y", App(App(Var("x"), Var("y")), Var("y'")))
    got = subst(e, "x", Var("y"))
    assert got == Lam("y''", App(App(Var("y"), Var("y''")), Var("y'")))
    assert got == subst_source(e, "x", Var("y"))
    ann = FunType(NUM, NUM)
    w = TLam("y", TApp(TVar("x"), TVar("y")), ann)
    got_w = subst(w, "x", TVar("y"))
    assert got_w == TLam("y'", TApp(TVar("y"), TVar("y'")), ann)
    assert got_w == subst_target(w, "x", TVar("y"))


def test_let_and_case_binders_that_would_capture_are_renamed():
    e = Let("y", one(), App(Var("x"), Var("y")))
    assert subst(e, "x", Var("y")) == Let("y'", one(), App(Var("y"), Var("y'")))
    # the per-constructor substitution captured the variable here
    assert subst_source(e, "x", Var("y")) == Let("y", one(), App(Var("y"), Var("y")))
    w = TCase(TVar("x"), "y", TApp(TVar("x"), TVar("y")), "z", TVar("x"))
    assert subst(w, "x", TVar("y")) == TCase(
        TVar("y"), "y'", TApp(TVar("y"), TVar("y'")), "z", TVar("y")
    )


def test_uniquify_renames_outer_binder_first():
    # let x = (let x = 1 in x) in x
    e = Let("x", Let("x", one(), Var("x")), Var("x"))
    assert uniquify(e) == Let("x", Let("x_1", one(), Var("x_1")), Var("x"))


def collapse_names(e):
    """e with every binder and variable cut to its first letter: binders
    collide with each other and with free names."""
    match e:
        case Const():
            return e
        case Var(name, pos):
            return Var(name[0], pos)
        case Lam(param, body, pos):
            return Lam(param[0], collapse_names(body), pos)
        case Ascribe(expr, ty, pos):
            return Ascribe(collapse_names(expr), ty, pos)
        case Let(name, bound, body, pos):
            return Let(name[0], collapse_names(bound), collapse_names(body), pos)
        case If(c, t, f, pos):
            return If(collapse_names(c), collapse_names(t), collapse_names(f), pos)
        case App(fn, arg, pos):
            return App(collapse_names(fn), collapse_names(arg), pos)
    raise TypeError(f"not a source expression: {e!r}")


def test_uniquify_agrees_with_the_recursive_reference():
    renamed = 0
    for seed in range(200):
        for budget in (30, 60):
            main = gen_program(seed, budget).main
            assert uniquify(main) is main  # generated binders are already apart
            collided = collapse_names(main)
            got = uniquify(collided)
            assert got == ref_uniquify(collided)
            assert repr(got) == repr(ref_uniquify(collided))  # positions kept too
            renamed += got != collided
    assert renamed > 100


def test_uniquify_returns_its_input_when_no_binder_collides():
    e = Let("x", one(), Lam("y", App(Var("x"), Var("z"))))
    assert uniquify(e) is e
    # a binder named like a free variable, or like another binder, collides
    assert uniquify(App(Lam("z", Var("z")), Var("z"))) == App(Lam("z_1", Var("z_1")), Var("z"))
    assert uniquify(Let("y", one(), Lam("y", Var("y")))) == Let("y", one(), Lam("y_1", Var("y_1")))


def test_uniquify_renames_5000_nested_lets_without_recursion():
    e = Var("x")
    for _ in range(5000):
        e = Let("x", one(), e)
    names = [t.name for t in subexprs(uniquify(e)) if isinstance(t, (Let, Var))]
    assert names == ["x"] + [f"x_{i}" for i in range(1, 5000)] + ["x_4999"]


def test_deep_target_dead_search_needs_no_recursion():
    def nest(bottom):
        w = bottom
        for i in range(5000):
            w = TPair(w, tone(0)) if i % 2 else TInj(1, w, OrType(NUM, BOOL))
        return w

    assert contains_dead_value(nest(TDead(BOOL, NUM, TConst(constants.TRUE_CONST))))
    assert not contains_dead_value(nest(tone(1)))


def test_deep_free_vars_needs_no_recursion():
    e = Var("z")
    for i in range(5000):
        e = Lam(f"x{i}", e) if i % 2 else Let(f"y{i}", Var("w"), e)
    assert free_vars(e) == {"z", "w"}
    w = TVar("z")
    for i in range(5000):
        w = TCase(TVar("s"), "z", w, "y", TVar("y")) if i == 4999 else TLam(f"x{i}", w)
    assert free_vars(w) == {"s"}
