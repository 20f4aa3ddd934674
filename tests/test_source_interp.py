import pytest

from l2 import constants, parser, syntax
from l2.source_interp import (
    FuelExhausted,
    Stepped,
    StuckAt,
    Value,
    eval_source_trace,
    step_source,
)
from l2.syntax import App, Const, If, Lam, Let, Var, erase_ascriptions
from l2.syntax import subst as subst_source
from tests.conftest import eval_source


def run(text, fuel=100):
    return eval_source(parser.parse_expr(text), fuel)


def step(text):
    return step_source(erase_ascriptions(parser.parse_expr(text)))


class TestStep:
    def test_if_true(self):
        result = step("if true then 1 else 2")
        assert result == Stepped(Const(constants.int_const(1)), "E-If-True")

    def test_if_false(self):
        assert step("if false then 1 else 2").rule == "E-If-False"

    def test_beta_then_stuck(self):
        one = step("(\\x => x 1) 0")
        assert isinstance(one, Stepped) and one.rule == "E-App-B"
        two = step_source(one.next)
        assert isinstance(two, StuckAt) and two.reason == "apply-non-function"

    def test_delta_undefined(self):
        result = step("not 3")
        assert isinstance(result, StuckAt) and result.reason == "delta-undefined"

    def test_delta_application(self):
        result = step("add 1 2")
        assert isinstance(result, Stepped) and result.rule == "E-App-A"
        assert result.next == App(Const(constants.stage2("add", 1)),
                                  Const(constants.int_const(2)))

    def test_let_substitutes_values_only(self):
        inner = step("let x = add 1 2 in x")
        assert inner.rule == "E-App-A"  # context rule fires inside the binding

    def test_values_never_step(self):
        for text in ("1", "true", "\\x => x", "not"):
            e = erase_ascriptions(parser.parse_expr(text))
            assert step_source(e) == Value(e)

    def test_if_non_boolean(self):
        result = step("if 3 then 1 else 2")
        assert isinstance(result, StuckAt) and result.reason == "if-non-boolean"

    def test_determinism(self):
        e = erase_ascriptions(parser.parse_expr("let x = add 1 2 in add x x"))
        assert step_source(e) == step_source(e)


class TestSubst:
    def test_variable_hit(self):
        assert subst_source(Var("x"), "x", Const(constants.int_const(5))) == Const(
            constants.int_const(5)
        )

    def test_shadowing(self):
        lam = Lam("x", Var("x"))
        assert subst_source(lam, "x", Const(constants.int_const(5))) == lam

    def test_two_occurrences(self):
        e = parser.parse_expr("let y = x in y x")
        t = Const(constants.TRUE_CONST)
        got = subst_source(e, "x", t)
        assert got == Let("y", t, App(Var("y"), t))

    def test_capture_avoided(self):
        body = Lam("y", App(Var("x"), Var("y")))
        got = subst_source(body, "x", Var("y"))
        assert isinstance(got, Lam)
        assert got.param != "y"
        assert got.body == App(Var("y"), Var(got.param))


class TestEval:
    def test_addition(self):
        # delta(add, 1) = add@1, delta(add@1, 2) = 3
        assert run("add 1 2") == Value(Const(constants.int_const(3)))

    def test_stuck_application(self):
        out = run("(\\x => x 1) 0")
        assert isinstance(out, StuckAt)
        assert syntax.print_expr(out.expr) == "0 1"

    def test_fuel_exhaustion(self):
        out = run("let f = \\x => x in f (f true)", fuel=1)
        assert isinstance(out, FuelExhausted)

    def test_trace_records_rules(self):
        e = erase_ascriptions(parser.parse_expr("if ne 0 0 then 1 else 2"))
        out, rules, states = eval_source_trace(e, 100)
        assert out == Value(Const(constants.int_const(2)))
        assert rules == ["E-App-A", "E-App-A", "E-If-False"]
        assert len(states) == len(rules) + 1

    def test_mul_by_literal(self):
        assert run("mul -3 4") == Value(Const(constants.int_const(-12)))

    def test_comparisons(self):
        assert run("lt 1 2") == Value(Const(constants.TRUE_CONST))
        assert run("le 3 2") == Value(Const(constants.FALSE_CONST))
        assert run("eq 2 2") == Value(Const(constants.TRUE_CONST))
        assert run("not (ne 2 2)") == Value(Const(constants.TRUE_CONST))

    def test_ascriptions_must_be_erased(self):
        with pytest.raises(ValueError):
            step_source(parser.parse_expr("(1 : number)"))


class TestContextClosure:
    def test_step_commutes_with_contexts(self):
        # if e steps to e', then E[e] steps to E[e'] for each context form
        e = erase_ascriptions(parser.parse_expr("add 1 2"))
        stepped = step_source(e)
        assert isinstance(stepped, Stepped)
        e2 = stepped.next
        contexts = [
            lambda h: Let("z", h, Var("z")),
            lambda h: If(h, Const(constants.int_const(1)), Const(constants.int_const(2))),
            lambda h: App(h, Const(constants.int_const(0))),
            lambda h: App(Lam("w", Var("w")), h),
        ]
        for ctx in contexts:
            got = step_source(ctx(e))
            assert isinstance(got, Stepped)
            assert got.next == ctx(e2)
