import pytest

from l2 import constants, elaborate, parser
from l2.syntax import BOOL, FunType, NUM, OrType, erase_ascriptions, is_value
from l2.target import (
    TApp,
    TCase,
    TConst,
    TDead,
    TInj,
    TLam,
    TPair,
    TProj,
    TVar,
    print_target,
)
from l2.source_interp import FuelExhausted, Stepped, StuckAt, Value
from l2.target_interp import contains_dead_value, eval_target_trace, step_target
from tests.conftest import NEGATE_OK, eval_target


def num(k):
    return TConst(constants.int_const(k))


TRUE_W = TConst(constants.TRUE_CONST)


class TestValues:
    def test_value_grammar(self):
        assert is_value(num(1))
        assert is_value(TPair(TApp(num(1), num(2)), num(3)))  # lazy components
        assert is_value(TInj(1, num(1), OrType(NUM, BOOL)))
        assert not is_value(TInj(1, TApp(TConst(constants.ADD), num(1)), OrType(NUM, BOOL)))
        assert is_value(TDead(NUM, BOOL, num(1)))
        assert not is_value(TDead(NUM, BOOL, TApp(TConst(constants.NOT), TRUE_W)))

    def test_dead_over_value_does_not_step(self):
        w = TDead(NUM, BOOL, num(1))
        assert eval_target(w, fuel=1) == Value(w)


class TestStep:
    def test_case_substitutes_payload(self):
        w = TCase(TInj(1, num(5), OrType(NUM, BOOL)), "x1", TVar("x1"), "x2", num(0))
        got = step_target(w)
        assert got == Stepped(num(5), "E-Case")

    def test_primitive_rejects_dead_argument(self):
        w = TApp(TConst(constants.NOT), TDead(NUM, BOOL, num(3)))
        got = step_target(w)
        assert isinstance(got, StuckAt) and got.reason == "dead-argument"

    def test_projection(self):
        w = TProj(2, TPair(num(1), TRUE_W))
        assert step_target(w) == Stepped(TRUE_W, "E-Proj")

    def test_beta_accepts_dead_argument(self):
        lam = TLam("x", TVar("x"), FunType(NUM, NUM))
        dead = TDead(BOOL, NUM, TRUE_W)
        assert step_target(TApp(lam, dead)) == Stepped(dead, "E-Beta")

    def test_evaluation_inside_dead(self):
        w = TDead(BOOL, NUM, TApp(TConst(constants.NOT), TRUE_W))
        got = step_target(w)
        assert isinstance(got, Stepped) and got.rule == "E-App-C"
        assert got.next == TDead(BOOL, NUM, TConst(constants.FALSE_CONST))

    def test_if_on_dead_is_stuck(self):
        w = __class__._if_dead()
        got = step_target(w)
        assert isinstance(got, StuckAt) and got.reason == "if-non-boolean"

    @staticmethod
    def _if_dead():
        from l2.target import TIf

        return TIf(TDead(NUM, BOOL, num(3)), num(1), num(2))

    def test_determinism(self):
        w = TApp(TApp(TConst(constants.ADD), num(1)), num(2))
        assert step_target(w) == step_target(w)


class TestEval:
    def test_dead_semantics_example(self):
        p = parser.parse_program("((\\x => x 1) : (number -> number) -> number) 0")
        result = elaborate.elaborate_program(p)
        out, rules, _ = eval_target_trace(result.target)
        assert rules == ["E-Beta"]
        assert isinstance(out, StuckAt)
        assert contains_dead_value(out.focus)

    def test_negate_call_a_value(self):
        # call a computes 0 - 1: delta(sub, 0) then delta(sub@0, 1) gives -1
        text = NEGATE_OK.replace("let b = neg 0 true in\nb", "let b = neg 0 true in\na")
        p = parser.parse_program(text)
        result = elaborate.elaborate_program(p)
        out = eval_target(result.target)
        assert out == Value(num(-1))

    def test_negate_call_b_value(self):
        p = parser.parse_program(NEGATE_OK)
        result = elaborate.elaborate_program(p)
        assert eval_target(result.target) == Value(TConst(constants.FALSE_CONST))

    def test_fuel(self):
        w = TApp(TApp(TConst(constants.ADD), num(1)), num(2))
        assert isinstance(eval_target(w, fuel=1), FuelExhausted)

    def test_stuck_focus_contains_dead_on_corpus(self):
        from l2 import harness
        from l2 import source_interp

        for seed in range(80):
            program = harness.gen_program(seed, 25)
            result = elaborate.elaborate_program(program)
            out, _, _ = eval_target_trace(result.target, 5000)
            if isinstance(out, StuckAt):
                assert contains_dead_value(out.focus)
