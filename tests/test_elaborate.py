import dataclasses
import pathlib

import pytest

from l2 import constants, harness, parser, syntax
from l2.elaborate import (
    ElabError,
    Elaborator,
    FLAG_INTER,
    FLAG_PLAIN,
    FLEXIBLE,
    STRICT,
    check_expr,
    elaborate_program,
)
from l2.logic import LinTerm, PBool, cmp_pred
from l2.refine import check_refined
from l2.syntax import (
    AndType,
    App,
    Ascribe,
    BOOL,
    Const,
    FunType,
    Lam,
    Let,
    NUM,
    OrType,
    PrimType,
    Var,
    erase_refinements,
    type_tag,
    types_equal_basic,
)
from l2.target import (
    TApp,
    TCase,
    TConst,
    TDead,
    TLam,
    TPair,
    TProj,
    TVar,
    print_target,
    simple_typecheck,
)
from tests.conftest import NEGATE_FULL, NEGATE_OK, PROGRAMS, let_chain

BOTH = AndType(FunType(NUM, NUM), FunType(BOOL, BOOL))

NEGATE_TARGET_GOLDEN = (
    "let neg = ("
    "\\flag => \\x => if ne flag 0 then sub 0 x "
    "else DEAD[boolean => number](not DEAD[number => boolean](x)), "
    "\\flag => \\x => if ne flag 0 then DEAD[number => boolean](sub 0 DEAD[boolean => number](x)) "
    "else not x) "
    "in let a = proj1(neg) 1 1 in let b = proj2(neg) 0 true in b"
)


class TestNegate:
    def test_golden_target(self):
        result = elaborate_program(parser.parse_program(NEGATE_OK))
        assert print_target(result.target) == NEGATE_TARGET_GOLDEN

    def test_dead_placement(self):
        result = elaborate_program(parser.parse_program(NEGATE_OK))
        text = print_target(result.target)
        assert "DEAD[boolean => number](not DEAD[number => boolean](x))" in text
        assert "DEAD[number => boolean](sub 0 DEAD[boolean => number](x))" in text

    def test_proj_dispatch_all_four_calls(self):
        result = elaborate_program(parser.parse_program(NEGATE_FULL))
        text = print_target(result.target)
        assert "let a = proj1(neg) 1 1" in text
        assert "let b = proj2(neg) 0 true" in text
        assert "let c = proj1(neg) 0 1" in text
        assert "let d = proj2(neg) 1 true" in text

    def test_trace_names_rules(self):
        result = elaborate_program(parser.parse_program(NEGATE_OK))
        assert result.trace[0] == "T-TopLevel"
        assert "T-And-Intro" in result.trace
        assert "T-And-Elim" in result.trace
        assert "T-Dead" in result.trace

    def test_trace_is_flattened_on_first_read_only(self, monkeypatch):
        from l2 import elaborate

        calls = []
        flatten = elaborate.flatten_trace
        monkeypatch.setattr(elaborate, "flatten_trace", lambda tree: calls.append(tree) or flatten(tree))
        result = elaborate_program(parser.parse_program(NEGATE_OK))
        assert calls == []
        assert result.trace == flatten(result.tree) and result.trace is result.trace
        assert len(calls) == 1

    def test_erased_type_soundness(self):
        result = elaborate_program(parser.parse_program(NEGATE_FULL))
        assert simple_typecheck({}, result.target) == erase_refinements(result.type)


class TestCheckExpr:
    def test_flexible_mismatch_becomes_dead(self):
        w, flag = check_expr({"x": BOOL}, Var("x"), NUM, FLEXIBLE)
        assert w == TDead(BOOL, NUM, TVar("x"))
        assert flag == FLAG_PLAIN

    def test_strict_mismatch_rejected(self):
        with pytest.raises(ElabError):
            check_expr({"x": BOOL}, Var("x"), NUM, STRICT)

    def test_overload_selects_matching_conjunct(self):
        env = {"f": BOTH, "x": BOOL}
        w, flag = check_expr(env, App(Var("f"), Var("x")), BOOL, FLEXIBLE)
        assert w == TApp(TProj(2, TVar("f")), TVar("x"))

    def test_no_dead_under_intersection_argument(self):
        # with an intersection head the argument is strict, so the mismatch
        # cannot be absorbed at the argument; the whole application is cast
        env = {"f": BOTH, "x": BOOL}
        w, _ = check_expr(env, App(Var("f"), Var("x")), NUM, FLEXIBLE)
        assert w == TDead(BOOL, NUM, TApp(TProj(2, TVar("f")), TVar("x")))
        forbidden = TApp(TProj(1, TVar("f")), TDead(BOOL, NUM, TVar("x")))
        assert w != forbidden

    def test_higher_order_tag_clash_is_rejected(self):
        lam = Lam("f", Var("f"))
        expected = FunType(BOTH, FunType(NUM, BOOL))
        with pytest.raises(ElabError):
            check_expr({}, lam, expected, FLEXIBLE)

    def test_intersection_introduction_is_value_only(self):
        # an application cannot take an intersection type even flexibly
        env = {"f": FunType(NUM, NUM)}
        with pytest.raises(ElabError):
            check_expr(env, App(Var("f"), Const(constants.int_const(1))),
                       AndType(NUM, NUM), FLEXIBLE)

    def test_ill_formed_types_rejected_at_entry(self):
        # the search checks no type, so the expected type and the
        # environment's types are checked before it starts
        with pytest.raises(ElabError, match=r"ill-formed annotation number \\/ number"):
            check_expr({}, Const(constants.int_const(1)), OrType(NUM, NUM))
        with pytest.raises(ElabError, match="intersection parts have different tags"):
            check_expr({"x": AndType(NUM, BOOL)}, Var("x"), NUM)

    def test_mode_monotonicity(self):
        # anything accepted strictly is accepted flexibly with the same target
        cases = [
            ({"x": NUM}, Var("x"), NUM),
            ({}, Const(constants.int_const(1)), NUM),
            ({"f": BOTH}, App(Var("f"), Const(constants.int_const(1))), NUM),
            ({}, Lam("x", Var("x")), FunType(NUM, NUM)),
        ]
        for env, e, ty in cases:
            w_strict, f_strict = check_expr(env, e, ty, STRICT)
            w_flex, f_flex = check_expr(env, e, ty, FLEXIBLE)
            assert w_strict == w_flex and f_strict == f_flex


def resolve_union_elim(elab, env, e0, context, expected, mode=FLEXIBLE):
    env = elab.env_of(env)
    for t0, w0, _, tr0 in elab.synth(env, e0, mode, elab.search_depth):
        if not isinstance(t0, OrType):
            continue
        for _, w, _, _ in elab._union_split(env, e0, t0, w0, tr0, context, expected, mode,
                                         elab.search_depth):
            return w
    raise ElabError("union elimination failed", getattr(e0, "pos", None))


class TestUnionElim:
    def test_resolve_union_elim_at_let_context(self):
        # splitting "let y = u in not y" over u : number \/ boolean
        elab = Elaborator()
        union = OrType(NUM, BOOL)
        env = {"u": union}
        context = lambda hole: Let("y", hole, App(Const(constants.NOT), Var("y")))
        w = resolve_union_elim(elab, env, Var("u"), context, BOOL, FLEXIBLE)
        assert isinstance(w, TCase)
        assert w.scrutinee == TVar("u")
        # the number branch needs a cast, the boolean branch is direct
        assert "DEAD[number => boolean]" in print_target(w.branch1)
        assert "DEAD" not in print_target(w.branch2)

    def test_if_condition_split(self):
        p = parser.parse_program(
            "let u = (true : boolean \\/ number) in if u then 1 else 2"
        )
        result = elaborate_program(p)
        text = print_target(result.target)
        assert "case u of" in text

    def test_precondition_violated(self):
        elab = Elaborator()
        with pytest.raises(ElabError):
            resolve_union_elim(elab, {"n": NUM}, Var("n"), lambda h: h, NUM, FLEXIBLE)


class TestInvariants:
    def test_refinement_transparency(self):
        # erasing every annotation refinement leaves the target unchanged
        # modulo the refinements stamped on binders
        def strip_types(e):
            match e:
                case Ascribe(inner, ty, pos):
                    return Ascribe(strip_types(inner), erase_refinements(ty), pos)
                case Lam(p, b, pos=pos):
                    return Lam(p, strip_types(b), pos=pos)
                case Let(n, b, c, pos):
                    return Let(n, strip_types(b), strip_types(c), pos)
                case App(f, a, pos):
                    return App(strip_types(f), strip_types(a), pos)
                case syntax.If(c, t, f, pos):
                    return syntax.If(strip_types(c), strip_types(t), strip_types(f), pos)
                case _:
                    return e

        p = parser.parse_program(NEGATE_OK)
        plain = syntax.Program(p.type_aliases, strip_types(p.main))
        a = elaborate_program(p)
        b = elaborate_program(plain)
        assert print_target(a.target) == print_target(b.target)

    def test_dead_tags_disjoint_everywhere(self):
        from l2.target import TgtExpr

        def deads(w):
            match w:
                case TDead(ft, tt, inner):
                    yield ft, tt
                    yield from deads(inner)
                case TConst() | TVar():
                    return
                case TPair(a, b) | TApp(a, b):
                    yield from deads(a)
                    yield from deads(b)
                case TLam(_, body):
                    yield from deads(body)
                case _:
                    for attr in ("cond", "then", "els", "bound", "body",
                                 "tuple_", "payload", "scrutinee", "branch1", "branch2"):
                        child = getattr(w, attr, None)
                        if child is not None and not isinstance(child, str):
                            yield from deads(child)

        for seed in range(120):
            program = harness.gen_program(seed, 25)
            result = elaborate_program(program)
            for ft, tt in deads(result.target):
                assert not (type_tag(ft) & type_tag(tt))

    def test_elaboration_type_soundness_on_corpus(self):
        for seed in range(120):
            program = harness.gen_program(seed, 25)
            result = elaborate_program(program)
            assert simple_typecheck({}, result.target) == erase_refinements(result.type)

    def test_search_depth_limits_runaway(self):
        p = parser.parse_program(NEGATE_OK)
        with pytest.raises(ElabError):
            elaborate_program(p, search_depth=0)

    def test_ill_formed_annotation_rejected(self):
        p = parser.parse_program("(1 : number \\/ number)")
        with pytest.raises(ElabError) as exc:
            elaborate_program(p)
        assert "ill-formed" in str(exc.value)

    def test_bare_lambda_cannot_synthesize(self):
        p = parser.parse_program("(\\x => x) 5")
        with pytest.raises(ElabError):
            elaborate_program(p)

    def test_deterministic_output(self):
        p = parser.parse_program(NEGATE_FULL)
        assert print_target(elaborate_program(p).target) == print_target(
            elaborate_program(p).target
        )


NESTED = """type pos = {v:number | v > 0}
let id = ((\\x => x) : ((number -> number) /\\ (boolean -> boolean)) /\\ (pos -> pos)) in
let id2 = ((\\x => x) : (number -> number) /\\ ((boolean -> boolean) /\\ (pos -> pos))) in
let a = id 1 in
let b = id2 true in
let c = (id2 : pos -> pos) 3 in
c
"""


class TestNestedIntersections:
    def test_first_conjunct_in_preorder(self):
        # through a head, on either side of the nesting, and through an
        # ascription, whose pos -> pos is basic number -> number
        text = print_target(elaborate_program(parser.parse_program(NESTED)).target)
        assert "let a = proj1(proj1(id)) 1 in" in text
        assert "let b = proj1(proj2(id2)) true in" in text
        assert "let c = proj1(id2) 3 in" in text

    def test_accepted(self):
        result = elaborate_program(parser.parse_program(NESTED))
        assert check_refined(result.target).accepted


class TestOneTermLanguage:
    # The target is the source core plus products, sums and DEAD casts, so a
    # program that needs none of them elaborates to itself.

    @pytest.mark.parametrize("n", [1, 50, 300])
    def test_unannotated_core_elaborates_to_itself(self, n):
        program = parser.parse_program(let_chain(n))
        assert elaborate_program(program).target == program.main

    def test_lambda_annotation_comes_before_position(self):
        # a parsed lambda has no arrow and its source position; its
        # elaboration has the arrow it was checked against and the same one
        assert [f.name for f in dataclasses.fields(Lam)] == ["param", "body", "src_ann", "pos"]
        program = parser.parse_program("((\\x => x) : number -> number)")
        lam = program.main.expr
        assert lam.src_ann is None and lam.pos == (1, 3)
        w = elaborate_program(program).target
        assert isinstance(w, Lam) and w.src_ann == FunType(NUM, NUM) and w.pos == (1, 3)


class TestOverloadedArgumentStrictness:
    def test_projection_heads_never_take_cast_arguments(self):
        # a conjunct-selected head forces a strict argument, so no output may
        # apply a projection head directly to a DEAD-rooted argument
        from l2.target import TCase, TIf, TInj, TLet

        def apps(w):
            match w:
                case TApp(fn, arg):
                    yield fn, arg
                    yield from apps(fn)
                    yield from apps(arg)
                case TConst() | TVar():
                    return
                case TLam(_, body):
                    yield from apps(body)
                case TIf(c, t, f):
                    for part in (c, t, f):
                        yield from apps(part)
                case TLet(_, b, c):
                    yield from apps(b)
                    yield from apps(c)
                case TPair(a, b):
                    yield from apps(a)
                    yield from apps(b)
                case TProj(_, t):
                    yield from apps(t)
                case TInj(_, p):
                    yield from apps(p)
                case TCase(s, _, b1, _, b2):
                    for part in (s, b1, b2):
                        yield from apps(part)
                case TDead(_, _, inner):
                    yield from apps(inner)

        for seed in range(200):
            program = harness.gen_program(seed, 30)
            result = elaborate_program(program)
            for fn, arg in apps(result.target):
                if isinstance(fn, TProj):
                    assert not isinstance(arg, TDead), syntax.print_program(program)


class TestEnvironments:
    # The parser renames shadowing binders apart, so these terms are built
    # directly.

    def test_let_shadows_outer_name_with_other_type(self):
        one, true = Const(constants.int_const(1)), Const(constants.TRUE_CONST)
        e = Let("x", one, Let("x", true, Var("x")))
        result = elaborate_program(syntax.Program((), e))
        assert result.type == BOOL
        assert print_target(result.target) == "let x = 1 in let x = true in x"

    def test_lambda_parameter_shadows_let(self):
        one, true = Const(constants.int_const(1)), Const(constants.TRUE_CONST)
        inc = Lam("x", App(App(Const(constants.ADD), Var("x")), one))
        e = Let("x", true, App(Ascribe(inc, FunType(NUM, NUM)), one))
        result = elaborate_program(syntax.Program((), e))
        assert result.type == NUM
        assert print_target(result.target) == "let x = true in (\\x => add x 1) 1"

    def test_extend_makes_one_frame_per_extension(self):
        elab = Elaborator()
        a = elab.extend(elab.empty_env, "a", NUM)
        ab = elab.extend(a, "b", BOOL)
        assert elab.extend(elab.empty_env, "a", NUM) is a
        assert elab.extend(a, "b", BOOL) is ab
        assert elab.env_of({"a": NUM, "b": BOOL}) is ab
        assert elab.env_of({"a": NUM, "b": BOOL}) is elab.env_of({"a": NUM, "b": BOOL})
        shadowed = elab.extend(ab, "a", BOOL)
        assert shadowed is not ab
        assert shadowed.get("a") == BOOL and ab.get("a") == NUM
        assert shadowed.get("b") == BOOL and ab.get("c") is None


def elaboration_lines() -> list[str]:
    """Each shipped and each generated program's flag, rule-trace length and
    printed target, one line per program."""
    named = [(path.name, parser.parse_program(path.read_text()))
             for path in sorted(PROGRAMS.glob("*.l2"))]
    named += [(f"gen {seed} {budget}", harness.gen_program(seed, budget))
              for seed in range(100) for budget in (30, 60)]
    lines = []
    for name, program in named:
        result = elaborate_program(program)
        lines.append(f"{name}\t{result.flag}\t{len(result.trace)}\t"
                     f"{print_target(result.target)}")
    return lines


class TestCandidateOrder:
    # Phase 1 takes the first derivation its fixed attempt order finds, so
    # any change to that order shows up here as another target or trace.

    def test_elaborations_match_golden(self):
        golden = (pathlib.Path(__file__).resolve().parent / "golden"
                  / "gen_elaboration.golden").read_text().splitlines()
        assert elaboration_lines() == golden
