import random
import re
import sys

import pytest

from l2 import constants, logic, parser, syntax
from l2.harness import gen_program
from l2.logic import (
    BVar, LinTerm, PAnd, PAtom, PBool, POr, cmp_pred, pand, piff, pimp, pnot, por, render_pred,
)
from l2.parser import ParseError, UnboundAlias
from l2.syntax import (
    AndType,
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
    PrimType,
    Var,
)
from tests.conftest import let_chain


def test_let_production():
    e = parser.parse_expr("let x = 1 in x")
    assert e == Let("x", Const(constants.int_const(1)), Var("x"))


def test_application_is_left_associative():
    e = parser.parse_expr("add 1 2")
    assert e == App(App(Const(constants.ADD), Const(constants.int_const(1))),
                    Const(constants.int_const(2)))


def test_lambda_and_ascription():
    e = parser.parse_expr("(\\x => x : number -> number)")
    assert e == Ascribe(Lam("x", Var("x")), FunType(NUM, NUM))


def test_if_production():
    e = parser.parse_expr("if true then 1 else 0")
    assert isinstance(e, If)


def test_negative_literals():
    e = parser.parse_expr("sub -3 -4")
    assert isinstance(e, App)
    assert e.arg == Const(constants.int_const(-4))


def test_negate_program_shape(programs_dir):
    p = parser.parse_program((programs_dir / "negate_ok.l2").read_text())
    assert len(p.type_aliases) == 2
    let = p.main
    assert isinstance(let, Let) and let.name == "neg"
    assert isinstance(let.bound, Ascribe)
    assert isinstance(let.bound.ty, AndType)
    # aliases expand to refined primitives
    first = let.bound.ty.left
    assert isinstance(first, FunType) and isinstance(first.dom, PrimType)
    assert first.dom.refinement != PBool(True)


def test_type_precedence():
    t = parser.parse_type("number /\\ number \\/ boolean -> boolean")
    assert t == FunType(OrType(AndType(NUM, NUM), BOOL), BOOL)


def test_arrow_right_associative():
    t = parser.parse_type("number -> number -> number")
    assert t == FunType(NUM, FunType(NUM, NUM))


def test_refinement_type():
    t = parser.parse_type("{v:number | v != 0 && v <= 9}")
    v = LinTerm.of_var("v")
    assert t == PrimType(
        "number", pand([cmp_pred(v, "!=", LinTerm.of_const(0)),
                        cmp_pred(v, "<=", LinTerm.of_const(9))])
    )


def test_pred_precedence():
    p = parser.parse_pred("v = 1 || v = 2 && false => true")
    inner = por([cmp_pred(LinTerm.of_var("v"), "=", LinTerm.of_const(1)),
                 pand([cmp_pred(LinTerm.of_var("v"), "=", LinTerm.of_const(2)), PBool(False)])])
    assert p == pimp(inner, PBool(True))


def test_pred_arith():
    p = parser.parse_pred("2*v - x + 1 >= 3")
    lhs = LinTerm.of_var("v").scale(2) - LinTerm.of_var("x") + LinTerm.of_const(1)
    assert p == cmp_pred(lhs, ">=", LinTerm.of_const(3))


def test_bool_var_atom():
    assert parser.parse_pred("!b") == pnot(PAtom(BVar("b")))


def test_iff_is_read_between_implication_and_disjunction():
    b, x = PAtom(BVar("b")), cmp_pred(LinTerm.of_var("x"), "<", LinTerm.of_const(1))
    assert parser.parse_pred("b <=> x < 1") == piff(b, x)
    assert parser.parse_pred("b <=> x < 1 => b || b <=> b") == pimp(piff(b, x),
                                                                    piff(por([b, b]), b))


def test_each_connective_binds_tighter_than_the_one_before():
    a, b, c, d, e = (PAtom(BVar(n)) for n in "abcde")
    assert parser.parse_pred("a => b <=> c || d && !e") == pimp(
        a, piff(b, por([c, pand([d, pnot(e)])])))
    assert parser.parse_pred("!e && d || c <=> b => a") == pimp(
        piff(por([pand([pnot(e), d]), c]), b), a)


@pytest.mark.parametrize("text", ["$g1 = 4", "v = $u2", "!($g1)"])
def test_formulas_read_reserved_names(text):
    assert render_pred(parser.parse_pred(text)) == text


@pytest.mark.parametrize("parse, text", [
    (parser.parse_program, "let x = 1 in $g1"),
    (parser.parse_program, "(1 : {v:number | v = $d1})"),
    (parser.parse_expr, "add $u2 1"),
    (parser.parse_type, "{v:number | v = $g1}"),
])
def test_programs_cannot_name_reserved_names(parse, text):
    with pytest.raises(ParseError, match="unexpected character '\\$'"):
        parse(text)


def test_nonlinear_product_rejected():
    with pytest.raises(ParseError):
        parser.parse_pred("v * x = 1")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parser.parse_expr("((")
    assert exc.value.line == 1
    assert exc.value.col >= 2


def test_unbound_alias():
    with pytest.raises(UnboundAlias):
        parser.parse_program("(1 : mystery)")


def test_duplicate_alias_rejected():
    with pytest.raises(ParseError):
        parser.parse_program("type t = number type t = boolean 1")


def test_duplicate_alias_reported_at_its_name():
    with pytest.raises(ParseError) as exc:
        parser.parse_program("type t = number\ntype t = boolean\n1")
    assert (exc.value.line, exc.value.col) == (2, 6)
    assert exc.value.message == "duplicate type alias 't'"


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parser.parse_program("1 2 )")


def test_comments_ignored():
    e = parser.parse_expr("-- hello\n1")
    assert e == Const(constants.int_const(1))


def test_binders_unique_after_parse():
    p = parser.parse_program("let x = 1 in let x = 2 in x")
    names = []

    def walk(e):
        match e:
            case Let(name, bound, body):
                names.append(name)
                walk(bound)
                walk(body)
            case _:
                pass

    walk(p.main)
    assert len(names) == len(set(names)) == 2


# ---------------------------------------------------------------------------
# The tokenizer against the former one
# ---------------------------------------------------------------------------

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>=>|->|/\\|\\/|&&|\|\||<=|>=|!=|[\\(){}:|=<>!+\-*,])
    """,
    re.VERBOSE,
)


def ref_tokenize(text):
    """The former tokenizer, one match at a time from the start of the text,
    as (kind, text, line, col) tuples."""
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _REF_TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        i = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def assert_same_tokens(text):
    got = [(t.kind, t.text, t.line, t.col) for t in parser.tokenize(text)]
    assert got == ref_tokenize(text), text


def test_tokens_match_the_former_tokenizer_on_programs(programs_dir):
    for path in sorted(programs_dir.glob("*.l2")):
        assert_same_tokens(path.read_text())
    for n in (1, 50, 150, 600, 1000):
        assert_same_tokens(let_chain(n))


def test_tokens_match_the_former_tokenizer_on_generated_programs():
    for seed in range(400):
        for budget in (30, 60):
            assert_same_tokens(syntax.print_expr(gen_program(seed, budget).main))


@pytest.mark.parametrize("text, tokens", [
    ("", [("eof", "", 1, 1)]),
    ("-- a comment\n", [("eof", "", 2, 1)]),
    ("x--c\ny", [("name", "x", 1, 1), ("name", "y", 2, 1), ("eof", "", 2, 2)]),
    ("1-2--3", [("int", "1", 1, 1), ("sym", "-", 1, 2), ("int", "2", 1, 3), ("eof", "", 1, 7)]),
    ("let\r\n x\r\n", [("name", "let", 1, 1), ("name", "x", 2, 2), ("eof", "", 3, 1)]),
    ("\tf\t 1 \t", [("name", "f", 1, 2), ("int", "1", 1, 5), ("eof", "", 1, 8)]),
    ("a\x0cb\u2028c  \n\n", [("name", "a", 1, 1), ("name", "b", 1, 3), ("name", "c", 1, 5),
                             ("eof", "", 3, 1)]),
])
def test_token_cases(text, tokens):
    assert [tuple(t) for t in parser.tokenize(text)] == tokens
    assert ref_tokenize(text) == tokens


@pytest.mark.parametrize("text", [
    "let x = 1 in\n\t x # 3", "@", "x -- fine\n  y $", "\r\n\r\n  ?", "a\u2028 é",
])
def test_unexpected_character_keeps_its_position(text):
    with pytest.raises(ParseError) as got:
        parser.tokenize(text)
    with pytest.raises(ParseError) as want:
        ref_tokenize(text)
    assert str(got.value) == str(want.value)
    assert (got.value.line, got.value.col) == (want.value.line, want.value.col)


# ---------------------------------------------------------------------------
# Deep input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    let_chain(5000),
    "".join(f"\\x{i} => " for i in range(5000)) + "x0",
    "".join(f"if b then {i} else " for i in range(5000)) + "0",
], ids=["let", "lambda", "else-if"])
def test_deep_chains_parse_without_recursion(text):
    main = parser.parse_program(text).main
    assert sum(1 for _ in syntax.subexprs(main)) > 5000
    printed = syntax.print_expr(main)
    assert syntax.print_expr(parser.parse_program(printed).main) == printed


@pytest.mark.parametrize("op", ["&&", "||"])
def test_long_connective_chains_are_joined_once(op):
    """A run of one connective reaches pand/por once, so reading an n-long
    chain passes O(n) parts to them, not the O(n^2) of joining pairwise."""
    n, received = 20000, 0
    joins = (logic.pand.__code__, logic.por.__code__)

    def count(frame, event, arg):
        nonlocal received
        if event == "call" and frame.f_code in joins:
            received += sum(len(p.parts) if isinstance(p, (PAnd, POr)) else 1
                            for p in frame.f_locals["parts"])

    text = f" {op} ".join(f"x{i} = {i}" for i in range(n))
    sys.setprofile(count)
    try:
        p = parser.parse_pred(text)
    finally:
        sys.setprofile(None)
    assert len(p.parts) == n
    assert received <= 2 * n


def test_connective_runs_join_as_pairwise_joins_did():
    """A run's one join equals the former left fold of two-operand joins,
    with true, false and parenthesised runs among the operands."""
    operands = ["true", "false", "x = 0", "b", "(y = 1 && z = 2)", "(y = 1 || z = 2)",
                "!(x < 3)", "(true)", "(false || b)"]
    rng = random.Random(0)
    for _ in range(300):
        disjuncts = [[rng.choice(operands) for _ in range(rng.randint(1, 5))]
                     for _ in range(rng.randint(1, 5))]
        want = None
        for conjuncts in disjuncts:
            conj = None
            for text in conjuncts:
                q = parser.parse_pred(text)
                conj = q if conj is None else pand((conj, q))
            want = conj if want is None else por((want, conj))
        text = " || ".join(" && ".join(c) for c in disjuncts)
        assert parser.parse_pred(text) == want, text


@pytest.mark.parametrize("text, col", [
    ("x = 0 && y = 0 && && z = 0", 19),
    ("x = 0 || y = 0 || z +", 22),
    ("x = 0 && y = 0 || ) ", 19),
    ("a && b && c * d = 0 && e", 17),
    ("a || b && (c || d", 14),
])
def test_connective_run_errors_keep_their_position(text, col):
    with pytest.raises(ParseError) as exc:
        parser.parse_pred(text)
    assert (exc.value.line, exc.value.col) == (1, col)
