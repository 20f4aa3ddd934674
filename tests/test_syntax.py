import pytest
from hypothesis import given, settings, strategies as st

from l2 import constants, parser, syntax
from l2.logic import LinTerm, PBool, cmp_pred
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
    erase_ascriptions,
    erase_refinements,
    free_vars,
    is_value,
    map_prims,
    print_expr,
    print_type,
    subexprs,
    type_tag,
    types_equal_basic,
    uniquify,
    wf_type,
)
from tests.conftest import alpha_equal

TT = PrimType("number", cmp_pred(LinTerm.of_var("v"), "!=", LinTerm.of_const(0)))
FF = PrimType("number", cmp_pred(LinTerm.of_var("v"), "=", LinTerm.of_const(0)))


class TestTypeTag:
    def test_bases(self):
        assert type_tag(NUM) == {"number"}
        assert type_tag(BOOL) == {"boolean"}

    def test_arrow_and_intersection(self):
        assert type_tag(FunType(NUM, NUM)) == {"function"}
        both = AndType(FunType(NUM, NUM), FunType(BOOL, BOOL))
        assert type_tag(both) == {"function"}

    def test_union_collects(self):
        assert type_tag(OrType(NUM, BOOL)) == {"number", "boolean"}

    def test_refinement_invariance(self):
        assert type_tag(TT) == type_tag(NUM)
        assert type_tag(OrType(TT, BOOL)) == type_tag(OrType(NUM, BOOL))


class TestWf:
    def test_disjoint_union(self):
        assert wf_type(OrType(NUM, BOOL)).ok

    def test_overlapping_union(self):
        report = wf_type(OrType(NUM, NUM))
        assert not report.ok
        assert report.offender == OrType(NUM, NUM)
        assert "overlapping" in report.reason

    def test_negate_signature(self):
        sig = AndType(FunType(TT, FunType(NUM, NUM)), FunType(FF, FunType(BOOL, BOOL)))
        assert wf_type(sig).ok

    def test_mismatched_intersection(self):
        assert not wf_type(AndType(NUM, BOOL)).ok

    def test_nested_offender_reported(self):
        bad = FunType(OrType(NUM, TT), NUM)
        report = wf_type(bad)
        assert not report.ok
        assert report.offender == OrType(NUM, TT)

    def test_subterms_of_wf_are_wf(self):
        sig = AndType(FunType(TT, FunType(NUM, NUM)), FunType(FF, FunType(BOOL, BOOL)))

        def subterms(t):
            yield t
            match t:
                case FunType(d, c) | AndType(d, c) | OrType(d, c):
                    yield from subterms(d)
                    yield from subterms(c)
                case _:
                    pass

        assert wf_type(sig).ok
        assert all(wf_type(s).ok for s in subterms(sig))


class TestBasicEquality:
    def test_refinements_ignored(self):
        assert types_equal_basic(TT, NUM)
        assert types_equal_basic(FunType(TT, NUM), FunType(NUM, NUM))
        assert not types_equal_basic(NUM, BOOL)

    def test_erase(self):
        assert erase_refinements(FunType(TT, FF)) == FunType(NUM, NUM)

    def test_basic_type_is_its_own_erasure(self):
        basic = AndType(FunType(NUM, BOOL), OrType(NUM, FunType(BOOL, NUM)))
        assert erase_refinements(basic) is basic
        assert erase_refinements(FunType(NUM, NUM, "x")) == FunType(NUM, NUM)

    def test_erasure_kept_on_the_node(self, monkeypatch):
        t = FunType(TT, AndType(FF, NUM), "x")
        first = erase_refinements(t)
        assert first == FunType(NUM, AndType(NUM, NUM)) and first.cod.right is NUM

        def fail(*args):
            raise AssertionError("rebuilt")

        monkeypatch.setattr(syntax, "PrimType", fail)
        monkeypatch.setattr(syntax, "FunType", fail)
        assert erase_refinements(t) is first
        assert types_equal_basic(t, first)


def c(k):
    return Const(constants.int_const(k))


class TestCachedHash:
    def test_deep_let_hashes_its_subterms_once(self):
        leaf_hashes = []

        class CountingConst(syntax.PrimConst):
            def __hash__(self):
                leaf_hashes.append(self.name)
                return super().__hash__()

        e = Const(CountingConst("leaf", NUM))
        middle = None
        for i in range(300):
            e = Let(f"x{i}", Var("y"), e)
            if i == 150:
                middle = e
        h = hash(e)
        assert leaf_hashes == ["leaf"]
        assert hash(e) == h and hash(middle) == hash(middle)
        assert leaf_hashes == ["leaf"]

    def test_hash_is_structural(self):
        a = Let("x", App(Var("f", (1, 1)), c(1)), Var("x"))
        b = Let("x", App(Var("f", (2, 5)), c(1)), Var("x"), (3, 3))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(("x", App(Var("f"), c(1)), Var("x")))  # the dataclass value
        assert hash(FunType(NUM, TT)) == hash(FunType(NUM, TT))
        assert {a: 1}[b] == 1


class TestExprHelpers:
    def test_values(self):
        assert is_value(c(1))
        assert is_value(Var("x"))
        assert is_value(Lam("x", Var("x")))
        assert not is_value(App(Var("f"), c(1)))

    def test_free_vars(self):
        e = Let("y", Var("x"), App(Var("y"), Var("x")))
        assert free_vars(e) == {"x"}

    def test_erase_ascriptions(self):
        e = parser.parse_expr("(\\x => (x : number)) (1 : number)")
        erased = erase_ascriptions(e)
        assert erased == App(Lam("x", Var("x")), c(1))

    def test_uniquify_renames_shadowing(self):
        e = Let("x", c(1), Let("x", c(2), Var("x")))
        u = uniquify(e)
        assert isinstance(u, Let) and isinstance(u.body, Let)
        assert u.name != u.body.name
        assert u.body.body == Var(u.body.name)

    def test_uniquify_renames_the_names_refinements_mention(self):
        p = parser.parse_program(
            "let x = 0 in let x = 5 in "
            "let f = ((\\z => z) : {v:number | v > x} -> {v:number | v > x}) in f 1")
        assert print_expr(p.main) == (
            "let x = 0 in let x_1 = 5 in "
            "let f = (\\z => z : {v:number | v > x_1} -> {v:number | v > x_1}) in f 1")

    def test_uniquify_renames_refinements_all_at_once(self):
        # x becomes x_1 while the inner x_1 becomes x_1_1: one renaming, not two in turn.
        e = parser.parse_expr(
            "let x = 0 in let x = 5 in let x_1 = 7 in (1 : {v:number | v > x && v < x_1})")
        assert print_expr(e) == (
            "let x = 0 in let x_1 = 5 in let x_1_1 = 7 in (1 : {v:number | v > x_1 && v < x_1_1})")

    def test_uniquify_never_takes_a_name_a_refinement_reads(self):
        e = parser.parse_expr("let x = 0 in let x = 5 in (1 : {v:number | v > x_1})")
        assert print_expr(e) == "let x = 0 in let x_2 = 5 in (1 : {v:number | v > x_1})"

    def test_uniquify_reserves_the_value_variable(self):
        e = parser.parse_expr(
            "let v_1 = 2 in ((\\v => sub v 5) : {v:number | v > 0} -> {v:number | v >= v_1}) 1")
        assert print_expr(e) == (
            "let v_1 = 2 in (\\v_2 => sub v_2 5 : {v:number | v > 0} -> {v:number | v >= v_1}) 1")

    def test_uniquify_keeps_a_type_that_mentions_no_renamed_name(self):
        ty = parser.parse_type("{v:number | v > y}")
        e = Let("x", c(1), Let("x", c(2), Ascribe(Var("x"), ty)))
        assert uniquify(e).body.body.ty is ty

    def test_subexprs_preorder(self):
        e = parser.parse_expr("let f = (\\x => x : number -> number) in if f 1 then 2 else 3")
        kinds = [type(s).__name__ for s in subexprs(e)]
        assert kinds == ["Let", "Ascribe", "Lam", "Var", "If", "App", "Var", "Const",
                         "Const", "Const"]

    def test_subexprs_deep_needs_no_recursion(self):
        e = c(0)
        for i in range(5000):
            e = Lam("x", e) if i % 2 else App(Var("f"), e)
        assert sum(1 for _ in subexprs(e)) == 7501

    def test_map_prims_left_to_right(self):
        seen = []

        def visit(t, _negative):
            seen.append(t.base)
            return NUM

        t = FunType(AndType(BOOL, NUM), OrType(NUM, BOOL))
        assert map_prims(t, visit) == FunType(AndType(NUM, NUM), OrType(NUM, NUM))
        assert seen == ["boolean", "number", "number", "boolean"]

    def test_alpha_equal(self):
        a = Lam("x", App(Var("x"), c(1)))
        b = Lam("y", App(Var("y"), c(1)))
        assert alpha_equal(a, b)
        assert not alpha_equal(a, Lam("x", App(Var("x"), c(2))))


# -- round tripping ---------------------------------------------------------

_base_types = st.sampled_from([NUM, BOOL, TT, FF])


def _types(depth=2):
    if depth == 0:
        return _base_types
    sub = _types(depth - 1)
    return st.one_of(
        _base_types,
        st.builds(FunType, sub, sub),
        st.builds(lambda: OrType(NUM, BOOL)),
        st.builds(lambda l, r: AndType(FunType(l, l), FunType(r, r)), sub, sub).filter(
            lambda t: wf_type(t).ok
        ),
    )


def _exprs(depth=3):
    leaves = st.one_of(
        st.integers(-9, 9).map(c),
        st.booleans().map(lambda b: Const(constants.bool_const(b))),
        st.sampled_from(["add", "sub", "not", "ne"]).map(
            lambda n: Const(constants.NAMED_CONSTANTS[n])
        ),
    )
    if depth == 0:
        return leaves
    sub = _exprs(depth - 1)
    name = st.sampled_from(["a", "b", "f"])
    return st.one_of(
        leaves,
        st.builds(lambda n, b: Lam(n, b), name, sub),
        st.builds(lambda n, e1, e2: Let(n, e1, e2), name, sub, sub),
        st.builds(If, sub, sub, sub),
        st.builds(App, sub, sub),
        st.builds(lambda e, t: syntax.Ascribe(e, t), sub, _types(1)),
    )


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_types())
    def test_type_round_trip(self, t):
        assert parser.parse_type(print_type(t)) == t

    @settings(max_examples=150, deadline=None)
    @given(_exprs())
    def test_expr_round_trip(self, e):
        closed = uniquify(e)
        # bind any free variables so the program parses standalone
        for name in sorted(free_vars(closed)):
            closed = Let(name, c(0), closed)
        printed = print_expr(closed)
        reparsed = parser.parse_expr(printed)
        assert alpha_equal(uniquify(closed), reparsed), printed

    def test_deep_terms_print(self):
        # The printer keeps its own stack, so depth is bounded by memory only.
        n = 5000
        chain = Var(f"x{n - 1}")
        for i in reversed(range(n)):
            chain = Let(f"x{i}", c(i), chain)
        expected = "".join(f"let x{i} = {i} in " for i in range(n)) + f"x{n - 1}"
        assert print_expr(chain) == expected
        nested = c(0)
        for _ in range(n):
            nested = App(Var("f"), nested)
        assert print_expr(nested) == "f (" * (n - 1) + "f 0" + ")" * (n - 1)

    def test_program_round_trip(self):
        from tests.conftest import NEGATE_OK

        p = parser.parse_program(NEGATE_OK)
        again = parser.parse_program(syntax.print_program(p))
        assert alpha_equal(p.main, again.main)
