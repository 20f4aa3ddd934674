import random

import pytest

from l2 import constants, parser
from l2.logic import FALSE, LinTerm, PBool, TRUE, cmp_pred, pnot
from l2.refine import dead_type, elab_type
from l2.syntax import (
    AndType,
    BOOL,
    FunType,
    NUM,
    OrType,
    PrimType,
    erase_refinements,
    map_prims,
)
from l2.target import (
    IllTyped,
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
    print_target,
    simple_typecheck,
)
from l2.syntax import subst as subst_target
from tests.conftest import ftx


def binders(t):
    """The arrow binders of t in preorder."""
    match t:
        case FunType(dom, cod, binder):
            return [binder, *binders(dom), *binders(cod)]
        case AndType(left, right) | OrType(left, right):
            return [*binders(left), *binders(right)]
    return []


TT = PrimType("number", cmp_pred(LinTerm.of_var("v"), "!=", LinTerm.of_const(0)))


def num(k):
    return TConst(constants.int_const(k))


class TestElabType:
    def test_union_to_sum(self):
        # phase 2 reads the same union as a sum
        assert elab_type(OrType(NUM, BOOL)) == OrType(NUM, BOOL)

    def test_intersection_to_product_with_refinements(self):
        src = AndType(FunType(TT, FunType(NUM, NUM)), FunType(TT, FunType(BOOL, BOOL)))
        t = elab_type(src)
        assert isinstance(t, AndType)
        assert isinstance(t.left, FunType)
        assert t.left.dom == PrimType("number", TT.refinement)

    def test_base(self):
        assert elab_type(NUM) == PrimType("number", TRUE)

    def test_fresh_binders_reserved(self):
        t = elab_type(FunType(NUM, FunType(BOOL, NUM)))
        assert isinstance(t, FunType) and t.binder.startswith("$d")
        assert isinstance(t.cod, FunType) and t.cod.binder != t.binder


def _random_type(rng, depth):
    if depth == 0:
        return rng.choice([NUM, BOOL, TT])
    kind = rng.randrange(4)
    if kind == 0:
        return _random_type(rng, 0)
    if kind == 1:
        return FunType(_random_type(rng, depth - 1), _random_type(rng, depth - 1))
    if kind == 2:
        arrow = FunType(_random_type(rng, depth - 1), _random_type(rng, depth - 1))
        return AndType(arrow, FunType(NUM, BOOL))
    return OrType(rng.choice([NUM, TT]), BOOL)


class TestStrip:
    """Erasure drops refinements and arrow binders, and nothing else."""

    def test_erase_refinement(self):
        assert erase_refinements(TT) == NUM

    def test_erase_binders(self):
        t = FunType(PrimType("number", FALSE), PrimType("number", FALSE), "x")
        assert erase_refinements(t) == FunType(NUM, NUM)

    def test_strip_of_elab_matches_direct_erasure(self):
        rng = random.Random(11)
        for _ in range(200):
            t = _random_type(rng, 3)
            assert erase_refinements(elab_type(t)) == erase_refinements(t)

    def test_binders_distinct_in_preorder(self):
        # elab_type only names the arrows: $d1, $d2, ... in preorder, counted
        # afresh on each call; the refinements stay where they were
        rng = random.Random(12)
        for _ in range(100):
            t = _random_type(rng, 3)
            named = elab_type(t)
            assert binders(named) == [f"$d{i}" for i in range(1, len(binders(t)) + 1)]
            assert map_prims(named, lambda p, _: p) == t
            assert elab_type(t) == named


class TestFtx:
    """The reference ftx (``tests.conftest``), and the sides of a DEAD cast's
    type, which are fbot, ftx at false, of the cast's named types."""

    def test_base(self):
        assert ftx(PrimType("number", TRUE), FALSE) == PrimType("number", FALSE)
        assert dead_type(NUM, BOOL).dom == PrimType("number", FALSE)

    def test_arrow_contravariant(self):
        t = elab_type(FunType(NUM, NUM))
        out = ftx(t, FALSE)
        assert out.dom.refinement == pnot(FALSE)
        assert out.cod.refinement == FALSE
        assert dead_type(BOOL, FunType(NUM, NUM)).cod == out

    def test_sum_componentwise(self):
        t = elab_type(OrType(NUM, BOOL))
        out = ftx(t, FALSE)
        assert out == OrType(PrimType("number", FALSE), PrimType("boolean", FALSE))
        assert dead_type(FunType(NUM, NUM), OrType(NUM, BOOL)).cod == out

    def test_replaces_existing_refinements(self):
        assert ftx(TT, TRUE) == PrimType("number", TRUE)
        assert dead_type(BOOL, TT).cod == PrimType("number", FALSE)

    def test_strip_invariant(self):
        rng = random.Random(13)
        for _ in range(100):
            t = elab_type(_random_type(rng, 3))
            assert erase_refinements(ftx(t, FALSE)) == erase_refinements(t)
            assert erase_refinements(ftx(t, TRUE)) == erase_refinements(t)
            other = NUM if isinstance(t, FunType | AndType) else FunType(NUM, NUM)
            assert erase_refinements(dead_type(t, other).dom) == erase_refinements(t)


class TestSimpleTypecheck:
    def test_pair(self):
        w = TPair(num(1), TConst(constants.TRUE_CONST))
        assert simple_typecheck({}, w) == AndType(NUM, BOOL)

    def test_dead_changes_type(self):
        w = TDead(NUM, FunType(NUM, NUM), num(0))
        assert simple_typecheck({}, w) == FunType(NUM, NUM)

    def test_projection_of_sum_ill_typed(self):
        w = TProj(1, TInj(1, num(1), OrType(NUM, BOOL)))
        with pytest.raises(IllTyped):
            simple_typecheck({}, w)

    def test_binders_shadow_and_restore_the_outer_name(self):
        # x is a number outside; let, lambda and both case arms rebind it
        # as a boolean, and each sibling after them sees the number again
        true = TConst(constants.TRUE_CONST)
        x = TVar("x")
        shadowing = [
            TLet("x", true, x),
            TLam("x", x, FunType(BOOL, BOOL)),
            TCase(TInj(1, true, OrType(BOOL, BOOL)), "x", x, "x", x),
        ]
        expected = [BOOL, FunType(BOOL, BOOL), BOOL]
        w = x
        for inner in reversed(shadowing):
            w = TPair(inner, TPair(x, w))
        env = {"x": NUM}
        want = NUM
        for ty in reversed(expected):
            want = AndType(ty, AndType(NUM, want))
        assert simple_typecheck(env, w) == want
        assert env == {"x": NUM}

    def test_binders_leave_no_binding_behind(self):
        env = {}
        w = TPair(TLet("y", num(1), TVar("y")), TVar("y"))
        with pytest.raises(IllTyped):
            simple_typecheck(env, w)
        assert env == {}
        assert simple_typecheck(env, TLet("y", num(1), TVar("y"))) == NUM
        assert env == {}

    def test_lambda_needs_annotation(self):
        with pytest.raises(IllTyped):
            simple_typecheck({}, TLam("x", TVar("x")))

    def test_application(self):
        lam = TLam("x", TVar("x"), FunType(NUM, NUM))
        assert simple_typecheck({}, TApp(lam, num(1))) == NUM

    def test_argument_mismatch(self):
        lam = TLam("x", TVar("x"), FunType(NUM, NUM))
        with pytest.raises(IllTyped):
            simple_typecheck({}, TApp(lam, TConst(constants.TRUE_CONST)))

    def test_case_branches_must_agree(self):
        scrut = TInj(1, num(1), OrType(NUM, BOOL))
        from l2.target import TCase

        bad = TCase(scrut, "a", num(1), "b", TConst(constants.TRUE_CONST))
        with pytest.raises(IllTyped):
            simple_typecheck({}, bad)

    def test_dead_checks_inner_at_from_type(self):
        with pytest.raises(IllTyped):
            simple_typecheck({}, TDead(BOOL, NUM, num(0)))


class TestTargetSyntax:
    def test_print_forms(self):
        w = TPair(num(1), TDead(NUM, BOOL, num(2)))
        assert print_target(w) == "(1, DEAD[number => boolean](2))"

    def test_deep_terms_print(self):
        n = 5000
        chain = TVar(f"x{n - 1}")
        for i in reversed(range(n)):
            chain = TLet(f"x{i}", num(i), chain)
        expected = "".join(f"let x{i} = {i} in " for i in range(n)) + f"x{n - 1}"
        assert print_target(chain) == expected
        nested, expected = num(0), "0"
        for i in range(n):
            nested = TInj(1 + i % 2, TPair(nested, num(i)))
            expected = f"inj{1 + i % 2}(({expected}, {i}))"
        assert print_target(nested) == expected

    def test_core_classes_are_the_source_classes(self):
        from l2 import syntax

        core = (TConst, TVar, TLam, TLet, TIf, TApp)
        source = (syntax.Const, syntax.Var, syntax.Lam, syntax.Let, syntax.If, syntax.App)
        assert all(t is s for t, s in zip(core, source, strict=True))

    def test_subst_shadowing(self):
        lam = TLam("x", TVar("x"), FunType(NUM, NUM))
        assert subst_target(lam, "x", num(1)) == lam

    def test_subst_in_case_branches(self):
        from l2.target import TCase

        w = TCase(TVar("s"), "a", TVar("z"), "b", TVar("b"))
        got = subst_target(w, "z", num(7))
        assert got.branch1 == num(7)
        got2 = subst_target(w, "b", num(7))
        assert got2.branch2 == TVar("b")  # binder shadows


class TestConstantTable:
    def test_source_types_are_refinement_erasures(self):
        # each constant states only its refined type; phase 1 reads its erasure
        num_num = FunType(NUM, NUM)
        table = [
            (constants.int_const(5), NUM),
            (constants.int_const(-2), NUM),
            (constants.TRUE_CONST, BOOL),
            (constants.FALSE_CONST, BOOL),
            (constants.ADD, FunType(NUM, num_num)),
            (constants.MUL, FunType(NUM, num_num)),
            (constants.LT, FunType(NUM, FunType(NUM, BOOL))),
            (constants.NOT, FunType(BOOL, BOOL)),
            (constants.stage2("add", 3), num_num),
            (constants.stage2("mul", -4), num_num),
            (constants.stage2("lt", 2), FunType(NUM, BOOL)),
        ]
        for con, basic in table:
            assert con.source_type == basic, con.name
            assert con.source_type == erase_refinements(con.refined_type), con.name

    def test_delta_defined_exactly_on_the_domain(self):
        from l2.syntax import Const as SConst

        n, b = SConst(constants.int_const(1)), SConst(constants.TRUE_CONST)
        assert constants.delta_apply(constants.ADD, n) is not None
        assert constants.delta_apply(constants.ADD, b) is None
        assert constants.delta_apply(constants.NOT, b) is not None
        assert constants.delta_apply(constants.NOT, n) is None
        assert constants.delta_apply(constants.int_const(0), n) is None
