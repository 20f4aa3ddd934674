import itertools
import random
from dataclasses import dataclass, replace

import pytest

from l2 import constants, elaborate, parser, refine
from l2.logic import (
    BVar,
    FALSE,
    FALSE_PREMISES,
    LinTerm,
    PAtom,
    PBool,
    TRUE,
    VC,
    cmp_pred,
    pred_names,
    render_pred,
    subst_pred,
)
from l2.refine import (
    CheckReport,
    PhaseOrderError,
    RefChecker,
    RefEnv,
    ShapeMismatch,
    _obligations,
    check_refined,
    dead_type,
    elab_type,
    embed_guard,
    embed_term,
    selfify,
)
from l2.harness import gen_program
from l2.syntax import BOOL, FunType, NUM, OrType, PrimType, erase_refinements, subexprs
from l2.target import TApp, TConst, TDead, TVar
from tests.conftest import (NEGATE_ERR_C, NEGATE_OK, PROGRAMS, eval_pred, ftx, guarded_vc,
                            let_chain, oblig_program, pred_key, vc_key)


def subtype(env: RefEnv, t1, t2, origin: str = "") -> list[VC]:
    """Every VC of t1 <: t2, trivial reflexive ones included."""
    return [
        VC(env2, p1, p2, origin2)
        for env2, p1, p2, origin2 in _obligations(env, t1, t2, origin)
    ]


nu = LinTerm.of_var("v")


def lit(k):
    return LinTerm.of_const(k)


def num(p=TRUE):
    return PrimType("number", p)


def canon(vc):
    return vc_key(vc)


def check_program(text):
    p = parser.parse_program(text)
    result = elaborate.elaborate_program(p)
    return check_refined(result.target)


PAPER_VCS = [
    # clone 1 dead cast, its dual in clone 2, and the two call sites
    "(flag != 0 && true && flag = 0) => (v = x => false)",
    "(flag = 0 && true && flag != 0) => (v = x => false)",
    "(true) => (v = 1 => v != 0)",
    "(true) => (v = 0 => v = 0)",
]


class TestNegate:
    def test_exactly_four_obligations(self):
        report = check_program(NEGATE_OK)
        assert len(report.vcs) == 4
        assert [vc.render() for vc in report.vcs] == PAPER_VCS

    def test_all_valid(self):
        report = check_program(NEGATE_OK)
        assert report.accepted
        assert all(v.is_valid for v in report.verdicts)

    def test_rejection_of_call_c(self):
        report = check_program(NEGATE_ERR_C)
        assert not report.accepted
        failures = [vc for vc, v in zip(report.vcs, report.verdicts) if not v.is_valid]
        assert len(failures) == 1
        vc = failures[0]
        expected = parser.parse_pred  # canonical comparison below
        assert canon(vc) == canon(
            guarded_vc((TRUE,), cmp_pred(nu, "=", lit(0)), cmp_pred(nu, "!=", lit(0)))
        )

    def test_constant_synthesis_has_no_vcs(self):
        report = check_refined(TConst(constants.int_const(5)))
        assert report.vcs == ()
        assert report.type == PrimType("number", cmp_pred(nu, "=", lit(5)))


class TestShadowedRefinements:
    """A refinement reads the binder in scope where it is written, also once
    parsing has renamed a shadowing binder apart."""

    SHADOWED = ("let x = {outer} in let x = {inner} in "
                "let f = ((\\z => z) : {{v:number | v > x}} -> {{v:number | v > x}}) in f 1")

    def test_the_inner_binder_rejects_the_call(self):
        report = check_program(self.SHADOWED.format(outer=0, inner=5))
        assert not report.accepted
        failed = [vc.render() for vc, v in zip(report.vcs, report.verdicts) if not v.is_valid]
        assert failed == ["(x = 0 && x_1 = 5) => (v = 1 => v > x_1)"]

    def test_the_inner_binder_accepts_the_call(self):
        assert check_program(self.SHADOWED.format(outer=5, inner=0)).accepted


class TestValueVariableBinder:
    """A binder named v is renamed apart, so v in a refinement keeps meaning
    the value it refines and no hypothesis reads it."""

    CAPTURE = ("let f = ((\\{x} => sub {x} 5) : {{v:number | v > 0}} -> {{v:number | v >= 0}}) "
               "in f 1")

    def test_the_body_obligation_is_not_captured(self):
        report = check_program(self.CAPTURE.format(x="v"))
        assert not report.accepted
        assert report.vcs[0].render() == "(v_1 > 0) => (v = v_1 - 5 => v >= 0)"
        assert not report.verdicts[0].is_valid

    def test_same_verdicts_as_another_name(self):
        for x in ("v", "w"):
            report = check_program(self.CAPTURE.format(x=x))
            assert [v.kind for v in report.verdicts] == ["invalid", "valid"]

    def test_no_hypothesis_names_the_value_variable(self, corpus_reports):
        report = check_program(self.CAPTURE.format(x="v"))
        for _, r in [*corpus_reports, ("capture", report)]:
            for vc in r.vcs:
                assert not any("v" in pred_names(h) for h in vc.hyps), vc.render()


class TestEqualSubtermsKeepTheirPositions:
    TWO_CALLS = ("let f = ((\\x => x) : {v:number | v > 0} -> {v:number | v > 0}) in\n"
                 "add (f 0)\n"
                 "    (f 0)\n")

    def test_each_argument_obligation_reads_its_own_position(self):
        report = check_program(self.TWO_CALLS)
        assert [vc.origin for vc in report.vcs] == [
            "function body at 1:11", "argument at 2:8", "argument at 3:8"]

    def test_generated_dead_casts_at_their_own_positions(self):
        from l2.syntax import print_program

        report = check_program(print_program(gen_program(45, 60)))
        dead = [vc.origin for vc in report.vcs if vc.origin.startswith("dead-cast")]
        assert dead == ["dead-cast at 1:184", "dead-cast at 1:192", "dead-cast at 1:200"]


class TestSelfify:
    def test_number(self):
        t = PrimType("number", cmp_pred(nu, "!=", lit(0)))
        assert selfify(t, "flag") == PrimType("number", cmp_pred(nu, "=", LinTerm.of_var("flag")))

    def test_function_unchanged(self):
        t = elab_type(FunType(NUM, NUM))
        assert selfify(t, "f") is t

    def test_idempotent(self):
        t = PrimType("number", cmp_pred(nu, "!=", lit(0)))
        once = selfify(t, "x")
        assert selfify(once, "x") == once


class TestDeadType:
    def test_base_to_base(self):
        t = dead_type(NUM, BOOL)
        assert t.dom == PrimType("number", PBool(False))
        assert t.cod == PrimType("boolean", PBool(False))

    def test_arrow_target(self):
        t = dead_type(NUM, FunType(NUM, NUM))
        assert t.dom == PrimType("number", PBool(False))
        # contravariant flip inside the arrow image
        assert isinstance(t.cod, FunType)
        assert t.cod.dom.refinement == PBool(True)
        assert t.cod.cod.refinement == PBool(False)
        assert t.cod == ftx(elab_type(FunType(NUM, NUM)), FALSE)

    def test_requires_disjoint_tags(self):
        with pytest.raises(AssertionError):
            dead_type(NUM, NUM)

    def test_every_cast_is_the_former_composition(self):
        # each side is named by elab_type and then refined by fbot, the
        # reference ftx at false
        programs = [parser.parse_program(p.read_text()) for p in sorted(PROGRAMS.glob("*.l2"))]
        programs += [gen_program(s, b) for b in (30, 60) for s in range(400)]
        casts = 0
        for program in programs:
            try:
                target = elaborate.elaborate_program(program).target
            except elaborate.ElabError:
                continue
            for e in subexprs(target):
                if isinstance(e, TDead):
                    sides = ftx(elab_type(e.from_ty), FALSE), ftx(elab_type(e.to_ty), FALSE)
                    assert dead_type(e.from_ty, e.to_ty) == FunType(*sides, "$dead")
                    casts += 1
        assert casts


class TestSubtype:
    def test_base_emits_single_vc(self):
        env = RefEnv().bind("flag", PrimType("number", cmp_pred(nu, "!=", lit(0))))
        vcs = subtype(env, num(cmp_pred(nu, "=", LinTerm.of_var("x"))), num(PBool(False)))
        assert len(vcs) == 1
        assert vcs[0].hyps == (cmp_pred(LinTerm.of_var("flag"), "!=", lit(0)),)

    def test_function_contravariance(self):
        # (x:{num|true}) -> {num|v=x}  <:  (x:{num|v=0}) -> {num|v>=0}
        t1 = FunType(num(), num(cmp_pred(nu, "=", LinTerm.of_var("x"))), "x")
        t2 = FunType(num(cmp_pred(nu, "=", lit(0))), num(cmp_pred(nu, ">=", lit(0))), "x")
        vcs = subtype(RefEnv(), t1, t2)
        assert len(vcs) == 2
        dom, cod = vcs
        # domain direction is flipped
        assert dom.antecedent == cmp_pred(nu, "=", lit(0))
        assert dom.consequent == PBool(True)
        # codomain checked with the binder's refinement in scope
        assert cmp_pred(LinTerm.of_var("x"), "=", lit(0)) in cod.hyps
        assert cod.antecedent == cmp_pred(nu, "=", LinTerm.of_var("x"))
        assert cod.consequent == cmp_pred(nu, ">=", lit(0))
        from l2.logic import valid

        assert all(valid(vc).is_valid for vc in vcs)

    def test_reflexivity_yields_valid_vcs(self):
        from l2.logic import valid

        types = [
            num(cmp_pred(nu, "!=", lit(0))),
            elab_type(FunType(NUM, BOOL)),
            elab_type(OrType(NUM, BOOL)),
        ]
        for t in types:
            vcs = subtype(RefEnv(), t, t)
            assert vcs, "reflexive subtyping still produces p => p obligations"
            assert all(valid(vc).is_valid for vc in vcs)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            subtype(RefEnv(), num(), elab_type(FunType(NUM, NUM)))

    def test_sum_componentwise(self):
        s1 = elab_type(OrType(NUM, BOOL))
        s2 = elab_type(OrType(NUM, BOOL))
        assert len(subtype(RefEnv(), s1, s2)) == 2


class TestEmbedGuard:
    def test_comparison(self):
        env = RefEnv().bind("flag", num())
        w = TApp(TApp(TConst(constants.NE), TVar("flag")), TConst(constants.int_const(0)))
        pred, exact = embed_guard(w, env)
        assert exact
        assert pred == cmp_pred(LinTerm.of_var("flag"), "!=", lit(0))

    def test_bool_variable(self):
        env = RefEnv().bind("b", PrimType("boolean"))
        pred, exact = embed_guard(TVar("b"), env)
        assert exact and pred == PAtom(BVar("b"))

    def test_out_of_fragment_weakens(self):
        lam_app = TApp(TVar("f"), TConst(constants.TRUE_CONST))
        pred, exact = embed_guard(lam_app, RefEnv())
        assert not exact and pred == TRUE

    def test_embedding_is_exact_by_enumeration(self):
        # the embedded atom agrees with evaluation on all small stores
        env = RefEnv().bind("a", num()).bind("b", num())
        w = TApp(TApp(TConst(constants.LT), TVar("a")), TVar("b"))
        pred, exact = embed_guard(w, env)
        assert exact
        from tests.conftest import eval_source
        from l2.syntax import App as SApp, Const as SConst

        for va, vb in itertools.product(range(-8, 9), repeat=2):
            out = eval_source(
                SApp(SApp(SConst(constants.LT), SConst(constants.int_const(va))),
                     SConst(constants.int_const(vb)))
            )
            truth = out.value.con == constants.TRUE_CONST
            assert truth == eval_pred(pred, {"a": va, "b": vb})

    def test_embed_term_linear(self):
        env = RefEnv().bind("x", num())
        w = TApp(TApp(TConst(constants.ADD), TVar("x")),
                 TApp(TApp(TConst(constants.MUL), TConst(constants.int_const(3))),
                      TVar("x")))
        t = embed_term(w, env)
        assert t == LinTerm.of_var("x") + LinTerm.of_var("x").scale(3)

    def test_stage_two_arithmetic_embeds_from_the_recorded_operator(self):
        # the embedding reads (op, k) off the constant, never its name
        env, x = RefEnv().bind("x", num()), LinTerm.of_var("x")
        sub5, mul = constants.stage2("sub", 5), constants.stage2("mul", -4)
        assert sub5.partial == ("sub", 5)
        assert embed_term(TApp(TConst(sub5), TVar("x")), env) == lit(5) - x
        assert embed_term(TApp(TConst(mul), TVar("x")), env) == x.scale(-4)
        renamed = replace(sub5, name="five-minus")
        assert embed_term(TApp(TConst(renamed), TVar("x")), env) == lit(5) - x


class TestEnvironments:
    def test_flatten_order_and_substitution(self):
        env = (
            RefEnv()
            .bind("flag", PrimType("number", cmp_pred(nu, "!=", lit(0))))
            .bind("x", num())
            .guard(cmp_pred(LinTerm.of_var("flag"), "=", lit(0)))
        )
        assert env.flatten() == (
            cmp_pred(LinTerm.of_var("flag"), "!=", lit(0)),
            TRUE,
            cmp_pred(LinTerm.of_var("flag"), "=", lit(0)),
        )

    def test_non_base_binders_contribute_nothing(self):
        env = RefEnv().bind("f", elab_type(FunType(NUM, NUM)))
        assert env.flatten() == ()

    def test_guard_strengthening_preserves_validity(self):
        # adding a guard only grows the hypotheses, so valid VCs stay valid
        from l2.logic import VC, valid

        base = RefEnv().bind("x", num(cmp_pred(nu, ">=", lit(1))))
        stronger = base.guard(cmp_pred(LinTerm.of_var("x"), "<=", lit(5)))
        for env in (base, stronger):
            vc = VC(env, cmp_pred(nu, "=", LinTerm.of_var("x")), cmp_pred(nu, ">=", lit(1)), "t")
            assert valid(vc).is_valid

    def test_phase_order_error(self):
        with pytest.raises(PhaseOrderError):
            check_refined(TVar("ghost"))


# The environment as a flat tuple of entries, rebuilt in full on every query:
# the reference that the persistent RefEnv is checked against.


@dataclass(frozen=True)
class Bind:
    name: str
    ty: object


@dataclass(frozen=True)
class Guard:
    pred: object


@dataclass(frozen=True)
class ReferenceEnv:
    entries: tuple = ()

    def bind(self, name, ty):
        return ReferenceEnv(self.entries + (Bind(name, ty),))

    def guard(self, pred):
        return ReferenceEnv(self.entries + (Guard(pred),))

    def lookup(self, name):
        for entry in reversed(self.entries):
            if isinstance(entry, Bind) and entry.name == name:
                return entry.ty
        raise KeyError(name)

    def flatten(self):
        out = []
        for entry in self.entries:
            match entry:
                case Guard(pred):
                    out.append(pred)
                case Bind(name, PrimType(_, refinement)):
                    out.append(subst_pred(refinement, "v", LinTerm.of_var(name)))
        return tuple(out)

    def number_names(self):
        return tuple(
            e.name for e in self.entries
            if isinstance(e, Bind) and isinstance(e.ty, PrimType) and e.ty.base == "number"
        )


class TestPersistentEnvironment:
    NAMES = ("a", "b", "c")

    def random_type(self, rng):
        name = rng.choice(self.NAMES)
        kind = rng.randrange(4)
        if kind == 0:
            return num(cmp_pred(nu, rng.choice(("<", "=", "!=")), LinTerm.of_var(name)))
        if kind == 1:
            return PrimType("boolean", PAtom(BVar(rng.choice(("v", name)))))
        if kind == 2:
            return num()
        return elab_type(FunType(NUM, NUM))

    def assert_agree(self, env, ref):
        assert env.flatten() == ref.flatten()
        assert env.number_names() == ref.number_names()
        for name in self.NAMES + ("unbound",):
            try:
                expected = ref.lookup(name)
            except KeyError:
                expected = None
            assert env.get(name) == expected

    def test_agrees_with_reference_on_random_sequences(self):
        rng = random.Random(7)
        for _ in range(200):
            env, ref = RefEnv(), ReferenceEnv()
            saved = []
            for _ in range(rng.randrange(1, 12)):
                if rng.random() < 0.25:
                    pred = cmp_pred(LinTerm.of_var(rng.choice(self.NAMES)), "<=", lit(3))
                    env, ref = env.guard(pred), ref.guard(pred)
                else:
                    name, ty = rng.choice(self.NAMES), self.random_type(rng)
                    env, ref = env.bind(name, ty), ref.bind(name, ty)
                saved.append((env, ref))
                if rng.random() < 0.2:  # branch off an earlier environment
                    env, ref = rng.choice(saved)
            for env_k, ref_k in saved:
                self.assert_agree(env_k, ref_k)

    def test_vc_generation_substitutes_linearly(self, monkeypatch):
        # One obligation per let, each under every let before it.  Each
        # binder's hypothesis is substituted once, however often it is read:
        # by the grouping, and again by reading every VC's hypotheses.  So
        # four times the lets is about four times the substitutions, where
        # substituting on every read or per obligation grows them 16-fold.
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return subst_pred(*args)

        monkeypatch.setattr(refine, "subst_pred", counting)
        seen = {}
        for n in (100, 400):
            target = elaborate.elaborate_program(parser.parse_program(oblig_program(n))).target
            calls[0] = 0
            report = check_refined(target)
            assert report.accepted and all(len(vc.hyps) <= n + 1 for vc in report.vcs)
            seen[n] = calls[0]
        assert seen[100] >= 100 and seen[400] <= 4.5 * seen[100], seen

    def test_obligations_under_shared_frames_cost_linear_work(self, monkeypatch):
        # One obligation per let, each under every let before it.  A frame
        # groups its hypotheses once, from its parent's grouping, and each VC
        # adds only its own goal, so four times the lets is about four times
        # the conjuncts grouped and the frames walked.  Copying the chain into
        # every VC and regrouping it grew both about 15-fold.
        from l2 import logic

        counts = {"conjuncts": 0, "frames": 0}
        names, frames, premises = logic._names, RefEnv._frames, RefEnv.premises

        def counting_names(p, memo):
            counts["conjuncts"] += 1
            return names(p, memo)

        def counting_frames(env):
            for frame in frames(env):
                counts["frames"] += 1
                yield frame

        def counting_premises(env, memo):  # the frames it builds a grouping for
            above = env
            while above is not None and above.grouped is None:
                counts["frames"] += 1
                above = above.parent
            return premises(env, memo)

        monkeypatch.setattr(logic, "_names", counting_names)
        monkeypatch.setattr(RefEnv, "_frames", counting_frames)
        monkeypatch.setattr(RefEnv, "premises", counting_premises)
        seen = {}
        for n in (100, 400):
            target = elaborate.elaborate_program(parser.parse_program(oblig_program(n))).target
            counts.update(conjuncts=0, frames=0)
            report = check_refined(target)
            assert report.accepted and len(report.vcs) == n + 1
            seen[n] = dict(counts)
        assert seen[100]["conjuncts"] > 100 and seen[100]["frames"] > 100  # the counters see the work
        for kind in counts:
            assert seen[400][kind] <= 4.5 * seen[100][kind], seen


def eager_hyp(frame):
    """A frame's hypothesis, substituted here: the reference for ``hyp``."""
    if frame.name is None:
        return frame.hyp  # a guard's predicate, as given
    if isinstance(frame.ty, PrimType):
        return subst_pred(frame.ty.refinement, "v", LinTerm.of_var(frame.name))
    return None


def chain_of(env):
    """The frames of env's chain, from the innermost outwards."""
    while env.parent is not None:
        yield env
        env = env.parent


class TestLazyHypotheses:
    """A binder's hypothesis is substituted on its first read, once; its
    literally-false mark is set when the frame is made."""

    @staticmethod
    def assert_marks(frames):
        for frame in frames:
            above = frame.parent.grouped is FALSE_PREMISES
            hyp = eager_hyp(frame)
            marked = above or hyp == FALSE
            assert (frame.grouped is FALSE_PREMISES) == marked, frame.name

    def test_hyps_equal_eager_substitution(self, corpus_reports):
        kept = 0
        for label, report in corpus_reports:
            for vc in report.vcs:
                expected = tuple(reversed([h for f in chain_of(vc.env)
                                           if (h := eager_hyp(f)) is not None]))
                assert vc.hyps == expected, (label, vc.origin)
                self.assert_marks(chain_of(vc.env))
                kept += 1
        assert kept > 500

    def test_every_frame_is_marked_from_its_refinement(self, monkeypatch):
        # The frames of dropped obligations too: DEAD casts put binders with
        # a false refinement on the chain, and their obligations hold.
        frames = []
        bind, guard = RefEnv.bind, RefEnv.guard

        def recording(make):
            def wrapped(env, *args):
                frames.append(make(env, *args))
                return frames[-1]
            return wrapped

        monkeypatch.setattr(RefEnv, "bind", recording(bind))
        monkeypatch.setattr(RefEnv, "guard", recording(guard))
        texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.l2"))]
        for program in [*map(parser.parse_program, texts),
                        *(gen_program(seed, b) for b in (30, 60) for seed in range(400))]:
            try:
                check_refined(elaborate.elaborate_program(program).target, discharge=False)
            except elaborate.ElabError:
                continue
        self.assert_marks(frames)
        marked = [f for f in frames if f.grouped is FALSE_PREMISES]
        assert sum(f.parent.grouped is not FALSE_PREMISES for f in marked) > 10

    def test_false_refinement_marks_the_binder(self):
        env = RefEnv().bind("x", num(FALSE))
        assert env.grouped is FALSE_PREMISES and env.bind("y", num()).grouped is FALSE_PREMISES
        assert RefEnv().bind("x", num(cmp_pred(nu, "!=", nu))).grouped is None

    def test_substituted_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(p, name, repl):
            calls.append(name)
            return subst_pred(p, name, repl)

        monkeypatch.setattr(refine, "subst_pred", counting)
        env = RefEnv().bind("x", num(cmp_pred(nu, ">", lit(0))))
        assert calls == []
        first = env.hyp
        assert first == cmp_pred(LinTerm.of_var("x"), ">", lit(0)) and calls == ["v"]
        assert env.hyp is first and env.flatten() == (first,) and calls == ["v"]

    @staticmethod
    def hyp_substitutions(monkeypatch):
        calls = [0]

        def counting(p, name, repl):
            calls[0] += name == "v"  # phase 2 substitutes the value variable only there
            return subst_pred(p, name, repl)

        monkeypatch.setattr(refine, "subst_pred", counting)
        return calls

    def test_no_substitution_without_a_discharge(self, monkeypatch):
        calls = self.hyp_substitutions(monkeypatch)
        target = elaborate.elaborate_program(parser.parse_program(let_chain(150))).target
        report = check_refined(target)
        assert report.vcs == () and calls == [0]


class TestDependentApplication:
    def test_literal_argument_substitutes(self):
        # add 1 2 : {v = 1 + 2}
        w = TApp(TApp(TConst(constants.ADD), TConst(constants.int_const(1))),
                 TConst(constants.int_const(2)))
        report = check_refined(w)
        assert report.type == PrimType("number", cmp_pred(nu, "=", lit(3)))

    def test_out_of_fragment_argument_gets_ghost(self):
        # the argument is an application that does not embed; the result type
        # mentions a ghost rather than the expression
        inner = TApp(TApp(TConst(constants.MUL), TVar("y")), TVar("y"))
        env = RefEnv().bind("y", num())
        w = TApp(TApp(TConst(constants.ADD), TConst(constants.int_const(1))), inner)
        t, _ = RefChecker().synth(env, w)
        assert isinstance(t, PrimType)
        names = render_pred(t.refinement)
        assert "$g" in names


class TestFullBinaryApplication:
    """A binary primitive applied to both operands is typed by its meaning."""

    ENV = RefEnv().bind("x", num()).bind("y", num())
    OPERANDS = [TVar("x"), TVar("y"), TConst(constants.int_const(3)),
                TConst(constants.int_const(-2))]

    def test_mul_by_a_literal_keeps_its_meaning(self):
        report = check_program(
            "((\\x => mul x 2) : {v:number | v > 0} -> {v:number | v > 1})\n")
        assert [vc.render() for vc in report.vcs] == ["(x > 0) => (v = 2*x => v > 1)"]
        assert report.accepted

    @pytest.mark.parametrize("op", [c for c in constants.BINARY if c != "mul"])
    def test_type_is_the_curried_signature_substituted(self, op):
        con = constants.NAMED_CONSTANTS[op]
        sig = con.refined_type
        for a, b in itertools.product(self.OPERANDS, repeat=2):
            t, _ = RefChecker().synth(self.ENV, TApp(TApp(TConst(con), a), b))
            inner = refine.subst_ref(sig.cod, sig.binder, embed_term(a, self.ENV))
            curried = refine.subst_ref(inner.cod, inner.binder, embed_term(b, self.ENV))
            assert t.base == curried.base
            assert pred_key(t.refinement) == pred_key(curried.refinement)

    def test_mul_by_a_literal_is_its_stage_two_constant(self):
        for k in range(-3, 4):
            staged = constants.stage2("mul", k).refined_type
            for b in self.OPERANDS:
                w = TApp(TApp(TConst(constants.MUL), TConst(constants.int_const(k))), b)
                t, _ = RefChecker().synth(self.ENV, w)
                assert t == refine.subst_ref(staged.cod, staged.binder, embed_term(b, self.ENV))

    def test_operands_that_do_not_embed_are_ghosts_in_order(self):
        report = check_program(
            "let f = ((\\x => x) : number -> number) in "
            "((\\y => sub (f y) (f 1)) : {v:number | v > 0} -> {v:number | v > 1})\n")
        assert [vc.render() for vc in report.vcs] == [
            "(y > 0 && true && true) => (v = $g1 - $g2 => v > 1)"]
        assert not report.accepted


class TestCorrespondence:
    def test_synthesized_type_strips_to_the_elaborated_skeleton(self):
        # phase 2's type agrees with phase 1's through refinement erasure
        from l2 import harness

        for seed in range(120):
            program = harness.gen_program(seed, 25)
            result = elaborate.elaborate_program(program)
            report = check_refined(result.target, discharge=False)
            assert erase_refinements(report.type) == erase_refinements(result.type)

    def test_accepted_intermediates_stay_accepted(self):
        # refinement type safety at desk scale: accepted programs remain
        # accepted along target evaluation
        from l2 import harness
        from l2.target_interp import eval_target_trace

        checked = 0
        for seed in range(60):
            program = harness.gen_program(seed, 22)
            result = elaborate.elaborate_program(program)
            if not check_refined(result.target).accepted:
                continue
            _, _, states = eval_target_trace(result.target, 300)
            for state in states[:: max(1, len(states) // 4)]:
                assert check_refined(state).accepted
                checked += 1
        assert checked > 20


class TestGuardEmbeddingProperty:
    def test_all_comparison_operators_embed_exactly(self):
        ops = [(constants.LT, lambda a, b: a < b), (constants.LE, lambda a, b: a <= b),
               (constants.EQ, lambda a, b: a == b), (constants.NE, lambda a, b: a != b)]
        env = RefEnv().bind("a", num()).bind("b", num())
        for con, fn in ops:
            w = TApp(TApp(TConst(con), TVar("a")), TVar("b"))
            pred, exact = embed_guard(w, env)
            assert exact
            for va in range(-6, 7, 3):
                for vb in range(-6, 7, 2):
                    assert eval_pred(pred, {"a": va, "b": vb}) == fn(va, vb), (con.name, va, vb)

    def test_stage_two_constants_embed(self):
        # partially applied comparisons appear in re-checked intermediate
        # states; their guards must stay exact
        env = RefEnv().bind("b", num())
        w = TApp(TConst(constants.stage2("lt", 2)), TVar("b"))
        pred, exact = embed_guard(w, env)
        assert exact
        for vb in range(-5, 6):
            assert eval_pred(pred, {"b": vb}) == (2 < vb)


class TestRandomReflexivity:
    def test_subtype_reflexive_on_random_types(self):
        import random as rnd

        from l2.logic import valid
        from l2.syntax import AndType, OrType
        from tests.test_target import _random_type

        rng = rnd.Random(99)
        for _ in range(60):
            t = elab_type(_random_type(rng, 3))
            vcs = subtype(RefEnv(), t, t)
            assert all(valid(vc).is_valid for vc in vcs)

    def test_boolean_binder_flattening(self):
        from l2.logic import BVar, PAtom, piff

        env = RefEnv().bind("b", PrimType("boolean", PAtom(BVar(VALUE_VAR := "v"))))
        flat = env.flatten()
        assert flat == (PAtom(BVar("b")),)


class TestClosedObligations:
    """Every free name of a kept VC is a binder on its frame chain, a
    reserved ``$`` name or the value variable: an oracle for the frames a VC
    is built on.  The known exceptions are a join's type that names a binder
    of one branch (``gen_program(382, 60)``) and a refinement that names an
    unbound variable, which nothing reports yet."""

    UNBOUND_Y = "let f = ((\\z => z) : {v:number | v > y} -> {v:number | v > y}) in f 1\n"
    KNOWN = [("gen_program(382, 60)", "argument", ["x6"]),
             ("gen_program(382, 60)", "dead-cast", ["x6"]),
             ("unbound y", "function body at 1:11", ["y"]),
             ("unbound y", "argument at 1:69", ["y"])]

    @staticmethod
    def unbound(vc) -> list[str]:
        bound, env = set(), vc.env
        while env is not None:
            bound.add(env.name)
            env = env.parent
        free = set().union(*map(pred_names, (*vc.hyps, vc.antecedent, vc.consequent)))
        return sorted(n for n in free - bound if not n.startswith("$") and n != "v")

    def test_every_kept_vc_is_closed(self, corpus_reports):
        reports = [*corpus_reports, ("unbound y", check_program(self.UNBOUND_Y))]
        found = [(label, vc.origin, names) for label, report in reports for vc in report.vcs
                 if (names := self.unbound(vc))]
        assert found == self.KNOWN


@pytest.mark.xfail(strict=True, reason="an ascription leaves no trace in the target term, "
                   "so phase 2 never checks a refinement ascribed to a non-lambda")
def test_ascribed_refinement_is_checked():
    # the same ascription is checked when the value is passed to a function
    # expecting it (f (3 : neg) is rejected), but not when it is let-bound
    report = check_program("let x = (3 : {v:number | v < 0}) in x\n")
    assert not report.accepted
