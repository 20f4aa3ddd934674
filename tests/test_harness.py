import hashlib
import pathlib

import pytest

from l2 import constants, elaborate, harness, parser, refine, syntax
from l2.harness import (
    DiffReport,
    elab_matches,
    gen_program,
    lockstep_check,
    normalize_admin,
    run_fuzz,
    run_trial,
    shrink_counterexample,
    soundness_trial,
)
from l2.syntax import BOOL, Const, FunType, If, Let, NUM, OrType, PrimType, Var, print_program
from l2.target import TConst, TDead, TIf, TInj, TLet, TPair, TProj, TVar, print_target
from tests.conftest import DEAD_SEMANTICS, NEGATE_FULL, NEGATE_OK, alpha_equal, let_chain

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def num(k):
    return TConst(constants.int_const(k))


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = print_program(gen_program(1, 30))
        b = print_program(gen_program(1, 30))
        assert a == b

    def test_seeds_differ(self):
        assert print_program(gen_program(1, 30)) != print_program(gen_program(2, 30))

    def test_budget_one_is_a_constant(self):
        p = gen_program(5, 1)
        assert isinstance(p.main, Const)

    def test_corpus_wf_and_elaborates(self):
        for seed in range(150):
            p = gen_program(seed, 30)
            for _, t in _ascription_types(p.main):
                assert syntax.wf_type(t).ok
            elaborate.elaborate_program(p)  # must not raise


    def test_positions_ask_for_base_types_and_base_arrows_only(self, monkeypatch):
        """Unions and intersections enter only as built terms (ascribed let
        payloads, overloaded clone pairs); no position asks for one."""
        asked = {"expr_at": [], "leaf": [], "function_at": []}
        for method, types in asked.items():
            def record(self, env, tau, *rest, _types=types,
                       _method=getattr(harness._Gen, method)):
                _types.append(tau)
                return _method(self, env, tau, *rest)
            monkeypatch.setattr(harness._Gen, method, record)
        for b in (30, 60):
            for s in range(400):
                gen_program(s, b)

        def base_or_base_arrow(t):
            return isinstance(t, PrimType) or (isinstance(t, FunType)
                                               and isinstance(t.dom, PrimType)
                                               and isinstance(t.cod, PrimType))

        assert all(types for types in asked.values())
        assert all(base_or_base_arrow(t) for types in asked.values() for t in types)
        assert all(isinstance(t, FunType) for t in asked["function_at"])

    def test_corpus_programs_are_pinned(self):
        """The benchmark's corpus programs, seeds 0-399 at budgets 30 and 60."""
        digest = hashlib.sha256()
        for s in range(400):
            for b in (30, 60):
                digest.update(print_program(gen_program(s, b)).encode())
        assert digest.hexdigest() == (
            "b23875210a4973df30faab8ef30f028e0f689165a9bd5677cd5c98214296c3d6")


def _ascription_types(e):
    from l2.syntax import App, Ascribe, If, Lam, Let

    match e:
        case Ascribe(inner, t):
            yield inner, t
            yield from _ascription_types(inner)
        case Lam(_, b):
            yield from _ascription_types(b)
        case Let(_, b, c):
            yield from _ascription_types(b)
            yield from _ascription_types(c)
        case If(c, t, f):
            for part in (c, t, f):
                yield from _ascription_types(part)
        case App(f, a):
            yield from _ascription_types(f)
            yield from _ascription_types(a)
        case _:
            return


class TestNormalization:
    def test_projection_chains_reduce(self):
        pair = TPair(num(1), num(2))
        chain = TPair(TProj(1, pair), TProj(2, pair))
        assert normalize_admin(chain) == pair


class TestElabMatches:
    def test_ill_typed_witness_subterm_matches_nothing(self):
        # the bound's condition is a number: no type to replay the let at
        cond = If(Const(constants.int_const(1)), Const(constants.int_const(1)),
                  Const(constants.int_const(1)))
        e = Let("x", cond, Var("x"))
        w = TLet("x", TIf(num(1), num(1), num(1)), TVar("x"))
        assert not elab_matches({}, e, NUM, w)

    def test_negate_full_golden_target_matches(self):
        # projections dispatch the overload: their pairs' types are read
        # with the target's simple type checker
        p = parser.parse_program(NEGATE_FULL)
        result = elaborate.elaborate_program(p)
        golden = (GOLDEN / "negate_full.target.golden").read_text().strip()
        assert print_target(result.target) == golden
        src = syntax.erase_ascriptions(p.main)
        assert elab_matches({}, src, result.type, normalize_admin(result.target))

    def test_initial_program_matches_its_target(self):
        for text in (NEGATE_OK, DEAD_SEMANTICS):
            p = parser.parse_program(text)
            result = elaborate.elaborate_program(p)
            src = syntax.erase_ascriptions(p.main)
            assert elab_matches({}, src, result.type, normalize_admin(result.target))

    def test_dead_wrapping(self):
        assert elab_matches({}, Const(constants.TRUE_CONST), NUM,
                            TDead(BOOL, NUM, TConst(constants.TRUE_CONST)))

    def test_union_arm(self):
        w = TInj(2, TConst(constants.TRUE_CONST), OrType(NUM, BOOL))
        assert elab_matches({}, Const(constants.TRUE_CONST), OrType(NUM, BOOL), w)
        assert not elab_matches({}, Const(constants.TRUE_CONST), OrType(NUM, BOOL),
                                TInj(1, TConst(constants.TRUE_CONST), OrType(NUM, BOOL)))

    def test_mismatched_constant(self):
        assert not elab_matches({}, Const(constants.int_const(1)), NUM, num(2))

    def test_deep_let_chain_matches(self):
        # the replay recurses once per let, always on a strict subterm, so
        # a target more than 400 nodes deep still matches
        p = parser.parse_program(let_chain(405))
        result = elaborate.elaborate_program(p)
        assert elab_matches({}, p.main, result.type, normalize_admin(result.target))


class TestLockstep:
    def test_negate_agrees(self):
        report = lockstep_check(run_trial(parser.parse_program(NEGATE_OK), 10000))
        assert report.verdict == "agree"

    def test_dead_semantics_agrees_with_stuckness(self):
        report = lockstep_check(run_trial(parser.parse_program(DEAD_SEMANTICS), 10000))
        assert report.verdict == "agree"
        assert report.source_trace == ["E-App-B"]
        assert report.target_trace == ["E-Beta"]

    def test_fuel_exhaustion_is_inconclusive(self):
        report = lockstep_check(run_trial(parser.parse_program(NEGATE_OK), fuel=1))
        assert report.verdict == "inconclusive"

    def test_report_round_trips_to_json(self):
        report = lockstep_check(run_trial(parser.parse_program(NEGATE_OK), 10000))
        payload = report.to_json()
        assert payload["verdict"] == "agree"
        assert payload["program"].startswith("type tt")


class TestSoundness:
    def test_negate_passes(self):
        assert soundness_trial(run_trial(parser.parse_program(NEGATE_OK), 10000)) == "pass"

    def test_rejected_program_is_vacuous(self):
        from tests.conftest import NEGATE_ERR_C

        assert soundness_trial(run_trial(parser.parse_program(NEGATE_ERR_C), 10000)) == "vacuous"

    def test_dead_semantics_is_vacuous(self):
        assert soundness_trial(run_trial(parser.parse_program(DEAD_SEMANTICS), 10000)) == "vacuous"

    def test_shape_mismatch_is_a_phase_order_failure(self, monkeypatch):
        trial = run_trial(parser.parse_program(NEGATE_OK), 10000)

        def emit(self, env, t1, t2, origin):
            raise refine.ShapeMismatch("number vs boolean")

        monkeypatch.setattr(refine.RefChecker, "emit", emit)
        assert soundness_trial(trial) == "fail:phase-order"


class TestChecks:
    def test_assumption1_on_negate(self):
        assert harness.assumption1_check(run_trial(parser.parse_program(NEGATE_OK))) == []

    def test_canonical_forms_on_negate(self):
        assert harness.canonical_forms_check(run_trial(parser.parse_program(NEGATE_OK))) == []

    def test_substitution_on_negate(self):
        assert harness.substitution_spot_check(run_trial(parser.parse_program(NEGATE_OK))) == []


class TestShrinking:
    def test_unused_lets_are_dropped(self):
        # fabricate a failing-ish program: shrinking preserves the verdict, so
        # use a healthy program and check the helper machinery directly
        p = parser.parse_program("let dead = 1 in add 2 3")
        shrunk = list(harness._shrink_candidates(p.main))
        assert any(syntax.print_expr(c) == "add 2 3" for c in shrunk)

    def test_agreeing_trial_is_not_shrunk(self):
        trial = run_trial(parser.parse_program("let dead = 1 in add 2 3"))
        assert shrink_counterexample(trial, 10000) is trial

    def test_shrunk_trial_is_the_trial_of_the_shrunk_program(self, monkeypatch):
        # stand-in oracle: every program that still adds is a counterexample
        def fake_lockstep(trial):
            adds = "add" in print_program(trial.program)
            return DiffReport("", "counterexample" if adds else "agree")

        monkeypatch.setattr(harness, "lockstep_check", fake_lockstep)
        trial = run_trial(parser.parse_program("let dead = 1 in add 2 3"))
        shrunk = shrink_counterexample(trial, 10000)
        assert print_program(shrunk.program).strip() == "add 0 0"
        assert shrunk.source[2][-1] == Const(constants.int_const(0))

    def test_literals_shrink_toward_zero(self):
        p = parser.parse_program("add 2 3")
        shrunk = [syntax.print_expr(c) for c in harness._shrink_candidates(p.main)]
        assert "add 0 3" in shrunk
        assert "add 2 0" in shrunk


class TestFuzzLoop:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_one_elaboration_and_one_run_per_language(self, seed, monkeypatch):
        from l2 import source_interp, target_interp

        calls = {"elaborate": 0, "source": 0, "target": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return spy

        monkeypatch.setattr(harness, "elaborate_program",
                            counted("elaborate", harness.elaborate_program))
        monkeypatch.setattr(source_interp, "eval_source_trace",
                            counted("source", source_interp.eval_source_trace))
        monkeypatch.setattr(target_interp, "eval_target_trace",
                            counted("target", target_interp.eval_target_trace))
        run_fuzz(trials=1, seed=seed)
        assert calls == {"elaborate": 1, "source": 1, "target": 1}

    def test_small_run_is_clean(self):
        stats = run_fuzz(trials=40, seed=123, fuel=5000)
        assert stats.counterexamples == 0
        assert stats.assumption1_violations == 0
        assert stats.canonical_violations == 0
        assert stats.substitution_violations == 0
        assert stats.soundness_failures == 0
        assert len(stats.reports) == 40


class TestGeneratedRoundTrip:
    def test_generated_programs_reparse_alpha_equal(self):
        for seed in range(120):
            p = gen_program(seed, 30)
            reparsed = parser.parse_program(print_program(p))
            assert alpha_equal(p.main, reparsed.main), seed


class TestCancellingCasts:
    """Elaborations that stack tag-cancelling DEAD casts make the target
    stricter than the source at runtime, so the literal step-for-step
    consistency claims do not extend to them.  The generator's position
    discipline keeps them out of the corpus; when written by hand they are
    rejected by the verify phase, so the end-to-end soundness statement is
    unaffected."""

    WRONG_CLONE = """
    let u = (2 : number \\/ boolean) in
    let f = ((\\p => \\q => if ne p 0 then 1 else 2)
          : ({v:number | v = 0} -> boolean -> number) /\\ (number -> number -> number)) in
    f 0 u
    """

    SWAPPED_UNION = """
    let a = (3 : number \\/ boolean) in
    let b = (a : boolean \\/ number) in
    add b 1
    """

    @pytest.mark.parametrize("text", [WRONG_CLONE, SWAPPED_UNION])
    def test_rejected_by_phase_two(self, text):
        from l2.refine import check_refined

        program = parser.parse_program(text)
        result = elaborate.elaborate_program(program)
        report = check_refined(result.target)
        assert not report.accepted

    @pytest.mark.parametrize("text", [WRONG_CLONE, SWAPPED_UNION])
    def test_vacuous_for_soundness(self, text):
        assert soundness_trial(run_trial(parser.parse_program(text), 5000)) == "vacuous"
