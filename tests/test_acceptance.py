"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import pathlib
import random
import time

import pytest

from l2 import constants, elaborate, harness, infer, parser
from l2.cli import main as cli_main
from l2.logic import (
    BVar,
    Cmp,
    LinTerm,
    PAnd,
    PAtom,
    PBool,
    PIff,
    PImp,
    PKappa,
    PNot,
    POr,
    TRUE,
    VALUE_VAR,
    VC,
    cmp_pred,
    pand,
    pnot,
    valid,
)
from l2.refine import check_refined
from l2.source_interp import StuckAt, eval_source_trace
from l2.syntax import erase_refinements
from l2.target import print_target, simple_typecheck
from l2.target_interp import contains_dead_value, eval_target_trace
from tests.conftest import (
    DEAD_SEMANTICS,
    NEGATE_ERR_C,
    NEGATE_FULL,
    NEGATE_INFER,
    NEGATE_OK,
    PROGRAMS,
    clause_kappas,
    clause_valid,
    eval_pred,
    guarded_vc,
    horn,
    pred_key,
    term_names,
    vc_key,
    vc_negated,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

TRIALS = 500
FUEL = 10_000

nu = LinTerm.of_var(VALUE_VAR)


def lit(k):
    return LinTerm.of_const(k)


def var(n):
    return LinTerm.of_var(n)


def _verdict(criterion: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def corpus():
    """The shared fuzz corpus with its elaborations."""
    programs = [harness.gen_program(seed, 30) for seed in range(TRIALS)]
    results = [elaborate.elaborate_program(p) for p in programs]
    return list(zip(programs, results))


def test_criterion_1_negate_end_to_end(capsys):
    start = time.time()
    ok_report = check_refined(
        elaborate.elaborate_program(parser.parse_program(NEGATE_OK)).target
    )
    err_report = check_refined(
        elaborate.elaborate_program(parser.parse_program(NEGATE_ERR_C)).target
    )
    elapsed = time.time() - start
    rejecting = [vc for vc, v in zip(err_report.vcs, err_report.verdicts) if not v.is_valid]
    expected_key = vc_key(guarded_vc((TRUE,), cmp_pred(nu, "=", lit(0)), cmp_pred(nu, "!=", lit(0))))
    ok = (
        ok_report.accepted
        and not err_report.accepted
        and len(rejecting) == 1
        and vc_key(rejecting[0]) == expected_key
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict("criterion 1: negate accepted, call c rejected by its VC", ok,
                 f"{elapsed:.2f}s")


def test_criterion_2_vc_reproduction(capsys):
    report = check_refined(
        elaborate.elaborate_program(parser.parse_program(NEGATE_OK)).target
    )
    flag = var("flag")
    expected = [
        guarded_vc(
            (cmp_pred(flag, "!=", lit(0)), TRUE, cmp_pred(flag, "=", lit(0))),
            cmp_pred(nu, "=", var("x")),
            PBool(False),
        ),
        guarded_vc(
            (cmp_pred(flag, "=", lit(0)), TRUE, cmp_pred(flag, "!=", lit(0))),
            cmp_pred(nu, "=", var("x")),
            PBool(False),
        ),
        guarded_vc((TRUE,), cmp_pred(nu, "=", lit(1)), cmp_pred(nu, "!=", lit(0))),
        guarded_vc((TRUE,), cmp_pred(nu, "=", lit(0)), cmp_pred(nu, "=", lit(0))),
    ]
    got = sorted(vc_key(vc) for vc in report.vcs)
    want = sorted(vc_key(vc) for vc in expected)
    # the boolean dead cast selfifies with boolean equality, rendered v = x;
    # canonical keys treat it as the equivalence it is
    ok = len(report.vcs) == 4 and got == want
    with capsys.disabled():
        _verdict("criterion 2: exactly the four published obligations", ok)


def test_criterion_3_dead_placement(capsys):
    result = elaborate.elaborate_program(parser.parse_program(NEGATE_FULL))
    text = print_target(result.target)
    golden = (GOLDEN / "negate_full.target.golden").read_text().strip()
    checks = [
        text == golden,
        "DEAD[boolean => number](not DEAD[number => boolean](x))" in text,
        "DEAD[number => boolean](sub 0 DEAD[boolean => number](x))" in text,
        "let a = proj1(neg) 1 1" in text,
        "let b = proj2(neg) 0 true" in text,
        "let c = proj1(neg) 0 1" in text,
        "let d = proj2(neg) 1 true" in text,
    ]
    with capsys.disabled():
        _verdict("criterion 3: DEAD placement and projection dispatch (golden)",
                 all(checks))


def test_criterion_4_dead_semantics(capsys):
    program = parser.parse_program(DEAD_SEMANTICS)
    result = elaborate.elaborate_program(program)
    src_out, src_rules, _ = eval_source_trace(program.main, FUEL)
    tgt_out, tgt_rules, _ = eval_target_trace(result.target, FUEL)
    checks = [
        isinstance(src_out, StuckAt),
        isinstance(tgt_out, StuckAt),
        src_rules == ["E-App-B"],
        tgt_rules == ["E-Beta"],  # stuck right after the one beta step
        contains_dead_value(tgt_out.focus),
    ]
    with capsys.disabled():
        _verdict("criterion 4: both languages stuck after one beta, DEAD in focus",
                 all(checks))


def test_criterion_5_metatheory_fuzz(corpus, capsys):
    start = time.time()
    counterexamples = 0
    inconclusive = 0
    a1 = canon = 0
    for program, _result in corpus:
        trial = harness.run_trial(program, FUEL)
        report = harness.lockstep_check(trial)
        if report.verdict == "counterexample":
            counterexamples += 1
        elif report.verdict == "inconclusive":
            inconclusive += 1
        a1 += len(harness.assumption1_check(trial))
        canon += len(harness.canonical_forms_check(trial))
    elapsed = time.time() - start
    ok = counterexamples == 0 and a1 == 0 and canon == 0 and elapsed < 60.0
    with capsys.disabled():
        _verdict(
            "criterion 5: 500-program lockstep fuzz",
            ok,
            f"{elapsed:.1f}s, cex={counterexamples}, assumption1={a1}, "
            f"canonical={canon}, inconclusive={inconclusive}",
        )


def test_criterion_6_two_phase_soundness(corpus, capsys):
    accepted = failures = 0
    for program, _result in corpus:
        verdict = harness.soundness_trial(harness.run_trial(program, FUEL))
        if verdict == "pass":
            accepted += 1
        elif verdict.startswith("fail"):
            failures += 1
    ok = failures == 0 and accepted > 0
    with capsys.disabled():
        _verdict(
            "criterion 6: accepted programs never get stuck, preservation holds",
            ok,
            f"accepted={accepted}, violations={failures}",
        )


def test_criterion_7_elaboration_type_soundness(corpus, capsys):
    failures = 0
    for _program, result in corpus:
        if simple_typecheck({}, result.target) != erase_refinements(result.type):
            failures += 1
    for text in (NEGATE_OK, NEGATE_ERR_C, NEGATE_FULL, DEAD_SEMANTICS):
        result = elaborate.elaborate_program(parser.parse_program(text))
        if simple_typecheck({}, result.target) != erase_refinements(result.type):
            failures += 1
    ok = failures == 0
    with capsys.disabled():
        _verdict("criterion 7: erased checker validates every elaboration", ok,
                 f"{len(corpus) + 4} targets")


def _random_vc(rng: random.Random) -> VC:
    names = ["x", "y", "z"][: rng.randint(1, 3)]

    def term():
        coeffs = tuple(
            (n, rng.randint(-3, 3)) for n in names if rng.random() < 0.7
        )
        return LinTerm(tuple((n, c) for n, c in coeffs if c), rng.randint(-5, 5))

    def atom():
        return cmp_pred(term(), rng.choice(["<", "<=", "=", "!=", ">=", ">"]), term())

    hyps = tuple(atom() for _ in range(rng.randint(0, 2)))
    return guarded_vc(hyps, atom(), atom(), "fuzz")


def free_names(p) -> frozenset[str]:
    match p:
        case PBool():
            return frozenset()
        case PAtom(Cmp(lhs, _, rhs)):
            return term_names(lhs) | term_names(rhs)
        case PAtom(BVar(n)):
            return frozenset([n])
        case PNot(inner):
            return free_names(inner)
        case PAnd(parts) | POr(parts):
            out: frozenset[str] = frozenset()
            for q in parts:
                out |= free_names(q)
            return out
        case PImp(a, b) | PIff(a, b):
            return free_names(a) | free_names(b)
        case PKappa(_, subst):
            out = frozenset()
            for _, value in subst:
                if isinstance(value, LinTerm):
                    out |= term_names(value)
                elif isinstance(value, str):
                    out |= frozenset([value])
            return out
    raise TypeError(f"not a predicate: {p!r}")


def test_criterion_8_solver_soundness(capsys):
    start = time.time()
    rng = random.Random(2024)
    violations = 0
    valid_count = 0
    for _ in range(1000):
        vc = _random_vc(rng)
        if not valid(vc).is_valid:
            continue
        valid_count += 1
        negated = vc_negated(vc)
        names = sorted(free_names(negated))
        for combo in itertools.product(range(-8, 9), repeat=len(names)):
            if eval_pred(negated, dict(zip(names, combo))):
                violations += 1
                break
    flag = var("flag")
    paper = [
        valid(guarded_vc(
            (cmp_pred(flag, "!=", lit(0)), TRUE, cmp_pred(flag, "=", lit(0))),
            cmp_pred(nu, "=", var("x")), PBool(False),
        )).is_valid,
        valid(guarded_vc((TRUE,), cmp_pred(nu, "=", lit(1)), cmp_pred(nu, "!=", lit(0)))).is_valid,
        not valid(guarded_vc((TRUE,), cmp_pred(nu, "=", lit(0)), cmp_pred(nu, "!=", lit(0)))).is_valid,
    ]
    elapsed = time.time() - start
    ok = violations == 0 and all(paper) and elapsed < 30.0
    with capsys.disabled():
        _verdict(
            "criterion 8: solver sound against exhaustive enumeration",
            ok,
            f"{elapsed:.1f}s, {valid_count} valid of 1000, violations={violations}",
        )


def test_criterion_9_inference(capsys):
    program = parser.parse_program(NEGATE_INFER)
    clauses, kappas, templated = infer.gen_horn(program)
    flag = var("flag")
    x = var("x")

    def find(body_atoms, head_key):
        for clause in clauses:
            body, head = horn(clause)
            keys = {pred_key(p) for p in body}
            if all(pred_key(a) in keys for a in body_atoms) and pred_key(head) == head_key:
                return clause
        return None

    # The four published constraint shapes.  Bodies may carry extra kappa
    # hypotheses for sibling template positions; heads must match exactly.
    structural = [
        find([PKappa("k1", ((VALUE_VAR, flag),)), cmp_pred(flag, "=", lit(0)),
              cmp_pred(nu, "=", x)], pred_key(PBool(False))),
        find([PKappa("k4", ((VALUE_VAR, flag),)), cmp_pred(flag, "!=", lit(0))],
             pred_key(PBool(False))),
        find([cmp_pred(nu, "=", lit(1))], pred_key(PKappa("k1"))),
        find([cmp_pred(nu, "=", lit(0))], pred_key(PKappa("k4"))),
    ]
    matches = [c for c in structural if c is not None]

    outcome, clauses_full, kappas_full, templated_full = infer.infer_refinements(program)
    solved_ok = isinstance(outcome, infer.Solution)
    all_valid = solved_ok and all(
        clause_valid(c, outcome.assignment) for c in clauses_full
    )
    # Note: the overview narrative prints the assignment with the guard
    # refinements swapped; its own constraints force nonzero for k1 and zero
    # for k4, which is what the solver and the subset oracle agree on.
    k1_keys = {pred_key(c) for c in outcome.assignment["k1"]} if solved_ok else set()
    k4_keys = {pred_key(c) for c in outcome.assignment["k4"]} if solved_ok else set()
    oracle_ok = (
        pred_key(cmp_pred(nu, "!=", lit(0))) in k1_keys
        and pred_key(cmp_pred(nu, "=", lit(0))) in k4_keys
        and pred_key(cmp_pred(nu, "=", lit(0))) not in k1_keys
        and pred_key(cmp_pred(nu, "!=", lit(0))) not in k4_keys
    )
    # greatest-fixpoint agreement with the brute-force subset oracle over a
    # small candidate set
    small = [cmp_pred(nu, "=", lit(0)), cmp_pred(nu, "!=", lit(0)), cmp_pred(nu, "=", lit(1))]
    candidates = {k.id: (list(small) if k.sort == "number" else []) for k in kappas}
    solved_small = infer.houdini_solve(clauses, candidates)
    brute = _brute_force_greatest(clauses, candidates)
    subset_ok = isinstance(solved_small, infer.Solution) and brute is not None and all(
        {pred_key(c) for c in solved_small.assignment[k]} == {pred_key(c) for c in brute[k]}
        for k in candidates
    )
    # the solved program passes the full pipeline again
    accepted = False
    if solved_ok:
        solved_program = infer.apply_solution(templated_full, outcome)
        result = elaborate.elaborate_program(solved_program)
        accepted = check_refined(result.target).accepted
    ok = len(matches) == 4 and solved_ok and all_valid and oracle_ok and subset_ok and accepted
    with capsys.disabled():
        _verdict(
            "criterion 9: Horn constraints match and Houdini finds the greatest fixpoint",
            ok,
            f"structural={len(matches)}/4, re-accepted={accepted}",
        )


def _brute_force_greatest(clauses, candidates):
    names = sorted(candidates)
    cache: dict = {}

    def check(i, clause, assignment):
        relevant = tuple((k, assignment.get(k, ())) for k in sorted(clause_kappas(clause)))
        key = (i, relevant)
        if key not in cache:
            cache[key] = clause_valid(clause, dict(relevant))
        return cache[key]

    subsets = [
        list(itertools.chain.from_iterable(
            itertools.combinations(candidates[k], n) for n in range(len(candidates[k]) + 1)
        ))
        for k in names
    ]
    best = {k: () for k in names}
    for combo in itertools.product(*subsets):
        assignment = dict(zip(names, combo))
        if all(check(i, c, assignment) for i, c in enumerate(clauses)):
            for k in names:
                for cand in assignment[k]:
                    if cand not in best[k]:
                        best[k] = best[k] + (cand,)
    if not all(clause_valid(c, best) for c in clauses):
        return None
    return best
