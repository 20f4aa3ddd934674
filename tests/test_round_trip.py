"""What l2 prints reads back as what was printed.

Every part of every VC prints through ``logic.render_pred`` and the whole VC
through ``VC.render``; ``parser.parse_pred`` must read each back to the same
predicate, compared structurally (``==``).  The parser builds through the smart
constructors, so a whole VC is compared with the predicate they build from
its parts.  Programs and their ascribed types print through
``syntax.print_program`` and ``print_type`` and must read back equal.  The
Horn clauses of ``infer`` are VCs over kappa applications (``k1[flag/v]``,
``k2[]``) and read back the same way.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from l2.elaborate import ElabError, elaborate_program
from l2.harness import gen_program
from l2.infer import Solution, gen_horn, infer_refinements
from l2.logic import PKappa, contains_kappa, pand, pimp, render_pred
from l2.parser import ParseError, parse_pred, parse_program, parse_type
from l2.refine import check_refined
from l2.syntax import Ascribe, FunType, NUM, print_program, print_type, subexprs
from tests.conftest import guarded_vc
from tests.test_logic import _preds

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
SHIPPED = [parse_program(path.read_text()) for path in sorted(PROGRAMS.glob("*.l2"))]


def _programs(budget):
    yield from SHIPPED
    yield from (gen_program(seed, budget) for seed in range(400))


def assert_reads_back(printed: str, p) -> None:
    assert parse_pred(printed) == p, printed


def formula(vc):
    """The VC as the parser builds it, through the smart constructors."""
    return pimp(pand(vc.hyps), pimp(vc.antecedent, vc.consequent))


@pytest.mark.parametrize("budget", [30, 60])
def test_programs_types_and_vcs_read_back(budget):
    ascriptions = parts = reserved = 0
    for program in _programs(budget):
        assert parse_program(print_program(program)) == program
        for e in subexprs(program.main):
            if isinstance(e, Ascribe):
                assert parse_type(print_type(e.ty)) == e.ty
                ascriptions += 1
        try:
            target = elaborate_program(program).target
        except ElabError:
            continue
        for vc in check_refined(target, discharge=False).vcs:
            for p in (*vc.hyps, vc.antecedent, vc.consequent):
                assert_reads_back(render_pred(p), p)
                parts += 1
            assert_reads_back(vc.render(), formula(vc))
            reserved += "$" in vc.render()
    assert ascriptions and parts and reserved  # phase 2's reserved names are read too


def test_kappa_solutions_read_back():
    solved = 0
    for program in [*SHIPPED, *(gen_program(seed, 30) for seed in range(100))]:
        try:
            outcome = infer_refinements(program)[0]
        except ElabError:
            continue
        if isinstance(outcome, Solution):
            for candidates in outcome.assignment.values():
                assert_reads_back(render_pred(pand(candidates)), pand(candidates))
                solved += bool(candidates)
    assert solved


def test_horn_clauses_read_back():
    kappas = 0
    for program in [*SHIPPED, *(gen_program(seed, b) for b in (30, 60) for seed in range(100))]:
        try:
            clauses = gen_horn(program)[0]
        except ElabError:
            continue
        for vc in clauses:
            for p in (*vc.hyps, vc.antecedent, vc.consequent):
                assert_reads_back(render_pred(p), p)
                kappas += contains_kappa(p)
            assert_reads_back(vc.render(), formula(vc))
    assert kappas


def test_kappa_applications_read_back():
    assert render_pred(pand([PKappa("k2"), parse_pred("x = 1")])) == "k2[] && x = 1"
    p = parse_pred("(v = 12 || k4[-4/p4, $g1 + 2/v]) => k1[]")
    assert p == pimp(parse_pred("v = 12 || k4[-4/p4, $g1 + 2/v]"), PKappa("k1"))
    assert render_pred(p) == "(v = 12 || k4[-4/p4, $g1 + 2/v]) => k1[]"
    with pytest.raises(ParseError, match="unexpected character '\\['"):
        parse_program("let x = 1 in k1[x/v]")


@settings(max_examples=500, deadline=None)
@given(_preds)
def test_random_predicates_read_back(p):
    assert_reads_back(render_pred(p), p)


@settings(max_examples=200, deadline=None)
@given(st.lists(_preds, max_size=3), _preds, _preds)
def test_random_vcs_read_back(hyps, antecedent, consequent):
    vc = guarded_vc(hyps, antecedent, consequent)
    assert_reads_back(vc.render(), formula(vc))


def test_iff_reads_back():
    program = parse_program(
        "((\\x => let b = lt x 1 in if b then 1 else x) : number -> {v:number | v >= 1})")
    vcs = check_refined(elaborate_program(program).target, discharge=False).vcs
    assert [vc.render() for vc in vcs] == [
        "(true && (b <=> x < 1) && b) => (v = 1 => v >= 1)",
        "(true && (b <=> x < 1) && !(b)) => (v = x => v >= 1)",
    ]
    assert render_pred(vcs[0].hyps[1]) == "b <=> x < 1"
    for vc in vcs:
        assert_reads_back(render_pred(vc.hyps[1]), vc.hyps[1])
        assert_reads_back(vc.render(), formula(vc))


def _arrow_spine(t):
    """The domains and binders down t's chain of codomains, and its end,
    without recursion (a dataclass compares recursively)."""
    spine = []
    while isinstance(t, FunType):
        spine.append((t.dom, t.binder))
        t = t.cod
    return spine, t


def test_deep_arrow_type_reads_back():
    t = NUM
    for _ in range(5000):
        t = FunType(NUM, t)
    assert _arrow_spine(parse_type(print_type(t))) == _arrow_spine(t)


def test_long_implication_chain_parses():
    p = parse_pred(" => ".join(f"x = {i}" for i in range(5001)))
    for i in range(5000):  # right-nested: x = 0 => (x = 1 => ...)
        assert render_pred(p.hyp) == f"x = {i}"
        p = p.concl
    assert render_pred(p) == "x = 5000"
