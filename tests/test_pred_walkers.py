"""The predicate printer and DNF against the functions they replaced.

The reference functions below are the former recursive printers of both
notations (``render_pred`` with ``_render_nested``, and ``_sexp_pred``) and
the former negation normal form with the DNF over it (``_nnf``, ``_dnf``),
kept unchanged but for the iff's operator, now ``<=>``, and a kappa
application without a substitution, now ``k2[]``.  The template printer (``logic.render_pred``, and
``logic.print_expr`` on ``logic.SMTLIB`` behind ``to_smtlib``) and
``logic.dnf_cubes`` must agree with them on random predicates, on every part
of the VCs of the shipped and generated programs, and on the Horn clauses
inference builds from those programs, whose kappa applications carry
substitutions.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from l2 import logic
from l2.elaborate import ElabError, elaborate_program
from l2.harness import gen_program
from l2.infer import gen_horn
from l2.logic import (
    TRUE,
    VC,
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
    Pred,
    ResourceLimit,
    cmp_pred,
    pnot,
)
from l2.parser import parse_program
from l2.refine import check_refined
from tests.conftest import guarded_vc, vc_negated
from tests.test_logic import _preds

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

# ---------------------------------------------------------------------------
# References: the former recursive predicate walkers
# ---------------------------------------------------------------------------


def render_pred(p: Pred) -> str:
    match p:
        case PBool(b):
            return "true" if b else "false"
        case PAtom(a):
            return a.render()
        case PNot(inner):
            return f"!({render_pred(inner)})"
        case PAnd(parts):
            return " && ".join(_render_nested(q) for q in parts)
        case POr(parts):
            return " || ".join(_render_nested(q) for q in parts)
        case PImp(a, b):
            return f"{_render_nested(a)} => {_render_nested(b)}"
        case PIff(a, b):
            return f"{_render_nested(a)} <=> {_render_nested(b)}"
        case PKappa(k, subst):
            inner = ", ".join(f"{v.render()}/{n}" for n, v in subst)
            return f"{k}[{inner}]"
    raise TypeError(f"not a predicate: {p!r}")


def _render_nested(p: Pred) -> str:
    if isinstance(p, (PAnd, POr, PImp, PIff)):
        return f"({render_pred(p)})"
    return render_pred(p)


def _sexp_pred(p: Pred) -> str:
    match p:
        case PBool(b):
            return "true" if b else "false"
        case PAtom(Cmp(lhs, op, rhs)):
            a, b = logic._sexp_term(lhs), logic._sexp_term(rhs)
            if op == "!=":
                return f"(not (= {a} {b}))"
            return f"({op} {a} {b})"
        case PAtom(BVar(n)):
            return f"(= {n} 1)"
        case PNot(inner):
            return f"(not {_sexp_pred(inner)})"
        case PAnd(parts):
            return f"(and {' '.join(_sexp_pred(q) for q in parts)})" if parts else "true"
        case POr(parts):
            return f"(or {' '.join(_sexp_pred(q) for q in parts)})" if parts else "false"
        case PImp(a, b):
            return f"(=> {_sexp_pred(a)} {_sexp_pred(b)})"
        case PIff(a, b):
            return f"(= {_sexp_pred(a)} {_sexp_pred(b)})"
        case PKappa():
            raise ValueError("kappa variable in SMT-LIB emission")
    raise TypeError(f"not a predicate: {p!r}")


def _nnf(p: Pred, neg: bool):
    match p:
        case PBool(b):
            return ("const", b != neg)
        case PAtom(Cmp() as c):
            return ("lit", c.flip() if neg else c, True)
        case PAtom(BVar() as b):
            return ("lit", b, not neg)
        case PNot(inner):
            return _nnf(inner, not neg)
        case PAnd(parts):
            kids = [_nnf(q, neg) for q in parts]
            return ("or" if neg else "and", kids)
        case POr(parts):
            kids = [_nnf(q, neg) for q in parts]
            return ("and" if neg else "or", kids)
        case PImp(a, b):
            if neg:
                return ("and", [_nnf(a, False), _nnf(b, True)])
            return ("or", [_nnf(a, True), _nnf(b, False)])
        case PIff(a, b):
            pos = POr((PAnd((a, b)), PAnd((pnot(a), pnot(b)))))
            return _nnf(pos, neg)
        case PKappa():
            raise ValueError("kappa variable reached the decision procedure")
    raise TypeError(f"not a predicate: {p!r}")


def _dnf(node, budget: int) -> list[frozenset]:
    kind = node[0]
    if kind == "const":
        return [frozenset()] if node[1] else []
    if kind == "lit":
        return [frozenset([(node[1], node[2])])]
    if kind == "or":
        out: list[frozenset] = []
        for kid in node[1]:
            out.extend(_dnf(kid, budget))
            if len(out) > budget:
                raise ResourceLimit(f"DNF clause budget {budget} exceeded")
        return out
    # and: cartesian product of children cubes
    cubes = [frozenset()]
    for kid in node[1]:
        kid_cubes = _dnf(kid, budget)
        cubes = [a | b for a in cubes for b in kid_cubes]
        if len(cubes) > budget:
            raise ResourceLimit(f"DNF clause budget {budget} exceeded")
    return cubes


def dnf_cubes(p: Pred, budget: int = logic.DEFAULT_CLAUSE_BUDGET) -> list[frozenset]:
    return _dnf(_nnf(p, False), budget)


# ---------------------------------------------------------------------------
# Agreement
# ---------------------------------------------------------------------------


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ResourceLimit, ValueError) as exc:
        return type(exc), str(exc)


def _least_budget(dnf, p: Pred) -> int:
    """The least budget at which ``dnf`` returns p's cubes.  The sizes it
    checks do not depend on the budget, so every smaller budget raises
    ResourceLimit and every larger one returns the same cubes."""
    lo, hi = -1, 1  # dnf raises at lo (unless lo is -1) and returns at hi
    while type(_outcome(dnf, p, hi)) is not list:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if type(_outcome(dnf, p, mid)) is list else (mid, hi)
    return hi


def assert_agrees(p: Pred) -> None:
    """Both notations of p are the same, and so are its cubes, or the
    ResourceLimit or ValueError they end in, and the least budget at which
    its cubes are returned."""
    assert logic.render_pred(p) == render_pred(p)
    if not logic.contains_kappa(p):  # to_smtlib rejects a kappa before printing
        assert logic.print_expr(p, logic.SMTLIB) == _sexp_pred(p)
    expected = _outcome(dnf_cubes, p)
    assert _outcome(logic.dnf_cubes, p) == expected
    if type(expected) is list:
        budget = _least_budget(dnf_cubes, p)
        assert logic.dnf_cubes(p, budget) == expected
        if budget:
            with pytest.raises(ResourceLimit):
                logic.dnf_cubes(p, budget - 1)


def assert_vc_agrees(vc: VC) -> None:
    """Each part of the VC and its negation, which discharge expands to DNF,
    agree, and ``to_smtlib`` asserts the negation of the formula the former
    printer built from the parts."""
    for p in (*vc.hyps, vc.antecedent, vc.consequent, vc_negated(vc)):
        assert_agrees(p)
    hyp = _sexp_pred(logic.pand(vc.hyps)) if vc.hyps else "true"
    body = f"(=> {hyp} (=> {_sexp_pred(vc.antecedent)} {_sexp_pred(vc.consequent)}))"
    assert f"\n(assert (not {body}))\n" in logic.to_smtlib(vc)


@settings(max_examples=500, deadline=None)
@given(_preds)
def test_random_predicates_agree(p):
    assert_agrees(p)
    assert_agrees(pnot(p))


def _programs(budget):
    yield from (parse_program(path.read_text()) for path in sorted(PROGRAMS.glob("*.l2")))
    yield from (gen_program(seed, budget) for seed in range(400))


@pytest.mark.parametrize("budget", [30, 60])
def test_program_vcs_and_horn_clauses_agree(budget):
    vcs = clauses = kappa_leaves = 0
    for program in _programs(budget):
        try:
            target = elaborate_program(program).target
        except ElabError:
            continue
        for vc in check_refined(target, discharge=False).vcs:
            assert_vc_agrees(vc)
            vcs += 1
        for clause in gen_horn(program)[0]:
            for p in (*clause.hyps, clause.antecedent, clause.consequent):
                assert_agrees(p)
                kappa_leaves += sum(isinstance(q, PKappa) and bool(q.subst)
                                    for q in logic.pred_leaves(p))
            clauses += 1
    assert vcs and clauses and kappa_leaves  # the inputs exercise every kind


def test_deep_implication_prints_without_recursion():
    # the parser's predicate grammar recurses, so the chain is built directly
    atom = cmp_pred(LinTerm.of_var("x"), "=", LinTerm.of_const(0))
    p = atom
    for _ in range(5000):
        p = PImp(atom, p)
    assert logic.render_pred(p) == "x = 0 => (" * 4999 + "x = 0 => x = 0" + ")" * 4999
    deep = "(=> (= x 0) " * 5000 + "(= x 0)" + ")" * 5000
    assert f"(assert (not (=> true (=> true {deep}))))" in logic.to_smtlib(guarded_vc((), TRUE, p))
