"""Refinement inference: kappa templates, Horn constraints, Houdini solving.

Unknown refinements are replaced by kappa variables.  Phase 1 is oblivious
to refinements, so elaboration proceeds unchanged; re-running phase 2 with
opaque kappa atoms turns every would-be verification condition into a Horn
clause.  The solver performs monomial predicate abstraction: start each
kappa at the conjunction of all its candidate predicates and drop candidates
from clause heads until every clause is valid.  Valid assignments are closed
under union, so the loop converges on the unique greatest fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import elaborate
from .logic import (
    LinTerm,
    PAtom,
    PBool,
    PKappa,
    Pred,
    TRUE,
    VALUE_VAR,
    VC,
    cmp_pred,
    contains_kappa,
    instantiate_kappas,
    kappas_of,
    pand,
    valid,
)
from .refine import RefEnv, check_refined
from .syntax import (
    AndType,
    App,
    Ascribe,
    Const,
    FunType,
    If,
    Lam,
    Let,
    NUMBER,
    OrType,
    PrimType,
    Program,
    SrcExpr,
    SrcType,
    Var,
)


@dataclass(frozen=True)
class KappaVar:
    id: str
    sort: str  # "number" | "boolean"
    scope: tuple[str, ...] = ()


@dataclass(frozen=True)
class HornClause:
    body: tuple[Pred, ...]
    head: Pred
    origin: str = ""

    def head_kappa(self) -> str | None:
        return self.head.kappa if isinstance(self.head, PKappa) else None

    def kappas(self) -> frozenset[str]:
        out = kappas_of(self.head)
        for p in self.body:
            out |= kappas_of(p)
        return out

    def render(self) -> str:
        from .logic import render_pred

        body = " && ".join(render_pred(p) for p in self.body) if self.body else "true"
        return f"({body}) => {render_pred(self.head)}"


@dataclass
class Solution:
    assignment: dict[str, tuple[Pred, ...]]

    def as_pred(self, kappa: str) -> Pred:
        return pand(self.assignment[kappa])

    def pred_map(self) -> dict[str, Pred]:
        return {k: self.as_pred(k) for k in self.assignment}


@dataclass(frozen=True)
class Unsat:
    clause: HornClause


class _KappaCounter:
    def __init__(self) -> None:
        self.n = 0
        self.vars: list[KappaVar] = []

    def fresh(self, sort: str) -> PKappa:
        self.n += 1
        kid = f"k{self.n}"
        self.vars.append(KappaVar(kid, sort))
        return PKappa(kid)


def make_templates(t: SrcType, _counter: _KappaCounter | None = None) -> SrcType:
    """Replace every base refinement with a fresh kappa variable."""
    counter = _counter or _KappaCounter()
    match t:
        case PrimType(base, _):
            return PrimType(base, counter.fresh(base))
        case FunType(dom, cod):
            return FunType(make_templates(dom, counter), make_templates(cod, counter))
        case AndType(left, right):
            return AndType(make_templates(left, counter), make_templates(right, counter))
        case OrType(left, right):
            return OrType(make_templates(left, counter), make_templates(right, counter))
    raise TypeError(f"not a source type: {t!r}")


def _template_expr(e: SrcExpr, counter: _KappaCounter) -> SrcExpr:
    match e:
        case Const() | Var():
            return e
        case Lam(param, body, pos):
            return Lam(param, _template_expr(body, counter), pos)
        case Ascribe(expr, ty, pos):
            return Ascribe(_template_expr(expr, counter), make_templates(ty, counter), pos)
        case Let(name, bound, body, pos):
            return Let(name, _template_expr(bound, counter), _template_expr(body, counter), pos)
        case If(c, t, f, pos):
            return If(
                _template_expr(c, counter),
                _template_expr(t, counter),
                _template_expr(f, counter),
                pos,
            )
        case App(fn, arg, pos):
            return App(_template_expr(fn, counter), _template_expr(arg, counter), pos)
    raise TypeError(f"not a source expression: {e!r}")


def template_program(program: Program) -> tuple[Program, list[KappaVar]]:
    counter = _KappaCounter()
    main = _template_expr(program.main, counter)
    return Program(program.type_aliases, main), counter.vars


def gen_horn(
    program: Program, search_depth: int = elaborate.DEFAULT_SEARCH_DEPTH
) -> tuple[list[HornClause], list[KappaVar], Program]:
    """Run both phases over the templated program, collecting Horn clauses."""
    templated, kappas = template_program(program)
    result = elaborate.elaborate_program(templated, search_depth)
    report = check_refined(RefEnv(), result.target, discharge=False)
    clauses = [
        HornClause(vc.hyps + (vc.antecedent,), vc.consequent, vc.origin) for vc in report.vcs
    ]
    kappas = _assign_scopes(kappas, clauses)
    return clauses, kappas, templated


def _assign_scopes(kappas: list[KappaVar], clauses: list[HornClause]) -> list[KappaVar]:
    """A kappa's scope is the set of integer program variables available at
    every occurrence, inferred from the clauses that mention it."""
    int_names_per_clause: dict[int, frozenset[str]] = {}
    for i, clause in enumerate(clauses):
        names: set[str] = set()
        for p in list(clause.body) + [clause.head]:
            names |= _int_names(p)
        int_names_per_clause[i] = frozenset(n for n in names if not n.startswith("$") and n != VALUE_VAR)
    scopes: dict[str, frozenset[str] | None] = {k.id: None for k in kappas}
    for i, clause in enumerate(clauses):
        for k in clause.kappas():
            if scopes.get(k) is None:
                scopes[k] = int_names_per_clause[i]
            else:
                scopes[k] = scopes[k] & int_names_per_clause[i]
    return [
        replace(k, scope=tuple(sorted(scopes[k.id] or frozenset()))) for k in kappas
    ]


def _int_names(p: Pred) -> set[str]:
    from .logic import BVar, Cmp, PAnd, PAtom, PIff, PImp, PNot, POr

    match p:
        case PAtom(Cmp(lhs, _, rhs)):
            return set(lhs.names() | rhs.names())
        case PAtom(BVar(_)) | PBool():
            return set()
        case PNot(inner):
            return _int_names(inner)
        case PAnd(parts) | POr(parts):
            out: set[str] = set()
            for q in parts:
                out |= _int_names(q)
            return out
        case PImp(a, b) | PIff(a, b):
            return _int_names(a) | _int_names(b)
        case PKappa(_, subst):
            out = set()
            for _, v in subst:
                if isinstance(v, LinTerm):
                    out |= set(v.names())
            return out
        case _:
            return set()


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def program_literals(program: Program) -> list[int]:
    from . import constants

    literals: set[int] = set()

    def walk(e: SrcExpr) -> None:
        match e:
            case Const():
                k = constants.const_int_value(e)
                if k is not None:
                    literals.add(k)
            case Var():
                pass
            case Lam(_, body):
                walk(body)
            case Ascribe(expr, _):
                walk(expr)
            case Let(_, bound, body):
                walk(bound)
                walk(body)
            case If(c, t, f):
                walk(c)
                walk(t)
                walk(f)
            case App(fn, arg):
                walk(fn)
                walk(arg)

    walk(program.main)
    return sorted(literals)


def default_candidates(program: Program, kappa: KappaVar) -> list[Pred]:
    """Arithmetic (in)equalities between the value variable and the program's
    integer literals or the integer variables in the kappa's scope."""
    if kappa.sort != NUMBER:
        return []
    nu = LinTerm.of_var(VALUE_VAR)
    out: list[Pred] = []
    for k in program_literals(program):
        rhs = LinTerm.of_const(k)
        for op in ("=", "!=", "<=", ">="):
            out.append(cmp_pred(nu, op, rhs))
    for name in kappa.scope:
        rhs = LinTerm.of_var(name)
        for op in ("=", "!=", "<=", ">="):
            out.append(cmp_pred(nu, op, rhs))
    return out


# ---------------------------------------------------------------------------
# Houdini
# ---------------------------------------------------------------------------


def _instantiate_head_candidate(head: PKappa, candidate: Pred) -> Pred:
    return instantiate_kappas(head, {head.kappa: candidate})


def clause_valid(
    clause: HornClause, assignment: dict[str, tuple[Pred, ...]], clause_budget: int = 10000
) -> bool:
    pred_map = {k: pand(v) for k, v in assignment.items()}
    body = tuple(instantiate_kappas(p, pred_map) for p in clause.body)
    head = instantiate_kappas(clause.head, pred_map)
    return valid(VC(body, TRUE, head, clause.origin), clause_budget).is_valid


def houdini_solve(
    clauses: list[HornClause],
    candidates: dict[str, list[Pred]],
    clause_budget: int = 10000,
) -> Solution | Unsat:
    """Monomial predicate abstraction: weaken heads to a greatest fixpoint."""
    assignment: dict[str, tuple[Pred, ...]] = {k: tuple(v) for k, v in candidates.items()}
    for clause in clauses:
        for k in clause.kappas():
            assignment.setdefault(k, ())
    pred_map = {k: pand(v) for k, v in assignment.items()}

    changed = True
    while changed:
        changed = False
        for clause in clauses:
            head_k = clause.head_kappa()
            body = tuple(instantiate_kappas(p, pred_map) for p in clause.body)
            if head_k is None:
                head = instantiate_kappas(clause.head, pred_map)
                if not valid(VC(body, TRUE, head, clause.origin), clause_budget).is_valid:
                    # Shrinking assignments only weaken hypotheses, so a
                    # failing fixed head can never recover.
                    return Unsat(clause)
                continue
            assert isinstance(clause.head, PKappa)
            keep = tuple(
                c
                for c in assignment[head_k]
                if valid(
                    VC(body, TRUE, _instantiate_head_candidate(clause.head, c), clause.origin),
                    clause_budget,
                ).is_valid
            )
            if len(keep) != len(assignment[head_k]):
                assignment[head_k] = keep
                pred_map[head_k] = pand(keep)
                changed = True
    return Solution(assignment)


# ---------------------------------------------------------------------------
# Applying a solution
# ---------------------------------------------------------------------------


def _solve_type(t: SrcType, pred_map: dict[str, Pred]) -> SrcType:
    match t:
        case PrimType(base, refinement):
            if contains_kappa(refinement):
                missing = kappas_of(refinement) - set(pred_map)
                if missing:
                    raise ValueError(f"solution does not cover {sorted(missing)}")
                return PrimType(base, instantiate_kappas(refinement, pred_map))
            return t
        case FunType(dom, cod):
            return FunType(_solve_type(dom, pred_map), _solve_type(cod, pred_map))
        case AndType(left, right):
            return AndType(_solve_type(left, pred_map), _solve_type(right, pred_map))
        case OrType(left, right):
            return OrType(_solve_type(left, pred_map), _solve_type(right, pred_map))
    raise TypeError(f"not a source type: {t!r}")


def apply_solution(program: Program, solution: Solution) -> Program:
    pred_map = solution.pred_map()

    def walk(e: SrcExpr) -> SrcExpr:
        match e:
            case Const() | Var():
                return e
            case Lam(param, body, pos):
                return Lam(param, walk(body), pos)
            case Ascribe(expr, ty, pos):
                return Ascribe(walk(expr), _solve_type(ty, pred_map), pos)
            case Let(name, bound, body, pos):
                return Let(name, walk(bound), walk(body), pos)
            case If(c, t, f, pos):
                return If(walk(c), walk(t), walk(f), pos)
            case App(fn, arg, pos):
                return App(walk(fn), walk(arg), pos)
        raise TypeError(f"not a source expression: {e!r}")

    return Program(program.type_aliases, walk(program.main))


def infer_refinements(
    program: Program,
    preds: list[Pred] | None = None,
    clause_budget: int = 10000,
    search_depth: int = elaborate.DEFAULT_SEARCH_DEPTH,
) -> tuple[Solution | Unsat, list[HornClause], list[KappaVar], Program]:
    """End-to-end inference over the unrefined program.

    ``preds``, when given, replaces the default candidates of every numeric
    kappa; boolean kappas then get none.
    """
    clauses, kappas, templated = gen_horn(program, search_depth)
    if preds is None:
        candidates = {k.id: default_candidates(program, k) for k in kappas}
    else:
        candidates = {k.id: list(preds) if k.sort == NUMBER else [] for k in kappas}
    outcome = houdini_solve(clauses, candidates, clause_budget)
    return outcome, clauses, kappas, templated
