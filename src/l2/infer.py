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
    Cmp,
    DEFAULT_CLAUSE_BUDGET,
    LinTerm,
    PAtom,
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
    pred_leaves,
    valid,
)
from .refine import RefEnv, check_refined
from .syntax import (
    Const,
    NUMBER,
    PrimType,
    Program,
    SrcType,
    map_ascriptions,
    map_prims,
    subexprs,
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

    def pred_map(self) -> dict[str, Pred]:
        return {k: pand(v) for k, v in self.assignment.items()}


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
    return map_prims(t, lambda p: PrimType(p.base, counter.fresh(p.base)))


def template_program(program: Program) -> tuple[Program, list[KappaVar]]:
    counter = _KappaCounter()
    main = map_ascriptions(program.main, lambda ty: make_templates(ty, counter))
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
    out: set[str] = set()
    for q in pred_leaves(p):
        match q:
            case PAtom(Cmp(lhs, _, rhs)):
                out |= lhs.names() | rhs.names()
            case PKappa(_, subst):
                for _, v in subst:
                    if isinstance(v, LinTerm):
                        out |= v.names()
    return out


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def program_literals(program: Program) -> list[int]:
    from . import constants

    consts = (e for e in subexprs(program.main) if isinstance(e, Const))
    return sorted({k for k in map(constants.const_int_value, consts) if k is not None})


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


def houdini_solve(
    clauses: list[HornClause],
    candidates: dict[str, list[Pred]],
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
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


def apply_solution(program: Program, solution: Solution) -> Program:
    pred_map = solution.pred_map()

    def solve(t: PrimType) -> PrimType:
        if not contains_kappa(t.refinement):
            return t
        missing = kappas_of(t.refinement) - set(pred_map)
        if missing:
            raise ValueError(f"solution does not cover {sorted(missing)}")
        return PrimType(t.base, instantiate_kappas(t.refinement, pred_map))

    main = map_ascriptions(program.main, lambda ty: map_prims(ty, solve))
    return Program(program.type_aliases, main)


def infer_refinements(
    program: Program,
    preds: list[Pred] | None = None,
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
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
