"""Refinement inference: kappa templates, Horn constraints, Houdini solving.

Unknown refinements are replaced by kappa variables.  Phase 1 is oblivious
to refinements, so elaboration proceeds unchanged; re-running phase 2 with
opaque kappa atoms turns every would-be verification condition into a Horn
clause.  The solver performs monomial predicate abstraction: start each
kappa at the conjunction of all its candidate predicates and drop candidates
from clause heads until every clause is valid.  Valid assignments are closed
under union, so the loop converges on the unique greatest fixpoint.  It
re-checks only clauses whose kappas shrank, tries each head's candidates as
one conjunction first, and shares instantiations and a discharge memo
within one solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import elaborate
from .logic import (
    DEFAULT_CLAUSE_BUDGET,
    LinTerm,
    PKappa,
    Pred,
    TRUE,
    VALUE_VAR,
    VC,
    cmp_pred,
    contains_kappa,
    instantiate_kappas,
    kappas_of,
    map_pred,
    pand,
    pred_names,
    ResourceLimit,
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

    def body_kappas(self) -> frozenset[str]:
        return frozenset().union(*map(kappas_of, self.body))

    def kappas(self) -> frozenset[str]:
        return kappas_of(self.head) | self.body_kappas()

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
    kappas = _assign_scopes(kappas, report.vcs)
    return clauses, kappas, templated


def _assign_scopes(kappas: list[KappaVar], vcs: tuple[VC, ...]) -> list[KappaVar]:
    """A kappa's scope is the set of integer program variables available at
    every occurrence: the names that each VC mentioning it reads and binds at
    a number type (``VC.scope``)."""
    scopes: dict[str, frozenset[str]] = {}
    for vc in vcs:
        preds = (*vc.hyps, vc.antecedent, vc.consequent)
        names = frozenset().union(*map(pred_names, preds)) & frozenset(vc.scope)
        names = frozenset(n for n in names if not n.startswith("$") and n != VALUE_VAR)
        for k in frozenset().union(*map(kappas_of, preds)):
            scopes[k] = scopes[k] & names if k in scopes else names
    return [replace(k, scope=tuple(sorted(scopes.get(k.id, ())))) for k in kappas]


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


def houdini_solve(
    clauses: list[HornClause],
    candidates: dict[str, list[Pred]],
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
) -> Solution | Unsat:
    """Monomial predicate abstraction: weaken heads to a greatest fixpoint.

    Each sweep skips a clause unless a kappa it reads (its body's, and a
    fixed head's) shrank since its last check: under an unchanged body, a
    subset of heads that held still holds."""
    assignment: dict[str, tuple[Pred, ...]] = {k: tuple(v) for k, v in candidates.items()}
    for clause in clauses:
        for k in clause.kappas():
            assignment.setdefault(k, ())
    version = dict.fromkeys(assignment, 0)  # bumped whenever the assignment shrinks
    reads = [sorted(c.body_kappas() if c.head_kappa() else c.kappas()) for c in clauses]
    checked: list[tuple | None] = [None] * len(clauses)
    memo: dict = {}  # shared by every valid() call of this solve
    instances: dict[tuple[PKappa, Pred], Pred] = {}  # (kappa use, candidate) -> instance
    leaves: dict[tuple[PKappa, int], Pred] = {}  # (kappa use, version) -> instance

    def instance(q: PKappa, c: Pred) -> Pred:
        if (q, c) not in instances:
            instances[q, c] = instantiate_kappas(q, {q.kappa: c})
        return instances[q, c]

    def leaf(q: Pred) -> Pred:  # instantiated as the conjunction of its instances
        if not isinstance(q, PKappa):
            return q
        key = (q, version[q.kappa])
        if key not in leaves:
            leaves[key] = pand(instance(q, c) for c in assignment[q.kappa])
        return leaves[key]

    changed = True
    while changed:
        changed = False
        for i, clause in enumerate(clauses):
            stamp = tuple(version[k] for k in reads[i])
            if stamp == checked[i]:
                continue
            checked[i] = stamp
            body = tuple(map_pred(p, leaf) for p in clause.body)

            def holds(head: Pred) -> bool:
                vc = VC(body, TRUE, head, clause.origin)
                return valid(vc, clause_budget, memo).is_valid

            head_k = clause.head_kappa()
            if head_k is None:
                if not holds(map_pred(clause.head, leaf)):
                    # Shrinking assignments only weaken hypotheses, so a
                    # failing fixed head can never recover.
                    return Unsat(clause)
                continue
            cands = assignment[head_k]
            keep = _holding(cands, [instance(clause.head, c) for c in cands], holds)
            if len(keep) != len(cands):
                assignment[head_k] = keep
                version[head_k] += 1
                changed = True
    return Solution(assignment)


def _holding(cands: tuple[Pred, ...], heads: list[Pred], holds) -> tuple[Pred, ...]:
    """The candidates whose head holds.  Their conjunction is checked first:
    its negation's cubes are the union of theirs, so it holds exactly when
    each does.  Over the clause budget, each is checked alone."""
    if len(cands) > 1:
        try:
            if holds(pand(heads)):
                return cands
        except ResourceLimit:
            pass
    return tuple(c for c, head in zip(cands, heads) if holds(head))


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
