"""Refinement inference: kappa templates, Horn constraints, Houdini solving.

Unknown refinements are replaced by kappa variables.  Phase 1 is oblivious
to refinements, so elaboration proceeds unchanged; re-running phase 2 with
opaque kappa atoms makes every verification condition a Horn clause, whose
body is the VC's hypotheses and antecedent and whose head is its consequent.
The solver performs monomial predicate abstraction: start each kappa at the
conjunction of all its candidate predicates and drop candidates from clause
heads until every clause is valid.  Valid assignments are closed under
union, so the loop converges on the unique greatest fixpoint.  It re-checks
only clauses whose kappas shrank, tries each head's candidates as one
conjunction first, and shares instantiations and a discharge memo within one
solve.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    pred_leaves,
    pred_names,
    ResourceLimit,
    valid,
)
from .refine import check_refined
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


@dataclass
class Solution:
    assignment: dict[str, tuple[Pred, ...]]

    def pred_map(self) -> dict[str, Pred]:
        return {k: pand(v) for k, v in self.assignment.items()}


@dataclass(frozen=True)
class Unsat:
    clause: VC


class _KappaCounter:
    def __init__(self) -> None:
        self.n = 0
        self.vars: list[KappaVar] = []

    def fresh(self, sort: str) -> PKappa:
        self.n += 1
        kid = f"k{self.n}"
        self.vars.append(KappaVar(kid, sort))
        return PKappa(kid)


def make_templates(t: SrcType, counter: _KappaCounter) -> SrcType:
    """Replace every base refinement with a fresh kappa variable from counter."""
    return map_prims(t, lambda p, _: PrimType(p.base, counter.fresh(p.base)))


def template_program(program: Program) -> tuple[Program, list[KappaVar]]:
    counter = _KappaCounter()
    main = map_ascriptions(program.main, lambda ty: make_templates(ty, counter))
    return Program(program.type_aliases, main), counter.vars


def gen_horn(
    program: Program, search_depth: int = elaborate.DEFAULT_SEARCH_DEPTH
) -> tuple[tuple[VC, ...], list[KappaVar], Program]:
    """Run both phases over the templated program: its VCs are the Horn clauses."""
    templated, kappas = template_program(program)
    result = elaborate.elaborate_program(templated, search_depth)
    report = check_refined(result.target, discharge=False)
    return report.vcs, _assign_scopes(kappas, report.vcs), templated


def _assign_scopes(kappas: list[KappaVar], vcs: tuple[VC, ...]) -> list[KappaVar]:
    """A kappa's scope is the set of integer program variables available at
    every occurrence: the names that each VC mentioning it reads and binds at
    a number type (``VC.scope``), less the names in the terms its
    applications substitute for the value variable.  ``k[a/v]`` refines
    ``a`` itself, so a candidate over ``a`` would relate ``a`` to itself."""
    scopes: dict[str, frozenset[str]] = {}
    for vc in vcs:
        preds = (*vc.hyps, vc.antecedent, vc.consequent)
        names = frozenset().union(*map(pred_names, preds)) & frozenset(vc.scope)
        names = frozenset(n for n in names if not n.startswith("$") and n != VALUE_VAR)
        own: dict[str, set[str]] = {}  # kappa -> the names substituted for its v
        for q in (q for p in preds for q in pred_leaves(p) if isinstance(q, PKappa)):
            value = own.setdefault(q.kappa, set())
            value.update(n for x, term in q.subst if x == VALUE_VAR for n, _ in term.coeffs)
        for k, value in own.items():
            mine = names - value
            scopes[k] = scopes[k] & mine if k in scopes else mine
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
    clauses: Sequence[VC],
    candidates: dict[str, list[Pred]],
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
) -> Solution | Unsat:
    """Monomial predicate abstraction: weaken heads to a greatest fixpoint.

    Each clause's body and head are read once.  Each sweep skips a clause
    unless a kappa it reads (its body's, and a fixed head's) shrank since its
    last check: under an unchanged body, a subset of heads that held still
    holds."""
    assignment: dict[str, tuple[Pred, ...]] = {k: tuple(v) for k, v in candidates.items()}
    bodies = [(*c.hyps, c.antecedent) for c in clauses]
    heads = [c.consequent for c in clauses]
    head_kappas = [h.kappa if isinstance(h, PKappa) else None for h in heads]
    reads = []  # the kappas whose shrinking makes a clause due, sorted
    for body, head, head_k in zip(bodies, heads, head_kappas):
        body_kappas = frozenset().union(*map(kappas_of, body))
        every = kappas_of(head) | body_kappas
        for k in every:
            assignment.setdefault(k, ())
        reads.append(sorted(body_kappas if head_k else every))
    version = dict.fromkeys(assignment, 0)  # bumped whenever the assignment shrinks
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
        for i, (clause, head, head_k) in enumerate(zip(clauses, heads, head_kappas)):
            stamp = tuple(version[k] for k in reads[i])
            if stamp == checked[i]:
                continue
            checked[i] = stamp
            body = tuple(map_pred(p, leaf) for p in bodies[i])

            def holds(goal: Pred) -> bool:
                vc = VC(body, TRUE, goal, clause.origin)
                return valid(vc, clause_budget, memo).is_valid

            if head_k is None:
                if not holds(map_pred(head, leaf)):
                    # Shrinking assignments only weaken hypotheses, so a
                    # failing fixed head can never recover.
                    return Unsat(clause)
                continue
            cands = assignment[head_k]
            keep = _holding(cands, [instance(head, c) for c in cands], holds)
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

    def solve(t: PrimType, _negative: bool) -> PrimType:
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
) -> tuple[Solution | Unsat, tuple[VC, ...], list[KappaVar], Program]:
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
