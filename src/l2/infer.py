"""Refinement inference: kappa templates, Horn constraints, Houdini solving.

Unknown refinements are replaced by kappa variables.  Phase 1 is oblivious
to refinements, so elaboration proceeds unchanged; re-running phase 2 with
opaque kappa atoms makes every verification condition a Horn clause, whose
body is the VC's hypotheses and antecedent and whose head is its consequent.
The solver performs monomial predicate abstraction: start each kappa at the
conjunction of all its candidate predicates and drop candidates from clause
heads until every clause is valid.  Valid assignments are closed under
union, so the loop converges on the unique greatest fixpoint (Flanagan &
Leino's Houdini, the weakening liquid-type inference runs over its
qualifiers).

The solver is a worklist ordered by the strongly connected components of
the graph from body kappas to head kappas, sources first and clauses with a
fixed head last, ties broken by clause index: each copy of an overloaded
function settles before the clauses that read it, so the number of checks
grows linearly in overload width.  A clause is queued again only when a
kappa it reads shrinks.  A head's candidates are checked as one conjunction;
when it fails, an integer model of the failing cube, read from the memo the
check filled, drops every candidate it falsifies, and the survivors are
checked as one conjunction again.  Fixed heads are reached only at the
greatest fixpoint, so an Unsat report names the first clause, in clause
order, that fails under it.  One solve shares its instantiations and a
discharge memo, and builds each clause body once per check as a chain of
guard frames, which groups it once.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass, replace

from . import elaborate
from .logic import (
    BVar,
    Cmp,
    DEFAULT_CLAUSE_BUDGET,
    FALSE,
    LinTerm,
    PAtom,
    PBool,
    PKappa,
    Pred,
    TRUE,
    VALUE_VAR,
    VC,
    Verdict,
    cmp_pred,
    contains_kappa,
    cube_model,
    eval_atom,
    instantiate_kappas,
    kappas_of,
    map_pred,
    pand,
    pred_leaves,
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
    rhss = [*map(LinTerm.of_const, program_literals(program)), *map(LinTerm.of_var, kappa.scope)]
    return [cmp_pred(nu, op, rhs) for rhs in rhss for op in ("=", "!=", "<=", ">=")]


# ---------------------------------------------------------------------------
# Houdini
# ---------------------------------------------------------------------------


def houdini_solve(
    clauses: Sequence[VC],
    candidates: dict[str, list[Pred]],
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
) -> Solution | Unsat:
    """Monomial predicate abstraction: weaken heads to a greatest fixpoint.

    A worklist holds the clauses due for a check, and the next one checked
    is the least by rank: the topological position of its head kappa's
    strongly connected component in the graph from body kappas to head
    kappas (``_ranks``), sources first and fixed heads last, then its index.
    A clause is queued once at the start and again only when a kappa it
    reads (its body's, and a fixed head's) shrinks: under an unchanged body,
    a subset of heads that held still holds.  So each copy of an overloaded
    function settles before the clauses that read it, and each fixed head is
    checked once, under the greatest fixpoint, because no kappa-headed
    clause is due any more when the first one is reached.  A failing fixed
    head can never recover (shrinking assignments only weaken hypotheses),
    so the Unsat report names the first clause, in clause order, that fails
    under the greatest fixpoint.  A clause's body is instantiated once per
    check as a chain of guards (``refine.RefEnv``), whose hypotheses are
    grouped once, as phase 2 groups a frame's, and each head candidate or
    conjunction is checked on it (``_holding``)."""
    assignment: dict[str, tuple[Pred, ...]] = {k: tuple(v) for k, v in candidates.items()}
    bodies = [(*c.hyps, c.antecedent) for c in clauses]
    heads = [c.consequent for c in clauses]
    head_kappas = [h.kappa if isinstance(h, PKappa) else None for h in heads]
    readers: dict[str, list[int]] = {}  # kappa -> the clauses due when it shrinks
    edges: dict[str, set[str]] = {}  # body kappa -> the head kappas it reaches
    for i, (body, head, head_k) in enumerate(zip(bodies, heads, head_kappas)):
        body_kappas = frozenset().union(*map(kappas_of, body))
        every = sorted(body_kappas | kappas_of(head))
        for k in every:
            assignment.setdefault(k, ())
        for k in sorted(body_kappas) if head_k else every:
            readers.setdefault(k, []).append(i)
            if head_k:
                edges.setdefault(k, set()).add(head_k)
    ranks = _ranks(list(assignment), edges)
    order = [(ranks[k] if k else len(ranks), i) for i, k in enumerate(head_kappas)]
    queue = sorted(order)  # the (rank, index) of every clause due, in order
    due = set(range(len(clauses)))
    memo: dict = {}  # shared by every valid() call of this solve
    instances: dict[tuple[PKappa, Pred], Pred] = {}  # (kappa use, candidate) -> instance
    leaves: dict[tuple[PKappa, int], Pred] = {}  # (kappa use, version) -> instance
    version = dict.fromkeys(assignment, 0)  # bumped whenever the assignment shrinks

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

    while queue:
        i = queue.pop(0)[1]
        due.discard(i)
        clause, head, head_k = clauses[i], heads[i], head_kappas[i]
        env = RefEnv()
        for p in bodies[i]:
            env = env.guard(map_pred(p, leaf))

        def check(goal: Pred) -> Verdict:
            return valid(VC.on(env, TRUE, goal, clause.origin), clause_budget, memo)

        if head_k is None:
            if not check(map_pred(head, leaf)).is_valid:
                return Unsat(clause)
            continue
        cands = assignment[head_k]
        keep = _holding(cands, [instance(head, c) for c in cands], check, memo)
        if len(keep) != len(cands):
            assignment[head_k] = keep
            version[head_k] += 1
            for j in readers.get(head_k, ()):
                if j not in due:
                    due.add(j)
                    insort(queue, order[j])
    return Solution(assignment)


def _ranks(kappas: list[str], edges: dict[str, set[str]]) -> dict[str, int]:
    """Each kappa's strongly connected component in the graph of ``edges``,
    numbered so that every edge between components goes to a higher number:
    Tarjan's algorithm on an explicit stack, which finds the components
    sinks first."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    found: dict[str, int] = {}  # kappa -> its component, numbered in order found
    stack: list[str] = []  # visited kappas whose component is not yet found
    components = 0
    for root in kappas:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(sorted(edges.get(root, ()))))]
        while work:
            k, successors = work[-1]
            for s in successors:
                if s not in index:
                    index[s] = low[s] = len(index)
                    stack.append(s)
                    work.append((s, iter(sorted(edges.get(s, ())))))
                    break
                if s not in found:
                    low[k] = min(low[k], index[s])
            else:
                work.pop()
                if work:
                    up = work[-1][0]
                    low[up] = min(low[up], low[k])
                if low[k] == index[k]:
                    while (s := stack.pop()) != k:
                        found[s] = components
                    found[k] = components
                    components += 1
    return {k: components - 1 - c for k, c in found.items()}


def _holding(cands: tuple[Pred, ...], heads: list[Pred], check, memo: dict) -> tuple[Pred, ...]:
    """The candidates whose head holds.  Their conjunction is checked first:
    its negation's cubes are the union of theirs, so it holds exactly when
    each does.  When it fails, an integer model of the failing cube, on the
    components that share a name with the heads and read from the memo where
    their searches left it, falsifies at least one head, and every head it
    falsifies fails alone too: those candidates are dropped, and the
    survivors checked again as one conjunction.  Only over the clause
    budget, or when no model is found, is each survivor checked alone."""
    names = frozenset().union(*map(pred_names, heads))
    keep = list(range(len(cands)))
    while len(keep) > 1:
        try:
            verdict = check(pand(heads[i] for i in keep))
        except ResourceLimit:
            break
        if verdict.is_valid:
            return tuple(cands[i] for i in keep)
        model = cube_model(verdict.cube, names, memo)
        falsified = set() if model is None else {i for i in keep if _falsifies(model, heads[i])}
        if not falsified:
            break
        keep = [i for i in keep if i not in falsified]
    return tuple(cands[i] for i in keep if check(heads[i]).is_valid)


def _falsifies(model: dict[str, int], p: Pred) -> bool:
    """Whether p is false under the model.  A boolean atom is read only
    when its name is 0 or 1, so an undecided p is not falsified."""

    def leaf(q: Pred) -> Pred:
        match q:
            case PAtom(Cmp() as c):
                return PBool(eval_atom(c, model))
            case PAtom(BVar(n)) if model.get(n, 0) in (0, 1):
                return PBool(model.get(n, 0) == 1)
        return q

    return map_pred(p, leaf) == FALSE


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
