"""Randomized program generation and executable metatheory checks.

The consistency theorems quantify existentially over elaboration witnesses,
so the harness verifies membership in the elaboration relation directly:
``elab_matches`` replays the relation with the target term as an oracle for
the non-deterministic choices (which conjunct, which union arm, where to
split).  Administrative projection chains over pairs are normalized away
before matching.

``run_trial`` elaborates a program once and runs it once in each language;
the checks below all read that one ``Trial``, and the fuzz loop and the
shrinker build one per program.

``lockstep_check`` compares the two runs of a trial and checks:
  (a) a terminal target value is matched by a terminal source value that
      elaborates to it at the program type,
  (b) every source intermediate elaborates to some target intermediate,
      scanning forward monotonically,
  (c) the two sides agree on stuckness, and a stuck target's redex carries
      a DEAD value.
Fuel exhaustion on either side makes the report inconclusive, never a
counterexample.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields

from . import constants, source_interp, syntax, target_interp
from .elaborate import DEFAULT_SEARCH_DEPTH, ElabError, ElabResult, Elaborator, elaborate_program
from .logic import DEFAULT_CLAUSE_BUDGET, LinTerm, VALUE_VAR, cmp_pred
from .refine import PhaseOrderError, check_refined
from .source_interp import DEFAULT_FUEL, FuelExhausted, Outcome, Stepped, StuckAt, Value
from .syntax import (
    AndType,
    App,
    Ascribe,
    BOOL,
    Const,
    FunType,
    If,
    Lam,
    Let,
    NUM,
    OrType,
    PrimType,
    Program,
    SrcExpr,
    SrcType,
    Var,
    erase_refinements,
    is_value,
    print_program,
    subst,
    tags_disjoint,
    types_equal_basic,
)
from .target import (IllTyped, TCase, TDead, TInj, TPair, TProj, TgtExpr, is_dead_value,
                     simple_typecheck)

Env = dict[str, SrcType]


# ---------------------------------------------------------------------------
# Administrative normalization
# ---------------------------------------------------------------------------


def normalize_admin(w: TgtExpr) -> TgtExpr:
    """Reduce projection-over-pair chains everywhere; nothing else."""

    def reduce(p: TgtExpr) -> TgtExpr:
        if isinstance(p, TProj) and isinstance(p.tuple_, TPair):
            return p.tuple_.first if p.index == 1 else p.tuple_.second
        return p

    return syntax.map_up(w, reduce)


def _basic_type(env: Env, w: TgtExpr) -> SrcType | None:
    """The basic type w was elaborated at, or None when w is ill-typed."""
    try:
        return simple_typecheck(env, w)
    except IllTyped:
        return None


# ---------------------------------------------------------------------------
# The elaboration relation, verified against a target witness
# ---------------------------------------------------------------------------


def elab_matches(env: Env, e: SrcExpr, tau: SrcType, w: TgtExpr) -> bool:
    """Does (e, tau, w) lie in the elaboration relation?

    Each target constructor pins down the rule that introduced it, so the
    check is a deterministic replay except for union splits, which search the
    source term's evaluation-context decompositions.  ``env`` holds basic
    types, as the target's simple type checker reads a witness subterm's
    type; an ill-typed subterm matches nothing.
    """
    match w:
        case TDead(from_ty, to_ty, inner):
            return (
                types_equal_basic(to_ty, tau)
                and tags_disjoint(from_ty, tau)
                and elab_matches(env, e, from_ty, inner)
            )
        case TPair(w1, w2):
            return (
                isinstance(tau, AndType)
                and is_value(_peel(e))
                and elab_matches(env, e, tau.left, w1)
                and elab_matches(env, e, tau.right, w2)
            )
        case TProj(k, w0):
            t0 = _basic_type(env, w0)
            if not isinstance(t0, AndType):
                return False
            arm = t0.left if k == 1 else t0.right
            return types_equal_basic(arm, tau) and elab_matches(env, e, t0, w0)
        case TInj(k, w0, _):
            if not isinstance(tau, OrType):
                return False
            arm = tau.left if k == 1 else tau.right
            return elab_matches(env, e, arm, w0)
        case TCase(w0, x1, w1, x2, w2):
            t0 = _basic_type(env, w0)
            if not isinstance(t0, OrType):
                return False
            for plug, e0 in syntax.decompose(e):
                if not elab_matches(env, e0, t0, w0):
                    continue
                env1 = {**env, x1: t0.left}
                env2 = {**env, x2: t0.right}
                if elab_matches(env1, plug(Var(x1)), tau, w1) and elab_matches(
                    env2, plug(Var(x2)), tau, w2
                ):
                    return True
            return False
    e = _peel_matching(e, tau)
    match (e, w):
        case (Const(ca), Const(cb)):
            return ca == cb and types_equal_basic(ca.source_type, tau)
        case (Var(na), Var(nb)):
            return na == nb and na in env and types_equal_basic(env[na], tau)
        case (Lam(p_e, body_e), Lam(p_w, body_w)):
            if not isinstance(tau, FunType):
                return False
            if p_e != p_w:
                body_w = subst(body_w, p_w, Var(p_e))
            env = {**env, p_e: erase_refinements(tau.dom)}
            return elab_matches(env, body_e, tau.cod, body_w)
        case (Let(n_e, bound_e, body_e), Let(n_w, bound_w, body_w)):
            t1 = _basic_type(env, bound_w)
            if t1 is None or not elab_matches(env, bound_e, t1, bound_w):
                return False
            if n_e != n_w:
                body_w = subst(body_w, n_w, Var(n_e))
            return elab_matches({**env, n_e: t1}, body_e, tau, body_w)
        case (If(c_e, t_e, f_e), If(c_w, t_w, f_w)):
            return (
                elab_matches(env, c_e, BOOL, c_w)
                and elab_matches(env, t_e, tau, t_w)
                and elab_matches(env, f_e, tau, f_w)
            )
        case (App(fn_e, arg_e), App(fn_w, arg_w)):
            t_fn = _basic_type(env, fn_w)
            if not isinstance(t_fn, FunType) or not types_equal_basic(t_fn.cod, tau):
                return False
            return elab_matches(env, fn_e, t_fn, fn_w) and elab_matches(env, arg_e, t_fn.dom, arg_w)
        case _:
            return False


def _peel(e: SrcExpr) -> SrcExpr:
    while isinstance(e, Ascribe):
        e = e.expr
    return e


def _peel_matching(e: SrcExpr, tau: SrcType) -> SrcExpr:
    while isinstance(e, Ascribe) and types_equal_basic(e.ty, tau):
        e = e.expr
    return e


# ---------------------------------------------------------------------------
# Differential reports
# ---------------------------------------------------------------------------


@dataclass
class DiffReport:
    program: str
    verdict: str  # "agree" | "counterexample" | "inconclusive"
    kind: str | None = None
    step_index: int | None = None
    source_trace: list[str] = field(default_factory=list)
    target_trace: list[str] = field(default_factory=list)
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Trial:
    """A program elaborated once and run once in each language.

    ``source`` and ``target`` are the interpreters' (outcome, rules, states);
    ``normalized`` holds the target states with administrative projections
    reduced, as ``elab_matches`` compares against them.  ``search_depth`` is
    the depth the program was elaborated with, which the checks that
    elaborate again reuse.
    """

    program: Program
    elab: ElabResult
    source: tuple[Outcome, list[str], list[SrcExpr]]
    target: tuple[Outcome, list[str], list[TgtExpr]]
    normalized: tuple[TgtExpr, ...]
    search_depth: int


def run_trial(
    program: Program, fuel: int = DEFAULT_FUEL, search_depth: int = DEFAULT_SEARCH_DEPTH
) -> Trial:
    """Raises ElabError when the program does not pass phase 1."""
    elab = elaborate_program(program, search_depth)
    source = source_interp.eval_source_trace(program.main, fuel)
    target = target_interp.eval_target_trace(elab.target, fuel)
    normalized = tuple(normalize_admin(w) for w in target[2])
    return Trial(program, elab, source, target, normalized, search_depth)


def _witnesses(trial: Trial, every: int = 1):
    """Scan the target trace forward for an elaboration witness of every
    ``every``-th source state.  Yields (i, j): target state j witnesses
    source state i; j is None, and the scan ends, when none is left."""
    s_states, tau, normalized = trial.source[2], trial.elab.type, trial.normalized
    j = 0
    for i in range(0, len(s_states), every):
        j = next(
            (jj for jj in range(j, len(normalized))
             if elab_matches({}, s_states[i], tau, normalized[jj])),
            None,
        )
        yield i, j
        if j is None:
            return


def lockstep_check(trial: Trial) -> DiffReport:
    s_out, s_rules, s_states = trial.source
    t_out, t_rules, t_states = trial.target

    def report(verdict: str, kind: str | None = None, idx: int | None = None, detail: str = ""):
        return DiffReport(print_program(trial.program), verdict, kind, idx, s_rules, t_rules,
                          detail)

    if isinstance(s_out, FuelExhausted) or isinstance(t_out, FuelExhausted):
        return report("inconclusive", "fuel-exhausted")

    # (b) every source intermediate elaborates to some target intermediate
    for i, j in _witnesses(trial):
        if j is None:
            return report(
                "counterexample", "reverse-consistency", i,
                f"source state {i} has no elaboration witness in the target trace",
            )

    # (a)/(c) terminal agreement
    s_stuck = isinstance(s_out, StuckAt)
    t_stuck = isinstance(t_out, StuckAt)
    if s_stuck != t_stuck:
        return report(
            "counterexample", "stuckness-mismatch", len(s_states) - 1,
            f"source {type(s_out).__name__} vs target {type(t_out).__name__}",
        )
    if t_stuck:
        if not target_interp.contains_dead_value(t_out.focus):
            return report(
                "counterexample", "stuck-without-dead", len(t_states) - 1,
                "target stuck redex carries no DEAD value",
            )
    else:
        # both values: the final alignment above already related them, but the
        # terminal target value must itself be matched by the source value
        if not elab_matches({}, s_states[-1], trial.elab.type, trial.normalized[-1]):
            return report(
                "counterexample", "multistep-consistency", len(s_states) - 1,
                "terminal values are not related by elaboration",
            )
    return report("agree")


SOUNDNESS_SAMPLE = 5  # soundness_trial re-checks every 5th source state


def soundness_trial(trial: Trial, clause_budget: int = DEFAULT_CLAUSE_BUDGET) -> str:
    """Accepted programs must run without getting stuck and stay accepted.

    Returns "pass", "vacuous" (the program is not accepted by phase 2), or a
    failure tag.
    """
    def accepted(w: TgtExpr) -> bool:
        return check_refined(w, clause_budget=clause_budget).accepted

    try:
        if not accepted(trial.elab.target):
            return "vacuous"
        if isinstance(trial.source[0], StuckAt):
            return "fail:stuck"
        for _, j in _witnesses(trial, SOUNDNESS_SAMPLE):
            if j is None:
                return "fail:preservation-witness"
            if not accepted(trial.target[2][j]):
                return "fail:preservation"
    except PhaseOrderError:
        return "fail:phase-order"
    return "pass"


# ---------------------------------------------------------------------------
# Assumption and canonical-form trials
# ---------------------------------------------------------------------------


def _prim_redexes(e: SrcExpr) -> list[tuple[Const, SrcExpr]]:
    """Applications of a primitive function to a value, in preorder."""
    return [
        (s.fn, s.arg)
        for s in syntax.subexprs(e)
        if isinstance(s, App) and isinstance(s.fn, Const) and s.fn.con.is_function
        and is_value(s.arg)
    ]


def assumption1_check(trial: Trial) -> list[str]:
    """Primitive application agrees between the languages for non-DEAD values."""
    violations: list[str] = []
    seen: set[tuple[str, str]] = set()
    elaborator = Elaborator(trial.search_depth)  # one memo for every argument
    try:
        for state in trial.source[2]:
            for c, v in _prim_redexes(state):
                key = (c.con.name, syntax.print_expr(v))
                if key in seen:
                    continue
                seen.add(key)
                dom = c.con.source_type.dom
                step = source_interp.step_source(App(c, v))
                if not isinstance(step, Stepped):
                    continue  # delta undefined: the assumption does not apply
                try:
                    w, _ = elaborator.check_expr({}, v, dom)
                except ElabError:
                    violations.append(f"{key}: argument does not elaborate at the domain")
                    continue
                if is_dead_value(normalize_admin(w)):
                    continue
                t_step = target_interp.step_target(App(c, w))
                if not isinstance(t_step, Stepped):
                    violations.append(f"{key}: target application does not step")
                    continue
                cod = c.con.source_type.cod
                if not elab_matches({}, step.next, cod, normalize_admin(t_step.next)):
                    violations.append(f"{key}: results are not related by elaboration")
    finally:
        elaborator.release()
    return violations


def canonical_forms_check(trial: Trial) -> list[str]:
    """Terminal target values at lambda/constant sources are the expected shapes."""
    violations: list[str] = []
    s_out, t_out = trial.source[0], trial.target[0]
    if not isinstance(s_out, Value) or not isinstance(t_out, Value):
        return violations
    v, w = s_out.value, trial.normalized[-1]
    if isinstance(v, Lam):
        ok = isinstance(w, Lam) or is_dead_value(w) or isinstance(w, TPair)
        if not ok:
            violations.append(f"lambda value elaborated to {type(w).__name__}")
    elif isinstance(v, Const):
        ok = (
            (isinstance(w, Const) and w.con == v.con)
            or is_dead_value(w)
            or isinstance(w, (TInj, TPair))
        )
        if not ok:
            violations.append(f"constant value elaborated to {type(w).__name__}")
    return violations


def substitution_spot_check(trial: Trial) -> list[str]:
    """Substitution commutes with elaboration along let reductions."""
    violations: list[str] = []
    tau = trial.elab.type
    for i, state in enumerate(trial.source[2]):
        if not isinstance(state, Let) or not is_value(state.bound):
            continue
        # Find the matching target state that is also a rooted let over a value.
        for wj in trial.normalized:
            if (
                isinstance(wj, Let)
                and is_value(wj.bound)
                and wj.name == state.name
                and elab_matches({}, state, tau, wj)
            ):
                reduced_src = subst(state.body, state.name, state.bound)
                reduced_tgt = subst(wj.body, wj.name, wj.bound)
                if not elab_matches({}, reduced_src, tau, normalize_admin(reduced_tgt)):
                    violations.append(f"substitution mismatch at source step {i}")
                break
    return violations


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------

DEAD_DENSITY = 0.12  # chance of a tag mismatch at each consumed position

_TT = PrimType(syntax.NUMBER, cmp_pred(LinTerm.of_var(VALUE_VAR), "!=", LinTerm.of_const(0)))
_FF = PrimType(syntax.NUMBER, cmp_pred(LinTerm.of_var(VALUE_VAR), "=", LinTerm.of_const(0)))


class _Gen:
    """Typed program generator.

    Every position asks for a base type or an arrow between base types.
    Unions enter only as ascribed let payloads (``let_in``), intersections
    only as the overloaded clone pairs that ``call`` binds and applies.

    Two flags discipline every position.  ``synth`` marks positions the
    elaborator will synthesize rather than check (let bindings, the top
    level, DEAD-cast bodies): no tag mismatch may sit at their root and no
    union variable may be consumed there.  ``pure`` marks positions whose
    runtime value can escape into a variable or an enclosing cast: such
    subtrees must produce plain values of their static tag, so casts are
    confined to consumed positions (primitive arguments, conditions).
    Violating the discipline would stack DEAD casts whose tags cancel, and
    the target would get stuck where the source runs on.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0
        self.union_arms: dict[str, int] = {}
        # Overloaded-call arguments must elaborate strictly so resolution
        # picks the intended clone, and union payloads must carry their arm's
        # tag at runtime so injection picks the faithful arm.  Both break if
        # the subtree consumes a union variable (one case branch always needs
        # a cast), so union machinery is suppressed at such positions.
        self.strict_depth = 0

    def name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def base_type(self) -> SrcType:
        return self.rng.choice([NUM, BOOL])

    def refined_num(self) -> SrcType:
        return self.rng.choice([NUM, _TT, _FF])

    def literal(self, tau: SrcType) -> SrcExpr:
        if types_equal_basic(tau, NUM):
            return Const(constants.int_const(self.rng.randint(-4, 4)))
        return Const(constants.bool_const(self.rng.random() < 0.5))

    def pick_var(self, env: Env, tau: SrcType) -> SrcExpr | None:
        options = [n for n, t in env.items() if types_equal_basic(t, tau)]
        if not options:
            return None
        return Var(self.rng.choice(sorted(options)))

    def union_arm_var(self, env: Env, tau: SrcType) -> SrcExpr | None:
        """A union variable whose recorded runtime arm is tau; using it at
        tau forces a case split whose taken branch is cast-free."""
        options = []
        for n, t in env.items():
            if isinstance(t, OrType) and n in self.union_arms:
                arm = t.left if self.union_arms[n] == 1 else t.right
                if types_equal_basic(arm, tau):
                    options.append(n)
        if not options:
            return None
        return Var(self.rng.choice(sorted(options)))

    def expr_at(self, env: Env, tau: SrcType, budget: int, synth: bool, pure: bool) -> SrcExpr:
        rng = self.rng
        if not synth and not pure and budget > 1 and rng.random() < DEAD_DENSITY:
            return self.expr_at(env, self.mismatched_type(tau), max(1, budget - 1), True, True)
        if budget <= 1:
            return self.leaf(env, tau, synth)
        roll = rng.random()
        if isinstance(tau, FunType):
            var = self.pick_var(env, tau)
            if var is not None and roll < 0.5:
                return var
            return self.function_at(env, tau, budget, pure)
        # base types
        if roll < 0.18:
            cond = self.bool_expr(env, budget // 3)
            half = max(1, (budget - 2) // 2)
            return If(cond, self.expr_at(env, tau, half, synth, pure),
                      self.expr_at(env, tau, half, synth, pure))
        if roll < 0.40:
            return self.let_in(env, tau, budget, synth, pure)
        if roll < 0.62:
            return self.call(env, tau, budget, pure)
        if roll < 0.72 and types_equal_basic(tau, NUM):
            op = rng.choice([constants.ADD, constants.SUB, constants.MUL])
            half = max(1, (budget - 2) // 2)
            # primitive arguments are consumed by delta, so casts may appear
            return App(App(Const(op), self.expr_at(env, NUM, half, False, False)),
                       self.expr_at(env, NUM, half, False, False))
        return self.leaf(env, tau, synth)

    def leaf(self, env: Env, tau: SrcType, synth: bool) -> SrcExpr:
        if (not synth and self.strict_depth == 0 and isinstance(tau, PrimType)
                and self.rng.random() < 0.5):
            split = self.union_arm_var(env, tau)
            if split is not None:
                return split
        var = self.pick_var(env, tau)
        if var is not None and self.rng.random() < 0.6:
            return var
        if isinstance(tau, PrimType):
            return self.literal(tau)
        return var if var is not None else self.function_at(env, tau, 4, True)

    def mismatched_type(self, tau: SrcType) -> SrcType:
        """A type whose tag set is disjoint from tau's, for DEAD injection."""
        return self.rng.choice([t for t in (NUM, BOOL, FunType(NUM, NUM)) if tags_disjoint(t, tau)])

    def bool_expr(self, env: Env, budget: int) -> SrcExpr:
        rng = self.rng
        if budget > 2 and rng.random() < 0.7:
            op = rng.choice([constants.LT, constants.LE, constants.EQ, constants.NE])
            half = max(1, (budget - 2) // 2)
            return App(App(Const(op), self.expr_at(env, NUM, half, False, False)),
                       self.expr_at(env, NUM, half, False, False))
        return self.expr_at(env, BOOL, 1, False, False)

    def let_in(self, env: Env, tau: SrcType, budget: int, synth: bool, pure: bool) -> SrcExpr:
        rng = self.rng
        x = self.name("x")
        roll = rng.random()
        if roll < 0.25 and self.strict_depth == 0:
            # union-typed binding; the actual arm is recorded so later case
            # splits take their cast-free branch at runtime
            arms = (NUM, BOOL) if rng.random() < 0.7 else (BOOL, NUM)
            union = OrType(*arms)
            k = 1 if rng.random() < 0.5 else 2
            arm = union.left if k == 1 else union.right
            self.strict_depth += 1
            try:
                payload = self.expr_at(env, arm, budget // 3, False, True)
            finally:
                self.strict_depth -= 1
            bound = Ascribe(payload, union)
            self.union_arms[x] = k
            body = self.expr_at({**env, x: union}, tau, budget - 3, synth, pure)
            return Let(x, bound, body)
        bound_ty = self.base_type() if roll < 0.8 else FunType(self.base_type(), self.base_type())
        if isinstance(bound_ty, FunType):
            bound: SrcExpr = self.function_at(env, bound_ty, budget // 3, True)
        else:
            # binding values escape into the environment, so they stay pure
            bound = Ascribe(self.expr_at(env, bound_ty, budget // 3, False, True), bound_ty)
        body = self.expr_at({**env, x: bound_ty}, tau, budget - budget // 3 - 1, synth, pure)
        return Let(x, bound, body)

    def function_at(self, env: Env, tau: FunType, budget: int, pure: bool) -> SrcExpr:
        """An ascribed lambda at an arrow."""
        x = self.name("p")
        body = self.expr_at({**env, x: tau.dom}, tau.cod, max(1, budget - 2), False, pure)
        return Ascribe(Lam(x, body), tau)

    def overloaded(self, env: Env, tau: AndType, budget: int) -> SrcExpr:
        """A guard-dispatched two-clone function in the style of overloaded
        numeric/boolean negation: \\p => \\q => if ne p 0 then ... else ..."""
        p, q = self.name("p"), self.name("q")
        inner_budget = max(1, (budget - 4) // 2)
        then_body, else_body = (
            self.expr_at({**env, p: NUM, q: conj.cod.dom}, conj.cod.cod, inner_budget, False, True)
            for conj in (tau.left, tau.right)
        )
        guard = App(App(Const(constants.NE), Var(p)), Const(constants.int_const(0)))
        lam = Lam(p, Lam(q, If(guard, then_body, else_body)))
        return Ascribe(lam, tau)

    def call(self, env: Env, tau: SrcType, budget: int, pure: bool) -> SrcExpr:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35 and budget >= 10 and not pure:
            # fresh overloaded function applied to a matching argument pair
            a_ty, b_ty = (NUM, BOOL) if rng.random() < 0.5 else (BOOL, NUM)
            g1, g2 = self.refined_num(), self.refined_num()
            over = AndType(FunType(g1, FunType(a_ty, tau)), FunType(g2, FunType(b_ty, tau)))
            f = self.name("f")
            fn = self.overloaded(env, over, budget // 2)
            pick_first = rng.random() < 0.5
            arg_ty = a_ty if pick_first else b_ty
            guard_val = rng.randint(0, 1)
            self.strict_depth += 1
            try:
                arg = self.expr_at(env, arg_ty, max(1, budget // 4), False, True)
            finally:
                self.strict_depth -= 1
            call = App(App(Var(f), Const(constants.int_const(guard_val))), arg)
            return Let(f, fn, call)
        # plain unary call: the argument binds to the parameter, so it stays
        # pure; the body's value is the call's value and inherits purity
        dom = self.base_type()
        fn = self.function_at(env, FunType(dom, tau), budget // 2, pure)
        arg = self.expr_at(env, dom, max(1, budget - budget // 2 - 1), False, True)
        return App(fn, arg)


def gen_program(seed: int, size_budget: int = 30) -> Program:
    """Deterministic per seed; the output always passes phase 1.

    The top level is synthesized, so the root is generated mismatch-free;
    DEAD casts appear in the checking positions beneath it.
    """
    rng = random.Random(seed)
    gen = _Gen(rng)
    top = gen.base_type() if size_budget > 1 else NUM
    main = gen.expr_at({}, top, size_budget, True, False)
    return Program((), syntax.uniquify(main))


# ---------------------------------------------------------------------------
# Shrinking and the fuzz loop
# ---------------------------------------------------------------------------


def _shrink_candidates(e: SrcExpr):
    match e:
        case Let(name, _, body) if name not in syntax.free_vars(body):
            yield body
        case Const(con) if constants.const_int_value(e) not in (None, 0):
            yield Const(constants.int_const(0))
        case _:
            pass
    for child, _ in syntax.SHAPES[type(e)][0]:
        for shrunk in _shrink_candidates(getattr(e, child)):
            yield syntax.rebuild(e, {child: shrunk})


def shrink_counterexample(trial: Trial, fuel: int) -> Trial:
    """The trial of a smallest program, by greedy shrinking, that still fails
    the lockstep check; candidates are elaborated at the trial's depth."""
    current = trial
    improved = True
    while improved:
        improved = False
        for candidate_main in _shrink_candidates(current.program.main):
            program = Program(current.program.type_aliases, candidate_main)
            try:
                candidate = run_trial(program, fuel, current.search_depth)
            except ElabError:
                continue
            if lockstep_check(candidate).verdict == "counterexample":
                current = candidate
                improved = True
                break
    return current


@dataclass
class FuzzStats:
    """Each trial's lockstep report, then the outcome counters in the order
    ``l2 fuzz`` prints them."""

    reports: list[DiffReport] = field(default_factory=list)
    counterexamples: int = 0
    inconclusive: int = 0
    assumption1_violations: int = 0
    canonical_violations: int = 0
    substitution_violations: int = 0
    soundness_failures: int = 0
    accepted: int = 0

    @property
    def counters(self) -> dict[str, int]:
        """Every field after ``reports``, in order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}


def run_fuzz(
    trials: int,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
    size_budget: int = 30,
    check_soundness: bool = True,
    shrink: bool = False,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
) -> FuzzStats:
    stats = FuzzStats()
    for i in range(trials):
        trial = run_trial(gen_program(seed + i, size_budget), fuel, search_depth)
        report = lockstep_check(trial)
        if report.verdict == "counterexample" and shrink:
            trial = shrink_counterexample(trial, fuel)
            report = lockstep_check(trial)
        stats.reports.append(report)
        stats.counterexamples += report.verdict == "counterexample"
        stats.inconclusive += report.verdict == "inconclusive"
        stats.assumption1_violations += len(assumption1_check(trial))
        stats.canonical_violations += len(canonical_forms_check(trial))
        stats.substitution_violations += len(substitution_spot_check(trial))
        if check_soundness:
            verdict = soundness_trial(trial, clause_budget)
            stats.accepted += verdict == "pass"
            stats.soundness_failures += verdict.startswith("fail")
    return stats
