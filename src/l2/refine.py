"""Phase 2: refinement checking of target terms.

The checker walks elaborator output, synthesizing refinement types and
emitting subtyping obligations as verification conditions.  DEAD casts are
discharged as calls to a function whose domain refinement is false, so the
obligation is provable exactly when the surrounding environment is
inconsistent, which is what "this cast is dead code" means.

Obligations that hold for purely structural reasons (a true consequent, a
false antecedent or hypothesis) are not reported; they carry no content.
Dependent application results substitute the argument into the codomain only
when the argument lies in the logical fragment; anything else is bound to a
fresh ghost name carrying the argument's synthesized type.

Refinement types decorate phase 1's basic types: ``target.strip`` maps one
back onto its basic type (``syntax.erase_refinements`` of the source type it
was translated from), which the skeleton check before refinement checking
and every subtyping obligation compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import constants
from .logic import (
    BVar,
    DEFAULT_CLAUSE_BUDGET,
    LinTerm,
    PAtom,
    PBool,
    Pred,
    TRUE,
    VALUE_VAR,
    VC,
    Verdict,
    cmp_pred,
    is_tautology,
    is_true,
    piff,
    pnot,
    por,
    subst_pred,
    valid,
)
from .syntax import BOOLEAN, FunType, NUMBER, Pos, SrcType, print_type, tags_disjoint
from .target import (
    IllTyped,
    RBase,
    RFun,
    RProd,
    RSum,
    RefType,
    TApp,
    TCase,
    TConst,
    TDead,
    TIf,
    TInj,
    TLam,
    TLet,
    TPair,
    TProj,
    TVar,
    TgtExpr,
    elab_type,
    fbot,
    simple_typecheck,
    strip,
)


class PhaseOrderError(Exception):
    """Raised when refinement checking is attempted on an ill-typed skeleton."""


class ShapeMismatch(Exception):
    """Subtyping was asked to relate types with different erased skeletons."""


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class RefEnv:
    """A refinement environment: binders and guards over a shared parent frame.

    ``bind`` and ``guard`` add one frame each and copy nothing.  A base
    binder's hypothesis (its refinement with the value variable replaced by
    the binder's name) is substituted once, when it is bound, so building a
    VC reads the hypotheses off the frames instead of substituting into every
    binder again.  Lookups walk outwards to the nearest binder of the name.
    """

    __slots__ = ("parent", "name", "ty", "hyp")

    def __init__(self, parent: RefEnv | None = None, name: str | None = None,
                 ty: RefType | None = None, hyp: Pred | None = None):
        self.parent = parent
        self.name = name  # None for a guard
        self.ty = ty
        self.hyp = hyp  # None for a binder that carries no hypothesis

    def bind(self, name: str, ty: RefType) -> RefEnv:
        hyp = None
        if isinstance(ty, RBase):
            repl: object = LinTerm.of_var(name) if ty.base == NUMBER else name
            hyp = subst_pred(ty.refinement, VALUE_VAR, repl)
        return RefEnv(self, name, ty, hyp)

    def guard(self, pred: Pred) -> RefEnv:
        return RefEnv(self, None, None, pred)

    def _frames(self):
        """Frames from the innermost outwards."""
        env = self
        while env.parent is not None:
            yield env
            env = env.parent

    def lookup(self, name: str) -> RefType:
        for frame in self._frames():
            if frame.name == name:
                return frame.ty
        raise KeyError(name)

    def flatten(self) -> tuple[Pred, ...]:
        """Hypotheses: binder refinements with the value variable replaced by
        the binder name, plus guard predicates, in binding order."""
        return tuple(reversed([f.hyp for f in self._frames() if f.hyp is not None]))

    def base_names(self) -> tuple[str, ...]:
        return tuple(reversed([f.name for f in self._frames() if isinstance(f.ty, RBase)]))

    def sort_of(self, name: str) -> str | None:
        try:
            t = self.lookup(name)
        except KeyError:
            return None
        return t.base if isinstance(t, RBase) else None

    def erased(self) -> dict[str, SrcType]:
        """Each binder's basic type, as phase 1 assigns it."""
        frames = [f for f in self._frames() if f.name is not None]
        return {f.name: strip(f.ty) for f in reversed(frames)}


# ---------------------------------------------------------------------------
# Helper meta-functions
# ---------------------------------------------------------------------------


def selfify(t: RefType, x: str) -> RefType:
    """A variable occurrence is typed at {b | v = x} for base types."""
    match t:
        case RBase(NUMBER, _):
            return RBase(NUMBER, cmp_pred(LinTerm.of_var(VALUE_VAR), "=", LinTerm.of_var(x)))
        case RBase(BOOLEAN, _):
            return RBase(BOOLEAN, piff(PAtom(BVar(VALUE_VAR)), PAtom(BVar(x))))
        case _:
            return t


def dead_type(from_ty: SrcType, to_ty: SrcType) -> RFun:
    """DEAD casts behave like calls to a function of type fbot(|t|) -> fbot(|s|)."""
    assert tags_disjoint(from_ty, to_ty), "DEAD cast over overlapping tags"
    return RFun("$dead", fbot(elab_type(from_ty)), fbot(elab_type(to_ty)))


def subst_ref(t: RefType, name: str, repl) -> RefType:
    match t:
        case RBase(base, refinement):
            return RBase(base, subst_pred(refinement, name, repl))
        case RFun(binder, dom, cod):
            dom2 = subst_ref(dom, name, repl)
            if binder == name:
                return RFun(binder, dom2, cod)
            return RFun(binder, dom2, subst_ref(cod, name, repl))
        case RSum(left, right):
            return RSum(subst_ref(left, name, repl), subst_ref(right, name, repl))
        case RProd(left, right):
            return RProd(subst_ref(left, name, repl), subst_ref(right, name, repl))
    raise TypeError(f"not a refinement type: {t!r}")


def rename_binder(t: RFun, new_name: str) -> RFun:
    """Rename an arrow binder; used to align annotations with program names."""
    if t.binder == new_name:
        return t
    numeric = isinstance(t.dom, RBase) and t.dom.base == NUMBER
    repl: object = LinTerm.of_var(new_name) if numeric else new_name
    return RFun(new_name, t.dom, subst_ref(t.cod, t.binder, repl))


# ---------------------------------------------------------------------------
# Term embedding into the logical fragment
# ---------------------------------------------------------------------------

_ARITH = ("add", "sub", "mul")

_CMP_SYM = {"lt": "<", "le": "<=", "eq": "=", "ne": "!="}


def embed_term(w: TgtExpr, env: RefEnv) -> LinTerm | bool | str | None:
    """Embed a target term as a linear integer term or boolean, if possible."""
    match w:
        case TConst():
            k = constants.const_int_value(w)
            if k is not None:
                return LinTerm.of_const(k)
            b = constants.const_bool_value(w)
            if b is not None:
                return b
            return None
        case TVar(name):
            sort = env.sort_of(name)
            if sort == NUMBER:
                return LinTerm.of_var(name)
            if sort == BOOLEAN:
                return name
            return None
        case TApp():
            operands = _linear_operands(w, env, _ARITH)
            return None if operands is None else _combine(*operands)
        case _:
            return None


def _linear_operands(w: TApp, env: RefEnv, ops) -> tuple[str, LinTerm, LinTerm] | None:
    """(op, a, b) for ``op a b``, or for ``op`` partially applied to the
    literal a and then to b, when op is one of ops and both operands embed
    as linear terms; else None."""
    match w:
        case TApp(TApp(TConst(con), a), b) if con.name in ops:
            op, ta = con.name, embed_term(a, env)
        case TApp(TConst(con), b) if con.partial is not None and con.partial[0] in ops:
            op, ta = con.partial[0], LinTerm.of_const(con.partial[1])
        case _:
            return None
    tb = embed_term(b, env)
    if isinstance(ta, LinTerm) and isinstance(tb, LinTerm):
        return op, ta, tb
    return None


def _combine(op: str, a: LinTerm, b: LinTerm) -> LinTerm | None:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if a.is_const():
        return b.scale(a.const)
    if b.is_const():
        return a.scale(b.const)
    return None


def embed_guard(w: TgtExpr, env: RefEnv | None = None) -> tuple[Pred, bool]:
    """Embed a boolean target expression as a predicate.

    Returns (pred, exact).  Comparisons of linear terms and bare boolean
    variables embed exactly; anything else weakens to true, and its negation
    must also weaken to true, which is why exactness is reported.
    """
    env = env or RefEnv()
    match w:
        case TVar(name):
            if env.sort_of(name) in (BOOLEAN, None):
                return PAtom(BVar(name)), True
        case TConst():
            b = constants.const_bool_value(w)
            if b is not None:
                return PBool(b), True
        case TApp():
            operands = _linear_operands(w, env, _CMP_SYM)
            if operands is not None:
                op, ta, tb = operands
                return cmp_pred(ta, _CMP_SYM[op], tb), True
    return TRUE, False


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------


def _obligations(env: RefEnv, t1: RefType, t2: RefType, origin: str):
    """Decompose t1 <: t2 into base-type obligations (env, antecedent,
    consequent, origin), in order, before any hypothesis is built.  Arrows
    are contravariant in the domain and covariant in the codomain with the
    binder pushed into scope; sums and products decompose componentwise."""
    if strip(t1) != strip(t2):
        raise ShapeMismatch(f"{print_type(strip(t1))} vs {print_type(strip(t2))}")
    match (t1, t2):
        case (RBase(_, p1), RBase(_, p2)):
            yield env, p1, p2, origin
        case (RFun() as f1, RFun() as f2):
            yield from _obligations(env, f2.dom, f1.dom, origin + " (domain)")
            f1r = rename_binder(f1, f2.binder)
            inner = env.bind(f2.binder, f2.dom)
            yield from _obligations(inner, f1r.cod, f2.cod, origin + " (codomain)")
        case (RSum() as s1, RSum() as s2):
            yield from _obligations(env, s1.left, s2.left, origin)
            yield from _obligations(env, s1.right, s2.right, origin)
        case (RProd() as p1, RProd() as p2):
            yield from _obligations(env, p1.left, p2.left, origin)
            yield from _obligations(env, p1.right, p2.right, origin)
        case _:
            raise ShapeMismatch(f"{t1!r} vs {t2!r}")


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    type: RefType
    vcs: tuple[VC, ...]
    verdicts: tuple[Verdict, ...] | None

    @property
    def accepted(self) -> bool:
        if self.verdicts is None:
            raise ValueError("report was built without discharging VCs")
        return all(v.is_valid for v in self.verdicts)

    def failures(self) -> list[tuple[VC, Verdict]]:
        assert self.verdicts is not None
        return [(vc, v) for vc, v in zip(self.vcs, self.verdicts) if not v.is_valid]


class RefChecker:
    def __init__(self) -> None:
        self.vcs: list[VC] = []
        self._ghosts = 0

    def _ghost(self) -> str:
        self._ghosts += 1
        return f"$g{self._ghosts}"

    def emit(self, env: RefEnv, t1: RefType, t2: RefType, origin: str) -> None:
        for env2, p1, p2, origin2 in _obligations(env, t1, t2, origin):
            if is_true(p2):
                continue  # a tautology; skip building its hypotheses
            vc = VC(env2.flatten(), p1, p2, origin2, env2.base_names())
            if not is_tautology(vc):
                self.vcs.append(vc)

    # -- synthesis -----------------------------------------------------------

    def synth(self, env: RefEnv, w: TgtExpr) -> tuple[RefType, RefEnv]:
        match w:
            case TConst(con):
                return constants.ty(con), env
            case TVar(name):
                try:
                    t = env.lookup(name)
                except KeyError:
                    raise PhaseOrderError(f"unbound variable {name}") from None
                return selfify(t, name), env
            case TLam(param, body, src_ann):
                if not isinstance(src_ann, FunType):
                    raise PhaseOrderError("lambda without an arrow annotation")
                ann = rename_binder(elab_type(src_ann), param)
                inner = env.bind(param, ann.dom)
                self.check_at(inner, body, ann.cod, _origin("function body", w.pos))
                return ann, env
            case TApp(fn, arg):
                return self._synth_app(env, w)
            case TLet(name, bound, body):
                t1, env = self.synth(env, bound)
                env = env.bind(name, t1)
                return self.synth(env, body)
            case TIf(cond, then, els):
                tc, env = self.synth(env, cond)
                guard, exact = embed_guard(cond, env)
                env_t = env.guard(guard) if exact else env
                env_e = env.guard(pnot(guard)) if exact else env
                t_then, env_t2 = self.synth(env_t, then)
                t_else, env_e2 = self.synth(env_e, els)
                return self._join(env_e2, t_then, t_else, _origin("branch join", w.pos)), env
            case TPair(a, b):
                ta, _ = self.synth(env, a)
                tb, _ = self.synth(env, b)
                return RProd(ta, tb), env
            case TProj(index, t):
                tt, env = self.synth(env, t)
                if not isinstance(tt, RProd):
                    raise PhaseOrderError("projection from a non-product")
                return (tt.left if index == 1 else tt.right), env
            case TInj(index, payload, src_ann):
                if src_ann is None:
                    raise PhaseOrderError("injection without a union annotation")
                sum_ty = elab_type(src_ann)
                assert isinstance(sum_ty, RSum)
                tp, env = self.synth(env, payload)
                arm = sum_ty.left if index == 1 else sum_ty.right
                self.emit(env, tp, arm, _origin("injection", w.pos))
                return sum_ty, env
            case TCase(scrut, x1, b1, x2, b2):
                ts, env = self.synth(env, scrut)
                if not isinstance(ts, RSum):
                    raise PhaseOrderError("case over a non-sum")
                t1, _ = self.synth(env.bind(x1, ts.left), b1)
                t2, env_b2 = self.synth(env.bind(x2, ts.right), b2)
                return self._join(env_b2, t1, t2, _origin("case join", w.pos)), env
            case TDead(from_ty, to_ty, inner):
                ti, env = self.synth(env, inner)
                dt = dead_type(from_ty, to_ty)
                self.emit(env, ti, dt.dom, _origin("dead-cast", w.pos))
                return dt.cod, env
        raise TypeError(f"not a target expression: {w!r}")

    def _synth_app(self, env: RefEnv, w: TApp) -> tuple[RefType, RefEnv]:
        tf, env = self.synth(env, w.fn)
        if not isinstance(tf, RFun):
            raise PhaseOrderError("application of a non-function")
        ta, env = self.synth(env, w.arg)
        self.emit(env, ta, tf.dom, _origin("argument", w.pos))
        if isinstance(tf.dom, RBase):
            repl = embed_term(w.arg, env)
            if repl is None:
                ghost = self._ghost()
                env = env.bind(ghost, ta)
                repl = LinTerm.of_var(ghost) if tf.dom.base == NUMBER else ghost
            return subst_ref(tf.cod, tf.binder, repl), env
        return tf.cod, env

    def _join(self, env: RefEnv, t1: RefType, t2: RefType, origin: str) -> RefType:
        if t1 == t2:
            return t1
        if isinstance(t1, RBase) and isinstance(t2, RBase) and t1.base == t2.base:
            return RBase(t1.base, por([t1.refinement, t2.refinement]))
        # Structured types must agree; require the second branch below the first.
        self.emit(env, t2, t1, origin)
        return t1

    # -- checking against an expected type -------------------------------------

    def check_at(self, env: RefEnv, w: TgtExpr, expected: RefType, origin: str) -> RefEnv:
        match w:
            case TLet(name, bound, body):
                t1, env = self.synth(env, bound)
                env = env.bind(name, t1)
                return self.check_at(env, body, expected, origin)
            case TIf(cond, then, els):
                tc, env = self.synth(env, cond)
                guard, exact = embed_guard(cond, env)
                env_t = env.guard(guard) if exact else env
                env_e = env.guard(pnot(guard)) if exact else env
                self.check_at(env_t, then, expected, origin)
                self.check_at(env_e, els, expected, origin)
                return env
            case TCase(scrut, x1, b1, x2, b2):
                ts, env = self.synth(env, scrut)
                if not isinstance(ts, RSum):
                    raise PhaseOrderError("case over a non-sum")
                self.check_at(env.bind(x1, ts.left), b1, expected, origin)
                self.check_at(env.bind(x2, ts.right), b2, expected, origin)
                return env
            case TPair(a, b) if isinstance(expected, RProd):
                self.check_at(env, a, expected.left, origin)
                self.check_at(env, b, expected.right, origin)
                return env
            case _:
                t, env2 = self.synth(env, w)
                self.emit(env2, t, expected, origin)
                return env2


def _origin(kind: str, pos: Pos) -> str:
    if pos is None:
        return kind
    return f"{kind} at {pos[0]}:{pos[1]}"


def check_refined(
    env: RefEnv,
    w: TgtExpr,
    discharge: bool = True,
    clause_budget: int = DEFAULT_CLAUSE_BUDGET,
) -> CheckReport:
    """Run refinement checking over a well-typed target term.

    The skeleton is validated first; refinement checking on an ill-typed
    term is a pipeline misuse, reported as PhaseOrderError.
    """
    try:
        simple_typecheck(env.erased(), w)
    except IllTyped as exc:
        raise PhaseOrderError(str(exc)) from exc
    checker = RefChecker()
    result_ty, _ = checker.synth(env, w)
    vcs = tuple(checker.vcs)
    memo: dict = {}  # shared by this check's valid() calls
    verdicts = tuple(valid(vc, clause_budget, memo) for vc in vcs) if discharge else None
    return CheckReport(result_ty, vcs, verdicts)
