"""Phase 2: refinement checking of target terms.

The checker walks elaborator output with one bidirectional walker,
``RefChecker.synth``.  It synthesizes a refinement type; given an expected
type, it checks against it instead, pushing the type into let bodies,
branches and pair components and emitting a subtyping obligation, as
verification conditions, for every other form.  DEAD casts are discharged
as calls to a function whose domain refinement is false, so the obligation
is provable exactly when the surrounding environment is inconsistent, which
is what "this cast is dead code" means.

Obligations that hold for purely structural reasons (a true consequent, a
false antecedent or hypothesis) are not reported; they carry no content.
Dependent application results substitute the argument into the codomain only
when the argument lies in the logical fragment; anything else is bound to a
fresh ghost name carrying the argument's synthesized type.

A refinement type is a phase-1 type whose arrows name their arguments:
``elab_type`` gives an annotation's arrows fresh binders, and from here on
an intersection is read as a product and a union as a sum.  Its erasure
(``syntax.erase_refinements``) is the basic type phase 1 assigns, which the
skeleton check before refinement checking and every subtyping obligation
compare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import constants
from .logic import (
    BVar,
    Cmp,
    DEFAULT_CLAUSE_BUDGET,
    FALSE,
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
    pnot,
    por,
    subst_pred,
    valid,
)
from .syntax import (
    AndType,
    BOOLEAN,
    FunType,
    NUMBER,
    OrType,
    Pos,
    PrimType,
    SrcType,
    erase_refinements,
    print_type,
    tags_disjoint,
)
from .target import (
    IllTyped,
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
    simple_typecheck,
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
                 ty: SrcType | None = None, hyp: Pred | None = None):
        self.parent = parent
        self.name = name  # None for a guard
        self.ty = ty
        self.hyp = hyp  # None for a binder that carries no hypothesis

    def bind(self, name: str, ty: SrcType) -> RefEnv:
        hyp = None
        if isinstance(ty, PrimType):
            hyp = subst_pred(ty.refinement, VALUE_VAR, LinTerm.of_var(name))
        return RefEnv(self, name, ty, hyp)

    def guard(self, pred: Pred) -> RefEnv:
        return RefEnv(self, None, None, pred)

    def _frames(self):
        """Frames from the innermost outwards."""
        env = self
        while env.parent is not None:
            yield env
            env = env.parent

    def lookup(self, name: str) -> SrcType:
        for frame in self._frames():
            if frame.name == name:
                return frame.ty
        raise KeyError(name)

    def flatten(self) -> tuple[Pred, ...]:
        """Hypotheses: binder refinements with the value variable replaced by
        the binder name, plus guard predicates, in binding order."""
        return tuple(reversed([f.hyp for f in self._frames() if f.hyp is not None]))

    def number_names(self) -> tuple[str, ...]:
        """The names bound at a number type, in binding order."""
        frames = [f for f in self._frames() if isinstance(f.ty, PrimType) and f.ty.base == NUMBER]
        return tuple(reversed([f.name for f in frames]))

    def sort_of(self, name: str) -> str | None:
        try:
            t = self.lookup(name)
        except KeyError:
            return None
        return t.base if isinstance(t, PrimType) else None

    def erased(self) -> dict[str, SrcType]:
        """Each binder's basic type, as phase 1 assigns it."""
        frames = [f for f in self._frames() if f.name is not None]
        return {f.name: erase_refinements(f.ty) for f in reversed(frames)}


# ---------------------------------------------------------------------------
# Helper meta-functions
# ---------------------------------------------------------------------------


def elab_type(t: SrcType) -> SrcType:
    """t with a fresh binder on every arrow, ``$d1``, ``$d2``, ... in preorder.

    The names are reserved, so they cannot collide with program variables.
    """
    return _name_arrows(t, itertools.count(1))


def _name_arrows(t: SrcType, counter: Iterator[int]) -> SrcType:
    match t:
        case PrimType():
            return t
        case FunType(dom, cod):
            binder = f"$d{next(counter)}"
            return FunType(_name_arrows(dom, counter), _name_arrows(cod, counter), binder)
        case AndType(left, right) | OrType(left, right):
            return type(t)(_name_arrows(left, counter), _name_arrows(right, counter))
    raise TypeError(f"not a type: {t!r}")


def ftx(t: SrcType, r: Pred) -> SrcType:
    """Replace every base refinement with r, negating across arrow domains."""
    match t:
        case PrimType(base):
            return PrimType(base, r)
        case FunType(dom, cod, binder):
            return FunType(ftx(dom, pnot(r)), ftx(cod, r), binder)
        case AndType(left, right) | OrType(left, right):
            return type(t)(ftx(left, r), ftx(right, r))
    raise TypeError(f"not a type: {t!r}")


def fbot(t: SrcType) -> SrcType:
    return ftx(t, FALSE)


def selfify(t: SrcType, x: str) -> SrcType:
    """A variable occurrence of a base type is typed at {v = x}.

    For a boolean the equation is exact too: the logic reads a boolean as the
    integer 1 or 0, so v = x says v <=> x.
    """
    if isinstance(t, PrimType):
        return PrimType(t.base, cmp_pred(LinTerm.of_var(VALUE_VAR), "=", LinTerm.of_var(x)))
    return t


def dead_type(from_ty: SrcType, to_ty: SrcType) -> FunType:
    """DEAD casts behave like calls to a function of type fbot(|t|) -> fbot(|s|)."""
    assert tags_disjoint(from_ty, to_ty), "DEAD cast over overlapping tags"
    return FunType(fbot(elab_type(from_ty)), fbot(elab_type(to_ty)), "$dead")


def subst_ref(t: SrcType, name: str, repl: LinTerm) -> SrcType:
    match t:
        case PrimType(base, refinement):
            return PrimType(base, subst_pred(refinement, name, repl))
        case FunType(dom, cod, binder):
            if binder != name:
                cod = subst_ref(cod, name, repl)
            return FunType(subst_ref(dom, name, repl), cod, binder)
        case AndType(left, right) | OrType(left, right):
            return type(t)(subst_ref(left, name, repl), subst_ref(right, name, repl))
    raise TypeError(f"not a type: {t!r}")


def rename_binder(t: FunType, new_name: str) -> FunType:
    """Rename an arrow binder; used to align annotations with program names."""
    if t.binder == new_name:
        return t
    return FunType(t.dom, subst_ref(t.cod, t.binder, LinTerm.of_var(new_name)), new_name)


def print_ref_type(t: SrcType) -> str:
    """Each arrow with its binder, a union as a sum (+), an intersection as a
    product (*)."""
    return _print_ref(t, 0)


def _print_ref(t: SrcType, prec: int) -> str:
    match t:
        case PrimType():
            return print_type(t)
        case FunType(dom, cod, binder):
            s = f"({binder}:{_print_ref(dom, 0)}) -> {_print_ref(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case OrType(left, right):
            s = f"{_print_ref(left, 2)} + {_print_ref(right, 2)}"
            return f"({s})" if prec > 1 else s
        case AndType(left, right):
            s = f"{_print_ref(left, 3)} * {_print_ref(right, 3)}"
            return f"({s})" if prec > 2 else s
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Term embedding into the logical fragment
# ---------------------------------------------------------------------------

def embed_term(w: TgtExpr, env: RefEnv) -> LinTerm | None:
    """Embed a target term as a linear integer term, if possible; a boolean
    is the integer 1 or 0."""
    match w:
        case TConst():
            k = constants.const_int_value(w)
            if k is not None:
                return LinTerm.of_const(k)
            b = constants.const_bool_value(w)
            return None if b is None else LinTerm.of_const(int(b))
        case TVar(name):
            return None if env.sort_of(name) is None else LinTerm.of_var(name)
        case TApp():
            r = _apply_binary(w, env)
            return r if isinstance(r, LinTerm) else None
        case _:
            return None


def _apply_binary(w: TApp, env: RefEnv) -> LinTerm | Cmp | None:
    """The meaning (``constants.BINARY``) of ``op a b``, or of ``op``
    partially applied to the literal a and then to b, at the embedded
    operands; None when w is neither or an operand does not embed."""
    match w:
        case TApp(TApp(TConst(con), a), b) if con.name in constants.BINARY:
            op, ta = con.name, embed_term(a, env)
        case TApp(TConst(con), b) if con.partial is not None:
            op, ta = con.partial[0], LinTerm.of_const(con.partial[1])
        case _:
            return None
    tb = embed_term(b, env)
    if ta is None or tb is None:
        return None
    return constants.BINARY[op](ta, tb)


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
            r = _apply_binary(w, env)
            if isinstance(r, Cmp):
                return PAtom(r), True
    return TRUE, False


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------


def _obligations(env: RefEnv, t1: SrcType, t2: SrcType, origin: str):
    """Decompose t1 <: t2 into base-type obligations (env, antecedent,
    consequent, origin), in order, before any hypothesis is built.  Arrows
    are contravariant in the domain and covariant in the codomain with the
    binder pushed into scope; sums and products decompose componentwise."""
    basic1, basic2 = erase_refinements(t1), erase_refinements(t2)
    if basic1 != basic2:
        raise ShapeMismatch(f"{print_type(basic1)} vs {print_type(basic2)}")
    match (t1, t2):
        case (PrimType(_, p1), PrimType(_, p2)):
            yield env, p1, p2, origin
        case (FunType() as f1, FunType() as f2):
            yield from _obligations(env, f2.dom, f1.dom, origin + " (domain)")
            f1r = rename_binder(f1, f2.binder)
            inner = env.bind(f2.binder, f2.dom)
            yield from _obligations(inner, f1r.cod, f2.cod, origin + " (codomain)")
        case (AndType(l1, r1), AndType(l2, r2)) | (OrType(l1, r1), OrType(l2, r2)):
            yield from _obligations(env, l1, l2, origin)
            yield from _obligations(env, r1, r2, origin)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    type: SrcType
    vcs: tuple[VC, ...]
    verdicts: tuple[Verdict, ...] | None

    @property
    def accepted(self) -> bool:
        if self.verdicts is None:
            raise ValueError("report was built without discharging VCs")
        return all(v.is_valid for v in self.verdicts)


class RefChecker:
    def __init__(self) -> None:
        self.vcs: list[VC] = []
        self._ghosts = 0

    def _ghost(self) -> str:
        self._ghosts += 1
        return f"$g{self._ghosts}"

    def emit(self, env: RefEnv, t1: SrcType, t2: SrcType, origin: str) -> None:
        for env2, p1, p2, origin2 in _obligations(env, t1, t2, origin):
            if is_true(p2):
                continue  # a tautology; skip building its hypotheses
            vc = VC(env2.flatten(), p1, p2, origin2, env2.number_names())
            if not is_tautology(vc):
                self.vcs.append(vc)

    # -- the walker ------------------------------------------------------------

    def synth(self, env: RefEnv, w: TgtExpr, expected: SrcType | None = None,
              origin: str = "") -> tuple[SrcType, RefEnv]:
        """w's type and the environment after it, which binds w's ghosts.

        With an expected type, w is checked against it instead: let, if, case
        and pair push it into their bodies, branches and components, and any
        other form emits its synthesized type's obligation, under ``origin``.
        """
        match w:
            case TLet(name, bound, body):
                t1, env = self.synth(env, bound)
                return self.synth(env.bind(name, t1), body, expected, origin)
            case TIf(cond, then, els):
                _, env = self.synth(env, cond)
                guard, exact = embed_guard(cond, env)
                env_t, env_e = (env.guard(guard), env.guard(pnot(guard))) if exact else (env, env)
                t1, _ = self.synth(env_t, then, expected, origin)
                t2, env_e = self.synth(env_e, els, expected, origin)
                if expected is None:
                    expected = self._join(env_e, t1, t2, _origin("branch join", w.pos))
                return expected, env
            case TCase(scrut, x1, b1, x2, b2):
                ts, env = self.synth(env, scrut)
                if not isinstance(ts, OrType):
                    raise PhaseOrderError("case over a non-sum")
                t1, _ = self.synth(env.bind(x1, ts.left), b1, expected, origin)
                t2, env_b2 = self.synth(env.bind(x2, ts.right), b2, expected, origin)
                if expected is None:
                    expected = self._join(env_b2, t1, t2, _origin("case join", w.pos))
                return expected, env
            case TPair(a, b):
                left, right = (None, None) if expected is None else (expected.left, expected.right)
                ta, _ = self.synth(env, a, left, origin)
                tb, _ = self.synth(env, b, right, origin)
                return AndType(ta, tb), env
        t, env = self._synth(env, w)
        if expected is not None:
            self.emit(env, t, expected, origin)
        return t, env

    def _synth(self, env: RefEnv, w: TgtExpr) -> tuple[SrcType, RefEnv]:
        match w:
            case TConst(con):
                return con.refined_type, env
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
                self.synth(env.bind(param, ann.dom), body, ann.cod,
                           _origin("function body", w.pos))
                return ann, env
            case TApp(fn, arg):
                tf, env = self.synth(env, fn)
                if not isinstance(tf, FunType):
                    raise PhaseOrderError("application of a non-function")
                ta, env = self.synth(env, arg)
                self.emit(env, ta, tf.dom, _origin("argument", w.pos))
                if isinstance(tf.dom, PrimType):
                    repl = embed_term(arg, env)
                    if repl is None:
                        ghost = self._ghost()
                        env = env.bind(ghost, ta)
                        repl = LinTerm.of_var(ghost)
                    return subst_ref(tf.cod, tf.binder, repl), env
                return tf.cod, env
            case TProj(index, t):
                tt, env = self.synth(env, t)
                if not isinstance(tt, AndType):
                    raise PhaseOrderError("projection from a non-product")
                return (tt.left if index == 1 else tt.right), env
            case TInj(index, payload, src_ann):
                if src_ann is None:
                    raise PhaseOrderError("injection without a union annotation")
                sum_ty = elab_type(src_ann)
                assert isinstance(sum_ty, OrType)
                tp, env = self.synth(env, payload)
                arm = sum_ty.left if index == 1 else sum_ty.right
                self.emit(env, tp, arm, _origin("injection", w.pos))
                return sum_ty, env
            case TDead(from_ty, to_ty, inner):
                ti, env = self.synth(env, inner)
                dt = dead_type(from_ty, to_ty)
                self.emit(env, ti, dt.dom, _origin("dead-cast", w.pos))
                return dt.cod, env
        raise TypeError(f"not a target expression: {w!r}")

    def _join(self, env: RefEnv, t1: SrcType, t2: SrcType, origin: str) -> SrcType:
        if t1 == t2:
            return t1
        if isinstance(t1, PrimType) and isinstance(t2, PrimType) and t1.base == t2.base:
            return PrimType(t1.base, por([t1.refinement, t2.refinement]))
        # Structured types must agree; require the second branch below the first.
        self.emit(env, t2, t1, origin)
        return t1


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
