"""Target language: terms and simple type checking.

The target is the source core (constants, variables, lambdas, application,
let and if, the classes of ``syntax``) plus what elaboration introduces:
intersections elaborate to products (``TPair``, ``TProj``), unions to tagged
sums (``TInj``, ``TCase``), and trust obligations appear as DEAD casts
(``TDead``).  Elaboration also records on each lambda the arrow it was
checked against (``Lam.src_ann``).  The target's simple types are phase 1's
basic types (refinement-erased source types, reading a product as an
intersection and a sum as a union), which the simple type checker that
validates elaborator output computes and compares.  The five target classes
declare their shapes, values and concrete syntax with ``syntax.shape``, so
the value test, substitution, free variables, the other term walkers and the
printer are the source language's.  A pair is a value whatever its
components; an injection or a DEAD cast is one when its payload or body is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax
from .syntax import (
    AndType,
    App,
    Const,
    FunType,
    If,
    Lam,
    Let,
    OrType,
    Pos,
    SrcType,
    Var,
    erase_refinements,
    shape,
)


# ---------------------------------------------------------------------------
# Target terms
# ---------------------------------------------------------------------------

# The source core is declared once, in ``syntax``; ``perfbench/tracer.py`` and
# the tests import it from here under these names.
TConst, TVar, TLam, TLet, TIf, TApp = Const, Var, Lam, Let, If, App


@shape("first", "second", value=True, show="({first:0}, {second:0})")
@dataclass(frozen=True)
class TPair:
    first: TgtExpr
    second: TgtExpr
    pos: Pos = field(default=None, compare=False)


@shape("tuple_", evaluated=1, show="proj{index}({tuple_:0})")
@dataclass(frozen=True)
class TProj:
    index: int  # 1 | 2
    tuple_: TgtExpr
    pos: Pos = field(default=None, compare=False)


@shape("payload", evaluated=1, value="payload", show="inj{index}({payload:0})")
@dataclass(frozen=True)
class TInj:
    index: int  # 1 | 2
    payload: TgtExpr
    src_ann: SrcType | None = None  # the full union type
    pos: Pos = field(default=None, compare=False)


@shape("scrutinee", ("branch1", "var1"), ("branch2", "var2"), evaluated=1,
       show="case {scrutinee:0} of {var1} => {branch1:0} | {var2} => {branch2:0}", loosest=0)
@dataclass(frozen=True)
class TCase:
    scrutinee: TgtExpr
    var1: str
    branch1: TgtExpr
    var2: str
    branch2: TgtExpr
    pos: Pos = field(default=None, compare=False)


@shape("inner", evaluated=1, value="inner",
       show="DEAD[{from_ty:0} => {to_ty:0}]({inner:0})")
@dataclass(frozen=True)
class TDead:
    from_ty: SrcType
    to_ty: SrcType
    inner: TgtExpr
    pos: Pos = field(default=None, compare=False)


TgtExpr = Const | Var | Lam | If | App | Let | TPair | TProj | TInj | TCase | TDead


def is_dead_value(w: TgtExpr) -> bool:
    return isinstance(w, TDead) and syntax.is_value(w.inner)


# ---------------------------------------------------------------------------
# Simple type checking of elaborator output
# ---------------------------------------------------------------------------


class IllTyped(Exception):
    def __init__(self, node: TgtExpr, expected: object, actual: object):
        self.node = node
        self.expected = expected
        self.actual = actual
        super().__init__(f"ill-typed target node: expected {expected}, got {actual}")


def simple_typecheck(env: dict[str, SrcType], w: TgtExpr) -> SrcType:
    """Simply-typed checking over phase 1's basic types
    (``syntax.erase_refinements``), a pair typed as an intersection and an
    injection as a union.

    A failure on elaborator output signals a bug in the first phase, not a
    problem with the checked program.  Binders extend ``env`` in place for
    their scope (``_scoped``), so no binder copies the environment.
    """
    match w:
        case Const(con):
            return con.source_type
        case Var(name):
            if name not in env:
                raise IllTyped(w, "bound variable", f"unbound {name}")
            return env[name]
        case Lam(param, body, src_ann):
            if not isinstance(src_ann, FunType):
                raise IllTyped(w, "annotated lambda", src_ann)
            arrow = erase_refinements(src_ann)
            _expect(w, arrow.cod, _scoped(env, param, arrow.dom, body))
            return arrow
        case If(c, t, f):
            _expect(w, syntax.BOOL, simple_typecheck(env, c))
            return _expect(w, simple_typecheck(env, t), simple_typecheck(env, f))
        case App(fn, arg):
            fn_ty = simple_typecheck(env, fn)
            if not isinstance(fn_ty, FunType):
                raise IllTyped(w, "function", fn_ty)
            _expect(w, fn_ty.dom, simple_typecheck(env, arg))
            return fn_ty.cod
        case Let(name, bound, body):
            return _scoped(env, name, simple_typecheck(env, bound), body)
        case TPair(a, b):
            return AndType(simple_typecheck(env, a), simple_typecheck(env, b))
        case TProj(index, t):
            t_ty = simple_typecheck(env, t)
            if not isinstance(t_ty, AndType):
                raise IllTyped(w, "product", t_ty)
            return t_ty.left if index == 1 else t_ty.right
        case TInj(index, payload, src_ann):
            if not isinstance(src_ann, OrType):
                raise IllTyped(w, "annotated injection", src_ann)
            sum_ty = erase_refinements(src_ann)
            _expect(w, sum_ty.left if index == 1 else sum_ty.right, simple_typecheck(env, payload))
            return sum_ty
        case TCase(s, x1, b1, x2, b2):
            s_ty = simple_typecheck(env, s)
            if not isinstance(s_ty, OrType):
                raise IllTyped(w, "sum", s_ty)
            return _expect(w, _scoped(env, x1, s_ty.left, b1), _scoped(env, x2, s_ty.right, b2))
        case TDead(from_ty, to_ty, inner):
            _expect(w, erase_refinements(from_ty), simple_typecheck(env, inner))
            return erase_refinements(to_ty)
    raise TypeError(f"not a target expression: {w!r}")


def _expect(w: TgtExpr, expected: SrcType, actual: SrcType) -> SrcType:
    """actual, when it is the type expected at w."""
    if actual != expected:
        raise IllTyped(w, expected, actual)
    return actual


def _scoped(env: dict[str, SrcType], name: str, ty: SrcType, body: TgtExpr) -> SrcType:
    """Type ``body`` with ``name`` bound to ``ty``, then restore ``env``."""
    outer = env.get(name)
    env[name] = ty
    try:
        return simple_typecheck(env, body)
    finally:
        if outer is None:
            del env[name]
        else:
            env[name] = outer


print_target = syntax.print_expr  # one printer, from the shapes, for both term languages
