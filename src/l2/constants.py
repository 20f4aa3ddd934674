"""Primitive constants: refined types and curried semantics.

Each constant states its refined type once; phase 1 reads its erasure,
``PrimConst.source_type``.  Application of a binary primitive to its first
argument yields a derived constant (for example ``add`` applied to 1 yields
``add@1``) whose delta finishes the job.  It records the operator and
literal as ``partial`` (``("add", 1)``), so no other module reads them from
its name.  The derived constant's refined type is exact and linear, which is
what makes ``mul`` usable: the outer ``mul`` type promises nothing, but
``mul@k`` records multiplication by the known literal k.
"""

from __future__ import annotations

from functools import lru_cache

from .logic import (
    BVar,
    LinTerm,
    PAtom,
    Pred,
    TRUE,
    VALUE_VAR,
    cmp_pred,
    piff,
    pnot,
)
from .syntax import BOOLEAN, Const, FunType, NUM, NUMBER, PrimConst, PrimType, SrcExpr
from .target import TConst, TgtExpr

_NU = LinTerm.of_var(VALUE_VAR)


def _num(ref: Pred = TRUE) -> PrimType:
    return PrimType(NUMBER, ref)


def _bool(ref: Pred = TRUE) -> PrimType:
    return PrimType(BOOLEAN, ref)


def _var(name: str) -> LinTerm:
    return LinTerm.of_var(name)


def _const_term(k: int) -> LinTerm:
    return LinTerm.of_const(k)


@lru_cache(maxsize=None)
def int_const(k: int) -> PrimConst:
    return PrimConst(str(k), _num(cmp_pred(_NU, "=", _const_term(k))))


TRUE_CONST = PrimConst("true", _bool(PAtom(BVar(VALUE_VAR))))
FALSE_CONST = PrimConst("false", _bool(pnot(PAtom(BVar(VALUE_VAR)))))


def bool_const(b: bool) -> PrimConst:
    return TRUE_CONST if b else FALSE_CONST


def const_int_value(e: SrcExpr | TgtExpr) -> int | None:
    """The integer of a source or target numeric literal, else None."""
    if isinstance(e, (Const, TConst)) and e.con.source_type == NUM and e.con.delta is None:
        try:
            return int(e.con.name)
        except ValueError:
            return None
    return None


def const_bool_value(e: SrcExpr | TgtExpr) -> bool | None:
    """The truth value of a source or target boolean literal, else None."""
    if isinstance(e, (Const, TConst)):
        if e.con == TRUE_CONST:
            return True
        if e.con == FALSE_CONST:
            return False
    return None


# Arithmetic: number -> number -> number


def _arith_stage2(op: str, k: int) -> PrimConst:
    """The derived constant ``op@k``: already applied to its first argument."""
    if op == "add":
        fn, ref = (lambda m: k + m), cmp_pred(_NU, "=", _const_term(k) + _var("$b"))
    elif op == "sub":
        fn, ref = (lambda m: k - m), cmp_pred(_NU, "=", _const_term(k) - _var("$b"))
    elif op == "mul":
        fn, ref = (lambda m: k * m), cmp_pred(_NU, "=", _var("$b").scale(k))
    else:
        raise ValueError(op)

    def delta(arg: SrcExpr) -> SrcExpr | None:
        m = const_int_value(arg)
        if m is None:
            return None
        return Const(int_const(fn(m)))

    return PrimConst(f"{op}@{k}", FunType(_num(), _num(ref), "$b"), delta, partial=(op, k))


@lru_cache(maxsize=None)
def arith_stage2(op: str, k: int) -> PrimConst:
    return _arith_stage2(op, k)


def _arith_const(op: str, exact: Pred | None) -> PrimConst:
    def delta(arg: SrcExpr) -> SrcExpr | None:
        k = const_int_value(arg)
        if k is None:
            return None
        return Const(arith_stage2(op, k))

    cod = FunType(_num(), _num(exact if exact is not None else TRUE), "$b")
    return PrimConst(op, FunType(_num(), cod, "$a"), delta)


ADD = _arith_const("add", cmp_pred(_NU, "=", _var("$a") + _var("$b")))
SUB = _arith_const("sub", cmp_pred(_NU, "=", _var("$a") - _var("$b")))
# v = $a * $b is not linear, so the outer type of mul promises only a number;
# mul@k carries the exact linear refinement once the literal is known.
MUL = _arith_const("mul", None)


# Comparisons: number -> number -> boolean


_CMP_FNS = {
    "lt": ("<", lambda a, b: a < b),
    "le": ("<=", lambda a, b: a <= b),
    "eq": ("=", lambda a, b: a == b),
    "ne": ("!=", lambda a, b: a != b),
}


@lru_cache(maxsize=None)
def cmp_stage2(op: str, k: int) -> PrimConst:
    sym, fn = _CMP_FNS[op]

    def delta(arg: SrcExpr) -> SrcExpr | None:
        m = const_int_value(arg)
        if m is None:
            return None
        return Const(bool_const(fn(k, m)))

    ref = piff(PAtom(BVar(VALUE_VAR)), cmp_pred(_const_term(k), sym, _var("$b")))
    return PrimConst(f"{op}@{k}", FunType(_num(), _bool(ref), "$b"), delta, partial=(op, k))


def _cmp_const(op: str) -> PrimConst:
    sym, _ = _CMP_FNS[op]

    def delta(arg: SrcExpr) -> SrcExpr | None:
        k = const_int_value(arg)
        if k is None:
            return None
        return Const(cmp_stage2(op, k))

    ref = piff(PAtom(BVar(VALUE_VAR)), cmp_pred(_var("$a"), sym, _var("$b")))
    return PrimConst(op, FunType(_num(), FunType(_num(), _bool(ref), "$b"), "$a"), delta)


LT = _cmp_const("lt")
LE = _cmp_const("le")
EQ = _cmp_const("eq")
NE = _cmp_const("ne")


def _not_delta(arg: SrcExpr) -> SrcExpr | None:
    b = const_bool_value(arg)
    if b is None:
        return None
    return Const(bool_const(not b))


_NOT_REF = piff(PAtom(BVar(VALUE_VAR)), pnot(PAtom(BVar("$a"))))
NOT = PrimConst("not", FunType(_bool(), _bool(_NOT_REF), "$a"), _not_delta)


NAMED_CONSTANTS: dict[str, PrimConst] = {
    c.name: c for c in (TRUE_CONST, FALSE_CONST, ADD, SUB, MUL, LT, LE, EQ, NE, NOT)
}


def delta_apply(c: PrimConst, v: SrcExpr | TgtExpr) -> SrcExpr | None:
    """delta(c, v) for a source or target value v; None when undefined for
    this constant and argument."""
    if c.delta is None:
        return None
    return c.delta(v)
