"""Primitive constants: refined types and curried semantics.

Each constant states its refined type once; phase 1 reads its erasure,
``PrimConst.source_type``.  A binary primitive's meaning is stated once too,
in ``BINARY``, as a function of two linear terms: its outer refined type
applies it to the binders ``$a`` and ``$b``, and phase 2 types and embeds a
full application by applying it to the operands' terms (``result_type``).
Application to the first argument yields a derived constant (``add@1``, from
``stage2``) whose refined type applies the meaning to the literal and ``$b``
and whose delta evaluates it on the literal and a second one.  It records
the operator and literal as ``partial`` (``("add", 1)``), so no other module
reads them from its name.  ``mul``'s outer type promises nothing, as
``$a * $b`` is not linear, but a product with a known literal factor is
tracked: by ``mul@k``'s type and by phase 2's reading of ``mul x 2``.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable

from .logic import (
    BVar,
    Cmp,
    LinTerm,
    PAtom,
    Pred,
    TRUE,
    VALUE_VAR,
    cmp_pred,
    eval_atom,
    piff,
    pnot,
)
from .syntax import BOOLEAN, Const, FunType, NUM, NUMBER, PrimConst, PrimType, SrcExpr
from .target import TgtExpr

_NU = LinTerm.of_var(VALUE_VAR)


def _num(ref: Pred = TRUE) -> PrimType:
    return PrimType(NUMBER, ref)


def _bool(ref: Pred = TRUE) -> PrimType:
    return PrimType(BOOLEAN, ref)


@lru_cache(maxsize=None)
def int_const(k: int) -> PrimConst:
    return PrimConst(str(k), _num(cmp_pred(_NU, "=", LinTerm.of_const(k))))


TRUE_CONST = PrimConst("true", _bool(PAtom(BVar(VALUE_VAR))))
FALSE_CONST = PrimConst("false", _bool(pnot(PAtom(BVar(VALUE_VAR)))))


def bool_const(b: bool) -> PrimConst:
    return TRUE_CONST if b else FALSE_CONST


def const_int_value(e: SrcExpr | TgtExpr) -> int | None:
    """The integer of a source or target numeric literal, else None."""
    if isinstance(e, Const) and e.con.source_type == NUM and e.con.delta is None:
        try:
            return int(e.con.name)
        except ValueError:
            return None
    return None


def const_bool_value(e: SrcExpr | TgtExpr) -> bool | None:
    """The truth value of a source or target boolean literal, else None."""
    if isinstance(e, Const):
        if e.con == TRUE_CONST:
            return True
        if e.con == FALSE_CONST:
            return False
    return None


# Binary primitives: number -> number -> number or boolean


def _times(a: LinTerm, b: LinTerm) -> LinTerm | None:
    """a * b, linear only when a factor is a known constant."""
    if a.is_const():
        return b.scale(a.const)
    if b.is_const():
        return a.scale(b.const)
    return None


# Each binary primitive's one meaning, as a function of its operands' linear
# terms: a term for arithmetic, a comparison for a test, and None where the
# result is not linear.  The refined types, the deltas and phase 2's embedding
# of an application (``refine.embed_term``, ``embed_guard``) all apply it.
BINARY: dict[str, Callable[[LinTerm, LinTerm], LinTerm | Cmp | None]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": _times,
    "lt": lambda a, b: Cmp(a, "<", b),
    "le": lambda a, b: Cmp(a, "<=", b),
    "eq": lambda a, b: Cmp(a, "=", b),
    "ne": lambda a, b: Cmp(a, "!=", b),
}


def result_type(r: LinTerm | Cmp | None) -> PrimType:
    """The result type whose values are r: a number equal to a term, a
    boolean equivalent to a comparison, any number where r is not linear."""
    if isinstance(r, Cmp):
        return _bool(piff(PAtom(BVar(VALUE_VAR)), PAtom(r)))
    return _num(TRUE if r is None else cmp_pred(_NU, "=", r))


@lru_cache(maxsize=None)
def _value(op: str, k: int, m: int) -> PrimConst:
    """The constant ``op k m``: the meaning evaluated on two literals, once
    per (op, k, m), as both interpreters apply it at every primitive step."""
    r = BINARY[op](LinTerm.of_const(k), LinTerm.of_const(m))
    return bool_const(eval_atom(r, {})) if isinstance(r, Cmp) else int_const(r.const)


@lru_cache(maxsize=None)
def stage2(op: str, k: int) -> PrimConst:
    """The derived constant ``op@k``: op already applied to the literal k."""

    def delta(arg: SrcExpr) -> SrcExpr | None:
        m = const_int_value(arg)
        return None if m is None else Const(_value(op, k, m))

    ty = FunType(_num(), result_type(BINARY[op](LinTerm.of_const(k), LinTerm.of_var("$b"))), "$b")
    return PrimConst(f"{op}@{k}", ty, delta, partial=(op, k))


def _binary(op: str) -> PrimConst:
    def delta(arg: SrcExpr) -> SrcExpr | None:
        k = const_int_value(arg)
        return None if k is None else Const(stage2(op, k))

    cod = FunType(_num(), result_type(BINARY[op](LinTerm.of_var("$a"), LinTerm.of_var("$b"))), "$b")
    return PrimConst(op, FunType(_num(), cod, "$a"), delta)


ADD, SUB, MUL, LT, LE, EQ, NE = map(_binary, BINARY)


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
