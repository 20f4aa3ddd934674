"""Source-language abstract syntax: types, terms, tags, well-formedness.

Three shared walkers serve the rest of the checker: ``subexprs`` lists the
subterms of an expression in preorder without recursion, ``map_ascriptions``
rebuilds an expression with its ascribed types mapped, and ``map_prims``
rebuilds a type with its base types mapped.  Both maps visit left to right,
so kappa templates are numbered in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from .logic import Pred, TRUE, is_true, render_pred

if TYPE_CHECKING:
    from .target import RefType

NUMBER = "number"
BOOLEAN = "boolean"

TAG_NUMBER = "number"
TAG_BOOLEAN = "boolean"
TAG_FUNCTION = "function"

Pos = Optional[tuple[int, int]]


def _cached_hash(cls):
    """Give a frozen node class a structural hash that is computed once.

    The elaborator keys its memo on whole subterms and types.  With the hash
    kept on the node, hashing a node whose children are hashed costs O(1),
    not O(size of the subtree), as in hash-consing.  The value is the one
    the dataclass would compute (the compared fields as a tuple), and it is
    computed on first use only: most nodes are never hashed.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass  # hash the children outside the handler, not under its context
        h = hash(tuple(getattr(self, name) for name in names))
        object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@_cached_hash
@dataclass(frozen=True)
class PrimType:
    base: str  # "number" | "boolean"
    refinement: Pred = TRUE


@_cached_hash
@dataclass(frozen=True)
class FunType:
    dom: SrcType
    cod: SrcType


@_cached_hash
@dataclass(frozen=True)
class AndType:
    left: SrcType
    right: SrcType


@_cached_hash
@dataclass(frozen=True)
class OrType:
    left: SrcType
    right: SrcType


SrcType = PrimType | FunType | AndType | OrType

NUM = PrimType(NUMBER)
BOOL = PrimType(BOOLEAN)


def type_tag(t: SrcType) -> frozenset[str]:
    """Possible runtime tags of values of type t; refinements are ignored."""
    match t:
        case PrimType(base, _):
            return frozenset([TAG_NUMBER if base == NUMBER else TAG_BOOLEAN])
        case FunType():
            return frozenset([TAG_FUNCTION])
        case AndType(left, _):
            return type_tag(left)
        case OrType(left, right):
            return type_tag(left) | type_tag(right)
    raise TypeError(f"not a source type: {t!r}")


@dataclass(frozen=True)
class WfReport:
    ok: bool
    offender: SrcType | None = None
    reason: str | None = None


def wf_type(t: SrcType) -> WfReport:
    """Union parts need disjoint tags, intersection parts equal tags."""
    match t:
        case PrimType():
            return WfReport(True)
        case FunType(dom, cod):
            for part in (dom, cod):
                r = wf_type(part)
                if not r.ok:
                    return r
            return WfReport(True)
        case AndType(left, right):
            for part in (left, right):
                r = wf_type(part)
                if not r.ok:
                    return r
            if type_tag(left) != type_tag(right):
                return WfReport(False, t, "intersection parts have different tags")
            return WfReport(True)
        case OrType(left, right):
            for part in (left, right):
                r = wf_type(part)
                if not r.ok:
                    return r
            if type_tag(left) & type_tag(right):
                return WfReport(False, t, "union parts have overlapping tags")
            return WfReport(True)
    raise TypeError(f"not a source type: {t!r}")


def map_prims(t: SrcType, f: Callable[[PrimType], SrcType]) -> SrcType:
    """Rebuild t with f applied to every base type, left to right."""
    match t:
        case PrimType():
            return f(t)
        case FunType(dom, cod):
            return FunType(map_prims(dom, f), map_prims(cod, f))
        case AndType(left, right):
            return AndType(map_prims(left, f), map_prims(right, f))
        case OrType(left, right):
            return OrType(map_prims(left, f), map_prims(right, f))
    raise TypeError(f"not a source type: {t!r}")


def _erase_prim(t: PrimType) -> PrimType:
    return PrimType(t.base, TRUE)


def erase_refinements(t: SrcType) -> SrcType:
    return map_prims(t, _erase_prim)


def types_equal_basic(a: SrcType, b: SrcType) -> bool:
    """Phase 1 type equality: structural, with refinements ignored."""
    return erase_refinements(a) == erase_refinements(b)


def tags_disjoint(a: SrcType, b: SrcType) -> bool:
    return not (type_tag(a) & type_tag(b))


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PrimConst:
    """A primitive constant: its source type, refined type, and semantics.

    ``delta`` implements curried primitive application; it returns the result
    constant for a value argument and None where application is undefined.
    Instances are identified by name.
    """

    name: str
    source_type: SrcType
    refined_type: "RefType | None" = None
    delta: Callable[["SrcExpr"], "SrcExpr | None"] | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimConst) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("PrimConst", self.name))

    def __repr__(self) -> str:
        return f"PrimConst({self.name})"

    @property
    def is_function(self) -> bool:
        return isinstance(self.source_type, FunType)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@_cached_hash
@dataclass(frozen=True)
class Const:
    con: PrimConst
    pos: Pos = field(default=None, compare=False)


@_cached_hash
@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=None, compare=False)


@_cached_hash
@dataclass(frozen=True)
class Lam:
    param: str
    body: SrcExpr
    pos: Pos = field(default=None, compare=False)


@_cached_hash
@dataclass(frozen=True)
class Ascribe:
    expr: SrcExpr
    ty: SrcType
    pos: Pos = field(default=None, compare=False)


@_cached_hash
@dataclass(frozen=True)
class Let:
    name: str
    bound: SrcExpr
    body: SrcExpr
    pos: Pos = field(default=None, compare=False)


@_cached_hash
@dataclass(frozen=True)
class If:
    cond: SrcExpr
    then: SrcExpr
    els: SrcExpr
    pos: Pos = field(default=None, compare=False)


@_cached_hash
@dataclass(frozen=True)
class App:
    fn: SrcExpr
    arg: SrcExpr
    pos: Pos = field(default=None, compare=False)


SrcExpr = Const | Var | Lam | Ascribe | Let | If | App


@dataclass(frozen=True)
class Program:
    type_aliases: tuple[tuple[str, SrcType], ...]
    main: SrcExpr


def is_value(e: SrcExpr) -> bool:
    """v ::= c | x | \\x => e"""
    return isinstance(e, (Const, Var, Lam))


def free_vars(e: SrcExpr) -> frozenset[str]:
    match e:
        case Const():
            return frozenset()
        case Var(name):
            return frozenset([name])
        case Lam(param, body):
            return free_vars(body) - {param}
        case Ascribe(expr, _):
            return free_vars(expr)
        case Let(name, bound, body):
            return free_vars(bound) | (free_vars(body) - {name})
        case If(c, t, f):
            return free_vars(c) | free_vars(t) | free_vars(f)
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
    raise TypeError(f"not a source expression: {e!r}")


def subexprs(e: SrcExpr) -> Iterator[SrcExpr]:
    """Every subexpression of e in preorder, children left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        match e:
            case Lam(_, body) | Ascribe(body, _):
                stack.append(body)
            case Let(_, bound, body):
                stack += (body, bound)
            case If(c, t, f):
                stack += (f, t, c)
            case App(fn, arg):
                stack += (arg, fn)


def map_ascriptions(e: SrcExpr, f: Callable[[SrcType], SrcType]) -> SrcExpr:
    """Rebuild e with f applied to every ascribed type.

    Children are visited left to right, and an ascribed expression before its
    type, so a stateful f sees the types in a fixed order.
    """
    match e:
        case Const() | Var():
            return e
        case Lam(param, body, pos):
            return Lam(param, map_ascriptions(body, f), pos)
        case Ascribe(expr, ty, pos):
            return Ascribe(map_ascriptions(expr, f), f(ty), pos)
        case Let(name, bound, body, pos):
            return Let(name, map_ascriptions(bound, f), map_ascriptions(body, f), pos)
        case If(c, t, els, pos):
            return If(map_ascriptions(c, f), map_ascriptions(t, f), map_ascriptions(els, f), pos)
        case App(fn, arg, pos):
            return App(map_ascriptions(fn, f), map_ascriptions(arg, f), pos)
    raise TypeError(f"not a source expression: {e!r}")


def erase_ascriptions(e: SrcExpr) -> SrcExpr:
    """Drop type ascriptions; the operational semantics has no rule for them."""
    match e:
        case Const() | Var():
            return e
        case Lam(param, body, pos):
            return Lam(param, erase_ascriptions(body), pos)
        case Ascribe(expr, _):
            return erase_ascriptions(expr)
        case Let(name, bound, body, pos):
            return Let(name, erase_ascriptions(bound), erase_ascriptions(body), pos)
        case If(c, t, f, pos):
            return If(erase_ascriptions(c), erase_ascriptions(t), erase_ascriptions(f), pos)
        case App(fn, arg, pos):
            return App(erase_ascriptions(fn), erase_ascriptions(arg), pos)
    raise TypeError(f"not a source expression: {e!r}")


# ---------------------------------------------------------------------------
# Alpha renaming
# ---------------------------------------------------------------------------


def uniquify(e: SrcExpr) -> SrcExpr:
    """Rename binders so every bound name is distinct from all others."""
    used: set[str] = set(free_vars(e))
    counters: dict[str, int] = {}

    def fresh(base: str) -> str:
        if base not in used:
            used.add(base)
            return base
        n = counters.get(base, 1)
        while f"{base}_{n}" in used:
            n += 1
        counters[base] = n + 1
        name = f"{base}_{n}"
        used.add(name)
        return name

    def go(e: SrcExpr, ren: dict[str, str]) -> SrcExpr:
        match e:
            case Const():
                return e
            case Var(name, pos):
                return Var(ren.get(name, name), pos)
            case Lam(param, body, pos):
                p2 = fresh(param)
                return Lam(p2, go(body, {**ren, param: p2}), pos)
            case Ascribe(expr, ty, pos):
                return Ascribe(go(expr, ren), ty, pos)
            case Let(name, bound, body, pos):
                n2 = fresh(name)
                return Let(n2, go(bound, ren), go(body, {**ren, name: n2}), pos)
            case If(c, t, f, pos):
                return If(go(c, ren), go(t, ren), go(f, ren), pos)
            case App(fn, arg, pos):
                return App(go(fn, ren), go(arg, ren), pos)
        raise TypeError(f"not a source expression: {e!r}")

    return go(e, {})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Type precedence: arrow binds loosest (right associative), then \/, then /\.


def print_type(t: SrcType) -> str:
    return _print_type(t, 0)


def _print_type(t: SrcType, prec: int) -> str:
    match t:
        case PrimType(base, refinement):
            if is_true(refinement):
                return base
            return f"{{v:{base} | {render_pred(refinement)}}}"
        case FunType(dom, cod):
            s = f"{_print_type(dom, 1)} -> {_print_type(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case OrType(left, right):
            s = f"{_print_type(left, 2)} \\/ {_print_type(right, 2)}"
            return f"({s})" if prec > 1 else s
        case AndType(left, right):
            s = f"{_print_type(left, 3)} /\\ {_print_type(right, 3)}"
            return f"({s})" if prec > 2 else s
    raise TypeError(f"not a source type: {t!r}")


def print_expr(e: SrcExpr) -> str:
    return _print_expr(e, 0)


def _print_expr(e: SrcExpr, prec: int) -> str:
    # prec 0: anywhere, 1: application operand position
    match e:
        case Const(con):
            return con.name
        case Var(name):
            return name
        case Lam(param, body):
            s = f"\\{param} => {_print_expr(body, 0)}"
            return f"({s})" if prec > 0 else s
        case Ascribe(expr, ty):
            return f"({_print_expr(expr, 0)} : {print_type(ty)})"
        case Let(name, bound, body):
            s = f"let {name} = {_print_expr(bound, 0)} in {_print_expr(body, 0)}"
            return f"({s})" if prec > 0 else s
        case If(c, t, f):
            s = f"if {_print_expr(c, 0)} then {_print_expr(t, 0)} else {_print_expr(f, 0)}"
            return f"({s})" if prec > 0 else s
        case App(fn, arg):
            fn_s = _print_expr(fn, 1) if not isinstance(fn, App) else _print_expr(fn, 0)
            s = f"{fn_s} {_print_expr(arg, 2)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a source expression: {e!r}")


def print_program(p: Program) -> str:
    lines = [f"type {name} = {print_type(t)}" for name, t in p.type_aliases]
    lines.append(print_expr(p.main))
    return "\n".join(lines) + "\n"
