"""Source-language abstract syntax: types, terms, tags, well-formedness.

The types here are both phases' types: phase 2's refinement types are the
same classes with each arrow's argument named (``FunType.binder``).

Every term class, source here and target in ``target.py``, declares its
shape with ``@shape``: its child fields, left to right, each with the field
of the binder that scopes over it, and how many of the leading children are
evaluation positions.  The term walkers read only those tables, so one of
each serves both languages: ``subexprs`` (preorder, without recursion),
``free_vars`` (without recursion), the capture-avoiding ``subst``, the
bottom-up ``map_up``, which ``map_ascriptions`` and ``erase_ascriptions``
use, and ``decompose``, which enumerates the evaluation contexts that both
interpreters step under and that union elimination splits on.
``map_prims`` rebuilds a type with its base types mapped.  Both maps visit
left to right, so kappa templates are numbered in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from .logic import Pred, TRUE, cached_hash, is_true, render_pred

if TYPE_CHECKING:
    from .target import TgtExpr

NUMBER = "number"
BOOLEAN = "boolean"

TAG_NUMBER = "number"
TAG_BOOLEAN = "boolean"
TAG_FUNCTION = "function"

Pos = Optional[tuple[int, int]]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@cached_hash
@dataclass(frozen=True)
class PrimType:
    base: str  # "number" | "boolean"
    refinement: Pred = TRUE


@cached_hash
@dataclass(frozen=True)
class FunType:
    """An arrow.  Phase 2 names its argument ``binder`` so the codomain's
    refinements can mention it; phase 1's types leave the binder empty."""

    dom: SrcType
    cod: SrcType
    binder: str = ""


@cached_hash
@dataclass(frozen=True)
class AndType:
    left: SrcType
    right: SrcType


@cached_hash
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
    """Rebuild t with f applied to every base type, left to right, and the
    arrow binders dropped."""
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


def erase_refinements(t: SrcType) -> SrcType:
    """Phase 1's basic type under t: no refinements and no arrow binders.
    Kept on the node once computed, as ``cached_hash`` keeps the hash; an
    already basic type is its own erasure."""
    basic = getattr(t, "_basic", None)
    if basic is None:
        match t:
            case PrimType(base, refinement):
                basic = t if refinement == TRUE else PrimType(base)
            case FunType(dom, cod, binder):
                parts = erase_refinements(dom), erase_refinements(cod)
                basic = t if parts[0] is dom and parts[1] is cod and not binder else FunType(*parts)
            case AndType(left, right) | OrType(left, right):
                parts = erase_refinements(left), erase_refinements(right)
                basic = t if parts[0] is left and parts[1] is right else type(t)(*parts)
        object.__setattr__(t, "_basic", basic)
        object.__setattr__(basic, "_basic", basic)
    return basic


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
    """A primitive constant: its refined type and semantics.

    ``source_type``, the type phase 1 reads, is the refined type's erasure,
    computed once here.  ``delta`` implements curried primitive application;
    it returns the result constant for a value argument and None where
    application is undefined.  ``partial`` is (op, k) for the binary
    primitive op already applied to the literal k.  Instances are identified
    by name.
    """

    name: str
    refined_type: SrcType
    delta: Callable[["SrcExpr"], "SrcExpr | None"] | None = None
    partial: tuple[str, int] | None = None
    source_type: SrcType = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_type", erase_refinements(self.refined_type))

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

# Term class -> (children, variable): the child fields left to right, each with
# its binder's field or None, and whether it is a variable, named by ``name``.
SHAPES: dict[type, tuple[tuple[tuple[str, str | None], ...], bool]] = {}
# Term class -> its evaluation positions: the leading children an evaluation
# context descends into, left to right, each once those before it are values.
POSITIONS: dict[type, tuple[str, ...]] = {}


def shape(*children: str | tuple[str, str], variable: bool = False, evaluated: int = 0):
    """Class decorator declaring a term class's shape; a child is a field
    name, or (field, binder) when the name in field ``binder`` scopes over it.
    The first ``evaluated`` children are the evaluation positions."""

    def declare(cls):
        kids = tuple((c, None) if isinstance(c, str) else c for c in children)
        SHAPES[cls] = (kids, variable)
        POSITIONS[cls] = tuple(c for c, _ in kids[:evaluated])
        return cls

    return declare


@shape()
@cached_hash
@dataclass(frozen=True)
class Const:
    con: PrimConst
    pos: Pos = field(default=None, compare=False)


@shape(variable=True)
@cached_hash
@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=None, compare=False)


@shape(("body", "param"))
@cached_hash
@dataclass(frozen=True)
class Lam:
    param: str
    body: SrcExpr
    pos: Pos = field(default=None, compare=False)


@shape("expr")
@cached_hash
@dataclass(frozen=True)
class Ascribe:
    expr: SrcExpr
    ty: SrcType
    pos: Pos = field(default=None, compare=False)


@shape("bound", ("body", "name"), evaluated=1)
@cached_hash
@dataclass(frozen=True)
class Let:
    name: str
    bound: SrcExpr
    body: SrcExpr
    pos: Pos = field(default=None, compare=False)


@shape("cond", "then", "els", evaluated=1)
@cached_hash
@dataclass(frozen=True)
class If:
    cond: SrcExpr
    then: SrcExpr
    els: SrcExpr
    pos: Pos = field(default=None, compare=False)


@shape("fn", "arg", evaluated=2)
@cached_hash
@dataclass(frozen=True)
class App:
    fn: SrcExpr
    arg: SrcExpr
    pos: Pos = field(default=None, compare=False)


SrcExpr = Const | Var | Lam | Ascribe | Let | If | App

if TYPE_CHECKING:
    Term = SrcExpr | TgtExpr  # a source or a target term


@dataclass(frozen=True)
class Program:
    type_aliases: tuple[tuple[str, SrcType], ...]
    main: SrcExpr


def is_value(e: SrcExpr) -> bool:
    """v ::= c | x | \\x => e"""
    return isinstance(e, (Const, Var, Lam))


# ---------------------------------------------------------------------------
# Walkers shared by source and target terms
# ---------------------------------------------------------------------------


def subexprs(e: Term) -> Iterator[Term]:
    """Every subterm of e in preorder, children left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        for child, _ in reversed(SHAPES[type(e)][0]):
            stack.append(getattr(e, child))


def free_vars(e: Term) -> frozenset[str]:
    free: set[str] = set()
    bound: dict[str, int] = {}  # the binders in scope, with multiplicity
    stack: list = [e]
    while stack:
        e = stack.pop()
        if type(e) is tuple:  # (name, +1 or -1): entering or leaving a binder's scope
            bound[e[0]] = bound.get(e[0], 0) + e[1]
            continue
        children, variable = SHAPES[type(e)]
        if variable and not bound.get(e.name):
            free.add(e.name)
        for child, binder in reversed(children):
            if binder is None:
                stack.append(getattr(e, child))
            else:
                name = getattr(e, binder)
                stack += ((name, -1), getattr(e, child), (name, 1))
    return frozenset(free)


def rebuild(e: Term, new: dict) -> Term:
    """e with the fields in ``new`` replaced; e itself when none changed."""
    for name, value in new.items():
        if value is not getattr(e, name):
            return type(e)(*[new.get(f, getattr(e, f)) for f in type(e).__match_args__])
    return e


# An evaluation context: None for the empty one [], or (outer context, node,
# field) for the outer context applied to node with its hole in field.
Context = Optional[tuple]


def plug(ctx: Context, h: Term) -> Term:
    """The term ctx[h], rebuilt from the hole outwards."""
    while ctx is not None:
        ctx, node, child = ctx
        h = rebuild(node, {child: h})
    return h


def decompose(
    e: Term, is_value: Callable[[Term], bool]
) -> Iterator[tuple[Callable[[Term], Term], Term]]:
    """Every decomposition e = E[e0] into an evaluation context and a subterm,
    as (h -> E[h], e0): the empty context first, then each position's
    decompositions left to right, a position only once those before it are
    values."""
    stack: list[tuple[Context, Term]] = [(None, e)]
    while stack:
        ctx, e = stack.pop()
        yield partial(plug, ctx), e
        reachable = []
        for child in POSITIONS[type(e)]:
            inner = getattr(e, child)
            reachable.append(((ctx, e, child), inner))
            if not is_value(inner):
                break
        stack += reversed(reachable)


def subst(e: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution of v for x in e.  A binder that would
    capture a free variable of v is first primed (y', y'', ...) until it is
    free in neither v nor its scope."""
    return _subst(e, x, v, free_vars(v))


def _subst(e: Term, x: str, v: Term | str, fv: frozenset[str] | set[str]) -> Term:
    children, variable = SHAPES[type(e)]
    if variable:
        if e.name != x:
            return e
        return type(e)(v) if isinstance(v, str) else v  # a str v renames x
    new = {}
    for child, binder in children:
        c = getattr(e, child)
        if binder is not None:
            b = getattr(e, binder)
            if b == x:
                continue  # x is shadowed here
            if b in fv:
                fresh, scope = b + "'", free_vars(c)
                while fresh in fv or fresh in scope:
                    fresh += "'"
                c = _subst(c, b, fresh, {fresh})
                new[binder] = fresh
        new[child] = _subst(c, x, v, fv)
    return rebuild(e, new)


def map_up(e: Term, f: Callable[[Term], Term]) -> Term:
    """Rebuild e bottom-up: each node from its children mapped left to right,
    then f applied to it."""
    new = {}
    for child, _ in SHAPES[type(e)][0]:
        new[child] = map_up(getattr(e, child), f)
    return f(rebuild(e, new))


def map_ascriptions(e: SrcExpr, f: Callable[[SrcType], SrcType]) -> SrcExpr:
    """Rebuild e with f applied to every ascribed type, after the ascribed
    expression and left to right, so a stateful f sees a fixed order."""
    return map_up(e, lambda a: Ascribe(a.expr, f(a.ty), a.pos) if isinstance(a, Ascribe) else a)


def erase_ascriptions(e: SrcExpr) -> SrcExpr:
    """Drop type ascriptions; the operational semantics has no rule for them."""
    return map_up(e, lambda a: a.expr if isinstance(a, Ascribe) else a)


def uniquify(e: SrcExpr) -> SrcExpr:
    """Rename binders so every bound name is distinct from all others; a
    node's binders are renamed before any of its children is visited."""
    used: set[str] = set(free_vars(e))
    counters: dict[str, int] = {}

    def fresh(base: str) -> str:
        name, n = base, counters.get(base, 1)
        while name in used:
            name, n = f"{base}_{n}", n + 1
            counters[base] = n
        used.add(name)
        return name

    def go(e: Term, ren: dict[str, str]) -> Term:
        children, variable = SHAPES[type(e)]
        if variable:
            return type(e)(ren[e.name], pos=e.pos) if e.name in ren else e
        new = {b: fresh(getattr(e, b)) for _, b in children if b is not None}
        for child, b in children:
            scope = ren if b is None else {**ren, getattr(e, b): new[b]}
            new[child] = go(getattr(e, child), scope)
        return rebuild(e, new)

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
