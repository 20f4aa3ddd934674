"""Source-language abstract syntax: types, terms, tags, well-formedness.

The types here are both phases' types: phase 2's refinement types are the
same classes with each arrow's argument named (``FunType.binder``).  The
terms here but ``Ascribe`` are the target's core too: ``target.py`` adds
only products, sums and DEAD casts, and phase 1 records each lambda's arrow
(``Lam.src_ann``).

Every term class, here and in ``target.py``, declares its shape with
``@shape``: its child fields, left to right, each with the field of the
binder that scopes over it, how many of the leading children are evaluation
positions, and whether its terms are values (always, never, or when one
named child is).  The term walkers read only those tables, so one of each
serves both languages: the value test ``is_value``, ``subexprs`` (preorder),
``free_vars`` and ``uniquify`` (all four without recursion), the
capture-avoiding ``subst``, the bottom-up ``map_up``, which
``map_ascriptions`` and ``erase_ascriptions`` use, and ``decompose``, which
enumerates the evaluation contexts that both interpreters step under and
that union elimination splits on.  A shape also enters the class's concrete
syntax, a template with its precedence, in ``logic.SYNTAX``, as this module
does for each type, so ``logic.print_expr`` prints terms, types and
predicates in the source notation, and types in phase 2's from another
table.  ``map_prims``, the one rebuild of a type, maps its base types, with
their polarity, and names or drops its arrow binders.
Both maps visit left to right, so kappa templates are numbered in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from .logic import (SYNTAX, LinTerm, Pred, TRUE, VALUE_VAR, cached_hash, pred_names,
                    print_expr, subst_names, template)

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
        case FunType(left, right) | AndType(left, right) | OrType(left, right):
            for part in (left, right):
                r = wf_type(part)
                if not r.ok:
                    return r
            if isinstance(t, AndType) and type_tag(left) != type_tag(right):
                return WfReport(False, t, "intersection parts have different tags")
            if isinstance(t, OrType) and type_tag(left) & type_tag(right):
                return WfReport(False, t, "union parts have overlapping tags")
            return WfReport(True)
    raise TypeError(f"not a source type: {t!r}")


def map_prims(t: SrcType, f: Callable[[PrimType, bool], SrcType],
              name: Callable[[FunType], str] | None = None) -> SrcType:
    """Rebuild t with f(base type, whether it is under an odd number of arrow
    domains) applied left to right; each arrow's binder is ``name(arrow)``,
    taken before its parts are visited, or dropped when there is no name."""
    return _map_prims(t, f, name, False)


def _map_prims(t: SrcType, f, name, negative: bool) -> SrcType:
    match t:
        case PrimType():
            return f(t, negative)
        case FunType(dom, cod):
            binder = name(t) if name else ""
            return FunType(_map_prims(dom, f, name, not negative),
                           _map_prims(cod, f, name, negative), binder)
        case AndType(left, right) | OrType(left, right):
            return type(t)(_map_prims(left, f, name, negative), _map_prims(right, f, name, negative))
    raise TypeError(f"not a source type: {t!r}")


_BASIC = object()  # the ``_basic`` of a type that is its own erasure


def erase_refinements(t: SrcType) -> SrcType:
    """Phase 1's basic type under t: no refinements and no arrow binders.
    Kept on the node once computed, as ``cached_hash`` keeps the hash; an
    already basic type is its own erasure, and is marked so rather than
    pointing at itself, which would make it a reference cycle."""
    basic = getattr(t, "_basic", None)
    if basic is _BASIC:
        return t
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
        if basic is not t:
            object.__setattr__(t, "_basic", basic)
        object.__setattr__(basic, "_basic", _BASIC)
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
# Term class -> whether its terms are values: always (True), never (False), or
# exactly when the child in the named field is.
VALUES: dict[type, bool | str] = {}


def _show_prim(t: PrimType) -> str:
    if t.refinement == TRUE:
        return t.base
    return f"{{v:{t.base} | {print_expr(t.refinement)}}}"


# An arrow binds loosest (right associative), then \/, then /\; a base type
# is never parenthesised.
SYNTAX[PrimType] = (((_show_prim, None, None),), 3)
SYNTAX[FunType] = template("{dom:1} -> {cod:0}", 0)
SYNTAX[OrType] = template("{left:2} \\/ {right:2}", 1)
SYNTAX[AndType] = template("{left:3} /\\ {right:3}", 2)


def shape(*children: str | tuple[str, str], show: str, variable: bool = False,
          evaluated: int = 0, value: bool | str = False, loosest: int = 2):
    """Class decorator declaring a term class's shape; a child is a field
    name, or (field, binder) when the name in field ``binder`` scopes over it.
    The first ``evaluated`` children are the evaluation positions.  ``value``
    says whether the class's terms are values: always, never, or, given a
    child's field, when that child is.

    ``show`` is the concrete syntax (see ``template``): a child or a type is
    ``{field:p}``.  ``loosest`` is the term's own precedence: 0 for a term
    that extends as far right as it can, 1 for an application, 2 for the rest.
    """

    def declare(cls):
        kids = tuple((c, None) if isinstance(c, str) else c for c in children)
        SHAPES[cls] = (kids, variable)
        POSITIONS[cls] = tuple(c for c, _ in kids[:evaluated])
        VALUES[cls] = value
        SYNTAX[cls] = template(show, loosest)
        return cls

    return declare


@shape(show="{con.name}", value=True)
@cached_hash
@dataclass(frozen=True)
class Const:
    con: PrimConst
    pos: Pos = field(default=None, compare=False)


@shape(variable=True, show="{name}", value=True)
@cached_hash
@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=None, compare=False)


@shape(("body", "param"), show="\\{param} => {body:0}", value=True, loosest=0)
@cached_hash
@dataclass(frozen=True)
class Lam:
    """A lambda.  Phase 1 records on each lambda of its output the arrow it
    checked it against (``src_ann``), which the target's simple checker and
    refinement checking read; parsed lambdas leave it empty."""

    param: str
    body: SrcExpr
    src_ann: SrcType | None = None
    pos: Pos = field(default=None, compare=False)


@shape("expr", show="({expr:0} : {ty:0})")
@cached_hash
@dataclass(frozen=True)
class Ascribe:
    expr: SrcExpr
    ty: SrcType
    pos: Pos = field(default=None, compare=False)


@shape("bound", ("body", "name"), evaluated=1, show="let {name} = {bound:0} in {body:0}",
       loosest=0)
@cached_hash
@dataclass(frozen=True)
class Let:
    name: str
    bound: SrcExpr
    body: SrcExpr
    pos: Pos = field(default=None, compare=False)


@shape("cond", "then", "els", evaluated=1, show="if {cond:0} then {then:0} else {els:0}",
       loosest=0)
@cached_hash
@dataclass(frozen=True)
class If:
    cond: SrcExpr
    then: SrcExpr
    els: SrcExpr
    pos: Pos = field(default=None, compare=False)


@shape("fn", "arg", evaluated=2, show="{fn:1} {arg:2}", loosest=1)
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


def is_value(e: Term) -> bool:
    """v ::= c | x | \\x => e, and in the target (e, e) | inj_k v | DEAD(t, s, v):
    read off ``VALUES``, following the named children in a loop, as injections
    and DEAD casts can nest deeply."""
    value = VALUES[type(e)]
    while value.__class__ is str:
        e = getattr(e, value)
        value = VALUES[type(e)]
    return value


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
    return frozenset(_names(e)[0])


def scoped(e: Term) -> Iterator[tuple[Term, dict[str, int]]]:
    """Every subterm of e in preorder, children left to right, with the
    binders in scope there, each with its multiplicity.  The map is updated
    in place as the walk goes on, so read it before the next step."""
    bound: dict[str, int] = {}
    stack: list = [e]
    while stack:
        e = stack.pop()
        if type(e) is tuple:  # (name, +1 or -1): entering or leaving a binder's scope
            bound[e[0]] = bound.get(e[0], 0) + e[1]
            continue
        yield e, bound
        for child, binder in reversed(SHAPES[type(e)][0]):
            if binder is None:
                stack.append(getattr(e, child))
            else:
                name = getattr(e, binder)
                stack += ((name, -1), getattr(e, child), (name, 1))


def _names(e: Term, refinements: bool = False) -> tuple[set[str], list[str]]:
    """The free names of e, and the names of its binders, repeats included;
    with ``refinements``, a name an ascribed refinement mentions occurs too."""
    free: set[str] = set()
    binders: list[str] = []
    bound: dict[str, int] = {}  # the binders in scope, with multiplicity
    stack: list = [e]
    while stack:
        e = stack.pop()
        if type(e) is tuple:  # (name, +1 or -1): entering or leaving a binder's scope
            bound[e[0]] = bound.get(e[0], 0) + e[1]
            continue
        children, variable = SHAPES[type(e)]
        if variable:
            if not bound.get(e.name):
                free.add(e.name)
            continue
        if refinements and type(e) is Ascribe:
            free.update(n for n in refined_names(e.ty) if not bound.get(n))
        for child, binder in reversed(children):
            if binder is None:
                stack.append(getattr(e, child))
            else:
                name = getattr(e, binder)
                binders.append(name)
                stack += ((name, -1), getattr(e, child), (name, 1))
    return free, binders


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


def decompose(e: Term) -> Iterator[tuple[Callable[[Term], Term], Term]]:
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
    """Rename binders apart from each other and from the free names, in
    preorder, a binder keeping its name while that is unused.  e itself when
    no binder collides; otherwise renamed on an explicit stack, each binder's
    new name bound in one map for its scope and then restored.  The names an
    ascribed refinement mentions are renamed with the binders in scope, and
    a name one mentions free is never taken.  The value variable is reserved:
    a binder named v is renamed apart (``v_1``), so v in a refinement keeps
    meaning the value it refines."""
    free, binders = _names(e)
    free.add(VALUE_VAR)
    if len(set(binders)) == len(binders) and free.isdisjoint(binders):
        return e
    used, counters = _names(e, refinements=True)[0] | {VALUE_VAR}, {}
    ren: dict[str, str] = {}  # each binder in scope -> its new name
    done: list[Term] = []  # the renamed subterms not yet taken by their parent
    stack: list = [e]  # terms, (name, new name or None to unbind), (node, new fields)
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            children, variable = SHAPES[type(item)]
            if variable:
                name = ren.get(item.name, item.name)
                done.append(item if name == item.name else type(item)(name, pos=item.pos))
                continue
            new = {b: _fresh(getattr(item, b), used, counters) for _, b in children if b}
            stack.append((item, new))
            for child, b in reversed(children):
                if b is None:
                    stack.append(getattr(item, child))
                else:
                    name = getattr(item, b)
                    stack += ((name, ren.get(name)), getattr(item, child), (name, new[b]))
        elif type(item[1]) is dict:  # rebuild a node from the last len(children) done
            node, new = item
            children = SHAPES[type(node)][0]
            first = len(done) - len(children)
            new.update(zip((child for child, _ in children), done[first:]))
            del done[first:]
            if type(node) is Ascribe:
                new["ty"] = _rename_refinements(node.ty, ren)
            done.append(rebuild(node, new))
        elif item[1] is None:
            del ren[item[0]]
        else:
            ren[item[0]] = item[1]
    return done[0]


def refined_names(t: SrcType) -> set[str]:
    """The names t's refinements mention, but the value variable."""
    names: set[str] = set()
    map_prims(t, lambda p, _: names.update(pred_names(p.refinement)) or p)
    return names - {VALUE_VAR}


def _rename_refinements(t: SrcType, ren: dict[str, str]) -> SrcType:
    """t with the names its refinements mention renamed by ren, all at once
    (a new name may be another's old one); t itself when none is renamed."""
    repl = {n: LinTerm.of_var(ren[n]) for n in sorted(refined_names(t)) if ren.get(n, n) != n}
    if not repl:
        return t
    return map_prims(t, lambda p, _: PrimType(p.base, subst_names(p.refinement, repl)))


def _fresh(base: str, used: set[str], counters: dict[str, int]) -> str:
    name, n = base, counters.get(base, 1)
    while name in used:
        name, n = f"{base}_{n}", n + 1
        counters[base] = n
    used.add(name)
    return name


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


print_type = print_expr  # a type in the source notation


def print_program(p: Program) -> str:
    lines = [f"type {name} = {print_type(t)}" for name, t in p.type_aliases]
    lines.append(print_expr(p.main))
    return "\n".join(lines) + "\n"
