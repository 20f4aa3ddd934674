"""Predicate language and validity checking for verification conditions.

The logic is quantifier-free linear integer arithmetic over one sort.  A
boolean is the integer 1 (true) or 0 (false), and the atom ``b`` means
``b = 1``, so substitution, discharge and SMT-LIB emission treat every name
alike.
A verification condition ``H1 ... Hn => (p => q)`` is discharged in-process:
negate it, group its conjuncts into components that share no names, and
refute some component: normalize it to disjunctive normal form and refute
every cube with an integer-tightened Fourier-Motzkin elimination.  "valid"
verdicts are sound: a reported tautology has no integer counter-model.
Cubes that are satisfiable over the rationals but not the integers are
conservatively reported as invalid.

Discharge does no work it can avoid.  DNF size is a sum over components,
not a product.  A cube, too, is decided one component of variable-sharing
literals at a time, and a disequality is split into its two strict halves
only while the rows without it are still satisfiable.  A memo shared by the
``valid`` calls of one Houdini solve or refinement check keeps each
conjunct's names, literal's rows and component's outcome, so hypotheses
shared between VCs are decided once.  Elimination keeps its rows reduced
by their exact gcd and holds only the tightest of rows with the same
coefficients.  An invalid verdict keeps its cube and builds the rendered
cube and the counter-model (searched per component) only when read.

SMT-LIB2 emission is provided so the same conditions can be cross-checked
with an external solver.

Predicates are traversed by two shared walkers: ``pred_leaves`` lists the
constants, atoms and kappa applications left to right without recursion, and
``map_pred`` rebuilds a predicate through the smart constructors from a
per-leaf function.  Kappa queries, substitution, kappa instantiation and the
SMT-LIB declarations are written on top of them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import gcd
from typing import Callable, Iterator

VALUE_VAR = "v"

DEFAULT_CLAUSE_BUDGET = 10000  # DNF cubes one component of a VC may expand to


class ResourceLimit(Exception):
    """DNF expansion exceeded the configured clause budget."""


def cached_hash(cls):
    """Give a frozen node class a structural hash that is computed once.

    The elaborator keys its memo on whole subterms and types, discharge on
    conjuncts and literals.  With the hash kept on the node, hashing a node whose children
    are hashed costs O(1), not O(size of the subtree), as in hash-consing.
    The value is the one the dataclass would compute (the compared fields as
    a tuple), and it is computed on first use only.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None  # until the instance sets its own
    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Linear terms and atoms
# ---------------------------------------------------------------------------


@cached_hash
@dataclass(frozen=True)
class LinTerm:
    """Integer-linear term: sum of coeff*name plus a constant."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of_const(k: int) -> LinTerm:
        return LinTerm((), k)

    @staticmethod
    def of_var(name: str, coeff: int = 1) -> LinTerm:
        if coeff == 0:
            return LinTerm((), 0)
        return LinTerm(((name, coeff),), 0)

    def __add__(self, other: LinTerm) -> LinTerm:
        acc = dict(self.coeffs)
        for name, c in other.coeffs:
            acc[name] = acc.get(name, 0) + c
        coeffs = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
        return LinTerm(coeffs, self.const + other.const)

    def __sub__(self, other: LinTerm) -> LinTerm:
        return self + other.scale(-1)

    def scale(self, k: int) -> LinTerm:
        if k == 0:
            return LinTerm((), 0)
        return LinTerm(tuple((n, c * k) for n, c in self.coeffs), self.const * k)

    def subst_var(self, name: str, replacement: LinTerm) -> LinTerm:
        coeff = dict(self.coeffs).get(name)
        if coeff is None:
            return self
        rest = LinTerm(tuple((n, c) for n, c in self.coeffs if n != name), self.const)
        return rest + replacement.scale(coeff)

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    def render(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts = []
        for name, c in self.coeffs:
            if not parts:
                if c == 1:
                    parts.append(name)
                elif c == -1:
                    parts.append(f"-{name}")
                else:
                    parts.append(f"{c}*{name}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                parts.append(f" {sign} {name}" if mag == 1 else f" {sign} {mag}*{name}")
        if self.const > 0:
            parts.append(f" + {self.const}")
        elif self.const < 0:
            parts.append(f" - {-self.const}")
        return "".join(parts)


CMP_OPS = ("<", "<=", "=", "!=", ">=", ">")

_FLIP = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">=": "<", ">": "<="}


@cached_hash
@dataclass(frozen=True)
class Cmp:
    """Comparison of two linear integer terms."""

    lhs: LinTerm
    op: str
    rhs: LinTerm

    def flip(self) -> Cmp:
        return Cmp(self.lhs, _FLIP[self.op], self.rhs)

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} {self.rhs.render()}"


@cached_hash
@dataclass(frozen=True)
class BVar:
    """A boolean variable used as an atom."""

    name: str

    def render(self) -> str:
        return self.name


Atom = Cmp | BVar


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PBool:
    value: bool


@cached_hash
@dataclass(frozen=True)
class PAtom:
    atom: Atom


@cached_hash
@dataclass(frozen=True)
class PNot:
    inner: Pred


@cached_hash
@dataclass(frozen=True)
class PAnd:
    parts: tuple[Pred, ...]


@cached_hash
@dataclass(frozen=True)
class POr:
    parts: tuple[Pred, ...]


@cached_hash
@dataclass(frozen=True)
class PImp:
    hyp: Pred
    concl: Pred


@cached_hash
@dataclass(frozen=True)
class PIff:
    left: Pred
    right: Pred


@cached_hash
@dataclass(frozen=True)
class PKappa:
    """Opaque refinement-variable application, resolved by inference.

    ``subst`` maps template names (the value variable and scope names) to the
    linear terms they were instantiated with.
    """

    kappa: str
    subst: tuple[tuple[str, LinTerm], ...] = ()


Pred = PBool | PAtom | PNot | PAnd | POr | PImp | PIff | PKappa

TRUE = PBool(True)
FALSE = PBool(False)


def pand(parts) -> Pred:
    flat: list[Pred] = []
    for p in parts:
        if isinstance(p, PBool):
            if not p.value:
                return FALSE
            continue
        if isinstance(p, PAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return PAnd(tuple(flat))


def por(parts) -> Pred:
    flat: list[Pred] = []
    for p in parts:
        if isinstance(p, PBool):
            if p.value:
                return TRUE
            continue
        if isinstance(p, POr):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return POr(tuple(flat))


def pnot(p: Pred) -> Pred:
    match p:
        case PBool(b):
            return PBool(not b)
        case PNot(inner):
            return inner
        case PAtom(Cmp() as c):
            return PAtom(c.flip())
        case _:
            return PNot(p)


def pimp(hyp: Pred, concl: Pred) -> Pred:
    if isinstance(hyp, PBool):
        return concl if hyp.value else TRUE
    if isinstance(concl, PBool) and concl.value:
        return TRUE
    return PImp(hyp, concl)


def piff(left: Pred, right: Pred) -> Pred:
    if isinstance(left, PBool):
        return right if left.value else pnot(right)
    if isinstance(right, PBool):
        return left if right.value else pnot(left)
    return PIff(left, right)


def cmp_pred(lhs: LinTerm, op: str, rhs: LinTerm) -> Pred:
    if op not in CMP_OPS:
        raise ValueError(f"unknown comparison operator {op!r}")
    return PAtom(Cmp(lhs, op, rhs))


def pred_leaves(p: Pred) -> Iterator[Pred]:
    """The constants, atoms and kappa applications of p, left to right."""
    stack = [p]
    while stack:
        q = stack.pop()
        match q:
            case PNot(inner):
                stack.append(inner)
            case PAnd(parts) | POr(parts):
                stack.extend(reversed(parts))
            case PImp(a, b) | PIff(a, b):
                stack += (b, a)
            case _:
                yield q


def map_pred(p: Pred, leaf: Callable[[Pred], Pred]) -> Pred:
    """Rebuild p through the smart constructors, with ``leaf`` applied to
    every constant, atom and kappa application."""
    match p:
        case PNot(inner):
            return pnot(map_pred(inner, leaf))
        case PAnd(parts):
            return pand(map_pred(q, leaf) for q in parts)
        case POr(parts):
            return por(map_pred(q, leaf) for q in parts)
        case PImp(a, b):
            return pimp(map_pred(a, leaf), map_pred(b, leaf))
        case PIff(a, b):
            return piff(map_pred(a, leaf), map_pred(b, leaf))
    return leaf(p)


def contains_kappa(p: Pred) -> bool:
    return any(isinstance(q, PKappa) for q in pred_leaves(p))


def kappas_of(p: Pred) -> frozenset[str]:
    return frozenset(q.kappa for q in pred_leaves(p) if isinstance(q, PKappa))


def pred_names(p: Pred) -> set[str]:
    """The names of p's atoms and of its kappa substitutions' terms."""
    out: set[str] = set()
    for q in pred_leaves(p):
        match q:
            case PAtom(Cmp(lhs, _, rhs)):
                out.update([n for n, _ in lhs.coeffs + rhs.coeffs])
            case PAtom(BVar(n)):
                out.add(n)
            case PKappa(_, subst):
                out.update(n for _, v in subst for n, _ in v.coeffs)
    return out


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def subst_pred(p: Pred, name: str, repl: LinTerm) -> Pred:
    """Substitute the linear term ``repl`` for ``name`` in p.

    A boolean is the integer 1 or 0, so the atom ``name`` becomes the atom of
    a variable term, the truth value of a constant one, and ``repl = 1`` for
    any other term.
    """

    def leaf(q: Pred) -> Pred:
        match q:
            case PAtom(Cmp(lhs, op, rhs)):
                return PAtom(Cmp(lhs.subst_var(name, repl), op, rhs.subst_var(name, repl)))
            case PAtom(BVar(n)) if n == name:
                match repl:
                    case LinTerm(((var, 1),), 0):
                        return PAtom(BVar(var))
                    case LinTerm((), k):
                        return PBool(k == 1)
                return cmp_pred(repl, "=", LinTerm.of_const(1))
            case PBool() | PAtom(BVar()):
                return q
            case PKappa(k, subst):
                # Rewrite recorded values, and record the new entry unless the
                # name was already consumed by an earlier substitution.  Names
                # in the reserved $ namespace never occur in solved refinements
                # (candidates range over the value variable and program names),
                # so substitutions for them are dropped rather than recorded.
                entries = tuple((n, v.subst_var(name, repl)) for n, v in subst)
                if not name.startswith("$") and name not in (n for n, _ in subst):
                    entries += ((name, repl),)
                return PKappa(k, entries)
        raise TypeError(f"not a predicate: {q!r}")

    return map_pred(p, leaf)


def instantiate_kappas(p: Pred, assignment: dict[str, Pred]) -> Pred:
    """Replace every kappa application with its assigned predicate."""

    def leaf(q: Pred) -> Pred:
        if not isinstance(q, PKappa):
            return q
        body = assignment[q.kappa]
        # Simultaneous substitution: detour through fresh temporaries.
        temps = {n: f"$tmp{i}${n}" for i, (n, _) in enumerate(q.subst)}
        for n, _ in q.subst:
            tmp = temps[n]
            body = subst_pred(body, n, LinTerm.of_var(tmp))
        for n, value in q.subst:
            body = subst_pred(body, temps[n], value)
        return body

    return map_pred(p, leaf)


# ---------------------------------------------------------------------------
# Rendering and canonical keys
# ---------------------------------------------------------------------------


def render_pred(p: Pred) -> str:
    match p:
        case PBool(b):
            return "true" if b else "false"
        case PAtom(a):
            return a.render()
        case PNot(inner):
            return f"!({render_pred(inner)})"
        case PAnd(parts):
            return " && ".join(_render_nested(q) for q in parts)
        case POr(parts):
            return " || ".join(_render_nested(q) for q in parts)
        case PImp(a, b):
            return f"{_render_nested(a)} => {_render_nested(b)}"
        case PIff(a, b):
            # Boolean equality; rendered with the source-level operator.
            return f"{_render_nested(a)} = {_render_nested(b)}"
        case PKappa(k, subst):
            if not subst:
                return k
            inner = ", ".join(f"{v.render()}/{n}" for n, v in subst)
            return f"{k}[{inner}]"
    raise TypeError(f"not a predicate: {p!r}")


def _render_nested(p: Pred) -> str:
    if isinstance(p, (PAnd, POr, PImp, PIff)):
        return f"({render_pred(p)})"
    return render_pred(p)


def _canon_cmp(c: Cmp):
    t = c.lhs - c.rhs
    op = c.op
    if op == ">":
        t, op = t.scale(-1), "<"
    elif op == ">=":
        t, op = t.scale(-1), "<="
    if op in ("=", "!="):
        lead = t.coeffs[0][1] if t.coeffs else t.const
        if lead < 0:
            t = t.scale(-1)
    nums = [c for _, c in t.coeffs] + ([t.const] if t.const else [])
    g = 0
    for n in nums:
        g = gcd(g, abs(n))
    if g > 1 and t.const % g == 0 and all(c % g == 0 for _, c in t.coeffs):
        t = LinTerm(tuple((n, c // g) for n, c in t.coeffs), t.const // g)
    return ("cmp", op, t.coeffs, t.const)


def pred_key(p: Pred):
    """Hashable key identifying predicates up to conjunct order and trivia."""
    match p:
        case PBool(b):
            return ("bool", b)
        case PAtom(Cmp() as c):
            return _canon_cmp(c)
        case PAtom(BVar(n)):
            return ("bvar", n)
        case PNot(PAtom(Cmp() as c)):
            return _canon_cmp(c.flip())
        case PNot(inner):
            return ("not", pred_key(inner))
        case PAnd(parts) | POr(parts):
            unit = ("bool", isinstance(p, PAnd))  # the key of the empty conjunction or disjunction
            keys = sorted({k for k in map(pred_key, parts) if k != unit})
            if len(keys) > 1:
                return ("and" if unit[1] else "or",) + tuple(keys)
            return keys[0] if keys else unit
        case PImp(a, b):
            return ("imp", pred_key(a), pred_key(b))
        case PIff(a, b):
            return ("iff",) + tuple(sorted([pred_key(a), pred_key(b)]))
        case PKappa(k, subst):
            return ("kappa", k, tuple((n, v.render()) for n, v in subst))
    raise TypeError(f"not a predicate: {p!r}")


# Only a boolean constant, a conjunction or a disjunction can have a constant's
# key, so is_true and is_false answer any other predicate without building one.
def is_true(p: Pred) -> bool:
    return isinstance(p, (PBool, PAnd, POr)) and pred_key(p) == ("bool", True)


def is_false(p: Pred) -> bool:
    return isinstance(p, (PBool, PAnd, POr)) and pred_key(p) == ("bool", False)


# ---------------------------------------------------------------------------
# Verification conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VC:
    """Implication ``hyps => (antecedent => consequent)``."""

    hyps: tuple[Pred, ...]
    antecedent: Pred
    consequent: Pred
    origin: str = ""
    scope: tuple[str, ...] = field(default=(), compare=False)  # names bound at a number type

    def negated(self) -> Pred:
        return pand(list(self.hyps) + [self.antecedent, pnot(self.consequent)])

    def render(self) -> str:
        hyp = " && ".join(render_pred(h) for h in self.hyps) if self.hyps else "true"
        return f"({hyp}) => ({render_pred(self.antecedent)} => {render_pred(self.consequent)})"

    def key(self):
        return (
            tuple(sorted(set(k for k in (pred_key(h) for h in self.hyps) if k != ("bool", True)))),
            pred_key(self.antecedent),
            pred_key(self.consequent),
        )


def is_tautology(vc: VC) -> bool:
    """True when the VC holds for structural reasons alone.

    Covers a true consequent and a false antecedent or hypothesis.  A
    reflexive implication between kappa applications is dropped too: it holds
    under every solution, so it constrains nothing.  Concrete reflexive
    obligations are kept and discharged like any other.
    """
    if is_true(vc.consequent):
        return True
    if is_false(vc.antecedent):
        return True
    if contains_kappa(vc.consequent) and pred_key(vc.antecedent) == pred_key(vc.consequent):
        return True
    return any(is_false(h) for h in vc.hyps)


# ---------------------------------------------------------------------------
# NNF / DNF
# ---------------------------------------------------------------------------

# Literal: (atom, positive). Comparison negation is folded into the operator,
# so cmp literals are always positive; boolean variables keep a sign.


def _literal_cmp(literal) -> Cmp:
    """The comparison a literal asserts: ``b`` is ``b = 1`` and ``!b`` is
    ``b = 0``."""
    atom, positive = literal
    if isinstance(atom, BVar):
        return Cmp(LinTerm.of_var(atom.name), "=", LinTerm.of_const(int(positive)))
    return atom if positive else atom.flip()


def _nnf(p: Pred, neg: bool):
    match p:
        case PBool(b):
            return ("const", b != neg)
        case PAtom(Cmp() as c):
            return ("lit", c.flip() if neg else c, True)
        case PAtom(BVar() as b):
            return ("lit", b, not neg)
        case PNot(inner):
            return _nnf(inner, not neg)
        case PAnd(parts):
            kids = [_nnf(q, neg) for q in parts]
            return ("or" if neg else "and", kids)
        case POr(parts):
            kids = [_nnf(q, neg) for q in parts]
            return ("and" if neg else "or", kids)
        case PImp(a, b):
            if neg:
                return ("and", [_nnf(a, False), _nnf(b, True)])
            return ("or", [_nnf(a, True), _nnf(b, False)])
        case PIff(a, b):
            pos = POr((PAnd((a, b)), PAnd((pnot(a), pnot(b)))))
            return _nnf(pos, neg)
        case PKappa():
            raise ValueError("kappa variable reached the decision procedure")
    raise TypeError(f"not a predicate: {p!r}")


def _dnf(node, budget: int) -> list[frozenset]:
    kind = node[0]
    if kind == "const":
        return [frozenset()] if node[1] else []
    if kind == "lit":
        return [frozenset([(node[1], node[2])])]
    if kind == "or":
        out: list[frozenset] = []
        for kid in node[1]:
            out.extend(_dnf(kid, budget))
            if len(out) > budget:
                raise ResourceLimit(f"DNF clause budget {budget} exceeded")
        return out
    # and: cartesian product of children cubes
    cubes = [frozenset()]
    for kid in node[1]:
        kid_cubes = _dnf(kid, budget)
        cubes = [a | b for a in cubes for b in kid_cubes]
        if len(cubes) > budget:
            raise ResourceLimit(f"DNF clause budget {budget} exceeded")
    return cubes


def dnf_cubes(p: Pred, budget: int = DEFAULT_CLAUSE_BUDGET) -> list[frozenset]:
    return _dnf(_nnf(p, False), budget)


# ---------------------------------------------------------------------------
# Fourier-Motzkin over integer-tightened rows
# ---------------------------------------------------------------------------


def fm_unsat(literals, memo: dict | None = None) -> bool:
    """Decide a conjunction of comparison and boolean literals.

    Returns True only when a genuine contradiction is derived, so a True
    answer means no integer model exists.  A boolean literal is the row
    ``b = 1`` or ``b = 0`` (``_literal_cmp``), and strict inequalities are
    tightened over the integers.  Each component of literals sharing variables is
    decided alone, fewest disequalities first: they are split only while the
    rows without them stay satisfiable, and the rows go through
    Fourier-Motzkin elimination.  ``memo`` keeps each literal's rows and each
    component's verdict for later calls.
    """
    memo = {} if memo is None else memo
    forms = []
    for literal in literals:
        form = memo.get(literal)
        if form is None:
            form = memo[literal] = _literal_rows(_literal_cmp(literal))
        forms.append((literal, form))
    parts = _components((pair, pair[1][2]) for pair in forms)
    for part in sorted(parts, key=lambda part: sum(len(form[1]) for _, form in part)):
        key = frozenset(literal for literal, _ in part)
        if key not in memo:
            rows = [row for _, form in part for row in form[0]]
            memo[key] = _split_neqs(rows, [t for _, form in part for t in form[1]])
        if memo[key]:
            return True
    return False


def _literal_rows(c: Cmp) -> tuple[tuple[LinTerm, ...], tuple[LinTerm, ...], tuple[str, ...]]:
    """The rows (``row <= 0``) and disequalities (``term != 0``) of c, and
    the variables they mention."""
    t = c.lhs - c.rhs if c.op in ("<", "<=", "=", "!=") else c.rhs - c.lhs
    names = tuple(n for n, _ in t.coeffs)
    if c.op in ("<", ">"):
        return (t + LinTerm.of_const(1),), (), names
    if c.op == "=":
        return (t, t.scale(-1)), (), names
    return ((), (t,), names) if c.op == "!=" else ((t,), (), names)


def _components(named) -> list[list]:
    """Group (item, names) pairs linked by shared names, in order of each
    group's first item; an item with no names is alone.  Satisfiability over
    disjoint names factorises and a disequality split stays in its group,
    so a conjunction is refuted exactly when one group is."""
    named = list(named)
    root: dict[str, str] = {}

    def find(name: str) -> str:
        while (up := root.get(name, name)) != name:
            name = up
        return name

    for _, names in named:
        for name in names[1:]:
            root[find(name)] = find(names[0])
    parts: dict[object, list] = {}
    for i, (item, names) in enumerate(named):
        parts.setdefault(find(names[0]) if names else i, []).append(item)
    return list(parts.values())


def _split_neqs(rows: list[LinTerm], neqs: list[LinTerm]) -> bool:
    # Fourier-Motzkin decides rational infeasibility exactly, and adding rows
    # keeps an infeasible system infeasible: once the rows without the
    # remaining disequalities are contradictory, every split below is too.
    if _fm_rows_unsat(rows):
        return True
    if not neqs:
        return False
    t, rest = neqs[0], neqs[1:]
    # t != 0 over the integers: t <= -1 or -t <= -1
    low = rows + [t + LinTerm.of_const(1)]
    high = rows + [t.scale(-1) + LinTerm.of_const(1)]
    return _split_neqs(low, rest) and _split_neqs(high, rest)


def _add_row(table: dict[tuple, int], coeffs: tuple, const: int) -> bool:
    """Add the row ``coeffs . x + const <= 0`` to ``table``.

    Returns True when the row is a contradictory constant.  The row is
    divided by the gcd of its coefficients and constant (an exact division,
    so no integer rounding), and only the tightest constant is kept for each
    coefficient tuple: both steps keep the rational solutions unchanged.
    """
    if not coeffs:
        return const > 0
    g = const
    for _, c in coeffs:
        g = gcd(g, c)
    if g > 1:
        coeffs = tuple((n, c // g) for n, c in coeffs)
        const //= g
    prev = table.get(coeffs)
    if prev is None or const > prev:
        table[coeffs] = const
    return False


def _fm_rows_unsat(rows: list[LinTerm]) -> bool:
    table: dict[tuple, int] = {}
    for r in rows:
        if _add_row(table, r.coeffs, r.const):
            return True
    while table:
        entries = [(dict(coeffs), coeffs, const) for coeffs, const in table.items()]
        by_sign: dict[str, tuple[list, list]] = {}  # name -> (positive rows, negative rows)
        for row in entries:
            for name, c in row[1]:
                by_sign.setdefault(name, ([], []))[c < 0].append(row)
        # Eliminate the variable producing the fewest combinations.
        x = min(sorted(by_sign), key=lambda n: len(by_sign[n][0]) * len(by_sign[n][1]))
        pos, neg = by_sign[x]
        new: dict[tuple, int] = {k: v for d, k, v in entries if x not in d}
        # A variable unbounded on one side leaves its rows always satisfiable,
        # so they are dropped with no combinations.
        for cp, _, kp in pos:
            a = cp[x]
            for cn, _, kn in neg:
                b = -cn[x]
                acc = {n: c * b for n, c in cp.items()}
                for n, c in cn.items():
                    acc[n] = acc.get(n, 0) + c * a
                coeffs = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
                if _add_row(new, coeffs, kp * b + kn * a):
                    return True
        table = new
    return False


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of ``valid``.  An invalid verdict carries the satisfiable cube
    of the negated VC; its rendering and a small counter-model are computed
    from the cube on first read."""

    kind: str  # "valid" | "invalid" | "unknown"
    cube: frozenset | None = None

    @property
    def is_valid(self) -> bool:
        return self.kind == "valid"

    @cached_property
    def counter_cube(self) -> str | None:
        if self.cube is None:
            return None
        rendered = " && ".join(
            (a.render() if pos else f"!{a.render()}") for a, pos in sorted(self.cube, key=repr)
        )
        return rendered or "true"

    @cached_property
    def model(self) -> dict[str, int] | None:
        """A small model of the cube, searched per name-disjoint component."""
        if self.cube is None:
            return None
        parts = _components((lit, _literal_rows(_literal_cmp(lit))[2]) for lit in self.cube)
        models = [_cube_model(part) for part in parts]
        return None if None in models else dict(sorted(kv for m in models for kv in m.items()))

    def render(self) -> str:
        if self.kind == "valid":
            return "valid"
        if self.kind == "invalid":
            extra = f" model {self.model}" if self.model else ""
            return f"invalid (cube: {self.counter_cube}){extra}"
        return "unknown"


VALID = Verdict("valid")


_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


def _eval_term(t: LinTerm, env: dict[str, int]) -> int:
    return t.const + sum(c * env.get(n, 0) for n, c in t.coeffs)


def eval_atom(atom: Atom, env: dict[str, int]) -> bool:
    """The truth of an atom under an assignment; an unassigned name is 0."""
    atom = _literal_cmp((atom, True))
    return _COMPARE[atom.op](_eval_term(atom.lhs, env), _eval_term(atom.rhs, env))


def _cube_model(cube, bound: int = 8) -> dict[str, int] | None:
    cmps = [_literal_cmp(literal) for literal in cube]
    names = sorted({n for c in cmps for n, _ in (c.lhs - c.rhs).coeffs})
    if len(names) > 3:
        return None
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(names)):
        env = dict(zip(names, combo))
        if all(eval_atom(c, env) for c in cmps):
            return env
    return None


def valid(
    vc: VC, clause_budget: int = DEFAULT_CLAUSE_BUDGET, memo: dict | None = None
) -> Verdict:
    """Check a VC by refuting its negation one component at a time.

    The conjuncts of ``hyps && antecedent && !consequent`` are grouped by
    shared names before any case split, and each group goes to DNF alone:
    the VC is valid once one group has no satisfiable cube, and an invalid
    verdict's cube is the union of each group's first satisfiable one.  The
    clause budget bounds one group; ``ResourceLimit`` is raised only when no
    other group refutes the VC, and names the VC's origin.  ``memo`` keeps
    each conjunct's names and each group's outcome, and reaches every
    ``fm_unsat`` call.
    """
    memo = {} if memo is None else memo
    negated = vc.negated()
    named = []
    for p in negated.parts if isinstance(negated, PAnd) else (negated,):
        names = memo.get(p)
        if names is None:
            names = memo[p] = tuple(pred_names(p))
        named.append((p, names))
    cube: frozenset = frozenset()
    limit = None
    # The smallest components first; among equals the negated consequent's,
    # the likeliest to be refuted.
    for part in sorted(reversed(_components(named)), key=len):
        key = frozenset(part)
        if key not in memo:
            try:
                cubes = dnf_cubes(PAnd(tuple(part)) if len(part) > 1 else part[0], clause_budget)
            except ResourceLimit as exc:
                limit = str(exc)  # not exc: its traceback would keep the DNF alive
                continue
            memo[key] = next((c for c in cubes if not fm_unsat(c, memo)), None)
        if memo[key] is None:
            return VALID
        cube |= memo[key]
    if limit is not None:
        raise ResourceLimit(f"{vc.origin}: {limit}" if vc.origin else str(limit))
    return Verdict("invalid", cube)


# ---------------------------------------------------------------------------
# SMT-LIB2 emission
# ---------------------------------------------------------------------------


def _sexp_term(t: LinTerm) -> str:
    def lit(k: int) -> str:
        return str(k) if k >= 0 else f"(- {-k})"

    parts = []
    for n, c in t.coeffs:
        if c == 1:
            parts.append(n)
        else:
            parts.append(f"(* {lit(c)} {n})")
    if t.const != 0 or not parts:
        parts.append(lit(t.const))
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


def _sexp_pred(p: Pred) -> str:
    match p:
        case PBool(b):
            return "true" if b else "false"
        case PAtom(Cmp(lhs, op, rhs)):
            a, b = _sexp_term(lhs), _sexp_term(rhs)
            if op == "!=":
                return f"(not (= {a} {b}))"
            return f"({op} {a} {b})"
        case PAtom(BVar(n)):
            return f"(= {n} 1)"
        case PNot(inner):
            return f"(not {_sexp_pred(inner)})"
        case PAnd(parts):
            return f"(and {' '.join(_sexp_pred(q) for q in parts)})" if parts else "true"
        case POr(parts):
            return f"(or {' '.join(_sexp_pred(q) for q in parts)})" if parts else "false"
        case PImp(a, b):
            return f"(=> {_sexp_pred(a)} {_sexp_pred(b)})"
        case PIff(a, b):
            return f"(= {_sexp_pred(a)} {_sexp_pred(b)})"
        case PKappa():
            raise ValueError("kappa variable in SMT-LIB emission")
    raise TypeError(f"not a predicate: {p!r}")


def to_smtlib(vc: VC) -> str:
    """Emit the VC as an SMT-LIB2 refutation query (unsat means valid).

    Every name is an ``Int``, in order of first occurrence, and a name used
    as a boolean atom is bounded to [0, 1]."""
    names: dict[str, bool] = {}  # name -> used as a boolean atom
    for p in (*vc.hyps, vc.antecedent, vc.consequent):
        for q in pred_leaves(p):
            match q:
                case PAtom(Cmp(lhs, _, rhs)):
                    for n, _ in lhs.coeffs + rhs.coeffs:
                        names.setdefault(n, False)
                case PAtom(BVar(n)):
                    names[n] = True
                case PKappa():
                    raise ValueError("kappa variable in SMT-LIB emission")
    lines = ["(set-logic QF_LIA)"]
    lines += [f"(declare-const {name} Int)" for name in names]
    lines += [f"(assert (and (<= 0 {name}) (<= {name} 1)))" for name, flag in names.items() if flag]
    hyp = _sexp_pred(pand(vc.hyps)) if vc.hyps else "true"
    body = f"(=> {hyp} (=> {_sexp_pred(vc.antecedent)} {_sexp_pred(vc.consequent)}))"
    lines.append(f"(assert (not {body}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
