"""Predicate language and validity checking for verification conditions.

The logic is quantifier-free linear integer arithmetic over one sort.  A
boolean is the integer 1 (true) or 0 (false), and the atom ``b`` means
``b = 1``, so substitution, discharge and SMT-LIB emission treat every name
alike.  A verification condition ``H1 ... Hn => (p => q)`` is discharged
in-process: its conjuncts are grouped into components that share no names,
and the VC is valid once one component of its negation is refuted, by
normalizing it to disjunctive normal form and refuting every cube with an
integer-tightened Fourier-Motzkin elimination.  "valid" verdicts are sound:
a reported tautology has no integer counter-model.  Cubes that are
satisfiable over the rationals but not the integers are conservatively
reported as invalid.

Discharge does no work it can avoid.  The hypotheses are grouped once for
every VC that shares them (``Premises``, kept by each environment frame a VC
is built on, in phase 2 or for a Houdini clause body), and each VC adds only
its antecedent and negated consequent.  DNF size is a sum over components,
not a product.  A cube, too, is decided one component of variable-sharing
literals at a time, by one search that also finds the component's integer
model: each node is eliminated once and back-substituted, and a disequality
is split into its two strict halves only when the values found violate it.
A memo shared by the ``valid`` calls of one Houdini solve or refinement
check keeps each conjunct's names, literal's rows and component's outcome,
from which ``cube_model`` reads an invalid verdict's counter-model.
Elimination keeps its rows reduced by their exact gcd and holds only the
tightest of rows with the same coefficients.

Predicates are traversed by two shared walkers: ``pred_leaves`` lists the
constants, atoms and kappa applications left to right without recursion, and
``map_pred`` rebuilds a predicate through the smart constructors from a
per-leaf function.  Kappa queries, substitution, kappa instantiation and the
SMT-LIB declarations are written on top of them.  DNF reads a predicate under
a polarity, so no negation normal form is built.  This bottom module holds
the one printer of predicates, types and terms, ``print_expr``, which reads
class templates (``template``) without recursion from ``SYNTAX``, the source
and VC notation, or from ``SMTLIB``, the SMT-LIB2 queries that cross-check
verification conditions with an external solver.
"""

from __future__ import annotations

import itertools
import operator
import string
from dataclasses import dataclass, field, fields
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
    def of_var(name: str) -> LinTerm:
        return LinTerm(((name, 1),), 0)

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

    def subst_vars(self, repl: dict[str, LinTerm]) -> LinTerm:
        """Substitute ``repl[n]`` for every name n it maps, all at once."""
        if not any(n in repl for n, _ in self.coeffs):
            return self
        out = LinTerm(tuple((n, c) for n, c in self.coeffs if n not in repl), self.const)
        for n, c in self.coeffs:
            if n in repl:
                out = out + repl[n].scale(c)
        return out

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    def render(self) -> str:
        if not self.coeffs:
            return str(self.const)
        terms = [(c, n if abs(c) == 1 else f"{abs(c)}*{n}") for n, c in self.coeffs]
        terms += [(self.const, str(abs(self.const)))] if self.const else []
        text = "".join(f" {'-' if c < 0 else '+'} {t}" for c, t in terms)
        return text[3:] if text[1] == "+" else "-" + text[3:]


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


def _connective(parts, cls: type, unit: PBool) -> Pred:
    """The flattened conjunction (``pand``) or disjunction (``por``) of
    parts, whose ``unit`` is dropped and whose other constant absorbs it."""
    flat: list[Pred] = []
    for p in parts:
        if isinstance(p, PBool):
            if p.value != unit.value:
                return FALSE if unit.value else TRUE
            continue
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def pand(parts) -> Pred:
    return _connective(parts, PAnd, TRUE)


def por(parts) -> Pred:
    return _connective(parts, POr, FALSE)


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
    """Substitute the linear term ``repl`` for ``name`` in p."""
    return subst_names(p, {name: repl})


def subst_names(p: Pred, repl: dict[str, LinTerm]) -> Pred:
    """Substitute ``repl[n]`` for every name n it maps, all at once.

    A boolean is the integer 1 or 0, so the atom ``n`` becomes the atom of
    a variable term, the truth value of a constant one, and ``repl[n] = 1``
    for any other term.
    """

    def leaf(q: Pred) -> Pred:
        match q:
            case PAtom(Cmp(lhs, op, rhs)):
                return PAtom(Cmp(lhs.subst_vars(repl), op, rhs.subst_vars(repl)))
            case PAtom(BVar(n)) if n in repl:
                match repl[n]:
                    case LinTerm(((var, 1),), 0):
                        return PAtom(BVar(var))
                    case LinTerm((), k):
                        return PBool(k == 1)
                return cmp_pred(repl[n], "=", LinTerm.of_const(1))
            case PBool() | PAtom(BVar()):
                return q
            case PKappa(k, subst):
                # Rewrite recorded values, and record the new entries unless a
                # name was already consumed by an earlier substitution.  Names
                # in the reserved $ namespace never occur in solved refinements
                # (candidates range over the value variable and program names),
                # so substitutions for them are dropped rather than recorded.
                entries = tuple((n, v.subst_vars(repl)) for n, v in subst)
                seen = {n for n, _ in subst}
                entries += tuple((n, v) for n, v in repl.items()
                                 if not n.startswith("$") and n not in seen)
                return PKappa(k, entries)
        raise TypeError(f"not a predicate: {q!r}")

    return map_pred(p, leaf)


def instantiate_kappas(p: Pred, assignment: dict[str, Pred]) -> Pred:
    """Replace every kappa application with its assigned predicate, its
    substitution made as one simultaneous substitution."""

    def leaf(q: Pred) -> Pred:
        if not isinstance(q, PKappa):
            return q
        body = assignment[q.kappa]
        return subst_names(body, dict(q.subst)) if q.subst else body

    return map_pred(p, leaf)


# ---------------------------------------------------------------------------
# Concrete syntax and canonical keys
# ---------------------------------------------------------------------------


# Predicate, type or term class -> (parts, loosest): its concrete syntax in the
# source notation, its own precedence, and text and fields to print (``template``).
SYNTAX: dict[type, tuple[tuple, int]] = {}


def template(show: str, loosest: int) -> tuple[tuple, int]:
    """A class's concrete syntax read off ``show``: ``{field:p}`` prints the
    field as a node in a position that asks for precedence p (more than
    ``loosest`` parenthesises it), ``{field:p:sep}`` prints a tuple of nodes
    so, with ``sep`` between them, and ``{field}`` prints it with str.  Each
    part is literal text or (getter, precedence or None, separator or None)."""
    parts: list = []
    for literal, name, spec, _ in string.Formatter().parse(show):
        if literal:
            parts.append(literal)
        if name is not None:
            prec, _, sep = spec.partition(":")
            parts.append((operator.attrgetter(name), int(prec) if prec else None, sep or None))
    return tuple(parts), loosest


def print_expr(e, table: dict[type, tuple[tuple, int]] = SYNTAX) -> str:
    """A predicate, type or term in concrete syntax, read off ``table``'s
    templates (the source notation by default) without recursion: every node
    in it, a term's ascribed and DEAD-cast types too, on one stack."""
    out: list[str] = []
    stack: list = [(e, 0)]  # text to emit, or (node, precedence) to print
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, prec = item
        parts, loosest = table[type(e)]
        if prec > loosest:
            stack.append(")")
        for part in reversed(parts):
            if type(part) is str:
                stack.append(part)
            elif part[1] is None:
                stack.append(str(part[0](e)))
            else:  # the node, or the nodes with the separator between them
                get, p, sep = part
                nodes = get(e) if sep else (get(e),)
                stack += reversed([x for node in nodes for x in (sep, (node, p))][1:])
        if prec > loosest:
            stack.append("(")
    return "".join(out)


def _show_leaf(p: PBool | PAtom | PKappa) -> str:
    match p:
        case PBool(b):
            return "true" if b else "false"
        case PAtom(a):
            return a.render()
    return f"{p.kappa}[{', '.join(f'{v.render()}/{n}' for n, v in p.subst)}]"


# A connective binds loosest and parenthesises a connective beneath it; nothing
# else is parenthesised, so ``parser.parse_pred`` reads each print back.  A
# kappa application keeps its brackets when it substitutes nothing (``k2[]``),
# so it never reads back as a boolean variable.
SYNTAX.update({cls: (((_show_leaf, None, None),), 3) for cls in (PBool, PAtom, PKappa)})
SYNTAX[PNot] = template("!({inner:0})", 3)
SYNTAX[PAnd] = template("{parts:1: && }", 0)
SYNTAX[POr] = template("{parts:1: || }", 0)
SYNTAX[PImp] = template("{hyp:1} => {concl:1}", 0)
SYNTAX[PIff] = template("{left:1} <=> {right:1}", 0)


render_pred = print_expr  # a predicate in the source notation


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
    """Implication ``hyps => (antecedent => consequent)``.

    Phase 2 builds a VC on its environment frame (``on``, a ``refine.RefEnv``),
    which keeps its hypotheses grouped (``Premises``) and reads ``hyps`` and
    ``scope`` off the chain only when they are asked for.  A VC built from a
    tuple of hypotheses has no frame, and ``valid`` groups them by the same fold.
    """

    hyps: tuple[Pred, ...]
    antecedent: Pred
    consequent: Pred
    origin: str = ""
    scope: tuple[str, ...] = field(default_factory=tuple, compare=False)  # bound at a number type
    env: object = field(default=None, compare=False, repr=False)

    @staticmethod
    def on(env, antecedent: Pred, consequent: Pred, origin: str) -> VC:
        vc = object.__new__(VC)
        vc.__dict__.update(env=env, antecedent=antecedent, consequent=consequent, origin=origin)
        return vc

    def __getattr__(self, name: str):  # a frame's VC's hyps and scope, each read once
        if name not in ("hyps", "scope") or self.env is None:
            raise AttributeError(name)
        value = self.env.flatten() if name == "hyps" else self.env.number_names()
        self.__dict__[name] = value
        return value

    def negated(self) -> Pred:
        return pand(list(self.hyps) + [self.antecedent, pnot(self.consequent)])

    def render(self) -> str:
        """Its printed form, which ``parser.parse_pred`` reads back: every
        compound part is parenthesised."""
        hyps = self.hyps or (TRUE,)
        hyp = print_expr(PAnd(hyps) if len(hyps) > 1 else hyps[0])
        return f"({hyp}) => ({print_expr(PImp(self.antecedent, self.consequent))})"

    def key(self):
        return (
            tuple(sorted(set(k for k in (pred_key(h) for h in self.hyps) if k != ("bool", True)))),
            pred_key(self.antecedent),
            pred_key(self.consequent),
        )


def is_tautology(vc: VC) -> bool:
    """True when the VC holds for structural reasons alone.

    Covers a true consequent and a false antecedent or hypothesis, which a
    VC built on a frame reads off the frame's record.  A reflexive implication
    between kappa applications is dropped too: it holds under every solution,
    so it constrains nothing.  Concrete reflexive obligations are kept and
    discharged like any other.
    """
    if is_true(vc.consequent):
        return True
    if is_false(vc.antecedent):
        return True
    if contains_kappa(vc.consequent) and pred_key(vc.antecedent) == pred_key(vc.consequent):
        return True
    return vc.env.grouped is FALSE_PREMISES if vc.env else any(is_false(h) for h in vc.hyps)


# ---------------------------------------------------------------------------
# DNF
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


def _dnf(p: Pred, neg: bool, budget: int) -> list[frozenset]:
    """The cubes of p, or of its negation when ``neg``."""
    match p:
        case PBool(b):
            return [frozenset()] if b != neg else []
        case PAtom(Cmp() as c):
            return [frozenset([(c.flip() if neg else c, True)])]
        case PAtom(BVar() as b):
            return [frozenset([(b, not neg)])]
        case PNot(inner):
            return _dnf(inner, not neg, budget)
        case PAnd(parts) | POr(parts):
            kids, disjunction = [(q, neg) for q in parts], isinstance(p, POr) != neg
        case PImp(a, b):
            kids, disjunction = [(a, not neg), (b, neg)], not neg
        case PIff(a, b):
            return _dnf(POr((PAnd((a, b)), PAnd((pnot(a), pnot(b))))), neg, budget)
        case PKappa():
            raise ValueError("kappa variable reached the decision procedure")
        case _:
            raise TypeError(f"not a predicate: {p!r}")
    # a disjunction's cubes are its children's, a conjunction's their product
    cubes: list[frozenset] = [] if disjunction else [frozenset()]
    for kid in kids:
        kid_cubes = _dnf(*kid, budget)
        if disjunction:
            cubes.extend(kid_cubes)
        else:
            cubes = [a | b for a in cubes for b in kid_cubes]
        if len(cubes) > budget:
            raise ResourceLimit(f"DNF clause budget {budget} exceeded")
    return cubes


def dnf_cubes(p: Pred, budget: int = DEFAULT_CLAUSE_BUDGET) -> list[frozenset]:
    return _dnf(p, False, budget)


# ---------------------------------------------------------------------------
# Fourier-Motzkin over integer-tightened rows
# ---------------------------------------------------------------------------


def fm_unsat(literals, memo: dict | None = None) -> bool:
    """Decide a conjunction of comparison and boolean literals.

    Returns True only when a genuine contradiction is derived, so a True
    answer means no integer model exists.  A boolean literal is the row
    ``b = 1`` or ``b = 0`` (``_literal_cmp``), and strict inequalities are
    tightened over the integers.  Each component of literals sharing
    variables is decided alone, fewest disequalities first, by one search
    (``_search``).  ``memo`` keeps each literal's rows and each component's
    outcome, model included, for later calls and for ``cube_model``.
    """
    return any(outcome is True for _, outcome in _outcomes(literals, memo))


def _outcomes(literals, memo: dict | None, names: frozenset[str] | None = None):
    """Each component of the literals with its outcome (``_search``), fewest
    disequalities first; with ``names``, only the components that mention
    one of them.  An outcome depends on the literals only as a set."""
    memo = {} if memo is None else memo
    forms = []
    for literal in literals:
        form = memo.get(literal)
        if form is None:
            form = memo[literal] = _literal_rows(_literal_cmp(literal))
        forms.append((literal, form))
    parts = _components((pair, pair[1][2]) for pair in forms)
    for part in sorted(parts, key=lambda part: sum(len(form[1]) for _, form in part)):
        if names is not None and not any(n in names for _, form in part for n in form[2]):
            continue
        key = frozenset(literal for literal, _ in part)
        if key not in memo:
            neqs = sorted((t for _, form in part for t in form[1]), key=lambda t: (t.coeffs, t.const))
            memo[key] = _search([row for _, form in part for row in form[0]], neqs)
        yield part, memo[key]


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


def _search(rows: list[LinTerm], neqs: list[LinTerm]):
    """Decide the rows (``row <= 0``) and disequalities (``term != 0``) over
    the integers: True when they are refuted, integers satisfying them all,
    or None when they are satisfiable over the rationals but no integer
    point was found.  Each node runs Fourier-Motzkin once and
    back-substitutes from its stages.  A disequality is split into its two
    strict halves, lower first, only when the values found violate it, or,
    when no integers are found, the first one given.  The halves cover
    every integer and adding rows keeps refuted rows refuted, so the node
    is refuted exactly when splitting every disequality leaves only refuted
    rows."""
    stages: list = []
    if _fm_rows_unsat(rows, stages):
        return True
    env = _back_substitute(stages)
    bad = next((t for t in neqs if env is None or _eval_term(t, env) == 0), None)  # to split
    if bad is None:
        return env
    rest = [t for t in neqs if t is not bad]
    low = _search(rows + [bad + LinTerm.of_const(1)], rest)
    if type(low) is dict:
        return low
    high = _search(rows + [bad.scale(-1) + LinTerm.of_const(1)], rest)
    return high if low is True or type(high) is dict else None


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


def _fm_rows_unsat(rows: list[LinTerm], stages: list) -> bool:
    """Whether the rows (``row <= 0``) have no rational solution, by
    Fourier-Motzkin elimination.  ``stages`` receives each eliminated
    variable with its rows of positive and of negative coefficient, for
    ``_back_substitute``."""
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
        stages.append((x, pos, neg))
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
    of the negated VC, whose model ``cube_model`` reads."""

    kind: str  # "valid" | "invalid" | "unknown"
    cube: frozenset | None = None

    @property
    def is_valid(self) -> bool:
        return self.kind == "valid"


VALID = Verdict("valid")


_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


def _eval_term(t: LinTerm, env: dict[str, int]) -> int:
    return t.const + sum(c * env.get(n, 0) for n, c in t.coeffs)


def eval_atom(atom: Atom, env: dict[str, int]) -> bool:
    """The truth of an atom under an assignment; an unassigned name is 0."""
    atom = _literal_cmp((atom, True))
    return _COMPARE[atom.op](_eval_term(atom.lhs, env), _eval_term(atom.rhs, env))


def _back_substitute(stages: list) -> dict[str, int] | None:
    """Integers satisfying the rows ``_fm_rows_unsat`` eliminated in these
    stages, by back-substitution: the variables are assigned in the reverse
    order of their elimination, each the value nearest 0 between its bounds
    under the values already chosen (a name dropped without being
    eliminated is 0).  None when a variable's bounds admit no integer."""
    env: dict[str, int] = {}
    for x, pos, neg in reversed(stages):
        lo, hi = None, None
        for bounds in (pos, neg):
            for cx, coeffs, const in bounds:  # a*x + rest <= 0
                a = cx[x]
                rest = const + sum(c * env.setdefault(n, 0) for n, c in coeffs if n != x)
                if a > 0:
                    hi = -rest // a if hi is None else min(hi, -rest // a)
                else:
                    lo = -(rest // a) if lo is None else max(lo, -(rest // a))
        if lo is not None and hi is not None and lo > hi:
            return None
        env[x] = lo if lo is not None and lo > 0 else hi if hi is not None and hi < 0 else 0
    return env


def cube_model(cube, names: frozenset[str] | None = None,
               memo: dict | None = None) -> dict[str, int] | None:
    """An integer model of the cube, merged from the models its components'
    searches found (``_search``), each read from ``memo`` when ``fm_unsat``
    has decided it there, and confirmed literal by literal with
    ``eval_atom``; with ``names``, of only the components that mention one
    of them.  None when one of those components has none.  A search depends
    on the literals only as a set, so the model does not depend on their
    order or on string hashing."""
    model: dict[str, int] = {}
    for part, env in _outcomes(cube, memo, names):
        if type(env) is not dict:
            return None
        part_model = {n: env.get(n, 0) for _, form in part for n in form[2]}
        if not all(eval_atom(_literal_cmp(literal), part_model) for literal, _ in part):
            return None
        model.update(part_model)
    return dict(sorted(model.items()))


def _names(p: Pred, memo: dict) -> tuple[str, ...]:
    names = memo.get(p)
    if names is None:
        names = memo[p] = tuple(pred_names(p))
    return names


_POSITIONS = itertools.count()  # a conjunct's place: later along every chain


class Premises:
    """Hypotheses grouped into name-sharing components, extended one conjunct
    at a time and persistently: ``extend`` makes a new version and keeps this
    one.  The versions share one store, each name's component as its names
    and its (position, conjunct) pairs in position order (a conjunct without
    names is filed under its position), which holds the version last used;
    every other one keeps the changes that make it from a neighbour, replayed
    when it is used (Baker's rerooting, the persistent form of an SMT
    solver's assertion stack)."""

    __slots__ = ("_store",)

    def __init__(self) -> None:
        self._store: dict | tuple = {}  # the store, or (a neighbour, the changes from it)

    def extend(self, preds, memo: dict) -> Premises:
        """These premises and the conjuncts of preds, as a new version."""
        path = [self]
        while type(path[-1]._store) is tuple:
            path.append(path[-1]._store[0])
        store, back, body = path[-1]._store, {}, pand(preds)
        for node, version in zip(path[:0:-1], path[-2::-1]):  # hand the store down to self
            changes = version._store[1]
            node._store = version, {k: store.get(k) for k in changes}
            store.update(changes)
            version._store = store
        for p in () if body is TRUE else body.parts if isinstance(body, PAnd) else (body,):
            names, pos = _names(p, memo), next(_POSITIONS)
            touched = [*{id(q): q for q in map(store.get, names) if q}.values()]
            names = frozenset(names).union(*(q[0] for q in touched))
            items = touched[0][1] if len(touched) == 1 else sorted(i for q in touched for i in q[1])
            merged = names, (*items, (pos, p))
            for k in names or (pos,):
                back.setdefault(k, store.get(k))  # None: absent
                store[k] = merged
        new = Premises()
        new._store, self._store = store, (new, back)
        return new


# The premises of every frame under a literally false hypothesis.
FALSE_PREMISES = Premises().extend((FALSE,), {})


def valid(vc: VC, clause_budget: int = DEFAULT_CLAUSE_BUDGET, memo: dict | None = None) -> Verdict:
    """Check a VC by refuting its negation one component at a time.

    The hypotheses are grouped (``Premises``) by the VC's frame, once for
    every VC under it, or else here.  The antecedent and the negated
    consequent join the components they share a name with, and each
    component goes to DNF alone: the VC is valid once one has no satisfiable
    cube, and an invalid verdict's cube is the union of each component's
    first satisfiable one.  The goal's components go first, then the rest,
    each the smallest first.  The clause budget bounds one component;
    ``ResourceLimit`` is raised only when no other component refutes the VC,
    and names the VC's origin.  ``memo`` keeps each conjunct's names and each
    component's outcome, and reaches every ``fm_unsat`` call.
    """
    memo = {} if memo is None else memo
    premises = vc.env.premises(memo) if vc.env else Premises().extend(vc.hyps, memo)
    store = premises.extend((vc.antecedent, pnot(vc.consequent)), memo)._store
    goal = {id(store[k]): store[k] for k in premises._store[1]}  # the components it grew

    def components():  # the goal's, then the rest; the smallest first, the one starting last
        yield from sorted(goal.values(), key=lambda p: (len(p[1]), -p[1][0][0]))
        rest = {id(p): p for p in store.values() if p and id(p) not in goal}
        yield from sorted(rest.values(), key=lambda p: (len(p[1]), -p[1][0][0]))

    cube: frozenset = frozenset()
    limit = None
    for _, part in components():
        preds = [p for _, p in part]
        key = frozenset(preds)
        if key not in memo:
            try:
                cubes = dnf_cubes(PAnd(tuple(preds)) if len(preds) > 1 else preds[0], clause_budget)
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


def _sexp_leaf(p: PBool | PAtom) -> str:
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


# SMT-LIB's notation, for ``print_expr``: every connective is a parenthesised
# prefix application, so nothing is parenthesised for precedence.  A kappa
# application has no entry; ``to_smtlib`` rejects it first.
SMTLIB = {PBool: (((_sexp_leaf, None, None),), 0), PAtom: (((_sexp_leaf, None, None),), 0),
          PNot: template("(not {inner:0})", 0), PAnd: template("(and {parts:0: })", 0),
          POr: template("(or {parts:0: })", 0), PImp: template("(=> {hyp:0} {concl:0})", 0),
          PIff: template("(= {left:0} {right:0})", 0)}


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
    body = PImp(pand(vc.hyps), PImp(vc.antecedent, vc.consequent))
    lines.append(f"(assert (not {print_expr(body, SMTLIB)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
