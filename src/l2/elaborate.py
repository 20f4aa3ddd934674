"""Phase 1: elaboration of overloaded source programs into the target language.

The declarative judgment is non-deterministic where an intersection, a union
or a DEAD cast is in play: there this module realizes it as a depth-first
backtracking search by one bidirectional walker, ``Elaborator.synth``, and
elsewhere derives it directly (``Elaborator._direct``).  Synthesis runs the
syntax-directed rule for the node alone; checking against an expected type
has a fixed attempt order:

  1. the syntax-directed rule for the node, which pushes the expected type
     into a lambda body, a let body or both branches of an if,
  2. intersection introduction (expected type is an intersection, term is a
     value),
  3. intersection elimination, each conjunct in preorder, first before
     second,
  4. union introduction, first arm before second (flexible mode only),
  5. union elimination over evaluation-context decompositions
     (``syntax.decompose``), leftmost position first,
  6. DEAD-cast insertion, last and in flexible mode only.

Application nodes resolve overloads in two passes over the same head
candidates: the arrows among the head's synthesized types and their
conjuncts, walked by ``_conjuncts`` as intersection elimination walks them.
Every head candidate is tried with a strictly checked argument before any
candidate may fall back to a flexible argument.  Strictly checked arguments
can never acquire a root-level DEAD cast, which is what makes overload
selection meaningful.

Search depth is bounded per node, so elaboration always terminates.  A
typing environment is a chain of ``refine.RefEnv`` frames without
hypotheses, one per (parent, name, type).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterable, Iterator

from . import syntax
from .refine import RefEnv
from .syntax import (
    AndType,
    App,
    Ascribe,
    BOOL,
    Const,
    FunType,
    If,
    Lam,
    Let,
    OrType,
    Pos,
    Program,
    SrcExpr,
    SrcType,
    Var,
    is_value,
    type_tag,
    types_equal_basic,
    wf_type,
)
from .target import TCase, TDead, TInj, TPair, TProj, TgtExpr

STRICT = "strict"
FLEXIBLE = "flexible"

FLAG_INTER = "∧"
FLAG_PLAIN = "∘"

DEFAULT_SEARCH_DEPTH = 64

# A rule trace as a tree: each node is a tuple of rule names and subtraces,
# read left to right.  A node shares its subtraces instead of copying them,
# so traces stay linear in derivation size; ``flatten_trace`` spells a trace
# out once, when ``ElabResult.trace`` is first read.
Trace = tuple


def flatten_trace(trace: Trace) -> tuple[str, ...]:
    """The rule names of a trace tree in order, without recursion."""
    out: list[str] = []
    stack: list = [trace]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack += reversed(item)
    return tuple(out)


class ElabError(Exception):
    def __init__(self, message: str, pos: Pos = None, tried: tuple[str, ...] = ()):
        self.pos = pos
        self.tried = tried
        loc = f"{pos[0]}:{pos[1]}: " if pos else ""
        extra = f" (tried: {', '.join(tried)})" if tried else ""
        super().__init__(f"{loc}{message}{extra}")


@dataclass(frozen=True)
class ElabResult:
    type: SrcType
    target: TgtExpr
    flag: str
    tree: Trace  # the rule trace as a tree

    @cached_property
    def trace(self) -> tuple[str, ...]:
        """The rule names of the derivation in order, spelled out on first read."""
        return flatten_trace(self.tree)


class _MemoEntry:
    __slots__ = ("items", "gen", "done", "running")

    def __init__(self, gen):
        self.items: list = []
        self.gen = gen
        self.done = False
        self.running = False

    def __iter__(self) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
        """The stream's items, pulling each new one from the generator once."""
        i = 0
        while True:
            while i < len(self.items):
                yield self.items[i]
                i += 1
            if self.done or self.running:
                return
            self.running = True
            try:
                nxt = next(self.gen)
            except StopIteration:
                self.done = True
                return
            finally:
                self.running = False
            self.items.append(nxt)


class Elaborator:
    def __init__(self, search_depth: int = DEFAULT_SEARCH_DEPTH):
        self.search_depth = search_depth
        self._fresh = 0
        self._memo: dict = {}
        self._directs: dict = {}  # (env, e, pos, expected) -> derivation or None
        self.empty_env = RefEnv()
        self._frames: dict = {}  # (parent, name, type) -> frame

    def extend(self, env: RefEnv, name: str, t: SrcType) -> RefEnv:
        """env with name bound to t, as a frame without a hypothesis.

        The same extension gives the same frame, so a memo key hashes and
        compares its environment in O(1), by identity.  Environments with
        equal mappings built in another order stay distinct frames: parsed
        programs rename binders apart, so they do not arise there.
        """
        key = (env, name, t)
        frame = self._frames.get(key)
        if frame is None:
            frame = self._frames[key] = RefEnv(env, name, t)
        return frame

    def env_of(self, bindings: dict[str, SrcType]) -> RefEnv:
        env = self.empty_env
        for name, t in bindings.items():
            env = self.extend(env, name, t)
        return env

    def fresh_var(self) -> str:
        self._fresh += 1
        return f"$u{self._fresh}"

    def release(self) -> None:
        """Drop the memos and the frames.  A memoised stream is a suspended
        generator whose frame holds this elaborator, so each memo entry is a
        reference cycle; once they are dropped, everything the search built
        is freed by reference counting, without the cyclic collector."""
        self._memo.clear()
        self._directs.clear()
        self._frames.clear()

    # -- public entry points -------------------------------------------------

    def elaborate_program(self, program: Program) -> ElabResult:
        _check_wf(program.main, ())
        first = None
        try:
            for t, w, flag, trace in self.synth(
                self.empty_env, program.main, FLEXIBLE, self.search_depth
            ):
                if flag == FLAG_PLAIN:
                    return ElabResult(t, w, flag, ("T-TopLevel", trace))
                if first is None:
                    first = ElabResult(t, w, flag, ("T-TopLevel", trace))
        finally:
            self.release()
        if first is not None:
            return first
        raise ElabError(
            "program does not elaborate", _pos_of(program.main), self._root_rules(program.main)
        )

    def check_expr(
        self, env: dict[str, SrcType], e: SrcExpr, expected: SrcType, mode: str = FLEXIBLE
    ) -> tuple[TgtExpr, str]:
        _check_wf(e, (expected, *env.values()), env)
        for _, w, flag, _ in self.synth(self.env_of(env), e, mode, self.search_depth, expected):
            return w, flag
        raise ElabError(
            f"no derivation for expression at type {syntax.print_type(expected)}",
            _pos_of(e),
            self._root_rules(e),
        )

    @staticmethod
    def _root_rules(e: SrcExpr) -> tuple[str, ...]:
        names = {
            Const: "T-Const",
            Var: "T-Var",
            Lam: "T-Lam",
            Ascribe: "T-Ascribe",
            Let: "T-Let",
            If: "T-Ite",
            App: "T-App",
        }
        return (names[type(e)], "T-And-Intro", "T-And-Elim", "T-Up", "T-Down", "T-Dead")

    # -- the walker ------------------------------------------------------------

    def synth(
        self, env: RefEnv, e: SrcExpr, mode: str, depth: int, expected: SrcType | None = None
    ) -> Iterable[tuple[SrcType, TgtExpr, str, Trace]]:
        """e's derivations as (type, target, flag, trace); given an expected
        type, e is checked against it, in the module docstring's order.

        A judgment with no choice in it has one derivation (``_direct``).
        Otherwise backtracking revisits the same judgment many times (union
        arms, application passes, DEAD synthesis); each judgment's
        candidates are computed once and replayed.  A judgment is keyed on e's position as well as
        e: terms compare without their positions, and equal subterms at
        different places each keep their own in the target and in every
        diagnostic.  A stream keeps the depth budget it was created with; a
        reentrant pull of a stream that is already running (left recursion)
        ends that branch of the search.
        """
        key = (env, e, e.pos, expected, mode)
        entry = self._memo.get(key)
        if entry is None:
            d = self._direct(env, e, depth, expected)
            entry = self._memo[key] = (
                (d,) if d else _MemoEntry(self._synth_raw(env, e, mode, depth, expected)))
        return entry

    def _direct(
        self, env: RefEnv, e: SrcExpr, depth: int, expected: SrcType | None
    ) -> tuple[SrcType, TgtExpr, str, Trace] | None:
        """e's derivation when only the syntax-directed rule applies, here and
        below, else None: e is a constant, a variable, a let or an
        application, and no type in the judgment is an intersection or a
        union at the top, so the other rules yield only repeats of it.
        Failures are kept too, so a fallback never redoes an attempt."""
        if depth <= 0 or isinstance(expected, (AndType, OrType)):
            return None
        key = (env, e, e.pos, expected)
        if key in self._directs:
            return self._directs[key]
        d = None
        match e:
            case Const(con):
                d = con.source_type, e, FLAG_PLAIN, ("T-Const",)
            case Var(name):
                d = env.get(name), e, FLAG_PLAIN, ("T-Var",)
            case Let(name, bound, body, pos):
                if d1 := self._direct(env, bound, depth, None):
                    inner = self.extend(env, name, d1[0])
                    if d2 := self._direct(inner, body, depth, expected):
                        w = Let(name, d1[1], d2[1], pos)
                        d = d2[0], w, FLAG_PLAIN, ("T-Let", d1[3], d2[3])
            case App(fn, arg, pos):
                d1 = self._direct(env, fn, depth, None)
                if d1 and isinstance(d1[0], FunType):
                    if d2 := self._direct(env, arg, depth, d1[0].dom):
                        w = App(d1[1], d2[1], pos)
                        d = d1[0].cod, w, FLAG_PLAIN, ("T-App", d1[3], d2[3])
        if d is not None and (d[0] is None or isinstance(d[0], (AndType, OrType)) or (
                expected is not None and not types_equal_basic(d[0], expected))):
            d = None
        self._directs[key] = d
        return d

    def _synth_raw(
        self, env: RefEnv, e: SrcExpr, mode: str, depth: int, expected: SrcType | None
    ) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
        if depth <= 0:
            return
        # The syntax-directed rule
        match e:
            case Const(con):  # a constant or a variable is its own target
                if expected is None or types_equal_basic(con.source_type, expected):
                    yield con.source_type, e, FLAG_PLAIN, ("T-Const",)
            case Var(name):
                t = env.get(name)
                if t is not None and (expected is None or types_equal_basic(t, expected)):
                    yield t, e, FLAG_PLAIN, ("T-Var",)
            case Lam(param, body, pos=pos):
                # a lambda requires an annotation, so it only checks
                if isinstance(expected, FunType):
                    inner = self.extend(env, param, expected.dom)
                    for _, w, _, tr in self.synth(inner, body, mode, depth, expected.cod):
                        yield expected, Lam(param, w, expected, pos), FLAG_PLAIN, ("T-Lam", tr)
            case Ascribe(expr, ty, _):
                if expected is None or types_equal_basic(ty, expected):
                    for _, w, flag, tr in self.synth(env, expr, mode, depth, ty):
                        yield ty, w, flag, ("T-Ascribe", tr)
            case Let(name, bound, body, pos):
                for t1, w1, _, tr1 in self.synth(env, bound, mode, depth):
                    inner = self.extend(env, name, t1)
                    for t2, w2, flag, tr2 in self.synth(inner, body, mode, depth, expected):
                        yield t2, Let(name, w1, w2, pos), flag, ("T-Let", tr1, tr2)
            case If(cond, then, els, pos):
                for _, wc, fc, trc in self.synth(env, cond, FLEXIBLE, depth, BOOL):
                    if fc != FLAG_PLAIN:
                        continue
                    for t1, wt, f1, trt in self.synth(env, then, mode, depth, expected):
                        for t2, we, f2, trf in self.synth(env, els, mode, depth, expected):
                            if expected is not None or types_equal_basic(t1, t2):
                                flag = f1 if f1 == f2 else FLAG_PLAIN
                                yield t1, If(wc, wt, we, pos), flag, ("T-Ite", trc, trt, trf)
            case App():
                yield from self._app(env, e, mode, depth, expected)
                if expected is not None and mode == FLEXIBLE:
                    # A non-function head can still be applied under a DEAD cast
                    # whose target arrow takes the argument's type to the
                    # expected type.
                    for t0, w0, f0, tr0 in self.synth(env, e.fn, FLEXIBLE, depth - 1):
                        if syntax.TAG_FUNCTION in type_tag(t0):
                            continue
                        for ta, wa, _, tra in self.synth(env, e.arg, FLEXIBLE, depth - 1):
                            dead = TDead(t0, FunType(ta, expected), w0, _pos_of(e.fn))
                            yield (expected, App(dead, wa, e.pos), FLAG_PLAIN,
                                   ("T-App", "T-Dead", tr0, tra))
        if expected is None:
            return
        # T-And-Intro
        if isinstance(expected, AndType) and is_value(e):
            for _, w1, f1, tr1 in self.synth(env, e, mode, depth - 1, expected.left):
                for _, w2, f2, tr2 in self.synth(env, e, mode, depth - 1, expected.right):
                    flag = f1 if f1 == f2 else FLAG_PLAIN
                    yield expected, TPair(w1, w2, _pos_of(e)), flag, ("T-And-Intro", tr1, tr2)
        # T-And-Elim: every conjunct below the synthesized type, in preorder
        for candidate in self.synth(env, e, mode, depth - 1):
            for t, w, flag, tr in itertools.islice(_conjuncts(*candidate), 1, None):
                if types_equal_basic(t, expected):
                    yield t, w, flag, tr
        # T-Up (flexible only).  Arms whose payload elaborates without a
        # root-level cast are preferred: injecting a value into an arm it
        # does not inhabit would make the runtime tag dispatch diverge from
        # the source.
        if mode == FLEXIBLE and isinstance(expected, OrType):
            arms = ((1, expected.left), (2, expected.right))
            for cast_free in (True, False):
                for k, arm in arms:
                    for _, w, flag, tr in self.synth(env, e, FLEXIBLE, depth - 1, arm):
                        if isinstance(w, TDead) == cast_free:
                            continue
                        yield expected, TInj(k, w, expected, _pos_of(e)), flag, ("T-Up", tr)
        # T-Down
        for plug, e0 in syntax.decompose(e):
            for t0, w0, _, tr0 in self.synth(env, e0, mode, depth - 1):
                if isinstance(t0, OrType):
                    yield from self._union_split(
                        env, e0, t0, w0, tr0, plug, expected, mode, depth - 1
                    )
                break  # only the primary synthesis drives the split
        # T-Dead (flexible only)
        if mode == FLEXIBLE:
            for t0, w0, flag, tr in self.synth(env, e, FLEXIBLE, depth - 1):
                if syntax.tags_disjoint(t0, expected):
                    dead = TDead(t0, expected, w0, _pos_of(e))
                    yield expected, dead, flag, ("T-Dead", tr)

    HEAD_CAP = 16

    def _app(
        self, env: RefEnv, e: App, mode: str, depth: int, cod: SrcType | None = None
    ) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
        """T-App over the head candidates whose result type is ``cod``.

        The heads are the arrows among the head's synthesized types and
        their conjuncts, capped: distinct derivations of the same head type
        differ only in the target term, so a small cap loses nothing in
        practice while keeping the backtracking product bounded.  Every head
        is first tried with a strictly checked argument; a flexible argument
        is tried only where no overload was chosen.
        """
        for arg_mode in (STRICT, FLEXIBLE):
            heads = (
                head
                for candidate in self.synth(env, e.fn, mode, depth)
                for head in _conjuncts(*candidate)
                if isinstance(head[0], FunType)
                and (cod is None or types_equal_basic(head[0].cod, cod))
            )
            for arrow, w1, f1, tr1 in itertools.islice(heads, self.HEAD_CAP):
                if arg_mode == FLEXIBLE and f1 == FLAG_INTER:
                    continue
                for _, w2, _, tr2 in self.synth(env, e.arg, arg_mode, depth, arrow.dom):
                    yield arrow.cod, App(w1, w2, e.pos), FLAG_PLAIN, ("T-App", tr1, tr2)

    # -- union elimination -------------------------------------------------

    def _union_split(
        self,
        env: RefEnv,
        e0: SrcExpr,
        t0: OrType,
        w0: TgtExpr,
        tr0: Trace,
        plug: Callable[[SrcExpr], SrcExpr],
        expected: SrcType,
        mode: str,
        depth: int,
    ) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
        x1 = self.fresh_var()
        x2 = self.fresh_var()
        env1 = self.extend(env, x1, t0.left)
        env2 = self.extend(env, x2, t0.right)
        pos = _pos_of(e0)  # each binder's occurrence stands where e0 stood
        for _, w1, f1, tr1 in self.synth(env1, plug(Var(x1, pos)), mode, depth, expected):
            for _, w2, f2, tr2 in self.synth(env2, plug(Var(x2, pos)), mode, depth, expected):
                flag = f1 if f1 == f2 else FLAG_PLAIN
                yield (
                    expected,
                    TCase(w0, x1, w1, x2, w2, _pos_of(e0)),
                    flag,
                    ("T-Down", tr0, tr1, tr2),
                )


def _conjuncts(
    t: SrcType, w: TgtExpr, flag: str, trace: Trace
) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
    """(t, w, flag, trace), then each conjunct of t in preorder with its
    projection out of w, flagged as an intersection elimination."""
    stack = [(t, w, flag, trace)]
    while stack:
        item = stack.pop()
        yield item
        t, w, _, trace = item
        if isinstance(t, AndType):
            trace = (trace, "T-And-Elim")
            stack.append((t.right, TProj(2, w), FLAG_INTER, trace))
            stack.append((t.left, TProj(1, w), FLAG_INTER, trace))


def _pos_of(e: SrcExpr) -> Pos:
    return getattr(e, "pos", None)


def _check_wf(e: SrcExpr, types: tuple[SrcType, ...], names: Container[str] = ()) -> None:
    """Raise ElabError on the first ill-formed type of types, placed at e, or
    of e's ascriptions.  Every type the search meets is BOOL, a constant's
    type or a part of one of these, so the search checks none.  A name an
    ascribed refinement mentions, other than v, must be bound where it is
    written: by a binder around the ascription or among ``names``."""
    ascribed = [a for a in syntax.subexprs(e) if isinstance(a, Ascribe)]
    for t, pos in [(t, _pos_of(e)) for t in types] + [(a.ty, a.pos) for a in ascribed]:
        report = wf_type(t)
        if not report.ok:
            raise ElabError(f"ill-formed annotation {syntax.print_type(t)}: {report.reason}", pos)
    if not any(syntax.refined_names(a.ty) for a in ascribed):
        return
    for a, bound in syntax.scoped(e):
        if isinstance(a, Ascribe):
            for name in sorted(syntax.refined_names(a.ty)):
                if not bound.get(name) and name not in names:
                    raise ElabError(f"refinement names unbound variable {name}: "
                                    f"{syntax.print_type(a.ty)}", a.pos)


def elaborate_program(program: Program, search_depth: int = DEFAULT_SEARCH_DEPTH) -> ElabResult:
    return Elaborator(search_depth).elaborate_program(program)


def check_expr(
    env: dict[str, SrcType], e: SrcExpr, expected: SrcType, mode: str = FLEXIBLE
) -> tuple[TgtExpr, str]:
    elaborator = Elaborator(DEFAULT_SEARCH_DEPTH)
    try:
        return elaborator.check_expr(env, e, expected, mode)
    finally:
        elaborator.release()
