"""Phase 1: elaboration of overloaded source programs into the target language.

The declarative judgment is inherently non-deterministic, so this module
realizes it as a depth-first backtracking search with a fixed attempt order
at every node:

  1. the syntax-directed rule for the node,
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

Search depth is bounded per node, so elaboration always terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from . import syntax
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
from .target import (
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
)

STRICT = "strict"
FLEXIBLE = "flexible"

FLAG_INTER = "∧"
FLAG_PLAIN = "∘"

DEFAULT_SEARCH_DEPTH = 64

# A rule trace as a tree: each node is a tuple of rule names and subtraces,
# read left to right.  A node shares its subtraces instead of copying them,
# so traces stay linear in derivation size; ``flatten_trace`` spells a trace
# out once, for ``ElabResult``.
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
    trace: tuple[str, ...]


class _MemoEntry:
    __slots__ = ("items", "gen", "done", "running")

    def __init__(self, gen):
        self.items: list = []
        self.gen = gen
        self.done = False
        self.running = False


class TypeEnv:
    """A typing environment: one binding over a shared parent frame.

    Extending an environment adds one frame and copies nothing.  Frames are
    made by ``Elaborator.extend``, one per (parent, name, type), so a memo key
    hashes and compares its environment in O(1), by identity.  Environments
    with equal mappings built in another order stay distinct frames: parsed
    programs rename binders apart, so they do not arise there.
    """

    __slots__ = ("parent", "name", "type")

    def __init__(self, parent: TypeEnv | None, name: str, type_: SrcType | None):
        self.parent = parent
        self.name = name
        self.type = type_

    def get(self, name: str) -> SrcType | None:
        env = self
        while env.parent is not None:
            if env.name == name:
                return env.type
            env = env.parent
        return None


class Elaborator:
    def __init__(self, search_depth: int = DEFAULT_SEARCH_DEPTH):
        self.search_depth = search_depth
        self._fresh = 0
        self._memo: dict = {}
        self.empty_env = TypeEnv(None, "", None)
        self._frames: dict = {}  # (parent, name, type) -> frame

    def extend(self, env: TypeEnv, name: str, t: SrcType) -> TypeEnv:
        """env with name bound to t; the same frame for the same extension."""
        key = (env, name, t)
        frame = self._frames.get(key)
        if frame is None:
            frame = self._frames[key] = TypeEnv(env, name, t)
        return frame

    def env_of(self, bindings: dict[str, SrcType]) -> TypeEnv:
        env = self.empty_env
        for name, t in bindings.items():
            env = self.extend(env, name, t)
        return env

    def fresh_var(self, hint: str = "u") -> str:
        self._fresh += 1
        return f"${hint}{self._fresh}"

    def _replay(self, key, make):
        """Memoized candidate streams.

        Backtracking revisits the same judgment many times (union arms,
        application passes, DEAD synthesis); each judgment's candidates are
        computed once and replayed.  A stream keeps the depth budget it was
        created with; a reentrant pull of a stream that is already running
        (left recursion) ends that branch of the search.
        """
        entry = self._memo.get(key)
        if entry is None:
            entry = _MemoEntry(make())
            self._memo[key] = entry
        i = 0
        while True:
            while i < len(entry.items):
                yield entry.items[i]
                i += 1
            if entry.done or entry.running:
                return
            entry.running = True
            try:
                nxt = next(entry.gen)
            except StopIteration:
                entry.done = True
                return
            finally:
                entry.running = False
            entry.items.append(nxt)

    def release(self) -> None:
        """Drop the memo and the frames.  A memoised stream is a suspended
        generator whose frame holds this elaborator, so each memo entry is a
        reference cycle; once they are dropped, everything the search built
        is freed by reference counting, without the cyclic collector."""
        self._memo.clear()
        self._frames.clear()

    # -- public entry points -------------------------------------------------

    def elaborate_program(self, program: Program) -> ElabResult:
        ascriptions = (a for a in syntax.subexprs(program.main) if isinstance(a, Ascribe))
        for a in ascriptions:
            report = wf_type(a.ty)
            if not report.ok:
                raise ElabError(
                    f"ill-formed annotation {syntax.print_type(a.ty)}: {report.reason}", a.pos
                )
        first = None
        try:
            for t, w, flag, trace in self.synth(
                self.empty_env, program.main, FLEXIBLE, self.search_depth
            ):
                if flag == FLAG_PLAIN:
                    return ElabResult(t, w, flag, flatten_trace(("T-TopLevel", trace)))
                if first is None:
                    first = ElabResult(t, w, flag, flatten_trace(("T-TopLevel", trace)))
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
        for w, flag, _ in self.check(self.env_of(env), e, expected, mode, self.search_depth):
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

    # -- checking ------------------------------------------------------------

    def check(
        self, env: TypeEnv, e: SrcExpr, expected: SrcType, mode: str, depth: int
    ) -> Iterator[tuple[TgtExpr, str, Trace]]:
        key = ("check", env, e, expected, mode)
        return self._replay(key, lambda: self._check_raw(env, e, expected, mode, depth))

    def _check_raw(
        self, env: TypeEnv, e: SrcExpr, expected: SrcType, mode: str, depth: int
    ) -> Iterator[tuple[TgtExpr, str, Trace]]:
        if depth <= 0:
            return
        # The syntax-directed rule
        match e:
            case Const(con, pos):
                if types_equal_basic(con.source_type, expected):
                    yield TConst(con, pos), FLAG_PLAIN, ("T-Const",)
            case Var(name, pos):
                t = env.get(name)
                if t is not None and types_equal_basic(t, expected):
                    yield TVar(name, pos), FLAG_PLAIN, ("T-Var",)
            case Lam(param, body, pos):
                if isinstance(expected, FunType) and wf_type(expected).ok:
                    inner = self.extend(env, param, expected.dom)
                    for w, _, tr in self.check(inner, body, expected.cod, mode, depth):
                        yield TLam(param, w, expected, pos), FLAG_PLAIN, ("T-Lam", tr)
            case Ascribe(expr, ty, _):
                if types_equal_basic(ty, expected):
                    for w, flag, tr in self.check(env, expr, ty, mode, depth):
                        yield w, flag, ("T-Ascribe", tr)
            case Let(name, bound, body, pos):
                for t1, w1, _, tr1 in self.synth(env, bound, mode, depth):
                    inner = self.extend(env, name, t1)
                    for w2, flag, tr2 in self.check(inner, body, expected, mode, depth):
                        yield TLet(name, w1, w2, pos), flag, ("T-Let", tr1, tr2)
            case If(cond, then, els, pos):
                for wc, fc, trc in self.check(env, cond, BOOL, FLEXIBLE, depth):
                    if fc != FLAG_PLAIN:
                        continue
                    for wt, f1, trt in self.check(env, then, expected, mode, depth):
                        for wf_, f2, trf in self.check(env, els, expected, mode, depth):
                            flag = f1 if f1 == f2 else FLAG_PLAIN
                            yield TIf(wc, wt, wf_, pos), flag, ("T-Ite", trc, trt, trf)
            case App():
                for _, w, flag, tr in self._app(env, e, mode, depth, expected):
                    yield w, flag, tr
                if mode == FLEXIBLE:
                    # A non-function head can still be applied under a DEAD cast
                    # whose target arrow takes the argument's type to the
                    # expected type.
                    for t0, w0, f0, tr0 in self.synth(env, e.fn, FLEXIBLE, depth - 1):
                        if syntax.TAG_FUNCTION in type_tag(t0):
                            continue
                        for ta, wa, _, tra in self.synth(env, e.arg, FLEXIBLE, depth - 1):
                            dead = TDead(t0, FunType(ta, expected), w0, _pos_of(e.fn))
                            yield TApp(dead, wa, e.pos), FLAG_PLAIN, ("T-App", "T-Dead", tr0, tra)
        # T-And-Intro
        if isinstance(expected, AndType) and is_value(e) and wf_type(expected).ok:
            for w1, f1, tr1 in self.check(env, e, expected.left, mode, depth - 1):
                for w2, f2, tr2 in self.check(env, e, expected.right, mode, depth - 1):
                    flag = f1 if f1 == f2 else FLAG_PLAIN
                    yield TPair(w1, w2, _pos_of(e)), flag, ("T-And-Intro", tr1, tr2)
        # T-And-Elim: every conjunct below the synthesized type, in preorder
        for candidate in self.synth(env, e, mode, depth - 1):
            for t, w, flag, tr in itertools.islice(_conjuncts(*candidate), 1, None):
                if types_equal_basic(t, expected):
                    yield w, flag, tr
        # T-Up (flexible only).  Arms whose payload elaborates without a
        # root-level cast are preferred: injecting a value into an arm it
        # does not inhabit would make the runtime tag dispatch diverge from
        # the source.
        if mode == FLEXIBLE and isinstance(expected, OrType) and wf_type(expected).ok:
            arms = ((1, expected.left), (2, expected.right))
            for cast_free in (True, False):
                for k, arm in arms:
                    for w, flag, tr in self.check(env, e, arm, FLEXIBLE, depth - 1):
                        if isinstance(w, TDead) == cast_free:
                            continue
                        yield TInj(k, w, expected, _pos_of(e)), flag, ("T-Up", tr)
        # T-Down
        for plug, e0 in syntax.decompose(e, is_value):
            for t0, w0, _, tr0 in self.synth(env, e0, mode, depth - 1):
                if isinstance(t0, OrType) and wf_type(t0).ok:
                    yield from self._union_split(
                        env, e0, t0, w0, tr0, plug, expected, mode, depth - 1
                    )
                break  # only the primary synthesis drives the split
        # T-Dead (flexible only)
        if mode == FLEXIBLE:
            for t0, w0, flag, tr in self.synth(env, e, FLEXIBLE, depth - 1):
                if syntax.tags_disjoint(t0, expected):
                    dead = TDead(t0, expected, w0, _pos_of(e))
                    yield dead, flag, ("T-Dead", tr)

    # -- synthesis -------------------------------------------------------------

    def synth(
        self, env: TypeEnv, e: SrcExpr, mode: str, depth: int
    ) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
        key = ("synth", env, e, mode)
        return self._replay(key, lambda: self._synth_raw(env, e, mode, depth))

    def _synth_raw(
        self, env: TypeEnv, e: SrcExpr, mode: str, depth: int
    ) -> Iterator[tuple[SrcType, TgtExpr, str, Trace]]:
        if depth <= 0:
            return
        match e:
            case Const(con, pos):
                yield con.source_type, TConst(con, pos), FLAG_PLAIN, ("T-Const",)
            case Var(name, pos):
                t = env.get(name)
                if t is not None:
                    yield t, TVar(name, pos), FLAG_PLAIN, ("T-Var",)
            case Ascribe(expr, ty, _):
                for w, flag, tr in self.check(env, expr, ty, mode, depth):
                    yield ty, w, flag, ("T-Ascribe", tr)
            case Let(name, bound, body, pos):
                for t1, w1, _, tr1 in self.synth(env, bound, mode, depth):
                    inner = self.extend(env, name, t1)
                    for t2, w2, flag, tr2 in self.synth(inner, body, mode, depth):
                        yield t2, TLet(name, w1, w2, pos), flag, ("T-Let", tr1, tr2)
            case If(cond, then, els, pos):
                for wc, fc, trc in self.check(env, cond, BOOL, FLEXIBLE, depth):
                    if fc != FLAG_PLAIN:
                        continue
                    for t1, wt, f1, trt in self.synth(env, then, mode, depth):
                        for t2, we, f2, trf in self.synth(env, els, mode, depth):
                            if types_equal_basic(t1, t2):
                                flag = f1 if f1 == f2 else FLAG_PLAIN
                                yield t1, TIf(wc, wt, we, pos), flag, ("T-Ite", trc, trt, trf)
            case App():
                yield from self._app(env, e, mode, depth)
            case Lam():
                return  # lambdas require an annotation and only check

    HEAD_CAP = 16

    def _app(
        self, env: TypeEnv, e: App, mode: str, depth: int, cod: SrcType | None = None
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
                for w2, _, tr2 in self.check(env, e.arg, arrow.dom, arg_mode, depth):
                    yield arrow.cod, TApp(w1, w2, e.pos), FLAG_PLAIN, ("T-App", tr1, tr2)

    # -- union elimination -------------------------------------------------

    def _union_split(
        self,
        env: TypeEnv,
        e0: SrcExpr,
        t0: OrType,
        w0: TgtExpr,
        tr0: Trace,
        plug: Callable[[SrcExpr], SrcExpr],
        expected: SrcType,
        mode: str,
        depth: int,
    ) -> Iterator[tuple[TgtExpr, str, Trace]]:
        x1 = self.fresh_var()
        x2 = self.fresh_var()
        env1 = self.extend(env, x1, t0.left)
        env2 = self.extend(env, x2, t0.right)
        for w1, f1, tr1 in self.check(env1, plug(Var(x1)), expected, mode, depth):
            for w2, f2, tr2 in self.check(env2, plug(Var(x2)), expected, mode, depth):
                flag = f1 if f1 == f2 else FLAG_PLAIN
                yield (
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


def elaborate_program(program: Program, search_depth: int = DEFAULT_SEARCH_DEPTH) -> ElabResult:
    return Elaborator(search_depth).elaborate_program(program)


def check_expr(
    env: dict[str, SrcType], e: SrcExpr, expected: SrcType, mode: str = FLEXIBLE,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
) -> tuple[TgtExpr, str]:
    elaborator = Elaborator(search_depth)
    try:
        return elaborator.check_expr(env, e, expected, mode)
    finally:
        elaborator.release()
