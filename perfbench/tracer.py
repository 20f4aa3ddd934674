"""Span tracing of l2's layers, from outside the package.

The l2 modules import each other's functions by name (``from .logic import
valid``), so a layer's entry point is wrapped where it is *called*: the
attribute ``valid`` of ``l2.refine`` and of ``l2.infer``, for example.
Nothing under ``src/`` changes.  ``install`` swaps the wrappers in and
``uninstall`` puts the originals back.

Each call of a wrapped function records a span (name, start, end, parent,
op id) in memory.  A span's self time is its duration minus the durations of
its child spans.  Work counts are taken from the arguments and results at the
same boundaries; the time spent counting is excluded from every open span, so
it does not show as layer time.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

# (module attribute to patch, span name).  A function imported by name into
# several modules is patched in each module that calls it.
PATCHES = (
    ("l2.cli.parse_program", "parser"),
    ("l2.cli.elaborate_program", "elaborate"),
    ("l2.harness.elaborate_program", "elaborate"),
    ("l2.elaborate.elaborate_program", "elaborate"),  # infer calls it through the module
    ("l2.refine.simple_typecheck", "target"),
    ("l2.cli.check_refined", "refine"),
    ("l2.harness.check_refined", "refine"),
    ("l2.infer.check_refined", "refine"),
    ("l2.refine.valid", "logic"),
    ("l2.infer.valid", "logic"),
    ("l2.logic.dnf_cubes", "logic.dnf"),
    ("l2.logic.fm_unsat", "logic.fm"),
    ("l2.infer.gen_horn", "infer.gen_horn"),
    ("l2.infer.houdini_solve", "infer.houdini"),
    ("l2.harness.gen_program", "harness.gen"),
    ("l2.harness.lockstep_check", "harness.lockstep"),
    ("l2.harness.soundness_trial", "harness.soundness"),
    ("l2.harness.assumption1_check", "harness.metatheory"),
    ("l2.harness.canonical_forms_check", "harness.metatheory"),
    ("l2.harness.substitution_spot_check", "harness.metatheory"),
    ("l2.source_interp.eval_source_trace", "source_interp"),
    ("l2.target_interp.eval_target_trace", "target_interp"),
)

ROOT = "cli"  # the span around one l2.cli.main call

# Per-layer metrics, in the order they are reported.  Every time is a self
# time in seconds, summed over one pass.
LAYER_METRICS = (
    ("parser.s", "s"), ("parser.src_nodes", "count"),
    ("elaborate.s", "s"), ("elaborate.target_nodes", "count"),
    ("elaborate.dead_casts", "count"), ("elaborate.errors", "count"),
    ("target.typecheck_s", "s"),
    ("refine.self_s", "s"), ("refine.vcs", "count"), ("refine.hyps", "count"),
    ("logic.s", "s"), ("logic.s_invalid", "s"),
    ("logic.valid_calls", "count"), ("logic.invalid_calls", "count"),
    ("logic.cubes", "count"), ("logic.fm_calls", "count"),
    ("logic.cube_use_ratio", "ratio"), ("logic.neq_leaves", "count"),
    ("infer.gen_horn_s", "s"), ("infer.houdini_s", "s"),
    ("infer.clauses", "count"), ("infer.kappas", "count"),
    ("infer.valid_calls", "count"), ("infer.kept_ratio", "ratio"),
    ("harness.gen_s", "s"), ("harness.lockstep_s", "s"),
    ("harness.soundness_s", "s"), ("harness.metatheory_s", "s"),
    ("source_interp.s", "s"), ("source_interp.steps", "count"),
    ("target_interp.s", "s"), ("target_interp.steps", "count"),
    ("cli.self_s", "s"),
)

# Counts that must repeat exactly between runs of the same pass.
DETERMINISTIC_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def _resolve(path: str):
    module, attr = path.rsplit(".", 1)
    return sys.modules[module], attr


class _Open:
    __slots__ = ("name", "start", "pause_at_start", "child", "index")

    def __init__(self, name: str, start: float, pause: float, index: int):
        self.name, self.start, self.pause_at_start = name, start, pause
        self.child = 0.0
        self.index = index


class Tracer:
    """Records spans and counts while installed; one instance per pass."""

    def __init__(self, interrupted: tuple[type[BaseException], ...] = ()) -> None:
        self.interrupted = interrupted
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[_Open] = []
        self._pause = 0.0
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []
        self._node_classes: dict[str, tuple[type, ...]] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from l2 import elaborate, syntax, target

        self._elab_error = elaborate.ElabError
        self._node_classes = {
            "source": (syntax.Const, syntax.Var, syntax.Lam, syntax.Ascribe,
                       syntax.Let, syntax.If, syntax.App),
            "target": (target.TConst, target.TVar, target.TLam, target.TIf, target.TApp,
                       target.TLet, target.TPair, target.TProj, target.TInj, target.TCase,
                       target.TDead),
        }
        self._dead = target.TDead
        for path, name in PATCHES:
            module, attr = _resolve(path)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, path, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> _Open:
        parent = self._stack[-1].index if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        span = _Open(name, time.perf_counter(), self._pause, index)
        self._stack.append(span)
        return span

    def _exit(self, span: _Open) -> float:
        end = time.perf_counter()
        self._stack.pop()
        net = (end - span.start) - (self._pause - span.pause_at_start)
        self.self_time[span.name] += net - span.child
        if self._stack:
            self._stack[-1].child += net
        name, _, _, parent, op = self.spans[span.index]
        self.spans[span.index] = (name, span.start, end, parent, op)
        return net

    def op(self, fn, *args):
        """Run one op (an l2.cli.main call) as the root span of a new op id.

        The counts of an op cut off by one of the `interrupted` exceptions are
        dropped: how far it got depends on the machine's speed, not on l2.
        """
        self._op += 1
        committed, self.counts = self.counts, Counter()
        span = self._enter(ROOT)
        try:
            return fn(*args)
        except self.interrupted:
            self.counts.clear()
            raise
        finally:
            self._exit(span)
            committed.update(self.counts)
            self.counts = committed

    def _wrap(self, name: str, path: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        if path == "l2.infer.valid":
            count = self._count_infer_valid

        def wrapper(*args, **kwargs):
            span = self._enter(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                net = self._exit(span)
                if count is not None:
                    start = time.perf_counter()
                    count(args, result, error, net)
                    self._pause += time.perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts, taken at the layer boundaries --------------------------------

    def _nodes(self, root, kind: str) -> tuple[int, int]:
        classes = self._node_classes[kind]
        nodes = dead = 0
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):
                stack.extend(node)
            elif isinstance(node, classes):
                nodes += 1
                dead += isinstance(node, self._dead)
                stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        return nodes, dead

    def _count_parser(self, args, result, error, net):
        if result is not None:
            self.counts["parser.src_nodes"] += self._nodes(result.main, "source")[0]

    def _count_elaborate(self, args, result, error, net):
        if isinstance(error, self._elab_error):
            self.counts["elaborate.errors"] += 1
        elif result is not None:
            nodes, dead = self._nodes(result.target, "target")
            self.counts["elaborate.target_nodes"] += nodes
            self.counts["elaborate.dead_casts"] += dead

    def _count_refine(self, args, result, error, net):
        if result is not None:
            self.counts["refine.vcs"] += len(result.vcs)
            self.counts["refine.hyps"] += sum(len(vc.hyps) for vc in result.vcs)

    def _count_logic(self, args, result, error, net):
        self.counts["logic.valid_calls"] += 1
        if result is not None and result.kind == "invalid":
            self.counts["logic.invalid_calls"] += 1
            self.self_time["logic.invalid"] += net

    def _count_infer_valid(self, args, result, error, net):
        self._count_logic(args, result, error, net)
        self.counts["infer.valid_calls"] += 1

    def _count_logic_dnf(self, args, result, error, net):
        if result is not None:
            self.counts["logic.cubes"] += len(result)

    def _count_logic_fm(self, args, result, error, net):
        self.counts["logic.fm_calls"] += 1
        neqs = 0
        for atom, positive in args[0]:
            op = getattr(atom, "op", None)
            if op is not None:
                neqs += (op == "!=") if positive else (op == "=")
        self.counts["logic.neq_leaves"] += 2 ** neqs

    def _count_infer_gen_horn(self, args, result, error, net):
        if result is not None:
            self.counts["infer.clauses"] += len(result[0])
            self.counts["infer.kappas"] += len(result[1])

    def _count_infer_houdini(self, args, result, error, net):
        assignment = getattr(result, "assignment", None)
        if assignment is not None:
            self.counts["infer.candidates_initial"] += sum(len(v) for v in args[1].values())
            self.counts["infer.candidates_kept"] += sum(len(v) for v in assignment.values())

    def _count_source_interp(self, args, result, error, net):
        if result is not None:
            self.counts["source_interp.steps"] += len(result[1])

    def _count_target_interp(self, args, result, error, net):
        if result is not None:
            self.counts["target_interp.steps"] += len(result[1])

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        t, c = self.self_time, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "parser.s": t["parser"],
            "elaborate.s": t["elaborate"],
            "target.typecheck_s": t["target"],
            "refine.self_s": t["refine"],
            "logic.s": t["logic"] + t["logic.dnf"] + t["logic.fm"],
            "logic.s_invalid": t["logic.invalid"],
            "logic.cube_use_ratio": ratio(c["logic.fm_calls"], c["logic.cubes"]),
            "infer.gen_horn_s": t["infer.gen_horn"],
            "infer.houdini_s": t["infer.houdini"],
            "infer.kept_ratio": ratio(c["infer.candidates_kept"], c["infer.candidates_initial"]),
            "harness.gen_s": t["harness.gen"],
            "harness.lockstep_s": t["harness.lockstep"],
            "harness.soundness_s": t["harness.soundness"],
            "harness.metatheory_s": t["harness.metatheory"],
            "source_interp.s": t["source_interp"],
            "target_interp.s": t["target_interp"],
            "cli.self_s": t[ROOT],
        }
        for name, unit in LAYER_METRICS:
            if unit == "count":
                out[name] = float(c[name])
        return {name: out[name] for name, _ in LAYER_METRICS}

    def layer_total(self) -> float:
        """Sum of every span's self time: the traced ops' total time."""
        return sum(v for k, v in self.self_time.items() if k != "logic.invalid")
