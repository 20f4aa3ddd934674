"""Workloads of the l2 benchmark: the ops of each pass, each with its known answer.

A workload is a *pass*: a fixed list of ops that the runner times as a unit.
Every op is one call of ``l2.cli.main`` (``check``, ``infer`` or ``fuzz``).
The known answer of an op never comes from the l2 build under test:

* ``chain`` and ``diseq`` programs are accepted by construction (see the
  generators below);
* the shipped ``programs/*.l2`` take their answers from the README, the
  comments in the files and the acceptance tests (``SHIPPED``);
* a generated corpus program passes phase 1 by construction
  (``harness.gen_program`` guarantees it), so its verdict is accepted or
  rejected, never a phase-1 error or a crash;
* a fuzz trial answers exit 0 (no counterexample, no violation);
* inference answers follow criterion 9: in every overloaded function the
  guard kappa of the numeric clone keeps ``v != 0`` and drops ``v = 0``, and
  the guard kappa of the boolean clone keeps ``v = 0`` and drops ``v != 0``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

ACCEPTED = 0
REJECTED = 1

# Answers of the shipped programs under `l2 check`, with their source.
SHIPPED = {
    "negate_ok.l2": (ACCEPTED, "README example session; acceptance criterion 1"),
    "negate_err_c.l2": (REJECTED, "README example session; acceptance criterion 1"),
    "negate_full.l2": (REJECTED, "file comment: phase 2 rejects c and d"),
    "negate_infer.l2": (REJECTED, "unrefined guards: the DEAD casts are reachable until inferred"),
    "dead_semantics.l2": (REJECTED, "file comment and criterion 4: the cast of 0 is reached"),
    "union_ok.l2": (ACCEPTED, "file comment: the cast is provably dead"),
    "union_err.l2": (REJECTED, "the unrefined number arm reaches the DEAD cast"),
}

# Per-op time limits, in seconds, on the benchmark's own interval timer.
# Each is several times the slowest op of its workload that reaches a verdict
# at the baseline, so a limit only ends ops that are far off their class.
LIMIT_S = {"corpus": 5.0, "chain": 10.0, "diseq": 10.0, "infer": 4.0}

# Programs per size in one pass.  The smallest and the largest decided size
# repeat 21 times and the others 11, so that the pass median falls in the
# middle of the middle size's ops and the tail (10 ops beyond it) in the
# middle of the largest size's, not on the edge of either.
CHAIN_REPS = {50: 21, 100: 11, 150: 21, 600: 11, 1000: 11}  # 600, 1000: RecursionError today
DISEQ_REPS = {k: 21 if k in (2, 10) else 11 for k in range(2, 11)}

# The numeric call's literal changes how long inference takes by up to 15%
# (it changes the order l2 hashes its work into), so every pass runs the same
# literals and --seed only orders the ops.  One dependent variant exceeds the
# limit at the baseline.
INFER_LITERALS = (2, 3, 4, 5, 6, 7)
INFER_NEGATE_REPS = 2

# The corpus is fixed, the generator's seeds 0-399 (the ROADMAP's baseline
# set); --seed only orders it.  A seeded draw of a few hundred generated
# programs moved the median time per op by about 12% and the tail by 15%
# from one draw to the next, wider than the bounds a change is judged by.
CORPUS_SEEDS = 400
CORPUS_BUDGETS = (30, 60)
CORPUS_FUZZ_BUDGET = 30  # one fuzz trial per seed

WORKLOADS = ("corpus", "chain", "diseq", "infer")


@dataclass(frozen=True)
class Answer:
    """What a correct run of an op looks like."""

    codes: frozenset[int]  # exit codes that are correct verdicts
    guards: tuple[tuple[str, str], ...] = ()  # infer: (numeric guard kappa, boolean guard kappa)


@dataclass(frozen=True)
class Op:
    label: str  # the program family and size, e.g. "chain-240"
    argv: tuple[str, ...]  # arguments of l2.cli.main
    answer: Answer
    size: int  # tokens in the program text


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|=>|->|\\/|/\\|!=|<=|>=|&&|\|\||\S")


def token_count(text: str) -> int:
    """Program size: tokens after comments are removed."""
    return len(_TOKEN.findall(re.sub(r"--[^\n]*", "", text)))


# ---------------------------------------------------------------------------
# Program families
# ---------------------------------------------------------------------------


def chain_program(n: int, rng: random.Random) -> str:
    """A let chain of n bindings over add/sub with literals.

    Accepted by construction: there are no annotations, so no binder carries
    a refinement, and add and sub are total on numbers; there is nothing to
    prove (0 VCs).
    """
    lines = [f"let x0 = {rng.randint(0, 9)} in"]
    for i in range(1, n):
        op = rng.choice(("add", "sub"))
        lines.append(f"let x{i} = {op} x{i - 1} {rng.randint(0, 9)} in")
    lines.append(f"x{n - 1}")
    return "\n".join(lines) + "\n"


def diseq_program(k: int, rng: random.Random) -> str:
    """A nest of k `ne x g` guards under a parameter refined to v > 0.

    Accepted by construction: every branch returns x (positive by the
    parameter's refinement) or a positive literal, and the call passes a
    positive literal, so every VC is valid.  The innermost branch carries all
    k disequalities as hypotheses.
    """
    guards = rng.sample(range(1, 10 * k + 10), k)
    body = "x"
    for g in reversed(guards):
        body = f"if ne x {g} then {body} else {g}"
    return (
        f"let f = ((\\x => {body})\n"
        f"        : {{v:number | v > 0}} -> {{v:number | v > 0}}) in\n"
        f"f {rng.randint(1, 99)}\n"
    )


_NEG = (
    "((\\flag => \\x => if ne flag 0 then sub 0 x else not x)\n"
    "        : (number -> number -> number) /\\ (number -> boolean -> boolean))"
)


def guard_kappas(count: int) -> tuple[tuple[str, str], ...]:
    """Guard kappas of the first `count` overloaded ascriptions, in source order.

    Each ascription templates six positions (flag, x and result of each
    conjunct), so the i-th one's guards are k(6i+1) and k(6i+4).
    """
    return tuple((f"k{6 * i + 1}", f"k{6 * i + 4}") for i in range(count))


def negate_infer_program(c: int) -> str:
    """The shape of programs/negate_infer.l2 with numeric call `neg c c`."""
    return (
        f"let neg = {_NEG} in\n"
        f"let a = neg {c} {c} in\n"
        f"let b = neg 0 true in\n"
        f"b\n"
    )


def width2_program(c: int) -> str:
    """Two independent overloaded functions, each called once per clone."""
    return (
        f"let neg = {_NEG} in\n"
        f"let neg2 = {_NEG} in\n"
        f"let a = neg {c} {c} in\n"
        f"let b = neg 0 true in\n"
        f"let d = neg2 {c} {c} in\n"
        f"let e = neg2 0 false in\n"
        f"e\n"
    )


def dependent_program(c: int) -> str:
    """Two overloaded functions where the second calls the first."""
    return (
        f"let neg = {_NEG} in\n"
        "let twice = ((\\flag => \\x => if ne flag 0 then neg 1 (neg 1 x) else neg 0 (neg 0 x))\n"
        "        : (number -> number -> number) /\\ (number -> boolean -> boolean)) in\n"
        f"let a = twice {c} {c} in\n"
        f"let b = twice 0 true in\n"
        f"b\n"
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def build_pass(workload: str, seed: int, workdir: Path,
               programs_dir: Path) -> tuple[list[Op], dict[Path, str]]:
    """Make the workload's ops, in order, and the program files under workdir they read."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[Path, str] = {}

    def write(name: str, text: str) -> str:
        files[workdir / name] = text
        return str(workdir / name)

    if workload == "chain":
        ops = _chain_pass(rng, write)
    elif workload == "diseq":
        ops = _diseq_pass(rng, write)
    elif workload == "infer":
        ops = _infer_pass(write, programs_dir)
        rng.shuffle(ops)
    elif workload == "corpus":
        ops = _corpus_pass(write, programs_dir)
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, files


def check_op(label: str, path: str, text: str, codes) -> Op:
    return Op(label, ("check", path), Answer(frozenset(codes)), token_count(text))


def _chain_pass(rng: random.Random, write) -> list[Op]:
    """The same programs for every seed, as for corpus and infer; the seed
    orders each size's programs.  With operators and literals drawn per seed,
    the pass median spread by a fifth over ten seeds (see NOTES.md)."""
    content = random.Random("chain")
    texts = {n: [chain_program(n, content) for _ in range(reps)] for n, reps in CHAIN_REPS.items()}
    for programs in texts.values():
        rng.shuffle(programs)
    ops = []
    for rep in range(max(CHAIN_REPS.values())):
        for n, programs in texts.items():
            if rep < len(programs):
                text = programs[rep]
                ops.append(check_op(f"chain-{n}", write(f"chain_{n}_{rep}.l2", text), text, {ACCEPTED}))
    return ops


def _diseq_pass(rng: random.Random, write) -> list[Op]:
    ops = []
    for rep in range(max(DISEQ_REPS.values())):
        for k, reps in DISEQ_REPS.items():
            if rep < reps:
                text = diseq_program(k, rng)
                ops.append(check_op(f"diseq-{k}", write(f"diseq_{k}_{rep}.l2", text), text, {ACCEPTED}))
    return ops


def infer_op(label: str, path: str, text: str, functions: int) -> Op:
    return Op(label, ("infer", path), Answer(frozenset({0}), guard_kappas(functions)), token_count(text))


def _infer_pass(write, programs_dir: Path) -> list[Op]:
    shipped = programs_dir / "negate_infer.l2"
    text = shipped.read_text(encoding="utf-8")
    ops = [infer_op("negate_infer", str(shipped), text, 1)]
    for rep in range(INFER_NEGATE_REPS):
        for c in INFER_LITERALS:
            text = negate_infer_program(c)
            path = write(f"negate_{c}_{rep}.l2", text)
            ops.append(infer_op("negate", path, text, 1))
    for c in INFER_LITERALS:
        text = width2_program(c)
        ops.append(infer_op("width2", write(f"width2_{c}.l2", text), text, 2))
    text = dependent_program(INFER_LITERALS[0])
    ops.append(infer_op("dependent", write("dependent.l2", text), text, 2))
    return ops


def _corpus_pass(write, programs_dir: Path) -> list[Op]:
    from l2 import harness, syntax  # the program generator of the build

    ops = []
    for name, (code, _why) in sorted(SHIPPED.items()):
        path = programs_dir / name
        ops.append(check_op(name, str(path), path.read_text(encoding="utf-8"), {code}))
    for seed in range(CORPUS_SEEDS):
        for budget in CORPUS_BUDGETS:
            text = syntax.print_program(harness.gen_program(seed, budget)) + "\n"
            path = write(f"gen_{seed}_{budget}.l2", text)
            ops.append(check_op(f"gen-{budget}", path, text, {ACCEPTED, REJECTED}))
            if budget == CORPUS_FUZZ_BUDGET:
                argv = ("fuzz", "--trials", "1", "--seed", str(seed), "--budget", str(budget))
                ops.append(Op(f"fuzz-{budget}", argv, Answer(frozenset({0})), token_count(text)))
    return ops


# ---------------------------------------------------------------------------
# Judging an op against its known answer
# ---------------------------------------------------------------------------

VERDICT_CODES = {"check": {0, 1, 2}, "infer": {0, 1, 2}, "fuzz": {0, 1}}


def _solution(stdout: str) -> dict[str, set[str]]:
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"(k\d+) := (.*)$", line)
        if m:
            out[m.group(1)] = set(m.group(2).split(" && "))
    return out


def judge(op: Op, code: int, stdout: str) -> bool:
    """True when the op's verdict equals its known answer."""
    if code not in op.answer.codes:
        return False
    if op.argv[0] == "check":
        last = stdout.strip().splitlines()[-1:] or [""]
        return last[0] == ("accepted" if code == ACCEPTED else "rejected")
    if op.argv[0] == "infer":
        solution = _solution(stdout)
        for numeric, boolean in op.answer.guards:
            n, b = solution.get(numeric, set()), solution.get(boolean, set())
            if not ("v != 0" in n and "v = 0" not in n and "v = 0" in b and "v != 0" not in b):
                return False
    return True
