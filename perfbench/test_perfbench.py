"""Self-tests of the benchmark: generators, declared sizes, known answers, metrics.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
PROGRAMS = run.ROOT / "programs"

if not run.prepare():
    pytest.skip("no l2 sources in this checkout", allow_module_level=True)

import l2.cli  # noqa: E402  (needs the path set by run.prepare)


def _pass(workload: str, seed: int, workdir: Path):
    workdir.mkdir()
    ops, files = workloads.build_pass(workload, seed, workdir, PROGRAMS)
    for path, text in files.items():
        path.write_text(text)
    return [(op.label, op.argv[0], op.size, _content(op)) for op in ops]


def _content(op) -> str:
    """The program an op reads, or its arguments when it reads none."""
    for arg in op.argv:
        if arg.endswith(".l2"):
            return Path(arg).read_text(encoding="utf-8")
    return " ".join(op.argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    assert _pass(workload, 7, tmp_path / "a") == _pass(workload, 7, tmp_path / "b")


def test_other_seed_other_inputs(tmp_path):
    assert _pass("diseq", 7, tmp_path / "a") != _pass("diseq", 8, tmp_path / "b")


@pytest.mark.parametrize("workload", ["corpus", "infer", "chain"])
def test_seed_only_orders(workload, tmp_path):
    a, b = _pass(workload, 7, tmp_path / "a"), _pass(workload, 8, tmp_path / "b")
    assert a != b and sorted(a) == sorted(b)


def test_chain_and_diseq_sizes():
    rng = random.Random(0)
    for n in workloads.CHAIN_REPS:
        text = workloads.chain_program(n, rng)
        assert text.count("let ") == n
        assert workloads.token_count(text) == 7 * n - 1  # "let x0 = c in" has 5
    for k in workloads.DISEQ_REPS:
        text = workloads.diseq_program(k, rng)
        assert text.count("if ne x ") == k


def test_pass_make_up(tmp_path):
    def families(workload, sub):
        ops = _pass(workload, 3, tmp_path / sub)
        counts: dict[str, int] = {}
        for label, _, _, _ in ops:
            counts[label] = counts.get(label, 0) + 1
        return counts

    assert families("chain", "c") == {f"chain-{n}": r for n, r in workloads.CHAIN_REPS.items()}
    assert families("diseq", "d") == {f"diseq-{k}": r for k, r in workloads.DISEQ_REPS.items()}
    infer = families("infer", "i")
    literals = len(workloads.INFER_LITERALS)
    assert infer == {"negate_infer": 1, "negate": workloads.INFER_NEGATE_REPS * literals,
                     "width2": literals, "dependent": 1}
    corpus = families("corpus", "g")
    seeds = workloads.CORPUS_SEEDS
    assert corpus == {**{name: 1 for name in workloads.SHIPPED},
                      "gen-30": seeds, "gen-60": seeds, "fuzz-30": seeds}


def _verdict(op) -> str:
    return run.run_op(l2.cli.main, op, 60.0, None).status


@pytest.mark.parametrize("name", sorted(workloads.SHIPPED))
def test_shipped_answers(name):
    path = PROGRAMS / name
    code, _ = workloads.SHIPPED[name]
    assert _verdict(workloads.check_op(name, str(path), path.read_text(), {code})) == "match"


def test_constructed_answers(tmp_path):
    rng = random.Random(1)
    programs = [
        ("chain", workloads.chain_program(30, rng), "check", 0),
        ("diseq", workloads.diseq_program(4, rng), "check", 0),
        ("negate", workloads.negate_infer_program(5), "infer", 1),
        ("width2", workloads.width2_program(5), "infer", 2),
    ]
    for label, text, command, functions in programs:
        path = tmp_path / f"{label}.l2"
        path.write_text(text)
        op = (workloads.check_op(label, str(path), text, {workloads.ACCEPTED}) if command == "check"
              else workloads.infer_op(label, str(path), text, functions))
        assert _verdict(op) == "match", label


def test_judge_rejects_wrong_verdicts():
    check = workloads.check_op("x", "x.l2", "0", {workloads.ACCEPTED})
    assert workloads.judge(check, 0, "accepted\n")
    assert not workloads.judge(check, 1, "rejected\n")
    assert not workloads.judge(check, 0, "rejected\n")
    infer = workloads.infer_op("x", "x.l2", "0", 1)
    good = "k1 := v != 0 && v >= 0\nk4 := v = 0 && v <= 0\n"
    swapped = "k1 := v = 0\nk4 := v != 0\n"
    assert workloads.judge(infer, 0, good)
    assert not workloads.judge(infer, 0, swapped)
    assert not workloads.judge(infer, 1, good)


def test_tail_and_growth():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    op = lambda size: workloads.Op("x", ("check",), workloads.Answer(frozenset({0})), size)
    results = [run.Result(op(n), n * n * 1e-6, "match") for n in (10, 20, 40, 80)]
    results.append(run.Result(op(160), 1.0, "timeout"))  # not decided: left out
    assert run.growth_exponent(results) == pytest.approx(2.0)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
