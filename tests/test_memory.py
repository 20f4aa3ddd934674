"""Everything a command builds is freed by reference counting.

With the cyclic collector off, a command must leave no unreachable l2
object, l2 function or l2 frame behind: each would be a reference cycle that
only a collector pass frees.  The elaborator's memoised streams are the
largest such structure, so no ``Elaborator`` may outlive the call that built
it.  The working state of parsing and elaboration must also stay near-linear
in binder depth.
"""

import gc
import os
import tracemalloc
import weakref
from collections import Counter

import pytest

from l2 import cli
from l2.cli import main
from l2.elaborate import Elaborator, check_expr, elaborate_program
from l2.parser import parse_program
from l2.syntax import NUM, Var
from tests.conftest import NEGATE_OK, disj_program, let_chain


L2_DIR = f"{os.sep}l2{os.sep}"


def _is_l2(o) -> bool:
    kind = type(o)
    if kind.__module__.startswith("l2"):
        return True
    if kind.__name__ == "function":
        return (o.__module__ or "").startswith("l2")
    if kind.__name__ == "frame":
        return L2_DIR in o.f_code.co_filename
    if kind.__name__ == "generator":
        return L2_DIR in o.gi_code.co_filename
    return False


def _describe(o) -> str:
    kind = type(o).__name__
    if kind == "frame":
        return f"frame {o.f_code.co_name}"
    if kind in ("function", "generator"):
        return f"{kind} {o.__qualname__}"
    return f"{type(o).__module__}.{type(o).__qualname__}"


def unreachable_after(argv, capsys) -> tuple[int, Counter]:
    """Run one command with the collector off; return its exit code and the
    l2 objects that only a collector pass frees afterwards."""
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        capsys.readouterr()
        alive = {id(o): _describe(o) for o in gc.get_objects() if _is_l2(o)}
        gc.collect()
        kept = {id(o) for o in gc.get_objects() if _is_l2(o)}
    finally:
        gc.enable()
    return code, Counter(name for key, name in alive.items() if key not in kept)


@pytest.fixture
def disj15(tmp_path):
    path = tmp_path / "disj15.l2"
    path.write_text(disj_program(15))
    return str(path)


@pytest.fixture
def phase1_error(tmp_path):
    path = tmp_path / "elab_error.l2"
    path.write_text("(\\x => x) 1\n")
    return str(path)


COMMANDS = [
    (["check", "{programs}/negate_ok.l2"], 0),
    (["check", "--explain", "{programs}/negate_full.l2"], 1),
    (["vcs", "{programs}/negate_full.l2"], 0),
    (["elaborate", "{programs}/union_ok.l2"], 0),
    (["--json", "elaborate", "{programs}/negate_full.l2"], 0),
    (["infer", "{programs}/negate_infer.l2"], 0),
    (["run", "{programs}/dead_semantics.l2"], 0),
    (["run", "--lang", "tgt", "--trace", "{programs}/dead_semantics.l2"], 0),
    (["check", "{disj15}"], 3),
    (["check", "{phase1_error}"], 2),
    (["fuzz", "--trials", "20", "--shrink"], 0),
]


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=lambda a: " ".join(a)
                         if isinstance(a, list) else str(a))
def test_command_leaves_no_cycle(argv, expected, programs_dir, disj15, phase1_error, capsys):
    paths = {"programs": programs_dir, "disj15": disj15, "phase1_error": phase1_error}
    code, garbage = unreachable_after([a.format(**paths) for a in argv], capsys)
    assert code == expected
    assert garbage == Counter()


def test_main_pauses_the_collector_for_the_command(programs_dir, monkeypatch, capsys):
    """The collector is off while a command runs, and the caller's setting
    is restored afterwards, whether it was on or off."""
    seen = []
    parse = cli.parse_program

    def spy(text):
        seen.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(cli, "parse_program", spy)
    argv = ["check", str(programs_dir / "negate_ok.l2")]
    assert gc.isenabled()
    assert main(argv) == 0 and gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == 0 and not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]


@pytest.fixture
def elaborators(monkeypatch):
    """A weak reference to every Elaborator built from here on."""
    made: list = []
    init = Elaborator.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Elaborator, "__init__", spy)
    return made


@pytest.mark.parametrize("argv", [
    ["check", "{programs}/negate_ok.l2"],
    ["infer", "{programs}/negate_infer.l2"],
    ["fuzz", "--trials", "20"],
])
def test_no_elaborator_outlives_its_command(argv, programs_dir, elaborators, capsys):
    gc.disable()
    try:
        assert main([a.format(programs=programs_dir) for a in argv]) == 0
        alive = [ref for ref in elaborators if ref() is not None]
    finally:
        gc.enable()
    assert elaborators and not alive


def test_no_elaborator_outlives_an_entry_point(elaborators):
    program = parse_program(NEGATE_OK)
    gc.disable()
    try:
        elaborate_program(program)
        check_expr({"x": NUM}, Var("x"), NUM)
        alive = [ref for ref in elaborators if ref() is not None]
    finally:
        gc.enable()
    assert len(elaborators) == 2 and not alive


def _traced_peak(f, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_memory_is_near_linear_in_binder_depth():
    """Four times the lets may take at most five times the peak memory to
    parse and to elaborate: no binder copies the rename map or a rule trace.
    (300 lets is within the recursion limit on every supported Python.)"""
    small, large = parse_program(let_chain(75)), parse_program(let_chain(300))
    parse = _traced_peak(parse_program, let_chain(300)) / _traced_peak(
        parse_program, let_chain(75))
    elab = _traced_peak(elaborate_program, large) / _traced_peak(elaborate_program, small)
    assert parse <= 5 and elab <= 5, (parse, elab)
