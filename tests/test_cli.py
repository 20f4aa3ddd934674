import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from l2.cli import Config, main
from l2.elaborate import DEFAULT_SEARCH_DEPTH
from l2.logic import DEFAULT_CLAUSE_BUDGET
from l2.source_interp import DEFAULT_FUEL
from tests.conftest import disj_program, let_chain


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_accepts_negate(self, programs_dir, capsys):
        code, out, _ = run_cli(["check", str(programs_dir / "negate_ok.l2")], capsys)
        assert code == 0
        assert "accepted" in out

    def test_rejects_call_c(self, programs_dir, capsys):
        code, out, _ = run_cli(["check", str(programs_dir / "negate_err_c.l2")], capsys)
        assert code == 1
        assert "v = 0 => v != 0" in out

    def test_explain_lists_all_vcs(self, programs_dir, capsys):
        code, out, _ = run_cli(
            ["check", "--explain", str(programs_dir / "negate_ok.l2")], capsys
        )
        assert code == 0
        assert out.count("[valid]") == 4

    def test_union_split_cast_has_the_use_position(self, programs_dir, capsys):
        # the case around the use of u at 4:13 binds a fresh name whose
        # occurrence stands where u stood, and so does the cast over it
        code, out, _ = run_cli(
            ["check", "--explain", str(programs_dir / "union_err.l2")], capsys
        )
        assert code == 1
        assert out.startswith("[invalid] dead-cast at 4:13: (true) => (v = $u3 => false)\n")

    def test_unbound_refinement_name_is_a_phase_1_error(self, tmp_path, capsys):
        path = tmp_path / "unbound.l2"
        path.write_text("let f = ((\\z => z) : {v:number | v > y} -> {v:number | v > y}) in f 1\n")
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert out == ("phase 1 error: 1:9: refinement names unbound variable y: "
                       "{v:number | v > y} -> {v:number | v > y}\n")

    def test_json_schema(self, programs_dir, capsys):
        code, out, _ = run_cli(
            ["--json", "check", str(programs_dir / "negate_ok.l2")], capsys
        )
        payload = json.loads(out)
        assert payload["status"] == "accepted"
        assert len(payload["vcs"]) == 4
        assert {"origin", "hypotheses", "antecedent", "consequent", "verdict"} <= set(
            payload["vcs"][0]
        )

    def test_json_reads_each_frame_chain_once(self, programs_dir, capsys, monkeypatch):
        # the payload's hypotheses and its rendered VC both read ``hyps``,
        # which a VC takes off its frame chain once
        from l2.refine import RefEnv

        calls = []
        flatten = RefEnv.flatten
        monkeypatch.setattr(RefEnv, "flatten", lambda env: calls.append(env) or flatten(env))
        code, out, _ = run_cli(
            ["--json", "check", str(programs_dir / "negate_ok.l2")], capsys
        )
        assert code == 0
        assert len(calls) == len(json.loads(out)["vcs"]) == 4

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize(
        "command",
        [["check"], ["elaborate"], ["vcs"], ["run", "--lang", "tgt"], ["infer"]],
        ids=["check", "elaborate", "vcs", "run-tgt", "infer"],
    )
    def test_elab_error_exit_code(self, tmp_path, capsys, command, as_json):
        bad = tmp_path / "bad.l2"
        bad.write_text("(\\x => x) 5\n")
        flags = ["--json"] if as_json else []
        code, out, _ = run_cli([*flags, command[0], str(bad), *command[1:]], capsys)
        assert code == 2
        if as_json:
            assert json.loads(out)["status"] == "elab-error"
        else:
            assert out.startswith("phase 1 error: ")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.l2"
        bad.write_text("((\n")
        code, _, err = run_cli(["check", str(bad)], capsys)
        assert code == 65
        assert "parse error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(["check", "no-such-file.l2"], capsys)
        assert code == 64

    def test_reserved_names_are_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.l2"
        bad.write_text("let x = 1 in add x $g1\n")
        code, _, err = run_cli(["check", str(bad)], capsys)
        assert code == 65
        assert err == "parse error: 1:20: unexpected character '$'\n"


def test_config_defaults_are_the_library_defaults():
    config = Config()
    assert config.fuel == DEFAULT_FUEL
    assert config.search_depth == DEFAULT_SEARCH_DEPTH
    assert config.clause_budget == DEFAULT_CLAUSE_BUDGET


class TestUnreadableInputs:
    """An input that cannot be read is a usage error, never "rejected"."""

    def assert_usage_error(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_config(self, programs_dir, tmp_path, capsys):
        args = ["--config", str(tmp_path / "missing.json"), "check",
                str(programs_dir / "negate_ok.l2")]
        self.assert_usage_error(args, capsys)

    def test_malformed_config(self, programs_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{fuel: 3\n")
        self.assert_usage_error(
            ["--config", str(bad), "check", str(programs_dir / "negate_ok.l2")], capsys
        )

    def test_file_is_a_directory(self, tmp_path, capsys):
        self.assert_usage_error(["check", str(tmp_path)], capsys)

    @pytest.mark.parametrize("args", [
        ["check", "BAD"],
        ["--config", "BAD", "check", "NEGATE_OK"],
        ["infer", "NEGATE_INFER", "--preds", "BAD"],
    ], ids=["file", "config", "preds"])
    def test_not_utf8(self, programs_dir, tmp_path, capsys, args):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"v = \xff\n")
        paths = {"BAD": str(bad), "NEGATE_OK": str(programs_dir / "negate_ok.l2"),
                 "NEGATE_INFER": str(programs_dir / "negate_infer.l2")}
        code, out, err = run_cli([paths.get(a, a) for a in args], capsys)
        assert (code, out) == (64, "")
        assert err == f"error: {bad} is not valid UTF-8 (invalid start byte at byte 4)\n"

    @pytest.mark.parametrize(
        "contents",
        ["[1]", '{"fuel": "x"}', '{"search_depth": "x"}', '{"search_depth": 0}',
         '{"clause_budget": 0}', '{"fuel": -1}', '{"fuel": 5, "clause-budget": 1}'],
        ids=["not-an-object", "string-fuel", "string-search-depth", "zero-search-depth",
             "zero-clause-budget", "negative-fuel", "unknown-setting"],
    )
    def test_unusable_config_contents(self, programs_dir, tmp_path, capsys, contents):
        config = tmp_path / "config.json"
        config.write_text(contents)
        self.assert_usage_error(
            ["--config", str(config), "run", str(programs_dir / "negate_ok.l2")], capsys
        )

    def test_unknown_setting_is_named(self, programs_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"fuel": 5, "clause-budget": 1}')
        code, out, err = run_cli(["--config", str(config), "check",
                                  str(programs_dir / "negate_ok.l2")], capsys)
        assert (code, out) == (64, "")
        assert err == (f"error: config file {config}: unknown setting 'clause-budget' "
                       "(the settings are fuel, search_depth, clause_budget)\n")


    @pytest.mark.parametrize("args, setting", [
        (["--search-depth", "-3", "check", "NEGATE_OK"], "search_depth"),
        (["--search-depth", "0", "check", "NEGATE_OK"], "search_depth"),
        (["--clause-budget", "0", "check", "NEGATE_OK"], "clause_budget"),
        (["--fuel", "-1", "run", "NEGATE_OK"], "fuel"),
        (["fuzz", "--trials", "-1"], "trials"),
        (["fuzz", "--budget", "-1"], "budget"),
    ], ids=["negative-search-depth", "zero-search-depth", "zero-clause-budget",
            "negative-fuel", "negative-trials", "negative-budget"])
    def test_senseless_setting_flags(self, programs_dir, capsys, args, setting):
        path = str(programs_dir / "negate_ok.l2")
        code, out, err = run_cli([path if a == "NEGATE_OK" else a for a in args], capsys)
        assert (code, out) == (64, "")
        assert err.startswith(f"error: {setting} must be at least ")


class TestShapeMismatch:
    """Subtyping over different skeletons is a pipeline misuse, which phase 1
    rules out: an internal invariant violation, never "rejected"."""

    def test_exits_70(self, programs_dir, monkeypatch, capsys):
        from l2.refine import RefChecker, ShapeMismatch

        def emit(self, env, t1, t2, origin):
            raise ShapeMismatch("number vs boolean")

        monkeypatch.setattr(RefChecker, "emit", emit)
        code, out, err = run_cli(["check", str(programs_dir / "negate_ok.l2")], capsys)
        assert (code, out) == (70, "")
        assert err == "internal invariant violation: number vs boolean\n"


class TestDeepInput:
    """Input deeper than the recursion limit ends in "no verdict", never "rejected"."""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_deep_let_chain_has_no_verdict(self, tmp_path, capsys, flags):
        deep = tmp_path / "deep.l2"
        deep.write_text(let_chain(5000))
        code, out, err = run_cli([*flags, "check", str(deep)], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "error: input nests too deeply for this checker (recursion limit reached)\n"
        )


class TestClauseBudget:
    """An obligation whose DNF outgrows the clause budget has no verdict: it is
    neither "rejected" nor an internal invariant violation."""

    def test_overrun_names_the_obligation_and_the_budget(self, tmp_path, capsys):
        path = tmp_path / "disj15.l2"
        path.write_text(disj_program(15))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert (code, out) == (3, "")
        assert re.fullmatch(
            rf"no verdict: function body at \d+:\d+: DNF clause budget {DEFAULT_CLAUSE_BUDGET} "
            r"exceeded\n", err
        )

    def test_under_the_budget_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "disj6.l2"
        path.write_text(disj_program(6))
        assert run_cli(["check", str(path)], capsys) == (0, "accepted\n", "")


class TestRefinementTypes:
    """The printed refinement types and VCs are part of the output contract:
    binders, ``+`` for a sum, ``*`` for a product, and the ``$dN`` names an
    annotation's arrows get, numbered in preorder."""

    @pytest.mark.parametrize("text, printed", [
        ("((\\x => x) : (number -> number) /\\ (boolean -> boolean))",
         "((x:number) -> number) * ((x:boolean) -> boolean)"),
        ("((\\x => if x then 1 else false) : boolean -> number \\/ boolean)",
         "(x:boolean) -> number + boolean"),
        ("add 1", "($b:number) -> {v:number | v = $b + 1}"),
        ("type pos = {v:number | v > 0}\n((\\f => f 1) : (pos -> pos) -> pos)",
         "(f:($d2:{v:number | v > 0}) -> {v:number | v > 0}) -> {v:number | v > 0}"),
    ], ids=["intersection", "union-codomain", "partial-add", "higher-order"])
    def test_json_type(self, tmp_path, capsys, text, printed):
        program = tmp_path / "p.l2"
        program.write_text(text + "\n")
        code, out, _ = run_cli(["--json", "check", str(program)], capsys)
        assert code == 0
        assert json.loads(out)["type"] == printed

    def test_codomain_vc_names_the_annotation_binder(self, tmp_path, capsys):
        program = tmp_path / "p.l2"
        program.write_text(
            "type pos = {v:number | v > 0}\n"
            "let app = ((\\f => f 1) : (pos -> pos) -> pos) in\n"
            "app (\\y => add y 1)\n"
        )
        code, out, _ = run_cli(["vcs", str(program)], capsys)
        assert code == 0
        assert out == (
            "[valid] argument at 2:21: (true) => (v = 1 => v > 0)\n"
            "[valid] function body at 2:13: (true) => (v > 0 => v > 0)\n"
            "[valid] function body at 3:6: (y > 0) => (v = y + 1 => v > 0)\n"
            "[valid] argument at 3:5 (domain): (true) => (v > 0 => v > 0)\n"
            "[valid] argument at 3:5 (codomain): ($d2 > 0) => (v > 0 => v > 0)\n"
        )


class TestRun:
    def test_source_trace(self, programs_dir, capsys):
        code, out, _ = run_cli(
            ["run", "--lang", "src", "--trace", str(programs_dir / "dead_semantics.l2")],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "E-App-B"
        assert "StuckAt" in out

    def test_target_trace(self, programs_dir, capsys):
        code, out, _ = run_cli(
            ["run", "--lang", "tgt", "--trace", str(programs_dir / "dead_semantics.l2")],
            capsys,
        )
        assert out.splitlines()[0] == "E-Beta"
        assert "DEAD" in out

    def test_fuel_flag(self, programs_dir, capsys):
        code, out, _ = run_cli(
            ["--fuel", "1", "run", "--lang", "src", str(programs_dir / "negate_ok.l2")],
            capsys,
        )
        assert "FuelExhausted" in out

    def test_target_stuck_outcome_carries_dead_focus(self, programs_dir, monkeypatch, capsys):
        from l2 import source_interp, target_interp

        outcomes = []
        eval_target_trace = target_interp.eval_target_trace

        def spy(w, fuel=source_interp.DEFAULT_FUEL):
            result = eval_target_trace(w, fuel)
            outcomes.append(result[0])
            return result

        monkeypatch.setattr(target_interp, "eval_target_trace", spy)
        code, out, _ = run_cli(
            ["run", "--lang", "tgt", str(programs_dir / "dead_semantics.l2")], capsys
        )
        assert code == 0
        [outcome] = outcomes
        assert isinstance(outcome, source_interp.StuckAt)
        assert target_interp.contains_dead_value(outcome.focus)
        assert out.startswith("StuckAt: ")

    def test_json(self, programs_dir, capsys):
        code, out, _ = run_cli(
            ["--json", "run", "--lang", "src", str(programs_dir / "negate_ok.l2")], capsys
        )
        payload = json.loads(out)
        assert payload["outcome"] == "Value"
        assert payload["result"] == "false"


class TestVcs:
    def test_listing(self, programs_dir, capsys):
        code, out, _ = run_cli(["vcs", str(programs_dir / "negate_ok.l2")], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_smtlib_emission(self, programs_dir, tmp_path, capsys):
        out_dir = tmp_path / "smt"
        code, _, _ = run_cli(
            ["vcs", str(programs_dir / "negate_ok.l2"), "--smtlib", str(out_dir)], capsys
        )
        files = sorted(out_dir.glob("*.smt2"))
        assert len(files) == 4
        assert files[0].name.startswith("vc000_")
        text = files[0].read_text()
        assert text.startswith("(set-logic QF_LIA)")
        assert text.rstrip().endswith("(check-sat)")


# A boolean is the integer 1 or 0 in the logic, so a boolean binder's
# selfified type {v = b} says v <=> b.
BOOL_ALIAS = "type t = {v:boolean | v}\n"
BOOL_FOUND = BOOL_ALIAS + "let f = ((\\x => x) : t -> boolean) in ((\\b => f b) : t -> boolean)\n"
BOOL_LET = (
    BOOL_ALIAS
    + "let g = ((\\z => z) : t -> boolean) in ((\\x => let y = x in g false) : t -> boolean)\n"
)
BOOL_REFINEMENTS = {
    "{v:boolean | v}": lambda v: v,
    "{v:boolean | !v}": lambda v: not v,
    "boolean": lambda v: True,
}


class TestBooleanBinders:
    def test_selfified_boolean_argument_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "found.l2"
        path.write_text(BOOL_FOUND)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert (code, out) == (0, "accepted\n")

    def test_let_bound_boolean_does_not_capture_the_value_variable(self, tmp_path, capsys):
        # y's hypothesis is y = x; left on v, it would make !v contradict x
        path = tmp_path / "let.l2"
        path.write_text(BOOL_LET)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert out == "[invalid] argument at 2:62: (x && y = x) => (!(v) => v)\nrejected\n"

    @pytest.mark.parametrize("result", BOOL_REFINEMENTS)
    @pytest.mark.parametrize("param", BOOL_REFINEMENTS)
    def test_truth_table(self, tmp_path, capsys, param, result):
        # accepted exactly when the parameter's refinement implies the result's
        arrow = f"{param} -> {result}"
        path = tmp_path / "table.l2"
        path.write_text(f"let f = ((\\x => x) : {arrow}) in ((\\b => f b) : {arrow})\n")
        holds = all(BOOL_REFINEMENTS[result](v) for v in (True, False) if BOOL_REFINEMENTS[param](v))
        code, _, _ = run_cli(["check", str(path)], capsys)
        assert code == (0 if holds else 1)


def _sexps(text: str) -> list:
    """The s-expressions of text, each a symbol or a list."""
    stack: list[list] = [[]]
    for token in re.findall(r"[()]|[^\s()]+", text):
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    assert len(stack) == 1, "unbalanced parentheses"
    return stack[0]


# operator -> (argument sort, least and most arguments, result sort); "=" is polymorphic
SMT_OPS = {
    "+": ("Int", 2, None, "Int"), "*": ("Int", 2, 2, "Int"), "-": ("Int", 1, 1, "Int"),
    "<": ("Int", 2, 2, "Bool"), "<=": ("Int", 2, 2, "Bool"),
    ">=": ("Int", 2, 2, "Bool"), ">": ("Int", 2, 2, "Bool"),
    "not": ("Bool", 1, 1, "Bool"), "=>": ("Bool", 2, 2, "Bool"),
    "and": ("Bool", 1, None, "Bool"), "or": ("Bool", 1, None, "Bool"),
}


def _smt_sort(term, declared: dict[str, str]) -> str:
    if isinstance(term, str):
        if term in ("true", "false"):
            return "Bool"
        return "Int" if term.isdigit() else declared[term]
    op, *args = term
    sorts = [_smt_sort(a, declared) for a in args]
    if op == "=":
        assert len(sorts) == 2 and sorts[0] == sorts[1], term
        return "Bool"
    arg, least, most, result = SMT_OPS[op]
    assert least <= len(sorts) <= (most or len(sorts)) and set(sorts) <= {arg}, term
    return result


def check_smtlib_sorts(text: str) -> None:
    """Each symbol declared once, as Int, before use; each assertion a
    well-sorted Bool."""
    commands = _sexps(text)
    assert commands[0] == ["set-logic", "QF_LIA"] and commands[-1] == ["check-sat"]
    declared: dict[str, str] = {}
    for command in commands[1:-1]:
        match command:
            case ["declare-const", name, sort]:
                assert name not in declared and sort == "Int", command
                declared[name] = sort
            case ["assert", term]:
                assert _smt_sort(term, declared) == "Bool", command
            case _:
                raise AssertionError(f"unexpected command {command}")


class TestSmtlibSorts:
    def test_reader_rejects_a_boolean_use_of_an_int(self):
        with pytest.raises(AssertionError):
            check_smtlib_sorts(
                "(set-logic QF_LIA)\n(declare-const b Int)\n(assert (not (=> b b)))\n(check-sat)\n"
            )

    def test_every_emitted_query_is_well_sorted(self, programs_dir, tmp_path, capsys):
        from l2 import harness, syntax

        texts = [p.read_text() for p in sorted(programs_dir.glob("*.l2"))]
        texts += [BOOL_FOUND, BOOL_LET]
        texts += [syntax.print_program(harness.gen_program(s, 30)) + "\n" for s in range(100)]
        checked = listed = 0
        for i, text in enumerate(texts):
            path, out_dir = tmp_path / f"p{i}.l2", tmp_path / f"smt{i}"
            path.write_text(text)
            code, out, _ = run_cli(["vcs", str(path), "--smtlib", str(out_dir)], capsys)
            assert code == 0
            listed += sum(line.startswith("[") for line in out.splitlines())
            for smt in sorted(out_dir.glob("*.smt2")):
                check_smtlib_sorts(smt.read_text())
                checked += 1
        assert checked == listed > 50


class TestInfer:
    def test_solution_printed(self, programs_dir, capsys):
        code, out, _ = run_cli(["infer", str(programs_dir / "negate_infer.l2")], capsys)
        assert code == 0
        assert "k1 :=" in out and "v != 0" in out

    def test_unsat_report_names_the_greatest_fixpoint(self, tmp_path, capsys):
        # a zero and a nonzero guard both reach the numeric clone: the dead
        # cast's clause fails under the strongest assignment Houdini reaches
        path = tmp_path / "unsat.l2"
        path.write_text(
            "let neg = ((\\flag => \\x => if ne flag 0 then sub 0 x else not x)\n"
            "  : (number -> number -> number) /\\ (number -> boolean -> boolean)) in\n"
            "let a = neg 1 1 in\nlet c = neg 0 1 in\nc\n")
        code, out, _ = run_cli(["infer", str(path)], capsys)
        assert code == 1
        assert out == ("no solution: clause fails under the greatest fixpoint\n"
                       "  (k1[flag/v] && k2[x/v] && flag = 0) => (v = x => false)\n")

    def test_preds_override(self, programs_dir, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("v = 0\nv != 0\n")
        code, out, _ = run_cli(
            ["--json", "infer", str(programs_dir / "negate_infer.l2"),
             "--preds", str(preds)],
            capsys,
        )
        payload = json.loads(out)
        assert payload["status"] == "solved"
        assert payload["solution"]["k1"] == "v != 0"
        assert payload["solution"]["k4"] == "v = 0"

    def test_preds_kappa_application_is_a_parse_error(self, programs_dir, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("v = 0\n\nk1[]\n")
        code, out, err = run_cli(
            ["infer", str(programs_dir / "negate_infer.l2"), "--preds", str(preds)], capsys)
        assert (code, out) == (65, "")
        assert err == f"parse error: 3:1: a candidate in {preds} applies a kappa variable\n"

    @pytest.mark.parametrize("text, place", [("v = 0\nv = = 0\n", "2:5"),
                                              ("v = 0\n\n  v = = 0\n", "3:7")])
    def test_preds_syntax_error_names_its_line_and_file(self, programs_dir, tmp_path, capsys,
                                                        text, place):
        # The file's line, and the column in the line as written.
        preds = tmp_path / "preds.txt"
        preds.write_text(text)
        code, out, err = run_cli(
            ["infer", str(programs_dir / "negate_infer.l2"), "--preds", str(preds)], capsys)
        assert (code, out) == (65, "")
        assert err == (f"parse error: {place}: a candidate in {preds} does not parse: "
                       "expected an arithmetic term, found '='\n")

    def test_preds_phase1_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.l2"
        bad.write_text("(\\x => x) 5\n")
        preds = tmp_path / "preds.txt"
        preds.write_text("v = 0\n")
        code, out, _ = run_cli(["infer", str(bad), "--preds", str(preds)], capsys)
        assert code == 2
        assert "phase 1 error" in out

    def test_budgets_reach_inference(self, programs_dir, monkeypatch, capsys):
        from l2 import elaborate, infer

        seen = {}
        elaborate_program, houdini_solve = elaborate.elaborate_program, infer.houdini_solve

        def spy_elaborate(program, search_depth=elaborate.DEFAULT_SEARCH_DEPTH):
            seen["search_depth"] = search_depth
            return elaborate_program(program, search_depth)

        def spy_houdini(clauses, candidates, clause_budget=10000):
            seen["clause_budget"] = clause_budget
            return houdini_solve(clauses, candidates, clause_budget)

        monkeypatch.setattr(elaborate, "elaborate_program", spy_elaborate)
        monkeypatch.setattr(infer, "houdini_solve", spy_houdini)
        code, _, _ = run_cli(
            ["--clause-budget", "5000", "--search-depth", "40",
             "infer", str(programs_dir / "negate_infer.l2")],
            capsys,
        )
        assert code == 0
        assert seen == {"search_depth": 40, "clause_budget": 5000}


class TestFuzz:
    def test_jsonl_reports(self, capsys):
        code, out, err = run_cli(
            ["fuzz", "--trials", "5", "--seed", "3", "--no-soundness"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            payload = json.loads(line)
            assert payload["verdict"] == "agree"
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["counterexamples"] == 0

    SUMMARY_KEYS = [
        "trials", "counterexamples", "inconclusive", "assumption1_violations",
        "canonical_violations", "substitution_violations", "soundness_failures", "accepted",
    ]

    def test_summary_keys_in_print_order(self, capsys):
        _, _, err = run_cli(["fuzz", "--trials", "2", "--no-soundness"], capsys)
        assert list(json.loads(err.strip().splitlines()[-1])) == self.SUMMARY_KEYS

    def test_a_violation_exits_1(self, monkeypatch, capsys):
        from l2 import harness

        monkeypatch.setattr(harness, "canonical_forms_check", lambda trial: ["violation"])
        code, _, err = run_cli(["fuzz", "--trials", "1", "--no-soundness"], capsys)
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["canonical_violations"] == 1

    def test_inconclusive_trials_exit_0(self, capsys):
        code, _, err = run_cli(["--fuel", "1", "fuzz", "--trials", "3", "--seed", "0"], capsys)
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["inconclusive"] == 2
        assert code == 0

    def test_global_fuel_reaches_fuzz(self, monkeypatch, capsys):
        from l2 import harness

        seen = {}
        run_fuzz = harness.run_fuzz

        def spy(**kwargs):
            seen["fuel"] = kwargs["fuel"]
            return run_fuzz(**kwargs)

        monkeypatch.setattr(harness, "run_fuzz", spy)
        code, _, _ = run_cli(["--fuel", "3", "fuzz", "--trials", "1"], capsys)
        assert code in (0, 1)
        assert seen == {"fuel": 3}

    def test_global_search_depth_reaches_fuzz(self, capsys):
        # seed 0-2 include a program that needs more than one search level
        code, out, _ = run_cli(["--search-depth", "1", "fuzz", "--trials", "3", "--seed", "0"],
                               capsys)
        assert code == 2
        assert out.startswith("phase 1 error:")

    def test_budgets_reach_fuzz_checks(self, monkeypatch, capsys):
        from l2 import harness

        seen = {"search_depth": set(), "clause_budget": set()}
        elaborate_program, check_refined = harness.elaborate_program, harness.check_refined

        def spy_elaborate(program, search_depth):
            seen["search_depth"].add(search_depth)
            return elaborate_program(program, search_depth)

        def spy_check(w, clause_budget):
            seen["clause_budget"].add(clause_budget)
            return check_refined(w, clause_budget=clause_budget)

        monkeypatch.setattr(harness, "elaborate_program", spy_elaborate)
        monkeypatch.setattr(harness, "check_refined", spy_check)
        code, _, _ = run_cli(
            ["--search-depth", "40", "--clause-budget", "5000", "fuzz", "--trials", "2"], capsys
        )
        assert code == 0
        assert seen == {"search_depth": {40}, "clause_budget": {5000}}

    def test_search_depth_reaches_every_fuzz_elaborator(self, monkeypatch, capsys):
        # the assumption-1 check elaborates arguments again, at the trial's depth
        from l2.elaborate import Elaborator

        depths = set()
        init = Elaborator.__init__

        def spy_init(self, search_depth=DEFAULT_SEARCH_DEPTH):
            depths.add(search_depth)
            init(self, search_depth)

        monkeypatch.setattr(Elaborator, "__init__", spy_init)
        code, _, _ = run_cli(["--search-depth", "30", "fuzz", "--trials", "3"], capsys)
        assert code == 0
        assert depths == {30}

    def test_fuzz_has_no_fuel_option_of_its_own(self, capsys):
        code, _, _ = run_cli(["fuzz", "--trials", "1", "--fuel", "3"], capsys)
        assert code == 64


class TestEntryPoint:
    def test_console_script(self, programs_dir):
        # The child imports the same l2 as this process, installed or not.
        import l2

        src = str(pathlib.Path(l2.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "l2.cli", "check", str(programs_dir / "negate_ok.l2")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "accepted" in result.stdout
