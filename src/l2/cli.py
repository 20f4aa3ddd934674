"""Command-line frontend.

Subcommands: check, elaborate, run, vcs, infer, fuzz.  Every subcommand
accepts --json for structured output.  Exit codes: 0 success/accepted,
1 rejected by refinement checking, 2 elaboration error, 3 no verdict (the
input nests deeper than the checker's recursion limit, or an obligation's
DNF outgrows the clause budget; stderr names the obligation), 64 usage error
(an unreadable or non-UTF-8 FILE, --preds file or config, a config that is
not a JSON object of integer fuel, search_depth and clause_budget, or a
setting below its least sensible value), 65 parse error (also a --preds
line that applies a kappa variable), 70 internal invariant violation.

``main`` runs each command with Python's cyclic garbage collector paused and
restores the caller's setting afterwards.  Nothing l2 builds is a reference
cycle, so reference counting frees a command's working state as it goes,
and no collector pass walks it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

from . import harness, infer, source_interp, syntax, target_interp
from .elaborate import DEFAULT_SEARCH_DEPTH, ElabError, elaborate_program
from .logic import DEFAULT_CLAUSE_BUDGET, ResourceLimit, contains_kappa, pand, render_pred, to_smtlib
from .parser import ParseError, parse_pred, parse_program
from .refine import PhaseOrderError, check_refined, print_ref_type
from .target import IllTyped, print_target

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ELAB_ERROR = 2
EXIT_NO_VERDICT = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class ConfigError(Exception):
    """An input that is not UTF-8, or a config file whose contents are not
    usable settings."""


@dataclass
class Config:
    fuel: int = source_interp.DEFAULT_FUEL
    search_depth: int = DEFAULT_SEARCH_DEPTH
    clause_budget: int = DEFAULT_CLAUSE_BUDGET


SETTINGS = ("fuel", "search_depth", "clause_budget")  # Config's fields, each a flag too

# The least value of each setting that asks for a meaningful run, from a flag
# or the config file; fuzz's --trials and --budget are flags only.
LEAST = {"fuel": 0, "search_depth": 1, "clause_budget": 1, "trials": 0, "budget": 0}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _read_program(path: str):
    return parse_program(_read_text(path))


def _emit(as_json: bool, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the JSON payload or the text; only the one printed is built."""
    if as_json:
        print(json.dumps(payload(), indent=2))
    else:
        out = text()
        print(out, end="" if out.endswith("\n") else "\n")


def _vc_payload(vc, verdict) -> dict:
    return {
        "origin": vc.origin,
        "hypotheses": [render_pred(h) for h in vc.hyps],
        "antecedent": render_pred(vc.antecedent),
        "consequent": render_pred(vc.consequent),
        "rendered": vc.render(),
        "verdict": verdict.kind,
    }


def _vc_line(vc, verdict) -> str:
    return f"[{verdict.kind}] {vc.origin}: {vc.render()}"


def _check_file(args, config: Config):
    """Both phases over the program in args.file: the refinement report and
    each VC with its verdict."""
    program = _read_program(args.file)
    result = elaborate_program(program, config.search_depth)
    report = check_refined(result.target, clause_budget=config.clause_budget)
    return report, list(zip(report.vcs, report.verdicts))


def cmd_check(args, config: Config) -> int:
    report, vcs = _check_file(args, config)
    status = "accepted" if report.accepted else "rejected"
    shown = vcs if args.explain else [(vc, v) for vc, v in vcs if v.kind != "valid"]
    _emit(args.json,
          lambda: {"status": status, "type": print_ref_type(report.type),
                   "vcs": [_vc_payload(vc, v) for vc, v in vcs]},
          lambda: "\n".join([*(_vc_line(vc, v) for vc, v in shown), status]))
    return EXIT_OK if report.accepted else EXIT_REJECTED


def cmd_elaborate(args, config: Config) -> int:
    program = _read_program(args.file)
    result = elaborate_program(program, config.search_depth)
    payload = {
        "type": syntax.print_type(result.type),
        "flag": result.flag,
        "target": print_target(result.target),
        "trace": list(result.trace),
    }
    text = (
        f"type: {payload['type']}\nflag: {payload['flag']}\n"
        f"target: {payload['target']}\ntrace: {' '.join(result.trace)}"
    )
    _emit(args.json, lambda: payload, lambda: text)
    return EXIT_OK


def cmd_run(args, config: Config) -> int:
    program = _read_program(args.file)
    if args.lang == "src":
        outcome, rules, _ = source_interp.eval_source_trace(program.main, config.fuel)
    else:
        result = elaborate_program(program, config.search_depth)
        outcome, rules, _ = target_interp.eval_target_trace(result.target, config.fuel)
    kind = type(outcome).__name__
    match outcome:
        case source_interp.Value(value):
            final = syntax.print_expr(value)
        case source_interp.StuckAt(expr, reason):
            final = f"{syntax.print_expr(expr)} ({reason})"
        case source_interp.FuelExhausted(expr):
            final = syntax.print_expr(expr)
    payload = {"outcome": kind, "result": final, "steps": len(rules), "trace": rules}
    lines = [*(rules if args.trace else []), f"{kind}: {final}", f"steps: {len(rules)}"]
    _emit(args.json, lambda: payload, lambda: "\n".join(lines))
    return EXIT_OK


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_") or "vc"


def cmd_vcs(args, config: Config) -> int:
    report, vcs = _check_file(args, config)
    if args.smtlib:
        os.makedirs(args.smtlib, exist_ok=True)
        for i, vc in enumerate(report.vcs):
            name = f"vc{i:03d}_{_slug(vc.origin)}.smt2"
            with open(os.path.join(args.smtlib, name), "w", encoding="utf-8") as handle:
                handle.write(to_smtlib(vc))
    _emit(args.json, lambda: {"vcs": [_vc_payload(vc, v) for vc, v in vcs]},
          lambda: "\n".join(_vc_line(vc, v) for vc, v in vcs) or "no verification conditions")
    return EXIT_OK


def cmd_infer(args, config: Config) -> int:
    program = _read_program(args.file)
    preds = None
    if args.preds:  # one candidate per line, which applies no kappa variable
        preds = []
        for n, line in enumerate(_read_text(args.preds).split("\n"), 1):
            if line.strip():
                preds.append(parse_pred(line.strip()))
                if contains_kappa(preds[-1]):
                    raise ParseError(f"a candidate in {args.preds} applies a kappa variable", n, 1)
    outcome, clauses, _, templated = infer.infer_refinements(
        program, preds, config.clause_budget, config.search_depth
    )
    if isinstance(outcome, infer.Unsat):
        clause = outcome.clause.render()
        _emit(args.json, lambda: {"status": "unsat", "clause": clause},
              lambda: f"no solution: clause fails under the greatest fixpoint\n  {clause}")
        return EXIT_REJECTED
    solution = {k: render_pred(pand(v)) for k, v in sorted(outcome.assignment.items())}
    program = syntax.print_program(infer.apply_solution(templated, outcome))
    _emit(args.json,
          lambda: {"status": "solved", "solution": solution,
                   "clauses": [c.render() for c in clauses], "program": program},
          lambda: "\n".join([*(f"{k} := {p}" for k, p in solution.items()), program]))
    return EXIT_OK


def cmd_fuzz(args, config: Config) -> int:
    stats = harness.run_fuzz(
        trials=args.trials,
        seed=args.seed,
        fuel=config.fuel,
        size_budget=args.budget,
        check_soundness=not args.no_soundness,
        shrink=args.shrink,
        search_depth=config.search_depth,
        clause_budget=config.clause_budget,
    )
    for report in stats.reports:
        print(json.dumps(report.to_json()))
    counters = stats.counters
    print(json.dumps({"trials": args.trials, **counters}), file=sys.stderr)
    bad = any(n for name, n in counters.items() if name not in ("inconclusive", "accepted"))
    return EXIT_REJECTED if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l2", description="two-phase overload checker")
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument("--config", metavar="FILE", help="JSON config file (defaults to .l2.json)")
    parser.add_argument("--fuel", type=int, default=None)
    parser.add_argument("--search-depth", type=int, default=None)
    parser.add_argument("--clause-budget", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run both phases")
    p_check.add_argument("file")
    p_check.add_argument("--explain", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_elab = sub.add_parser("elaborate", help="run phase 1 and print the target")
    p_elab.add_argument("file")
    p_elab.set_defaults(fn=cmd_elaborate)

    p_run = sub.add_parser("run", help="evaluate a program")
    p_run.add_argument("file")
    p_run.add_argument("--lang", choices=["src", "tgt"], default="src")
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_vcs = sub.add_parser("vcs", help="print verification conditions")
    p_vcs.add_argument("file")
    p_vcs.add_argument("--smtlib", metavar="DIR", help="write one .smt2 file per VC")
    p_vcs.set_defaults(fn=cmd_vcs)

    p_infer = sub.add_parser("infer", help="infer refinements for kappa templates")
    p_infer.add_argument("file")
    p_infer.add_argument("--preds", metavar="FILE", help="candidate predicates, one per line")
    p_infer.set_defaults(fn=cmd_infer)

    p_fuzz = sub.add_parser("fuzz", help="differential testing")
    p_fuzz.add_argument("--trials", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--budget", type=int, default=30)
    p_fuzz.add_argument("--no-soundness", action="store_true")
    p_fuzz.add_argument("--shrink", action="store_true")
    p_fuzz.set_defaults(fn=cmd_fuzz)
    return parser


def _load_config(args) -> Config:
    """Flags override file configuration, which overrides built-in defaults."""
    file_values: dict = {}
    path = args.config or (".l2.json" if os.path.exists(".l2.json") else None)
    if path:
        file_values = json.loads(_read_text(path))
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key in SETTINGS:
            if key in file_values and type(file_values[key]) is not int:
                raise ConfigError(f"config file {path}: {key} must be an integer")
    flags = {key: getattr(args, key) for key in SETTINGS if getattr(args, key) is not None}
    config = Config(**{**{key: file_values[key] for key in SETTINGS if key in file_values}, **flags})
    settings = {**vars(args), **vars(config)}
    for key, least in LEAST.items():
        if key in settings and settings[key] < least:
            raise ConfigError(f"{key} must be at least {least}, got {settings[key]}")
    return config


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic collector paused (see the module
    docstring); the caller's setting is restored afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args, _load_config(args))
    except ElabError as exc:
        message = str(exc)
        _emit(args.json, lambda: {"status": "elab-error", "message": message},
              lambda: f"phase 1 error: {message}")
        return EXIT_ELAB_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"error: config file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        print(f"no verdict: {exc}", file=sys.stderr)
        return EXIT_NO_VERDICT
    except (IllTyped, PhaseOrderError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        print("error: input nests too deeply for this checker (recursion limit reached)",
              file=sys.stderr)
        return EXIT_NO_VERDICT


if __name__ == "__main__":
    sys.exit(main())
