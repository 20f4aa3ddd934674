"""Reproduce the ROADMAP's "Perf baseline" figures with the benchmark's op runner and tracer.

    python3 perfbench/baseline.py

Prints one row per figure: the stated baseline value and what this checkout
measures.  Times are raw, at the machine's speed; counts do not depend on it.
"""

from __future__ import annotations

import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads


def traced(main, ops, limit):
    done = run.run_pass(main, ops, limit, run.Speed(), tracer.Tracer((run.OpTimeout,)))
    return done.results, done.trace.metrics()


def untraced_ms(main, op, limit, repeats):
    results = [run.run_op(main, op, limit, None) for _ in range(repeats)]
    return statistics.median(r.seconds for r in results) * 1000, results[0].status


def main() -> int:
    if not run.prepare():
        return 2
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    rows: list[tuple[str, str, str]] = []
    try:
        import l2.cli
        from l2 import harness, syntax

        l2_main = l2.cli.main
        ops = []
        for seed in range(400):
            text = syntax.print_program(harness.gen_program(seed, 30)) + "\n"
            path = scratch / f"gen_{seed}.l2"
            path.write_text(text, encoding="utf-8")
            ops.append(workloads.check_op("gen-30", str(path), text, {0, 1}))
        results, m = traced(l2_main, ops, workloads.LIMIT_S["corpus"])
        missed = [r for r in results if r.status != "match"]
        if missed:
            print(f"{len(missed)} seeded programs missed their answer", file=sys.stderr)
            return 1
        rows += [
            ("400 programs (seeds 0-399, budget 30): elaborate", "0.21 s", f"{m['elaborate.s']:.2f} s"),
            ("400 programs: VC generation (refine self + typecheck)", "0.13 s",
             f"{m['refine.self_s'] + m['target.typecheck_s']:.2f} s"),
            ("400 programs: discharge (valid)", "0.12 s", f"{m['logic.s']:.2f} s"),
            ("400 programs: VCs", "197", f"{m['refine.vcs']:.0f}"),
            ("400 programs: invalid VCs", "156", f"{m['logic.invalid_calls']:.0f}"),
            ("400 programs: cubes", "219", f"{m['logic.cubes']:.0f}"),
        ]

        path = run.ROOT / "programs" / "negate_infer.l2"
        op = workloads.infer_op("negate_infer", str(path), path.read_text(encoding="utf-8"), 1)
        limit = workloads.LIMIT_S["infer"]
        ms, status = untraced_ms(l2_main, op, limit, 5)
        _, m = traced(l2_main, [op], limit)
        rows += [
            ("negate_infer.l2: l2 infer time", "0.66 s", f"{ms / 1000:.2f} s ({status})"),
            ("negate_infer.l2: valid() calls", "99", f"{m['infer.valid_calls']:.0f}"),
        ]

        rng = random.Random("baseline")
        figures = {200: "0.86 s", 300: "1.74 s", 450: "3.95 s", 600: "RecursionError, exit 1"}
        for n, stated in figures.items():
            text = workloads.chain_program(n, rng)
            path = scratch / f"chain_{n}.l2"
            path.write_text(text, encoding="utf-8")
            op = workloads.check_op(f"chain-{n}", str(path), text, {0})
            ms, status = untraced_ms(l2_main, op, workloads.LIMIT_S["chain"], 3)
            rows.append((f"let chain n={n}: l2 check", stated, f"{ms / 1000:.2f} s ({status})"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    width = max(len(r[0]) for r in rows)
    print(f"{'figure':<{width}}  {'stated':<24}measured")
    for name, stated, measured in rows:
        print(f"{name:<{width}}  {stated:<24}{measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
