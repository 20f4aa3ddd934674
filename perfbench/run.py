"""l2 benchmark: time to verdict of `l2 check`, `l2 infer` and `l2 fuzz`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus|chain|diseq|infer \
        --seed N --seconds S --trace 0|1

A single-process, single-thread closed loop: each op calls ``l2.cli.main``
in-process, with its output captured, after the previous op returned.  The
workload's ops form a *pass* (see ``workloads.py``); the run repeats whole
passes while the next one is expected to end within ``--seconds`` (at least
one pass), computes every metric per pass and reports the median over
passes.  A pass has a fixed make-up, so a faster build runs more passes of
the same ops, never a different mix.

Every op is judged against its known answer.  An op that ends without a
verdict (the per-op time limit, a RecursionError, a budget overrun, a crash)
counts as attempted and failed, and is left out of the latency figures.

Times are reported at a nominal machine speed.  Between ops the runner times
a fixed pure-Python reference computation; a pass's times are multiplied by
the reference's nominal duration over its median measured duration during
that pass.  On a shared machine whose speed drifts by 10-20% from one run to
the next, this keeps the figures of one build comparable across runs.  The
scale of each pass is printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of the traced passes,
with the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("decided_ratio", "ratio"),
    ("verdict_match_ratio", "ratio"),
    ("growth_exp", "1"),
    ("peak_rss_mb", "MB"),
)

REFERENCE_NOMINAL_S = 0.0013  # duration of one reference computation at nominal speed
REFERENCE_EVERY_S = 0.05  # least time between two reference measurements
REFERENCE_REPEATS = 2  # reference computations per measurement


class OpTimeout(BaseException):
    """Raised by the interval timer when an op exceeds its limit.

    A BaseException, so no handler inside l2 can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass(frozen=True)
class Result:
    op: workloads.Op
    seconds: float
    status: str  # "match", "wrong", "timeout", "RecursionError", "ResourceLimit", ...

    @property
    def decided(self) -> bool:
        return self.status in ("match", "wrong")


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


def reference() -> float:
    """Time a fixed computation that builds, hashes and walks small tuples and strings."""
    start = time.perf_counter()
    items = [(i, str(i)) for i in range(3000)]
    table = {(s, i % 89): (i, s, len(s)) for i, s in items}
    total = 0
    for key in list(table)[::-1]:
        total += table[key][2]
    return time.perf_counter() - start


class Speed:
    """Reference timings taken between ops."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        self.samples += (reference() for _ in range(REFERENCE_REPEATS))
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, since: int) -> float:
        """Factor from raw seconds to nominal seconds, over the samples from `since` on."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples[since:])


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def prepare() -> bool:
    """Put the checkout's l2 sources on the path and arm the op timer's handler."""
    if not (ROOT / "src" / "l2" / "cli.py").is_file() or not (ROOT / "programs").is_dir():
        print(f"perfbench: no l2 sources under {ROOT}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    return True


def set_up(workload: str, seed: int, workdir: Path):
    """Import l2 afresh and make the workload's inputs; return (ops, files, l2.cli.main)."""
    for name in [m for m in sys.modules if m == "l2" or m.startswith("l2.")]:
        del sys.modules[name]
    cli = importlib.import_module("l2.cli")
    ops, files = workloads.build_pass(workload, seed, workdir, ROOT / "programs")
    return ops, files, cli.main


# ---------------------------------------------------------------------------
# Running ops and passes
# ---------------------------------------------------------------------------


def run_op(main, op: workloads.Op, limit: float, trace: tracer.Tracer | None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                code = trace.op(main, list(op.argv)) if trace else main(list(op.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        status = None
    except OpTimeout:
        status = "timeout"
    except RecursionError:
        status = "RecursionError"
    except Exception as exc:  # any other crash is a failed op of its own kind
        status = type(exc).__name__
    seconds = time.perf_counter() - start
    if status is None:
        if code in workloads.VERDICT_CODES[op.argv[0]]:
            status = "match" if workloads.judge(op, code, out.getvalue()) else "wrong"
        elif "clause budget" in err.getvalue():
            status = "ResourceLimit"
        else:
            status = f"exit-{code}"
    return Result(op, seconds, status)


@dataclass
class Pass:
    results: list[Result]
    scale: float  # raw seconds to nominal seconds
    limit: float
    trace: tracer.Tracer | None

    def metrics(self) -> dict[str, float]:
        decided = [r.seconds * 1000 * self.scale for r in self.results if r.decided]
        n = len(self.results)
        # An op the timer ended took the limit, at whatever speed the machine ran.
        busy = sum(self.limit if r.status == "timeout" else r.seconds * self.scale
                   for r in self.results)
        return {
            "verdict_ms_p50": statistics.median(decided) if decided else math.nan,
            "verdict_ms_tail": tail(decided)[0] if decided else math.nan,
            "ops_per_s": n / busy,
            "decided_ratio": len(decided) / n,
            "verdict_match_ratio": sum(r.status == "match" for r in self.results) / n,
            "growth_exp": growth_exponent(self.results),
        }


def run_pass(main, ops, limit: float, speed: Speed, trace: tracer.Tracer | None = None) -> Pass:
    first = len(speed.samples)
    speed.sample()
    if trace:
        trace.install()
    results = []
    try:
        for op in ops:
            results.append(run_op(main, op, limit, trace))
            speed.sample_if_due()
    finally:
        if trace:
            trace.uninstall()
    speed.sample()
    return Pass(results, speed.scale(first), limit, trace)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  With 10 samples or fewer no
    such percentile exists and the maximum is returned as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def growth_exponent(results: list[Result]) -> float:
    """Least-squares slope of log time against log program size, over the decided ops."""
    points = [(math.log(r.op.size), math.log(r.seconds)) for r in results if r.decided]
    if len({x for x, _ in points}) < 2:
        return math.nan
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def describe(passes: list[Pass]) -> None:
    """Per-family rows and per-command latencies of the first pass, at nominal speed."""
    first = passes[0]
    families: dict[str, list[Result]] = {}
    commands: dict[str, list[float]] = {}
    for r in first.results:
        families.setdefault(r.op.label, []).append(r)
        if r.decided:
            commands.setdefault(r.op.argv[0], []).append(r.seconds * 1000 * first.scale)
    print(f"{'family':<16}{'ops':>6}{'median ms':>12}  outcomes")
    for label, rs in sorted(families.items()):
        med = statistics.median(r.seconds for r in rs) * 1000 * first.scale
        outcomes = ", ".join(f"{k}={v}" for k, v in sorted(Counter(r.status for r in rs).items()))
        print(f"{label:<16}{len(rs):>6}{med:>12.2f}  {outcomes}")
    names = {"check": "check_ms", "infer": "infer_ms", "fuzz": "fuzz_trial_ms"}
    for command, ms in sorted(commands.items()):
        value, pct, count = tail(ms)
        print(f"{names[command]}_p50 = {statistics.median(ms):.3f} ms; "
              f"{names[command]}_tail = {value:.3f} ms (p{pct:.2f} of {count} decided ops)")
    scales = ", ".join(f"{p.scale:.3f}" for p in passes)
    print(f"passes: {len(passes)}; raw-to-nominal time scale per pass: {scales}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    limit = workloads.LIMIT_S[args.workload]
    speed = Speed()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            first = len(speed.samples)
            speed.sample()
            start = time.perf_counter()
            ops, files, l2_main = set_up(args.workload, args.seed, scratch)
            raw = time.perf_counter() - start
            speed.sample()
            setups.append(raw * speed.scale(first))
        # Writing the files is left out of setup_s: on a shared virtual
        # machine, creating files slowed from run to run, whatever l2 did.
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
        run_op(l2_main, min(ops, key=lambda op: op.size), limit, None)  # warm caches, untimed
        gc.collect()
        gc.freeze()  # the inputs and modules outlive every op: keep them out of collections

        plain: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(l2_main, ops, limit, speed))
            if args.trace:
                traced.append(run_pass(l2_main, ops, limit, speed, tracer.Tracer((OpTimeout,))))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain_metrics = median_of([p.metrics() for p in plain])
    if any(math.isnan(v) for v in plain_metrics.values()):
        print("perfbench: too few ops reached a verdict to measure", file=sys.stderr)
        return 1
    describe(plain)
    print(f"per-op limit {limit} s")

    if args.trace:
        units = dict(tracer.LAYER_METRICS)
        layer = median_of([
            {name: value * (p.scale if units[name] == "s" else 1)
             for name, value in p.trace.metrics().items()}
            for p in traced
        ])
        coverage = statistics.median(
            p.trace.layer_total() / sum(r.seconds for r in p.results) for p in traced)
        traced_p50 = statistics.median(p.metrics()["verdict_ms_p50"] for p in traced)
        print(f"traced passes: {len(traced)}; layer self times cover {100 * coverage:.1f}% "
              f"of op time, l2.cli's own share included; the rest is tracing")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracer.LAYER_METRICS}
        metrics["trace.coverage"] = {"value": coverage, "unit": "ratio"}
        metrics["trace.verdict_ms_p50"] = {"value": traced_p50, "unit": "ms"}
        metrics["trace.overhead_ms"] = {
            "value": traced_p50 - plain_metrics["verdict_ms_p50"], "unit": "ms"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            **plain_metrics,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    results = [r for p in plain + traced for r in p.results]
    print(json.dumps({
        "correct": not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status != "match" for r in results),
        "metrics": metrics,
    }))
    return 0


ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def pin_layout() -> None:
    """Re-execute this process once with string hashing and address layout fixed.

    l2 keeps sets and dicts keyed by strings and by objects hashed on their
    address, so the hash seed and the address layout both change the order of
    its work.  Drawn afresh per process, they moved a let chain's median time
    per op by about 10% between runs of one build.  A hash seed the caller
    chose is kept.  Where the personality call is refused, the layout stays
    random.
    """
    if os.environ.get("PERFBENCH_PINNED"):
        return
    env = {**os.environ, "PERFBENCH_PINNED": "1"}
    if env.get("PYTHONHASHSEED", "random") == "random":
        env["PYTHONHASHSEED"] = "0"
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    pin_layout()
    sys.exit(main())
