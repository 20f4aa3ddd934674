"""Check that the traced work counts repeat exactly under two hash seeds.

    python3 perfbench/check_counts.py

Runs every workload traced (seed 1, one pass each) under PYTHONHASHSEED=0
and =1 and compares each count metric (``tracer.DETERMINISTIC_COUNTS``).
Exits 1 when any count differs.  A later change may claim a gain on a count only if the
count repeats like this.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent


def counts(workload: str, seed: int, hash_seed: str) -> dict[str, float]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracer.DETERMINISTIC_COUNTS}


def main() -> int:
    same = True
    for workload in workloads.WORKLOADS:
        a, b = counts(workload, 1, "0"), counts(workload, 1, "1")
        differing = [name for name in a if a[name] != b[name]]
        same &= not differing
        shown = ", ".join(f"{name}={a[name]:.0f}" for name in a if a[name])
        print(f"{workload}: {'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}"
              f" ({shown})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
