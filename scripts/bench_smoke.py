#!/usr/bin/env python3
"""Check that the benchmark still ends with a well-formed result line.

    scripts/bench_smoke.py

Runs `perfbench/run.py --workload verify --seed 1 --seconds 1` once with
--trace 0 and once with --trace 1 from the root of this checkout.  Each run
must exit 0 and its last line of standard output must be a JSON object with
correct true, failed 0 and exactly the metric names that BENCHMARK.json
declares: its end_to_end names for --trace 0, its per_layer names for
--trace 1.  A metric the benchmark declares but a run no longer prints (say,
because a module its probe measures is gone) fails here.  Exits 1 on any
failure, after checking both runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check_run(trace: int, declared: set[str]) -> list[str]:
    """Problems with one perfbench run; empty when its result line is whole."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}:\n{proc.stderr[-3000:]}"]
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON ({exc}): {lines[-1:]!r}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {lines[-1]!r}"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}")
    names = set(result.get("metrics") or ())
    if names != declared:
        problems.append(f"missing metrics {sorted(declared - names)}, "
                        f"undeclared metrics {sorted(names - declared)}")
    return problems


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        problems = check_run(trace, {m["name"] for m in benchmark[key]})
        for problem in problems:
            print(f"--trace {trace}: {problem}", file=sys.stderr)
        print(f"--trace {trace}: {'FAIL' if problems else 'ok'}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
