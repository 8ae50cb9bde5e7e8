#!/usr/bin/env python3
"""Compare the end-to-end benchmark of a base revision with this checkout.

    scripts/bench.py --base REV --label NAME [--pairs N] [--workload W] [--seed S]

The base revision is exported with `git archive` into a temporary directory,
and this checkout's working tree (its tracked and untracked files, committed
or not, but no ignored one) is copied into another; both are removed
afterwards, and nothing is registered in .git, even when a run is
interrupted.  Neither copy holds bytecode, so both sides compile the same
modules: an ignored `__pycache__` in the checkout would spare the head side
some compilation where PYTHONDONTWRITEBYTECODE keeps the base from writing
its own.  Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0`, with T the run_seconds of BENCHMARK.json, once in each copy,
alternating which side runs first.

Results go to BENCH_<NAME>.json at the root of this checkout, one entry per
(workload, seed); running again with another workload or seed adds an entry
and replaces only an entry with the same key.  Per end-to-end metric of
BENCHMARK.json an entry holds both sides' medians and quartiles over the
pairs, the pairs the checkout won, and every run's value; it also holds the
operation counts, both sides' src.lines.* and the environment line that
perfbench prints.  The script only calls perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify", "tables", "queries")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def copy_working_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a checkout; its result line and environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {root}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(args: argparse.Namespace, seconds: float, base_commit: str, runs: dict,
              metrics: list) -> dict:
    entry = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
             "pairs": len(runs["head"]),
             "base": {"rev": args.base, "commit": base_commit},
             "head": {"commit": git("rev-parse", "HEAD"),
                      "src_modified": bool(git("status", "--porcelain", "--", "src"))},
             "metrics": {}}
    for side, results in runs.items():
        entry[f"{side}_operations"] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
        }
        entry[f"{side}_environment"] = results[0]["environment"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        entry["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": spread(base), "head": spread(head),
            "head_wins": sum((h < b) if lower else (h > b) for b, h in zip(base, head)),
            "change": statistics.median(head) / statistics.median(base) - 1,
            "base_values": base, "head_values": head,
        }
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=WORKLOADS, default="queries")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tmp, \
            tempfile.TemporaryDirectory(prefix="bench-head-") as head_tmp:
        roots = {"base": Path(base_tmp), "head": Path(head_tmp)}
        export_revision(base_commit, roots["base"])
        copy_working_tree(roots["head"])
        runs: dict = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_perfbench(roots[side], args.workload, args.seed,
                                                seconds))
            print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
                f"{side} cmd_wall_s {runs[side][-1]['metrics']['cmd_wall_s']:.4f}"
                for side in ("base", "head")), file=sys.stderr)

    entry = summarise(args, seconds, base_commit, runs, benchmark["end_to_end"])
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"label": args.label}
    record["runs"] = [r for r in record.get("runs", [])
                      if (r["workload"], r["seed"]) != (args.workload, args.seed)] + [entry]
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in entry["metrics"].items():
        print(f"{args.workload:8} {name:14} base {m['base']['median']:10.4f} "
              f"[{m['base']['q1']:.4f}, {m['base']['q3']:.4f}]  head {m['head']['median']:10.4f} "
              f"[{m['head']['q1']:.4f}, {m['head']['q3']:.4f}]  {m['change']:+7.1%}  "
              f"wins {m['head_wins']}/{entry['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
