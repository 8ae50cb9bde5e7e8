"""Benchmark of the bitcube command line, end to end and layer by layer.

    python3 perfbench/run.py --workload verify|tables|queries|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package need not be
installed, every process gets PYTHONPATH=src.  One client runs one command
at a time in a closed loop.  A run sets the workload up several times
(setup_s is the median), then repeats whole rounds of the workload's fixed
command list for about S seconds, then checks every output against
perfbench/checks.py, outside the timed region.

With --trace 0 it prints the end-to-end metrics of the workload; with
--trace 1 it runs the per-layer probes of perfbench/probe.py instead, each
in a fresh process, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the environment.  perfbench/README.md
maps each layer metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "bitcube"
ORACLE = ROOT / "tests" / "rank_oracle.py"

SEMIRINGS = checks.SEMIRINGS
GROUPS = ("small", "large")
FORMATS = ("md", "csv", "json")

#: Modules whose line counts are reported one by one; a module that is gone
#: counts 0 lines.  src.lines.total counts every .py file under src/.
MODULES = ("__init__", "__main__", "arrays", "cache", "cli", "expected",
           "groups", "reporting", "stratify")

# A fixed Python and numpy job that shares no code with bitcube.  The speed
# of this machine's cores wanders by 10-40 % within seconds and between
# minutes, so a run times this job before and after every set-up and every
# command, and scales the timings of each by CALIBRATION_REFERENCE / (mean
# time of the job just before and just after it): the times it reports are
# seconds on a machine that runs the job in the reference time, its median
# on the machine the reference figures come from.
CALIBRATION = """
import numpy as np
x = 0
for i in range(300000):
    x += i * i
a = np.arange(1 << 16, dtype=np.uint32)
for i in range(4):
    np.unique(a ^ (a >> i))
"""
CALIBRATION_REFERENCE = {"wall_s": 0.30, "cpu_s": 0.40}

END_TO_END_UNITS = {"setup_s": "s", "run_wall_s": "s", "cmd_wall_s": "s",
                    "cmd_cpu_s": "s", "peak_rss_mib": "MiB"}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def verify_round(rng: random.Random) -> list[list[str]]:
    return [["verify", "--scope", "all"]] * 2


def tables_round(rng: random.Random) -> list[list[str]]:
    return [["tables", "--kind", "all", "--format", fmt] for fmt in FORMATS]


def queries_round(rng: random.Random) -> list[list[str]]:
    """13 short commands, 8 of them `rank`; the kinds are fixed, the seed
    picks the codes, semirings, groups and formats, and the order."""
    def code() -> list[str]:
        digits = format(rng.randrange(1 << 16), "016b")
        # the CLI accepts the digits whole or in groups, as pasted from tables
        return [digits] if rng.random() < 0.5 else [digits[i:i + 4] for i in range(0, 16, 4)]

    commands = []
    for semiring in SEMIRINGS:
        for _ in range(2):
            commands.append(["rank", "--n", "4", "--semiring", semiring, *code()])
    for group in GROUPS:
        commands.append(["rank", "--n", "4", "--semiring", "gf2", "--group", group, *code()])
    commands += [
        ["enumerate", "--n", "4", "--semiring", rng.choice(SEMIRINGS), "--format", rng.choice(FORMATS)],
        ["classify", "--n", "4", "--group", rng.choice(GROUPS), "--format", rng.choice(FORMATS)],
        ["split", "--n", "4", "--format", rng.choice(("text",) + FORMATS)],
        ["bounds", "--format", rng.choice(FORMATS)],
        ["export", "--n", "4", "--semiring", rng.choice(SEMIRINGS)],
    ]
    rng.shuffle(commands)
    return commands


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random], list]
    #: commands that fill the cache directory during set-up
    fill: tuple
    setup_repeats: int
    #: every command of a round starts on an empty cache directory
    fresh_cache: bool


WORKLOADS = {
    "verify": Workload(verify_round, (), 5, False),
    "tables": Workload(tables_round, (), 5, True),
    "queries": Workload(
        queries_round,
        tuple(("enumerate", "--n", str(n), "--semiring", s) for n in (3, 4) for s in SEMIRINGS),
        3,
        False,
    ),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    argv: tuple
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mib: float


class Bench:
    """One benchmark run: its temporary directory, its reference and counts."""

    def __init__(self, workdir: Path, reference):
        self.workdir = workdir
        self.home = workdir / "home"
        self.home.mkdir()
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._cli_verdicts: dict = {}

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def _env(self, cache_dir: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("BITCUBE_") and k != "PYTHONPATH"}
        env.update(PYTHONPATH=str(SRC), HOME=str(self.home),
                   BITCUBE_CACHE_DIR=str(cache_dir), TMPDIR=str(self.workdir))
        return env

    def spawn(self, args: list, cache_dir: Path, label=None) -> Outcome:
        """Run one process to its end; wall time from spawn to exit, CPU
        time and peak RSS from its rusage."""
        with open(self.workdir / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err, env=self._env(cache_dir), cwd=self.workdir)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            errtext = err.read().decode(errors="replace")
        return Outcome(tuple(label or args), proc.returncode,
                       out.decode(errors="replace"), errtext, wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def cli(self, argv, cache_dir: Path) -> Outcome:
        return self.spawn([sys.executable, "-m", "bitcube", *argv], cache_dir, argv)

    def count(self, outcome: Outcome, check: Callable[[Outcome], None]) -> bool:
        """Count one operation; check(outcome) raises CheckFailed on a wrong
        output.  A non-zero exit is a failure; a wrong output after exit 0
        is one too, and also makes the run incorrect."""
        self.attempted += 1
        if outcome.returncode != 0:
            problem = f"exit code {outcome.returncode}: {outcome.stderr.strip()[-500:]}"
        else:
            try:
                check(outcome)
                return True
            except checks.CheckFailed as exc:
                problem = str(exc)
            except Exception:  # a malformed output can break any parser
                problem = "malformed output\n" + traceback.format_exc()
            self.wrong += 1
        self.failed += 1
        print(f"FAILED {' '.join(map(str, outcome.argv))}: {problem}", file=sys.stderr)
        return False

    def check_cli(self, outcome: Outcome) -> None:
        """checks.check_command, once per distinct output."""
        key = (outcome.argv, outcome.stdout)
        if key not in self._cli_verdicts:
            try:
                checks.check_command(self.reference, outcome.argv, 0, outcome.stdout)
                self._cli_verdicts[key] = None
            except checks.CheckFailed as exc:
                self._cli_verdicts[key] = exc
        if self._cli_verdicts[key] is not None:
            raise self._cli_verdicts[key]


def check_import(outcome: Outcome) -> None:
    checks.require(outcome.stdout == "", "import printed to stdout")


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def setup(bench: Bench, workload: Workload) -> tuple[float, Path, list]:
    """One fresh `import bitcube` process, then the commands that fill a
    fresh cache directory; returns (seconds, cache, [(outcome, check)])."""
    cache = bench.fresh_dir("cache-")
    start = time.perf_counter()
    done = [(bench.spawn([sys.executable, "-c", "import bitcube"], cache), check_import)]
    done += [(bench.cli(list(argv), cache), bench.check_cli) for argv in workload.fill]
    return time.perf_counter() - start, cache, done


class Calibrator:
    """Times the calibration job between measured blocks and scales each
    block's timings by the two calibration times around it."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.samples = [self._sample()]

    def _sample(self) -> Outcome:
        outcome = self.bench.spawn([sys.executable, "-c", CALIBRATION],
                                   self.bench.workdir, ("calibration",))
        if outcome.returncode != 0:
            raise RuntimeError(f"calibration job failed: {outcome.stderr}")
        return outcome

    def measure(self, block: Callable[[], object]) -> tuple[object, float, float]:
        """block(), then a calibration; returns block's result and the wall
        and CPU scales to the reference speed."""
        result = block()
        before, after = self.samples[-1], self._sample()
        self.samples.append(after)
        return (result,
                2 * CALIBRATION_REFERENCE["wall_s"] / (before.wall_s + after.wall_s),
                2 * CALIBRATION_REFERENCE["cpu_s"] / (before.cpu_s + after.cpu_s))


def round_wall(rounds: list, wall: Callable[[tuple], float]) -> float:
    """Wall time of the round's command list: for each command of the list,
    its median over the rounds, summed."""
    return sum(statistics.median(wall(done[i]) for done in rounds)
               for i in range(len(rounds[0])))


def run_workload(bench: Bench, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Returns the end-to-end metrics, scaled to the reference speed, and the
    raw figures behind them."""
    workload = WORKLOADS[name]
    commands = workload.make_round(random.Random(f"{name}-{seed}"))
    calibrator = Calibrator(bench)

    setups, setup_outcomes = [], []
    for _ in range(workload.setup_repeats):
        (elapsed, cache, outcomes), wall_scale, _ = calibrator.measure(
            lambda: setup(bench, workload))
        setups.append((elapsed, elapsed * wall_scale))
        setup_outcomes += outcomes
    for old in bench.workdir.glob("cache-*"):
        if old != cache:
            shutil.rmtree(old)

    # rounds[i] lists (outcome, scaled wall, scaled cpu) per command
    rounds, round_times = [], []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(round_times) <= seconds):
        round_start = time.perf_counter()
        done = []
        for argv in commands:
            command_cache = bench.fresh_dir("cache-") if workload.fresh_cache else cache
            outcome, wall_scale, cpu_scale = calibrator.measure(
                lambda: bench.cli(argv, command_cache))
            done.append((outcome, outcome.wall_s * wall_scale, outcome.cpu_s * cpu_scale))
            if workload.fresh_cache:
                shutil.rmtree(command_cache)
        rounds.append(done)
        round_times.append(time.perf_counter() - round_start)

    for outcome, check in setup_outcomes:
        bench.count(outcome, check)
    for done in rounds:
        outcomes = [o for o, _, _ in done]
        round_checks = format_checks(bench, outcomes) if name == "tables" else {}
        for outcome in outcomes:
            bench.count(outcome, round_checks.get(outcome.argv[-1], bench.check_cli))

    measured = [entry for done in rounds for entry in done]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "run_wall_s": round_wall(rounds, lambda entry: entry[1]),
        "cmd_wall_s": statistics.median(wall for _, wall, _ in measured),
        "cmd_cpu_s": statistics.median(cpu for _, _, cpu in measured),
        "peak_rss_mib": max(o.maxrss_mib for o, _, _ in measured),
    }
    raw = {
        "setup_s": statistics.median(elapsed for elapsed, _ in setups),
        "run_wall_s": round_wall(rounds, lambda entry: entry[0].wall_s),
        "cmd_wall_s": statistics.median(o.wall_s for o, _, _ in measured),
        "cmd_cpu_s": statistics.median(o.cpu_s for o, _, _ in measured),
        "calibration_wall_s": statistics.median(o.wall_s for o in calibrator.samples),
        "calibration_cpu_s": statistics.median(o.cpu_s for o in calibrator.samples),
        "rounds": len(rounds),
    }
    return metrics, raw


def format_checks(bench: Bench, outcomes: list) -> dict:
    """Checks of a `tables` round by format: csv and json must also carry
    the cells of the round's md output, when that output is well-formed."""
    md_outcome = next(o for o in outcomes if o.argv[-1] == "md")
    try:
        bench.check_cli(md_outcome)
    except checks.CheckFailed:
        return {}  # the md command fails on its own
    md = checks.parse_document(md_outcome.stdout, "md")

    def check(outcome: Outcome) -> None:
        bench.check_cli(outcome)
        fmt = outcome.argv[-1]
        checks.check_same_cells(md, checks.parse_document(outcome.stdout, fmt), fmt)
    return {"csv": check, "json": check}


# ---------------------------------------------------------------------------
# traced run: per-layer probes
# ---------------------------------------------------------------------------

def probe_list(rng: random.Random, workdir: Path) -> list[tuple]:
    rank_codes = ",".join(str(rng.randrange(1 << 16)) for _ in range(200))
    orbit_codes = ",".join(str(rng.randrange(1 << 16)) for _ in range(16))
    return (
        [("stratify", str(n), s) for n in (3, 4) for s in SEMIRINGS]
        + [("rank_of", rank_codes)]
        + [("classify", str(n), g) for n in (3, 4) for g in GROUPS]
        + [("orbit_split",), ("orbits", orbit_codes), ("cache", str(workdir))]
        + [("partition", s) for s in ("bool", "nat")]
        + [("emit", fmt) for fmt in FORMATS]
        + [("verify", "traced"), ("verify", "plain")]
    )


def table_rows(rows, cells) -> list[tuple]:
    """Probe results as rendered-table rows, so the workload checks apply."""
    return [tuple(str(c) for c in cells(i, row)) for i, row in enumerate(rows, start=1)]


def check_probe(ref, probe: tuple, result: dict, samples: dict, round_results: dict) -> None:
    """Check one probe's results and record its timings in samples."""
    name, args = probe[0], probe[1:]
    text = checks.code_text
    if name == "stratify":
        n, s = int(args[0]), args[1]
        samples[f"stratify.n{n}.{s}.ms"].append(result["ms"])
        samples[f"stratify.unique_calls.{n}.{s}"].append(result["unique_calls"])
        checks.check_counts(ref, n, s, tuple(result["sizes"]))
        if n == 3:
            round_results[s] = result["strata"]
            checks.require(set(result["strata"][1]) == ref.rank_one(3), "rank-1 stratum")
            for rank, stratum in enumerate(result["strata"]):
                checks.require(all(ref.rank(3, s, c) == rank for c in stratum),
                               f"n=3 {s} stratum {rank} differs from the oracle")
            if s == "nat" and "bool" in round_results:
                checks.require(result["strata"] == round_results["bool"],
                               "n=3 Boolean and integer strata differ")
    elif name == "rank_of":
        samples["stratify.rank_of.n4.first_ms"].append(result["first_ms"])
        samples["stratify.rank_of.n4.us"].append(result["us"])
        codes = [int(c) for c in args[0].split(",")]
        checks.require(result["ranks"] == [ref.rank(4, "gf2", c) for c in codes],
                       "rank_of differs from the oracle")
    elif name == "classify":
        n, g = int(args[0]), args[1]
        samples[f"groups.classify.n{n}.{g}.ms"].append(result["ms"])
        samples[f"groups.unique_calls.{n}.{g}"].append(result["unique_calls"])
        checks.check_orbits(ref, n, g, checks.CLASSIFY_COLUMNS, table_rows(
            result["rows"], lambda i, r: (i, r[0], r[1], r[2], text(r[3], n))),
            ref.strata_counts(n, "gf2"))
    elif name == "orbit_split":
        samples["groups.orbit_split.n4.ms"].append(result["ms"])
        checks.check_splits(ref, 4, checks.SPLIT_COLUMNS, table_rows(
            result["rows"], lambda i, r: (i, r[0], r[1], " + ".join(f"{c}·{s}" for c, s in r[2]))))
    elif name == "orbits":
        for g in GROUPS:
            samples[f"groups.{g}_orbit.n4.ms"].append(result[g]["ms"])
            for code, least, size in result[g]["results"]:
                checks.require(ref.orbit(4, g, code) == (least, size),
                               f"{g} orbit of {text(code, 4)}: ({least}, {size})")
    elif name == "cache":
        if result.get("absent"):
            return
        samples["cache.dump_table.n4.ms"].append(result["dump_ms"])
        samples["cache.load_table.n4.ms"].append(result["load_ms"])
        samples["cache.bytes"].append(result["bytes"])
        checks.require(result["equal"], "loaded table differs from the dumped one")
        checks.check_counts(ref, 4, "gf2", tuple(result["sizes"]))
    elif name == "partition":
        s = args[0]
        samples[f"reporting.partition_by_ones.n4.{s}.ms"].append(result["ms"])
        checks.check_counts(ref, 4, s, tuple(result["sizes"]))
        checks.check_partitions(ref, 4, s, checks.PARTITION_COLUMNS, table_rows(
            result["rows"], lambda i, r: (i, r[0], r[1], r[2], text(r[3], 4))),
            tuple(result["sizes"]))
    elif name == "emit":
        fmt = args[0]
        samples[f"reporting.emit_all_tables.{fmt}.ms"].append(result["ms"])
        samples[f"reporting.emit_all_tables.{fmt}.bytes"].append(result["bytes"])
        round_results[fmt] = checks.check_document(ref, result["text"], fmt)
        if fmt != "md" and "md" in round_results:
            checks.check_same_cells(round_results["md"], round_results[fmt], fmt)
    elif name == "verify":
        samples[f"verify.{args[0]}.ms"].append(result["ms"])
        checks.check_verify(result["text"])


def run_trace(bench: Bench, seed: int, seconds: float) -> dict:
    probes = probe_list(random.Random(f"trace-{seed}"), bench.workdir)
    imports = {"python": "pass", "numpy": "import numpy", "bitcube": "import bitcube"}
    samples: dict = defaultdict(list)
    round_walls = []
    start = time.perf_counter()
    while len(round_walls) < 2 or (time.perf_counter() - start
                                   + statistics.median(round_walls) <= seconds):
        round_start = time.perf_counter()
        round_results: dict = {}
        for label, code in imports.items():
            outcome = bench.spawn([sys.executable, "-c", code], bench.workdir)
            if bench.count(outcome, check_import):
                samples[f"cli.import.{label}_s"].append(outcome.wall_s)
        for probe in probes:
            outcome = bench.spawn([sys.executable, str(HERE / "probe.py"), *probe],
                                  bench.workdir, probe)

            def check(o, probe=probe):
                result = json.loads(o.stdout.splitlines()[-1])
                check_probe(bench.reference, probe, result, samples, round_results)
            bench.count(outcome, check)
        round_walls.append(time.perf_counter() - round_start)

    metrics = {name: statistics.median(values) for name, values in samples.items()
               if "unique_calls." not in name and not name.startswith("verify.")}
    for layer, prefix in (("stratify", "stratify.unique_calls."),
                          ("groups", "groups.unique_calls.")):
        metrics[f"{layer}.unique_calls"] = sum(
            values[0] for name, values in samples.items() if name.startswith(prefix))
    metrics["reporting.verify_all.ms"] = statistics.median(samples["verify.plain.ms"])
    metrics["trace.overhead_ms"] = (statistics.median(samples["verify.traced.ms"])
                                    - metrics["reporting.verify_all.ms"])
    metrics.update(source_lines())
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.startswith("src.lines"):
        return "lines"
    return "count"


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def source_lines() -> dict:
    counts = {f"src.lines.{m}": 0 for m in MODULES}
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        if path.parent == PACKAGE and path.stem in MODULES:
            counts[f"src.lines.{path.stem}"] = lines
    counts["src.lines.total"] = total
    return counts


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": source_lines(),
    }


def report(label: str, metrics: dict, units) -> dict:
    out = {}
    for name, value in metrics.items():
        unit = units(name)
        print(f"{label:8} {name:42} {value:>16.6f} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (PACKAGE / "__init__.py", ORACLE) if not p.is_file()]
    if missing:
        print(f"error: not a bitcube source checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ORACLE.parent)]
    from rank_oracle import RankSearch

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        bench = Bench(workdir, checks.Reference(RankSearch))
        results = {}
        for name in names:
            if args.trace:
                metrics = run_trace(bench, args.seed, args.seconds)
                results[name] = report(name, metrics, layer_unit)
            else:
                metrics, raw = run_workload(bench, name, args.seed, args.seconds)
                for key, value in raw.items():
                    print(f"{name:8} raw {key:38} {value:>16.6f}")
                results[name] = report(name, metrics, END_TO_END_UNITS.get)
        env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{w}.{k}": v for w, m in results.items() for k, v in m.items()}
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": bench.wrong == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
