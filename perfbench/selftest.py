"""Self-test of the benchmark's checks: tampered outputs must count as failed.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs a few genuine commands,
requires each to pass its check, then alters one thing in each output (a
stratum count off by one, a canonical form that is not its orbit's minimum,
a wrong rank, ...) and requires the benchmark to count every altered output
as a failed operation.  Exits 0 when every alteration is caught.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import checks
import run


def replace_once(pattern: str, repl: str):
    def tamper(text: str) -> str:
        new, count = re.subn(pattern, repl, text, count=1, flags=re.M)
        if count != 1:
            raise AssertionError(f"pattern {pattern!r} not found")
        return new
    return tamper


def bump_rank(text: str) -> str:
    first, _, rest = text.partition("\n")
    return f"{int(first) + 1}\n{rest}"


def other_orbit_member(ref, n: int, group: str, canonical: int) -> int:
    minima = ref.minima(n, group)
    return int(next(c for c in range(len(minima))
                    if minima[c] == canonical and c != canonical))


def move_code(text: str) -> str:
    """Export JSON with the least rank-3 code moved into stratum 4."""
    obj = json.loads(text)
    strata = obj["strata"]
    strata[4] = sorted(strata[4] + [strata[3].pop(0)])
    return json.dumps(obj)


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.ORACLE.parent)]
    from rank_oracle import RankSearch

    ref = checks.Reference(RankSearch)
    scratch = run.ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        bench = run.Bench(workdir, ref)
        cache = bench.fresh_dir("cache-")
        code = "0110101110111101"
        moved = other_orbit_member(ref, 4, "large", 6)
        not_least = checks.code_text(other_orbit_member(ref, 4, "small", 6), 4)
        cases = [
            ("stratum count off by one (enumerate)",
             ["enumerate", "--n", "4", "--semiring", "gf2"],
             replace_once(r"^\| 3 \| 21744 \|", "| 3 | 21745 |")),
            ("stratum count off by one (tables document)",
             ["tables", "--kind", "all", "--format", "json"],
             replace_once(r"^        13472,$", "        13473,")),
            ("non-minimal canonical form (classify)",
             ["classify", "--n", "4", "--group", "large", "--format", "csv"],
             replace_once(r"^3,2,324,2,0000000000000110",
                          f"3,2,324,2,{checks.code_text(moved, 4)}")),
            ("non-minimal canonical form (rank --group)",
             ["rank", "--n", "4", "--semiring", "gf2", "--group", "small", not_least],
             replace_once(r"^canonical: .*$", f"canonical: {not_least}")),
            ("wrong orbit size (rank --group)",
             ["rank", "--n", "4", "--semiring", "gf2", "--group", "large", code],
             replace_once(r"^orbit-size: 24$", "orbit-size: 48")),
            ("wrong rank (rank)",
             ["rank", "--n", "4", "--semiring", "bool", code], bump_rank),
            ("wrong rank (partition row)",
             ["tables", "--kind", "all"],
             replace_once(r"^\| 5 \| 1 \| 8 \| 8 \| 0000000011111111 \|$",
                          "| 5 | 2 | 8 | 8 | 0000000011111111 |")),
            ("split parts off (split)",
             ["split", "--n", "4"], replace_once(r"^3 → 6·54$", "3 → 5·54")),
            ("code moved between strata (export)",
             ["export", "--n", "4", "--semiring", "nat"], move_code),
            ("lower bound off by one (bounds)",
             ["bounds", "--format", "csv"], replace_once(r"^4,51,3\r$", "4,52,3\r")),
            ("FAIL line (verify)",
             ["verify", "--scope", "3"], replace_once(r"^ok  ", "FAIL")),
        ]
        missed = 0
        for label, argv, tamper in cases:
            genuine = bench.cli(argv, cache)
            if not bench.count(genuine, bench.check_cli):
                print(f"GENUINE OUTPUT REJECTED  {label}")
                missed += 1
                continue
            tampered = dataclasses.replace(genuine, stdout=tamper(genuine.stdout))
            caught = not bench.count(tampered, bench.check_cli)
            missed += not caught
            print(f"{'caught' if caught else 'MISSED':8} {label}")

        # an exit code other than 0 fails the command even with a good output
        genuine = bench.cli(["bounds"], cache)
        caught = not bench.count(dataclasses.replace(genuine, returncode=1), bench.check_cli)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED':8} exit code 1 (bounds)")

        # csv cells that pass on their own but disagree with the md output
        round_ = [bench.cli(argv, bench.fresh_dir("cache-"))
                  for argv in run.tables_round(random.Random(0))]
        csv_ = next(o for o in round_ if o.argv[-1] == "csv")
        tampered = dataclasses.replace(
            csv_, stdout=replace_once(r"^1,27,11,", "1,27,10.6,")(csv_.stdout))
        format_check = run.format_checks(bench, round_)["csv"]
        caught = bench.count(csv_, format_check) and not bench.count(tampered, format_check)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED':8} csv cell differs from md (tables)")

        # a probe result: classify with a non-minimal canonical form
        rows = [[r, s, bin(c).count("1"), c] for r, s, c in ref.orbit_rows(4, "large")]
        rows[2][3] = moved
        try:
            run.check_probe(ref, ("classify", "4", "large"), {"ms": 1.0, "unique_calls": 0,
                            "rows": rows}, defaultdict(list), {})
            caught = False
        except checks.CheckFailed:
            caught = True
        missed += not caught
        print(f"{'caught' if caught else 'MISSED':8} non-minimal canonical form (classify probe)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"selftest: {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
