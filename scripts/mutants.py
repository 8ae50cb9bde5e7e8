#!/usr/bin/env python3
"""Check that the tier-1 tests notice plausible bugs in the fast paths.

    scripts/mutants.py

Each mutant below is one textual edit of one module of src/bitcube, with what
it breaks.  For each, the script copies src/ to a temporary directory,
applies the edit (its old text must occur exactly once) and runs the tier-1
suite from this checkout with -x against the copy, two mutants at a time.
A mutant is killed when the suite fails, timed out when the suite runs three
times as long as on the unedited copy (and at least a minute), and survives
when the suite passes.

Some mutants cannot be told apart from the program by any test; each of those
carries the argument why.  The script exits 1 if a mutant without an
argument survives or one with an argument is killed (the argument is then
wrong), and 2 if an edit does not apply or the unedited copy fails.  It uses
the standard library only; the suite needs numpy, pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    breaks: str
    equivalent: str = ""


MUTANTS = [
    # the level step of each semiring, the rank-1 seed and the closure
    Mutant("ranks", "sums = sums >> (1 << b) & clear[b] | low << (1 << b)",
           "sums = sums & ~clear[b] | low << (1 << b)",
           "GF(2) sums add like or: 1 + 1 = 1"),
    Mutant("ranks", "sums = sums ^ low | low << (1 << b)",
           "sums = low << (1 << b)",
           "Boolean sums drop the members that hold bit b"),
    Mutant("ranks", "sums = low << (1 << b)",
           "sums = sums ^ low | low << (1 << b)",
           "integer sums admit overlapping supports"),
    Mutant("ranks", "ys if semiring is Semiring.GF2 else ys[:n]):", "ys[:n]):",
           "GF(2) sums skip the all-ones code J"),
    Mutant("ranks", "for y in rank_one_codes(Shape(n))))",
           "for y in rank_one_codes(Shape(n))[1:]))",
           "the rank-1 level misses its least code"),
    Mutant("ranks", "for f in range(n + 1)]", "for f in range(1, n + 1)]",
           "the sums skip the rank-1 orbit of (0, 1)⊗...⊗(0, 1)"),
    Mutant("ranks", "_transposition(n, k - 1, k, anti=True)",
           "_transposition(n, k - 1, k)",
           "the closure takes no anti-transposition"),
    Mutant("ranks", "for j in range(k - 2, 0, -1)", "for j in range(k - 2, 1, -1)",
           "the closure takes no transposition t(1, k) for k > 2"),
    Mutant("ranks", "return (*steps, _slice_swap(n, n))", "return tuple(steps)",
           "the closure takes no slice swap: Dn in place of Bn"),
    Mutant("ranks", "for chain in ([(1,)], ys", "for chain in ([], ys",
           "the level step, closed under Dn, lacks the odd single cell"),
    Mutant("ranks", "for chain in ([(1,)], ys", "for chain in ([(0,)], ys",
           "the level step adds the even single cell, code bit 0, in place of the odd one"),
    Mutant("arrays", "return x ^ t ^ t << delta", "return x ^ t",
           "the delta swap clears the upper cells in place of filling them"),
    # the guards of the rank tables
    Mutant("ranks", "if not levels[-1]:", "if levels[-1] is None:",
           "_stratify repeats an empty level for ever"),
    Mutant("ranks", "    shape, semiring = _checked_shape(shape), Semiring(semiring)\n"
                    "    if shape.n not in (3, 4):",
           "    shape = _checked_shape(shape)\n    if shape.n not in (3, 4):",
           "stratify caches a tag and a Semiring as two tables"),
    Mutant("ranks", "if levels[:1] != (1,):", "if not levels:",
           "RankTable accepts a stratum 0 other than the zero array"),
    Mutant("ranks",
           "\n                or sum(map(int.bit_count, levels)) != shape.code_count)",
           ")", "RankTable accepts levels that overlap"),
    Mutant("ranks", "if (not all(levels) or reduce", "if (reduce",
           "RankTable accepts an empty level"),
    Mutant("ranks", "if not 0 <= code < self.shape.code_count:",
           "if code >= self.shape.code_count:",
           "rank_of_code takes a negative code to a shift error"),
    # integer arguments through operator.index
    Mutant("ranks", "        code = index(code)\n", "",
           "rank_of_code shifts by a numpy code and overflows"),
    Mutant("ranks", "    n = index(n)\n", "",
           "lower_bounds computes a numpy n in 64-bit arithmetic and takes a float"),
    Mutant("arrays", "subs = tuple(map(operator.index, subs))", "subs = tuple(subs)",
           "bit shifts the code by a numpy subscript and overflows"),
    Mutant("arrays", "v = operator.index(cells[subs])", "v = cells[subs]",
           "flatten builds the code at a numpy entry's width"),
    Mutant("arrays", "pairs = [tuple(map(operator.index, v)) for v in factors]",
           "pairs = [tuple(v) for v in factors]",
           "outer_product builds the code at a numpy factor's width"),
    # the slice engine: its moves, merges, inverses and small-in-large map
    Mutant("groups", "for m in (_delta_swap, _add)", "for m in (_add,)",
           "small orbits are not closed under the slice swap along direction 1"),
    Mutant("groups", "for m in (_delta_swap, _add)", "for m in (_delta_swap,)",
           "small orbits are not closed under the addition along direction 1"),
    Mutant("groups", "return x ^ x >> delta & lower", "return x ^ (x & lower) << delta",
           "the addition adds the subscript-2 slice into the subscript-1 one"),
    Mutant("groups", "parent[max(a, b)] = min(a, b)", "parent[min(a, b)] = max(a, b)",
           "a class's root is its greatest node, not its least"),
    Mutant("groups", "for j in range(1, n)]", "for j in range(2, n)]",
           "large orbits are not joined by the transposition of directions 1, 2"),
    Mutant("groups", "self.from_least[a].index(b)]", "self.from_least[a][b]]",
           "node reads g(b) where it needs g⁻¹(b)"),
    Mutant("groups", "self.split[self.canon(code, \"large\")].append",
           "self.split.setdefault(code, []).append",
           "the small-in-large map is keyed by the small canonical form"),
    # the tables and verify
    Mutant("ranks", "ArrayCode((codes & -codes).bit_length() - 1,",
           "ArrayCode(codes.bit_length() - 1,",
           "a partition's representative is its greatest code"),
    Mutant("reporting", "if a.shape.n != 3:", "if False:",
           "the block display of a 4-dimensional array is a subscript error, "
           "not UnsupportedShapeError"),
    Mutant("reporting", "scaled = (2 * count * 100 * 10**decimals + total) // (2 * total)",
           "scaled = count * 100 * 10**decimals // total",
           "percentages are truncated, not rounded half-up"),
    Mutant("cli", "return 0 if report.passed else 1", "return 0",
           "verify exits 0 with a mismatch"),
    Mutant("expected", 'status = "ok  " if c.passed else "FAIL"', 'status = "ok  "',
           "verify prints a mismatch as ok"),
    # the usage errors
    Mutant("cli", "if semiring is not Semiring.GF2:", "if semiring is Semiring.NONNEG:",
           "--group with --semiring bool is not a usage error"),
    Mutant("cli", "raise UsageError(str(exc)) from None", "raise",
           "a malformed array to rank is a traceback, not a usage error"),
    # the guards of the strict parser's one pass, which leaves every other
    # argv to argparse
    Mutant("cli", "and argv[i + 1] in map(str, keywords[\"choices\"]):", ":",
           "the strict parser skips the choices check"),
    Mutant("cli", "elif keywords.get(\"required\"):", "elif False:",
           "the strict parser skips the required check"),
    Mutant("cli", "any(word.startswith(\"-\") for word in argv[i:])", "False",
           "the strict parser takes a `-`-prefixed token as a positional"),
    Mutant("cli", "if i == len(argv) or any(", "if any(",
           "the strict parser takes no positional for nargs=\"+\""),
    Mutant("cli", "return namespace if i == len(argv) else None", "return namespace",
           "the strict parser drops a token left over after the pass"),
    Mutant("cli", "elif here and i + 1 < len(argv) and", "elif here and",
           "the strict parser reads past the end for an option with its value missing"),
    # a closed output pipe
    Mutant("cli", "code = 141", "code = 1",
           "a closed output pipe exits 1, the code of a verification mismatch"),
    Mutant("cli", "code = 74", "code = 1",
           "an unwritable stdout exits 1, the code of a verification mismatch"),
    # the equivalent mutant
    Mutant("ranks", "return (-(-total // small_order), -(-total // large_order))",
           "return (total // small_order + 1, total // large_order + 1)",
           "the orbit-count lower bounds round a whole quotient up",
           equivalent="6**n has the factor 3**n, so neither 6**n nor 6**n * n! divides "
                      "2**(2**n) and every quotient has a fraction: ceiling = floor + 1"),
]


def run_suite(src: Path, timeout: float | None) -> tuple[int | None, float]:
    """Exit code of tier-1 run against src, None if it timed out, and seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        # the suite and the commands it spawned
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    return code, time.monotonic() - start


def mutated(mutant: Mutant) -> str:
    """The mutant's module with its edit applied."""
    text = (ROOT / "src" / "bitcube" / f"{mutant.module}.py").read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.module}: {mutant.old!r} occurs "
                         f"{text.count(mutant.old)} times, not once")
    return text.replace(mutant.old, mutant.new)


def try_suite(mutant: Mutant | None, timeout: float | None) -> tuple[str, float]:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "bitcube" / f"{mutant.module}.py"
            path.write_text(mutated(mutant), encoding="utf-8")
        code, seconds = run_suite(src, timeout)
    result = "timed out" if code is None else "survived" if code == 0 else "killed"
    return result, seconds


def main() -> int:
    try:
        for mutant in MUTANTS:
            mutated(mutant)
    except ValueError as exc:
        print(f"edit does not apply: {exc}")
        return 2
    result, seconds = try_suite(None, None)
    print(f"unedited copy: {'passed' if result == 'survived' else 'failed'} "
          f"in {seconds:.1f} s")
    if result != "survived":
        return 2
    timeout = max(60.0, 3 * seconds)
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda m: try_suite(m, timeout), MUTANTS))
    status = 0
    for mutant, (result, seconds) in zip(MUTANTS, results):
        wrong = (result == "survived") != bool(mutant.equivalent)
        status = status or int(wrong)
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{'FAIL' if wrong else 'ok  '} {result:9} {seconds:6.1f} s  "
              f"{mutant.module}: {mutant.breaks}{note}")
    counts = [sum(r == result for r, _ in results)
              for result in ("killed", "survived", "timed out")]
    print("{} mutants: {} killed, {} survived, {} timed out".format(len(MUTANTS), *counts))
    return status


if __name__ == "__main__":
    sys.exit(main())
