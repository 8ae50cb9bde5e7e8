#!/usr/bin/env python3
"""Print an orbit census: orbit counts and size multisets per rank and group.

A quick overview of how the symmetry groups act on each rank stratum, for
both dimensions, including how many large orbits split into several small
ones.
"""

import sys
from collections import Counter
from pathlib import Path

try:
    import bitcube
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import bitcube

from bitcube import Semiring, Shape, classify, orbit_split, stratify
from bitcube.reporting import split_rule


def census(n: int) -> None:
    table = stratify(Shape(n), Semiring.GF2)
    print(f"== n = {n} ==")
    for group in ("small", "large"):
        records = classify(table, group)
        print(f"{group} group: {len(records)} orbits")
        by_rank: dict[int, Counter] = {}
        for rec in records:
            by_rank.setdefault(rec.rank, Counter())[rec.size] += 1
        for rank in sorted(by_rank):
            sizes = ", ".join(
                f"{size}x{count}" if count > 1 else str(size)
                for size, count in sorted(by_rank[rank].items())
            )
            print(f"  rank {rank}: {sizes}")
    splits = [s for s in orbit_split(table) if s.parts[0][0] > 1 or len(s.parts) > 1]
    print(f"split large orbits: {len(splits)}")
    for s in splits:
        print(f"  {split_rule(s)}")
    print()


def main() -> int:
    for n in (3, 4):
        census(n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
