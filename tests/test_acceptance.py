"""Acceptance suite: every exit criterion, one test each, exact values.

Each test prints a single summary line (visible with `pytest -s` or
`pytest -v` via the test id) so a run reads as a criterion checklist.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from bitcube import (
    ArrayCode,
    Shape,
    classify,
    flatten,
    lower_bounds,
    orbit_split,
    partition_by_ones,
    unflatten,
)
from bitcube.expected import LARGE_ORBITS, PARTITIONS, RANK2_SMALL_SPLIT_3
from conftest import SAMPLE_SEED, rank_array
from orbit_oracle import MATRICES, axis_action_table, permutation_action_table, permutations
from rank_oracle import RankSearch

S3, S4 = Shape(3), Shape(4)


def _ok(num, message):
    print(f"criterion {num:02d} pass: {message}")


def test_criterion_01_gf2_n3_strata(tables):
    table = tables[(3, "gf2")]
    assert table.stratum_sizes == (1, 27, 162, 66)
    assert table.r_max == 3
    _ok(1, "gf2 n=3 strata 1,27,162,66 with maximum rank 3")


def test_criterion_02_boolean_and_integer_n3(tables):
    boolean, integer = tables[(3, "bool")], tables[(3, "nat")]
    assert boolean.stratum_sizes == (1, 27, 130, 88, 10)
    assert boolean.r_max == 4
    assert boolean.strata == integer.strata
    _ok(2, "bool n=3 strata 1,27,130,88,10; integer strata identical set-for-set")


def test_criterion_03_n4_strata(tables):
    expected = {
        "gf2": ((1, 81, 2268, 21744, 37530, 3888, 24), 6),
        "bool": ((1, 81, 1804, 13472, 28904, 17032, 3704, 512, 26), 8),
        "nat": ((1, 81, 1756, 12848, 28788, 17568, 3908, 560, 26), 8),
    }
    for tag, (sizes, r_max) in expected.items():
        table = tables[(4, tag)]
        assert table.stratum_sizes == sizes
        assert table.r_max == r_max
        assert sum(sizes) == 65536
    _ok(3, "all three n=4 stratifications exact, each summing to 65536")


def test_criterion_04_n3_classification(tables):
    table = tables[(3, "gf2")]
    large = classify(table, "large")
    assert [(r.rank, r.size) for r in large] == [
        (0, 1), (1, 27), (2, 54), (2, 108), (3, 54), (3, 12),
    ]
    assert tuple(
        (r.rank, r.size, r.canonical.text()) for r in large
    ) == tuple(row[:3] for row in LARGE_ORBITS[3])
    small = classify(table, "small")
    assert len(small) == 8
    inside = [
        (r.canonical.text(), r.size)
        for r in small
        if r.rank == 2 and r.size == 18
    ]
    assert tuple(inside) == RANK2_SMALL_SPLIT_3
    splits = orbit_split(table)
    assert tuple((s.index, s.parts) for s in splits) == tuple(
        (i, row[3]) for i, row in enumerate(LARGE_ORBITS[3], 1))
    assert splits[2].parts == ((3, 18),) and splits[2].size == 54
    _ok(4, "n=3: 6 large orbits with exact canonical forms, 8 small orbits, "
           "rank-2 orbit splits 3x18")


def test_criterion_05_n4_classification(tables):
    table = tables[(4, "gf2")]
    large = classify(table, "large")
    assert len(large) == 30
    assert tuple(
        (r.rank, r.size, r.canonical.text()) for r in large
    ) == tuple(row[:3] for row in LARGE_ORBITS[4])
    small = classify(table, "small")
    assert len(small) == 112
    splits = orbit_split(table)
    assert tuple((s.index, s.parts) for s in splits) == tuple(
        (i, row[3]) for i, row in enumerate(LARGE_ORBITS[4], 1))
    for s, rec in zip(splits, large):
        assert sum(count * size for count, size in s.parts) == rec.size
    assert sum(count for s in splits for count, _ in s.parts) == 112
    _ok(5, "n=4: 30 large orbits row-for-row, 112 small orbits, "
           "splitting table exact with sizes summing")


def test_criterion_06_partition_tables(tables):
    for key, expected_rows in PARTITIONS.items():
        rows = partition_by_ones(tables[key])
        assert len(rows) == len(expected_rows)
        assert tuple(
            (r.rank, r.ones, r.count, r.representative.text()) for r in rows
        ) == expected_rows
    assert len(PARTITIONS[(3, "bool")]) == 17
    assert len(PARTITIONS[(4, "bool")]) == 65
    assert len(PARTITIONS[(4, "nat")]) == 66
    _ok(6, "partition tables: 17 + 65 + 66 rows bit-exact")


def test_criterion_07_lower_bounds():
    expected = {
        3: (2, 1),
        4: (51, 3),
        5: (552337, 4603),
        6: (395377745064077, 549135757034),
    }
    for n, pair in expected.items():
        assert lower_bounds(n) == pair
        total = 2 ** (2**n)
        small = math.ceil(Fraction(total, 6**n))
        large = math.ceil(Fraction(total, 6**n * math.factorial(n)))
        assert (small, large) == pair
    _ok(7, "lower bounds recomputed by exact big-integer ceilings")


def test_criterion_08_property_suite(tables, sample_codes_4):
    # rank invariance under every matrix along every direction and every
    # direction permutation, exhaustively for both dimensions
    for n in (3, 4):
        ranks = rank_array(tables[(n, "gf2")])
        for g in MATRICES:
            for direction in range(1, n + 1):
                assert (ranks[axis_action_table(g, direction, n)] == ranks).all()
        for p in permutations(n):
            assert (ranks[permutation_action_table(p, n)] == ranks).all()

    # orbit sizes divide the group order; orbit sizes partition each stratum
    for n in (3, 4):
        table = tables[(n, "gf2")]
        small_order, large_order = 6**n, 6**n * math.factorial(n)
        for group, order in (("small", small_order), ("large", large_order)):
            records = classify(table, group)
            per_rank = {}
            for rec in records:
                assert order % rec.size == 0
                per_rank[rec.rank] = per_rank.get(rec.rank, 0) + rec.size
            assert per_rank == {r: len(s) for r, s in enumerate(table.strata)}

    # per-array rank comparisons, exhaustive
    from conftest import popcount_array

    for n in (3, 4):
        boolean = rank_array(tables[(n, "bool")])
        integer = rank_array(tables[(n, "nat")])
        assert (boolean <= integer).all()
        ones = popcount_array(Shape(n).code_count)
        for tag in ("gf2", "bool", "nat"):
            assert (rank_array(tables[(n, tag)]) <= ones).all()

    # linearization round trips: exhaustive at n=3, sampled >= 10000 at n=4
    for code in range(256):
        a = ArrayCode(code, S3)
        assert flatten(unflatten(a), S3) == a
    assert len(sample_codes_4) >= 10_000
    for code in sample_codes_4:
        a = ArrayCode(code, S4)
        assert flatten(unflatten(a), S4) == a

    # lexicographic order == numeric order: exhaustive at n=3, sampled pairs at n=4
    order_key = sorted(range(256), key=lambda c: ArrayCode(c, S3).entries())
    assert order_key == list(range(256))
    rng = random.Random(SAMPLE_SEED)
    for _ in range(10_000):
        x, y = rng.randrange(65536), rng.randrange(65536)
        assert (ArrayCode(x, S4).entries() < ArrayCode(y, S4).entries()) == (x < y)
    _ok(8, "property suite exhaustive at n=3 and exhaustive-or-10000-sampled at n=4")


def test_criterion_09_oracle_equivalence(tables, sample_codes_4):
    for tag in ("gf2", "bool", "nat"):
        search = RankSearch(3, tag)
        table = tables[(3, tag)]
        for code in range(256):
            assert search.rank(code) == table.rank_of_code(code), (tag, code)
    sample = sample_codes_4[:1000]
    assert len(sample) >= 1000
    for tag in ("gf2", "bool", "nat"):
        search = RankSearch(4, tag)
        table = tables[(4, tag)]
        for code in sample:
            assert search.rank(code) == table.rank_of_code(code), (tag, code)
    _ok(9, "independent search oracle agrees: 256 arrays at n=3 (3 semirings), "
           "1000 sampled at n=4 (3 semirings)")


def test_criterion_10_determinism():
    def run(args, seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        return subprocess.run(
            [sys.executable, "-m", "bitcube", *args],
            capture_output=True,
            env=env,
            timeout=600,
        )

    first = run(["tables"], "101")
    second = run(["tables"], "202")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    verify = run(["verify", "--scope", "all"], "303")
    assert verify.returncode == 0
    _ok(10, "tables byte-identical across runs; verify --scope all exits 0")
