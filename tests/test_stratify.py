import csv
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bitcube import (
    ArrayCode,
    Semiring,
    Shape,
    ShapeMismatchError,
    UnsupportedShapeError,
    rank_of,
    rank_one_codes,
    stratify,
)
import bitcube.ranks
from bitcube.ranks import _closure_generators, _cube_closure, _stratify, _sums
from bitcube.reporting import build_table, emit_table, percent_text
from conftest import SAMPLE_SEED, cube_tables, rank_array
from orbit_oracle import OrbitMinima, cube_cell_maps
from rank_oracle import closure_ranks, rank_one_set

S3 = Shape(3)
S4 = Shape(4)


def test_stratify_rejects_large_dimensions():
    with pytest.raises(UnsupportedShapeError):
        stratify(Shape(5), Semiring.GF2)


def test_empty_level_raises_instead_of_looping(monkeypatch):
    # a level step that finds nothing new would otherwise repeat for ever.
    # The stand-in finds nothing; without the guard it would be called again,
    # and from its fourth call on it raises an error this test does not expect.
    calls = []

    def nothing_new(level, n, semiring):
        calls.append(level)
        if len(calls) > 3:
            raise AssertionError("the level step ran on after an empty level")
        return 0

    monkeypatch.setattr("bitcube.ranks._sums", nothing_new)
    _stratify.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="rank level 2 is empty"):
            stratify(S3, Semiring.GF2)
    finally:
        monkeypatch.undo()
        _stratify.cache_clear()
    assert stratify(S3, Semiring.GF2).stratum_sizes == (1, 27, 162, 66)


def test_semiring_tags():
    assert Semiring("gf2") is Semiring.GF2
    assert Semiring("bool") is Semiring.BOOLEAN
    assert Semiring("nat") is Semiring.NONNEG
    with pytest.raises(ValueError):
        Semiring("real")


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("semiring", Semiring)
def test_stratify_by_tag_is_stratify_by_member(n, semiring):
    # a tag is coerced before the table is computed and cached, so it gets
    # the member's table, not one computed under another addition rule
    assert stratify(Shape(n), semiring.value) is stratify(Shape(n), semiring)


def test_stratify_rejects_other_shapes_and_unknown_tags():
    assert stratify(S4, "gf2").stratum_sizes == (1, 81, 2268, 21744, 37530, 3888, 24)
    with pytest.raises(TypeError, match="^shape must be a Shape, got tuple$"):
        stratify((4,), Semiring.GF2)
    with pytest.raises(ValueError, match="'z2' is not a valid Semiring"):
        stratify(S3, "z2")


# Stratum sizes are asserted against the reference dataset in
# test_acceptance; here we pin the structural invariants.

def test_stratum_zero_and_one(tables):
    for (n, _), table in tables.items():
        shape = Shape(n)
        assert table.strata[0] == (0,)
        assert table.strata[1] == rank_one_codes(shape)


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_rank_one_set_is_the_engines(n):
    # the oracle builds its rank-1 codes from the definition, the engine by
    # prepending factors: the same sorted codes, so RankSearch's order holds
    assert rank_one_set(n) == list(rank_one_codes(Shape(n)))


def test_strata_partition_code_space(tables):
    for (n, _), table in tables.items():
        total = sum(len(s) for s in table.strata)
        assert total == Shape(n).code_count
        seen = set()
        for stratum in table.strata:
            assert list(stratum) == sorted(stratum)
            assert not seen.intersection(stratum)
            seen.update(stratum)
        assert table.strata[table.r_max]  # last level nonempty


def test_boolean_and_integer_strata_coincide_at_n3(tables):
    assert tables[(3, "bool")].strata == tables[(3, "nat")].strata


@pytest.fixture(scope="module")
def closure():
    return {(n, s.value): closure_ranks(n, s.value) for n in (3, 4) for s in Semiring}


def _bitset(flags):
    # bit c set iff flags[c]
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def test_ranks_equal_unreduced_closure(tables, closure):
    for key, table in tables.items():
        ref = closure[key]
        assert table.levels == tuple(_bitset(ref == r) for r in range(ref.max() + 1)), key


def test_rank_of_code_equals_unreduced_closure(tables, closure, sample_codes_4):
    for (n, tag), table in tables.items():
        ref = closure[(n, tag)]
        for code in range(256) if n == 3 else sample_codes_4[:2000]:
            assert table.rank_of_code(code) == ref[code], (n, tag, code)
        for code in (-1, Shape(n).code_count):
            with pytest.raises(ValueError, match=f"code {code} out of range for dimension {n}"):
                table.rank_of_code(code)


def _rank_one_codes(n):
    # the 3**n outer products of nonzero 2-vectors; the cell of subscripts
    # (i_1, ..., i_n) is linear position i in lexicographic order, code bit
    # 2**n - 1 - i, so the first cell is the top bit
    cells = np.array(list(itertools.product((0, 1), repeat=n)))
    weights = 1 << np.arange((1 << n) - 1, -1, -1)
    vectors = np.array([(0, 1), (1, 0), (1, 1)])
    return np.array([np.prod(vectors[np.array(f)[:, None], cells.T], axis=0) @ weights
                     for f in itertools.product(range(3), repeat=n)])


def test_level_step_is_every_sum_with_a_rank_one_code(tables):
    # _sums(level) against x + y over every member x and all 3**n rank-1 codes
    # y, as arrays.  J, all ones, has rank 1 and is ranked before any level
    # step; the Boolean and integer steps leave it out (x ∨ J = J, and x + J
    # needs x = 0), so there it may be missing, and it is nothing else.
    for (n, tag), table in tables.items():
        ys, size = _rank_one_codes(n), 1 << (1 << n)
        assert len(set(ys.tolist())) == 3**n
        all_ones = 1 << (size - 1)
        for r, level in enumerate(table.levels):
            flags = np.unpackbits(np.frombuffer(level.to_bytes(size // 8, "little"), np.uint8),
                                  bitorder="little")
            x = np.flatnonzero(flags)[:, None]
            sums = {"gf2": x ^ ys, "bool": x | ys, "nat": (x | ys)[(x & ys) == 0]}[tag]
            reference = np.zeros(size, dtype=bool)
            reference[sums.ravel()] = True
            expected = _bitset(reference)
            allowed = {expected} if tag == "gf2" else {expected, expected & ~all_ones}
            assert _sums(level, n, Semiring(tag)) in allowed, (n, tag, r)


def test_ranks_invariant_under_cube_tables(closure):
    # the premise of expanding one code per orbit of the cube's symmetries
    for (n, _), ref in closure.items():
        for t in cube_tables(n):
            assert np.array_equal(ref[t], ref)


def _bitset_of(codes):
    return sum(1 << c for c in codes)


@pytest.mark.parametrize("n", (3, 4))
def test_cube_closure_of_a_code_is_its_oracle_orbit(n):
    # the oracle expands every code over all 2**n * n! cell maps
    oracle = OrbitMinima(n)
    rng = random.Random(SAMPLE_SEED + 3)
    codes = range(256) if n == 3 else rng.sample(range(1 << 16), 300)
    for code in codes:
        assert _cube_closure(1 << code, n) == _bitset_of(oracle.cube_orbit(code)), code


@pytest.mark.parametrize("n", (3, 4, 5))
def test_closure_steps_reach_the_whole_cube_group(n):
    # the closure holds the images under the product set of its steps, taken
    # as S = S | g∘S; with each element as the source of each code bit's
    # entry, that set must be the oracle's group of order 2**n * n!.  A step
    # (delta, lower) exchanges each cell b in lower with b + delta.  All steps
    # but the last, the level step's closure, must reach the elements that
    # flip an even number of directions: an element takes each code bit b to
    # p(b) xor f, with f the directions it flips, so its source of bit 0 is
    # p⁻¹(f), of the same weight as f.
    group = cube_cell_maps(n)
    even = {s for s in group if s[0].bit_count() % 2 == 0}
    assert len(group) == 2**n * math.factorial(n)
    assert len(even) == 2 ** (n - 1) * math.factorial(n)
    product, steps = {tuple(range(1 << n))}, _closure_generators(n)
    for i, (delta, lower) in enumerate(steps, 1):
        source = list(range(1 << n))
        for b in range(1 << n):
            if lower >> b & 1:
                source[b], source[b + delta] = b + delta, b
        product |= {tuple(s[b] for b in source) for s in product}
        if i == len(steps) - 1:
            assert product == even
    assert product == group


def test_closure_takes_14_and_44_delta_swaps(monkeypatch, tables):
    # one delta swap per pair of code bits a step exchanges; the n slice
    # swaps and a bubble sequence of adjacent transpositions would take 18
    # and 56.  The level step closes under Dn alone: 10 and 36.
    calls = []
    delta_swap = bitcube.ranks._delta_swap

    def counted(*args):
        calls.append(args)
        return delta_swap(*args)

    def swaps(run):
        calls.clear()
        run()
        return len(calls)

    monkeypatch.setattr("bitcube.ranks._delta_swap", counted)
    assert [swaps(lambda: _cube_closure(2, n)) for n in (3, 4)] == [14, 44]
    assert [swaps(lambda: _sums(tables[(n, "gf2")].levels[2], n, Semiring.GF2))
            for n in (3, 4)] == [10, 36]


def test_cube_orbit_counts():
    # orbits of 0-1 functions on the n-cube's vertices under its symmetry
    # group: 22 and 402 (OEIS A000616).  Every code lies in one of the
    # closures compared with the oracle, so this covers the whole code space.
    for n, count in ((3, 22), (4, 402)):
        oracle = OrbitMinima(n)
        unseen, orbits = (1 << Shape(n).code_count) - 1, 0
        while unseen:
            code = (unseen & -unseen).bit_length() - 1
            orbit = _cube_closure(1 << code, n)
            assert orbit == _bitset_of(oracle.cube_orbit(code)), code
            unseen &= ~orbit
            orbits += 1
        assert orbits == count


def test_boolean_rank_never_exceeds_integer_rank(tables):
    for n in (3, 4):
        boolean = rank_array(tables[(n, "bool")])
        integer = rank_array(tables[(n, "nat")])
        assert (boolean <= integer).all()
        if n == 3:
            # every 3-dimensional array achieves its Boolean rank with
            # pairwise disjoint terms
            assert (boolean == integer).all()


def test_gf2_rank_never_exceeds_integer_rank(tables):
    # a sum of pairwise disjoint terms is also their xor
    for n, strictly_below in ((3, 42), (4, 28190)):
        gf2 = rank_array(tables[(n, "gf2")])
        integer = rank_array(tables[(n, "nat")])
        assert (gf2 <= integer).all()
        assert (gf2 < integer).sum() == strictly_below


def test_rank_bounded_by_ones_count(tables):
    from conftest import popcount_array

    for (n, _), table in tables.items():
        ranks = rank_array(table)
        ones = popcount_array(Shape(n).code_count)
        assert (ranks <= ones).all()


def test_rank_of_examples(tables):
    for (n, tag), table in tables.items():
        assert rank_of(ArrayCode(0, Shape(n)), table) == 0
    assert rank_of(ArrayCode(255, S3), tables[(3, "gf2")]) == 1
    assert rank_of(ArrayCode(255, S3), tables[(3, "bool")]) == 1
    assert rank_of(ArrayCode(255, S3), tables[(3, "nat")]) == 1
    # value confirmed by the independent search oracle (test_acceptance)
    parity = ArrayCode.from_text("0110 1001 1001 0110", S4)
    assert rank_of(parity, tables[(4, "gf2")]) == 4
    assert rank_of(parity, tables[(4, "bool")]) == 8


def test_rank_of_shape_mismatch(tables):
    with pytest.raises(ShapeMismatchError):
        rank_of(ArrayCode(0, S4), tables[(3, "gf2")])


def test_percent_text_half_up():
    assert percent_text(1, 256, 0) == "0"
    assert percent_text(27, 256, 0) == "11"
    assert percent_text(88, 256, 0) == "34"   # 34.375 rounds down
    assert percent_text(1, 65536, 3) == "0.002"
    assert percent_text(512, 65536, 3) == "0.781"
    assert percent_text(26, 65536, 3) == "0.04"  # 0.040 with the zero dropped


def _distribution(n, tag):
    """The rank distribution's (rank, count, percent) rows, as tables print them."""
    return build_table(f"strata-{n}-{tag}").rows


def test_rank_distribution_gf2_n4():
    dist = _distribution(4, "gf2")
    assert [count for _, count, _ in dist] == [1, 81, 2268, 21744, 37530, 3888, 24]
    assert [percent for _, _, percent in dist] == [
        "0.002", "0.124", "3.461", "33.179", "57.266", "5.933", "0.037",
    ]


def test_rank_distribution_bool_n4():
    assert [percent for _, _, percent in _distribution(4, "bool")] == [
        "0.002", "0.124", "2.753", "20.557", "44.104", "25.989", "5.652",
        "0.781", "0.04",
    ]


def test_rank_distribution_nat_n4():
    assert [percent for _, _, percent in _distribution(4, "nat")] == [
        "0.002", "0.124", "2.679", "19.604", "43.927", "26.807", "5.963",
        "0.854", "0.04",
    ]


def test_rank_distribution_n3_integer_percent():
    assert [percent for _, _, percent in _distribution(3, "gf2")] == [
        "0", "11", "63", "26",
    ]
    assert [percent for _, _, percent in _distribution(3, "bool")] == [
        "0", "11", "51", "34", "4",
    ]


def test_rank_distribution_counts_sum(tables):
    for (n, tag), table in tables.items():
        dist = _distribution(n, tag)
        assert sum(count for _, count, _ in dist) == Shape(n).code_count
        # the csv table's exact percentages add up to 100 exactly
        kind = f"strata-{n}-{table.semiring.value}"
        rows = list(csv.DictReader(emit_table(kind, "csv").splitlines()))
        assert sum(Fraction(row["percent_exact"]) for row in rows) == 100
