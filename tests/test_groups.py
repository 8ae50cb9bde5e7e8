import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitcube import (
    GL2_F2,
    GL2_GENERATORS,
    ArrayCode,
    AxisPermutation,
    GroupElement,
    Shape,
    UnsupportedShapeError,
    all_axis_permutations,
    canonical_form,
    classify,
    large_orbit,
    orbit_split,
    small_orbit,
)
from bitcube.groups import _linear_table, _orbits
from bitcube.stratify import _cube_closure, _cube_generators

from conftest import SAMPLE_SEED, cube_tables
from orbit_oracle import (
    OrbitMinima,
    act_axis,
    act_permutation,
    apply_vec,
    axis_action_table,
    large_orbit_naive,
    matmul,
    permutation_action_table,
    small_orbit_naive,
)

S3 = Shape(3)
S4 = Shape(4)

codes_3 = st.integers(0, 255)
codes_4 = st.integers(0, 65535)


# ---------------------------------------------------------------------------
# the matrix group itself
# ---------------------------------------------------------------------------

def test_exactly_six_invertible_matrices_in_lex_order():
    rows = [g.rows for g in GL2_F2]
    assert rows == [
        ((0, 1), (1, 0)),
        ((0, 1), (1, 1)),
        ((1, 0), (0, 1)),
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 0)),
    ]


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        GroupElement(((1, 1), (1, 1)))


def test_group_closed_under_multiplication():
    members = set(GL2_F2)
    for g, h in itertools.product(GL2_F2, repeat=2):
        assert matmul(g, h) in members


def test_group_acts_as_all_permutations_of_nonzero_vectors():
    nonzero = ((0, 1), (1, 0), (1, 1))
    images = {
        tuple(apply_vec(g, v) for v in nonzero) for g in GL2_F2
    }
    assert len(images) == 6  # faithful, and 6 = 3! means every permutation


def test_generators_generate_whole_group():
    generated = {GroupElement(((1, 0), (0, 1)))}
    frontier = list(generated)
    while frontier:
        new = []
        for g in frontier:
            for h in GL2_GENERATORS:
                img = matmul(h, g)
                if img not in generated:
                    generated.add(img)
                    new.append(img)
        frontier = new
    assert generated == set(GL2_F2)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def test_identity_matrix_acts_trivially():
    identity = GroupElement(((1, 0), (0, 1)))
    for code in (0, 1, 20, 255):
        a = ArrayCode(code, S3)
        for direction in (1, 2, 3):
            assert act_axis(identity, a, direction) == a


def test_swap_moves_first_subscript():
    swap = GL2_F2[0]
    only_111 = ArrayCode(128, S3)  # single 1 at (1,1,1)
    moved = act_axis(swap, only_111, 1)
    assert moved.bit((2, 1, 1)) == 1
    assert moved.ones() == 1


def test_zero_array_fixed_by_every_action():
    zero = ArrayCode(0, S3)
    for g in GL2_F2:
        for direction in (1, 2, 3):
            assert act_axis(g, zero, direction) == zero
    for p in all_axis_permutations(3):
        assert act_permutation(p, zero) == zero


def test_invalid_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        act_axis(GL2_F2[0], ArrayCode(1, S3), 4)


def test_identity_permutation_acts_trivially():
    p = AxisPermutation.identity(4)
    for code in (0, 1, 0x6996):
        a = ArrayCode(code, S4)
        assert act_permutation(p, a) == a


def test_transposition_swaps_subscripts():
    p = AxisPermutation((2, 1, 3))
    cells = {subs: 0 for subs in S3.subscripts()}
    cells[(1, 2, 1)] = 1
    from bitcube import flatten

    a = flatten(cells, S3)
    moved = act_permutation(p, a)
    assert moved.bit((2, 1, 1)) == 1
    assert moved.ones() == 1


def test_permutation_fixes_symmetric_array():
    all_ones = ArrayCode(255, S3)
    for p in all_axis_permutations(3):
        assert act_permutation(p, all_ones) == all_ones


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        AxisPermutation((1, 1, 3))


@given(codes_4, st.sampled_from(range(6)), st.sampled_from(range(6)))
def test_actions_along_distinct_directions_commute(code, gi, hi):
    a = ArrayCode(code, S4)
    g, h = GL2_F2[gi], GL2_F2[hi]
    for d1, d2 in itertools.combinations((1, 2, 3, 4), 2):
        assert act_axis(h, act_axis(g, a, d1), d2) == act_axis(
            g, act_axis(h, a, d2), d1
        )


@given(codes_4, st.sampled_from(range(6)))
def test_action_tables_agree_with_scalar_action(code, gi):
    a = ArrayCode(code, S4)
    g = GL2_F2[gi]
    for direction in (1, 2, 3, 4):
        table = axis_action_table(g, direction, 4)
        assert int(table[code]) == act_axis(g, a, direction).code


@given(codes_3)
def test_permutation_tables_agree_with_scalar_action(code):
    a = ArrayCode(code, S3)
    for p in all_axis_permutations(3):
        table = permutation_action_table(p, 3)
        assert int(table[code]) == act_permutation(p, a).code


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_of_zero_is_singleton():
    assert small_orbit(ArrayCode(0, S3)) == (ArrayCode(0, S3),)
    assert large_orbit(ArrayCode(0, S3)) == (ArrayCode(0, S3),)


def test_small_orbit_of_all_ones_is_every_rank_one_array():
    # computed by direct expansion: every rank-1 array is reachable
    orbit = small_orbit(ArrayCode(255, S3))
    assert len(orbit) == 27


def test_known_orbit_sizes():
    assert len(large_orbit(ArrayCode(1, S3))) == 27
    assert len(small_orbit(ArrayCode.from_text("00010100", S3))) == 18
    assert len(large_orbit(ArrayCode.from_text("01101101", S3))) == 12


def test_breadth_first_closure_equals_full_expansion_small_n3():
    for code in range(256):
        a = ArrayCode(code, S3)
        assert small_orbit(a) == small_orbit_naive(a)


def test_breadth_first_closure_equals_full_expansion_large_n3():
    rng = random.Random(SAMPLE_SEED)
    for code in rng.sample(range(256), 48):
        a = ArrayCode(code, S3)
        assert large_orbit(a) == large_orbit_naive(a)


def test_breadth_first_closure_equals_full_expansion_n4():
    rng = random.Random(SAMPLE_SEED + 1)
    for code in rng.sample(range(65536), 3):
        a = ArrayCode(code, S4)
        assert small_orbit(a) == small_orbit_naive(a)
        assert large_orbit(a) == large_orbit_naive(a)


def test_labels_equal_oracle_orbit_minima_exhaustive_n3():
    oracle, orbits = OrbitMinima(3), _orbits(3)
    for code in range(256):
        assert orbits.canon(code, "small") == oracle.small(code)
        assert orbits.canon(code, "large") == oracle.large(code)


def test_labels_equal_oracle_orbit_minima_sample_n4(sample_codes_4):
    oracle, orbits = OrbitMinima(4), _orbits(4)
    for code in sample_codes_4:
        assert orbits.canon(code, "small") == oracle.small(code)
        assert orbits.canon(code, "large") == oracle.large(code)


def _cube_closure_labels(n):
    # each code's orbit minimum under the n-cube group, from stratify's
    # bitset closure of the lowest code not yet labelled
    labels = np.empty(Shape(n).code_count, dtype=np.int64)
    unseen = (1 << labels.size) - 1
    while unseen:
        code = (unseen & -unseen).bit_length() - 1
        orbit = _cube_closure(1 << code, n)
        bits = np.frombuffer(orbit.to_bytes(labels.size // 8, "little"), dtype=np.uint8)
        labels[np.flatnonzero(np.unpackbits(bits, bitorder="little"))] = code
        unseen &= ~orbit
    return labels


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("group", ("small", "large", "cube"))
def test_labels_are_orbit_invariant_idempotent_minima(n, group):
    # over the whole code space, with each code labelled by its canonical
    # form: constant along every generator, a label is its own label, and no
    # label exceeds its code
    tables = cube_tables(n)
    if group == "cube":
        labels = _cube_closure_labels(n)
    else:
        orbits = _orbits(n)
        labels = np.array([orbits.canon(c, group) for c in range(Shape(n).code_count)])
        rots = [axis_action_table(GL2_GENERATORS[1], d, n) for d in range(1, n + 1)]
        tables = tables[:n] + rots + (tables[n:] if group == "large" else [])
    for t in tables:
        assert np.array_equal(labels[t], labels)
    assert np.array_equal(labels[labels], labels)
    assert np.all(labels <= np.arange(labels.size))


@pytest.mark.parametrize("n", (3, 4))
def test_cube_tables_equal_action_tables(n):
    # the n-cube's generators, built as cell permutations, against the
    # matrix and direction-permutation builders: the slice swap is GL2_F2[0]
    for images, table in zip(_cube_generators(n), cube_tables(n), strict=True):
        assert _linear_table([1 << c for c in images]) == tuple(table.tolist())


def test_action_tables_read_only_and_orbits_dimension_checked():
    table = axis_action_table(GL2_F2[1], 2, 4)
    with pytest.raises(ValueError):
        table[0] = 1
    a = ArrayCode(0, Shape(5))
    for call in (small_orbit, large_orbit, lambda a: canonical_form(a, "small")):
        with pytest.raises(UnsupportedShapeError):
            call(a)


def test_unknown_group_kind_rejected(tables):
    for group in ("bogus", "cube", "Small"):
        with pytest.raises(ValueError):
            canonical_form(ArrayCode(0, S3), group)
        with pytest.raises(ValueError):
            classify(tables[(3, "gf2")], group)


def test_orbits_closed_under_generators():
    rng = random.Random(SAMPLE_SEED + 2)
    for code in rng.sample(range(65536), 10):
        a = ArrayCode(code, S4)
        orbit = set(large_orbit(a))
        sample = rng.sample(sorted(orbit), min(5, len(orbit)))
        for member in sample:
            for g in GL2_F2:
                for direction in (1, 2, 3, 4):
                    assert act_axis(g, member, direction) in orbit
            for p in all_axis_permutations(4):
                assert act_permutation(p, member) in orbit


def test_orbit_is_sorted_and_canonical_is_minimum():
    rng = random.Random(SAMPLE_SEED + 3)
    for code in rng.sample(range(65536), 10):
        orbit = large_orbit(ArrayCode(code, S4))
        codes = [a.code for a in orbit]
        assert codes == sorted(codes)
        assert ArrayCode(code, S4) in orbit


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_requires_field_table(tables):
    with pytest.raises(ValueError, match="canonical forms"):
        classify(tables[(3, "bool")], "large")
    with pytest.raises(ValueError, match="canonical forms"):
        orbit_split(tables[(4, "nat")])


def test_classify_counts(tables):
    assert len(classify(tables[(3, "gf2")], "large")) == 6
    assert len(classify(tables[(3, "gf2")], "small")) == 8
    assert len(classify(tables[(4, "gf2")], "large")) == 30
    assert len(classify(tables[(4, "gf2")], "small")) == 112


def test_records_sorted_by_rank_then_canonical(tables):
    for n in (3, 4):
        for group in ("small", "large"):
            records = classify(tables[(n, "gf2")], group)
            keys = [(r.rank, r.canonical.code) for r in records]
            assert keys == sorted(keys)


def test_orbit_sizes_divide_group_order(tables):
    for n in (3, 4):
        small_order = 6**n
        large_order = small_order * math.factorial(n)
        for rec in classify(tables[(n, "gf2")], "small"):
            assert small_order % rec.size == 0
        for rec in classify(tables[(n, "gf2")], "large"):
            assert large_order % rec.size == 0


def test_orbit_sizes_partition_each_stratum(tables):
    for n in (3, 4):
        table = tables[(n, "gf2")]
        for group in ("small", "large"):
            per_rank = {}
            for rec in classify(table, group):
                per_rank[rec.rank] = per_rank.get(rec.rank, 0) + rec.size
            assert per_rank == {
                r: len(s) for r, s in enumerate(table.strata)
            }


def test_canonical_fields_consistent(tables):
    for rec in classify(tables[(4, "gf2")], "large"):
        assert rec.ones == rec.canonical.ones()
        assert rec.canonical.code in tables[(4, "gf2")].strata[rec.rank]


def test_canonical_is_minimal_orbit_member(tables):
    # every code's canonical form and orbit size are its record's, and the
    # first code of each orbit is its canonical form
    for n in (3, 4):
        for group in ("small", "large"):
            records = classify(tables[(n, "gf2")], group)
            index = {rec.canonical.code: i for i, rec in enumerate(records)}
            first_seen = {}
            for code in range(Shape(n).code_count):
                canonical, size = canonical_form(ArrayCode(code, Shape(n)), group)
                assert size == records[index[canonical.code]].size
                first_seen.setdefault(index[canonical.code], code)
            for i, rec in enumerate(records):
                assert first_seen[i] == rec.canonical.code


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("group", ("small", "large"))
def test_stabiliser_times_orbit_size_is_group_order(tables, n, group):
    # the image of each canonical form under every group element, one row
    # per element: a matrix along each direction, then a direction permutation
    records = classify(tables[(n, "gf2")], group)
    images = np.array([[rec.canonical.code for rec in records]])
    for d in range(1, n + 1):
        images = np.concatenate([axis_action_table(g, d, n)[images] for g in GL2_F2])
    if group == "large":
        images = np.concatenate(
            [permutation_action_table(p, n)[images] for p in all_axis_permutations(n)]
        )
    order = 6**n * (math.factorial(n) if group == "large" else 1)
    assert images.shape == (order, len(records))
    for rec, column in zip(records, images.T):
        stabiliser = int((column == rec.canonical.code).sum())
        assert stabiliser * rec.size == order
        assert len(set(column.tolist())) == rec.size
        assert int(column.min()) == rec.canonical.code


def test_rank_invariance_under_all_group_elements(tables):
    for n in (3, 4):
        table = tables[(n, "gf2")]
        ranks = np.zeros(Shape(n).code_count, dtype=np.int64)
        for r, stratum in enumerate(table.strata):
            ranks[np.fromiter(stratum, dtype=np.int64)] = r
        for g in GL2_F2:
            for direction in range(1, n + 1):
                action = axis_action_table(g, direction, n)
                assert (ranks[action] == ranks).all()
        for p in all_axis_permutations(n):
            action = permutation_action_table(p, n)
            assert (ranks[action] == ranks).all()


def test_orbit_split_refines_large_orbits(tables):
    for n in (3, 4):
        splits = orbit_split(tables[(n, "gf2")])
        records = classify(tables[(n, "gf2")], "large")
        assert [s.index for s in splits] == list(range(1, len(records) + 1))
        for s, rec in zip(splits, records):
            assert s.rank == rec.rank and s.size == rec.size
            assert sum(count * size for count, size in s.parts) == rec.size
        small_total = sum(
            count for s in splits for count, _ in s.parts
        )
        assert small_total == len(classify(tables[(n, "gf2")], "small"))


def test_rank2_split_n3(tables):
    splits = orbit_split(tables[(3, "gf2")])
    rank2_54 = [s for s in splits if s.rank == 2 and s.size == 54]
    assert len(rank2_54) == 1
    assert rank2_54[0].parts == ((3, 18),)
