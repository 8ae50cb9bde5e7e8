"""The reference dataset checked against itself, with no engine code.

The long tables of `bitcube.expected` are held as text and parsed on
import; these checks hold for the parsed values whatever the engine says:
every form is a 0/1 string of the right length, and the orbit sizes, split
counts and partition counts add up to the stratum sizes.
"""

from collections import Counter

import pytest

from bitcube.expected import (LARGE_ORBITS, PARTITIONS, RANK2_SMALL_SPLIT_3, SMALL_ORBIT_COUNTS,
                               STRATUM_SIZES)


def _per_rank(rows, rank, count):
    # the counts summed per rank, as a tuple over ranks 0..max
    totals = Counter()
    for row in rows:
        totals[row[rank]] += row[count]
    assert sorted(totals) == list(range(len(totals)))
    return tuple(totals[r] for r in range(len(totals)))


def _is_form(text, n, ones=None):
    return (len(text) == 2**n and set(text) <= {"0", "1"}
            and (ones is None or text.count("1") == ones))


def test_every_form_and_representative_is_a_0_1_string_of_2_to_the_n_cells():
    for n, rows in LARGE_ORBITS.items():
        assert all(_is_form(form, n) for _, _, form, _ in rows), n
    assert all(_is_form(form, 3) for form, _ in RANK2_SMALL_SPLIT_3)
    for (n, tag), rows in PARTITIONS.items():
        for rank, ones, count, representative in rows:
            assert _is_form(representative, n, ones), (n, tag, rank, ones)


@pytest.mark.parametrize("n", (3, 4))
def test_large_orbit_sizes_add_up_to_the_field_strata(n):
    rows = LARGE_ORBITS[n]
    assert sum(size for _, size, _, _ in rows) == 2 ** 2**n
    assert _per_rank(rows, 0, 1) == STRATUM_SIZES[(n, "gf2")]


@pytest.mark.parametrize("n", (3, 4))
def test_splits_add_up_to_their_orbits_and_to_the_small_orbit_count(n):
    orbits = LARGE_ORBITS[n]
    for index, (_, size, _, parts) in enumerate(orbits, 1):
        assert sum(count * part for count, part in parts) == size, index
        assert [part for _, part in parts] == sorted(part for _, part in parts), index
    assert (sum(count for *_, parts in orbits for count, _ in parts)
            == SMALL_ORBIT_COUNTS[n])


def test_rank2_small_split_makes_up_its_large_orbit():
    # three small orbits of size 18 make up the rank-2 orbit of size 54 at n = 3
    forms = [form for form, _ in RANK2_SMALL_SPLIT_3]
    assert forms == sorted(set(forms))
    (parts,) = [parts for rank, size, _, parts in LARGE_ORBITS[3] if (rank, size) == (2, 54)]
    assert Counter(size for _, size in RANK2_SMALL_SPLIT_3) == {
        size: count for count, size in parts}


@pytest.mark.parametrize("key", [(3, "bool"), (4, "bool"), (4, "nat")])
def test_partition_counts_add_up_to_the_boolean_and_integer_strata(key):
    assert _per_rank(PARTITIONS[key], 0, 2) == STRATUM_SIZES[key]
