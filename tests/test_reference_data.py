"""The reference dataset checked against itself, with no engine code.

The long tables of `bitcube.expected` are held as text and parsed on
import; these checks hold for the parsed values whatever the engine says:
every form is a 0/1 string of the right length, and the orbit sizes, split
counts and partition counts add up to the stratum sizes.
"""

from collections import Counter

import pytest

from bitcube.expected import DEFAULT


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
    for n, rows in DEFAULT.large_orbits.items():
        assert all(_is_form(form, n) for _, _, form in rows), n
    assert all(_is_form(form, 3) for form, _ in DEFAULT.rank2_small_split_3)
    for (n, tag), rows in DEFAULT.partitions.items():
        for rank, ones, count, representative in rows:
            assert _is_form(representative, n, ones), (n, tag, rank, ones)


@pytest.mark.parametrize("n", (3, 4))
def test_large_orbit_sizes_add_up_to_the_field_strata(n):
    rows = DEFAULT.large_orbits[n]
    assert sum(size for _, size, _ in rows) == 2 ** 2**n
    assert _per_rank(rows, 0, 1) == DEFAULT.stratum_sizes[(n, "gf2")]


@pytest.mark.parametrize("n", (3, 4))
def test_splits_add_up_to_their_orbits_and_to_the_small_orbit_count(n):
    splits, orbits = DEFAULT.orbit_splits[n], DEFAULT.large_orbits[n]
    assert [index for index, _ in splits] == list(range(1, len(orbits) + 1))
    for (index, parts), (_, size, _) in zip(splits, orbits, strict=True):
        assert sum(count * part for count, part in parts) == size, index
        assert [part for _, part in parts] == sorted(part for _, part in parts), index
    assert (sum(count for _, parts in splits for count, _ in parts)
            == DEFAULT.small_orbit_counts[n])


def test_rank2_small_split_makes_up_its_large_orbit():
    # three small orbits of size 18 make up the rank-2 orbit of size 54 at n = 3
    forms = [form for form, _ in DEFAULT.rank2_small_split_3]
    assert forms == sorted(set(forms))
    (index,) = [i for i, (rank, size, _) in enumerate(DEFAULT.large_orbits[3], 1)
                if (rank, size) == (2, 54)]
    parts = dict(DEFAULT.orbit_splits[3])[index]
    assert Counter(size for _, size in DEFAULT.rank2_small_split_3) == {
        size: count for count, size in parts}


@pytest.mark.parametrize("key", [(3, "bool"), (4, "bool"), (4, "nat")])
def test_partition_counts_add_up_to_the_boolean_and_integer_strata(key):
    assert _per_rank(DEFAULT.partitions[key], 0, 2) == DEFAULT.stratum_sizes[key]
