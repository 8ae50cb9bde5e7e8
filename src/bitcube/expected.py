"""Reference values the engine must reproduce, and the harness that checks them.

Everything `verify` compares against lives here, as one auditable dataset:
stratum sizes, orbit tables, the orbit splitting report, the rank/ones
partition tables and the orbit-count lower bounds.  Canonical forms and
representatives are stored as 0/1 strings in linearization order.  The
long tables are text, one row of whitespace-separated values per line.

Each field of the default dataset is an independent constant; `verify_all`
compares one computed quantity against one field, so a single tampered
value produces exactly one reported mismatch.  It recomputes every
classification from scratch, and a mismatch is a reported outcome, never an
exception.  Of the commands, only `verify` imports this module.  It takes
the partitions and the lower bounds from `ranks` and the rank-2 small split
from `groups`, so `verify` loads none of the table code in `reporting`.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrays import Shape
from .groups import _rank2_small_split, classify, orbit_split
from .ranks import Semiring, lower_bounds, partition_by_ones, stratify


class ReferenceData(NamedTuple):
    stratum_sizes: dict[tuple[int, str], tuple[int, ...]]
    large_orbits: dict[int, tuple[tuple[int, int, str], ...]]
    small_orbit_counts: dict[int, int]
    orbit_splits: dict[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]
    rank2_small_split_3: tuple[tuple[str, int], ...]
    partitions: dict[tuple[int, str], tuple[tuple[int, int, int, str], ...]]
    lower_bounds: dict[int, tuple[int, int]]
    boolean_equals_nonneg_at_3: bool = True


def _rows(text: str, *fields) -> tuple[tuple, ...]:
    """A table held as text: one row per line, its whitespace-separated
    values converted by `fields` in turn."""
    return tuple(tuple(f(v) for f, v in zip(fields, line.split(), strict=True))
                 for line in text.strip().splitlines())


def _parts(text: str) -> tuple[tuple[int, int], ...]:
    # "3x18+1x54" is ((3, 18), (1, 54))
    return tuple(tuple(map(int, part.split("x"))) for part in text.split("+"))


# Counts of arrays of each exact rank, per (dimension, semiring tag).
_STRATUM_SIZES = {
    (3, "gf2"): (1, 27, 162, 66),
    (3, "bool"): (1, 27, 130, 88, 10),
    (3, "nat"): (1, 27, 130, 88, 10),
    (4, "gf2"): (1, 81, 2268, 21744, 37530, 3888, 24),
    (4, "bool"): (1, 81, 1804, 13472, 28904, 17032, 3704, 512, 26),
    (4, "nat"): (1, 81, 1756, 12848, 28788, 17568, 3908, 560, 26),
}

# Large-group orbits as rank, size and canonical form, in classification
# order: ascending rank, then ascending canonical code.
_LARGE_ORBITS_3 = _rows("""
    0   1 00000000
    1  27 00000001
    2  54 00000110
    2 108 00011000
    3  54 00010110
    3  12 01101011
""", int, int, str)

_LARGE_ORBITS_4 = _rows("""
    0    1 0000000000000000
    1   81 0000000000000001
    2  324 0000000000000110
    2 1296 0000000000011000
    2  648 0000000110000000
    3  648 0000000000010110
    3  144 0000000001101011
    3 3888 0000000100011000
    3 2592 0000000100101100
    3 2592 0000000101101010
    3 3888 0000000110000010
    3 7776 0000000110000110
    3  216 0001100011101111
    4  162 0000000100010110
    4 2592 0000000101101000
    4 5184 0000000110010110
    4  108 0000011001100000
    4  972 0000011001100001
    4 1944 0000011001100010
    4 1944 0000011001110010
    4 7776 0000011001111000
    4 1296 0000011010110000
    4 7776 0000011010110001
    4 3888 0001011010000011
    4 3888 0001011010001011
    5  648 0000011001101011
    5  648 0001011001101000
    5 1296 0001011001101001
    5 1296 0001011010000001
    6   24 0110101110111101
""", int, int, str)

# Splitting of each large orbit into small orbits: its index, then its parts
# as count x size, joined by "+" in ascending size.  A part 1xsize marks a
# large orbit that already is a small orbit.
_ORBIT_SPLITS_3 = _rows("""
    1 1x1
    2 1x27
    3 3x18
    4 1x108
    5 1x54
    6 1x12
""", int, _parts)

_ORBIT_SPLITS_4 = _rows("""
     1 1x1
     2 1x81
     3 6x54
     4 4x324
     5 1x648
     6 4x162
     7 4x36
     8 6x648
     9 4x648
    10 4x648
    11 3x1296
    12 6x1296
    13 1x216
    14 1x162
    15 4x648
    16 4x1296
    17 3x36
    18 3x324
    19 6x324
    20 3x648
    21 12x648
    22 6x216
    23 6x1296
    24 3x1296
    25 6x648
    26 6x108
    27 1x648
    28 1x1296
    29 1x1296
    30 1x24
""", int, _parts)

# The rank-2 large orbit of size 54 at n = 3 splits into three small orbits
# of size 18; their canonical forms, ascending.
_RANK2_SMALL_SPLIT_3 = _rows("""
    00000110 18
    00010010 18
    00010100 18
""", str, int)

# Rank/ones partitions as rank, ones, count and minimal representative.
_PARTITION_3_BOOL = _rows("""
    0 0  1 00000000
    1 1  8 00000001
    1 2 12 00000011
    1 4  6 00001111
    1 8  1 11111111
    2 2 16 00000110
    2 3 48 00000111
    2 4 30 00011011
    2 5 24 00011111
    2 6 12 00111111
    3 3  8 00010110
    3 4 32 00010111
    3 5 24 00111101
    3 6 16 01101111
    3 7  8 01111111
    4 4  2 01101001
    4 5  8 01101011
""", int, int, int, str)

_PARTITION_4_BOOL = _rows("""
    0  0    1 0000000000000000
    1  1   16 0000000000000001
    1  2   32 0000000000000011
    1  4   24 0000000000001111
    1  8    8 0000000011111111
    1 16    1 1111111111111111
    2  2   88 0000000000000110
    2  3  352 0000000000000111
    2  4  352 0000000000011011
    2  5  288 0000000000011111
    2  6  384 0000000000111111
    2  7   48 0000001101010111
    2  8  108 0000001111001111
    2  9   64 0000000111111111
    2 10   96 0000001111111111
    2 12   24 0000111111111111
    3  3  208 0000000000010110
    3  4 1216 0000000000010111
    3  5 2304 0000000000111101
    3  6 2512 0000000001101111
    3  7 2656 0000000001111111
    3  8 1904 0000000111101111
    3  9 1056 0000001111011111
    3 10  656 0000011011111111
    3 11  576 0000011111111111
    3 12  256 0001101111111111
    3 13   96 0001111111111111
    3 14   32 0011111111111111
    4  4  228 0000000001101001
    4  5 1648 0000000001101011
    4  6 4048 0000000100111110
    4  7 5856 0000000101101111
    4  8 6304 0000000101111111
    4  9 5200 0000001101111111
    4 10 3200 0000011110111111
    4 11 1408 0000111111110111
    4 12  652 0001011111111111
    4 13  256 0011110111111111
    4 14   88 0110111111111111
    4 15   16 0111111111111111
    5  5  128 0000000110010110
    5  6 1008 0000000110010111
    5  7 2416 0000001101101101
    5  8 3568 0000011001101111
    5  9 4016 0000011001111111
    5 10 3088 0000011101111111
    5 11 1888 0001011111101111
    5 12  712 0001111111110111
    5 13  208 0110101111111111
    6  6   56 0000011001101001
    6  7  448 0000011001101011
    6  8  848 0000011101111001
    6  9  928 0001011001101111
    6 10  848 0001011001111111
    6 11  416 0001011101111111
    6 12  160 0110101111011111
    7  7   16 0001011001101001
    7  8  128 0001011001101011
    7  9  160 0001011111101001
    7 10  112 0011110111010110
    7 11   80 0110100110111111
    7 12   16 0110101110111111
    8  8    2 0110100110010110
    8  9   16 0110100110010111
    8 10    8 0110101111010110
""", int, int, int, str)

_PARTITION_4_NAT = _rows("""
    0  0    1 0000000000000000
    1  1   16 0000000000000001
    1  2   32 0000000000000011
    1  4   24 0000000000001111
    1  8    8 0000000011111111
    1 16    1 1111111111111111
    2  2   88 0000000000000110
    2  3  352 0000000000000111
    2  4  352 0000000000011011
    2  5  288 0000000000011111
    2  6  384 0000000000111111
    2  8  108 0000001111001111
    2  9   64 0000000111111111
    2 10   96 0000001111111111
    2 12   24 0000111111111111
    3  3  208 0000000000010110
    3  4 1216 0000000000010111
    3  5 2304 0000000000111101
    3  6 2512 0000000001101111
    3  7 2704 0000000001111111
    3  8 1664 0000000111101111
    3  9  864 0000001111011111
    3 10  608 0000011011111111
    3 11  384 0000011111111111
    3 12  256 0001101111111111
    3 13   96 0001111111111111
    3 14   32 0011111111111111
    4  4  228 0000000001101001
    4  5 1648 0000000001101011
    4  6 4048 0000000100111110
    4  7 5856 0000000101101111
    4  8 6544 0000000101111111
    4  9 5104 0000001101111111
    4 10 3056 0000011110111111
    4 11 1504 0000111111110111
    4 12  448 0001011111111111
    4 13  256 0011110111111111
    4 14   80 0110111111111111
    4 15   16 0111111111111111
    5  5  128 0000000110010110
    5  6 1008 0000000110010111
    5  7 2416 0000001101101101
    5  8 3568 0000011001101111
    5  9 4304 0000011001111111
    5 10 3088 0000011101111111
    5 11 1984 0001011111101111
    5 12  904 0001111111110111
    5 13  160 0110101111111111
    5 14    8 0111111111111110
    6  6   56 0000011001101001
    6  7  448 0000011001101011
    6  8  848 0000011101111001
    6  9  928 0001011001101111
    6 10 1040 0001011001111111
    6 11  368 0001011101111111
    6 12  172 0110101111011111
    6 13   48 0110111111110111
    7  7   16 0001011001101001
    7  8  128 0001011001101011
    7  9  160 0001011111101001
    7 10  112 0011110111010110
    7 11  128 0110100110111111
    7 12   16 0110101110111111
    8  8    2 0110100110010110
    8  9   16 0110100110010111
    8 10    8 0110101111010110
""", int, int, int, str)

# Orbit-count lower bounds ceil(2**(2**n)/6**n) and ceil(2**(2**n)/(6**n n!)).
_LOWER_BOUNDS = {
    3: (2, 1),
    4: (51, 3),
    5: (552337, 4603),
    6: (395377745064077, 549135757034),
}

DEFAULT = ReferenceData(
    stratum_sizes=_STRATUM_SIZES,
    large_orbits={3: _LARGE_ORBITS_3, 4: _LARGE_ORBITS_4},
    small_orbit_counts={3: 8, 4: 112},
    orbit_splits={3: _ORBIT_SPLITS_3, 4: _ORBIT_SPLITS_4},
    rank2_small_split_3=_RANK2_SMALL_SPLIT_3,
    partitions={
        (3, "bool"): _PARTITION_3_BOOL,
        (4, "bool"): _PARTITION_4_BOOL,
        (4, "nat"): _PARTITION_4_NAT,
    },
    lower_bounds=_LOWER_BOUNDS,
)


# ---------------------------------------------------------------------------
# verification against the reference dataset
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerifyReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def mismatches(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            line = f"{status} {c.name}"
            if not c.passed and c.detail:
                line += f": {c.detail}"
            out.append(line)
        out.append(
            f"verification: {len(self.checks)} checks, "
            f"{len(self.mismatches)} mismatches"
        )
        return out


def _compare(name: str, computed, reference) -> Check:
    if computed == reference:
        return Check(name, True)
    detail = f"computed {computed!r} != expected {reference!r}"
    if isinstance(computed, tuple) and isinstance(reference, tuple):
        for i, (c, e) in enumerate(zip(computed, reference)):
            if c != e:
                detail = (
                    f"first difference at row {i}: "
                    f"computed {c!r} != expected {e!r}"
                )
                break
        else:
            detail = f"row count {len(computed)} != {len(reference)}"
    return Check(name, False, detail)


_SCOPES = {"3": (3,), "4": (4,), "all": (3, 4)}


def _checks(n: int, data: ReferenceData):
    """The (name, computed, reference) triple of each check at dimension n,
    in report order."""
    tables = {s: stratify(Shape(n), s) for s in Semiring}
    for s in Semiring:
        yield (f"stratum sizes n={n} {s.value}", tables[s].stratum_sizes,
               data.stratum_sizes[(n, s.value)])
    if n == 3:
        yield ("boolean and integer strata identical n=3",
               tables[Semiring.BOOLEAN].levels == tables[Semiring.NONNEG].levels,
               data.boolean_equals_nonneg_at_3)
    gf2 = tables[Semiring.GF2]
    yield (f"large-group orbits n={n}",
           tuple((r.rank, r.size, r.canonical.text()) for r in classify(gf2, "large")),
           data.large_orbits[n])
    yield (f"small-group orbit count n={n}", len(classify(gf2, "small")),
           data.small_orbit_counts[n])
    yield (f"orbit splitting n={n}", tuple((s.index, s.parts) for s in orbit_split(gf2)),
           data.orbit_splits[n])
    if n == 3:
        yield ("rank-2 small-group split n=3",
               tuple((form.text(), size) for form, size in _rank2_small_split()),
               data.rank2_small_split_3)
    for s in [Semiring.BOOLEAN] if n == 3 else [Semiring.BOOLEAN, Semiring.NONNEG]:
        yield (f"partition rows n={n} {s.value}",
               tuple((row.rank, row.ones, row.count, row.representative.text())
                     for row in partition_by_ones(tables[s])),
               data.partitions[(n, s.value)])


def verify_all(scope: str = "all") -> VerifyReport:
    """Recompute every classification in scope and compare with the embedded
    dataset, DEFAULT as it is at call time."""
    if not isinstance(scope, str) or scope not in _SCOPES:
        raise ValueError(f"scope must be '3', '4' or 'all', got {scope!r}")
    data = DEFAULT
    checks = [check for n in _SCOPES[scope] for check in _checks(n, data)]
    checks.append(("lower bounds n=3..6", {n: lower_bounds(n) for n in range(3, 7)},
                   data.lower_bounds))
    return VerifyReport(tuple(_compare(*check) for check in checks))
