"""Checks of bitcube's outputs that share no code with its engine.

Orbits come from a closure over explicit 2 x ... x 2 tensors written here,
ranks from the depth-first search in tests/rank_oracle.py, lower bounds from
Python integers.  Every failed check raises CheckFailed; the benchmark counts
the operation whose output it was as failed.

Strength of each check:

- ranks, canonical forms, orbit sizes, orbit tables and splits are compared
  with the independent computations exactly;
- n = 3 stratum counts and the n = 3 Boolean partition are exact (the
  oracle ranks all 256 codes), and so are the n = 4 GF(2) stratum counts
  (rank is constant on an orbit, so they follow from the orbit table);
- n = 4 Boolean and integer stratum counts are checked by properties only
  (sum, rank 0 and rank 1, agreement with the partition tables), and n = 4
  partition representatives by their ones count and oracle rank, not by
  minimality.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np

SEMIRINGS = ("gf2", "bool", "nat")

#: Emission order of `tables --kind all`.
TABLE_KINDS = (
    "strata-3-gf2", "strata-3-bool", "strata-3-nat",
    "strata-4-gf2", "strata-4-bool", "strata-4-nat",
    "table1", "table2", "table3", "table4", "table5",
    "split-3", "split-4", "small-split-3", "lower-bounds",
)

# Decimal places of the percentage column: whole points at n = 3, three
# decimals at n = 4.
PERCENT_DECIMALS = {3: 0, 4: 3}

STRATA_COLUMNS = ("rank", "count", "percent")
ORBIT_COLUMNS = ("orbit", "rank", "size", "canonical")
CLASSIFY_COLUMNS = ("orbit", "rank", "size", "ones", "canonical")
PARTITION_COLUMNS = ("row", "rank", "ones", "count", "representative")
SPLIT_COLUMNS = ("orbit", "rank", "size", "small orbits")
SMALL_SPLIT_COLUMNS = ("canonical", "size")
BOUNDS_COLUMNS = ("n", "small group", "large group")

# Generators of GL2(F2): two distinct transpositions of its three nonzero
# vectors.
_SWAP = np.array([[0, 1], [1, 0]], dtype=np.int64)
_SHEAR = np.array([[1, 1], [0, 1]], dtype=np.int64)
_NONZERO = (np.array([0, 1]), np.array([1, 0]), np.array([1, 1]))


class CheckFailed(Exception):
    """An output of the program is wrong or malformed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def total_codes(n: int) -> int:
    return 1 << (1 << n)


def group_order(n: int, group: str) -> int:
    return 6**n * (math.factorial(n) if group == "large" else 1)


def code_text(code: int, n: int) -> str:
    return format(code, f"0{1 << n}b")


# ---------------------------------------------------------------------------
# the independent reference
# ---------------------------------------------------------------------------

def _entries(n: int) -> np.ndarray:
    """Entries of every code of dimension n, shape (codes, 2, ..., 2).

    The first entry of the linearization (last subscript fastest) is the
    most significant bit of the code.
    """
    m = 1 << n
    codes = np.arange(1 << m, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return bits.reshape((1 << m,) + (2,) * n)


def _pack(entries: np.ndarray) -> np.ndarray:
    flat = entries.reshape(len(entries), -1)
    weights = np.left_shift(1, np.arange(flat.shape[1] - 1, -1, -1))
    return flat @ weights


def _generator_images(n: int, group: str) -> list[np.ndarray]:
    """Image of every code under each generator of the group.

    "small" and "large" are the symmetry groups of the field case.
    "relabel" only swaps the two indices along a direction and permutes
    directions; it preserves rank under all three semirings.
    """
    x = _entries(n)
    images = []
    for axis in range(1, n + 1):
        for g in ((_SWAP,) if group == "relabel" else (_SWAP, _SHEAR)):
            y = np.tensordot(g, x, axes=([1], [axis])) % 2
            images.append(_pack(np.moveaxis(y, 0, axis)))
    if group in ("large", "relabel"):
        for axis in range(2, n + 1):
            images.append(_pack(np.swapaxes(x, 1, axis)))
    return images


def _orbit_minima(n: int, group: str) -> np.ndarray:
    """For every code, the least code of its orbit.

    Each pass lowers a label to the least label one generator step away;
    at the fixpoint labels are constant along every generator cycle, hence
    on every orbit, and each label is an orbit member, so it is the minimum.
    """
    images = _generator_images(n, group)
    labels = np.arange(total_codes(n), dtype=np.int64)
    while True:
        new = labels
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


class Reference:
    """Independent results, computed lazily and kept for one benchmark run."""

    def __init__(self, rank_search_class):
        self._rank_search_class = rank_search_class
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def rank(self, n: int, semiring: str, code: int) -> int:
        search = self._cached(("search", n, semiring),
                              lambda: self._rank_search_class(n, semiring))
        return self._cached(("rank", n, semiring, code), lambda: search.rank(code))

    def minima(self, n: int, group: str) -> np.ndarray:
        return self._cached(("minima", n, group), lambda: _orbit_minima(n, group))

    def orbit(self, n: int, group: str, code: int) -> tuple[int, int]:
        """(least member, size) of the orbit of a code."""
        minima = self.minima(n, group)
        sizes = self._cached(("sizes", n, group), lambda: np.bincount(minima))
        least = int(minima[code])
        return least, int(sizes[least])

    def orbit_rows(self, n: int, group: str) -> tuple[tuple[int, int, int], ...]:
        """(rank, size, canonical) of every orbit, by rank then canonical."""
        def compute():
            least, sizes = np.unique(self.minima(n, group), return_counts=True)
            rows = [(self.rank(n, "gf2", int(c)), int(s), int(c))
                    for c, s in zip(least, sizes)]
            return tuple(sorted(rows, key=lambda row: (row[0], row[2])))
        return self._cached(("orbit_rows", n, group), compute)

    def split_rows(self, n: int) -> tuple[tuple[int, int, tuple], ...]:
        """(rank, size, ((count, small size), ...)) of every large orbit."""
        def compute():
            large = self.minima(n, "large")
            small = self.minima(n, "small")
            small_sizes = Counter(small.tolist())
            parts: dict[int, Counter] = {}
            for s_min, size in small_sizes.items():
                parts.setdefault(int(large[s_min]), Counter())[size] += 1
            return tuple(
                (rank, size, tuple((c, s) for s, c in sorted(parts[canon].items())))
                for rank, size, canon in self.orbit_rows(n, "large")
            )
        return self._cached(("split_rows", n), compute)

    def small_split_3(self) -> tuple[tuple[int, int], ...]:
        """(canonical, size) of the small orbits in the rank-2 size-54 large
        orbit at n = 3, ascending."""
        def compute():
            (canon,) = [c for r, s, c in self.orbit_rows(3, "large")
                        if (r, s) == (2, 54)]
            large = self.minima(3, "large")
            return tuple(
                (c, s) for r, s, c in self.orbit_rows(3, "small")
                if large[c] == canon
            )
        return self._cached("small_split_3", compute)

    def rank_one(self, n: int) -> frozenset:
        """Codes of the 3**n outer products of nonzero 0-1 vectors."""
        def compute():
            tensors = [reduce(np.multiply.outer, vs)
                       for vs in itertools.product(_NONZERO, repeat=n)]
            return frozenset(int(c) for c in _pack(np.array(tensors)))
        return self._cached(("rank_one", n), compute)

    def strata_counts(self, n: int, semiring: str):
        """Exact stratum counts where an independent source exists, else None."""
        def compute():
            counts = Counter()
            if n == 3:
                for code in range(total_codes(n)):
                    counts[self.rank(n, semiring, code)] += 1
            else:
                for rank, size, _ in self.orbit_rows(n, "large"):
                    counts[rank] += size
            return tuple(counts[r] for r in range(max(counts) + 1))
        if n == 3 or semiring == "gf2":
            return self._cached(("strata", n, semiring), compute)
        return None

    def partition_rows(self, n: int, semiring: str):
        """Exact (rank, ones, count, least code) rows; n = 3 only."""
        if n != 3:
            return None
        def compute():
            rows: dict[tuple[int, int], list[int]] = {}
            for code in range(total_codes(n)):
                key = (self.rank(n, semiring, code), bin(code).count("1"))
                rows.setdefault(key, []).append(code)
            return tuple((r, o, len(c), min(c)) for (r, o), c in sorted(rows.items()))
        return self._cached(("partition", n, semiring), compute)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_code(cell: str, n: int) -> int:
    """A code from a 0/1 string or from the 2 x 4 block display of n = 3.

    Row i of the display is [x_i11 x_i21 | x_i12 x_i22].
    """
    if cell.startswith("["):
        require(n == 3 and cell.endswith("]"), f"bad block display {cell!r}")
        entries = {}
        rows = cell[1:-1].split(" / ")
        require(len(rows) == 2, f"bad block display {cell!r}")
        for i, row in enumerate(rows):
            halves = [h.split() for h in row.split("|")]
            require(len(halves) == 2 and all(len(h) == 2 for h in halves),
                    f"bad block display {cell!r}")
            (a, b), (c, d) = halves
            entries.update({(i, 0, 0): a, (i, 1, 0): b, (i, 0, 1): c, (i, 1, 1): d})
        cell = "".join(entries[s] for s in itertools.product((0, 1), repeat=3))
    require(len(cell) == 1 << n and not set(cell) - {"0", "1"},
            f"bad code {cell!r} for n={n}")
    return int(cell, 2)


def _md_rows(lines: list[str]) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    cells = []
    for line in lines:
        require(line.startswith("| ") and line.endswith(" |"), f"bad md row {line!r}")
        cells.append(tuple(c.replace("\\|", "|") for c in line[2:-2].split(" | ")))
    require(len(cells) >= 2 and set(cells[1]) == {"---"}, "bad md table header")
    return cells[0], cells[2:]


def parse_table(text: str, fmt: str):
    """(columns, rows) of a single rendered table; cells are strings."""
    if fmt == "md":
        require(text.endswith("\n"), "md table without final newline")
        return _md_rows(text[:-1].split("\n"))
    if fmt == "csv":
        rows = [tuple(r) for r in csv.reader(io.StringIO(text, newline=""))]
        require(len(rows) >= 1, "empty csv table")
        return rows[0], rows[1:]
    if fmt == "json":
        obj = json.loads(text)
        return (tuple(obj["columns"]),
                [tuple(str(c) for c in row) for row in obj["rows"]])
    raise CheckFailed(f"unknown format {fmt!r}")


def parse_document(text: str, fmt: str) -> dict:
    """kind -> (columns, rows) for the output of `tables --kind all`."""
    tables = {}
    if fmt == "md":
        for section in text.split("## ")[1:]:
            kind, _, body = section.partition("\n\n")
            tables[kind] = _md_rows(body.rstrip("\n").split("\n"))
    elif fmt == "csv":
        kind, rows = None, []
        for row in list(csv.reader(io.StringIO(text, newline=""))) + [[]]:
            if len(row) == 1 and not rows:
                kind = row[0]
            elif row:
                rows.append(tuple(row))
            elif kind is not None:
                require(len(rows) >= 1, f"csv section {kind} has no header")
                tables[kind] = (rows[0], rows[1:])
                kind, rows = None, []
    elif fmt == "json":
        for obj in json.loads(text):
            tables[obj["name"]] = (
                tuple(obj["columns"]),
                [tuple(str(c) for c in row) for row in obj["rows"]],
            )
    require(tuple(tables) == TABLE_KINDS,
            f"table kinds {tuple(tables)} != {TABLE_KINDS}")
    return tables


def _ints(rows, *columns):
    try:
        return [tuple(int(r[c]) for c in columns) for r in rows]
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"non-integer cell: {exc}") from None


def _parse_parts(text: str) -> tuple[tuple[int, int], ...]:
    parts = []
    for term in text.split(" + "):
        count, sep, size = term.partition("·")
        require(sep == "·" and count.isdigit() and size.isdigit(),
                f"bad split term {term!r}")
        parts.append((int(count), int(size)))
    return tuple(parts)


# ---------------------------------------------------------------------------
# table checks
# ---------------------------------------------------------------------------

def check_counts(ref: Reference, n: int, semiring: str, counts: tuple) -> None:
    """Stratum counts, rank 0 first."""
    total = total_codes(n)
    require(all(c > 0 for c in counts), f"strata-{n}-{semiring}: empty stratum")
    require(sum(counts) == total,
            f"strata-{n}-{semiring}: counts sum to {sum(counts)}, not {total}")
    require(counts[:2] == (1, 3**n),
            f"strata-{n}-{semiring}: ranks 0 and 1 have {counts[:2]} codes")
    exact = ref.strata_counts(n, semiring)
    if exact is not None:
        require(counts == exact,
                f"strata-{n}-{semiring}: counts {counts} != independent {exact}")


def check_strata(ref: Reference, n: int, semiring: str, columns, rows) -> tuple:
    """Stratum table; returns the counts per rank."""
    exact_column = len(columns) == 4
    require(tuple(columns) == STRATA_COLUMNS + (("percent_exact",) if exact_column else ()),
            f"strata-{n}-{semiring}: columns {columns}")
    ranks_counts = _ints(rows, 0, 1)
    require([r for r, _ in ranks_counts] == list(range(len(rows))),
            f"strata-{n}-{semiring}: ranks not 0..r")
    counts = tuple(c for _, c in ranks_counts)
    check_counts(ref, n, semiring, counts)
    total = total_codes(n)
    tolerance = Fraction(1, 2 * 10 ** PERCENT_DECIMALS[n])
    for row, count in zip(rows, counts):
        share = Fraction(100 * count, total)
        require(abs(Fraction(row[2]) - share) <= tolerance,
                f"strata-{n}-{semiring}: percent {row[2]} for {count} codes")
        if exact_column:
            require(row[3] == f"{share.numerator}/{share.denominator}",
                    f"strata-{n}-{semiring}: exact percent {row[3]}")
    return counts


def check_orbits(ref: Reference, n: int, group: str, columns, rows,
                 strata_counts) -> None:
    """Orbit table (`tables` table1/table3 or `classify`)."""
    with_ones = len(columns) == len(CLASSIFY_COLUMNS)
    require(tuple(columns) == (CLASSIFY_COLUMNS if with_ones else ORBIT_COLUMNS),
            f"orbits n={n} {group}: columns {columns}")
    parsed = []
    for i, row in enumerate(rows, start=1):
        index, rank, size = _ints([row], 0, 1, 2)[0]
        canonical = parse_code(row[-1], n)
        require(index == i, f"orbit numbering {index} at row {i}")
        require(group_order(n, group) % size == 0,
                f"orbit size {size} does not divide the group order")
        least, true_size = ref.orbit(n, group, canonical)
        require(canonical == least,
                f"canonical form {code_text(canonical, n)} is not the minimum "
                f"of its orbit ({code_text(least, n)})")
        require(size == true_size, f"orbit of {code_text(canonical, n)} has "
                f"size {true_size}, table says {size}")
        require(rank == ref.rank(n, "gf2", canonical),
                f"orbit of {code_text(canonical, n)}: rank {rank}")
        if with_ones:
            require(int(row[3]) == bin(canonical).count("1"),
                    f"ones of {code_text(canonical, n)}: {row[3]}")
        parsed.append((rank, size, canonical))
    require(sum(s for _, s, _ in parsed) == total_codes(n),
            f"orbits n={n} {group}: sizes do not sum to {total_codes(n)}")
    per_rank = Counter()
    for rank, size, _ in parsed:
        per_rank[rank] += size
    require(tuple(per_rank[r] for r in range(len(strata_counts))) == tuple(strata_counts),
            f"orbits n={n} {group}: per-rank sizes differ from strata counts")
    require(tuple(parsed) == ref.orbit_rows(n, group),
            f"orbits n={n} {group}: rows differ from the independent closure")


def check_partitions(ref: Reference, n: int, semiring: str, columns, rows,
                     strata_counts) -> None:
    require(tuple(columns) == PARTITION_COLUMNS,
            f"partition n={n} {semiring}: columns {columns}")
    parsed = []
    for i, row in enumerate(rows, start=1):
        index, rank, ones, count = _ints([row], 0, 1, 2, 3)[0]
        rep = parse_code(row[4], n)
        require(index == i, f"partition numbering {index} at row {i}")
        require(count > 0, f"partition row {i}: empty class")
        require(bin(rep).count("1") == ones,
                f"representative {code_text(rep, n)} does not have {ones} ones")
        require(ref.rank(n, semiring, rep) == rank,
                f"representative {code_text(rep, n)} has {semiring} rank "
                f"{ref.rank(n, semiring, rep)}, table says {rank}")
        parsed.append((rank, ones, count, rep))
    keys = [(r, o) for r, o, _, _ in parsed]
    require(keys == sorted(set(keys)), f"partition n={n} {semiring}: rows not sorted")
    per_rank = Counter()
    for rank, _, count, _ in parsed:
        per_rank[rank] += count
    require(tuple(per_rank[r] for r in range(len(strata_counts))) == tuple(strata_counts)
            and sum(per_rank.values()) == total_codes(n),
            f"partition n={n} {semiring}: counts differ from strata counts")
    exact = ref.partition_rows(n, semiring)
    if exact is not None:
        require(tuple(parsed) == exact,
                f"partition n={n} {semiring}: rows differ from the oracle's")


def check_splits(ref: Reference, n: int, columns, rows) -> None:
    require(tuple(columns) == SPLIT_COLUMNS, f"split-{n}: columns {columns}")
    parsed = []
    for i, row in enumerate(rows, start=1):
        index, rank, size = _ints([row], 0, 1, 2)[0]
        parts = _parse_parts(row[3])
        require(index == i, f"split numbering {index} at row {i}")
        require(sum(c * s for c, s in parts) == size,
                f"split-{n} orbit {i}: parts {row[3]} do not sum to {size}")
        require(all(6**n % s == 0 for _, s in parts),
                f"split-{n} orbit {i}: a small orbit size does not divide 6^n")
        parsed.append((rank, size, parts))
    require(tuple(parsed) == ref.split_rows(n),
            f"split-{n}: rows differ from the independent closure")


def check_split_text(ref: Reference, n: int, text: str) -> None:
    """`split` in its default text form: one 'i → c·s + ...' line per orbit."""
    expected = ref.split_rows(n)
    lines = text.splitlines()
    require(len(lines) == len(expected), f"split-{n}: {len(lines)} lines")
    for i, (line, (_, size, parts)) in enumerate(zip(lines, expected), start=1):
        index, sep, rest = line.partition(" → ")
        require(sep and index == str(i), f"split-{n}: bad line {line!r}")
        got = _parse_parts(rest)
        require(sum(c * s for c, s in got) == size and got == parts,
                f"split-{n} orbit {i}: {rest!r}, expected sizes sum {size}")


def check_small_split(ref: Reference, columns, rows) -> None:
    require(tuple(columns) == SMALL_SPLIT_COLUMNS, f"small-split-3: columns {columns}")
    parsed = tuple((parse_code(r[0], 3), _ints([r], 1)[0][0]) for r in rows)
    require(sum(s for _, s in parsed) == 54, "small-split-3: sizes do not sum to 54")
    require(parsed == ref.small_split_3(),
            "small-split-3: rows differ from the independent closure")


def check_bounds(columns, rows) -> None:
    require(tuple(columns) == BOUNDS_COLUMNS, f"lower-bounds: columns {columns}")
    expected = []
    for n in range(3, 7):
        total = 2 ** (2**n)
        expected.append((n, math.ceil(Fraction(total, 6**n)),
                         math.ceil(Fraction(total, 6**n * math.factorial(n)))))
    require(_ints(rows, 0, 1, 2) == expected, "lower bounds differ from Python integers")


def check_document(ref: Reference, text: str, fmt: str) -> dict:
    """Every table of `tables --kind all`; returns the parsed tables."""
    tables = parse_document(text, fmt)
    counts = {}
    for n in (3, 4):
        for s in SEMIRINGS:
            counts[(n, s)] = check_strata(ref, n, s, *tables[f"strata-{n}-{s}"])
    require(tables["strata-3-bool"][1] == tables["strata-3-nat"][1],
            "n=3 Boolean and integer strata differ")
    check_orbits(ref, 3, "large", *tables["table1"], counts[(3, "gf2")])
    check_orbits(ref, 4, "large", *tables["table3"], counts[(4, "gf2")])
    for kind, n, s in (("table2", 3, "bool"), ("table4", 4, "bool"), ("table5", 4, "nat")):
        check_partitions(ref, n, s, *tables[kind], counts[(n, s)])
    check_splits(ref, 3, *tables["split-3"])
    check_splits(ref, 4, *tables["split-4"])
    check_small_split(ref, *tables["small-split-3"])
    check_bounds(*tables["lower-bounds"])
    return tables


def check_same_cells(md: dict, other: dict, fmt: str) -> None:
    """A csv or json document of `tables --kind all` carries the cells of
    the md document of the same tables.

    csv and json add an exact percentage column to strata tables, so they
    are compared on the md columns only.
    """
    for kind, (columns, rows) in md.items():
        other_columns, other_rows = other[kind]
        k = len(columns)
        require(tuple(other_columns[:k]) == tuple(columns)
                and [tuple(r[:k]) for r in other_rows] == [tuple(r) for r in rows],
                f"{kind}: {fmt} cells differ from md")


# ---------------------------------------------------------------------------
# command checks
# ---------------------------------------------------------------------------

def _options(argv) -> tuple[dict, list]:
    opts, positional = {}, []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--flat":
            opts["flat"] = True
        elif arg.startswith("--"):
            opts[arg[2:]] = next(it)
        else:
            positional.append(arg)
    return opts, positional


def check_export(ref: Reference, n: int, semiring: str, text: str) -> None:
    """Every code must sit in its rank's stratum.  That is exact for GF(2),
    where rank is constant on orbits; for the other semirings, rank must be
    constant under relabelling and match the oracle on a sample."""
    obj = json.loads(text)
    require((obj["n"], obj["semiring"]) == (n, semiring),
            f"export header {obj['n']} {obj['semiring']}")
    strata = obj["strata"]
    require(obj["max_rank"] == len(strata) - 1, "export max_rank")
    require(all(s and s == sorted(s) for s in strata), "export strata not sorted")
    flat = np.sort(np.concatenate([np.asarray(s, dtype=np.int64) for s in strata]))
    require(np.array_equal(flat, np.arange(total_codes(n))),
            "export strata do not partition the code space")
    require(strata[0] == [0] and set(strata[1]) == ref.rank_one(n),
            "export strata 0 and 1 are not the zero and rank-1 arrays")
    exact = ref.strata_counts(n, semiring)
    if exact is not None:
        require(tuple(map(len, strata)) == exact, "export stratum counts")
    ranks = np.empty(total_codes(n), dtype=np.int64)
    for rank, stratum in enumerate(strata):
        ranks[stratum] = rank
    if semiring == "gf2":
        orbit_rank = np.zeros(total_codes(n), dtype=np.int64)
        for rank, _, canonical in ref.orbit_rows(n, "large"):
            orbit_rank[canonical] = rank
        require(np.array_equal(ranks, orbit_rank[ref.minima(n, "large")]),
                "export: a code is not in the stratum of its orbit's rank")
    else:
        require(np.array_equal(ranks, ranks[ref.minima(n, "relabel")]),
                "export: rank is not constant under relabelling")
    sample = range(total_codes(n)) if n == 3 else range(0, total_codes(n), 257)
    for code in sample:
        require(ranks[code] == ref.rank(n, semiring, code),
                f"export: {code_text(code, n)} in stratum {ranks[code]}")


def check_verify(text: str) -> None:
    lines = text.splitlines()
    require(lines and not any(line.startswith("FAIL") for line in lines),
            "verify reported a FAIL line")
    match = re.fullmatch(r"verification: (\d+) checks, 0 mismatches", lines[-1])
    require(match is not None and int(match.group(1)) == len(lines) - 1
            and all(line.startswith("ok  ") for line in lines[:-1]),
            f"verify summary {lines[-1]!r}")


def check_command(ref: Reference, argv, returncode: int, stdout: str) -> None:
    """Check one CLI command's exit code and output against the reference."""
    require(returncode == 0, f"exit code {returncode}")
    command = argv[0]
    opts, positional = _options(argv)
    fmt = opts.get("format", "md")
    n = int(opts.get("n", 0))
    if command == "verify":
        check_verify(stdout)
    elif command == "tables":
        check_document(ref, stdout, fmt)
    elif command == "rank":
        code = parse_code("".join(positional), n)
        lines = stdout.splitlines()
        rank = ref.rank(n, opts["semiring"], code)
        expected = [str(rank)]
        if "group" in opts:
            least, size = ref.orbit(n, opts["group"], code)
            expected += [f"canonical: {code_text(least, n)}", f"orbit-size: {size}"]
        require(lines == expected, f"rank of {code_text(code, n)}: {lines} != {expected}")
    elif command == "enumerate":
        check_strata(ref, n, opts["semiring"], *parse_table(stdout, fmt))
    elif command == "classify":
        check_orbits(ref, n, opts["group"], *parse_table(stdout, fmt),
                     ref.strata_counts(n, "gf2"))
    elif command == "split":
        if opts.get("format", "text") == "text":
            check_split_text(ref, n, stdout)
        else:
            check_splits(ref, n, *parse_table(stdout, fmt))
    elif command == "bounds":
        check_bounds(*parse_table(stdout, fmt))
    elif command == "export":
        check_export(ref, n, opts["semiring"], stdout)
    else:
        raise CheckFailed(f"no check for command {command!r}")
