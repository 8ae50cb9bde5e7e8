"""Lower bounds, rank/ones partitions and table emission.

Every table reaches text the same way: `build_table` assembles a table
kind (see TABLE_KINDS) as a `Table` and `render_table` renders it as
Markdown, CSV or JSON.  The commands `enumerate`, `split`, `bounds` and
`tables` print table kinds; `classify` builds its orbit table with
`orbit_records_table` and renders it likewise.

Table emission is deterministic: a given (kind, format) pair always yields
byte-identical text.  The verification harness that compares these values
with the reference dataset lives beside it, in `expected`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

from . import FORMATS, TABLE_KINDS
from .arrays import ArrayCode, Shape, _mat_rows
from .stratify import RankTable, Semiring, rank_distribution, stratify

# groups, csv and json are imported by the functions that use them, so that
# each command loads only what it runs.

Cell = Union[int, str]


def lower_bounds(n: int) -> tuple[int, int]:
    """Orbit-count lower bounds for the small and large symmetry groups.

    Exact integer ceilings of 2**(2**n)/6**n and 2**(2**n)/(6**n n!);
    the n = 6 values exceed 64 bits, hence big-integer arithmetic.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"lower bounds are defined for n in 3..6, got {n}")
    total = 1 << (1 << n)
    small_order = 6**n
    large_order = small_order * math.factorial(n)
    return (-(-total // small_order), -(-total // large_order))


class PartitionRow(NamedTuple):
    """Arrays of one (rank, ones) class: count and minimal representative."""

    rank: int
    ones: int
    count: int
    representative: ArrayCode


@lru_cache(maxsize=None)
def _ones_masks(n: int) -> tuple[int, ...]:
    # per count w, the bitset of the codes with w ones: the codes below
    # 2**(b + 1) with w ones are those below 2**b with w ones, and those
    # with w - 1 ones plus 2**b
    masks = [1]
    for b in range(1 << n):
        masks = [low | high << (1 << b) for low, high in zip(masks + [0], [0] + masks)]
    return tuple(masks)


def partition_by_ones(table: RankTable) -> tuple[PartitionRow, ...]:
    """Partition each stratum by the number of entries equal to 1.

    Rows are sorted by (rank, ones); empty classes are omitted.  Each class
    is a level of the table intersected with the codes of one ones count;
    its representative is its minimum, the lowest set bit.
    """
    rows = []
    for rank, level in enumerate(table.levels):
        for ones, mask in enumerate(_ones_masks(table.shape.n)):
            codes = level & mask
            if codes:
                minimum = ArrayCode((codes & -codes).bit_length() - 1, table.shape)
                rows.append(PartitionRow(rank, ones, codes.bit_count(), minimum))
    return tuple(rows)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

class Table(NamedTuple):
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]


def mat_compact(a: ArrayCode) -> str:
    """One-line form of the 2 x 4 block display, rows joined by ' / '."""
    return "[" + " / ".join(_mat_rows(a)) + "]"


def _canon_cell(a: ArrayCode, flat: bool) -> str:
    if flat or a.shape.n != 3:
        return a.text()
    return mat_compact(a)


def _ratio(p: int, q: int) -> str:
    # p/q in lowest terms, as Fraction(p, q) holds it: "0/1" for none
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def distribution_table(table: RankTable, fmt: str = "md") -> Table:
    """Rank distribution of a stratification as an emittable table."""
    dist = rank_distribution(table)
    columns: tuple[str, ...] = ("rank", "count", "percent")
    rows = [(share.rank, share.count, share.percent) for share in dist]
    if fmt in ("csv", "json"):
        columns += ("percent_exact",)
        total = table.shape.code_count
        rows = [row + (_ratio(100 * share.count, total),) for row, share in zip(rows, dist)]
    return Table(
        f"strata-{table.shape.n}-{table.semiring.value}", columns, tuple(rows)
    )


def orbit_records_table(
    records: Sequence[OrbitRecord], name: str, flat: bool = False, ones: bool = True
) -> Table:
    """One row per orbit; the paper's tables 1 and 3 have no ones column."""
    columns = ("orbit", "rank", "size", "ones", "canonical")
    rows = tuple(
        (i + 1, rec.rank, rec.size, rec.ones, _canon_cell(rec.canonical, flat))
        for i, rec in enumerate(records)
    )
    if not ones:
        columns, rows = columns[:3] + columns[4:], tuple(r[:3] + r[4:] for r in rows)
    return Table(name, columns, rows)


def partition_table(table: RankTable, name: str, flat: bool = False) -> Table:
    rows = partition_by_ones(table)
    return Table(
        name,
        ("row", "rank", "ones", "count", "representative"),
        tuple(
            (i + 1, row.rank, row.ones, row.count,
             _canon_cell(row.representative, flat))
            for i, row in enumerate(rows)
        ),
    )


def _split_parts(split: OrbitSplit) -> str:
    return " + ".join(f"{count}·{size}" for count, size in split.parts)


def split_rule(split: OrbitSplit) -> str:
    """'x → y·z' line for one large orbit."""
    return f"{split.index} → {_split_parts(split)}"


def rank2_small_split(flat: bool = False) -> Table:
    """The three small orbits inside the rank-2 size-54 large orbit (n=3)."""
    from .groups import canonical_form, classify
    table = stratify(Shape(3), Semiring.GF2)
    big = next(
        rec for rec in classify(table, "large") if rec.rank == 2 and rec.size == 54
    )
    members = [
        rec for rec in classify(table, "small")
        if canonical_form(rec.canonical, "large")[0] == big.canonical
    ]
    return Table(
        "small-split-3",
        ("canonical", "size"),
        tuple((_canon_cell(rec.canonical, flat), rec.size) for rec in members),
    )


def build_table(kind: str, fmt: str = "md", flat: bool = False) -> Table:
    """Assemble one table kind (see TABLE_KINDS)."""
    if kind not in TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    if kind.startswith("strata-"):
        _, n, semiring = kind.split("-")
        return distribution_table(stratify(Shape(int(n)), Semiring(semiring)), fmt)
    if kind in ("table1", "table3"):
        from .groups import classify
        n = 3 if kind == "table1" else 4
        records = classify(stratify(Shape(n), Semiring.GF2), "large")
        return orbit_records_table(records, kind, flat, ones=False)
    if kind in ("table2", "table4", "table5"):
        n, semiring = {
            "table2": (3, Semiring.BOOLEAN),
            "table4": (4, Semiring.BOOLEAN),
            "table5": (4, Semiring.NONNEG),
        }[kind]
        return partition_table(stratify(Shape(n), semiring), kind, flat)
    if kind in ("split-3", "split-4"):
        from .groups import orbit_split
        splits = orbit_split(stratify(Shape(int(kind[-1])), Semiring.GF2))
        return Table(
            kind,
            ("orbit", "rank", "size", "small orbits"),
            tuple((s.index, s.rank, s.size, _split_parts(s)) for s in splits),
        )
    if kind == "small-split-3":
        return rank2_small_split(flat)
    # the one kind left, lower-bounds
    return Table(
        kind,
        ("n", "small group", "large group"),
        tuple((n,) + lower_bounds(n) for n in range(3, 7)),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _md_cell(cell: Cell) -> str:
    return str(cell).replace("|", "\\|")


def _to_markdown(table: Table) -> str:
    lines = [
        "| " + " | ".join(table.columns) + " |",
        "| " + " | ".join("---" for _ in table.columns) + " |",
    ]
    for row in table.rows:
        lines.append("| " + " | ".join(_md_cell(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _to_csv(table: Table) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buf.getvalue()


def _json_payload(table: Table) -> dict:
    return {"name": table.name, "columns": list(table.columns),
            "rows": [list(row) for row in table.rows]}


def _json_text(payload) -> str:
    import json
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _to_json(table: Table) -> str:
    return _json_text(_json_payload(table))


_RENDERERS = dict(zip(FORMATS, (_to_markdown, _to_csv, _to_json)))


def render_table(table: Table, fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return _RENDERERS[fmt](table)


def emit_table(kind: str, fmt: str = "md", flat: bool = False) -> str:
    """Render one table kind; output is byte-identical across runs."""
    return render_table(build_table(kind, fmt, flat), fmt)


def emit_all_tables(fmt: str = "md", flat: bool = False) -> str:
    """Every table kind in fixed order, as one document."""
    if fmt == "json":
        return _json_text(
            [_json_payload(build_table(kind, fmt, flat)) for kind in TABLE_KINDS]
        )
    sections = []
    for kind in TABLE_KINDS:
        body = emit_table(kind, fmt, flat)
        if fmt == "md":
            sections.append(f"## {kind}\n\n{body}")
        else:
            sections.append(f"{kind}\r\n{body}")
    return "\n".join(sections)
