"""Table construction and emission.

Every table reaches text the same way: `build_table` assembles a table
kind (see TABLE_KINDS) as a `Table` and `render_table` renders it as
Markdown, CSV or JSON.  The commands `enumerate`, `split`, `bounds` and
`tables` print table kinds; `classify` builds its orbit table with
`orbit_records_table` and renders it likewise.  The strata kinds are the
rank distributions of `distribution_table`; unless flat, the other tables
show an n = 3 array in the one-line block display of `mat_compact`.

Table emission is deterministic: a given (kind, format) pair always yields
byte-identical text.  The verification harness that compares these values
with the reference dataset lives beside it, in `expected`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

from . import FORMATS, TABLE_KINDS
from .arrays import ArrayCode, Shape, UnsupportedShapeError
from .ranks import RankTable, Semiring, lower_bounds, partition_by_ones, stratify

# groups, csv and json are imported by the functions that use them, so that
# each command loads only what it runs.  The partitions and the lower bounds
# live in ranks, for verify, and are bound here for the tables.

Cell = Union[int, str]


# Decimal places of the percentage column, per dimension; these mirror the
# precision used in the reference tables (whole percentage points for n = 3,
# three decimals for n = 4).
PERCENT_DECIMALS = {3: 0, 4: 3}


def percent_text(count: int, total: int, decimals: int) -> str:
    """count/total as a percentage, rounded half-up; trailing zeros dropped."""
    scaled = (2 * count * 100 * 10**decimals + total) // (2 * total)
    if decimals == 0:
        return str(scaled)
    text = f"{scaled // 10**decimals}.{scaled % 10**decimals:0{decimals}d}"
    return text.rstrip("0").rstrip(".")


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

class Table(NamedTuple):
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]


def mat_compact(a: ArrayCode) -> str:
    """2 x 4 block display of a 3-dimensional array on one line.

    Row i is x_i11 x_i21 | x_i12 x_i22: the third subscript selects the left
    or right block (the two frontal slices).  The rows are joined by ' / '.
    """
    if a.shape.n != 3:
        raise UnsupportedShapeError(
            f"matrix display is defined for dimension 3 only, got {a.shape.n}"
        )
    return "[" + " / ".join(
        f"{a.bit((i, 1, 1))} {a.bit((i, 2, 1))} | {a.bit((i, 1, 2))} {a.bit((i, 2, 2))}"
        for i in (1, 2)
    ) + "]"


def _canon_cell(a: ArrayCode, flat: bool) -> str:
    if flat or a.shape.n != 3:
        return a.text()
    return mat_compact(a)


def _ratio(p: int, q: int) -> str:
    # p/q in lowest terms, as Fraction(p, q) holds it: "0/1" for none
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def distribution_table(table: RankTable, fmt: str = "md") -> Table:
    """Counts per stratum with percentages of the full code space; csv and
    json also give each percentage exactly."""
    total, decimals = table.shape.code_count, PERCENT_DECIMALS[table.shape.n]
    columns: tuple[str, ...] = ("rank", "count", "percent")
    rows = [(r, count, percent_text(count, total, decimals))
            for r, count in enumerate(table.stratum_sizes)]
    if fmt in ("csv", "json"):
        columns += ("percent_exact",)
        rows = [row + (_ratio(100 * row[1], total),) for row in rows]
    return Table(f"strata-{table.shape.n}-{table.semiring.value}", columns, tuple(rows))


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
        # the three small orbits inside the rank-2 large orbit of size 54
        from .groups import _rank2_small_split
        rows = tuple((_canon_cell(form, flat), size) for form, size in _rank2_small_split())
        return Table(kind, ("canonical", "size"), rows)
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
