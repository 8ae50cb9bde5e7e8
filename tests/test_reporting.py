import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bitcube import (
    ArrayCode,
    Shape,
    emit_all_tables,
    emit_table,
    lower_bounds,
    partition_by_ones,
    rank_of,
    verify_all,
)
from bitcube.expected import LARGE_ORBITS, PARTITIONS, STRATUM_SIZES
from bitcube.reporting import TABLE_KINDS, build_table, mat_compact, render_table


def test_lower_bounds_reference_values():
    assert lower_bounds(3) == (2, 1)
    assert lower_bounds(4) == (51, 3)
    assert lower_bounds(5) == (552337, 4603)
    assert lower_bounds(6) == (395377745064077, 549135757034)


def test_lower_bounds_match_ceiling_formula():
    for n in range(3, 7):
        total = 2 ** (2**n)
        small = math.ceil(Fraction(total, 6**n))
        large = math.ceil(Fraction(total, 6**n * math.factorial(n)))
        assert lower_bounds(n) == (small, large)


def test_lower_bounds_small_dominates_large():
    for n in range(3, 7):
        small, large = lower_bounds(n)
        assert small >= large


def test_lower_bounds_range_checked():
    for bad in (2, 7):
        with pytest.raises(ValueError):
            lower_bounds(bad)


def test_actual_orbit_counts_dominate_bounds(tables):
    from bitcube import classify

    assert len(classify(tables[(3, "gf2")], "small")) >= lower_bounds(3)[0]
    assert len(classify(tables[(3, "gf2")], "large")) >= lower_bounds(3)[1]
    assert len(classify(tables[(4, "gf2")], "small")) >= lower_bounds(4)[0]
    assert len(classify(tables[(4, "gf2")], "large")) >= lower_bounds(4)[1]


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_rows_match_reference(tables):
    for key in ((3, "bool"), (4, "bool"), (4, "nat")):
        rows = partition_by_ones(tables[key])
        computed = tuple(
            (r.rank, r.ones, r.count, r.representative.text()) for r in rows
        )
        assert computed == PARTITIONS[key]


def test_partition_row_invariants(tables):
    for key in ((3, "bool"), (4, "nat")):
        table = tables[key]
        rows = partition_by_ones(table)
        assert [(r.rank, r.ones) for r in rows] == sorted(
            (r.rank, r.ones) for r in rows
        )
        for row in rows:
            assert row.representative.ones() == row.ones
            assert rank_of(row.representative, table) == row.rank
            assert row.count >= 1
        per_rank = {}
        for row in rows:
            per_rank[row.rank] = per_rank.get(row.rank, 0) + row.count
        assert per_rank == {r: len(s) for r, s in enumerate(table.strata)}


def test_partition_representative_is_class_minimum(tables):
    # an independent count and minimum per (rank, ones) class: np.unique
    # over the keys rank * (2**n + 1) + ones of every code, in code order
    from conftest import popcount_array, rank_array

    for (n, tag), table in tables.items():
        ranks = rank_array(table)
        width = Shape(n).m + 1
        keys = ranks * width + popcount_array(Shape(n).code_count)
        classes, first, counts = np.unique(keys, return_index=True, return_counts=True)
        expected = [(int(k) // width, int(k) % width, int(c), int(f))
                    for k, c, f in zip(classes, counts, first)]
        rows = [(r.rank, r.ones, r.count, r.representative.code)
                for r in partition_by_ones(table)]
        assert rows == expected, (n, tag)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_strata_csv_counts_column():
    text = emit_table("strata-4-gf2", "csv")
    lines = text.strip().split("\r\n")
    assert lines[0] == "rank,count,percent,percent_exact"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [1, 81, 2268, 21744, 37530, 3888, 24]


def test_table1_markdown_has_six_rows():
    text = emit_table("table1", "md")
    rows = [l for l in text.splitlines() if l.startswith("|")][2:]
    assert len(rows) == 6
    assert "| 54 |" in rows[2]
    assert "| 108 |" in rows[3]


def test_lower_bounds_markdown_has_four_rows():
    text = emit_table("lower-bounds", "md")
    rows = [l for l in text.splitlines() if l.startswith("|")][2:]
    assert len(rows) == 4
    assert rows[-1] == "| 6 | 395377745064077 | 549135757034 |"


def test_mat_compact_and_flat_forms():
    a = ArrayCode.from_text("00010100", Shape(3))
    assert mat_compact(a) == "[0 0 | 0 1 / 0 0 | 1 0]"
    flat = emit_table("table1", "csv", flat=True)
    assert "00000110" in flat
    assert "/" not in flat


def test_json_format_is_structured():
    payload = json.loads(emit_table("table3", "json"))
    assert payload["name"] == "table3"
    assert payload["columns"] == ["orbit", "rank", "size", "canonical"]
    assert len(payload["rows"]) == 30
    assert payload["rows"][-1] == [30, 6, 24, "0110101110111101"]


def test_small_split_table():
    payload = json.loads(emit_table("small-split-3", "json"))
    assert payload["rows"] == [
        ["[0 0 | 0 0 / 0 1 | 1 0]", 18],
        ["[0 0 | 0 1 / 0 1 | 0 0]", 18],
        ["[0 0 | 0 1 / 0 0 | 1 0]", 18],
    ]


def test_every_kind_renders_in_every_format():
    for kind in TABLE_KINDS:
        for fmt in ("md", "csv", "json"):
            assert emit_table(kind, fmt)


def test_emission_is_deterministic():
    for fmt in ("md", "csv", "json"):
        assert emit_all_tables(fmt) == emit_all_tables(fmt)


def test_unknown_kind_and_format_rejected():
    with pytest.raises(ValueError, match="kind"):
        emit_table("table9")
    with pytest.raises(ValueError, match="format"):
        emit_table("table1", "xml")
    with pytest.raises(ValueError, match="kind"):
        build_table("strata-5-gf2")


def test_markdown_escapes_pipes():
    text = emit_table("table1", "md")
    body = [l for l in text.splitlines() if l.startswith("|")][2]
    # block separators inside a cell must not break the table layout
    assert "\\|" in body
    assert body.count(" | ") == 3


def test_render_table_rejects_bad_format():
    with pytest.raises(ValueError):
        render_table(build_table("table1"), "yaml")


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

def test_verify_scope_3():
    report = verify_all("3")
    assert report.passed
    names = [c.name for c in report.checks]
    assert "boolean and integer strata identical n=3" in names


def test_verify_scope_4():
    assert verify_all("4").passed


def test_verify_all_scopes():
    report = verify_all("all")
    assert report.passed
    assert len(report.mismatches) == 0
    assert report.lines()[-1].endswith("0 mismatches")


def test_verify_rejects_unknown_scope():
    with pytest.raises(ValueError):
        verify_all("5")


def test_tampered_dataset_yields_exactly_one_mismatch(monkeypatch):
    original = STRATUM_SIZES[(4, "bool")]
    monkeypatch.setitem(STRATUM_SIZES, (4, "bool"),
                        original[:2] + (original[2] + 1,) + original[3:])
    report = verify_all("all")
    assert not report.passed
    assert len(report.mismatches) == 1
    assert report.mismatches[0].name == "stratum sizes n=4 bool"
    assert "first difference at row 2" in report.mismatches[0].detail


def test_tampered_orbit_row_reported(monkeypatch):
    rows = list(LARGE_ORBITS[4])
    rows[7] = (rows[7][0], rows[7][1] + 1, rows[7][2], rows[7][3])
    monkeypatch.setitem(LARGE_ORBITS, 4, tuple(rows))
    report = verify_all("4")
    assert [c.name for c in report.mismatches] == ["large-group orbits n=4"]


def test_tampered_split_reported(monkeypatch):
    rows = list(LARGE_ORBITS[4])
    rank, size, form, ((count, part),) = rows[7]
    rows[7] = (rank, size, form, ((count + 1, part),))
    monkeypatch.setitem(LARGE_ORBITS, 4, tuple(rows))
    report = verify_all("4")
    assert [c.name for c in report.mismatches] == ["orbit splitting n=4"]
    assert "first difference at row 7" in report.mismatches[0].detail
