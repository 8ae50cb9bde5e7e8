import os
import random
import subprocess
import sys

import pytest

import bitcube.expected
from bitcube import ArrayCode, Shape
from bitcube.cli import build_parser, main

from conftest import SAMPLE_SEED
from orbit_oracle import OrbitMinima, large_orbit_naive, small_orbit_naive


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_gf2_n3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--semiring", "gf2")
    assert code == 0
    counts = [int(l.split("|")[2]) for l in out.splitlines()[2:]]
    assert counts == [1, 27, 162, 66]


def test_enumerate_nat_n4(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--semiring", "nat")
    assert code == 0
    counts = [int(l.split("|")[2]) for l in out.splitlines()[2:]]
    assert counts[-3:] == [3908, 560, 26]


def test_rank_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "3", "--semiring", "gf2", "00000001"
    )
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_rank_accepts_spaced_digits(capsys):
    code, out, _ = run_cli(
        capsys,
        "rank", "--n", "4", "--semiring", "bool",
        "0110", "1001", "1001", "0110",
    )
    assert code == 0
    assert out.splitlines()[0] == "8"


def test_rank_with_group_prints_canonical(capsys):
    code, out, _ = run_cli(
        capsys,
        "rank", "--n", "4", "--semiring", "gf2", "--group", "large",
        "0110101110111101",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "6"
    assert lines[1] == "canonical: 0110101110111101"
    assert lines[2] == "orbit-size: 24"


@pytest.mark.parametrize("group", ["small", "large"])
def test_rank_with_group_matches_orbit_oracle(capsys, group):
    oracle = OrbitMinima(4)
    canonical_of, expand = {
        "small": (oracle.small, small_orbit_naive),
        "large": (oracle.large, large_orbit_naive),
    }[group]
    sizes = []
    for code in random.Random(SAMPLE_SEED + 5).sample(range(1 << 16), 3):
        a = ArrayCode(code, Shape(4))
        sizes.append(len(expand(a)))
        exit_code, out, _ = run_cli(
            capsys, "rank", "--n", "4", "--semiring", "gf2", "--group", group, a.text()
        )
        assert exit_code == 0
        assert out.splitlines()[1:] == [
            f"canonical: {ArrayCode(canonical_of(code), Shape(4)).text()}",
            f"orbit-size: {sizes[-1]}",
        ]
    assert max(sizes) == {"small": 1296, "large": 7776}[group]  # largest orbits


def test_rank_malformed_array_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "rank", "--n", "3", "--semiring", "gf2", "0101"
    )
    assert code == 2
    assert "error" in err


def test_group_with_boolean_semiring_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "rank", "--n", "3", "--semiring", "bool", "--group", "large",
        "00000001",
    )
    assert code == 2
    assert "canonical forms" in err


def test_classify_large_n4_has_30_rows(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--n", "4", "--group", "large"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("|")][2:]
    assert len(rows) == 30


def test_classify_small_n3_has_8_rows(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--n", "3", "--group", "small", "--flat"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("|")][2:]
    assert len(rows) == 8
    assert "00010010" in out


def test_classify_non_field_semiring_rejected(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--n", "3", "--group", "small", "--semiring", "nat"
    )
    assert code == 2
    assert "canonical forms" in err


def test_split_text_lines(capsys):
    code, out, _ = run_cli(capsys, "split", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 30
    for expected in ("3 → 6·54", "12 → 6·1296", "21 → 12·648", "26 → 6·108"):
        assert expected in lines
    assert lines[0] == "1 → 1·1"


def test_split_n3(capsys):
    code, out, _ = run_cli(capsys, "split", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "1 → 1·1",
        "2 → 1·27",
        "3 → 3·18",
        "4 → 1·108",
        "5 → 1·54",
        "6 → 1·12",
    ]


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds")
    assert code == 0
    assert "| 6 | 395377745064077 | 549135757034 |" in out


def test_export_round_trips_the_stratification(capsys):
    import json

    from bitcube import Semiring, Shape, stratify

    code, out, _ = run_cli(capsys, "export", "--n", "3", "--semiring", "gf2")
    assert code == 0
    payload = json.loads(out)
    table = stratify(Shape(3), Semiring.GF2)
    assert payload["format_version"] == 1
    assert payload["n"] == 3
    assert payload["semiring"] == "gf2"
    assert payload["max_rank"] == table.r_max
    assert [tuple(s) for s in payload["strata"]] == list(table.strata)


def test_tables_single_kind(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "--kind", "strata-3-gf2", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("rank,count,percent")


def test_verify_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "3")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_exits_one_on_a_dataset_it_fails(capsys, monkeypatch):
    # verify reads the embedded dataset when it runs
    data = bitcube.expected.DEFAULT
    sizes = dict(data.stratum_sizes)
    sizes[(4, "bool")] = sizes[(4, "bool")][:2] + (1805,) + sizes[(4, "bool")][3:]
    monkeypatch.setattr(bitcube.expected, "DEFAULT", data._replace(stratum_sizes=sizes))
    code, out, _ = run_cli(capsys, "verify", "--scope", "4")
    assert code == 1
    assert ("FAIL stratum sizes n=4 bool: first difference at row 2: "
            "computed 1804 != expected 1805") in out.splitlines()
    assert out.splitlines()[-1].endswith(", 1 mismatches")


SAMPLE_ARGV = {
    "enumerate": ["--n", "4", "--semiring", "nat", "--format", "csv"],
    "rank": ["--n", "3", "--semiring", "gf2", "--group", "small", "0110", "1001"],
    "classify": ["--n", "3", "--group", "large", "--flat", "--format", "json"],
    "split": ["--n", "4", "--format", "md"],
    "bounds": ["--format", "json"],
    "export": ["--n", "3", "--semiring", "bool"],
    "tables": ["--kind", "table5", "--flat"],
    "verify": ["--scope", "3"],
}


def _help_text(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(SAMPLE_ARGV))
def test_lone_subcommand_parser_matches_the_full_parser(capsys, command):
    full, lone = build_parser(), build_parser(command)
    argv = [command, *SAMPLE_ARGV[command]]
    assert lone.parse_args(argv) == full.parse_args(argv)
    assert _help_text(capsys, lone, [command, "--help"]) == _help_text(
        capsys, full, [command, "--help"])
    assert lone.format_usage() == full.format_usage()


def test_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    for command in SAMPLE_ARGV:
        assert f"'{command}'" in err


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "5", "--semiring", "gf2"])
    assert exc.value.code == 2


def _run_subprocess(args, seed, home):
    env = dict(os.environ, PYTHONHASHSEED=seed, HOME=str(home))
    return subprocess.run(
        [sys.executable, "-m", "bitcube", *args],
        capture_output=True,
        env=env,
        timeout=600,
    )


def test_module_entry_point_tables_deterministic(tmp_path):
    args = ["tables", "--format", "md"]
    first = _run_subprocess(args, "1", tmp_path)
    second = _run_subprocess(args, "2", tmp_path)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert b"## table3" in first.stdout
    assert list(tmp_path.iterdir()) == []  # no file under $HOME
