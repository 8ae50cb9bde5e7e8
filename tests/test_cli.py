import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bitcube.expected
from bitcube import ArrayCode, Shape
from bitcube.cli import _COMMANDS, _NAMES, _parse, build_parser, main

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
    sizes = bitcube.expected.STRATUM_SIZES
    monkeypatch.setitem(sizes, (4, "bool"),
                        sizes[(4, "bool")][:2] + (1805,) + sizes[(4, "bool")][3:])
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


def test_main_leaves_the_collector_alone(capsys):
    # entrypoint alone freezes the heap, on its way out of the process
    before = gc.isenabled(), gc.get_freeze_count()
    assert run_cli(capsys, "verify", "--scope", "3")[0] == 0
    assert run_cli(capsys, "rank", "--n", "3", "--semiring", "gf2", "0110")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# The strict parser answers a canonical argv without argparse and declines
# every other; argparse must give what it answers and reject nothing it takes.

PARSER = build_parser()
OPTIONS = {name: keywords for *_, arguments in _COMMANDS for name, keywords in arguments
           if name.startswith("-")}
CODES = ("0110", "1001", "01101011", "0110101110111101", "0 1", "")
VALUES = sorted({str(c) for keywords in OPTIONS.values() for c in keywords.get("choices", ())}
                | {"5", "x", " 4", "04", "4.0", "GF2", "-4", "-x", "-0110", "-", "--"})
TOKENS = sorted(
    {*_NAMES, "nosuch", "-h", "--help", *CODES, *VALUES}
    | {name[:k] for name in (*OPTIONS, *_NAMES) for k in range(1, len(name) + 1)}
    | {f"{name}={value}" for name in OPTIONS for value in ("4", "gf2", "md", "")})


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@st.composite
def near_canonical_argv(draw):
    """A command's options in any order, some left out, values valid or not,
    then codes, and then a few tokens inserted or deleted anywhere."""
    name, _, _, arguments = draw(st.sampled_from(_COMMANDS))
    argv = [name]
    for option, keywords in draw(st.permutations(arguments)):
        if not option.startswith("-") or not draw(st.integers(0, 7)):
            continue
        argv.append(option)
        if keywords.get("action") != "store_true":
            choices = [str(c) for c in keywords["choices"]]
            argv.append(draw(st.sampled_from(choices) if draw(st.integers(0, 7))
                             else st.sampled_from(VALUES)))
    argv += draw(st.lists(st.sampled_from(CODES), max_size=3))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


@settings(max_examples=600)
@given(st.one_of(near_canonical_argv(), st.lists(st.sampled_from(TOKENS), max_size=8)))
def test_strict_parser_answers_only_as_argparse_does(argv):
    # whenever the strict parser answers, argparse gives an equal namespace,
    # so whenever argparse exits, the strict parser declines
    strict = _parse(argv)
    if strict is not None:
        assert vars(strict) == _argparse_vars(argv)


@pytest.mark.parametrize("command", sorted(SAMPLE_ARGV))
def test_strict_parser_answers_canonical_argv(command):
    argv = [command, *SAMPLE_ARGV[command]]
    assert vars(_parse(argv)) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["enumerate", "-h"],
    ["nosuch"],
    ["enumerate", "--sem", "gf2", "--n", "4"],  # an abbreviation
    ["enumerate", "--n=4", "--semiring", "gf2"],
    ["enumerate", "--n", "4", "--n", "4", "--semiring", "gf2"],  # a repeated option
    ["classify", "--n", "3", "--group", "small", "--flat", "--flat"],
    ["bounds", "--", "--format", "md"],
    ["enumerate", "--n", "4", "--semiring"],  # a missing value
    ["enumerate", "--n", "-4", "--semiring", "gf2"],
    ["classify", "--n", "3", "--group", "--flat"],
    ["enumerate", "--n", "x", "--semiring", "gf2"],  # a failed type
    ["enumerate", "--n", "5", "--semiring", "gf2"],  # a failed choice
    ["enumerate", "--n", " 4", "--semiring", "gf2"],  # a value not spelt as a choice
    ["enumerate", "--n", "4"],  # a missing required option
    ["classify", "--n", "3", "--flat"],
    ["rank", "0110", "--n", "3", "--semiring", "gf2", "1001"],  # a positional first
    ["rank", "--n", "3", "0110", "--semiring", "gf2", "1001"],  # a positional between
    ["rank", "--n", "3", "--semiring", "gf2"],  # no positional
    ["rank", "--n", "3", "--semiring", "gf2", "-01101001"],  # a `-`-prefixed positional
    ["rank", "--n", "3", "--semiring", "gf2", "0110", "--group", "small", "1001"],
    ["bounds", "md"],  # a positional to a command that has none
    ["verify", "--scope", "all", "3"],
    # options out of the order --help lists them
    ["rank", "--semiring", "gf2", "--n", "4", "0110101110111101"],
    ["tables", "--format", "csv", "--kind", "all"],
    ["tables", "--kind", "table2", "--format", "md", "--flat"],
    ["classify", "--group", "large", "--n", "3"],
])
def test_strict_parser_declines_every_other_spelling(argv):
    assert _parse(argv) is None


def test_options_out_of_order_print_what_the_canonical_order_prints(capsys):
    # argparse answers the out-of-order spelling, the strict parser the other
    out_of_order = run_cli(capsys, "classify", "--format", "csv", "--group", "small",
                           "--n", "3")
    assert out_of_order == run_cli(capsys, "classify", "--n", "3", "--group", "small",
                                   "--format", "csv")
    assert out_of_order[0] == 0 and out_of_order[1]


def _run_subprocess(args, seed, home):
    env = dict(os.environ, PYTHONHASHSEED=seed, HOME=str(home))
    return subprocess.run(
        [sys.executable, "-m", "bitcube", *args],
        capture_output=True,
        env=env,
        timeout=600,
    )


def test_export_into_a_closed_pipe_exits_141_in_silence():
    # as `export --n 4 | head -c 10`: the reader goes long before the output,
    # many pipe buffers long, is written
    with subprocess.Popen(
        [sys.executable, "-m", "bitcube", "export", "--n", "4", "--semiring", "gf2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "forma'
        proc.stdout.close()
        assert proc.wait(timeout=600) == 141
        assert proc.stderr.read() == b""


def _assert_write_error(proc):
    # exit 74 (EX_IOERR) with one line on stderr, never a traceback or exit 1
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 74, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_verify_into_a_full_device_exits_74():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "bitcube", "verify"],
                              stdout=full, stderr=subprocess.PIPE, timeout=600)
    _assert_write_error(proc)
    assert b"No space left on device" in proc.stderr


def test_verify_with_stdout_closed_exits_74():
    # as `verify >&-`: the process starts with no file descriptor 1
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m bitcube verify >&-', sys.executable],
                          stderr=subprocess.PIPE, timeout=600)
    _assert_write_error(proc)


# entrypoint() as `python -m bitcube` runs it, with an atexit handler that
# reports last on stderr whether the heap was frozen: an os._exit would skip
# the handler, and an exit without gc.freeze() would report False
_FROZEN_AT_EXIT = """\
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
from bitcube.cli import entrypoint
entrypoint()
"""


def _run_entrypoint(args, unbuffered=False, **kwargs):
    """The finished entrypoint() process, its stderr without the handler's line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-c", _FROZEN_AT_EXIT, *args], env=env,
                          stderr=subprocess.PIPE, timeout=600, **kwargs)
    assert proc.stderr.endswith(b"frozen: True\n"), proc.stderr
    proc.stderr = proc.stderr.removesuffix(b"frozen: True\n")
    return proc


@pytest.mark.parametrize("args, code, out, err", [
    (["verify"], 0, b"0 mismatches", ""),
    (["--help"], 0, b"usage: bitcube [-h]", ""),
    (["rank", "--help"], 0, b"usage: bitcube rank", ""),
    ([], 2, b"", r"usage: bitcube .*\nbitcube: error: [^\n]*\n"),
    (["rank", "--n", "3", "--semiring", "gf2", "0110"], 2, b"", r"error: [^\n]*\n"),
], ids=["verify", "help", "rank-help", "no-argv", "malformed-array"])
def test_entrypoint_freezes_the_heap_on_every_way_out(args, code, out, err):
    proc = _run_entrypoint(args, stdout=subprocess.PIPE)
    assert proc.returncode == code
    assert out in proc.stdout and bool(out) == bool(proc.stdout)
    assert re.fullmatch(err, proc.stderr.decode(), re.S)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [["verify"], ["--help"]])
def test_entrypoint_into_a_full_device_exits_74(args, unbuffered):
    # argparse's own print_help would drop the failed write of --help
    with open("/dev/full", "wb") as full:
        _assert_write_error(_run_entrypoint(args, unbuffered, stdout=full))


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [["--help"], ["rank", "--help"], ["verify"]])
def test_entrypoint_into_a_closed_pipe_exits_141_in_silence(args, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_entrypoint(args, unbuffered, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_module_entry_point_tables_deterministic(tmp_path):
    args = ["tables", "--format", "md"]
    first = _run_subprocess(args, "1", tmp_path)
    second = _run_subprocess(args, "2", tmp_path)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert b"## table3" in first.stdout
    assert list(tmp_path.iterdir()) == []  # no file under $HOME
