"""Golden digests of the command line's output.

Every command below runs in process through `cli.main`; the sha256 of its
exit code, stdout and stderr must equal the digest stored for it in
`cli_golden.json`.  The commands cover every format and --flat variant of
enumerate, export, classify, split, bounds and each tables --kind, verify
in all three scopes, 15 rank queries and bitcube's own usage errors.
--help and argparse's error text are left out: their wording varies
between Python versions.

The digests were generated at commit 686b34c, before the table emission
paths were merged into `build_table`; they pin the output every table had
then.  Regenerate them only in a change that alters the output on purpose,
and say so in that change:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from bitcube.cli import main
from bitcube import TABLE_KINDS

DIGESTS = Path(__file__).with_name("cli_golden.json")

FORMATS = ("md", "csv", "json")
FLAGS = ((), ("--flat",))

RANK_QUERIES = (
    ("--n", "3", "--semiring", "gf2", "00000000"),
    ("--n", "3", "--semiring", "gf2", "00000001"),
    ("--n", "3", "--semiring", "bool", "01101001"),
    ("--n", "3", "--semiring", "nat", "11111111"),
    ("--n", "3", "--semiring", "gf2", "--group", "small", "01101001"),
    ("--n", "3", "--semiring", "gf2", "--group", "large", "00010110"),
    ("--n", "4", "--semiring", "gf2", "0110101110111101"),
    ("--n", "4", "--semiring", "bool", "0110", "1001", "1001", "0110"),
    ("--n", "4", "--semiring", "nat", "0110100110010110"),
    ("--n", "4", "--semiring", "nat", "1111111111111111"),
    ("--n", "4", "--semiring", "gf2", "--group", "small", "0110101110111101"),
    ("--n", "4", "--semiring", "gf2", "--group", "large", "0110101110111101"),
    ("--n", "4", "--semiring", "gf2", "--group", "large", "0000000000000001"),
    ("--n", "4", "--semiring", "gf2", "--group", "small", "1000010000100001"),
    ("--n", "4", "--semiring", "bool", "0001011101111111"),
)

# Errors raised by bitcube itself (exit 2, message on stderr), not argparse.
USAGE_ERRORS = (
    ("rank", "--n", "3", "--semiring", "bool", "--group", "small", "01101001"),
    ("rank", "--n", "4", "--semiring", "nat", "--group", "large", "0110101110111101"),
    ("rank", "--n", "3", "--semiring", "gf2", "0110"),
    ("rank", "--n", "3", "--semiring", "gf2", "0110100x"),
    ("classify", "--n", "3", "--group", "small", "--semiring", "bool"),
    ("classify", "--n", "4", "--group", "large", "--semiring", "nat"),
)


def commands():
    cmds = []
    for n in ("3", "4"):
        for s in ("gf2", "bool", "nat"):
            cmds += [("enumerate", "--n", n, "--semiring", s, "--format", f)
                     for f in FORMATS]
            cmds.append(("export", "--n", n, "--semiring", s))
        for g in ("small", "large"):
            cmds += [("classify", "--n", n, "--group", g, "--format", f) + flag
                     for f in FORMATS for flag in FLAGS]
        cmds += [("split", "--n", n, "--format", f) for f in ("text",) + FORMATS]
    cmds += [("bounds", "--format", f) for f in FORMATS]
    cmds += [("tables", "--kind", k, "--format", f) + flag
             for k in TABLE_KINDS + ("all",) for f in FORMATS for flag in FLAGS]
    cmds += [("verify", "--scope", scope) for scope in ("3", "4", "all")]
    cmds += [("rank",) + q for q in RANK_QUERIES]
    return cmds + list(USAGE_ERRORS)


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = "\0".join((str(code), out.getvalue(), err.getvalue()))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    argvs = commands()
    cmds = [" ".join(argv) for argv in argvs]
    assert len(set(cmds)) == len(cmds) == len(expected)
    failing = [
        cmd for cmd, argv in zip(cmds, argvs) if expected.get(cmd) != digest(argv)
    ]
    assert not failing, "output changed for:\n" + "\n".join(failing)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    DIGESTS.write_text(json.dumps(
        {" ".join(argv): digest(argv) for argv in commands()}, indent=1
    ) + "\n")
