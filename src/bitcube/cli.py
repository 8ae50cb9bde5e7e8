"""Command-line surface: enumerate, rank, classify, split, bounds, export,
tables and verify.

Every command computes the stratifications it needs in process
(`ranks.stratify` memoises them) and reads or writes no file; its output is
a pure function of its arguments and the embedded reference dataset.  Exit
codes: 0 success, 1 verification mismatch, 2 usage error, 74 (EX_IOERR) when
stdout is closed or a write to it fails, 141 (128 + SIGPIPE, as a shell
reports it) when the reader closes the pipe, as `| head` does.

`enumerate`, `bounds`, `tables` and `split` in md, csv or json print table
kinds through `reporting.emit_table`, so `enumerate --n 4 --semiring nat`
and `tables --kind strata-4-nat` print the same bytes from the same code.
`classify` renders its orbit table with `reporting.render_table`.

Each command imports only the modules it runs.  Every command needs the codes
in `arrays` and the rank levels in `ranks`; the symmetry groups, the table
code in `reporting` and the reference dataset are imported inside the
commands that need them, so a plain `rank` or `export` loads none of them.
`main` parses a canonical argv itself, in one pass over the subcommand's
`_COMMANDS` arguments: the subcommand, then its options in the order `--help`
lists them, as `--name value` with the value spelt as one of its choices (or
a bare `--flat`), then the positionals.  Any other argv goes to argparse,
which `build_parser` alone imports, so help, every usage error and options
given out of order are argparse's own.  The format and table-kind choices
come from the package.  No command loads numpy.
"""

from __future__ import annotations

import errno
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from . import FORMATS, TABLE_KINDS
from .arrays import ArrayCode, Shape
from .ranks import Semiring, rank_of, stratify

if TYPE_CHECKING:
    import argparse
    Namespace = argparse.Namespace | SimpleNamespace

_SEMIRINGS = [s.value for s in Semiring]


class UsageError(Exception):
    """Invalid flag combination or malformed command input."""


def _require_field_for_group(semiring: Semiring) -> None:
    if semiring is not Semiring.GF2:
        raise UsageError(
            "--group requires --semiring gf2: canonical forms do not exist "
            "for the Boolean or integer cases"
        )


def _print_table(kind: str, fmt: str, flat: bool = False) -> int:
    from .reporting import emit_table
    print(emit_table(kind, fmt, flat), end="")
    return 0


def cmd_enumerate(args: Namespace) -> int:
    return _print_table(f"strata-{args.n}-{args.semiring}", args.format)


def cmd_rank(args: Namespace) -> int:
    semiring = Semiring(args.semiring)
    if args.group is not None:
        _require_field_for_group(semiring)
    shape = Shape(args.n)
    try:
        code = ArrayCode.from_text(" ".join(args.array), shape)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(rank_of(code, stratify(shape, semiring)))
    if args.group is not None:
        from .groups import canonical_form
        canonical, size = canonical_form(code, args.group)
        print(f"canonical: {canonical.text()}")
        print(f"orbit-size: {size}")
    return 0


def cmd_classify(args: Namespace) -> int:
    from .groups import classify
    from .reporting import orbit_records_table, render_table
    semiring = Semiring(args.semiring)
    _require_field_for_group(semiring)
    table = stratify(Shape(args.n), semiring)
    records = classify(table, args.group)
    name = f"orbits-{args.n}-{args.group}"
    print(
        render_table(orbit_records_table(records, name, args.flat), args.format),
        end="",
    )
    return 0


def cmd_split(args: Namespace) -> int:
    if args.format != "text":
        return _print_table(f"split-{args.n}", args.format)
    from .groups import orbit_split
    from .reporting import split_rule
    for s in orbit_split(stratify(Shape(args.n), Semiring.GF2)):
        print(split_rule(s))
    return 0


def cmd_bounds(args: Namespace) -> int:
    return _print_table("lower-bounds", args.format)


def cmd_export(args: Namespace) -> int:
    """One stratification as JSON, every stratum on a line of its own."""
    import json
    table = stratify(Shape(args.n), Semiring(args.semiring))
    strata_lines = ",\n".join(
        "    " + json.dumps(list(stratum)) for stratum in table.strata
    )
    print(
        "{\n"
        '  "format_version": 1,\n'
        f'  "n": {table.shape.n},\n'
        f'  "semiring": {json.dumps(table.semiring.value)},\n'
        f'  "max_rank": {table.r_max},\n'
        '  "strata": [\n' + strata_lines + "\n  ]\n}"
    )
    return 0


def cmd_tables(args: Namespace) -> int:
    if args.kind != "all":
        return _print_table(args.kind, args.format, args.flat)
    from .reporting import emit_all_tables
    print(emit_all_tables(args.format, args.flat), end="")
    return 0


def cmd_verify(args: Namespace) -> int:
    from .expected import verify_all
    report = verify_all(args.scope)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


_N = ("--n", {"type": int, "choices": (3, 4), "required": True})
_SEMIRING = ("--semiring", {"choices": _SEMIRINGS, "required": True})
_FORMAT = ("--format", {"choices": FORMATS, "default": "md"})

# Every subcommand, in the order of the help listing: name, help, function
# and the (name, keywords) of each argument.
_COMMANDS = (
    ("enumerate", "rank distribution of one shape/semiring", cmd_enumerate,
     (_N, _SEMIRING, _FORMAT)),
    ("rank", "rank of one array given as a 0/1 string", cmd_rank,
     (_N, _SEMIRING, ("--group", {"choices": ("small", "large")}),
      ("array", {"nargs": "+", "help": "2**n characters '0'/'1' in "
                 "linearization order; spaces allowed"}))),
    ("classify", "orbit classification over the field", cmd_classify,
     (_N, ("--group", {"choices": ("small", "large"), "required": True}),
      ("--semiring", {"choices": _SEMIRINGS, "default": "gf2"}),
      ("--flat", {"action": "store_true", "help": "flattened canonical forms"}),
      _FORMAT)),
    ("split", "large-to-small orbit splitting report", cmd_split,
     (_N, ("--format", {"choices": ("text",) + FORMATS, "default": "text"}))),
    ("bounds", "orbit-count lower bounds for n = 3..6", cmd_bounds, (_FORMAT,)),
    ("export", "dump one stratification as structured text", cmd_export,
     (_N, _SEMIRING)),
    ("tables", "emit reference tables", cmd_tables,
     (("--kind", {"choices": TABLE_KINDS + ("all",), "default": "all"}),
      ("--flat", {"action": "store_true", "help": "flattened forms everywhere"}),
      _FORMAT)),
    ("verify", "check every computed value against the dataset", cmd_verify,
     (("--scope", {"choices": ("3", "4", "all"), "default": "all"}),)),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    """Argparse's parser of every subcommand, for each argv `_parse` declines."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="bitcube",
        description="Rank and symmetry classification of 0-1 arrays of shape "
        "2x2x2 and 2x2x2x2",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a canonical argv, or None for argparse."""
    if not argv or argv[0] not in _NAMES:
        return None
    _, _, func, arguments = _COMMANDS[_NAMES.index(argv[0])]
    namespace, i = SimpleNamespace(command=argv[0], func=func), 1
    for name, keywords in arguments:
        here = i < len(argv) and argv[i] == name
        if name[0] != "-":  # the one positional, nargs="+", comes last
            if i == len(argv) or any(word.startswith("-") for word in argv[i:]):
                return None
            value, i = argv[i:], len(argv)
        elif keywords.get("action") == "store_true":
            value, i = here, i + here
        elif here and i + 1 < len(argv) and argv[i + 1] in map(str, keywords["choices"]):
            value, i = keywords.get("type", str)(argv[i + 1]), i + 2
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        setattr(namespace, name.lstrip("-"), value)
    return namespace if i == len(argv) else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        if sys.stdout is None:  # started with stdout closed, as `>&-` does
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as `| head` does: exit as a shell reports
        # a SIGPIPE death, with stdout on devnull so that the last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except OSError as exc:  # a failed write, as to `> /dev/full`, or no stdout
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = 74
    sys.exit(code)
