"""Command-line surface: enumerate, rank, classify, split, bounds, export,
tables and verify.

Every command computes the stratifications it needs in process (`stratify`
memoises them) and reads or writes no file; its output is a pure function
of its arguments and the embedded reference dataset.  Exit codes:
0 success, 1 verification mismatch, 2 usage error.

`enumerate`, `bounds`, `tables` and `split` in md, csv or json print table
kinds through `reporting.emit_table`, so `enumerate --n 4 --semiring nat`
and `tables --kind strata-4-nat` print the same bytes from the same code.
`classify` renders its orbit table with `reporting.render_table`.

Each command imports only the modules it runs: the symmetry groups, the
table code in `reporting` and the reference dataset are imported inside the
commands that need them, so a plain `rank` or `export` loads none of them.
The parser takes its format and table-kind choices from the package.  No
command loads numpy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import FORMATS, TABLE_KINDS
from .arrays import ArrayCode, Shape
from .stratify import Semiring, rank_of, stratify

_SEMIRINGS = [s.value for s in Semiring]


class UsageError(Exception):
    """Invalid flag combination or malformed command input."""


def _semiring(args: argparse.Namespace) -> Semiring:
    return Semiring(args.semiring)


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


def cmd_enumerate(args: argparse.Namespace) -> int:
    return _print_table(f"strata-{args.n}-{args.semiring}", args.format)


def cmd_rank(args: argparse.Namespace) -> int:
    semiring = _semiring(args)
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


def cmd_classify(args: argparse.Namespace) -> int:
    from .groups import classify
    from .reporting import orbit_records_table, render_table
    semiring = _semiring(args)
    _require_field_for_group(semiring)
    table = stratify(Shape(args.n), semiring)
    records = classify(table, args.group)
    name = f"orbits-{args.n}-{args.group}"
    print(
        render_table(orbit_records_table(records, name, args.flat), args.format),
        end="",
    )
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    if args.format != "text":
        return _print_table(f"split-{args.n}", args.format)
    from .groups import orbit_split
    from .reporting import split_rule
    for s in orbit_split(stratify(Shape(args.n), Semiring.GF2)):
        print(split_rule(s))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    return _print_table("lower-bounds", args.format)


def cmd_export(args: argparse.Namespace) -> int:
    """One stratification as JSON, every stratum on a line of its own."""
    import json
    table = stratify(Shape(args.n), _semiring(args))
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


def cmd_tables(args: argparse.Namespace) -> int:
    if args.kind != "all":
        return _print_table(args.kind, args.format, args.flat)
    from .reporting import emit_all_tables
    print(emit_all_tables(args.format, args.flat), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .reporting import verify_all
    report = verify_all(args.scope)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitcube",
        description="Rank and symmetry classification of 0-1 arrays of shape "
        "2x2x2 and 2x2x2x2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="rank distribution of one shape/semiring")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--semiring", choices=_SEMIRINGS, required=True)
    p.add_argument("--format", choices=FORMATS, default="md")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("rank", help="rank of one array given as a 0/1 string")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--semiring", choices=_SEMIRINGS, required=True)
    p.add_argument("--group", choices=("small", "large"))
    p.add_argument(
        "array",
        nargs="+",
        help="2**n characters '0'/'1' in linearization order; spaces allowed",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="orbit classification over the field")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--group", choices=("small", "large"), required=True)
    p.add_argument("--semiring", choices=_SEMIRINGS, default="gf2")
    p.add_argument("--flat", action="store_true", help="flattened canonical forms")
    p.add_argument("--format", choices=FORMATS, default="md")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("split", help="large-to-small orbit splitting report")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--format", choices=("text",) + FORMATS, default="text")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("bounds", help="orbit-count lower bounds for n = 3..6")
    p.add_argument("--format", choices=FORMATS, default="md")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "export", help="dump one stratification as structured text"
    )
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--semiring", choices=_SEMIRINGS, required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("tables", help="emit reference tables")
    p.add_argument("--kind", choices=TABLE_KINDS + ("all",), default="all")
    p.add_argument("--flat", action="store_true", help="flattened forms everywhere")
    p.add_argument("--format", choices=FORMATS, default="md")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="check every computed value against the dataset")
    p.add_argument("--scope", choices=("3", "4", "all"), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
