"""Command-line surface: enumerate, rank, classify, split, bounds, export,
tables and verify.

Stratifications are cached on disk (see cache.py for the layout); every
command's output is a pure function of its arguments and the embedded
reference dataset.  Exit codes: 0 success, 1 verification mismatch,
2 usage error.

Each command imports only the modules it runs: the cache, the symmetry
groups, the reference dataset and numpy are imported inside the commands
that need them, so `bounds`, `--help` and usage errors load no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .arrays import ArrayCode, Shape
from .reporting import (
    TABLE_KINDS,
    bounds_table,
    distribution_table,
    emit_all_tables,
    emit_table,
    orbit_records_table,
    render_table,
    split_rule,
    split_table,
    verify_all,
)
from .stratify import RankTable, Semiring, rank_of, stratify

ENV_CACHE_DIR = "BITCUBE_CACHE_DIR"
DEFAULT_CACHE_DIR = "~/.cache/bitcube"


class UsageError(Exception):
    """Invalid flag combination or malformed command input."""


@dataclass(frozen=True)
class CliConfig:
    """Resolved cache options shared by the table-consuming commands."""

    cache_dir: Path
    force_recompute: bool = False
    no_cache: bool = False


def resolve_cache_dir(flag_value: Optional[str]) -> Path:
    """Explicit flag wins, then the environment variable, then the default."""
    if flag_value:
        return Path(flag_value).expanduser()
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path(DEFAULT_CACHE_DIR).expanduser()


def _config(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        cache_dir=resolve_cache_dir(getattr(args, "cache_dir", None)),
        force_recompute=getattr(args, "force_recompute", False),
        no_cache=getattr(args, "no_cache", False),
    )


def load_or_compute(n: int, semiring: Semiring, cfg: CliConfig) -> RankTable:
    """Serve the stratification from cache when possible, else compute it.

    A corrupted cache file, or one holding another (n, semiring) than the
    one asked for, is reported on stderr and recomputed; the fresh result
    replaces the bad file.  So is a cache entry that cannot be read at all.
    """
    from .cache import CacheError, cache_filename, dump_table, load_table
    shape = Shape(n)
    if cfg.no_cache:
        return stratify(shape, semiring)
    path = cfg.cache_dir / cache_filename(n, semiring)
    if path.exists() and not cfg.force_recompute:
        try:
            table = load_table(path)
            if (table.shape.n, table.semiring) == (n, semiring):
                return table
            raise CacheError(
                f"{path}: holds n={table.shape.n} {table.semiring.value}, "
                f"expected n={n} {semiring.value}"
            )
        except (CacheError, OSError) as exc:
            print(f"warning: {exc}; recomputing", file=sys.stderr)
    table = stratify(shape, semiring)
    try:
        dump_table(table, path)
    except OSError as exc:
        print(f"warning: cannot write cache {path}: {exc}", file=sys.stderr)
    return table


def _semiring(args: argparse.Namespace) -> Semiring:
    return Semiring(args.semiring)


def _require_field_for_group(semiring: Semiring) -> None:
    if semiring is not Semiring.GF2:
        raise UsageError(
            "--group requires --semiring gf2: canonical forms do not exist "
            "for the Boolean or integer cases"
        )


def cmd_enumerate(args: argparse.Namespace) -> int:
    table = load_or_compute(args.n, _semiring(args), _config(args))
    print(render_table(distribution_table(table, args.format), args.format), end="")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    semiring = _semiring(args)
    if args.group is not None:
        _require_field_for_group(semiring)
    shape = Shape(args.n)
    try:
        code = ArrayCode.from_text(" ".join(args.array), shape)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    table = load_or_compute(args.n, semiring, _config(args))
    print(rank_of(code, table))
    if args.group is not None:
        from .groups import orbit_labels
        labels = orbit_labels(shape, args.group)
        label = labels[code.code]
        print(f"canonical: {ArrayCode(int(label), shape).text()}")
        print(f"orbit-size: {(labels == label).sum()}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from .groups import classify
    semiring = _semiring(args)
    _require_field_for_group(semiring)
    table = load_or_compute(args.n, semiring, _config(args))
    records = classify(table, args.group)
    name = f"orbits-{args.n}-{args.group}"
    print(
        render_table(orbit_records_table(records, name, args.flat), args.format),
        end="",
    )
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    from .groups import orbit_split
    table = load_or_compute(args.n, Semiring.GF2, _config(args))
    splits = orbit_split(table)
    if args.format == "text":
        for s in splits:
            print(split_rule(s))
    else:
        print(render_table(split_table(splits, args.n), args.format), end="")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    print(render_table(bounds_table(), args.format), end="")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Structured-text dump of one stratification (the cache file content)."""
    import json
    from .cache import FORMAT_VERSION
    table = load_or_compute(args.n, _semiring(args), _config(args))
    strata_lines = ",\n".join(
        "    " + json.dumps(list(stratum)) for stratum in table.strata
    )
    print(
        "{\n"
        f'  "format_version": {FORMAT_VERSION},\n'
        f'  "n": {table.shape.n},\n'
        f'  "semiring": {json.dumps(table.semiring.value)},\n'
        f'  "max_rank": {table.r_max},\n'
        '  "strata": [\n' + strata_lines + "\n  ]\n}"
    )
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if not cfg.no_cache:
        # persist the stratifications so other commands are served from disk
        for n in (3, 4):
            for semiring in Semiring:
                load_or_compute(n, semiring, cfg)
    if args.kind == "all":
        print(emit_all_tables(args.format, args.flat), end="")
    else:
        print(emit_table(args.kind, args.format, args.flat), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_all(args.scope)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=f"stratification cache directory (default ${ENV_CACHE_DIR} "
        f"or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--force-recompute",
        action="store_true",
        help="ignore existing cache files and rewrite them",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )


def _add_format_option(parser: argparse.ArgumentParser, choices, default) -> None:
    parser.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitcube",
        description="Rank and symmetry classification of 0-1 arrays of shape "
        "2x2x2 and 2x2x2x2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="rank distribution of one shape/semiring")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--semiring", choices=("gf2", "bool", "nat"), required=True)
    _add_format_option(p, ("md", "csv", "json"), "md")
    _add_cache_options(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("rank", help="rank of one array given as a 0/1 string")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--semiring", choices=("gf2", "bool", "nat"), required=True)
    p.add_argument("--group", choices=("small", "large"))
    p.add_argument(
        "array",
        nargs="+",
        help="2**n characters '0'/'1' in linearization order; spaces allowed",
    )
    _add_cache_options(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="orbit classification over the field")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--group", choices=("small", "large"), required=True)
    p.add_argument("--semiring", choices=("gf2", "bool", "nat"), default="gf2")
    p.add_argument("--flat", action="store_true", help="flattened canonical forms")
    _add_format_option(p, ("md", "csv", "json"), "md")
    _add_cache_options(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("split", help="large-to-small orbit splitting report")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    _add_format_option(p, ("text", "md", "csv", "json"), "text")
    _add_cache_options(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("bounds", help="orbit-count lower bounds for n = 3..6")
    _add_format_option(p, ("md", "csv", "json"), "md")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "export", help="dump one stratification (cache content) as structured text"
    )
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--semiring", choices=("gf2", "bool", "nat"), required=True)
    _add_cache_options(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("tables", help="emit reference tables")
    p.add_argument("--kind", choices=TABLE_KINDS + ("all",), default="all")
    p.add_argument("--flat", action="store_true", help="flattened forms everywhere")
    _add_format_option(p, ("md", "csv", "json"), "md")
    _add_cache_options(p)
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
