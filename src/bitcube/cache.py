"""Versioned binary serialisation of rank tables.

The benchmark's fixture, outside the public API: no command reads or writes
these files; each computes its tables in process.  Layout, all little-endian:

    magic            6 bytes  b"BCRKTB"
    format version   u16
    dimension n      u8
    semiring tag     u8       0 = gf2, 1 = bool, 2 = nat
    max rank         u8
    padding          3 zero bytes
    per rank 0..max: the level, 2**(2**n) / 8 bytes, bit c set iff code c
                     has that rank (the same bitset that RankTable holds)
    checksum         u32 crc32 of every preceding byte

The fixed byte order makes cache files portable; the checksum makes
corruption detectable.  Files are written to a temporary name and renamed
into place, so a failed write never leaves a partial file behind.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

from .arrays import Shape, rank_one_codes
from .ranks import RankTable, Semiring

FORMAT_VERSION = 2

_MAGIC = b"BCRKTB"
_HEADER = struct.Struct("<6sHBBB3x")
_U32 = struct.Struct("<I")
_TAG_OF = {Semiring.GF2: 0, Semiring.BOOLEAN: 1, Semiring.NONNEG: 2}
_SEMIRING_OF = {tag: s for s, tag in _TAG_OF.items()}


class CacheError(Exception):
    """The cache file is corrupted or written in an incompatible layout."""


def dump_table(table: RankTable, path: Path) -> None:
    """Write a rank table to its binary cache layout, atomically."""
    size = table.shape.code_count // 8
    body = _HEADER.pack(
        _MAGIC, FORMAT_VERSION, table.shape.n, _TAG_OF[table.semiring], table.r_max
    ) + b"".join(level.to_bytes(size, "little") for level in table.levels)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(body + _U32.pack(zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: Path) -> RankTable:
    """Read a rank table back; raises CacheError on any anomaly.

    The checks catch corruption: a bad checksum, header or length, levels
    that do not partition the code space, wrong levels 0 and 1.  They do not
    catch a consistent forgery, say two codes swapped between higher levels
    with the checksum recomputed; only recomputing the table would.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _U32.size:
        raise CacheError(f"{path}: truncated cache file")
    body, (crc,) = raw[:-4], _U32.unpack(raw[-4:])
    if zlib.crc32(body) != crc:
        raise CacheError(f"{path}: checksum mismatch")
    magic, version, n, tag, r_max = _HEADER.unpack_from(body)
    if magic != _MAGIC:
        raise CacheError(f"{path}: not a rank-table cache")
    if version != FORMAT_VERSION:
        raise CacheError(f"{path}: cache format v{version}, expected v{FORMAT_VERSION}")
    if n not in (3, 4) or tag not in _SEMIRING_OF:
        raise CacheError(f"{path}: invalid header fields n={n} tag={tag}")
    shape = Shape(n)
    size = shape.code_count // 8
    if len(body) != _HEADER.size + (r_max + 1) * size:
        raise CacheError(f"{path}: wrong length {len(body)} bytes for n={n} "
                         f"and {r_max + 1} levels")
    levels = (int.from_bytes(body[i:i + size], "little")
              for i in range(_HEADER.size, len(body), size))
    try:
        table = RankTable(shape, _SEMIRING_OF[tag], levels)
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from exc
    if table.levels[1] != sum(1 << y for y in rank_one_codes(shape)):
        raise CacheError(f"{path}: stratum 1 is not the set of rank-1 arrays")
    return table
