"""Versioned binary serialisation of rank tables.

A library serialiser only: no command reads or writes these files, since
every command computes its tables in process.  Layout, all little-endian:

    magic            6 bytes  b"BCRKTB"
    format version   u16
    dimension n      u8
    semiring tag     u8       0 = gf2, 1 = bool, 2 = nat
    max rank         u8
    padding          3 zero bytes
    per rank 0..max: u32 count, then count u32 codes sorted ascending
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

import numpy as np

from .arrays import Shape, rank_one_codes
from .ranks import RankTable, Semiring

FORMAT_VERSION = 1

_MAGIC = b"BCRKTB"
_HEADER = struct.Struct("<6sHBBB3x")
_U32 = struct.Struct("<I")
_TAG_OF = {Semiring.GF2: 0, Semiring.BOOLEAN: 1, Semiring.NONNEG: 2}
_SEMIRING_OF = {tag: s for s, tag in _TAG_OF.items()}


class CacheError(Exception):
    """The cache file is corrupted or written in an incompatible layout."""


def dump_table(table: RankTable, path: Path) -> None:
    """Write a rank table to its binary cache layout, atomically."""
    parts = [
        _HEADER.pack(
            _MAGIC,
            FORMAT_VERSION,
            table.shape.n,
            _TAG_OF[table.semiring],
            table.r_max,
        )
    ]
    for stratum in table.strata:
        parts.append(_U32.pack(len(stratum)))
        parts.append(np.array(stratum, dtype="<u4").tobytes())
    body = b"".join(parts)
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

    The checks catch corruption: a bad checksum, header or length, codes out
    of range or not partitioning the code space, wrong strata 0 and 1.  They
    do not catch a consistent forgery, say two codes swapped between higher
    strata with the checksum recomputed; only recomputing the table would.
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
    offset = _HEADER.size
    strata = []
    for _ in range(r_max + 1):
        if offset + 4 > len(body):
            raise CacheError(f"{path}: truncated stratum header")
        (count,) = _U32.unpack_from(body, offset)
        offset += 4
        end = offset + 4 * count
        if end > len(body):
            raise CacheError(f"{path}: truncated stratum data")
        codes = np.frombuffer(body, dtype="<u4", count=count, offset=offset)
        offset = end
        if count == 0 or (count > 1 and not (codes[1:] > codes[:-1]).all()):
            raise CacheError(f"{path}: stratum not a sorted nonempty set")
        if codes[-1] >= shape.code_count:
            raise CacheError(f"{path}: code {codes[-1]} out of range for n={n}")
        strata.append(codes)
    if offset != len(body):
        raise CacheError(f"{path}: trailing bytes after last stratum")
    if strata[0].tolist() != [0]:
        raise CacheError(f"{path}: stratum 0 is not the zero array alone")
    if r_max < 1 or tuple(strata[1].tolist()) != rank_one_codes(shape):
        raise CacheError(f"{path}: stratum 1 is not the set of rank-1 arrays")
    codes = np.concatenate(strata)
    if not (np.bincount(codes, minlength=shape.code_count) == 1).all():
        raise CacheError(f"{path}: strata do not partition the code space")
    levels = []
    for stratum in strata:
        members = np.zeros(shape.code_count, dtype=bool)
        members[stratum] = True
        bits = np.packbits(members, bitorder="little").tobytes()
        levels.append(int.from_bytes(bits, "little"))
    return RankTable(shape, _SEMIRING_OF[tag], tuple(levels))
