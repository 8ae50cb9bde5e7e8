import struct
import zlib

import pytest

from bitcube.cache import FORMAT_VERSION, CacheError, dump_table, load_table


def write_levels(path, n, tag, levels, size=None):
    """A well-formed cache file (valid header and checksum) for any levels,
    each written in `size` bytes (by default the size n asks for)."""
    size = size or (1 << (1 << n)) // 8
    body = struct.pack("<6sHBBB3x", b"BCRKTB", FORMAT_VERSION, n, tag, len(levels) - 1)
    body += b"".join(level.to_bytes(size, "little") for level in levels)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def gf2_n3_levels(tables):
    return list(tables[(3, "gf2")].levels)


def lowest(level):
    return level & -level


def test_round_trip_every_table(tables, tmp_path):
    for (n, tag), table in tables.items():
        path = tmp_path / f"strata-n{n}-{tag}.bin"
        dump_table(table, path)
        assert load_table(path) == table


def test_header_carries_version_and_key(tables, tmp_path):
    path = tmp_path / "t.bin"
    dump_table(tables[(4, "bool")], path)
    header = struct.unpack_from("<6sHBBB3x", path.read_bytes())
    assert header == (b"BCRKTB", FORMAT_VERSION, 4, 1, tables[(4, "bool")].r_max)


def test_checksum_detects_corruption(tables, tmp_path):
    table = tables[(3, "gf2")]
    path = tmp_path / "t.bin"
    dump_table(table, path)
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="checksum"):
        load_table(path)


def test_truncated_file_rejected(tables, tmp_path):
    table = tables[(3, "bool")]
    path = tmp_path / "t.bin"
    dump_table(table, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(CacheError):
        load_table(path)


def test_wrong_magic_rejected(tables, tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"NOTACACHEFILE" + bytes(64))
    with pytest.raises(CacheError):
        load_table(path)


def test_version_mismatch_rejected(tables, tmp_path):
    import struct
    import zlib

    table = tables[(3, "gf2")]
    path = tmp_path / "t.bin"
    dump_table(table, path)
    raw = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<H", raw, 6, FORMAT_VERSION + 1)
    body = bytes(raw)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CacheError, match="format"):
        load_table(path)


def test_version_one_file_rejected(tables, tmp_path):
    path = tmp_path / "t.bin"
    dump_table(tables[(3, "gf2")], path)
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<H", body, 6, 1)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CacheError, match="cache format v1, expected v2$"):
        load_table(path)


def test_wrong_length_rejected(tables, tmp_path):
    # n = 3 levels padded to 33 bytes each
    path = tmp_path / "t.bin"
    write_levels(path, 3, 0, gf2_n3_levels(tables), size=33)
    with pytest.raises(CacheError, match="wrong length"):
        load_table(path)


def test_code_in_two_strata_rejected(tables, tmp_path):
    # the total count still matches the code space
    levels = gf2_n3_levels(tables)
    levels[3] ^= lowest(levels[3]) | lowest(levels[2])
    path = tmp_path / "t.bin"
    write_levels(path, 3, 0, levels)
    with pytest.raises(CacheError, match="partition"):
        load_table(path)


def test_wrong_stratum_zero_rejected(tables, tmp_path):
    levels = gf2_n3_levels(tables)
    moved = lowest(levels[3])
    levels[0], levels[3] = moved, levels[3] ^ moved | 1
    path = tmp_path / "t.bin"
    write_levels(path, 3, 0, levels)
    with pytest.raises(CacheError, match="stratum 0"):
        load_table(path)


def test_wrong_stratum_one_rejected(tables, tmp_path):
    levels = gf2_n3_levels(tables)
    swapped = lowest(levels[1]) | lowest(levels[2])
    levels[1] ^= swapped
    levels[2] ^= swapped
    path = tmp_path / "t.bin"
    write_levels(path, 3, 0, levels)
    with pytest.raises(CacheError, match="stratum 1"):
        load_table(path)


def test_failed_write_leaves_no_partial_file(tables, tmp_path, monkeypatch):
    import bitcube.cache

    def fail(src, dst):
        raise OSError("disk full")

    old = tmp_path / "strata-n3-gf2.bin"
    dump_table(tables[(3, "gf2")], old)
    monkeypatch.setattr(bitcube.cache.os, "replace", fail)
    new = tmp_path / "strata-n4-gf2.bin"
    for path in (old, new):
        with pytest.raises(OSError, match="disk full"):
            dump_table(tables[(4, "gf2")], path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [old.name]
    assert load_table(old) == tables[(3, "gf2")]
