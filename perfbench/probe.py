"""One per-layer measurement, taken cold in a fresh process.

    python3 perfbench/probe.py <probe> [arguments...]

perfbench/run.py starts this script with PYTHONPATH pointing at the source
tree.  Each probe times calls into bitcube's public functions from outside
the program and prints one JSON line: the timings, and the results the
timed calls returned, which run.py checks like any command output.  Only
this process wraps numpy.unique to count calls; the CLI runs untouched.

Probes:
    stratify N SEMIRING      stratify() of one (n, semiring)
    rank_of CODE,CODE,...    first rank_of() at n = 4, then one call per code
    classify N GROUP         classify() after stratify()
    orbit_split              orbit_split() at n = 4 after stratify()
    orbits CODE,CODE,...     small_orbit() and large_orbit() at n = 4
    cache DIR                dump_table() then load_table() of n = 4 gf2
    partition SEMIRING       partition_by_ones() at n = 4 after stratify()
    emit FORMAT              emit_all_tables() once warm, once timed
    verify traced|plain      verify_all("all"), with or without the counter
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bitcube import (
    ArrayCode,
    Semiring,
    Shape,
    classify,
    emit_all_tables,
    large_orbit,
    orbit_split,
    partition_by_ones,
    rank_of,
    small_orbit,
    stratify,
    verify_all,
)


class UniqueCounter:
    """Stand-in for numpy.unique that counts its calls."""

    def __init__(self):
        self.calls = 0
        self._unique = np.unique

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._unique(*args, **kwargs)


def _count_unique() -> UniqueCounter:
    counter = UniqueCounter()
    np.unique = counter
    return counter


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _codes(arg: str) -> list[int]:
    return [int(c) for c in arg.split(",")]


def _table(n: int, tag: str):
    return stratify(Shape(n), Semiring(tag))


def probe_stratify(n: str, tag: str) -> dict:
    counter = _count_unique()
    start = time.perf_counter()
    table = _table(int(n), tag)
    out = {"ms": _ms(start), "unique_calls": counter.calls,
           "sizes": list(table.stratum_sizes)}
    if int(n) == 3:
        out["strata"] = [list(s) for s in table.strata]
    return out


def probe_rank_of(codes: str) -> dict:
    table = _table(4, "gf2")
    arrays = [ArrayCode(c, Shape(4)) for c in _codes(codes)]
    start = time.perf_counter()
    ranks = [rank_of(arrays[0], table)]
    first_ms = _ms(start)
    times = []
    for a in arrays[1:]:
        start = time.perf_counter()
        ranks.append(rank_of(a, table))
        times.append(time.perf_counter() - start)
    return {"first_ms": first_ms, "us": statistics.median(times) * 1e6,
            "ranks": ranks}


def probe_classify(n: str, group: str) -> dict:
    table = _table(int(n), "gf2")
    counter = _count_unique()
    start = time.perf_counter()
    records = classify(table, group)
    ms = _ms(start)
    return {"ms": ms, "unique_calls": counter.calls,
            "rows": [[r.rank, r.size, r.ones, r.canonical.code] for r in records]}


def probe_orbit_split() -> dict:
    table = _table(4, "gf2")
    start = time.perf_counter()
    splits = orbit_split(table)
    ms = _ms(start)
    return {"ms": ms, "rows": [[s.rank, s.size, [list(p) for p in s.parts]]
                               for s in splits]}


def probe_orbits(codes: str) -> dict:
    out = {}
    for name, expand in (("small", small_orbit), ("large", large_orbit)):
        times, results = [], []
        for code in _codes(codes):
            a = ArrayCode(code, Shape(4))
            start = time.perf_counter()
            orbit = expand(a)
            times.append(_ms(start))
            results.append([code, orbit[0].code, len(orbit)])
        out[name] = {"ms": statistics.median(times), "results": results}
    return out


def probe_cache(directory: str) -> dict:
    try:
        cache = importlib.import_module("bitcube.cache")
    except ModuleNotFoundError as exc:
        if exc.name != "bitcube.cache":
            raise
        return {"absent": True}
    table = _table(4, "gf2")
    path = Path(directory) / "probe-n4-gf2.bin"
    start = time.perf_counter()
    cache.dump_table(table, path)
    dump_ms = _ms(start)
    start = time.perf_counter()
    loaded = cache.load_table(path)
    load_ms = _ms(start)
    return {"dump_ms": dump_ms, "load_ms": load_ms, "bytes": path.stat().st_size,
            "sizes": list(loaded.stratum_sizes),
            "equal": loaded.strata == table.strata
            and (loaded.shape, loaded.semiring) == (table.shape, table.semiring)}


def probe_partition(tag: str) -> dict:
    table = _table(4, tag)
    start = time.perf_counter()
    rows = partition_by_ones(table)
    ms = _ms(start)
    return {"ms": ms, "sizes": list(table.stratum_sizes),
            "rows": [[r.rank, r.ones, r.count, r.representative.code] for r in rows]}


def probe_emit(fmt: str) -> dict:
    emit_all_tables(fmt)
    start = time.perf_counter()
    text = emit_all_tables(fmt)
    ms = _ms(start)
    return {"ms": ms, "bytes": len(text.encode()), "text": text}


def probe_verify(mode: str) -> dict:
    if mode == "traced":
        _count_unique()
    start = time.perf_counter()
    report = verify_all("all")
    ms = _ms(start)
    return {"ms": ms, "text": "\n".join(report.lines()) + "\n"}


PROBES = {
    "stratify": probe_stratify,
    "rank_of": probe_rank_of,
    "classify": probe_classify,
    "orbit_split": probe_orbit_split,
    "orbits": probe_orbits,
    "cache": probe_cache,
    "partition": probe_partition,
    "emit": probe_emit,
    "verify": probe_verify,
}


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    print(json.dumps(PROBES[name](*args)))
