"""Symmetry of 0-1 codes over the field with two elements.

The six invertible 2x2 matrices over {0, 1} act along each of the n
directions by changing basis on the 2-vectors of that direction, and the
direction permutations transpose subscripts.  The small symmetry group is
the n-fold direct product of the matrix group; the large symmetry group
extends it by all direction permutations.  Both actions preserve rank.
With A and B the slices at subscripts 1 and 2 along a direction, the six
matrices are e, s, a, s∘a, a∘s and s∘a∘s, for the swap s, (A, B) → (B, A),
and the addition a, (A, B) → (A, A ⊕ B): two moves of cells, the delta swap
arrays._delta_swap and _add.

The canonical form of an orbit is its minimal member.  Orbits are found
slice by slice, as in stabiliser chains (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, ch. 4).  G3, the small group at n = 3, is
made from the two moves along each direction, as tables on the 256 codes.
Each code keeps its orbit minimum and one element taking the minimum to it,
and the inverse of that element is read off its table with bytes.index.
An n = 4 code is x = A·2**8 + B, its slices along direction 1, and G3 acts
on both alike.  A node (P, Q), with P a G3-orbit minimum and Q least in its
orbit under P's stabiliser, is the G3-orbit of the pairs (gP, gB) with B in
that orbit; its least code is P·2**8 + Q.  The matrices along direction 1
commute with G3, so the small orbits are the classes of nodes that the two
moves along it join.  At n = 3 a code x is the pair (x, 0).  Direction
permutations normalise the small group, so the large orbits are the classes
of small orbits joined by adjacent transpositions, delta swaps like s
(arrays._transposition).  A class's least node holds its canonical form,
and each small orbit is listed under the large orbit that holds it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Literal, NamedTuple

from .arrays import (ArrayCode, Shape, UnsupportedShapeError, _delta_swap, _slice_swap,
                     _transposition)
from .ranks import RankTable, Semiring, stratify

GroupKind = Literal["small", "large"]


class OrbitRecord(NamedTuple):
    """One orbit: minimal member, rank, cardinality, ones of the minimum."""

    canonical: ArrayCode
    rank: int
    size: int
    ones: int
    group: GroupKind


class OrbitSplit(NamedTuple):
    """How large orbit #index decomposes into small orbits.

    parts holds (count, size) pairs sorted by size ascending; an unsplit
    orbit is reported as a single (1, size) pair.
    """

    index: int
    rank: int
    size: int
    parts: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# actions over the whole code space (n = 3, 4)
# ---------------------------------------------------------------------------

def _add(x: int, delta: int, lower: int) -> int:
    # the cell b + delta is added into each cell b in lower
    return x ^ x >> delta & lower


def _gl2(d: int) -> tuple[bytes, ...]:
    # the six matrices along direction d as tables on the n = 3 codes
    e, cells = bytes(range(256)), _slice_swap(3, d)
    s, a = (bytes(move(x, *cells) for x in e) for move in (_delta_swap, _add))
    return e, s, a, a.translate(s), s.translate(a), s.translate(a).translate(s)


@lru_cache(maxsize=None)
def _slices() -> tuple[dict, dict, dict]:
    """G3's orbits on the n = 3 codes: per code, its orbit minimum P and an
    element taking P to it; per P, its stabiliser.

    An element g is its table of 256 bytes, g[x] the image of x: t∘u is
    u.translate(t), and g's inverse takes y to g.index(y), the place of y.
    """
    d1, d2, d3 = map(_gl2, (1, 2, 3))
    elements = [w.translate(v).translate(u) for u in d1 for v in d2 for w in d3]
    least, from_least, stabilisers = {}, {}, {}
    for p in range(256):
        if p not in least:
            stabilisers[p] = [g for g in elements if g[p] == p]
            for g in elements:
                if g[p] not in least:
                    least[g[p]], from_least[g[p]] = p, g
    return least, from_least, stabilisers


class _Orbits:
    """Small and large orbits of every code of one dimension (n = 3, 4):
    nodes[i] is node i's least code and size, canonical[group][i] its orbit's
    canonical form, sizes[group] maps canonical forms to orbit sizes, and split
    maps each large orbit's canonical form to the (canonical form, size) pairs
    of its small orbits, ascending."""

    def __init__(self, n: int):
        self.least, self.from_least, stabilisers = _slices()
        self.shift, lower = _slice_swap(4, 1) if n == 4 else (0, 0)
        self.nodes: list[tuple[int, int]] = []
        self.node_of: dict[int, dict[int, int]] = {}
        for p, stab in stabilisers.items():
            ids = self.node_of[p] = {}
            for b in range(1 << self.shift):
                if b not in ids:
                    orbit = {s[b] for s in stab}
                    ids.update(dict.fromkeys(orbit, len(self.nodes)))
                    self.nodes.append((p << self.shift | b, 216 // len(stab) * len(orbit)))
        parent = list(range(len(self.nodes)))
        moves = [(m, self.shift, lower) for m in (_delta_swap, _add)] if n == 4 else []
        small = self._merge(parent, range(len(parent)), moves)
        swaps = [(_delta_swap, *_transposition(n, j, j + 1)) for j in range(1, n)]
        roots = {"small": small, "large": self._merge(parent, set(small), swaps)}
        self.canonical = {g: [self.nodes[r][0] for r in rs] for g, rs in roots.items()}
        self.sizes = {g: Counter() for g in roots}
        for g, codes in self.canonical.items():
            for (_, size), code in zip(self.nodes, codes):
                self.sizes[g][code] += size
        self.split = {code: [] for code in self.sizes["large"]}
        for code, size in sorted(self.sizes["small"].items()):
            self.split[self.canon(code, "large")].append((code, size))

    def _merge(self, parent: list[int], reps, moves) -> list[int]:
        # join the class of each node in reps, least code x, with that of
        # move(x, delta, lower) for each move; a class's root is its least node
        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i
        for i in reps:
            for move, delta, lower in moves:
                a, b = find(i), find(self.node(move(self.nodes[i][0], delta, lower)))
                parent[max(a, b)] = min(a, b)
        return [find(i) for i in range(len(parent))]

    def node(self, x: int) -> int:
        # (least[a], g⁻¹(b)) for g = from_least[a]: g⁻¹(b) is b's place in g
        a, b = x >> self.shift, x & (1 << self.shift) - 1
        return self.node_of[self.least[a]][self.from_least[a].index(b)]

    def canon(self, x: int, group: str) -> int:
        return self.canonical[group][self.node(x)]

    def members(self, x: int, group: str) -> list[int]:
        # per slice minimum P, the B of the orbit's nodes at A = P, carried to
        # each other A of P's G3-orbit by the element taking P there
        canonical, code = self.canonical[group], self.canon(x, group)
        slices = {p: [b for b, i in ids.items() if canonical[i] == code]
                  for p, ids in self.node_of.items()}
        return sorted(a << self.shift | self.from_least[a][b]
                      for a in range(256) for b in slices[self.least[a]])


_orbits = lru_cache(maxsize=None)(_Orbits)


def _rank2_small_split() -> list[tuple[ArrayCode, int]]:
    # the canonical form and size of each small orbit in the one large orbit
    # of rank 2 and size 54 at n = 3, ascending
    large = classify(stratify(Shape(3), Semiring.GF2), "large")
    big = next(rec.canonical for rec in large if rec.rank == 2 and rec.size == 54)
    return [(ArrayCode(code, big.shape), size) for code, size in _orbits(3).split[big.code]]


def _orbits_of(shape: Shape, group: str) -> _Orbits:
    if group not in ("small", "large"):
        raise ValueError(f"group must be 'small' or 'large', got {group!r}")
    if shape.n not in (3, 4):
        raise UnsupportedShapeError(
            f"orbit expansion supports dimensions 3 and 4, got {shape.n}")
    return _orbits(shape.n)


def canonical_form(a: ArrayCode, group: GroupKind) -> tuple[ArrayCode, int]:
    """The minimal member of a code's orbit, and the orbit's size."""
    orbits = _orbits_of(a.shape, group)
    code = orbits.canon(a.code, group)
    return ArrayCode(code, a.shape), orbits.sizes[group][code]


def _orbit(a: ArrayCode, group: GroupKind) -> tuple[ArrayCode, ...]:
    members = _orbits_of(a.shape, group).members(a.code, group)
    return tuple(ArrayCode(c, a.shape) for c in members)


def small_orbit(a: ArrayCode) -> tuple[ArrayCode, ...]:
    """All images of a code under the small group, sorted ascending."""
    return _orbit(a, "small")


def large_orbit(a: ArrayCode) -> tuple[ArrayCode, ...]:
    """All images of a code under the large group, sorted ascending."""
    return _orbit(a, "large")


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------

def _require_field(table: RankTable) -> None:
    if table.semiring is not Semiring.GF2:
        raise ValueError(
            "orbit classification is defined over the two-element field only; "
            "canonical forms do not exist for the Boolean or integer cases"
        )


def classify(table: RankTable, group: GroupKind) -> tuple[OrbitRecord, ...]:
    """Orbit records sorted by (rank, canonical).

    The canonical form of an orbit is its numerically minimal member.
    """
    _require_field(table)
    rows = sorted(
        (table.rank_of_code(code), code, size)
        for code, size in _orbits_of(table.shape, group).sizes[group].items()
    )
    records = []
    for rank, code, size in rows:
        canonical = ArrayCode(code, table.shape)
        records.append(OrbitRecord(canonical, rank, size, canonical.ones(), group))
    return tuple(records)


def orbit_split(table: RankTable) -> tuple[OrbitSplit, ...]:
    """Decomposition of every large orbit into small orbits.

    Large orbits are numbered 1..K in classification order.  Each small
    orbit lies inside exactly one large orbit, so the (count, size) pairs
    of an entry multiply and sum back to the large orbit's size.
    """
    split = _orbits(table.shape.n).split
    return tuple(
        OrbitSplit(i + 1, rec.rank, rec.size, tuple(
            (count, size) for size, count in
            sorted(Counter(size for _, size in split[rec.canonical.code]).items())))
        for i, rec in enumerate(classify(table, "large"))
    )
