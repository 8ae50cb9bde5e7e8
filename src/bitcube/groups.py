"""Symmetry of 0-1 codes over the field with two elements.

The six invertible 2x2 matrices over {0, 1} act along each of the n
directions by changing basis on the 2-vectors of that direction, and the
direction permutations transpose subscripts.  The small symmetry group is
the n-fold direct product of the matrix group; the large symmetry group
extends it by all direction permutations.  Both actions preserve rank.

The canonical form of an orbit is its minimal member.  Orbits are found
slice by slice, as in stabiliser chains (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, ch. 4).  G3 = GL2_F2**3 acts on the n = 3
codes as 216 tables.  An n = 4 code is x = A·2**8 + B, its slices at
subscripts 1 and 2 along direction 1, and G3 acts on both alike.  A node
(P, Q), with P a G3-orbit minimum and Q least in its orbit under P's
stabiliser, is the G3-orbit of the pairs (gP, gB) with B in that orbit;
its least code is P·2**8 + Q.  The matrices along direction 1,
(A, B) → (g11 A ⊕ g12 B, g21 A ⊕ g22 B), commute with G3 and are
generated by (A, B) → (B, A) and (A, B) → (A, A ⊕ B), so the small orbits
are the classes of nodes these join.  At n = 3 a code x is the pair
(x, 0).  Direction permutations normalise the small group, so the large
orbits are the classes of small orbits joined by adjacent transpositions.
A class's least node holds its canonical form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Literal, NamedTuple

from .arrays import ArrayCode, Shape, UnsupportedShapeError, _Checked
from .stratify import RankTable, Semiring, _cube_generators

GroupKind = Literal["small", "large"]


class GroupElement(_Checked, NamedTuple("GroupElement", [("rows", tuple)])):
    """An invertible 2x2 matrix over {0, 1}, stored as two rows."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, int], tuple[int, int]]) -> GroupElement:
        (a, b), (c, d) = rows
        if {a, b, c, d} - {0, 1}:
            raise ValueError(f"entries must be 0 or 1, got {rows}")
        if (a & d) ^ (b & c) != 1:
            raise ValueError(f"matrix {rows} is singular mod 2")
        return tuple.__new__(cls, (rows,))


#: The six invertible matrices in lexicographic order of their entries.
GL2_F2: tuple[GroupElement, ...] = tuple(
    GroupElement(((a, b), (c, d)))
    for a, b, c, d in itertools.product((0, 1), repeat=4)
    if (a & d) ^ (b & c) == 1
)

#: A generating pair: an order-2 and an order-3 element.
GL2_GENERATORS: tuple[GroupElement, ...] = (GL2_F2[0], GL2_F2[1])


class AxisPermutation(_Checked, NamedTuple("AxisPermutation", [("perm", tuple)])):
    """A bijection of the n directions; perm[j-1] is the image of j."""

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...]) -> AxisPermutation:
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{n}")
        return tuple.__new__(cls, (perm,))

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "AxisPermutation":
        return cls(tuple(range(1, n + 1)))


def all_axis_permutations(n: int) -> tuple[AxisPermutation, ...]:
    return tuple(
        AxisPermutation(p) for p in itertools.permutations(range(1, n + 1))
    )


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

def _linear_table(images: list[int]) -> tuple[int, ...]:
    # Every generator is linear over F2, so the image of a code is the xor of
    # images[b] over its set bits b: double the table once per code bit.
    table = [0]
    for image in images:
        table += [t ^ image for t in table]
    return tuple(table)


def _axis_images(g: GroupElement, direction: int, n: int) -> list[int]:
    # code bit b holds an entry at subscript 1 along the direction iff b & s;
    # the entry at subscript 2 of the same line is then bit b - s
    s = 1 << (n - direction)
    (g11, g12), (g21, g22) = g.rows
    return [g11 << b | g21 << (b - s) if b & s else g12 << (b + s) | g22 << b
            for b in range(1 << n)]


@lru_cache(maxsize=None)
def _slices() -> tuple[dict, dict, dict, dict]:
    """G3's orbits on the n = 3 codes: per code, its orbit minimum P and
    elements taking it to P and back; per P, its stabiliser.

    An element is its table of 256 bytes, so t∘u is u.translate(t).  Element
    36i + 6j + k is GL2_F2[i], [j] and [k] along directions 1, 2 and 3, and
    its inverse is the element of the factors' inverses, since
    ((a, b), (c, d)) has inverse ((d, b), (c, a)) mod 2.
    """
    d1, d2, d3 = ([bytes(_linear_table(_axis_images(g, d, 3))) for g in GL2_F2]
                  for d in (1, 2, 3))
    elements = [w.translate(v).translate(u) for u in d1 for v in d2 for w in d3]
    inv = [GL2_F2.index(GroupElement(((d, b), (c, a)))) for (a, b), (c, d) in
           (g.rows for g in GL2_F2)]
    inverses = [elements[36 * inv[i] + 6 * inv[j] + inv[k]]
                for i, j, k in itertools.product(range(6), repeat=3)]
    least, to_least, from_least, stabilisers = {}, {}, {}, {}
    for p in range(256):
        if p not in least:
            stabilisers[p] = [g for g in elements if g[p] == p]
            for g, g_inverse in zip(elements, inverses):
                if g[p] not in least:
                    least[g[p]], from_least[g[p]], to_least[g[p]] = p, g, g_inverse
    return least, to_least, from_least, stabilisers


class _Orbits:
    """Small and large orbits of every code of one dimension (n = 3, 4):
    nodes[i] is node i's least code and size, canonical[group][i] its orbit's
    canonical form, and sizes[group] maps canonical forms to orbit sizes."""

    def __init__(self, n: int):
        self.least, self.to_least, self.from_least, stabilisers = _slices()
        self.shift = 8 if n == 4 else 0
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
        moves = [lambda x: (x & 255) << 8 | x >> 8, lambda x: x ^ x >> 8] if n == 4 else []
        small = self._merge(parent, range(len(parent)), moves)
        swaps = [lambda x, c=c: sum(1 << c[b] for b in range(1 << n) if x >> b & 1)
                 for c in _cube_generators(n)[n:]]
        roots = {"small": small, "large": self._merge(parent, set(small), swaps)}
        self.canonical = {g: [self.nodes[r][0] for r in rs] for g, rs in roots.items()}
        self.sizes = {g: Counter() for g in roots}
        for g, codes in self.canonical.items():
            for (_, size), code in zip(self.nodes, codes):
                self.sizes[g][code] += size

    def _merge(self, parent: list[int], reps, moves) -> list[int]:
        # join the class of each node in reps with that of each move of its
        # least code; a class's root is its least node
        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i
        for i in reps:
            for move in moves:
                a, b = find(i), find(self.node(move(self.nodes[i][0])))
                parent[max(a, b)] = min(a, b)
        return [find(i) for i in range(len(parent))]

    def node(self, x: int) -> int:
        a, b = x >> self.shift, x & (1 << self.shift) - 1
        return self.node_of[self.least[a]][self.to_least[a][b]]

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
    large_records = classify(table, "large")
    orbits = _orbits(table.shape.n)
    parts: dict[int, Counter] = {rec.canonical.code: Counter() for rec in large_records}
    for code, size in orbits.sizes["small"].items():
        parts[orbits.canon(code, "large")][size] += 1
    return tuple(
        OrbitSplit(
            index=i + 1,
            rank=rec.rank,
            size=rec.size,
            parts=tuple(
                (count, size)
                for size, count in sorted(parts[rec.canonical.code].items())
            ),
        )
        for i, rec in enumerate(large_records)
    )
