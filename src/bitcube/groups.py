"""Symmetry of 0-1 codes over the field with two elements.

The six invertible 2x2 matrices over {0, 1} act along each of the n
directions by changing basis on the 2-vectors of that direction, and the
direction permutations transpose subscripts.  The small symmetry group is
the n-fold direct product of the matrix group; the large symmetry group
extends it by all direction permutations.  Both actions preserve rank.

Orbits are represented by one label array per (n, group): the label of a
code is the numerically minimal member of its orbit, which is the orbit's
canonical form.  The labels come from one fixed sequence of in-place steps
labels = minimum(labels, labels[t]) over generator tables t.  If each label
is the minimum over a set A of group elements, a step along s makes it the
minimum over A·{e, s}.  A group with a normal subgroup N and a transversal
T is N·T, as in stabiliser chains (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 4), so the pairs {e, s} need only multiply
out to such transversals: swap, rot, rot along each direction give
{e, s}{e, r, r²} = GL2_F2, distinct directions commute, and the bubble
sequence t1; t2 t1; ...; t(n-1) ... t1 of direction transpositions reaches
every coset of S_k in S_(k+1).  Large labels are small labels followed by
the bubble sequence; classification, orbits and splits derive from labels.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .arrays import ArrayCode, Shape, UnsupportedShapeError
from .stratify import RankTable, Semiring, _cube_generators

GroupKind = Literal["small", "large"]


@dataclass(frozen=True, order=True)
class GroupElement:
    """An invertible 2x2 matrix over {0, 1}, stored as two rows."""

    rows: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.rows
        if {a, b, c, d} - {0, 1}:
            raise ValueError(f"entries must be 0 or 1, got {self.rows}")
        if (a & d) ^ (b & c) != 1:
            raise ValueError(f"matrix {self.rows} is singular mod 2")


#: The six invertible matrices in lexicographic order of their entries.
GL2_F2: tuple[GroupElement, ...] = tuple(
    GroupElement(((a, b), (c, d)))
    for a, b, c, d in itertools.product((0, 1), repeat=4)
    if (a & d) ^ (b & c) == 1
)

#: A generating pair: an order-2 and an order-3 element.
GL2_GENERATORS: tuple[GroupElement, ...] = (GL2_F2[0], GL2_F2[1])


@dataclass(frozen=True)
class AxisPermutation:
    """A bijection of the n directions; perm[j-1] is the image of j."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"{self.perm} is not a permutation of 1..{n}")

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


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: minimal member, rank, cardinality, ones of the minimum."""

    canonical: ArrayCode
    rank: int
    size: int
    ones: int
    group: GroupKind


@dataclass(frozen=True)
class OrbitSplit:
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

def _require_enumerable(shape: Shape) -> None:
    if shape.n not in (3, 4):
        raise UnsupportedShapeError(
            f"orbit expansion supports dimensions 3 and 4, got {shape.n}"
        )


def _linear_table(images: list[int]) -> np.ndarray:
    # Every generator is linear over F2, so the image of a code is the xor of
    # images[b] over its set bits b.  Split into halves, code = hi << k | lo
    # maps to table_hi[hi] ^ table_lo[lo]: one xor-outer product.
    halves = []
    for part in (images[len(images) // 2:], images[:len(images) // 2]):
        half = np.zeros(1, dtype=np.uint32)
        for image in part:
            half = np.concatenate((half, half ^ image))
        halves.append(half)
    out = np.bitwise_xor.outer(*halves).ravel()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def axis_action_table(g: GroupElement, direction: int, n: int) -> np.ndarray:
    """Image of every code under one matrix acting along one direction."""
    # code bit b holds an entry at subscript 1 along the direction iff b & s;
    # the entry at subscript 2 of the same line is then bit b - s
    s = 1 << (n - direction)
    (g11, g12), (g21, g22) = g.rows
    return _linear_table([
        g11 << b | g21 << (b - s) if b & s else g12 << (b + s) | g22 << b
        for b in range(1 << n)
    ])


@lru_cache(maxsize=None)
def permutation_action_table(p: AxisPermutation, n: int) -> np.ndarray:
    """Image of every code under one direction permutation."""
    # the cell at code bit b moves to the cell whose subscript along p[j-1]
    # is its subscript along j
    return _linear_table([
        1 << sum(((b >> (n - j)) & 1) << (n - p.perm[j - 1]) for j in range(1, n + 1))
        for b in range(1 << n)
    ])


@lru_cache(maxsize=None)
def _cube_tables(n: int) -> tuple[np.ndarray, ...]:
    # the slice swaps, then the transpositions of adjacent directions
    return tuple(_linear_table([1 << c for c in images]) for images in _cube_generators(n))


def _min_steps(labels: np.ndarray, steps, transpositions=()) -> np.ndarray:
    # labels = minimum(labels, labels[t]) in place along the steps, then along
    # the bubble sequence of the transpositions
    bubble = (transpositions[j] for i in range(len(transpositions)) for j in range(i, -1, -1))
    for t in [*steps, *bubble]:
        np.minimum(labels, labels.take(t), out=labels)
    labels.flags.writeable = False
    return labels


@lru_cache(maxsize=None)
def _generator_tables(n: int, group: str) -> tuple[np.ndarray, ...]:
    # swap and rot per direction, then the transpositions; the swap is the
    # slice swap, so the swaps and transpositions are the cube's generators
    cube = _cube_tables(n)
    rots = [axis_action_table(GL2_GENERATORS[1], d, n) for d in range(1, n + 1)]
    tables = tuple(t for swap_rot in zip(cube[:n], rots) for t in swap_rot)
    return tables if group == "small" else tables + cube[n:]


@lru_cache(maxsize=None)
def _orbit_labels(n: int, group: str) -> np.ndarray:
    tables = _generator_tables(n, group)
    if group == "small":
        steps = [t for swap, rot in zip(tables[0::2], tables[1::2]) for t in (swap, rot, rot)]
        return _min_steps(np.arange(1 << (1 << n), dtype=np.uint32), steps)
    return _min_steps(_orbit_labels(n, "small").copy(), (), tables[2 * n:])


def orbit_labels(shape: Shape, group: GroupKind) -> np.ndarray:
    """Read-only array mapping every code to the minimal member of its orbit.

    One pass of min-steps whose pairs {e, s} multiply out to the whole group
    (see the module docstring) makes each label the minimum of its orbit.
    """
    if group not in ("small", "large"):
        raise ValueError(f"group must be 'small' or 'large', got {group!r}")
    _require_enumerable(shape)
    return _orbit_labels(shape.n, group)


def _orbit(a: ArrayCode, group: GroupKind) -> tuple[ArrayCode, ...]:
    labels = orbit_labels(a.shape, group)
    codes = np.flatnonzero(labels == labels[a.code])
    return tuple(ArrayCode(int(c), a.shape) for c in codes)


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


def _canonical_codes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # orbit minima (the codes that are their own label), ascending, and sizes
    canon = np.flatnonzero(labels == np.arange(labels.size))
    return canon, np.bincount(labels, minlength=labels.size)[canon]


def classify(table: RankTable, group: GroupKind) -> tuple[OrbitRecord, ...]:
    """Orbit records sorted by (rank, canonical).

    The canonical form of an orbit is its numerically minimal member.
    """
    _require_field(table)
    canon, sizes = _canonical_codes(orbit_labels(table.shape, group))
    rows = sorted(
        (table.rank_of_code(code), code, size)
        for code, size in zip(canon.tolist(), sizes.tolist())
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
    large_labels = orbit_labels(table.shape, "large")
    small_canon, small_sizes = _canonical_codes(orbit_labels(table.shape, "small"))
    parts: dict[int, Counter] = {rec.canonical.code: Counter() for rec in large_records}
    for code, size in zip(small_canon.tolist(), small_sizes.tolist()):
        parts[int(large_labels[code])][size] += 1
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
