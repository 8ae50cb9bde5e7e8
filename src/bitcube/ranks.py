"""Exact tensor-rank stratification of all codes of one shape, and what is
read off its levels and code counts: rank/ones partitions and orbit-count
lower bounds.

Rank is the minimal number of rank-1 terms summing to an array, where the
meaning of "sum" is selected by the semiring: exclusive-or for the field
with two elements, inclusive-or for the Boolean case, and inclusive-or
restricted to disjoint supports for the non-negative integer case (a pair
of terms sharing a 1 simply contributes no candidate).

A stratification is one level per rank, each a set of codes held as a
bitset: a Python int with bit c set iff code c has that rank.  It is
computed level by level from the rank-1 codes: the arrays of rank r + 1 are
the sums x + y with x of exact rank r and y of rank 1, minus everything
already ranked.  A map that permutes the bits of the codes permutes the
bits of a bitset, and a swap of two code bits i < j moves each member c
with bit i set and bit j clear by 2**j - 2**i, all at once: one delta swap
(Knuth, The Art of Computer Programming 4A, 7.1.3).

The n-cube's symmetry group Bn (order 2**n * n!: slice swaps and direction
permutations) permutes cells, so it maps rank-1 arrays to rank-1 arrays,
commutes with xor and or and keeps disjoint supports disjoint: every level
is a union of orbits, and g(x) + y = g(x + g⁻¹(y)).  So in all three
semirings the level is translated by one rank-1 code per orbit of a
subgroup G, one code bit at a time, and the union is then closed under G.
For the integer case x + y is x | y with x & y == 0, so a member that holds
a bit of the code drops out.  G is Dn, the index-2 subgroup that swaps an
even number of slices.  The Bn-orbits of rank-1 codes are those of y_f,
with f factors (1, 1) and the rest (0, 1).  For f > 0 the slice swap along
a (1, 1) factor fixes y_f and is odd, so its Bn-orbit is one Dn-orbit.  The
orbit of y_0, the single cells, has stabiliser Sn, which lies in Dn, so it
splits in two: the cells with an even and with an odd number of subscripts
equal to 1.  y_0 is in the even half, and the cell with subscript 1 along
direction n only, code bit 1, stands for the odd one.

The closure takes S = S | g(S) along a sequence of steps g, so it holds the
images under their product set {e, g_m}···{e, g_1}.  Each step is a cell
swap: it exchanges each of a set of lower cells b with the cell b + delta,
one delta for all, and so lifts to one delta swap of the code bits b and
b + delta per lower cell.  The steps are reflections of Dn: transpositions
t(j, k) of two directions, and anti-transpositions a(j, k) that also flip
both, each with 2**(n - 2) lower cells; a slice swap has 2**(n - 1).  Dk-1
has 2k cosets in Dk, one per direction that k can go to, flipped or not:
with t = t(k - 1, k) and a = a(k - 1, k), the products e, a·t, t, a,
t(j, k) and t(j, k)·a·t reach all 2k, so the steps t, a, t(k - 2, k), ...,
t(1, k) for k = 2..n reach Dn: 36 delta swaps at n = 4, the level step's
closure.  One slice swap doubles Dn to Bn (Humphreys, Reflection Groups and
Coxeter Groups, 2.10): 44 delta swaps, the cube closure.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache, reduce
from itertools import compress
from operator import index, or_
from typing import NamedTuple

from .arrays import (
    ArrayCode,
    Shape,
    ShapeMismatchError,
    UnsupportedShapeError,
    _checked_shape,
    _Checked,
    _delta_swap,
    _slice_swap,
    _transposition,
    outer_product,
    rank_one_codes,
)


class Semiring(enum.Enum):
    """Addition semantics on {0, 1}: 1+1 = 0, 1 or 2 respectively."""

    GF2 = "gf2"
    BOOLEAN = "bool"
    NONNEG = "nat"


class RankTable(_Checked, NamedTuple("RankTable", [("shape", Shape), ("semiring", Semiring),
                                                   ("levels", tuple)])):
    """Exact rank of every code of one shape under one semiring.

    levels[r] is the set of codes of exact rank r as a bitset: bit c is set
    iff code c has rank r.  The levels partition the code space, level 0 is
    the zero array alone and no level is empty; the constructor checks all
    three.  Stratum r is the ascending tuple of the codes in level r, made
    once per table.
    """

    __slots__ = ()

    def __new__(cls, shape: Shape, semiring: Semiring,
                levels: tuple[int, ...]) -> RankTable:
        shape, semiring = _checked_shape(shape), Semiring(semiring)
        levels = tuple(map(index, levels))
        if levels[:1] != (1,):
            raise ValueError("stratum 0 is not the zero array alone")
        # disjoint iff the sizes add up to the size of the union
        if (not all(levels) or reduce(or_, levels) != (1 << shape.code_count) - 1
                or sum(map(int.bit_count, levels)) != shape.code_count):
            raise ValueError("levels do not partition the code space, or one is empty")
        return tuple.__new__(cls, (shape, semiring, levels))

    @property
    def stratum_sizes(self) -> tuple[int, ...]:
        return tuple(level.bit_count() for level in self.levels)

    @property
    def r_max(self) -> int:
        return len(self.levels) - 1

    @property
    def strata(self) -> tuple[tuple[int, ...], ...]:
        return _strata(self)

    def rank_of_code(self, code: int) -> int:
        code = index(code)
        if not 0 <= code < self.shape.code_count:
            raise ValueError(f"code {code} out of range for dimension {self.shape.n}")
        # level & bit costs as much as the shorter operand, level >> code
        # as much as the part of the level above the code
        bit = 1 << code
        for r, level in enumerate(self.levels):
            if level & bit:
                return r


# the characters "0" and "1" to the bytes 0 and 1, for itertools.compress
_FLAGS = bytes(c == ord("1") for c in range(256))


@lru_cache(maxsize=None)
def _strata(table: RankTable) -> tuple[tuple[int, ...], ...]:
    # bit c of a level is character c of its reversed binary text; the
    # codes are made once, not once per level
    codes = tuple(range(table.shape.code_count))
    texts = (format(level, f"0{len(codes)}b")[::-1] for level in table.levels)
    return tuple(tuple(compress(codes, t.encode().translate(_FLAGS))) for t in texts)


def rank_of(a: ArrayCode, table: RankTable) -> int:
    """Exact rank of a code, looked up in the stratification."""
    if a.shape != table.shape:
        raise ShapeMismatchError(
            f"code has dimension {a.shape.n}, table has {table.shape.n}"
        )
    return table.rank_of_code(a.code)


def _closure_generators(n: int) -> tuple[tuple[int, int], ...]:
    """The closure's steps as cell swaps: per k = 2..n, t(k - 1, k),
    a(k - 1, k) and t(j, k) for j = k - 2 down to 1; then the slice swap
    along direction n, the one step outside Dn."""
    steps = []
    for k in range(2, n + 1):
        steps += [_transposition(n, k - 1, k), _transposition(n, k - 1, k, anti=True),
                  *(_transposition(n, j, k) for j in range(k - 2, 0, -1))]
    return (*steps, _slice_swap(n, n))


@lru_cache(maxsize=None)
def _clear_masks(n: int) -> tuple[int, ...]:
    # per code bit b, the bitset of the codes with bit b clear: runs of 2**b
    # members with period 2**(b + 1)
    size, masks = 1 << (1 << n), []
    for b in range(1 << n):
        mask, period = (1 << (1 << b)) - 1, 2 << b
        while period < size:
            mask |= mask << period
            period *= 2
        masks.append(mask)
    return tuple(masks)


@lru_cache(maxsize=None)
def _closure_steps(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # per step, the delta swaps (delta, mask) of the code bits i and i + d of
    # each lower cell i: the mask holds the codes with bit i set, bit i + d clear
    clear = _clear_masks(n)
    return tuple(tuple(((1 << i + d) - (1 << i), clear[i + d] & ~clear[i])
                       for i in range(1 << n) if lower >> i & 1)
                 for d, lower in _closure_generators(n))


def _close(codes: int, steps) -> int:
    # S = S | g(S) for each step g, a sequence of delta swaps
    for swaps in steps:
        image = codes
        for delta, mask in swaps:
            image = _delta_swap(image, delta, mask)
        codes |= image
    return codes


def _cube_closure(codes: int, n: int) -> int:
    """The union of the images of a set of codes under the n-cube's group."""
    return _close(codes, _closure_steps(n))


@lru_cache(maxsize=None)
def _orbit_bits(n: int) -> tuple[tuple[int, ...], ...]:
    # one rank-1 code per cube orbit: y_f has f factors (1, 1) and the rest
    # (0, 1), for f = 0..n.  Each contains the one before, so list per f the
    # code bits that y_f adds.
    ys = [0] + [outer_product([(1, 1)] * f + [(0, 1)] * (n - f), Shape(n)).code
                for f in range(n + 1)]
    return tuple(tuple(b for b in range(1 << n) if (y & ~x) >> b & 1)
                 for x, y in zip(ys, ys[1:]))


def _sums(level: int, n: int, semiring: Semiring) -> int:
    """Every sum x + y of a member x of the level and a rank-1 code y."""
    # add the odd single cell, code bit 1; then y_0, y_1, ..., each holding the
    # one before, one code bit b at a time: members with bit b clear move up by
    # 2**b, those with it set move down (xor), stay (or) or drop out (integer).
    # J = y_n, all ones, adds nothing to a Boolean or integer level: x ∨ J = J
    # has rank 1, and x + J needs x = 0.  Only the field adds it.
    clear, union, ys = _clear_masks(n), 0, _orbit_bits(n)
    for chain in ([(1,)], ys if semiring is Semiring.GF2 else ys[:n]):
        sums = level
        for bits in chain:
            for b in bits:
                low = sums & clear[b]
                if semiring is Semiring.GF2:
                    sums = sums >> (1 << b) & clear[b] | low << (1 << b)
                elif semiring is Semiring.BOOLEAN:
                    sums = sums ^ low | low << (1 << b)
                else:
                    sums = low << (1 << b)
            union |= sums
    return _close(union, _closure_steps(n)[:-1])


@lru_cache(maxsize=None)
def _stratify(n: int, semiring: Semiring) -> RankTable:
    everything = (1 << (1 << (1 << n))) - 1
    rank_one = reduce(or_, (1 << y for y in rank_one_codes(Shape(n))))
    levels, seen = [1, rank_one], 1 | rank_one
    while seen != everything:
        levels.append(_sums(levels[-1], n, semiring) & ~seen)
        if not levels[-1]:
            raise RuntimeError(f"rank level {len(levels) - 1} is empty before "
                               f"every code of dimension {n} is ranked")
        seen |= levels[-1]
    return RankTable(Shape(n), semiring, tuple(levels))


def stratify(shape: Shape, semiring: Semiring) -> RankTable:
    """Stratify the full code space of a shape by exact rank.

    The semiring may be given as a Semiring or its tag, as for RankTable.
    Only n = 3 and n = 4 are supported: one level for n = 5 would already
    be a 2**32-bit int.
    """
    shape, semiring = _checked_shape(shape), Semiring(semiring)
    if shape.n not in (3, 4):
        raise UnsupportedShapeError(
            f"stratification supports dimensions 3 and 4, got {shape.n}"
        )
    return _stratify(shape.n, semiring)


def lower_bounds(n: int) -> tuple[int, int]:
    """Orbit-count lower bounds for the small and large symmetry groups.

    Exact integer ceilings of 2**(2**n)/6**n and 2**(2**n)/(6**n n!);
    the n = 6 values exceed 64 bits, hence big-integer arithmetic.
    """
    n = index(n)
    if not 3 <= n <= 6:
        raise ValueError(f"lower bounds are defined for n in 3..6, got {n}")
    total = 1 << (1 << n)
    small_order = 6**n
    large_order = small_order * math.factorial(n)
    return (-(-total // small_order), -(-total // large_order))


class PartitionRow(NamedTuple):
    """Arrays of one (rank, ones) class: count and minimal representative."""

    rank: int
    ones: int
    count: int
    representative: ArrayCode


@lru_cache(maxsize=None)
def _ones_masks(n: int) -> tuple[int, ...]:
    # per count w, the bitset of the codes with w ones: the codes below
    # 2**(b + 1) with w ones are those below 2**b with w ones, and those
    # with w - 1 ones plus 2**b
    masks = [1]
    for b in range(1 << n):
        masks = [low | high << (1 << b) for low, high in zip(masks + [0], [0] + masks)]
    return tuple(masks)


def partition_by_ones(table: RankTable) -> tuple[PartitionRow, ...]:
    """Partition each stratum by the number of entries equal to 1.

    Rows are sorted by (rank, ones); empty classes are omitted.  Each class
    is a level of the table intersected with the codes of one ones count;
    its representative is its minimum, the lowest set bit.
    """
    rows = []
    for rank, level in enumerate(table.levels):
        for ones, mask in enumerate(_ones_masks(table.shape.n)):
            codes = level & mask
            if codes:
                minimum = ArrayCode((codes & -codes).bit_length() - 1, table.shape)
                rows.append(PartitionRow(rank, ones, codes.bit_count(), minimum))
    return tuple(rows)
