"""Exact tensor-rank stratification of all codes of one shape.

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

In all three semirings the level is translated by one rank-1 code per orbit
of the n-cube's symmetry group (order 2**n * n!, generated by slice swaps
and transpositions of directions), one code bit at a time, and the union is
then closed under that group.  For the integer case x + y is x | y with
x & y == 0, so a member that holds a bit of the code drops out.  The group
permutes cells, so it maps rank-1 arrays to rank-1 arrays, commutes with
xor and or and keeps disjoint supports disjoint: every level is a union of
orbits, and g(x) + y = g(x + g⁻¹(y)), so the closure holds every sum.  The
closure takes S = S | g(S) along the slice swaps, then along the bubble
sequence t1; t2 t1; ...; t(n-1) ... t1 of direction transpositions.  A step
along g turns the images under a set A of elements into those under
A·{e, g}, and these products give all sets of slice swaps, then a
transversal of S_k in S_(k+1) for each k in turn: the whole group.
"""

from __future__ import annotations

import enum
from functools import lru_cache, reduce
from itertools import compress
from operator import or_
from typing import NamedTuple

from .arrays import (
    ArrayCode,
    Shape,
    ShapeMismatchError,
    UnsupportedShapeError,
    outer_product,
    rank_one_codes,
)


class Semiring(enum.Enum):
    """Addition semantics on {0, 1}: 1+1 = 0, 1 or 2 respectively."""

    GF2 = "gf2"
    BOOLEAN = "bool"
    NONNEG = "nat"


class RankTable(NamedTuple):
    """Exact rank of every code of one shape under one semiring.

    levels[r] is the set of codes of exact rank r as a bitset: bit c is set
    iff code c has rank r.  The levels partition the code space, level 0 is
    the zero array alone and the last level is nonempty.  Stratum r is the
    ascending tuple of the codes in level r, made once per table.
    """

    shape: Shape
    semiring: Semiring
    levels: tuple[int, ...]

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
        # level & bit costs as much as the shorter operand, level >> code
        # as much as the part of the level above the code
        bit = 1 << code
        for r, level in enumerate(self.levels):
            if level & bit:
                return r
        raise ValueError(f"code {code} out of range for dimension {self.shape.n}")


# the characters "0" and "1" to the bytes 0 and 1, for itertools.compress
_FLAGS = bytes.maketrans(b"01", b"\0\1")


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


def _permuted_cells(perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The cell map of a direction permutation: per code bit b, the code bit
    that the cell at b moves to, the cell whose subscript along perm[j - 1]
    is its subscript along j."""
    return tuple(sum((b >> (n - j) & 1) << (n - q) for j, q in enumerate(perm, 1))
                 for b in range(1 << n))


@lru_cache(maxsize=None)
def _cube_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """The n-cube's generators as cell permutations: images[b] is the code
    bit that the cell at code bit b moves to.

    The slice swaps along directions d = 1..n, then the transpositions of
    directions j, j + 1.  Code bit b holds the cell with subscript 1 along d
    iff bit n - d of b is set.  Every generator is an involution.
    """
    cells = [tuple(b ^ 1 << (n - d) for b in range(1 << n)) for d in range(1, n + 1)]
    cells += [_permuted_cells((*range(1, j), j + 1, j, *range(j + 2, n + 1)), n)
              for j in range(1, n)]
    return tuple(cells)


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
    # per step, the delta swaps (delta, mask) of its generator's code-bit
    # transpositions i < j: the mask holds the codes with bit i set, bit j clear
    clear = _clear_masks(n)
    swaps = [tuple(((1 << j) - (1 << i), clear[j] & ~clear[i])
                   for i, j in enumerate(images) if i < j)
             for images in _cube_generators(n)]
    moves = swaps[n:]
    return (*swaps[:n], *(moves[j] for i in range(len(moves)) for j in range(i, -1, -1)))


def _cube_closure(codes: int, n: int) -> int:
    """The union of the images of a set of codes under the n-cube's group."""
    for swaps in _closure_steps(n):
        image = codes
        for delta, mask in swaps:
            t = (image ^ image >> delta) & mask
            image ^= t | t << delta
        codes |= image
    return codes


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
    # add y_f one code bit b at a time: members with bit b clear move up by
    # 2**b, those with it set move down (xor), stay (or) or drop out (integer)
    clear, union = _clear_masks(n), 0
    for bits in _orbit_bits(n):
        for b in bits:
            low = level & clear[b]
            if semiring is Semiring.GF2:
                level = level >> (1 << b) & clear[b] | low << (1 << b)
            elif semiring is Semiring.BOOLEAN:
                level = level ^ low | low << (1 << b)
            else:
                level = low << (1 << b)
        union |= level
    return _cube_closure(union, n)


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

    Only n = 3 and n = 4 are supported: one level for n = 5 would already
    be a 2**32-bit int.
    """
    if shape.n not in (3, 4):
        raise UnsupportedShapeError(
            f"stratification supports dimensions 3 and 4, got {shape.n}"
        )
    return _stratify(shape.n, semiring)


# Decimal places of the percentage column, per dimension; these mirror the
# precision used in the reference tables (whole percentage points for n = 3,
# three decimals for n = 4).
PERCENT_DECIMALS = {3: 0, 4: 3}


def percent_text(count: int, total: int, decimals: int) -> str:
    """count/total as a percentage, rounded half-up; trailing zeros dropped."""
    scaled = (2 * count * 100 * 10**decimals + total) // (2 * total)
    if decimals == 0:
        return str(scaled)
    text = f"{scaled // 10**decimals}.{scaled % 10**decimals:0{decimals}d}"
    return text.rstrip("0").rstrip(".")


class RankShare(NamedTuple):
    """One row of a rank distribution."""

    rank: int
    count: int
    percent: str


def rank_distribution(table: RankTable) -> tuple[RankShare, ...]:
    """Counts per stratum with percentages of the full code space."""
    total = table.shape.code_count
    decimals = PERCENT_DECIMALS[table.shape.n]
    return tuple(
        RankShare(
            rank=r,
            count=count,
            percent=percent_text(count, total, decimals),
        )
        for r, count in enumerate(table.stratum_sizes)
    )
