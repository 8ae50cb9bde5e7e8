"""Exact tensor-rank stratification of all codes of one shape.

Rank is the minimal number of rank-1 terms summing to an array, where the
meaning of "sum" is selected by the semiring: exclusive-or for the field
with two elements, inclusive-or for the Boolean case, and inclusive-or
restricted to disjoint supports for the non-negative integer case (a pair
of terms sharing a 1 simply contributes no candidate).

A stratification is one dense array holding the rank of every code.  It is
computed level by level: the arrays of rank r + 1 are the sums x + y with x
of exact rank r and y of rank 1, minus everything already ranked.  Each
level's sums are vectorized over (x, y) pairs and scattered into a bitmap
with one flag per code; the new level is the set of flagged codes that are
still unranked, which comes out sorted and independent of the pair order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .arrays import ArrayCode, Shape, ShapeMismatchError, UnsupportedShapeError, rank_one_codes


class Semiring(enum.Enum):
    """Addition semantics on {0, 1}: 1+1 = 0, 1 or 2 respectively."""

    GF2 = "gf2"
    BOOLEAN = "bool"
    NONNEG = "nat"


def combine(x: ArrayCode, y: ArrayCode, semiring: Semiring) -> Optional[ArrayCode]:
    """Sum of two codes under the semiring, or None when the pair is rejected.

    Rejection happens only in the non-negative integer case, when the two
    supports overlap; it is a normal outcome, not an error.
    """
    if x.shape != y.shape:
        raise ShapeMismatchError(
            f"cannot combine codes of dimension {x.shape.n} and {y.shape.n}"
        )
    if semiring is Semiring.GF2:
        return ArrayCode(x.code ^ y.code, x.shape)
    if semiring is Semiring.BOOLEAN:
        return ArrayCode(x.code | y.code, x.shape)
    if x.code & y.code:
        return None
    return ArrayCode(x.code | y.code, x.shape)


@dataclass(frozen=True, eq=False)
class RankTable:
    """Exact rank of every code of one shape under one semiring.

    ranks is a read-only uint8 array indexed by code.  Stratum r is the
    ascending tuple of codes of exact rank r; stratum 0 is the zero array
    alone and the last stratum is nonempty.
    """

    shape: Shape
    semiring: Semiring
    ranks: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankTable):
            return NotImplemented
        same_key = (self.shape, self.semiring) == (other.shape, other.semiring)
        return same_key and np.array_equal(self.ranks, other.ranks)

    @cached_property
    def stratum_sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.ranks).tolist())

    @property
    def r_max(self) -> int:
        return len(self.stratum_sizes) - 1

    @cached_property
    def strata(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(np.flatnonzero(self.ranks == r).tolist())
            for r in range(self.r_max + 1)
        )

    def rank_of_code(self, code: int) -> int:
        return int(self.ranks[code])


def rank_of(a: ArrayCode, table: RankTable) -> int:
    """Exact rank of a code, looked up in the stratification."""
    if a.shape != table.shape:
        raise ShapeMismatchError(
            f"code has dimension {a.shape.n}, table has {table.shape.n}"
        )
    return table.rank_of_code(a.code)


def _expand_level(cur: np.ndarray, r1: np.ndarray, semiring: Semiring) -> np.ndarray:
    if semiring is Semiring.GF2:
        return np.bitwise_xor.outer(cur, r1).ravel()
    if semiring is Semiring.BOOLEAN:
        return np.bitwise_or.outer(cur, r1).ravel()
    keep = np.bitwise_and.outer(cur, r1).ravel() == 0
    return np.bitwise_or.outer(cur, r1).ravel()[keep]


@lru_cache(maxsize=None)
def _stratify(n: int, semiring: Semiring) -> RankTable:
    shape = Shape(n)
    ranks = np.full(shape.code_count, 255, dtype=np.uint8)  # 255: not ranked yet
    ranks[0] = 0
    hit = np.zeros(shape.code_count, dtype=bool)
    r1 = np.array(rank_one_codes(shape), dtype=np.uint32)
    cur, r = r1, 1
    while cur.size:
        ranks[cur] = r
        hit[:] = False
        hit[_expand_level(cur, r1, semiring)] = True
        cur = np.flatnonzero(hit & (ranks == 255)).astype(np.uint32)
        r += 1
    ranks.flags.writeable = False
    return RankTable(shape, semiring, ranks)


def stratify(shape: Shape, semiring: Semiring) -> RankTable:
    """Stratify the full code space of a shape by exact rank.

    Only n = 3 and n = 4 are supported: the presence table for n = 5 would
    already need 2**32 flags.
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


@dataclass(frozen=True)
class RankShare:
    """One row of a rank distribution."""

    rank: int
    count: int
    percent: str
    percent_exact: Fraction


def rank_distribution(table: RankTable) -> tuple[RankShare, ...]:
    """Counts per stratum with percentages of the full code space."""
    total = table.shape.code_count
    decimals = PERCENT_DECIMALS[table.shape.n]
    return tuple(
        RankShare(
            rank=r,
            count=count,
            percent=percent_text(count, total, decimals),
            percent_exact=Fraction(100 * count, total),
        )
        for r, count in enumerate(table.stratum_sizes)
    )
