"""Exact tensor-rank stratification of all codes of one shape.

Rank is the minimal number of rank-1 terms summing to an array, where the
meaning of "sum" is selected by the semiring: exclusive-or for the field
with two elements, inclusive-or for the Boolean case, and inclusive-or
restricted to disjoint supports for the non-negative integer case (a pair
of terms sharing a 1 simply contributes no candidate).

A stratification is one dense array holding the rank of every code.  It is
computed level by level: the arrays of rank r + 1 are the sums x + y with x
of exact rank r and y of rank 1, minus everything already ranked.

Only the minimum of each orbit of the n-cube's symmetry group (order
2**n * n!, generated by slice swaps and transpositions of directions) is
expanded.  The group permutes cells, so it maps rank-1 arrays to rank-1
arrays and commutes with xor, or and the disjointness test: every level is
a union of orbits, and g(x) + y = g(x + g⁻¹(y)).  Each level's sums are
mapped to their orbit minima and scattered into a bitmap with one flag per
code; the new level is the flagged minima still unranked.  GF(2) rank has a
larger symmetry group, but this one serves all three semirings alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arrays import ArrayCode, Shape, ShapeMismatchError, UnsupportedShapeError, rank_one_codes

# numpy and fractions are imported by the functions that use them: every
# command imports this module, and `bounds` needs neither.


class Semiring(enum.Enum):
    """Addition semantics on {0, 1}: 1+1 = 0, 1 or 2 respectively."""

    GF2 = "gf2"
    BOOLEAN = "bool"
    NONNEG = "nat"


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
        import numpy as np
        if not isinstance(other, RankTable):
            return NotImplemented
        same_key = (self.shape, self.semiring) == (other.shape, other.semiring)
        return same_key and np.array_equal(self.ranks, other.ranks)

    @cached_property
    def stratum_sizes(self) -> tuple[int, ...]:
        import numpy as np
        return tuple(np.bincount(self.ranks).tolist())

    @property
    def r_max(self) -> int:
        return len(self.stratum_sizes) - 1

    @cached_property
    def strata(self) -> tuple[tuple[int, ...], ...]:
        import numpy as np
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
    import numpy as np
    if semiring is Semiring.GF2:
        return np.bitwise_xor.outer(cur, r1).ravel()
    if semiring is Semiring.BOOLEAN:
        return np.bitwise_or.outer(cur, r1).ravel()
    keep = np.bitwise_and.outer(cur, r1).ravel() == 0
    return np.bitwise_or.outer(cur, r1).ravel()[keep]


def _linear_table(images: list[int]) -> np.ndarray:
    # Every generator is linear over F2, so the image of a code is the xor of
    # images[b] over its set bits b.  Split into halves, code = hi << k | lo
    # maps to table_hi[hi] ^ table_lo[lo]: one xor-outer product.
    import numpy as np
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
def _cube_tables(n: int) -> tuple[np.ndarray, ...]:
    # The slice swaps along directions d = 1..n, then the transpositions of
    # directions j, j + 1.  Both permute cells: code bit b holds the cell with
    # subscript 1 along d iff bit n - d of b is set.
    cells = [[b ^ 1 << (n - d) for b in range(1 << n)] for d in range(1, n + 1)]
    cells += [[b ^ ((b >> (n - j) ^ b >> (n - j - 1)) & 1) * (3 << (n - j - 1))
               for b in range(1 << n)] for j in range(1, n)]
    return tuple(_linear_table([1 << c for c in images]) for images in cells)


def _min_steps(labels: np.ndarray, steps, transpositions=()) -> np.ndarray:
    # labels = minimum(labels, labels[t]) in place along the steps, then along
    # the bubble sequence of the transpositions (see bitcube.groups)
    import numpy as np
    bubble = (transpositions[j] for i in range(len(transpositions)) for j in range(i, -1, -1))
    for t in [*steps, *bubble]:
        np.minimum(labels, labels.take(t), out=labels)
    labels.flags.writeable = False
    return labels


@lru_cache(maxsize=None)
def _cube_labels(n: int) -> np.ndarray:
    # the minimum of every code's orbit under the n-cube's symmetry group
    import numpy as np
    tables = _cube_tables(n)
    return _min_steps(np.arange(1 << (1 << n), dtype=np.uint32), tables[:n], tables[n:])


@lru_cache(maxsize=None)
def _stratify(n: int, semiring: Semiring) -> RankTable:
    import numpy as np
    labels = _cube_labels(n)
    rep_rank = np.full(labels.size, 255, dtype=np.uint8)  # 255: not ranked yet
    rep_rank[0] = 0
    hit = np.zeros(labels.size, dtype=bool)
    r1 = np.array(rank_one_codes(Shape(n)), dtype=np.uint32)
    hit[labels[r1]] = True
    cur, r = np.flatnonzero(hit).astype(np.uint32), 1
    while cur.size:
        rep_rank[cur] = r
        hit[:] = False
        hit[labels[_expand_level(cur, r1, semiring)]] = True
        cur = np.flatnonzero(hit & (rep_rank == 255)).astype(np.uint32)
        r += 1
    ranks = rep_rank[labels]
    ranks.flags.writeable = False
    return RankTable(Shape(n), semiring, ranks)


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
    from fractions import Fraction
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
