"""Bit-coded 0-1 arrays of shape 2 x ... x 2.

An n-dimensional array whose extents are all 2 is packed into an unsigned
integer of 2**n bits.  Entries are linearized in lexicographic order of the
subscript tuples (the last subscript varies fastest), and the first entry of
the linearization occupies the most significant bit.  With that packing,
numeric comparison of codes coincides with lexicographic comparison of the
linearized arrays, so the minimal element of any set of arrays is simply the
smallest code.  The tables' block display of an n = 3 array is
`reporting.mat_compact`.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence, Tuple

Vec2 = Tuple[int, int]

#: The three nonzero 0-1 vectors of length 2.
NONZERO_VECS: tuple[Vec2, ...] = ((0, 1), (1, 0), (1, 1))


class ShapeMismatchError(ValueError):
    """Codes of different dimension were mixed in a single operation."""


class UnsupportedShapeError(ValueError):
    """The dimension is outside the range an operation supports."""


class _Checked:
    """Base of the namedtuples whose __new__ validates its arguments and
    stores each integer field as a plain int (operator.index, so floats
    raise TypeError): _make, and with it _replace, builds through the class,
    so no route skips it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Shape(_Checked, NamedTuple("Shape", [("n", int)])):
    """Dimension count of a 2 x ... x 2 array (every extent is fixed at 2).

    Full enumeration is only feasible for n = 3, 4; dimensions up to 6 are
    accepted as values, and every operation that enumerates a code space
    rejects them with UnsupportedShapeError.
    """

    __slots__ = ()

    def __new__(cls, n: int) -> Shape:
        n = operator.index(n)
        if not 3 <= n <= 6:
            raise UnsupportedShapeError(f"dimension must be in 3..6, got {n}")
        return tuple.__new__(cls, (n,))

    @property
    def m(self) -> int:
        """Cell count 2**n."""
        return 1 << self.n

    @property
    def code_count(self) -> int:
        """Number of distinct 0-1 arrays of this shape, 2**(2**n)."""
        return 1 << self.m

    def subscripts(self) -> Iterator[tuple[int, ...]]:
        """All subscript tuples in lexicographic order."""
        return itertools.product((1, 2), repeat=self.n)


def _checked_shape(shape: Shape) -> Shape:
    if not isinstance(shape, Shape):
        raise TypeError(f"shape must be a Shape, got {type(shape).__name__}")
    return shape


class ArrayCode(_Checked, NamedTuple("ArrayCode", [("code", int), ("shape", Shape)])):
    """A 0-1 array of 2 x ... x 2 shape packed into an unsigned integer."""

    __slots__ = ()

    def __new__(cls, code: int, shape: Shape) -> ArrayCode:
        code, shape = operator.index(code), _checked_shape(shape)
        if not 0 <= code < shape.code_count:
            raise ValueError(f"code {code} out of range for dimension {shape.n}")
        return tuple.__new__(cls, (code, shape))

    # Numeric order on codes is the lexicographic order on linearizations;
    # comparing codes of different shapes is a usage error, not False.
    def _same_shape(self, other: "ArrayCode") -> "ArrayCode":
        if not isinstance(other, ArrayCode):
            raise TypeError(f"cannot compare ArrayCode with {type(other).__name__}")
        if other.shape != self.shape:
            raise ShapeMismatchError(
                f"cannot compare codes of dimension {self.shape.n} and {other.shape.n}"
            )
        return other

    def __lt__(self, other: "ArrayCode") -> bool:
        return self.code < self._same_shape(other).code

    def __le__(self, other: "ArrayCode") -> bool:
        return self.code <= self._same_shape(other).code

    def __gt__(self, other: "ArrayCode") -> bool:
        return self.code > self._same_shape(other).code

    def __ge__(self, other: "ArrayCode") -> bool:
        return self.code >= self._same_shape(other).code

    def ones(self) -> int:
        """Number of entries equal to 1."""
        return self.code.bit_count()

    def bit(self, subs: Sequence[int]) -> int:
        """Entry at a subscript tuple: n subscripts, each 1 or 2."""
        subs = tuple(map(operator.index, subs))
        if len(subs) != self.shape.n or any(i not in (1, 2) for i in subs):
            raise ValueError(f"subscripts {subs} do not index dimension {self.shape.n}")
        q = 0
        for i in subs:
            q = (q << 1) | (i - 1)
        return (self.code >> (self.shape.m - 1 - q)) & 1

    def entries(self) -> tuple[int, ...]:
        """Entries in linearization order."""
        m = self.shape.m
        return tuple((self.code >> (m - 1 - q)) & 1 for q in range(m))

    def text(self) -> str:
        """Linearization as a string of '0'/'1' characters, no separators."""
        return format(self.code, f"0{self.shape.m}b")

    @classmethod
    def from_text(cls, text: str, shape: Shape) -> "ArrayCode":
        """Parse a 0/1 string in linearization order; spaces are ignored."""
        shape, digits = _checked_shape(shape), text.replace(" ", "")
        if len(digits) != shape.m or set(digits) - {"0", "1"}:
            raise ValueError(
                f"expected {shape.m} characters '0'/'1', got {text!r}"
            )
        return cls(int(digits, 2), shape)


def flatten(cells: Mapping[tuple[int, ...], int], shape: Shape) -> ArrayCode:
    """Pack a subscript-to-entry mapping into a code.

    Every subscript tuple of the shape must be present exactly once and no
    other key may appear.
    """
    expected = set(_checked_shape(shape).subscripts())
    given = set(cells)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        raise ValueError(
            f"malformed cell map for dimension {shape.n}: "
            f"missing {missing[:3]}{'...' if len(missing) > 3 else ''}, "
            f"unexpected {extra[:3]}{'...' if len(extra) > 3 else ''}"
        )
    code = 0
    for subs in shape.subscripts():
        v = operator.index(cells[subs])
        if v not in (0, 1):
            raise ValueError(f"entry at {subs} must be 0 or 1, got {v!r}")
        code = (code << 1) | v
    return ArrayCode(code, shape)


def unflatten(a: ArrayCode) -> dict[tuple[int, ...], int]:
    """Inverse of :func:`flatten`."""
    return {subs: a.bit(subs) for subs in a.shape.subscripts()}


def outer_product(factors: Sequence[Vec2], shape: Shape) -> ArrayCode:
    """Rank-1 array whose entry at (i_1, ..., i_n) is the product of factor
    entries v_{j, i_j}.

    Exactly n factors are required and each must be one of the three nonzero
    0-1 vectors: rank-1 arrays are products of nonzero vectors only.
    """
    if len(factors) != _checked_shape(shape).n:
        raise ValueError(f"expected {shape.n} factors, got {len(factors)}")
    pairs = [tuple(map(operator.index, v)) for v in factors]
    for j, (v, pair) in enumerate(zip(factors, pairs), start=1):
        if pair not in NONZERO_VECS:
            raise ValueError(f"factor {j} must be a nonzero 0-1 pair, got {v!r}")
    code = 1  # prepend the factors last to first, as rank_one_codes does
    for k, (a, b) in enumerate(reversed(pairs)):
        code = a * code << (1 << k) | b * code
    return ArrayCode(code, shape)


@lru_cache(maxsize=None, typed=True)
def rank_one_codes(shape: Shape) -> tuple[int, ...]:
    """Sorted raw codes of all rank-1 arrays; there are exactly 3**n."""
    # prepend a factor (a, b) to the codes r of k factors: the new first
    # subscript selects the high half (entry a) or the low half (entry b)
    codes = [1]
    for k in range(_checked_shape(shape).n):
        codes = [a * r << (1 << k) | b * r for a, b in NONZERO_VECS for r in codes]
    return tuple(sorted(codes))


def _delta_swap(x: int, delta: int, lower: int) -> int:
    """One delta swap (Knuth, TAOCP 4A, 7.1.3): each bit b in lower trades
    places with bit b + delta; lower and lower << delta must be disjoint."""
    t = (x ^ x >> delta) & lower
    return x ^ t ^ t << delta


def _cell_swap(n: int, delta: int, bits: int, low: int) -> tuple[int, int]:
    """A map exchanging each cell b with b & bits == low and the cell b + delta,
    as (delta, lower): lower is the bitset of those cells b."""
    return delta, sum(1 << b for b in range(1 << n) if b & bits == low)


def _slice_swap(n: int, d: int) -> tuple[int, int]:
    """The swap of the slices at subscripts 1 and 2 along direction d as a cell
    swap: its lower cells are those at subscript 2 (see _transposition)."""
    s = 1 << (n - d)
    return _cell_swap(n, s, s, 0)


def _transposition(n: int, j: int, k: int, anti: bool = False) -> tuple[int, int]:
    """The transposition of directions j < k as a cell swap or, if anti, the
    anti-transposition that also swaps the slices along both.

    Code bit b holds the cell with subscript 1 along d iff bit n - d of b is
    set, so the transposition exchanges the cells with subscripts (2, 1) and
    (1, 2) along j, k, the anti-transposition those with (2, 2) and (1, 1).
    """
    h, l = 1 << (n - j), 1 << (n - k)
    return _cell_swap(n, h + l, h | l, 0) if anti else _cell_swap(n, h - l, h | l, l)
