"""Independent orbit oracle: scalar group actions and full orbit expansion.

Shares no code with bitcube.groups, whose value types (GroupElement,
AxisPermutation) it uses only as containers.  The actions are written cell
by cell from their definitions on subscript tuples, and orbits are expanded
over every group element rather than closed under a generator set:

- a matrix g acting along direction d replaces the 2-vector of entries
  (x[.., 1, ..], x[.., 2, ..]) in that direction by g times it, mod 2;
- a direction permutation p moves the entry at (i_p(1), ..., i_p(n)) to
  (i_1, ..., i_n).

The small orbit is expanded axis by axis over all six matrices, so it costs
at most 6 + 36 + 216 + 1296 scalar actions at n = 4.  The large orbit is
the union of the small orbits of all direction permutations of the code,
since permutations normalize the small group.  The orbit under the n-cube's
symmetry group is expanded over all 2**n * n! cell maps: swap the two
slices of any subset of directions, then transpose subscripts.

The module also holds the engine's actions as whole-space numpy tables
(`axis_action_table`, `permutation_action_table`), for the tests that index
by them.  Those are not part of the oracle: they are built from the engine's
own per-bit images, and the tests check them against the scalar actions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from bitcube import ArrayCode, AxisPermutation, GroupElement, Shape
from bitcube.groups import _axis_images, _linear_table
from bitcube.stratify import _permuted_cells


def matmul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Matrix product g·h mod 2."""
    (a, b), (c, d) = g.rows
    (e, f), (x, y) = h.rows
    return GroupElement(
        (((a & e) ^ (b & x), (a & f) ^ (b & y)),
         ((c & e) ^ (d & x), (c & f) ^ (d & y)))
    )


def apply_vec(g: GroupElement, v: tuple[int, int]) -> tuple[int, int]:
    """Image of a column 2-vector under the matrix, mod 2."""
    (a, b), (c, d) = g.rows
    return ((a & v[0]) ^ (b & v[1]), (c & v[0]) ^ (d & v[1]))


#: All invertible 2x2 matrices over {0, 1}, enumerated by determinant.
MATRICES: tuple[GroupElement, ...] = tuple(
    GroupElement(((a, b), (c, d)))
    for a, b, c, d in itertools.product((0, 1), repeat=4)
    if (a * d - b * c) % 2 == 1
)


def _cell_masks(n: int, source_of) -> tuple[int, ...]:
    # per cell in linearization order, the mask of the code bits whose XOR
    # is the new entry; source_of maps a subscript tuple to those subscripts
    subs = list(itertools.product((1, 2), repeat=n))
    bit = {s: 1 << (len(subs) - 1 - q) for q, s in enumerate(subs)}
    return tuple(sum(bit[src] for src in source_of(s)) for s in subs)


@lru_cache(maxsize=None)
def _axis_masks(rows, direction: int, n: int) -> tuple[int, ...]:
    d = direction - 1
    return _cell_masks(n, lambda s: [
        s[:d] + (j,) + s[d + 1:] for j in (1, 2) if rows[s[d] - 1][j - 1]
    ])


@lru_cache(maxsize=None)
def _permutation_masks(perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    return _cell_masks(n, lambda s: [tuple(s[perm[j] - 1] for j in range(n))])


def _apply(masks: tuple[int, ...], code: int) -> int:
    out = 0
    for mask in masks:
        out = (out << 1) | (bin(code & mask).count("1") & 1)
    return out


def act_axis(g: GroupElement, a: ArrayCode, direction: int) -> ArrayCode:
    """Basis change along one direction: each 2-vector of that direction is
    left-multiplied by the matrix, mod 2."""
    if not 1 <= direction <= a.shape.n:
        raise ValueError(f"direction must be in 1..{a.shape.n}, got {direction}")
    return ArrayCode(_apply(_axis_masks(g.rows, direction, a.shape.n), a.code), a.shape)


def act_permutation(p: AxisPermutation, a: ArrayCode) -> ArrayCode:
    """Transpose subscripts: the entry at (i_1, ..., i_n) moves from
    position (i_p(1), ..., i_p(n)); p.perm[j-1] is the image of j."""
    if len(p.perm) != a.shape.n:
        raise ValueError(f"permutation acts on {len(p.perm)} directions, code has {a.shape.n}")
    return ArrayCode(_apply(_permutation_masks(p.perm, a.shape.n), a.code), a.shape)


@lru_cache(maxsize=None)
def _cube_masks(n: int) -> tuple[tuple[int, ...], ...]:
    # the entry at s comes from the subscripts s[perm[j]], with subscript
    # 1 <-> 2 exchanged in every direction j where flips[j] is set
    return tuple(
        _cell_masks(n, lambda s: [tuple(
            3 - s[perm[j]] if flips[j] else s[perm[j]] for j in range(n)
        )])
        for flips in itertools.product((False, True), repeat=n)
        for perm in itertools.permutations(range(n))
    )


def _permutations(n: int) -> list[AxisPermutation]:
    return [AxisPermutation(p) for p in itertools.permutations(range(1, n + 1))]


def _small_orbit_codes(code: int, n: int) -> list[int]:
    current = {code}
    for direction in range(1, n + 1):
        masks = [_axis_masks(g.rows, direction, n) for g in MATRICES]
        current = {_apply(m, x) for m in masks for x in current}
    return sorted(current)


def small_orbit_naive(a: ArrayCode) -> tuple[ArrayCode, ...]:
    """Full product expansion over all 6**n matrix tuples, axis by axis."""
    return tuple(ArrayCode(c, a.shape) for c in _small_orbit_codes(a.code, a.shape.n))


def large_orbit_naive(a: ArrayCode) -> tuple[ArrayCode, ...]:
    """Union of naive small orbits over all direction permutations."""
    out: set[ArrayCode] = set()
    for p in _permutations(a.shape.n):
        out.update(small_orbit_naive(act_permutation(p, a)))
    return tuple(sorted(out))


class OrbitMinima:
    """Orbit minima of codes of one dimension by full expansion.

    Each small orbit is expanded once and remembered for all its members.
    The large orbit minimum is the least small-orbit minimum over the
    direction permutations of the code; it depends only on the small orbit.
    Each orbit of the n-cube's symmetry group is expanded once over every
    cell map.
    """

    def __init__(self, n: int):
        self.shape = Shape(n)
        self._perms = _permutations(n)
        self._small: dict[int, int] = {}
        self._large: dict[int, int] = {}
        self._cube: dict[int, frozenset[int]] = {}

    def cube_orbit(self, code: int) -> frozenset[int]:
        if code not in self._cube:
            orbit = frozenset(_apply(masks, code) for masks in _cube_masks(self.shape.n))
            for member in orbit:
                self._cube[member] = orbit
        return self._cube[code]

    def small(self, code: int) -> int:
        if code not in self._small:
            orbit = _small_orbit_codes(code, self.shape.n)
            for member in orbit:
                self._small[member] = orbit[0]
        return self._small[code]

    def large(self, code: int) -> int:
        key = self.small(code)
        if key not in self._large:
            a = ArrayCode(key, self.shape)
            self._large[key] = min(
                self.small(act_permutation(p, a).code) for p in self._perms
            )
        return self._large[key]


# ---------------------------------------------------------------------------
# the engine's actions as numpy tables
# ---------------------------------------------------------------------------

def _array(images: list[int]):
    import numpy as np
    out = np.array(_linear_table(images), dtype=np.uint32)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def axis_action_table(g: GroupElement, direction: int, n: int):
    """Image of every code under one matrix acting along one direction, as a
    read-only numpy array."""
    return _array(_axis_images(g, direction, n))


@lru_cache(maxsize=None)
def permutation_action_table(p: AxisPermutation, n: int):
    """Image of every code under one direction permutation, as a read-only
    numpy array."""
    return _array([1 << c for c in _permuted_cells(p.perm, n)])
