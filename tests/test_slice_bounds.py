"""Slice bounds: every n = 4 rank against the n = 3 ranks of its slices.

Along any direction d an n = 4 code x is two n = 3 slices: A, its cells with
subscript 1 along d, and B, those with subscript 2.  Restricting a sum of
rank-1 terms to a slice leaves a sum of as many terms or fewer, and x is
A⊗(1, 0) + B⊗(0, 1), so in every semiring
max(r(A), r(B)) ≤ r(x) ≤ r(A) + r(B).  Over the field x is also
A⊗(1, 1) + (A ⊕ B)⊗(0, 1) and B⊗(1, 1) + (A ⊕ B)⊗(1, 0), so r(x) is at most
the least pairwise sum of r(A), r(B) and r(A ⊕ B).  A⊗v, the array with A in
the slices where v is 1, has the rank of A for each nonzero v: restriction
gives ≥ and the product gives ≤.

The slices are cut with subscript arithmetic written here, not with the
engine's cell swaps.
"""

import itertools

import numpy as np
import pytest

VECS = ((0, 1), (1, 0), (1, 1))

# per semiring, the number of n = 4 codes whose rank meets the lower bound and
# the upper bound (over the field, the least pairwise sum), the same along
# every direction
TIGHT = {"gf2": (6166, 52900), "bool": (4230, 38221), "nat": (3966, 39745)}


def _bit(subs):
    # the code bit of a cell: cells in lexicographic order of their
    # subscripts, the first at the most significant bit
    q = 0
    for i in subs:
        q = 2 * q + i - 1
    return (1 << len(subs)) - 1 - q


def _slice_bits(d, i):
    # the n = 4 code bits of the slice at subscript i along d, in the order of
    # the n = 3 code bits they become, most significant first
    return [_bit(s[:d - 1] + (i,) + s[d - 1:])
            for s in itertools.product((1, 2), repeat=3)]


def _cut(x, bits):
    # the n = 3 code made of x's bits at bits, the first most significant
    out = np.zeros_like(x)
    for b in bits:
        out = out << 1 | x >> b & 1
    return out


def _paste(a, bits):
    # the n = 4 code with the n = 3 code a at bits and zeros elsewhere
    return sum((a >> 7 - k & 1) << b for k, b in enumerate(bits))


@pytest.fixture(scope="module")
def ranks(tables):
    """Per (n, semiring), the rank of every code as an array."""
    out = {}
    for key, table in tables.items():
        out[key] = np.empty(table.shape.code_count, dtype=np.int64)
        for r, codes in enumerate(table.strata):
            out[key][list(codes)] = r
    return out


@pytest.mark.parametrize("d", (1, 2, 3, 4))
@pytest.mark.parametrize("semiring", sorted(TIGHT))
def test_rank_lies_between_the_slice_bounds(ranks, semiring, d):
    r3, r4 = ranks[3, semiring], ranks[4, semiring]
    x = np.arange(1 << 16)
    a, b = _cut(x, _slice_bits(d, 1)), _cut(x, _slice_bits(d, 2))
    lower, upper = np.maximum(r3[a], r3[b]), r3[a] + r3[b]
    assert np.all(lower <= r4) and np.all(r4 <= upper)
    if semiring == "gf2":
        upper = np.minimum.reduce((upper, r3[a] + r3[a ^ b], r3[b] + r3[a ^ b]))
        assert np.all(r4 <= upper)
    assert (np.count_nonzero(r4 == lower), np.count_nonzero(r4 == upper)) == TIGHT[semiring]


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_slice_times_a_vector_keeps_its_rank(ranks, d):
    a = np.arange(256)
    slices = _paste(a, _slice_bits(d, 1)), _paste(a, _slice_bits(d, 2))
    for v in VECS:
        x = v[0] * slices[0] + v[1] * slices[1]
        assert np.all(_cut(x, _slice_bits(d, 1)) == v[0] * a)
        for semiring in TIGHT:
            assert np.array_equal(ranks[4, semiring][x], ranks[3, semiring]), (v, semiring)
