import itertools

import pytest
from hypothesis import given, strategies as st

from bitcube import (
    ArrayCode,
    Shape,
    ShapeMismatchError,
    UnsupportedShapeError,
    flatten,
    outer_product,
    rank_one_codes,
    unflatten,
)
from bitcube.arrays import NONZERO_VECS
from bitcube.reporting import mat_compact

S3 = Shape(3)
S4 = Shape(4)

codes_3 = st.integers(0, 255)
codes_4 = st.integers(0, 65535)


def test_shape_bounds():
    assert Shape(3).m == 8
    assert Shape(4).m == 16
    assert Shape(6).m == 64
    for bad in (2, 7, 0, -1):
        with pytest.raises(UnsupportedShapeError):
            Shape(bad)


def test_code_space_sizes():
    assert S3.code_count == 256
    assert S4.code_count == 65536


def test_flatten_zero_array():
    cells = {subs: 0 for subs in S3.subscripts()}
    assert flatten(cells, S3).code == 0


def test_flatten_last_cell_is_least_significant_bit():
    cells = {subs: 0 for subs in S3.subscripts()}
    cells[(2, 2, 2)] = 1
    a = flatten(cells, S3)
    assert a.code == 1
    assert a.entries() == (0, 0, 0, 0, 0, 0, 0, 1)


def test_flatten_first_cell_is_most_significant_bit():
    cells = {subs: 0 for subs in S3.subscripts()}
    cells[(1, 1, 1)] = 1
    assert flatten(cells, S3).code == 128


def test_flatten_rejects_missing_and_extra_keys():
    cells = {subs: 0 for subs in S3.subscripts()}
    del cells[(1, 2, 1)]
    with pytest.raises(ValueError, match="missing"):
        flatten(cells, S3)
    cells[(1, 2, 1)] = 0
    cells[(3, 1, 1)] = 0
    with pytest.raises(ValueError, match="unexpected"):
        flatten(cells, S3)


def test_flatten_rejects_non_binary_entries():
    cells = {subs: 0 for subs in S3.subscripts()}
    cells[(1, 1, 2)] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        flatten(cells, S3)


def test_unflatten_examples():
    assert unflatten(ArrayCode(1, S3)) == {
        subs: int(subs == (2, 2, 2)) for subs in S3.subscripts()
    }
    assert unflatten(ArrayCode(0, S4)) == {subs: 0 for subs in S4.subscripts()}
    assert unflatten(ArrayCode(128, S3)) == {
        subs: int(subs == (1, 1, 1)) for subs in S3.subscripts()
    }


def test_round_trip_exhaustive_n3():
    for code in range(256):
        a = ArrayCode(code, S3)
        assert flatten(unflatten(a), S3) == a


@given(codes_4)
def test_round_trip_n4(code):
    a = ArrayCode(code, S4)
    assert flatten(unflatten(a), S4) == a


def test_numeric_order_is_lexicographic_order_n3():
    by_entries = sorted(range(256), key=lambda c: ArrayCode(c, S3).entries())
    assert by_entries == list(range(256))


@given(codes_4, codes_4)
def test_numeric_order_is_lexicographic_order_n4(x, y):
    a, b = ArrayCode(x, S4), ArrayCode(y, S4)
    assert (a.entries() < b.entries()) == (x < y)


def test_outer_product_single_cell():
    a = outer_product([(0, 1), (0, 1), (0, 1)], S3)
    assert a.code == 1


def test_outer_product_all_ones():
    a = outer_product([(1, 1), (1, 1), (1, 1)], S3)
    assert a.code == 255


def test_outer_product_rejects_zero_factor():
    with pytest.raises(ValueError, match="nonzero"):
        outer_product([(0, 0), (0, 1), (1, 1)], S3)


def test_outer_product_requires_n_factors():
    with pytest.raises(ValueError, match="factors"):
        outer_product([(0, 1), (0, 1)], S3)


@pytest.mark.parametrize("shape,expected", [(S3, 27), (S4, 81)])
def test_rank_one_count_is_3_to_the_n(shape, expected):
    codes = rank_one_codes(shape)
    assert len(codes) == expected
    assert list(codes) == sorted(set(codes))
    assert 0 not in codes
    products = itertools.product(NONZERO_VECS, repeat=shape.n)
    assert set(codes) == {outer_product(f, shape).code for f in products}


def test_all_outer_products_distinct_n3():
    seen = {
        outer_product(f, S3).code
        for f in itertools.product(NONZERO_VECS, repeat=3)
    }
    assert len(seen) == 27


def test_ones_count():
    assert ArrayCode(0, S3).ones() == 0
    assert ArrayCode(255, S3).ones() == 8
    assert ArrayCode(0b01101001, S3).ones() == 4


def test_mat_compact_zero():
    assert mat_compact(ArrayCode(0, S3)) == "[0 0 | 0 0 / 0 0 | 0 0]"


def test_mat_compact_examples():
    a = ArrayCode.from_text("00010100", S3)
    assert mat_compact(a) == "[0 0 | 0 1 / 0 0 | 1 0]"
    b = ArrayCode.from_text("01101101", S3)
    assert mat_compact(b) == "[0 1 | 1 0 / 1 0 | 1 1]"


def test_mat_compact_rejects_other_dimensions():
    with pytest.raises(UnsupportedShapeError):
        mat_compact(ArrayCode(0, S4))


def test_text_round_trip_and_spaces():
    a = ArrayCode.from_text("0110 1001 1001 0110", S4)
    assert a.text() == "0110100110010110"
    assert ArrayCode.from_text(a.text(), S4) == a


@given(codes_3)
def test_text_round_trip_n3(code):
    a = ArrayCode(code, S3)
    assert ArrayCode.from_text(a.text(), S3) == a


def test_from_text_rejects_bad_input():
    with pytest.raises(ValueError):
        ArrayCode.from_text("0101", S3)
    with pytest.raises(ValueError):
        ArrayCode.from_text("0000000x", S3)


def test_code_comparisons_same_shape_only():
    a, b = ArrayCode(3, S3), ArrayCode(5, S3)
    assert a < b and b > a and a <= a and b >= b
    with pytest.raises(ShapeMismatchError):
        a < ArrayCode(3, S4)  # noqa: B015


def test_code_range_checked():
    with pytest.raises(ValueError):
        ArrayCode(256, S3)
    with pytest.raises(ValueError):
        ArrayCode(-1, S3)


def test_bit_rejects_subscripts_outside_the_shape():
    a = ArrayCode(128, S3)
    assert a.bit((1, 1, 1)) == 1
    for subs in ((1, 1), (0, 1, 1), (1, 1, 3), (3, 1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="dimension 3"):
            a.bit(subs)
