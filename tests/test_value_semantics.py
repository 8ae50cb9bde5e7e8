"""Value semantics of the public value classes.

Equal values compare and hash equal, no attribute can be assigned, the
repr names every field, and each rejected input raises the same error type
with the same message, however the value is built: through the
constructor, or through `_replace` and `_make` where the class has them.
"""

import re

import numpy as np
import pytest

from bitcube import (
    ArrayCode,
    RankTable,
    Semiring,
    Shape,
    ShapeMismatchError,
    UnsupportedShapeError,
    flatten,
    lower_bounds,
    outer_product,
    rank_one_codes,
    stratify,
)

FLOAT = "'float' object cannot be interpreted as an integer"


def _table():
    return stratify(Shape(3), Semiring.GF2)


LEVELS = _table().levels
PARTITION = "levels do not partition the code space, or one is empty"


# (a value, an equal value built separately, an unequal value)
VALUES = {
    "Shape": lambda: (Shape(3), Shape(3), Shape(4)),
    "ArrayCode": lambda: (ArrayCode(5, Shape(3)), ArrayCode(5, Shape(3)),
                          ArrayCode(5, Shape(4))),
    "RankTable": lambda: (_table(), RankTable(Shape(3), Semiring.GF2, _table().levels),
                          stratify(Shape(3), Semiring.BOOLEAN)),
}


def _fields(value):
    return {Shape: ("n",), ArrayCode: ("code", "shape"),
            RankTable: ("shape", "semiring", "levels")}[type(value)]


@pytest.mark.parametrize("kind", VALUES)
def test_equal_values_compare_and_hash_equal(kind):
    value, same, other = VALUES[kind]()
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("kind", VALUES)
def test_no_attribute_can_be_assigned(kind):
    value = VALUES[kind]()[0]
    before = repr(value)
    for name in (*_fields(value), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name in _fields(value):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


def test_repr_names_every_field():
    assert repr(Shape(3)) == "Shape(n=3)"
    assert repr(ArrayCode(5, Shape(3))) == "ArrayCode(code=5, shape=Shape(n=3))"
    table = _table()
    assert repr(table) == (
        "RankTable(shape=Shape(n=3), semiring=<Semiring.GF2: 'gf2'>, "
        f"levels={table.levels!r})"
    )


def test_shapes_are_ordered():
    assert Shape(3) < Shape(4) <= Shape(4) < Shape(6)
    assert max(Shape(5), Shape(3), Shape(4)) == Shape(5)


def test_code_comparisons_reject_other_shapes_and_types():
    a, b = ArrayCode(5, Shape(3)), ArrayCode(6, Shape(3))
    assert a < b and a <= b and b > a and b >= a
    message = "cannot compare codes of dimension 3 and 4"
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(ShapeMismatchError, match=message):
            getattr(a, op)(ArrayCode(5, Shape(4)))
        with pytest.raises(TypeError, match="cannot compare ArrayCode with int"):
            getattr(a, op)(5)
    with pytest.raises(ShapeMismatchError, match=message):
        assert a < ArrayCode(6, Shape(4))
    with pytest.raises(TypeError, match="cannot compare ArrayCode with int"):
        assert 5 < a


# (class, valid arguments, field to change, rejected value, error type, message)
REJECTED = [
    (Shape, (3,), "n", 7, UnsupportedShapeError, "dimension must be in 3..6, got 7"),
    (ArrayCode, (5, Shape(3)), "code", 256, ValueError,
     "code 256 out of range for dimension 3"),
    (ArrayCode, (5, Shape(3)), "code", -1, ValueError,
     "code -1 out of range for dimension 3"),
    # integer fields take integers only: a float raises, even a whole one
    (Shape, (3,), "n", 3.5, TypeError, FLOAT),
    (Shape, (3,), "n", 4.0, TypeError, FLOAT),
    (ArrayCode, (5, Shape(3)), "code", 5.0, TypeError, FLOAT),
    # a shape that is not a Shape, and each kind of invalid rank-table field
    (ArrayCode, (5, Shape(3)), "shape", 3, TypeError, "shape must be a Shape, got int"),
    (ArrayCode, (5, Shape(3)), "shape", (3,), TypeError,
     "shape must be a Shape, got tuple"),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "shape", 3, TypeError,
     "shape must be a Shape, got int"),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "semiring", "z2", ValueError,
     "'z2' is not a valid Semiring"),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "levels", (), ValueError,
     "stratum 0 is not the zero array alone"),
    # a code left out, a code out of range in its place, a code in two
    # levels, an empty level
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "levels", LEVELS[:-1], ValueError,
     PARTITION),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "levels",
     (*LEVELS[:-1], LEVELS[-1] & LEVELS[-1] - 1 | 1 << 256), ValueError, PARTITION),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "levels", (*LEVELS, 1 << 255), ValueError,
     PARTITION),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "levels", (*LEVELS, 0), ValueError,
     PARTITION),
    (RankTable, (Shape(3), Semiring.GF2, LEVELS), "levels", (1.0, *LEVELS[1:]), TypeError,
     FLOAT),
]


@pytest.mark.parametrize("cls, args, field, bad, error, message", REJECTED)
def test_rejected_input_raises_the_same_error_on_every_route(
    cls, args, field, bad, error, message
):
    position = _fields(cls(*args)).index(field)
    bad_args = args[:position] + (bad,) + args[position + 1:]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(*bad_args)
    if hasattr(cls, "_replace"):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(*args)._replace(**{field: bad})
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls._make(bad_args)
        assert type(cls(*args)._replace(**{field: args[position]})) is cls


# every function that takes a shape checks it, with the constructors' message
SHAPE_TAKERS = {
    "ArrayCode": lambda shape: ArrayCode(5, shape),
    "from_text": lambda shape: ArrayCode.from_text("0" * 8, shape),
    "flatten": lambda shape: flatten({}, shape),
    "outer_product": lambda shape: outer_product([(1, 1)] * 3, shape),
    "rank_one_codes": rank_one_codes,
    "stratify": lambda shape: stratify(shape, "gf2"),
}


@pytest.mark.parametrize("bad", (3, (3,)), ids=("int", "tuple"))
@pytest.mark.parametrize("call", SHAPE_TAKERS.values(), ids=SHAPE_TAKERS)
def test_every_function_taking_a_shape_rejects_a_non_shape(call, bad):
    rank_one_codes(Shape(3))  # a cached Shape(3) must not answer for (3,)
    message = f"shape must be a Shape, got {type(bad).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(bad)


class Index:
    """An integer type that is not int: it has __index__ and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _leaves(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_any_integer_type_is_stored_as_a_plain_int():
    values = [
        (Shape(Index(4)), Shape(4)),
        (ArrayCode(Index(5), Shape(3)), ArrayCode(5, Shape(3))),
        (Shape(3)._replace(n=Index(4)), Shape(4)),
        (ArrayCode._make((Index(5), Shape(3))), ArrayCode(5, Shape(3))),
    ]
    for value, plain in values:
        assert value == plain and repr(value) == repr(plain)
        assert all(type(leaf) is int for leaf in _leaves(value))
    assert stratify(Shape(Index(3)), Semiring.GF2) is _table()
    table = RankTable(Shape(3), "gf2", map(Index, LEVELS))
    assert table == _table() and table.semiring is Semiring.GF2
    assert all(type(level) is int for level in table.levels)


def test_rank_table_is_a_tuple_of_its_fields():
    table = _table()
    shape, semiring, levels = table
    assert (shape, semiring, levels) == (Shape(3), Semiring.GF2, table.levels)
    assert table == (table.shape, table.semiring, table.levels)


def test_rank_table_strata_are_made_once():
    table = _table()
    assert table.strata is table.strata
    same = RankTable(table.shape, table.semiring, table.levels)
    assert same.strata is table.strata


@pytest.mark.parametrize("n", (5, 6))
def test_lower_bounds_take_any_integer_type(n):
    # numpy scalars would otherwise overflow 64 bits where n = 6 needs more
    for given in (np.int64(n), np.uint8(n), Index(n)):
        bounds = lower_bounds(given)
        assert bounds == lower_bounds(n)
        assert all(type(bound) is int for bound in bounds)
    with pytest.raises(TypeError, match=f"^{re.escape(FLOAT)}$"):
        lower_bounds(4.0)


@pytest.mark.parametrize("n, dtype, codes", [(3, np.uint8, (1, 105, 200, 255)),
                                             (4, np.uint16, (1, 27581, 65535))])
def test_rank_of_code_takes_any_integer_type(n, dtype, codes):
    table = stratify(Shape(n), "gf2")
    for code in codes:
        for given in (dtype(code), np.int64(code), Index(code)):
            assert table.rank_of_code(given) == table.rank_of_code(code)
    with pytest.raises(TypeError, match=f"^{re.escape(FLOAT)}$"):
        table.rank_of_code(5.0)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
@pytest.mark.parametrize("kind", (np.uint8, np.int8, np.int64, Index),
                         ids=lambda kind: kind.__name__)
def test_entries_and_subscripts_take_any_integer_type(kind, n):
    # a numpy entry would otherwise build or shift the code at its own width
    shape = Shape(n)
    for cells in ({subs: 1 for subs in shape.subscripts()},
                  {subs: sum(subs) % 3 & 1 for subs in shape.subscripts()}):
        given = {subs: kind(v) for subs, v in cells.items()}
        assert flatten(given, shape).code == flatten(cells, shape).code
    for factors in ([(1, 1)] * n, [((0, 1), (1, 0), (1, 1))[j % 3] for j in range(n)]):
        given = [(kind(a), kind(b)) for a, b in factors]
        assert outer_product(given, shape).code == outer_product(factors, shape).code
    for code in (shape.code_count - 1, rank_one_codes(shape)[n]):
        a = ArrayCode(code, shape)
        for subs in shape.subscripts():
            assert a.bit(tuple(map(kind, subs))) == a.bit(subs)
    floats = (lambda: flatten(dict.fromkeys(shape.subscripts(), 1.0), shape),
              lambda: outer_product([(1.0, 1)] * n, shape),
              lambda: ArrayCode(0, shape).bit((1.0,) * n))
    for call in floats:
        with pytest.raises(TypeError, match=f"^{re.escape(FLOAT)}$"):
            call()
