"""Rank and symmetry classification of 0-1 arrays of shape 2 x ... x 2.

The package enumerates every 0-1 array of shape 2x2x2 and 2x2x2x2, computes
its exact tensor rank under three addition rules (field with two elements,
Boolean, non-negative integers), classifies orbits and canonical forms under
the two symmetry groups defined over the field, and emits or verifies the
full result tables.

The names of `cache`, `expected`, `groups` and `reporting` are imported on
first access (PEP 562), so that each command loads only the modules it runs.
Those of `stratify` are imported eagerly: the function `stratify` shares its
name with the submodule, which would otherwise shadow it once imported.
FORMATS and TABLE_KINDS are defined here, where the CLI's parser reads them
without loading `reporting`.
"""

from importlib import import_module

from .arrays import (
    ArrayCode,
    NONZERO_VECS,
    Shape,
    ShapeMismatchError,
    UnsupportedShapeError,
    flatten,
    outer_product,
    rank_one_codes,
    render_mat,
    unflatten,
)
from .stratify import (
    RankShare,
    RankTable,
    Semiring,
    rank_distribution,
    rank_of,
    stratify,
)

__version__ = "0.1.0"

#: Text formats of every table: Markdown, CSV and JSON.
FORMATS = ("md", "csv", "json")

#: Emission order of `emit_all_tables` and the CLI's --kind all.
TABLE_KINDS = (
    "strata-3-gf2",
    "strata-3-bool",
    "strata-3-nat",
    "strata-4-gf2",
    "strata-4-bool",
    "strata-4-nat",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "split-3",
    "split-4",
    "small-split-3",
    "lower-bounds",
)

_LAZY = {
    "cache": ("CacheError", "dump_table", "load_table"),
    "groups": ("GL2_F2", "GL2_GENERATORS", "AxisPermutation", "GroupElement",
               "OrbitRecord", "OrbitSplit", "all_axis_permutations", "canonical_form",
               "classify", "large_orbit", "orbit_split", "small_orbit"),
    "expected": ("VerifyReport", "verify_all"),
    "reporting": ("PartitionRow", "emit_all_tables", "emit_table", "lower_bounds",
                  "partition_by_ones"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__all__ = [
    "ArrayCode", "AxisPermutation", "CacheError", "GL2_F2", "GL2_GENERATORS",
    "GroupElement", "NONZERO_VECS", "OrbitRecord", "OrbitSplit", "PartitionRow",
    "RankShare", "RankTable", "Semiring", "Shape", "ShapeMismatchError",
    "TABLE_KINDS", "UnsupportedShapeError", "VerifyReport",
    "all_axis_permutations", "canonical_form", "classify", "dump_table",
    "emit_all_tables", "emit_table", "flatten", "large_orbit", "load_table",
    "lower_bounds", "orbit_split", "outer_product", "partition_by_ones",
    "rank_distribution", "rank_of", "rank_one_codes", "render_mat",
    "small_orbit", "stratify", "unflatten", "verify_all",
]
