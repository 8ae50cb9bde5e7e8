"""Rank and symmetry classification of 0-1 arrays of shape 2 x ... x 2.

The package enumerates every 0-1 array of shape 2x2x2 and 2x2x2x2, computes
its exact tensor rank under three addition rules (field with two elements,
Boolean, non-negative integers), classifies orbits and canonical forms under
the two symmetry groups defined over the field, and emits or verifies the
full result tables.

Every public name is imported on first access (PEP 562) from the submodule
that `_LAZY` lists it under, so `import bitcube` loads no submodule and each
command loads only the modules it runs.  FORMATS and TABLE_KINDS are defined
here, where the CLI's parser reads them without loading `reporting`.
"""

from importlib import import_module

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
    "arrays": ("ArrayCode", "NONZERO_VECS", "Shape", "ShapeMismatchError",
               "UnsupportedShapeError", "flatten", "outer_product", "rank_one_codes",
               "render_mat", "unflatten"),
    "ranks": ("PartitionRow", "RankTable", "Semiring", "lower_bounds", "partition_by_ones",
              "rank_of", "stratify"),
    "cache": ("CacheError", "dump_table", "load_table"),
    "groups": ("OrbitRecord", "OrbitSplit", "canonical_form", "classify",
               "large_orbit", "orbit_split", "small_orbit"),
    "expected": ("VerifyReport", "verify_all"),
    "reporting": ("RankShare", "emit_all_tables", "emit_table", "rank_distribution"),
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


__all__ = sorted([*_MODULE_OF, "TABLE_KINDS"])
