"""Rank and symmetry classification of 0-1 arrays of shape 2 x ... x 2.

The package enumerates every 0-1 array of shape 2x2x2 and 2x2x2x2, computes
its exact tensor rank under three addition rules (field with two elements,
Boolean, non-negative integers), classifies orbits and canonical forms under
the two symmetry groups defined over the field, and emits or verifies the
full result tables.
"""

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
from .cache import CacheError, cache_filename, dump_table, load_table
from .groups import (
    GL2_F2,
    GL2_GENERATORS,
    AxisPermutation,
    GroupElement,
    OrbitRecord,
    OrbitSplit,
    all_axis_permutations,
    classify,
    large_orbit,
    orbit_labels,
    orbit_split,
    small_orbit,
)
from .reporting import (
    PartitionRow,
    TABLE_KINDS,
    VerifyReport,
    emit_all_tables,
    emit_table,
    lower_bounds,
    partition_by_ones,
    verify_all,
)
from .stratify import (
    RankShare,
    RankTable,
    Semiring,
    combine,
    rank_distribution,
    rank_of,
    stratify,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayCode",
    "AxisPermutation",
    "CacheError",
    "GL2_F2",
    "GL2_GENERATORS",
    "GroupElement",
    "NONZERO_VECS",
    "OrbitRecord",
    "OrbitSplit",
    "PartitionRow",
    "RankShare",
    "RankTable",
    "Semiring",
    "Shape",
    "ShapeMismatchError",
    "TABLE_KINDS",
    "UnsupportedShapeError",
    "VerifyReport",
    "all_axis_permutations",
    "cache_filename",
    "classify",
    "combine",
    "dump_table",
    "emit_all_tables",
    "emit_table",
    "flatten",
    "large_orbit",
    "load_table",
    "lower_bounds",
    "orbit_labels",
    "orbit_split",
    "outer_product",
    "partition_by_ones",
    "rank_distribution",
    "rank_of",
    "rank_one_codes",
    "render_mat",
    "small_orbit",
    "stratify",
    "unflatten",
    "verify_all",
]
