import os
import random
import sys
from pathlib import Path

import pytest

try:
    import bitcube  # noqa: F401
except ImportError:  # running from a checkout without installation
    SRC = str(Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, SRC)
    # and for the `python -m bitcube` processes that tests spawn
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from hypothesis import settings

settings.register_profile("bitcube", deadline=None)
settings.load_profile("bitcube")

SAMPLE_SEED = 20260808


def popcount_array(limit):
    """Set-bit counts of 0..limit-1, counted in pure Python.

    An oracle for the engine, which counts bits with int.bit_count on bitsets.
    """
    import numpy as np

    return np.array([bin(c).count("1") for c in range(limit)], dtype=np.int64)


def cube_tables(n):
    """The n-cube's generators as action tables: the slice swap along each
    direction, then the transpositions of adjacent directions."""
    from bitcube import GL2_F2, AxisPermutation
    from orbit_oracle import axis_action_table, permutation_action_table

    tables = [axis_action_table(GL2_F2[0], d, n) for d in range(1, n + 1)]
    for j in range(1, n):
        perm = list(range(1, n + 1))
        perm[j - 1], perm[j] = perm[j], perm[j - 1]
        tables.append(permutation_action_table(AxisPermutation(tuple(perm)), n))
    return tables


@pytest.fixture(scope="session")
def tables():
    """All six stratifications, computed once per session."""
    from bitcube import Semiring, Shape, stratify

    return {
        (n, s.value): stratify(Shape(n), s)
        for n in (3, 4)
        for s in Semiring
    }


@pytest.fixture(scope="session")
def sample_codes_4():
    """10 000 reproducible sample codes of dimension 4."""
    rng = random.Random(SAMPLE_SEED)
    return [rng.randrange(1 << 16) for _ in range(10_000)]
