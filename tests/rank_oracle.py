"""Rank oracles used against the stratification.

closure_ranks is the unreduced level-by-level closure: every code of rank r
is summed with every rank-1 code, with no use of symmetry.  It is the
reference for the engine, which expands only one code per cube orbit.

RankSearch finds the minimal number of rank-1 terms summing to a target by
bounded depth-first search with iterative deepening over the 3**n rank-1
codes, applying each semiring's addition and rejection rule directly.
Both take their rank-1 codes from rank_one_set, built here from the
definition, and share no code with the engine: nothing here imports bitcube.

Branching is complete in every case: some term of any sum must cover the
lowest set bit of the running residual (exclusive-or of an all-zero column
cannot produce a 1; inclusive-or can never produce a 1 from zeros either),
so only terms containing that bit are tried at each step.  For the Boolean
and integer cases a term that sticks out of the target can never appear in
a decomposition, which prunes the candidate lists further.
"""

import itertools
import math

import numpy as np

NONZERO = ((0, 1), (1, 0), (1, 1))


def rank_one_set(n):
    """Sorted codes of the 3**n rank-1 arrays v_1 x ... x v_n: the entry at
    subscripts (i_1, ..., i_n), counted from 0 here, is the product of the
    entries v_j[i_j], and the cells follow in lexicographic order of their
    subscripts, the first the most significant bit."""
    codes = set()
    for factors in itertools.product(NONZERO, repeat=n):
        code = 0
        for subs in itertools.product((0, 1), repeat=n):
            code = code << 1 | math.prod(v[i] for v, i in zip(factors, subs))
        codes.add(code)
    return sorted(codes)


def closure_ranks(n, semiring_tag):
    """Rank of every code: level r + 1 is every sum of a rank-r code and a
    rank-1 code that has no rank yet (255 marks "no rank yet")."""
    r1 = np.array(rank_one_set(n), dtype=np.uint32)
    ranks = np.full(1 << (1 << n), 255, dtype=np.uint8)
    ranks[0] = 0
    cur, r = r1, 1
    while cur.size:
        ranks[cur] = r
        if semiring_tag == "gf2":
            sums = np.bitwise_xor.outer(cur, r1)
        elif semiring_tag == "bool":
            sums = np.bitwise_or.outer(cur, r1)
        elif semiring_tag == "nat":
            disjoint = np.bitwise_and.outer(cur, r1) == 0
            sums = np.bitwise_or.outer(cur, r1)[disjoint]
        else:
            raise ValueError(semiring_tag)
        hit = np.zeros(ranks.size, dtype=bool)
        hit[sums.ravel()] = True
        cur = np.flatnonzero(hit & (ranks == 255)).astype(np.uint32)
        r += 1
    return ranks


class RankSearch:
    """Per-(dimension, semiring) search state with shared failure memo."""

    def __init__(self, n, semiring_tag):
        if semiring_tag not in ("gf2", "bool", "nat"):
            raise ValueError(semiring_tag)
        self.n = n
        self.m = 1 << n
        self.tag = semiring_tag
        terms = rank_one_set(n)
        self.by_bit = {
            b: [t for t in terms if (t >> b) & 1] for b in range(self.m)
        }
        self._fail = set()

    def rank(self, target):
        for depth in range(self.m + 1):
            if self._reachable(target, depth):
                return depth
        raise AssertionError(f"no decomposition found for {target}")

    def _reachable(self, residual, depth):
        if self.tag == "gf2":
            return self._reach_xor(residual, depth)
        return self._reach_cover(residual, residual, depth)

    def _reach_xor(self, residual, depth):
        if residual == 0:
            return True
        if depth == 0:
            return False
        key = (residual, depth)
        if key in self._fail:
            return False
        low = (residual & -residual).bit_length() - 1
        for term in self.by_bit[low]:
            if self._reach_xor(residual ^ term, depth - 1):
                return True
        self._fail.add(key)
        return False

    def _reach_cover(self, uncovered, target, depth):
        if uncovered == 0:
            return True
        if depth == 0:
            return False
        key = (uncovered, target, depth)
        if key in self._fail:
            return False
        low = (uncovered & -uncovered).bit_length() - 1
        for term in self.by_bit[low]:
            if term & ~target:
                continue
            if self.tag == "nat" and term & ~uncovered:
                continue
            if self._reach_cover(uncovered & ~term, target, depth - 1):
                return True
        self._fail.add(key)
        return False
