"""Exact minimum-expected-bits solver over transmission orderings.

The optimal expected cost satisfies, for any undetermined state with
remaining set R and residual threshold t,

    C(R, t) = min_{i in R} [ 1 + p_i * C(R - {i}, t - 1) + (1 - p_i) * C(R - {i}, t) ]

with C = 0 at determined states.  Queries name a state as (mask, t),
the set R as a bitmask with rank r at bit r - 1.  Each subset reads only
subsets one element smaller, so the table is filled one cardinality
level at a time (Held & Karp's subset DP): every l-subset has exactly l
set bits, so each subset takes l passes, the k-th over its k-th lowest
bit.  Which columns one level down a pass reads, and which probability,
depend on n alone, so that plan is built once per n and kept for the
life of the process (`_plan`, about 5 bytes per (subset, set bit) and 4
per mask: 2.9 MB at n = 16, 56.6 MB at n = 20).  A level is filled in
column blocks whose temporaries hold at most FILL_BLOCK_CELLS cells, small
enough to stay in cache; a block does all l passes at once with two gathers,
the band rows one level down less the determined zeros t = 0 and t = l taken
column-wise at the plan's columns, and the probabilities at the plan's bit
indices, then the arithmetic in place and one min-reduce over the passes.  A
table without a theta answers every substate query for one profile; one
built for a theta fills and stores only the band of t that a walk from the
full set can reach, one t per level at theta = 1 or n.  Subset enumeration
is exponential in n; the cap guards against accidental huge instances.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from .core import (
    CapacityError,
    DecisionTree,
    InputError,
    Leaf,
    ProbabilityProfile,
    ThresholdSpec,
    dag_postorder,
    state_strategies,
    validate_tree,
)

DEFAULT_NODE_CAP = 20
DEFAULT_TIE_TOL = 1e-12
# No cap lifts n above this.  Masks index an int32 row map, so n can never pass
# 30, and the memory doubles with each node: a solve fill at theta n/2 peaks at
# 2.6 GiB RSS at n = 24 and 5.3 GiB at n = 25 (2-core x86-64 host, Python 3.11, numpy 2.4)
MAX_TABLE_N = 25
# cells (rows x passes x columns) of one fill block's largest temporary:
# 128 KiB of float64, which stays in cache and below malloc's mmap threshold
FILL_BLOCK_CELLS = 1 << 14


@lru_cache(maxsize=None)
def _plan(n: int) -> tuple:
    """The profile-free part of an n-node fill: (row, cols, bits).

    row maps a mask to its column within its level.  Pass k over level l
    reads column cols[l][k] of level l-1, the subset without its k-th
    lowest set bit, and the probability of rank bits[l][k] + 1, the bit
    removed; both are (l, C(n, l)) arrays, int32 and int8.  Every table
    of n nodes shares one plan, so its arrays are read-only.
    """
    popcount = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        popcount[1 << i : 2 << i] = popcount[: 1 << i] + 1
    by_level = np.argsort(popcount, kind="stable")
    sizes = [comb(n, l) for l in range(n + 1)]
    starts = np.cumsum([0] + sizes)
    row = np.empty(1 << n, dtype=np.int32)
    row[by_level] = np.arange(1 << n) - np.repeat(starts[:-1], sizes)
    cols: list = [None]  # level 0 has no pass
    bits: list = [None]
    for l in range(1, n + 1):
        masks = by_level[starts[l] : starts[l + 1]]
        col = np.empty((l, sizes[l]), dtype=np.int32)
        bit = np.empty((l, sizes[l]), dtype=np.int8)
        rest = masks
        for k in range(l):
            # every l-subset has a k-th lowest set bit: remove it from all at once
            low = rest & -rest
            rest = rest ^ low
            np.take(row, masks ^ low, out=col[k])
            np.take(popcount, low - 1, out=bit[k])  # low == 1 << bit
        col.flags.writeable = bit.flags.writeable = False
        cols.append(col)
        bits.append(bit)
    row.flags.writeable = False
    return memoryview(row), cols, bits


class CostTable:
    """Cost table for one probability profile, filled on the first query.

    Level l holds C(R, t) for every l-subset R, t-major: one row per t,
    one column per subset in ascending mask order.  With theta=None every
    row is filled and the table answers every threshold.  With a theta,
    level l fills only the rows a walk from (all n nodes, theta) can
    reach, t = lo .. hi with lo = max(1, theta-(n-l)) and hi = min(l,
    theta); the band reads only the band one level down, so its entries
    equal the full table's, and an undetermined query outside it raises
    InputError.  Level l stores rows lo-1 .. hi+1: the band and a zero
    row on each side, which the next level reads where it is determined
    (t = 0 or l+1); a full table has lo = 1, so its row index is t.
    Columns s:e of level l take all l passes at once: `np.take(gathered,
    cols[l][:, s:e], axis=1)` on rows lo-1 .. hi of level l-1, sliced once
    per level less row 0 (if lo = 1) and row l (if hi = l), determined zeros
    that leave output rows one + (1-p)*B and p*A + one, and `np.take(probs,
    bits[l][:, s:e])` on the n probabilities, from the plan `_plan(n)`,
    built on the first fill at n and kept: 4 bytes per mask and 5 per
    (subset, set bit); `np.minimum.reduce` over the passes writes the
    block's columns; a block is FILL_BLOCK_CELLS // (l * max(gathered, band rows)) columns.
    With exact=True the same fill runs over object arrays of rationals
    (probabilities taken at their exact binary float values), so ties
    are ties, not artifacts of rounding.
    """

    def __init__(
        self,
        profile: ProbabilityProfile,
        node_cap: int = DEFAULT_NODE_CAP,
        exact: bool = False,
        theta: Optional[int] = None,
    ) -> None:
        n = profile.n
        cap = min(node_cap, MAX_TABLE_N)
        if n > cap:
            raise CapacityError(
                f"profile has {n} nodes, above the cap of {cap} "
                f"(the table never exceeds {MAX_TABLE_N}); "
                f"the table enumerates subsets and would need about 2**{n} entries"
            )
        self.profile = profile
        self.exact = exact
        self.theta = theta
        if theta is None:
            self._lo = [1] * (n + 1)
            self._hi = list(range(n + 1))
        else:
            ThresholdSpec(n, theta)
            self._lo = [max(1, theta - (n - l)) for l in range(n + 1)]
            self._hi = [min(l, theta) for l in range(n + 1)]
        if exact:
            self._probs: tuple = tuple(Fraction(p) for p in profile.probs)
            self._one = Fraction(1)
        else:
            self._probs = profile.probs
            self._one = 1.0
        self._zero = self._one - self._one
        # per level, once filled: a memoryview of the float array (it reads
        # out Python floats), or the object array of Fractions itself
        self._levels: Optional[list] = None
        self._row = None  # the plan's memoryview: mask -> column within its level

    def _fill(self) -> None:
        n = self.profile.n
        one, zero = self._one, self._zero
        dtype = object if self.exact else np.float64
        row, cols, bits = _plan(n)
        probs = np.array(self._probs, dtype=dtype)
        levels = [np.full((2, 1), zero, dtype=dtype)]
        for l in range(1, n + 1):
            lo, hi = self._lo[l], self._hi[l]
            rows, a, b = hi - lo + 1, int(lo == 1), int(hi == l)
            # rows lo-1 .. hi of level l-1 (stored from its lo-1) less the zeros t = 0 (a) and t = l (b)
            skip = lo - self._lo[l - 1] + a
            gathered, rows_b = levels[l - 1][skip : skip + rows + 1 - a - b], slice(1 - a, rows + 1 - a - b)
            col, bit = cols[l], bits[l]
            cur = np.full((rows + 2, col.shape[1]), zero, dtype=dtype)
            width = max(1, FILL_BLOCK_CELLS // (max(len(gathered), rows, 1) * l))
            for s in range(0, col.shape[1], width):
                e = s + width
                below = np.take(gathered, col[:, s:e], axis=1)  # (rows, pass, column)
                p = np.take(probs, bit[:, s:e])
                # one + p * A + (one - p) * B in the recurrence's rounding order,
                # so entries are bit-identical to it; B is scaled once A is read
                c = np.empty((rows,) + p.shape, dtype=dtype)
                c[:a] = one
                np.multiply(p, below[: rows - a], out=c[a:])
                c[a:] += one
                below[rows_b] *= one - p
                c[: rows - b] += below[rows_b]
                np.minimum.reduce(c, axis=1, out=cur[1:-1, s:e])
            levels.append(cur)
        self._row = row
        self._levels = levels if self.exact else [memoryview(a) for a in levels]

    def _outside_band(self, level: int, t: int) -> InputError:
        return InputError(
            f"C(R, {t}) with |R| = {level} is outside this table's band for theta {self.theta} "
            f"(t {self._lo[level]}..{self._hi[level]}); a table without a theta holds every t"
        )

    def _check_mask(self, mask: int) -> None:
        if mask < 0:
            raise InputError(f"state mask {mask} is negative")
        n = self.profile.n
        if mask >> n:
            raise InputError(f"rank {mask.bit_length()} outside this profile's 1..{n}")

    def cost(self, mask: int, t: int):
        """Optimal expected bits from state (mask, t) (0 when already determined)."""
        self._check_mask(mask)
        level = mask.bit_count()
        lo = self._lo[level]
        if lo <= t <= self._hi[level]:
            if self._levels is None:
                self._fill()
            return self._levels[level][t - lo + 1, self._row[mask]]
        if t <= 0 or t > level:
            return self._zero
        raise self._outside_band(level, t)

    def candidate_costs(self, mask: int, t: int) -> dict[int, object]:
        """Expected cost of each legal first transmitter at an undetermined state, read off level |R| - 1."""
        self._check_mask(mask)
        level = mask.bit_count()
        if t <= 0 or t > level:
            raise InputError("candidate costs are defined only at undetermined states")
        if not self._lo[level] <= t <= self._hi[level]:
            raise self._outside_band(level, t)
        if self._levels is None:
            self._fill()
        below, i, row = self._levels[level - 1], t - self._lo[level - 1], self._row
        out: dict[int, object] = {}
        one = self._one
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            rank = low.bit_length()
            p = self._probs[rank - 1]
            c = row[mask ^ low]
            out[rank] = one + p * below[i, c] + (one - p) * below[i + 1, c]
        return out

    def minimizers(self, mask: int, t: int, tol: float = DEFAULT_TIE_TOL) -> tuple[int, ...]:
        """Sorted ranks whose first-transmission cost is minimal (within tol)."""
        if not tol >= 0:
            raise InputError(f"tie tolerance must be at least 0, got {tol!r}")
        cand = self.candidate_costs(mask, t)
        best = min(cand.values()) + (0 if self.exact else tol)  # rationals tie only when equal
        return tuple(sorted(r for r, c in cand.items() if c <= best))


def matching_table(profile: ProbabilityProfile, table: Optional[CostTable], theta: Optional[int] = None) -> CostTable:
    """`table` if it was built for `profile`, else, when it is None, a new table
    for `profile`: the band for `theta`, or with theta None the full table."""
    if table is None:
        return CostTable(profile, theta=theta)
    if table.profile != profile:
        raise InputError(f"the table was built for the profile {table.profile.probs}, not {profile.probs}")
    return table


def optimal_cost(profile: ProbabilityProfile, theta: int, table: Optional[CostTable] = None):
    spec = ThresholdSpec(profile.n, theta)
    return matching_table(profile, table, spec.theta).cost((1 << spec.n) - 1, spec.theta)


def optimal_tree(
    profile: ProbabilityProfile,
    theta: int,
    table: Optional[CostTable] = None,
    tol: float = DEFAULT_TIE_TOL,
) -> DecisionTree:
    """Extract one optimal strategy, breaking ties toward the lowest rank.

    Subtrees are shared across equal states, so the result is a DAG in
    memory even though it serializes as a tree.
    """
    spec = ThresholdSpec(profile.n, theta)
    table = matching_table(profile, table, spec.theta)
    return state_strategies(spec.n, spec.theta, lambda mask, t: table.minimizers(mask, t, tol=tol)[:1])[0]


def strategy_costs(trees: Sequence[DecisionTree], profile: ProbabilityProfile) -> list[float]:
    """Expected bits transmitted by each strategy under the profile, unvalidated.

    One memo serves every tree: a subtree's expected remaining cost
    depends only on the subtree, not on how a walk reached it, so a node
    shared within or across trees is costed once.
    """
    memo: dict[int, float] = {}
    for t in dag_postorder(*trees):
        if isinstance(t, Leaf):
            memo[id(t)] = 0.0
        else:
            p = profile.p(t.transmitter)
            memo[id(t)] = 1.0 + p * memo[id(t.on_one)] + (1.0 - p) * memo[id(t.on_zero)]
    return [memo[id(t)] for t in trees]


def strategy_cost(tree: DecisionTree, profile: ProbabilityProfile, theta: int) -> float:
    """Expected bits transmitted by a given strategy under the profile."""
    validate_tree(tree, ThresholdSpec(profile.n, theta))
    return strategy_costs([tree], profile)[0]
