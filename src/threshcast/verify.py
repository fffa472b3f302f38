"""Numerical verification of the ordering-optimality induction quantities.

The optimality proof of the fixed transmission order rests on three
expressions per (k, i) pair over an m-node profile, written with the
shifted cost Ct(state) = C(state) - 1:

    T[m,k,i]  = p[k+1]*Ct(rest(k+1), t-1) + (1-p[k+1])*Ct(rest(k+1), t)
              -   p[i]*Ct(rest(i),   t-1) -   (1-p[i])*Ct(rest(i),   t)
    S1[m,k,i] = (p[k+1]-p[i])*C(rest(k+1,i), t-1)
              + (1-p[k+1])*Ct(rest(k+1), t) - (1-p[i])*Ct(rest(i), t)
    S2[m,k,i] = (p[i]-p[k+1])*C(rest(k+1,i), t-1)
              + p[k+1]*Ct(rest(k+1), t-1) - p[i]*Ct(rest(i), t-1)

with t = m - k and rest(j...) the full node set minus the listed ranks.
T is the cost of letting node k+1 speak first minus the cost of letting
node i speak first, so T <= 0 everywhere is exactly the optimality of
the fixed order.  The supporting inequalities are S1 <= 0 (i >= k+2),
S2 <= 0 (i <= k), T <= S1, T <= S2, and T identically 0 at i = k+1;
the last one holds in exact float arithmetic, not just to tolerance.

`lemma_record` evaluates T, S1 and S2 at one (k, i) pair against the
subset cost table, and `check_lemma_inequalities` sweeps it over every
pair and reports every violation, which also makes it a sharp detector
for a corrupted or miscomputed table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .core import (
    CapacityError,
    DecisionTree,
    InputError,
    ProbabilityProfile,
    ThresholdSpec,
    state_strategies,
)
# strategy_cost is not called here: perfbench/tracing.py wraps it under this module's name
from .dp import CostTable, matching_table, optimal_cost, strategy_cost, strategy_costs
from .policy import index_policy_cost

DEFAULT_LEMMA_TOL = 1e-9
EXHAUSTIVE_MAX_N = 4

# each inequality family, and the column its worst value is printed under
FAMILIES = {
    "T<=0": "worst_T",
    "S1<=0": "worst_S1",
    "S2<=0": "worst_S2",
    "T<=S1": "worst_T_minus_S1",
    "T<=S2": "worst_T_minus_S2",
    "T=0@i=k+1": "worst_T_at_kp1",
}


@dataclass(frozen=True)
class LemmaRecord:
    """All quantities evaluated at one (k, i) pair (None where undefined)."""

    k: int
    i: int
    T: float
    S1: Optional[float]
    S2: Optional[float]


def lemma_record(table: CostTable, k: int, i: int) -> LemmaRecord:
    """T, S1 and S2 at one (k, i) pair, S1 and S2 None outside their domains.

    Each of the five costs is looked up once.  T's two halves are evaluated
    by the identical operation sequence, so at i = k+1 they are the same
    float and T is exactly 0.0, not just 0 up to rounding.
    """
    profile = table.profile
    m = profile.n
    if not 0 <= k <= m - 1:
        raise InputError(f"k {k} outside 0..{m - 1}")
    if not 1 <= i <= m:
        raise InputError(f"i {i} outside 1..{m}")
    t = m - k
    full = (1 << m) - 1

    def shifted(j: int) -> tuple[float, float]:
        """Ct(rest(j), t-1) and Ct(rest(j), t)."""
        rest = full ^ (1 << (j - 1))
        return table.cost(rest, t - 1) - 1.0, table.cost(rest, t) - 1.0

    p_k1, p_i = profile.p(k + 1), profile.p(i)
    (k1_one, k1_zero), (i_one, i_zero) = shifted(k + 1), shifted(i)
    T = (p_k1 * k1_one + (1.0 - p_k1) * k1_zero) - (p_i * i_one + (1.0 - p_i) * i_zero)
    S1 = S2 = None
    if i != k + 1:
        both = table.cost(full ^ (1 << k) ^ (1 << (i - 1)), t - 1)
        if i > k + 1:
            S1 = (p_k1 - p_i) * both + (1.0 - p_k1) * k1_zero - (1.0 - p_i) * i_zero
        else:
            S2 = (p_i - p_k1) * both + p_k1 * k1_one - p_i * i_one
    return LemmaRecord(k=k, i=i, T=T, S1=S1, S2=S2)


@dataclass(frozen=True)
class LemmaViolation:
    family: str
    k: int
    i: int
    value: float


@dataclass
class LemmaReport:
    m: int
    probs: tuple[float, ...]
    tolerance: float
    records: list[LemmaRecord] = field(default_factory=list)
    violations: list[LemmaViolation] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_lemma_inequalities(
    profile: ProbabilityProfile,
    tolerance: float = DEFAULT_LEMMA_TOL,
    table: Optional[CostTable] = None,
) -> LemmaReport:
    """Evaluate every inequality at every legal (k, i) for one profile.

    Each record's checks are listed once as (family, checked value, largest
    passing value): the tolerance, or 0.0 for |T| under "T=0@i=k+1", which
    demands exact float zero.  A value over its bound is a violation.
    `worst` holds each family's largest checked value, so a passing report
    shows how much slack the inequalities had.
    """
    table = matching_table(profile, table)
    m = profile.n
    report = LemmaReport(m=m, probs=profile.probs, tolerance=tolerance)
    worst = report.worst
    for k in range(m):
        for i in range(1, m + 1):
            rec = lemma_record(table, k, i)
            report.records.append(rec)
            T, S1, S2 = rec.T, rec.S1, rec.S2
            checks = [("T=0@i=k+1", abs(T), 0.0) if i == k + 1 else ("T<=0", T, tolerance)]
            if S1 is not None:
                checks += [("S1<=0", S1, tolerance), ("T<=S1", T - S1, tolerance)]
            if S2 is not None:
                checks += [("S2<=0", S2, tolerance), ("T<=S2", T - S2, tolerance)]
            for family, value, bound in checks:
                if family not in worst or value > worst[family]:
                    worst[family] = value
                if value > bound:
                    report.violations.append(LemmaViolation(family, k, i, value))
    return report


# ---------------------------------------------------------------------------
# Brute-force optimality oracle


@lru_cache(maxsize=64)
def enumerate_trees(n: int, theta: int) -> tuple[DecisionTree, ...]:
    """Every structurally valid strategy tree for (n, theta), built once per process.

    The count is a product over both branches at every choice, so it
    explodes fast; EXHAUSTIVE_MAX_N keeps this an oracle for small cases only.
    """
    spec = ThresholdSpec(n, theta)
    if n > EXHAUSTIVE_MAX_N:
        raise CapacityError(f"tree enumeration capped at n={EXHAUSTIVE_MAX_N}, got n={n}")
    # every remaining rank, ascending
    return tuple(state_strategies(n, spec.theta, lambda mask, t: [r + 1 for r in range(n) if mask >> r & 1]))


@dataclass(frozen=True)
class ExhaustiveReport:
    n: int
    theta: int
    tree_count: int
    best_cost: float
    table_cost: float
    policy_cost: float
    tolerance: float
    witness: Optional[DecisionTree]

    @property
    def passed(self) -> bool:
        return self.witness is None


def exhaustive_strategy_check(
    profile: ProbabilityProfile,
    theta: int,
    tolerance: float = DEFAULT_LEMMA_TOL,
    table: Optional[CostTable] = None,
) -> ExhaustiveReport:
    """Compare the table optimum against a full enumeration of strategies.

    Fails (with the offending tree as witness) if any enumerated tree
    beats the table's value, or if the closed-form policy fails to attain
    the enumerated minimum.
    """
    trees = enumerate_trees(profile.n, theta)
    costs = strategy_costs(trees, profile)
    best = min(range(len(trees)), key=costs.__getitem__)  # the first of equal minima
    best_cost = costs[best]
    table_cost = optimal_cost(profile, theta, table)
    policy_cost = index_policy_cost(profile, theta)
    off = abs(table_cost - best_cost) > tolerance or abs(policy_cost - best_cost) > tolerance
    return ExhaustiveReport(
        n=profile.n,
        theta=theta,
        tree_count=len(trees),
        best_cost=best_cost,
        table_cost=table_cost,
        policy_cost=policy_cost,
        tolerance=tolerance,
        witness=trees[best] if off else None,
    )
