"""Shared test plumbing: the acceptance-criteria result board, the
policy's state walker and the recursive subset-cost oracle.

Acceptance tests register one verdict per criterion before asserting, so
the terminal summary always shows a pass/fail line per criterion even
when a criterion's assertion fires.
"""

from fractions import Fraction

from threshcast.core import (
    ComputationState,
    Determination,
    ThresholdSpec,
    apply_transmission,
    classify_state,
)
from threshcast.policy import index_policy_next

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[num] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {num}] {status} - {detail}")


def reachable_decision_states(n: int, theta: int) -> list[ComputationState]:
    """Every state where the rank policy makes a choice, each visited once.

    An oracle independent of the policy's lattice engine: it applies only
    `index_policy_next` and `apply_transmission` from the initial state.
    """
    spec = ThresholdSpec(n, theta)
    initial = spec.initial_state()
    if classify_state(initial) is not Determination.UNDETERMINED:
        return []
    seen = {(initial.remaining, initial.residual_theta)}
    stack = [initial]
    out = []
    while stack:
        state = stack.pop()
        out.append(state)
        rank = index_policy_next(state)
        for bit in (0, 1):
            child = apply_transmission(state, rank, bit)
            if classify_state(child) is not Determination.UNDETERMINED:
                continue
            key = (child.remaining, child.residual_theta)
            if key not in seen:
                seen.add(key)
                stack.append(child)
    return out


def reference_cost_table(probs: tuple, exact: bool = False):
    """The subset cost table as a recursive memo, an oracle for the fill.

    Returns cost(mask, t), computed on demand by
    C(R, t) = min_i [1 + p_i C(R - i, t - 1) + (1 - p_i) C(R - i, t)]
    with the candidates taken lowest bit first, in floats or, with
    exact=True, in rationals.
    """
    one = Fraction(1) if exact else 1.0
    ps = tuple(Fraction(p) for p in probs) if exact else tuple(probs)
    zero = one - one
    memo: dict = {}

    def cost(mask: int, t: int):
        if t <= 0 or t > mask.bit_count():
            return zero
        val = memo.get((mask, t))
        if val is not None:
            return val
        best = float("inf")
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            p = ps[low.bit_length() - 1]
            sub = mask ^ low
            c = one + p * cost(sub, t - 1) + (one - p) * cost(sub, t)
            if c < best:
                best = c
        memo[(mask, t)] = best
        return best

    return cost
