"""Shared test plumbing: the acceptance-criteria result board, the
policy's state walker, the recursive subset-cost oracle and the heap
block-code builder.

Acceptance tests register one verdict per criterion before asserting, so
the terminal summary always shows a pass/fail line per criterion even
when a criterion's assertion fires.
"""

import heapq
import math
from fractions import Fraction

from threshcast.core import (
    ComputationState,
    Determination,
    ThresholdSpec,
    apply_transmission,
    classify_state,
)
from threshcast.huffman import _class_values
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


def reference_aggregate_lengths(p: float, L: int) -> list[dict[int, int]]:
    """Codeword-length multiset per weight class, via family-level merging
    through a heap: the oracle for the two-queue builder in the package.

    Returns, for each w, a dict {length: count} with counts summing to
    C(L, w).  Merge events are recorded forward and replayed in reverse
    to push depth multisets from the root back down to the classes.
    """
    values = _class_values(p, L)
    # heap entries: (family value, family id, tree count); ids 0..L are classes
    heap = [(values[w], w, math.comb(L, w)) for w in range(L + 1)]
    heapq.heapify(heap)
    next_id = L + 1
    # events: (new id, ((child id, subtrees per new tree), ...))
    events: list[tuple[int, tuple[tuple[int, int], ...]]] = []

    while True:
        v1, g1, c1 = heapq.heappop(heap)
        if not heap and c1 == 1:
            root = g1
            break
        if c1 >= 2:
            if heap and heap[0][0] == v1:
                v2, g2, c2 = heapq.heappop(heap)
                take = min(c1, c2)
                events.append((next_id, ((g1, 1), (g2, 1))))
                heapq.heappush(heap, (v1 + v2, next_id, take))
                next_id += 1
                if c1 > take:
                    heapq.heappush(heap, (v1, g1, c1 - take))
                if c2 > take:
                    heapq.heappush(heap, (v2, g2, c2 - take))
            else:
                events.append((next_id, ((g1, 2),)))
                heapq.heappush(heap, (v1 + v1, next_id, c1 // 2))
                next_id += 1
                if c1 % 2:
                    heapq.heappush(heap, (v1, g1, 1))
        else:
            v2, g2, c2 = heapq.heappop(heap)
            events.append((next_id, ((g1, 1), (g2, 1))))
            heapq.heappush(heap, (v1 + v2, next_id, 1))
            next_id += 1
            if c2 > 1:
                heapq.heappush(heap, (v2, g2, c2 - 1))

    depth: dict[int, dict[int, int]] = {root: {0: 1}}
    for new_id, children in reversed(events):
        # consumers of new_id all lie later in forward order, so its
        # multiset is complete by the time its creation event replays
        dm = depth.pop(new_id)
        for child, per in children:
            tgt = depth.setdefault(child, {})
            for d, cnt in dm.items():
                tgt[d + 1] = tgt.get(d + 1, 0) + cnt * per
    return [depth.get(w, {}) for w in range(L + 1)]
