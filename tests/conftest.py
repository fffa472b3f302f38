"""Shared test plumbing: the acceptance-criteria result board, the
policy's per-state picker and state walker over explicit remaining sets,
the per-trial simulation report, the state-walking block protocol
encoder, the recursive subset-cost oracle, the full-product block class
values, the heap block-code builder and the explicit-alphabet Huffman code;
and a session finalizer that shuts the block-code worker pool down.

Acceptance tests register one verdict per criterion before asserting, so
the terminal summary always shows a pass/fail line per criterion even
when a criterion's assertion fires.
"""

import heapq
import math
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Optional

import numpy as np
import pytest

from threshcast import sim
from threshcast.core import CapacityError, InputError, ProbabilityProfile
from threshcast.dp import strategy_cost
from threshcast.huffman import build_block_code
from threshcast.sim import RoundRecord, SimulationReport, draw_measurements, walk_trials

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


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """Shut the block-code worker pool down, so the run never waits on a worker at exit."""
    yield
    if sim._build_pool is not None:
        sim._build_pool.shutdown()
    assert multiprocessing.active_children() == []


# The oracles below walk explicit states: a (remaining rank set, residual
# threshold) pair, stepped by their own two lines, sharing no code with the
# package's (mask, t) coding.
State = tuple[frozenset[int], int]


class DeterminedStateError(Exception):
    """An oracle was asked to choose at a state whose value is already fixed."""


def undetermined(state: State) -> bool:
    remaining, t = state
    return 0 < t <= len(remaining)


def step(state: State, rank: int, bit: int) -> State:
    """State after `rank` broadcasts `bit`."""
    remaining, t = state
    return remaining - {rank}, t - bit


def initial(n: int, theta: int) -> State:
    return frozenset(range(1, n + 1)), theta


def threshold_value(theta: int, x) -> int:
    """The target function on a full measurement vector: 1 iff at least theta ones."""
    return int(sum(x) >= theta)


def to_mask(remaining) -> int:
    """The package's coding of a remaining set: rank r at bit r - 1."""
    return sum(1 << (r - 1) for r in remaining)


def index_policy_next(state: State) -> int:
    """Rank the policy transmits next from an undetermined state: the node at
    sorted position m - t + 1 of the m remaining, with residual threshold t."""
    if not undetermined(state):
        raise DeterminedStateError(f"policy queried at a determined state {state}")
    remaining, t = state
    return sorted(remaining)[len(remaining) - t]


def reachable_decision_states(n: int, theta: int) -> list[State]:
    """Every state where the rank policy makes a choice, each visited once.

    An oracle independent of the policy's lattice engine: it applies only
    `index_policy_next` and `step` from the initial state.
    """
    start = initial(n, theta)
    if not undetermined(start):
        return []
    seen = {start}
    stack = [start]
    out = []
    while stack:
        state = stack.pop()
        out.append(state)
        rank = index_policy_next(state)
        for bit in (0, 1):
            child = step(state, rank, bit)
            if undetermined(child) and child not in seen:
                seen.add(child)
                stack.append(child)
    return out


def reference_simulation_report(tree, profile: ProbabilityProfile, theta: int, trials: int, seed: int) -> SimulationReport:
    """`simulate_tree`'s report with every trial walked, none grouped: the
    oracle for walking each distinct row once."""
    X = draw_measurements(profile, trials, np.random.default_rng(seed))
    values, bits = walk_trials(tree, X)
    truth = (X.sum(axis=1) >= theta).astype(np.int8)
    expected = strategy_cost(tree, profile, theta)
    mean, se = float(bits.mean()), float(bits.std(ddof=1) / np.sqrt(trials))
    return SimulationReport(
        n=profile.n,
        theta=theta,
        trials=trials,
        seed=seed,
        expected_bits=expected,
        mean_bits=mean,
        std_error=se,
        z=(mean - expected) / se if se else 0.0,
        error_count=int((values != truth).sum()),
    )


def reference_block_rounds(
    profile: ProbabilityProfile, theta: int, N: int, seed: int, order: Optional[tuple[int, ...]] = None
) -> tuple[tuple[RoundRecord, ...], tuple[int, ...], int]:
    """(rounds, values, total bits) of the lockstep block protocol, an oracle
    for the DAG walk in the package.

    Walks explicit states depth first, zero branch first; the
    next transmitter is `index_policy_next`, or with `order` the first rank
    of the permutation still remaining.  Values are the determined values
    the walk reaches, per instance.
    """

    def next_rank(state: State) -> int:
        if order is None:
            return index_policy_next(state)
        return next(r for r in order if r in state[0])

    X = draw_measurements(profile, N, np.random.default_rng(seed))
    rounds: list[RoundRecord] = []
    values = [-1] * N
    stack = [(initial(profile.n, theta), np.arange(N))]
    while stack:
        state, live = stack.pop()
        if live.size == 0:
            continue
        if not undetermined(state):
            for i in live:
                values[i] = 1 if state[1] <= 0 else 0
            continue
        rank = next_rank(state)
        block = X[live, rank - 1]
        cw = build_block_code(profile.p(rank), int(live.size)).encode_block(block.astype(int).tolist())
        rounds.append(RoundRecord(len(rounds), rank, int(live.size), len(cw)))
        stack.append((step(state, rank, 1), live[block]))
        stack.append((step(state, rank, 0), live[~block]))
    return tuple(rounds), tuple(values), sum(r.code_bits for r in rounds)


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


def _class_values(p: float, L: int) -> list[int]:
    """Truncated values of p^w q^(L-w) scaled to 2**E, w = 0..L, each from
    its own full-width product A^w B^(L-w) of the exact numerators of p =
    A / 2**a and q = B / 2**a: the oracle for the package's stepped values.

    E is the package's scale, 64 bits above ceil(L log2(1 / min(p, q))),
    with log2(1 / min(p, q)) read as -log2(min(p, q)) where 1 / min(p, q)
    overflows.
    """
    A, D = p.as_integer_ratio()
    a = D.bit_length() - 1
    B = D - A
    m = min(p, 1.0 - p)
    try:
        E = math.ceil(L * math.log2(1.0 / m)) + 64
    except OverflowError:  # 1 / m is inf
        E = math.ceil(L * -math.log2(m)) + 64
    shift = a * L - E
    p_pows = [1] * (L + 1)
    for w in range(1, L + 1):
        p_pows[w] = p_pows[w - 1] * A
    vals = [0] * (L + 1)
    q_pow = 1  # B^(L - w)
    for w in range(L, -1, -1):
        num = p_pows[w] * q_pow
        vals[w] = num >> shift if shift >= 0 else num << -shift
        q_pow *= B
    return vals


def reference_aggregate_lengths(p: float, L: int) -> list[dict[int, int]]:
    """Codeword-length multiset per weight class, via family-level merging
    through a heap: the oracle for the two-queue builder in the package.

    Returns, for each w, a dict {length: count} with counts summing to
    C(L, w).  The smallest family pairs its trees with each other, its
    last one left behind, except where it holds one tree, or holds a
    class's leaves and the next smallest family has the same value: then
    it pairs them with that family's (take = the smaller count).  These
    are the builder's tie rules.  Merge events are recorded forward and
    replayed in reverse to push depth multisets from the root back down
    to the classes.
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
            if g1 <= L and heap and heap[0][0] == v1:
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


def relaxed_two_length_optimum(p: float, L: int) -> float:
    """Expected length of the best code for Bernoulli(p)^L whose words in a
    weight class w take the lengths floor(y_w) and floor(y_w) + 1 in any
    real proportion, y_w = -log2(p^w q^(L-w)) being a word's
    self-information: an independent estimate of the optimum, in floats,
    sharing nothing with the package's builder.

    Every class starts at floor(y_w) + 1, which spends m_w 2**(u_w - 1) of
    the Kraft sum, m_w being the class's probability mass and u_w =
    frac(y_w).  Moving mass t of class w down to floor(y_w) saves t bits
    and spends t 2**(u_w - 1) more, so the slack goes to the classes in
    ascending u_w, the last one moving only in part.  Where every u_w is
    the same x, as at p / (1 - p) = 2**-j, this is L h(p) + 2 - x - 2**(1 - x).
    """
    a, b = -math.log2(p), -math.log2(1.0 - p)
    log_p, log_q = math.log(p), math.log(1.0 - p)
    classes = []  # (u_w, m_w, floor(y_w))
    for w in range(L + 1):
        y = w * a + (L - w) * b
        log_mass = math.lgamma(L + 1) - math.lgamma(w + 1) - math.lgamma(L - w + 1) + w * log_p + (L - w) * log_q
        classes.append((y - math.floor(y), math.exp(log_mass), math.floor(y)))
    expected = sum(m * (f + 1) for _, m, f in classes)
    slack = 1.0 - sum(m * 2.0 ** (u - 1) for u, m, _ in classes)
    for u, m, _ in sorted(classes):
        if slack <= 0.0:
            break
        moved = min(m, slack / 2.0 ** (u - 1))
        expected -= moved
        slack -= moved * 2.0 ** (u - 1)
    return expected


# Explicit Huffman construction over a small alphabet: the oracle the
# weight-class block code is checked against.

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class HuffmanCode:
    """Prefix code over an explicit alphabet.

    A one-symbol alphabet gets the empty codeword; decoding then relies
    on the caller's symbol count, which `decode` takes for that reason.
    """

    codewords: dict[Hashable, str]
    expected_length: float

    def length(self, symbol: Hashable) -> int:
        return len(self.codewords[symbol])

    def encode(self, symbols: Iterable[Hashable]) -> str:
        return "".join(self.codewords[s] for s in symbols)

    def decode(self, bits: str, count: int) -> list:
        inverse = {cw: s for s, cw in self.codewords.items()}
        out = []
        pos = 0
        for _ in range(count):
            end = pos
            while True:
                sym = inverse.get(bits[pos:end])
                if sym is not None or end > len(bits):
                    break
                end += 1
            if sym is None:
                raise InputError("bit stream ended inside a codeword")
            out.append(sym)
            pos = end
        if pos != len(bits):
            raise InputError(f"{len(bits) - pos} unread bits after {count} symbols")
        return out

    def kraft_sum(self) -> Fraction:
        return sum((Fraction(1, 2 ** len(cw)) for cw in self.codewords.values()), Fraction(0))


def huffman_build(dist: dict[Hashable, float]) -> HuffmanCode:
    """Minimum-expected-length prefix code for an explicit distribution.

    Ties in the merge heap break on (probability, smallest contained
    symbol, subtree size), and of the two merged subtrees the one with
    the lower key hangs off the '0' branch, so the code is a pure
    function of the distribution.
    """
    if not dist:
        raise InputError("empty distribution")
    total = 0.0
    for sym, p in dist.items():
        if not p > 0.0:
            raise InputError(f"probability of {sym!r} must be positive, got {p!r}")
        total += p
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InputError(f"probabilities sum to {total!r}, not 1")
    if len(dist) == 1:
        (sym,) = dist
        return HuffmanCode(codewords={sym: ""}, expected_length=0.0)

    # entries: (prob, min contained symbol, subtree size, tree); internal
    # tree nodes are 2-lists, which no hashable symbol can collide with
    heap = [(p, sym, 1, sym) for sym, p in dist.items()]
    heapq.heapify(heap)
    while len(heap) > 1:
        p0, m0, s0, t0 = heapq.heappop(heap)
        p1, m1, s1, t1 = heapq.heappop(heap)
        heapq.heappush(heap, (p0 + p1, min(m0, m1), s0 + s1, [t0, t1]))
    (_, _, _, root) = heap[0]

    codewords: dict[Hashable, str] = {}

    def assign(tree, prefix: str) -> None:
        if isinstance(tree, list):
            assign(tree[0], prefix + "0")
            assign(tree[1], prefix + "1")
        else:
            codewords[tree] = prefix

    assign(root, "")
    expected = sum(dist[s] * len(cw) for s, cw in codewords.items())
    return HuffmanCode(codewords=codewords, expected_length=expected)


def block_distribution(p: float, L: int) -> dict[int, float]:
    """Distribution of an L-bit iid Bernoulli(p) block, keyed by integer value.

    Bit 1 of the block is the most significant bit of the key, so integer
    order equals lexicographic order of the bit strings.  Explicit, so
    capped to small L; the aggregated builder has no such cap.
    """
    if not 0.0 < p < 1.0:
        raise InputError(f"p must be in (0, 1), got {p!r}")
    if L < 1:
        raise InputError(f"block length must be positive, got {L}")
    if L > 16:
        raise CapacityError(f"explicit block distribution capped at L=16, got L={L}")
    q = 1.0 - p
    return {b: p ** b.bit_count() * q ** (L - b.bit_count()) for b in range(1 << L)}
