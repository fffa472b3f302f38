"""Closed-form transmission policy and its decision lattice.

At an undetermined state with m remaining nodes and residual threshold t,
the policy picks the node at sorted position m - t + 1 (1-based, ranks
ascending).  This choice depends only on the ordering of the marginals,
never their values, so the whole strategy tree is a function of (n,
theta) alone.  Equivalently: starting from node k + 1 with k = n - theta,
each observed 0 steps the transmitter one rank down, each observed 1
steps it one rank up, so the queried nodes always form a contiguous rank
block around k + 1.

Every decision point is therefore a lattice point (z, o, side): z zeros
and o ones seen so far, and the end of the block the pending transmitter
sits on, which is the end the last bit pushed to.  The transmitter is
k + 1 - z on the low side and k + 1 + o on the high side.  A 0 leads to
(z + 1, o, low) and a 1 to (z, o + 1, high); z = k + 1 or o = theta
decides the function.  The points are the root (0, 0), (z, o, low) for
z >= 1 and (z, o, high) for o >= 1, with z <= k and o <= theta - 1:
(k + 1) * theta + k * (theta - 1) in all.  One sweep over the
anti-diagonals d = z + o, deepest first, yields costs and the tree.  One
reach sweep, root first, yields each reachable state as a tuple to two
consumers: `annotate_reachable_states` and `cli.STATE_ROW`'s table rows.

The policy has no per-state picker here: its consumers (the Monte Carlo
walk, the block protocol, `policy --check`) take it as the DAG that
`build_index_tree` returns, one node per lattice point.  A picker over
explicit remaining sets lives in the tests, as the oracle the lattice is
checked against.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import DecisionTree, Leaf, Node, ProbabilityProfile, ThresholdSpec


# ---------------------------------------------------------------------------
# The (z, o, side) lattice


def lattice_points(n: int, theta: int) -> int:
    """Decision points of the policy's lattice for (n, theta), one DAG node each; 0 where theta decides alone."""
    return (n - theta + 1) * theta + (n - theta) * (theta - 1) if 1 <= theta <= n else 0


def _diagonal(k: int, theta: int, d: int) -> tuple[int, int, range, range]:
    """z span [a, b) of anti-diagonal d, and the low- and high-side transmitters over it."""
    a, b = max(0, d - theta + 1), min(k, d) + 1
    return a, b, range(k + 1 - a, k + 1 - b, -1), range(k + 1 + d - a, k + 1 + d - b, -1)


def _sweep(
    k: int,
    theta: int,
    blank: Callable[[], tuple[Sequence, Sequence]],
    step: Callable[[range, Sequence, Sequence], Sequence],
) -> Iterator[tuple[int, Sequence, Sequence]]:
    """Fold the lattice of an undetermined (n, theta) from its deepest diagonal to the root.

    A diagonal's values sit in a (low side, high side) pair of sequences
    indexed by z.  `blank()` makes a pair of length k + 2 that holds the
    value of a determined child: low entries are read by a 0 past z = k,
    high entries by a 1 past o = theta - 1.  Two such pairs take the
    diagonals in turn; the entries a diagonal reads outside the span
    that its child diagonal filled (low at z = k + 1, high at z = d -
    theta + 1) are never filled, so they keep those values.
    `step(ranks, on_zero, on_one)` maps a run of transmitters and the
    values of their 0- and 1-children to the run's values.  Yields
    (d, low, high) for d = k + theta - 1 down to 0, in O(n) memory; a
    yielded pair is valid only until the next step.  Entries of the
    unreachable corner points (z = 0 < o on the low side, o = 0 on the
    high side) are filled but never read.
    """
    spare, (low, high) = blank(), blank()
    for d in range(k + theta - 1, -1, -1):
        a, b, low_ranks, high_ranks = _diagonal(k, theta, d)
        on_zero, on_one = low[a + 1 : b + 1], high[a:b]
        spare, (low, high) = (low, high), spare
        low[a:b] = step(low_ranks, on_zero, on_one)
        high[a:b] = step(high_ranks, on_zero, on_one)
        yield d, low, high


def _probs_of(probs: np.ndarray, ranks: range) -> np.ndarray:
    """Marginals of a descending run of ranks, as a view in run order."""
    return probs[ranks.stop : ranks.start][::-1]


def _cost_sweep(profile: ProbabilityProfile, theta: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Expected onward bits at every lattice point, one diagonal at a time."""
    k = profile.n - theta
    probs = np.asarray(profile.probs)

    def step(ranks: range, on_zero: np.ndarray, on_one: np.ndarray) -> np.ndarray:
        p = _probs_of(probs, ranks)
        return 1.0 + p * on_one + (1.0 - p) * on_zero

    return _sweep(k, theta, lambda: (np.zeros(k + 2), np.zeros(k + 2)), step)


def _root(sweep: Iterator[tuple[int, Sequence, Sequence]]):
    """Value at (0, 0) once the sweep has reached d = 0."""
    for _, low, _ in sweep:
        pass
    return low[0]


def build_index_tree(n: int, theta: int) -> DecisionTree:
    """Full strategy tree of the policy, shared as a DAG with one node per lattice point."""
    spec = ThresholdSpec(n, theta)
    if theta == 0:
        return Leaf(1)
    if theta > n:
        return Leaf(0)
    zero, one = Leaf(0), Leaf(1)
    return _root(
        _sweep(
            spec.k,
            theta,
            lambda: ([zero] * (spec.k + 2), [one] * (spec.k + 2)),
            lambda ranks, on_zero, on_one: list(map(Node, ranks, on_zero, on_one)),
        )
    )


def index_policy_cost(profile: ProbabilityProfile, theta: int) -> float:
    """Expected bits of the policy strategy: O(n * theta) time, O(n) memory."""
    ThresholdSpec(profile.n, theta)
    if not 1 <= theta <= profile.n:
        return 0.0
    return float(_root(_cost_sweep(profile, theta)))


class StateAnnotation(NamedTuple):
    """A reachable policy state, its spoken rank block within 1..n, and its statistics."""

    spoken: range
    n: int
    residual_theta: int
    transmitter: int
    reach_probability: float
    expected_remaining_cost: float

    @property
    def remaining(self) -> tuple[int, ...]:
        """The ranks not yet spoken, ascending."""
        return (*range(1, self.spoken.start), *range(self.spoken.stop, self.n + 1))


def _reachable_states(profile: ProbabilityProfile, theta: int) -> Iterator[tuple[int, int, int, int, float, float]]:
    """Each reachable policy state, in `annotate_reachable_states`' order, as a plain tuple: the
    first spoken rank, one past the last, residual threshold, transmitter, reach and onward cost."""
    k = ThresholdSpec(profile.n, theta).k
    if not 1 <= theta <= profile.n:
        return
    # each diagonal's costs and reach are kept over its span [a, b) only, one entry per lattice point
    costs = {}
    for d, low, high in _cost_sweep(profile, theta):
        a, b = _diagonal(k, theta, d)[:2]
        costs[d] = low[a:b].tolist(), high[a:b].tolist()
    probs = np.asarray(profile.probs)
    reach_low, reach_high = np.zeros(k + 2), np.zeros(k + 2)
    reach_low[0] = 1.0
    for d in range(k + theta):
        a, b, low_ranks, high_ranks = _diagonal(k, theta, d)
        # Within a diagonal, (z, low) precedes (z, high): its remaining set
        # keeps a longer prefix 1..k+1-z, so it sorts first, and it ties
        # with (z - 1, high) only on the set, where the larger residual
        # threshold of the low point puts it second.  The residual
        # threshold theta - (d - z) grows by one with z.
        t = theta - d + a
        points = zip(range(a, b), low_ranks, high_ranks, reach_low[a:b].tolist(), reach_high[a:b].tolist(), *costs[d])
        for z, rank_low, rank_high, here_low, here_high, cost_low, cost_high in points:
            if z >= 1 or d == 0:
                yield rank_low + 1, rank_low + d + 1, t, rank_low, here_low, cost_low
            if z < d:
                yield rank_high - d, rank_high, t, rank_high, here_high, cost_high
            t += 1
        # A point has at most two parents, one per side, so its pooled reach
        # is one addition and does not depend on the order parents are met.
        # Updated in place: of the next diagonal, (a, low) and (b, high) have no
        # parent here; the first is zeroed, the second was never written.
        p_low, p_high = _probs_of(probs, low_ranks), _probs_of(probs, high_ranks)
        from_low, from_high = reach_low[a:b], reach_high[a:b]
        to_low = from_low * (1.0 - p_low) + from_high * (1.0 - p_high)
        reach_high[a:b] = from_low * p_low + from_high * p_high
        reach_low[a], reach_low[a + 1 : b + 1] = 0.0, to_low


def annotate_reachable_states(profile: ProbabilityProfile, theta: int) -> list[StateAnnotation]:
    """Reach probability and onward cost of every policy decision state, keyed by (remaining, residual threshold),
    whose two bit orders pool their path probabilities; ordered by transmissions, remaining set, residual threshold."""
    n = profile.n
    return [StateAnnotation(range(a, b), n, t, r, p, c) for a, b, t, r, p, c in _reachable_states(profile, theta)]
