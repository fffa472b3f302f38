"""Domain types for threshold computation over a shared broadcast medium.

An instance is a profile of independent Bernoulli marginals, sorted
ascending, together with an integer threshold theta: the target function
is 1 iff at least theta of the n node bits equal 1.  Node identifiers are
1-based ranks in the sorted profile; every module speaks rank space and
conversion back to user labels happens at the ingestion boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence, Union


class InputError(ValueError):
    """Malformed input: bad probability, threshold, vector, or tree."""


class CapacityError(RuntimeError):
    """Instance size exceeds a configured solver cap."""


class ContractViolation(RuntimeError):
    """Operation invoked on a state its contract forbids."""


class TreeInvalidError(InputError):
    """A decision tree violates a structural invariant."""


class Determination(enum.Enum):
    """Whether a partial transcript already fixes the function value."""

    ONE = "one"
    ZERO = "zero"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ProbabilityProfile:
    """Sorted marginals p_1 <= ... <= p_n of independent Bernoulli bits.

    Entries must lie strictly inside (0, 1): a deterministic bit is known
    to everyone in advance, so charging it a transmission would make the
    cost accounting ambiguous.  Use :func:`eliminate_deterministic` to
    strip such nodes before construction if needed.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 1:
            raise InputError("profile needs at least one probability")
        for p in probs:
            if not 0.0 < p < 1.0:
                raise InputError(f"probability {p!r} outside the open interval (0, 1)")
        if any(a > b for a, b in zip(probs, probs[1:])):
            raise InputError("probabilities must be non-decreasing; sort at ingestion")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    def p(self, rank: int) -> float:
        """Marginal of the node with 1-based sorted rank."""
        if not 1 <= rank <= self.n:
            raise InputError(f"rank {rank} outside 1..{self.n}")
        return self.probs[rank - 1]


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold function on n bits: value 1 iff at least theta bits are 1.

    theta = 0 and theta = n + 1 are the constant-1 and constant-0
    functions; the subset recursion reaches them as base cases, so they
    are legal inputs everywhere.
    """

    n: int
    theta: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("n must be at least 1")
        if not 0 <= self.theta <= self.n + 1:
            raise InputError(f"theta {self.theta} outside 0..{self.n + 1}")

    @property
    def k(self) -> int:
        """Rank offset n - theta used by the transmission policy."""
        return self.n - self.theta

    def initial_state(self) -> "ComputationState":
        return ComputationState(frozenset(range(1, self.n + 1)), self.theta)


@dataclass(frozen=True)
class ComputationState:
    """Untransmitted node set plus the threshold still to be met."""

    remaining: frozenset[int]
    residual_theta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "remaining", frozenset(self.remaining))


def classify_state(state: ComputationState) -> Determination:
    """Determination status of a partial transcript."""
    if state.residual_theta <= 0:
        return Determination.ONE
    if state.residual_theta > len(state.remaining):
        return Determination.ZERO
    return Determination.UNDETERMINED


def apply_transmission(state: ComputationState, node: int, bit: int) -> ComputationState:
    """State after `node` broadcasts `bit`: remove it, lower the threshold by the bit."""
    if classify_state(state) is not Determination.UNDETERMINED:
        raise ContractViolation("transmission applied to a determined state")
    if node not in state.remaining:
        raise InputError(f"node {node} is not in the remaining set")
    if bit not in (0, 1):
        raise InputError(f"bit must be 0 or 1, got {bit!r}")
    return ComputationState(state.remaining - {node}, state.residual_theta - bit)


def evaluate_function(spec: ThresholdSpec, x: Sequence[int]) -> int:
    """Evaluate the threshold function on a full measurement vector."""
    if len(x) != spec.n:
        raise InputError(f"measurement vector has length {len(x)}, expected {spec.n}")
    total = 0
    for v in x:
        if v not in (0, 1):
            raise InputError(f"measurement entries must be bits, got {v!r}")
        total += v
    return 1 if total >= spec.theta else 0


def eliminate_deterministic(values: Sequence[float], theta: int) -> tuple[list[float], int, list[int]]:
    """Strip probability-0 and probability-1 entries from raw input values.

    Each stripped 1-node lowers theta by one (its bit is already counted);
    0-nodes are simply dropped.  Returns (kept values, adjusted theta,
    0-based indices of the removed positions).  Off by default: loaders do
    not call this, callers opt in.
    """
    kept: list[float] = []
    removed: list[int] = []
    for idx, v in enumerate(values):
        if v == 0.0:
            removed.append(idx)
        elif v == 1.0:
            removed.append(idx)
            theta -= 1
        else:
            kept.append(float(v))
    return kept, theta, removed


# ---------------------------------------------------------------------------
# Decision trees


@dataclass(frozen=True)
class Leaf:
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise InputError(f"leaf value must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class Node:
    transmitter: int
    on_zero: "DecisionTree"
    on_one: "DecisionTree"


DecisionTree = Union[Leaf, Node]


def walk_tree(tree: DecisionTree, x: Sequence[int]) -> tuple[int, int]:
    """Run a strategy on a measurement vector.

    Returns (computed value, number of bits broadcast).  The transcript is
    exactly the path taken, so the bit count is the path length.
    """
    bits = 0
    cur = tree
    while isinstance(cur, Node):
        cur = cur.on_one if x[cur.transmitter - 1] else cur.on_zero
        bits += 1
    return cur.value, bits


def _tree_states(tree: DecisionTree, spec: ThresholdSpec) -> Iterator[tuple[DecisionTree, ComputationState]]:
    """Yield every (node, state) pair a strategy reaches once, preorder, one-branch first.

    A shared subtree reached again at the same state is skipped, so a DAG
    costs its (node, state) pairs, not its root-to-leaf paths.  A node's
    children are expanded only when the consumer resumes after it, so a
    consumer that raises at a node never moves past it.
    """
    seen: set[tuple[int, frozenset[int], int]] = set()
    stack: list[tuple[DecisionTree, ComputationState]] = [(tree, spec.initial_state())]
    while stack:
        t, state = stack.pop()
        key = (id(t), state.remaining, state.residual_theta)
        if key in seen:
            continue
        seen.add(key)
        yield t, state
        if isinstance(t, Node):
            stack.append((t.on_zero, apply_transmission(state, t.transmitter, 0)))
            stack.append((t.on_one, apply_transmission(state, t.transmitter, 1)))


def validate_tree(tree: DecisionTree, spec: ThresholdSpec) -> None:
    """Check all structural invariants, raising TreeInvalidError on the first break.

    Internal nodes must query a remaining node of an undetermined state;
    leaves must sit exactly at determined states and carry the determined
    value.  No-repeat along paths follows from querying remaining nodes.
    A shared subtree is checked once per state it is reached at.
    """
    for t, state in _tree_states(tree, spec):
        det = classify_state(state)
        if isinstance(t, Leaf):
            if det is Determination.UNDETERMINED:
                raise TreeInvalidError(
                    f"leaf at undetermined state (remaining={sorted(state.remaining)}, "
                    f"residual_theta={state.residual_theta}): tree stops before determination"
                )
            want = 1 if det is Determination.ONE else 0
            if t.value != want:
                raise TreeInvalidError(f"leaf value {t.value} contradicts determined value {want}")
            continue
        if det is not Determination.UNDETERMINED:
            raise TreeInvalidError(
                f"internal node {t.transmitter} at a determined state: tree queries after determination"
            )
        if t.transmitter not in state.remaining:
            raise TreeInvalidError(
                f"transmitter {t.transmitter} not in remaining set {sorted(state.remaining)}"
            )


def tree_internal_states(
    tree: DecisionTree, spec: ThresholdSpec
) -> Iterator[tuple[ComputationState, int]]:
    """Yield (state, transmitter) for every internal node, preorder, one-branch first,
    each (node, state) pair of a DAG once, at its first visit."""
    return ((state, t.transmitter) for t, state in _tree_states(tree, spec) if isinstance(t, Node))


def dag_postorder(tree: DecisionTree) -> list[DecisionTree]:
    """Every distinct node of a shared DAG once, each after its children."""
    order: list[DecisionTree] = []
    placed: set[int] = set()
    stack = [tree]
    while stack:
        t = stack[-1]
        if id(t) in placed:
            stack.pop()
            continue
        if isinstance(t, Node):
            pending = [c for c in (t.on_zero, t.on_one) if id(c) not in placed]
            if pending:
                stack += pending
                continue
        stack.pop()
        placed.add(id(t))
        order.append(t)
    return order

