"""Domain types for threshold computation over a shared broadcast medium.

An instance is a profile of independent Bernoulli marginals, sorted
ascending, together with an integer threshold theta: the target function
is 1 iff at least theta of the n node bits equal 1.  Node identifiers are
1-based ranks in the sorted profile; every module speaks rank space and
conversion back to user labels happens at the ingestion boundary.

A state of the decision problem is a pair (mask, t): the nodes that have
not yet spoken, rank r at bit r - 1, and the residual threshold t.  It is
determined once t <= 0 (value 1) or t > popcount(mask) (value 0);
`state_strategies` builds strategies over these pairs and `tree_states`
walks one through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union


class InputError(ValueError):
    """Malformed input: bad probability, threshold, vector, or tree."""


class CapacityError(RuntimeError):
    """Instance size exceeds a configured solver cap."""


class TreeInvalidError(InputError):
    """A decision tree violates a structural invariant."""


@dataclass(frozen=True)
class ProbabilityProfile:
    """Sorted marginals p_1 <= ... <= p_n of independent Bernoulli bits.

    Entries must lie strictly inside (0, 1): a deterministic bit is known
    to everyone in advance, so charging it a transmission would make the
    cost accounting ambiguous.  A caller strips such nodes before
    construction and lowers theta by one for each p = 1 node it strips.
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


# ---------------------------------------------------------------------------
# Decision trees


@dataclass(frozen=True)
class Leaf:
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise InputError(f"leaf value must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True, repr=False, eq=False)
class Node:
    """An internal node; equal when the expanded trees are, compared without recursion."""

    transmitter: int
    on_zero: "DecisionTree"
    on_one: "DecisionTree"

    def __repr__(self) -> str:  # the children one level deep, not the whole expanded tree
        zero, one = (f"Node(transmitter={t.transmitter}, ...)" if isinstance(t, Node) else repr(t)
                     for t in (self.on_zero, self.on_one))
        return f"Node(transmitter={self.transmitter}, on_zero={zero}, on_one={one})"

    def __eq__(self, other: object) -> bool:
        # a fold over both DAGs: each distinct leaf, and each (transmitter, zero
        # child's number, one child's number) shape, is numbered once, so equal
        # subtrees share a number and shared ones cost their DAG size
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        if hash(self) != hash(other):  # equal trees hash alike, so differing tops are unequal
            return False
        shapes: dict = {}  # a leaf or a (transmitter, number, number) shape -> its number
        number: dict[int, int] = {}
        for t in dag_postorder(self, other):
            shape = t if isinstance(t, Leaf) else (t.transmitter, number[id(t.on_zero)], number[id(t.on_one)])
            number[id(t)] = shapes.setdefault(shape, len(shapes))
        return number[id(self)] == number[id(other)]

    def __hash__(self) -> int:  # one level deep: equal trees agree there
        return hash((self.transmitter, *(t.transmitter if isinstance(t, Node) else t
                                         for t in (self.on_zero, self.on_one))))


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


def tree_states(tree: DecisionTree, spec: ThresholdSpec) -> Iterator[tuple[DecisionTree, int, int]]:
    """Yield (node, mask, t) once per (node, state) pair a strategy reaches, preorder, one branch first.

    A shared subtree reached again at the same state is skipped, so a DAG
    costs its (node, state) pairs, not its root-to-leaf paths.  A node's
    children are expanded only when the consumer resumes after it, so a
    consumer that raises at a node never moves past it.
    """
    seen: set[tuple[int, int, int]] = set()
    stack: list[tuple[DecisionTree, int, int]] = [(tree, (1 << spec.n) - 1, spec.theta)]
    while stack:
        node, mask, t = stack.pop()
        key = (id(node), mask, t)
        if key in seen:
            continue
        seen.add(key)
        yield node, mask, t
        if isinstance(node, Node):
            rest = mask & ~(1 << (node.transmitter - 1))
            stack.append((node.on_zero, rest, t))
            stack.append((node.on_one, rest, t - 1))


def _ranks(mask: int) -> list[int]:
    return [r + 1 for r in range(mask.bit_length()) if mask >> r & 1]


def validate_tree(tree: DecisionTree, spec: ThresholdSpec) -> None:
    """Check all structural invariants, raising TreeInvalidError on the first break.

    Internal nodes must query a remaining node of an undetermined state;
    leaves must sit exactly at determined states and carry the determined
    value.  No-repeat along paths follows from querying remaining nodes.
    A shared subtree is checked once per state it is reached at.
    """
    for node, mask, t in tree_states(tree, spec):
        undetermined = 0 < t <= mask.bit_count()
        if isinstance(node, Leaf):
            if undetermined:
                raise TreeInvalidError(
                    f"leaf at undetermined state (remaining={_ranks(mask)}, "
                    f"residual_theta={t}): tree stops before determination"
                )
            want = 1 if t <= 0 else 0
            if node.value != want:
                raise TreeInvalidError(f"leaf value {node.value} contradicts determined value {want}")
            continue
        if not undetermined:
            raise TreeInvalidError(
                f"internal node {node.transmitter} at a determined state: tree queries after determination"
            )
        # the range check comes first: a rank below 1 is no shift count
        if not 1 <= node.transmitter <= spec.n or not mask >> (node.transmitter - 1) & 1:
            raise TreeInvalidError(
                f"transmitter {node.transmitter} not in remaining set {_ranks(mask)}"
            )


def dag_postorder(*roots: DecisionTree) -> list[DecisionTree]:
    """Every distinct node reachable from any root once, each after its children.

    A node is entered once: it goes back on the stack under a None
    marker, above which its children are pushed, so by the time the
    marker pops both children are placed (a DAG has no path back up to
    the node) and the node follows them.  A root is walked only after
    every root above it on the stack is placed, so nodes it shares with
    them are already in the order.
    """
    order: list[DecisionTree] = []
    entered: set[int] = set()
    stack: list = list(roots)
    pop, place = stack.pop, order.append
    while stack:
        t = pop()
        if t is None:
            place(pop())
        elif id(t) not in entered:
            entered.add(id(t))
            if isinstance(t, Node):
                stack += (t, None, t.on_zero, t.on_one)
            else:
                place(t)
    return order


def state_strategies(n: int, theta: int, choose: Callable[[int, int], Iterable[int]]) -> list[DecisionTree]:
    """Every strategy from (all n nodes, theta) that asks, at each undetermined
    (mask, t) it reaches, one of the ranks `choose(mask, t)` gives, in that order.

    The strategies asking one rank first come in the order of their zero
    branch, then of their one branch.  Each state is built once and its
    strategies are shared by every parent that reaches it, so the result
    is a DAG; determined states are leaves.  The recursion is n deep.
    """
    memo: dict[tuple[int, int], list[DecisionTree]] = {}

    def build(mask: int, t: int) -> list[DecisionTree]:
        got = memo.get((mask, t))
        if got is None:
            if t <= 0 or t > mask.bit_count():
                got = [Leaf(1 if t <= 0 else 0)]
            else:
                got = []
                for rank in choose(mask, t):
                    rest = mask ^ (1 << (rank - 1))
                    zeros, ones = build(rest, t), build(rest, t - 1)
                    got += [Node(rank, zero, one) for zero in zeros for one in ones]
            memo[mask, t] = got
        return got

    return build((1 << n) - 1, theta)
