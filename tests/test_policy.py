"""Rank-based policy: choices, tree shape, cost agreement, lattice states.

The lattice engine is checked against oracles that do not share its
coordinates: the state walker in conftest (only `index_policy_next` and
its own step on explicit remaining sets), a plain recursion over walked
states, the exact
subset table, DAG costing of the tree, and enumeration of every outcome.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    DeterminedStateError,
    index_policy_next,
    initial,
    reachable_decision_states,
    step,
    to_mask,
    undetermined,
)
from threshcast.core import (
    Leaf,
    Node,
    ProbabilityProfile,
    ThresholdSpec,
    tree_states,
    validate_tree,
)
from threshcast import policy
from threshcast.dp import CostTable, optimal_cost, strategy_cost
from threshcast.policy import (
    StateAnnotation,
    annotate_reachable_states,
    build_index_tree,
    index_policy_cost,
    lattice_points,
)


def random_profile(rng: np.random.Generator, n: int) -> ProbabilityProfile:
    return ProbabilityProfile(tuple(sorted(float(p) for p in rng.uniform(0.02, 0.98, n))))


def walked_cost(profile: ProbabilityProfile, state: tuple, memo: dict) -> float:
    """Policy cost from `state` by plain recursion over explicit states."""
    if not undetermined(state):
        return 0.0
    if state not in memo:
        rank = index_policy_next(state)
        p = profile.p(rank)
        memo[state] = (
            1.0
            + p * walked_cost(profile, step(state, rank, 1), memo)
            + (1.0 - p) * walked_cost(profile, step(state, rank, 0), memo)
        )
    return memo[state]


def lattice_size(n: int, theta: int) -> int:
    k = n - theta
    return (k + 1) * theta + k * (theta - 1)


class TestNextTransmitter:
    def test_disjunction_starts_at_top_rank(self):
        assert index_policy_next((frozenset({1, 2, 3}), 1)) == 3

    def test_conjunction_starts_at_bottom_rank(self):
        assert index_policy_next((frozenset({1, 2, 3}), 3)) == 1

    def test_initial_pick_is_k_plus_one(self):
        for n in range(1, 9):
            for theta in range(1, n + 1):
                spec = ThresholdSpec(n, theta)
                assert index_policy_next(initial(n, theta)) == spec.k + 1

    def test_pick_uses_local_order_not_global_ranks(self):
        # two nodes left, one more 1 needed: pick the higher of the two
        assert index_policy_next((frozenset({2, 5}), 1)) == 5
        assert index_policy_next((frozenset({2, 5}), 2)) == 2

    def test_rejects_determined_states(self):
        with pytest.raises(DeterminedStateError):
            index_policy_next((frozenset({1, 2}), 0))
        with pytest.raises(DeterminedStateError):
            index_policy_next((frozenset({1}), 2))


class TestIndexTree:
    def test_disjunction_shape(self):
        tree = build_index_tree(3, 1)
        assert isinstance(tree, Node) and tree.transmitter == 3
        assert tree.on_one == Leaf(1)
        assert isinstance(tree.on_zero, Node) and tree.on_zero.transmitter == 2

    def test_conjunction_shape(self):
        tree = build_index_tree(3, 3)
        assert isinstance(tree, Node) and tree.transmitter == 1
        assert tree.on_zero == Leaf(0)
        assert isinstance(tree.on_one, Node) and tree.on_one.transmitter == 2

    def test_constant_thresholds_are_leaves(self):
        assert build_index_tree(3, 0) == Leaf(1)
        assert build_index_tree(3, 4) == Leaf(0)

    def test_trees_are_valid(self):
        for n in range(1, 8):
            for theta in range(0, n + 2):
                validate_tree(build_index_tree(n, theta), ThresholdSpec(n, theta))

    def test_deterministic_construction(self):
        assert build_index_tree(6, 3) == build_index_tree(6, 3)

    def test_one_node_per_lattice_point(self):
        for n in range(1, 9):
            for theta in range(0, n + 2):
                nodes = {}
                stack = [build_index_tree(n, theta)]
                while stack:
                    t = stack.pop()
                    if isinstance(t, Node) and id(t) not in nodes:
                        nodes[id(t)] = t
                        stack += [t.on_zero, t.on_one]
                assert len(nodes) == lattice_points(n, theta), (n, theta)
                if 1 <= theta <= n:
                    assert len(nodes) == lattice_size(n, theta), (n, theta)

    def test_sweep_takes_two_blank_pairs(self):
        # the diagonals are written into two pairs in turn, not a fresh pair each
        zero, one = Leaf(0), Leaf(1)
        for n, theta in ((1, 1), (5, 2), (9, 4), (12, 12), (30, 11)):
            k, made = n - theta, []

            def blank():
                made.append(None)
                return [zero] * (k + 2), [one] * (k + 2)

            sweep = policy._sweep(k, theta, blank, lambda ranks, on_zero, on_one: list(map(Node, ranks, on_zero, on_one)))
            assert [d for d, _, _ in sweep] == list(range(n - 1, -1, -1))
            assert len(made) == 2, (n, theta)


class TestCostAgreement:
    def test_three_cost_paths_agree(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            profile = random_profile(rng, n)
            for theta in range(0, n + 2):
                via_lattice = index_policy_cost(profile, theta)
                via_states = walked_cost(profile, initial(n, theta), {})
                via_tree = strategy_cost(build_index_tree(n, theta), profile, theta)
                assert via_lattice == pytest.approx(via_states, abs=1e-12)
                assert via_lattice == pytest.approx(via_tree, abs=1e-12)

    def test_lattice_sweep_scales_past_subset_table(self):
        # 40 nodes is far beyond any subset enumeration
        rng = np.random.default_rng(23)
        profile = ProbabilityProfile(tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, 40))))
        a = index_policy_cost(profile, 17)
        b = walked_cost(profile, initial(40, 17), {})
        c = strategy_cost(build_index_tree(40, 17), profile, 17)
        assert a == pytest.approx(b, abs=1e-9)
        assert a == pytest.approx(c, abs=1e-9)
        assert a > 1.0

    def test_cost_at_ten_thousand_nodes_within_budget(self):
        # the sweep keeps two diagonals and never recurses
        rng = np.random.default_rng(37)
        n = 10_000
        profile = ProbabilityProfile(tuple(np.sort(rng.uniform(0.01, 0.99, n)).tolist()))
        start = time.perf_counter()
        cost = index_policy_cost(profile, n // 2)
        assert time.perf_counter() - start < 20.0
        assert 1.0 < cost <= n

    def test_policy_attains_exact_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.02, 0.98, n)))
            profile = ProbabilityProfile(probs)
            table = CostTable(profile)
            for theta in range(1, n + 1):
                assert index_policy_cost(profile, theta) == pytest.approx(
                    optimal_cost(profile, theta, table=table), abs=1e-12
                ), (probs, theta)

    def test_exact_ties_at_tolerance_zero(self):
        # tied and extreme marginals, which criterion 1's uniform draws never hold: the policy's cost is the
        # rational table's root, and its rank is one of that table's exact minimizers at every state it reaches
        values = (0.5, 0.25, 0.75, 1e-300, 1 - 2**-53, 0.1, 0.9, 2**-30)
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            profile = ProbabilityProfile(tuple(sorted(values[i] for i in rng.integers(0, len(values), n))))
            theta = int(rng.integers(1, n + 1))
            table = CostTable(profile, exact=True, theta=theta)
            cost = index_policy_cost(profile, theta)
            assert abs(float(table.cost((1 << n) - 1, theta)) - cost) <= 1e-15 * cost, (profile.probs, theta)
            for node, mask, t in tree_states(build_index_tree(n, theta), ThresholdSpec(n, theta)):
                if isinstance(node, Node):
                    assert node.transmitter in table.minimizers(mask, t, tol=0), (profile.probs, theta, mask, t)

    def test_or_pair_hand_value(self):
        assert index_policy_cost(ProbabilityProfile((0.3, 0.6)), 1) == pytest.approx(1.4)
        assert index_policy_cost(ProbabilityProfile((0.3, 0.6)), 2) == pytest.approx(1.3)


def annotation_at(n: int, theta: int, zeros: int, ones: int) -> list[StateAnnotation]:
    """Annotated states after `zeros` 0s and `ones` 1s, one per side the block grew on."""
    profile = ProbabilityProfile(tuple((i + 0.5) / n for i in range(n)))
    return [
        a
        for a in annotate_reachable_states(profile, theta)
        if len(a.remaining) == n - zeros - ones and a.residual_theta == theta - ones
    ]


class TestIntervalStates:
    """Decision points in (zeros seen, ones seen) coordinates.

    With k = n - theta, the nodes that have spoken plus the one about to
    speak form the contiguous rank block [k+1-z, k+1+o]; the pending
    transmitter sits at the end the last bit pushed to, and the set left
    once it has spoken is the same for both ends.
    """

    def test_block_and_remaining_after(self):
        states = annotation_at(6, 3, 1, 1)  # k = 3, block [3, 5]
        assert sorted(a.transmitter for a in states) == [3, 5]
        for a in states:
            assert set(a.remaining) - {a.transmitter} == {1, 2, 6}
            assert a.residual_theta == 2

    def test_initial_state_block(self):
        (root,) = annotation_at(5, 2, 0, 0)
        assert root.transmitter == 4
        assert set(root.remaining) - {root.transmitter} == {1, 2, 3, 5}

    def test_transitions(self):
        root = build_index_tree(6, 3)  # k = 3
        via_low, via_high = root.on_one.on_zero, root.on_zero.on_one
        assert (via_low.transmitter, via_high.transmitter) == (3, 5)
        for point in (via_low, via_high):
            assert point.on_zero.transmitter == 2  # (2, 1), low end
            assert point.on_one.transmitter == 6  # (1, 2), high end
        assert via_low.on_zero is via_high.on_zero
        assert via_low.on_one is via_high.on_one

    def test_transitions_hit_determination_edges(self):
        root = build_index_tree(4, 2)  # k = 2
        zeros_maxed = root.on_zero.on_zero.on_one  # (2, 1): either bit decides
        assert zeros_maxed.on_zero == Leaf(0)
        assert zeros_maxed.on_one == Leaf(1)
        assert root.on_one.on_one == Leaf(1)  # (0, 1) then a 1
        assert root.on_zero.on_zero.on_zero == Leaf(0)  # (2, 0) then a 0

    def test_enumeration_count(self):
        for n in range(1, 8):
            profile = ProbabilityProfile(tuple((i + 0.5) / n for i in range(n)))
            for theta in range(1, n + 1):
                assert len(annotate_reachable_states(profile, theta)) == lattice_size(n, theta)


class TestIntervalCoverage:
    def test_interval_states_match_tree_walk(self):
        rng = np.random.default_rng(41)
        for n in range(1, 10):
            profile = random_profile(rng, n)
            for theta in range(1, n + 1):
                walked = reachable_decision_states(n, theta)
                anns = annotate_reachable_states(profile, theta)
                keys = [(frozenset(a.remaining), a.residual_theta) for a in anns]
                assert len(set(keys)) == len(keys)
                assert set(keys) == set(walked), (n, theta)
                for a, key in zip(anns, keys):
                    assert a.transmitter == index_policy_next(key)
                if n <= 8:
                    tree_keys = {
                        (mask, t)
                        for node, mask, t in tree_states(build_index_tree(n, theta), ThresholdSpec(n, theta))
                        if isinstance(node, Node)
                    }
                    assert tree_keys == {(to_mask(remaining), t) for remaining, t in walked}

    def test_spoken_block_layout(self):
        # remaining is the walked set as a sorted, hashable tuple, around one
        # contiguous spoken block with the transmitter just below or above it
        for n in range(1, 13):
            profile = ProbabilityProfile(tuple((i + 0.5) / n for i in range(n)))
            for theta in range(1, n + 1):
                walked = {(tuple(sorted(rem)), t) for rem, t in reachable_decision_states(n, theta)}
                anns = annotate_reachable_states(profile, theta)
                assert len(anns) == len(walked)
                assert {(a.remaining, a.residual_theta) for a in anns} == walked, (n, theta)
                for a in anns:
                    assert type(a.remaining) is tuple and a.n == n
                    assert a.spoken.step == 1 and 1 <= a.spoken.start <= a.spoken.stop <= n + 1
                    assert set(a.spoken) == set(range(1, n + 1)) - set(a.remaining)
                    assert a.transmitter in (a.spoken.start - 1, a.spoken.stop)

    def test_tree_states_are_yielded_once(self):
        # the DAG at (15, 7) has 11,439 root-to-leaf path states but 111 decision states
        n, theta = 15, 7
        tree = build_index_tree(n, theta)
        states = tree_states(tree, ThresholdSpec(n, theta))
        keys = [(mask, t) for node, mask, t in states if isinstance(node, Node)]
        assert len(keys) == len(set(keys)) == len(reachable_decision_states(n, theta)) == 111

    def test_tree_cost_matches_sweep(self):
        rng = np.random.default_rng(43)
        for n in range(1, 10):
            profile = random_profile(rng, n)
            for theta in range(0, n + 2):
                assert strategy_cost(build_index_tree(n, theta), profile, theta) == pytest.approx(
                    index_policy_cost(profile, theta), abs=1e-12
                ), (n, theta)

    def test_transmitter_adjacent_to_block(self):
        for n in range(1, 10):
            for theta in range(1, n + 1):
                k = n - theta
                for state in reachable_decision_states(n, theta):
                    spoken = set(range(1, n + 1)) - state[0]
                    block = spoken | {index_policy_next(state)}
                    assert block == set(range(min(block), max(block) + 1))
                    assert k + 1 in block


class TestAnnotations:
    def test_two_node_disjunction(self):
        profile = ProbabilityProfile((0.3, 0.6))
        anns = annotate_reachable_states(profile, 1)
        assert anns == [
            # nothing spoken yet, then rank 2 spoken
            StateAnnotation(range(3, 3), 2, 1, 2, 1.0, pytest.approx(1.4)),
            StateAnnotation(range(2, 3), 2, 1, 1, pytest.approx(0.4), pytest.approx(1.0)),
        ]

    def test_state_is_an_immutable_hashable_record(self):
        # a state unpacks in field order, and equal states must hash alike
        n, theta = 9, 4
        anns = annotate_reachable_states(random_profile(np.random.default_rng(61), n), theta)
        for s in anns:
            spoken, size, t, rank, reach, cost = s
            assert (spoken, size, t, rank, reach, cost) == (
                s.spoken, s.n, s.residual_theta, s.transmitter, s.reach_probability, s.expected_remaining_cost
            )
            assert s.remaining == tuple(r for r in range(1, n + 1) if r not in s.spoken)
            assert hash(s) == hash(StateAnnotation(*s))
            for name in ("spoken", "n", "residual_theta", "transmitter", "reach_probability",
                         "expected_remaining_cost", "remaining"):
                with pytest.raises(AttributeError):
                    setattr(s, name, getattr(s, name))
        assert len(set(anns)) == len(anns) == lattice_size(n, theta)

    def test_reach_probabilities_sum_to_expected_bits(self):
        # each decision state contributes one broadcast when reached
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, n)))
            profile = ProbabilityProfile(probs)
            theta = int(rng.integers(1, n + 1))
            anns = annotate_reachable_states(profile, theta)
            total = sum(a.reach_probability for a in anns)
            assert total == pytest.approx(index_policy_cost(profile, theta), abs=1e-10)

    def test_root_annotation(self):
        profile = ProbabilityProfile((0.2, 0.5, 0.7))
        anns = annotate_reachable_states(profile, 2)
        root = anns[0]
        assert root.remaining == (1, 2, 3)
        assert root.reach_probability == 1.0
        assert root.transmitter == 2
        assert root.expected_remaining_cost == pytest.approx(2.25)

    def test_state_list_memory(self):
        # 45,000 states; with an O(n) remaining tuple per state the peak was 62.6 MiB
        n = 300
        profile = ProbabilityProfile(tuple((i + 0.5) / n for i in range(n)))
        tracemalloc.start()
        try:
            anns = annotate_reachable_states(profile, 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(anns) == 45_000
        assert peak < 25 * 2**20

    def test_reach_sweep_memory_at_theta_one(self):
        # theta 1 has one lattice point per diagonal; keeping every diagonal's
        # costs and reach whole made this call's peak 61.7 MiB, growing as n^2
        n = 1000
        profile = ProbabilityProfile(tuple(np.linspace(0.01, 0.99, n)))
        tracemalloc.start()
        try:
            anns = annotate_reachable_states(profile, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(anns) == n
        assert peak < 4 * 2**20

    def test_constant_function_has_no_states(self):
        assert annotate_reachable_states(ProbabilityProfile((0.3, 0.6)), 0) == []
        assert annotate_reachable_states(ProbabilityProfile((0.3, 0.6)), 3) == []

    def test_order_is_transmissions_then_remaining_then_threshold(self):
        rng = np.random.default_rng(47)
        for n in range(1, 10):
            profile = random_profile(rng, n)
            for theta in range(1, n + 1):
                anns = annotate_reachable_states(profile, theta)
                key = lambda a: (-len(a.remaining), a.remaining, a.residual_theta)
                assert anns == sorted(anns, key=key)

    def test_reach_and_onward_cost_match_enumeration(self):
        # reach: total probability of the outcomes whose walk passes the state;
        # onward cost: the exact table, which the policy attains at every state
        rng = np.random.default_rng(53)
        for n in range(1, 9):
            profile = random_profile(rng, n)
            table = CostTable(profile)
            for theta in range(1, n + 1):
                reach: dict = {}
                for x in itertools.product((0, 1), repeat=n):
                    weight = float(np.prod([p if b else 1.0 - p for p, b in zip(profile.probs, x)]))
                    state = initial(n, theta)
                    while undetermined(state):
                        key = (tuple(sorted(state[0])), state[1])
                        reach[key] = reach.get(key, 0.0) + weight
                        rank = index_policy_next(state)
                        state = step(state, rank, x[rank - 1])
                anns = annotate_reachable_states(profile, theta)
                assert len(anns) == len(reach)
                for a in anns:
                    assert a.reach_probability == pytest.approx(
                        reach[(a.remaining, a.residual_theta)], abs=1e-12
                    )
                    cost = table.cost(to_mask(a.remaining), a.residual_theta)
                    assert a.expected_remaining_cost == pytest.approx(cost, abs=1e-12)
