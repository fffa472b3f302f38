"""Domain type behavior: profiles, specs, (mask, t) states, trees."""

import json
from time import perf_counter

import pytest
from conftest import threshold_value
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcast.core import (
    InputError,
    Leaf,
    Node,
    ProbabilityProfile,
    ThresholdSpec,
    TreeInvalidError,
    dag_postorder,
    state_strategies,
    tree_states,
    validate_tree,
    walk_tree,
)
from threshcast.io import tree_extent, tree_from_dict, tree_to_dict
from threshcast.policy import build_index_tree
from threshcast.sim import strategy_dag


class TestProbabilityProfile:
    def test_accepts_sorted_open_interval(self):
        p = ProbabilityProfile((0.1, 0.5, 0.5, 0.9))
        assert p.n == 4
        assert p.p(1) == 0.1
        assert p.p(4) == 0.9

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            ProbabilityProfile(())

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(InputError):
            ProbabilityProfile((0.3, bad))
        with pytest.raises(InputError):
            ProbabilityProfile((bad,))

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            ProbabilityProfile((0.6, 0.3))

    def test_rank_bounds(self):
        p = ProbabilityProfile((0.3, 0.6))
        with pytest.raises(InputError):
            p.p(0)
        with pytest.raises(InputError):
            p.p(3)


class TestThresholdSpec:
    def test_theta_range_includes_constant_functions(self):
        for theta in range(0, 5):
            ThresholdSpec(3, theta)
        with pytest.raises(InputError):
            ThresholdSpec(3, 5)
        with pytest.raises(InputError):
            ThresholdSpec(3, -1)
        with pytest.raises(InputError):
            ThresholdSpec(0, 0)

    def test_rank_offset(self):
        assert ThresholdSpec(5, 2).k == 3
        assert ThresholdSpec(5, 5).k == 0
        assert ThresholdSpec(5, 1).k == 4

    def test_initial_state(self):
        # the walk starts at (every rank remaining, theta): rank r at bit r - 1
        tree = Node(2, Node(1, Leaf(0), Leaf(1)), Node(1, Leaf(1), Leaf(1)))
        assert next(tree_states(tree, ThresholdSpec(3, 2)))[1:] == (0b111, 2)
        assert next(tree_states(Leaf(0), ThresholdSpec(1, 2)))[1:] == (0b1, 2)


class TestStateClassification:
    """A state (mask, t) is determined at t <= 0 (value 1) or t > popcount(mask) (value 0).

    Validation places leaves exactly there, so it is the classification's
    observable form.
    """

    def test_one_when_threshold_met(self):
        validate_tree(Leaf(1), ThresholdSpec(2, 0))
        validate_tree(Node(1, Node(2, Leaf(0), Leaf(1)), Leaf(1)), ThresholdSpec(2, 1))
        with pytest.raises(TreeInvalidError, match="contradicts determined value 1"):
            validate_tree(Leaf(0), ThresholdSpec(2, 0))

    def test_zero_when_threshold_unreachable(self):
        validate_tree(Leaf(0), ThresholdSpec(1, 2))
        validate_tree(Node(1, Leaf(0), Node(2, Leaf(0), Leaf(1))), ThresholdSpec(2, 2))
        with pytest.raises(TreeInvalidError, match="contradicts determined value 0"):
            validate_tree(Leaf(1), ThresholdSpec(1, 2))

    def test_undetermined_between(self):
        for theta in (1, 2):
            with pytest.raises(TreeInvalidError, match=rf"remaining=\[1, 2\], residual_theta={theta}"):
                validate_tree(Leaf(1), ThresholdSpec(2, theta))

    def test_apply_transmission(self):
        # a transmission clears the speaker's bit and lowers t by the bit sent
        on_zero, on_one = Node(1, Leaf(0), Leaf(1)), Node(1, Leaf(1), Leaf(1))
        tree = Node(2, on_zero, on_one)
        states = list(tree_states(tree, ThresholdSpec(3, 2)))
        assert states[:3] == [(tree, 0b111, 2), (on_one, 0b101, 1), (on_one.on_one, 0b100, 0)]
        assert (on_zero, 0b101, 2) in states

    def test_apply_transmission_contract(self):
        # no transmission at a determined state, nor of a node that is not remaining
        with pytest.raises(TreeInvalidError, match="determined state"):
            validate_tree(Node(1, Leaf(1), Leaf(1)), ThresholdSpec(1, 0))
        with pytest.raises(TreeInvalidError, match=r"transmitter 2 not in remaining set \[1\]"):
            validate_tree(Node(2, Node(2, Leaf(0), Leaf(1)), Leaf(1)), ThresholdSpec(2, 1))


class TestThresholdValue:
    """The test oracle for the target function, pinned on hand values."""

    def test_threshold_values(self):
        assert threshold_value(2, [1, 0, 1]) == 1
        assert threshold_value(2, [1, 0, 0]) == 0
        assert threshold_value(2, [1, 1, 1]) == 1

    def test_constant_functions(self):
        assert threshold_value(0, [0, 0]) == 1
        assert threshold_value(3, [1, 1]) == 0


class TestTrees:
    def or2_tree(self):
        return Node(2, Node(1, Leaf(0), Leaf(1)), Leaf(1))

    def test_walk_counts_bits(self):
        tree = self.or2_tree()
        assert walk_tree(tree, [0, 1]) == (1, 1)
        assert walk_tree(tree, [1, 0]) == (1, 2)
        assert walk_tree(tree, [0, 0]) == (0, 2)

    def test_repr_stops_one_level_down(self):
        assert repr(self.or2_tree()) == "Node(transmitter=2, on_zero=Node(transmitter=1, ...), on_one=Leaf(value=1))"
        # DAGs that expand to 48,619 and about 2 * 10**17 tree nodes; the first
        # bounds what a repr of the whole expanded tree would cost before the second runs
        for tree in (build_index_tree(16, 8), build_index_tree(60, 30)):
            assert len(repr(tree)) < 200

    def test_equality_visits_each_dag_pair_once(self):
        # two separately built DAGs whose expanded trees have 10.4 M nodes; an
        # equality that recursed per expanded path took seconds here
        a, b = build_index_tree(24, 12), build_index_tree(24, 12)
        assert a is not b
        start = perf_counter()
        assert a == b and hash(a) == hash(b)
        assert perf_counter() - start < 1.0
        assert a != build_index_tree(24, 11)
        assert self.or2_tree() != Node(2, Node(1, Leaf(0), Leaf(0)), Leaf(1))
        assert self.or2_tree() != Node(2, Leaf(1), Leaf(1)) and Leaf(1) != self.or2_tree()

    def test_equality_of_trees_whose_tops_differ_does_not_fold(self, monkeypatch):
        a, b = build_index_tree(24, 12), build_index_tree(24, 11)
        moved_root = Node(a.transmitter + 1, a.on_zero, a.on_one)

        def fold(*roots):
            raise AssertionError("both DAGs were folded")

        monkeypatch.setattr("threshcast.core.dag_postorder", fold)
        assert a != b and a != moved_root

    def test_a_tree_equals_itself_without_a_fold(self, monkeypatch):
        tree = build_index_tree(24, 12)

        def fold(*roots):
            raise AssertionError("the DAG was folded")

        monkeypatch.setattr("threshcast.core.dag_postorder", fold)
        assert tree == tree and not tree != tree

    def test_equality_ignores_how_subtrees_are_shared(self):
        dag = build_index_tree(8, 4)
        expanded = tree_from_dict(tree_to_dict(dag))  # one object per expanded node
        assert len(dag_postorder(expanded)) > 2 * len(dag_postorder(dag))
        assert dag == expanded and expanded == dag
        shared = Node(1, Leaf(0), Leaf(1))
        assert Node(2, shared, shared) == Node(2, Node(1, Leaf(0), Leaf(1)), Node(1, Leaf(0), Leaf(1)))
        assert Node(2, shared, shared) != Node(2, shared, Node(1, Leaf(1), Leaf(0)))

    def test_equality_and_hash_of_a_deep_chain(self):
        def chain(bottom):
            for _ in range(5000):
                bottom = Node(1, bottom, Leaf(1))
            return bottom

        a, b = chain(Leaf(0)), chain(Leaf(0))
        assert a == b and hash(a) == hash(b)
        assert a != chain(Leaf(1))
        assert len({a, b}) == 1

    def test_leaf_value_validation(self):
        with pytest.raises(InputError):
            Leaf(2)

    def test_validate_accepts_proper_tree(self):
        validate_tree(self.or2_tree(), ThresholdSpec(2, 1))

    def test_validate_rejects_early_leaf(self):
        with pytest.raises(TreeInvalidError):
            validate_tree(Leaf(1), ThresholdSpec(2, 1))

    def test_validate_rejects_wrong_leaf_value(self):
        tree = Node(2, Node(1, Leaf(1), Leaf(1)), Leaf(1))
        with pytest.raises(TreeInvalidError):
            validate_tree(tree, ThresholdSpec(2, 1))

    def test_validate_rejects_repeat_transmitter(self):
        tree = Node(2, Node(2, Leaf(0), Leaf(1)), Leaf(1))
        with pytest.raises(TreeInvalidError):
            validate_tree(tree, ThresholdSpec(2, 1))
        # ranks outside 1..n: refused before one becomes a shift count, which must not be negative
        for rank in (0, -1, 3):
            for tree in (Node(rank, Leaf(0), Leaf(1)), Node(2, Node(rank, Leaf(0), Leaf(1)), Leaf(1))):
                with pytest.raises(TreeInvalidError, match=f"transmitter {rank} not in remaining set"):
                    validate_tree(tree, ThresholdSpec(2, 1))

    def test_validate_rejects_query_after_determination(self):
        tree = Node(2, Node(1, Leaf(0), Leaf(1)), Node(1, Leaf(1), Leaf(1)))
        with pytest.raises(TreeInvalidError):
            validate_tree(tree, ThresholdSpec(2, 1))

    def test_postorder_over_shared_roots(self):
        def reachable(*roots):
            seen, stack = set(), list(roots)
            while stack:
                t = stack.pop()
                seen.add(id(t))
                if isinstance(t, Node):
                    stack += (t.on_zero, t.on_one)
            return seen

        shared = Node(1, Leaf(0), Leaf(1))
        a = Node(2, shared, Leaf(1))
        b = Node(3, Node(2, Leaf(0), shared), a)
        for roots in ((a, b), (b, a), (b,), (a, a)):
            order = dag_postorder(*roots)
            place = {id(t): i for i, t in enumerate(order)}
            assert len(place) == len(order) and set(place) == reachable(*roots)  # each node once
            for t in order:
                if isinstance(t, Node):
                    assert place[id(t.on_zero)] < place[id(t)] and place[id(t.on_one)] < place[id(t)]
        assert dag_postorder() == []

    def test_size_helpers(self):
        def json_bytes(tree):
            return len(json.dumps(tree_to_dict(tree), indent=2, sort_keys=True))

        tree = self.or2_tree()
        assert tree_extent(tree) == (5, 2, json_bytes(tree))
        assert tree_extent(Leaf(1)) == (1, 0, 16)
        shared = Node(1, Leaf(0), Leaf(1))
        assert tree_extent(Node(2, shared, shared)) == (7, 2, json_bytes(Node(2, shared, shared)))


class TestStateStrategies:
    def test_fixed_order_is_the_row_built_dag(self):
        def first_left(mask, t):
            return [next(r for r in order if mask >> (r - 1) & 1)]

        for n in range(1, 7):
            order = (*range(2, n + 1), 1)
            for theta in range(n + 2):
                (tree,) = state_strategies(n, theta, first_left)
                validate_tree(tree, ThresholdSpec(n, theta))
                assert tree == strategy_dag(order, n, theta)

    def test_states_are_built_once_and_shared(self):
        calls = []

        def lowest(mask, t):
            calls.append((mask, t))
            return [(mask & -mask).bit_length()]

        (tree,) = state_strategies(6, 3, lowest)
        assert len(calls) == len(set(calls)) == sum(isinstance(node, Node) for node in dag_postorder(tree))
        # after ranks 1 and 2, a 0 then a 1 and a 1 then a 0 lead to one state
        assert tree.on_zero.on_one is tree.on_one.on_zero

    def test_order_is_rank_then_zero_branch_then_one_branch(self):
        trees = state_strategies(3, 2, lambda mask, t: [r + 1 for r in range(3) if mask >> r & 1])
        assert [t.transmitter for t in trees] == [1] * 4 + [2] * 4 + [3] * 4
        (zero_a, one_a), (zero_b, one_b) = [(t.on_zero, t.on_one) for t in trees[:2]]
        assert zero_a is zero_b and one_a is not one_b
        assert state_strategies(2, 0, lambda mask, t: [1]) == [Leaf(1)]
        assert state_strategies(2, 3, lambda mask, t: [1]) == [Leaf(0)]
        assert state_strategies(2, 1, lambda mask, t: []) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_index_tree_computes_the_function(n, data):
    """Any policy tree must output the function value on every input."""
    theta = data.draw(st.integers(0, n + 1))
    spec = ThresholdSpec(n, theta)
    tree = build_index_tree(n, theta)
    validate_tree(tree, spec)
    for x in range(1 << n):
        vec = [(x >> j) & 1 for j in range(n)]
        value, bits = walk_tree(tree, vec)
        assert value == threshold_value(theta, vec)
        assert 0 <= bits <= n
