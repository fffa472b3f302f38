"""Profile ingestion and tree serialization."""

import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcast import io as tio
from threshcast.core import CapacityError, InputError, Leaf, Node, ProbabilityProfile, dag_postorder
from threshcast.dp import optimal_tree, strategy_cost
from threshcast.io import (
    check_strategy_size,
    ingest_values,
    load_profile,
    parse_probs_arg,
    parse_profile_text,
    render_json,
    tree_extent,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from threshcast.policy import build_index_tree
from threshcast.verify import enumerate_trees


class TestIngestion:
    def test_sorted_input_identity_map(self):
        ing = ingest_values([0.2, 0.5, 0.9])
        assert ing.profile.probs == (0.2, 0.5, 0.9)
        assert ing.original_index == (0, 1, 2)

    def test_unsorted_input_keeps_positions(self):
        ing = ingest_values([0.9, 0.2, 0.5])
        assert ing.profile.probs == (0.2, 0.5, 0.9)
        assert ing.original_index == (1, 2, 0)
        assert ing.original_position(1) == 1
        assert ing.original_position(3) == 0

    def test_ties_keep_input_order(self):
        ing = ingest_values([0.5, 0.3, 0.5])
        assert ing.original_index == (1, 0, 2)

    def test_json_array(self):
        ing = parse_profile_text("[0.6, 0.3]")
        assert ing.profile.probs == (0.3, 0.6)

    def test_csv_single_column(self):
        ing = parse_profile_text("0.6\n0.3\n")
        assert ing.profile.probs == (0.3, 0.6)

    def test_csv_with_header(self):
        ing = parse_profile_text("p\n0.6\n0.3\n")
        assert ing.profile.probs == (0.3, 0.6)

    def test_rejects_two_columns(self):
        with pytest.raises(InputError):
            parse_profile_text("0.3,0.6\n")

    def test_rejects_non_numeric_after_data(self):
        with pytest.raises(InputError):
            parse_profile_text("0.3\nxyz\n")

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            parse_profile_text("")

    def test_rejects_nested_json(self):
        with pytest.raises(InputError):
            parse_profile_text("[[0.3], [0.6]]")
        with pytest.raises(InputError):
            parse_profile_text('{"p": 0.3}')

    def test_probs_arg(self):
        ing = parse_probs_arg("0.6, 0.3")
        assert ing.profile.probs == (0.3, 0.6)
        with pytest.raises(InputError):
            parse_probs_arg("0.3,abc")
        with pytest.raises(InputError):
            parse_probs_arg("")

    def test_load_profile_both_formats(self, tmp_path):
        jpath = tmp_path / "p.json"
        jpath.write_text("[0.4, 0.2]")
        assert load_profile(str(jpath)).profile.probs == (0.2, 0.4)
        cpath = tmp_path / "p.csv"
        cpath.write_text("0.4\n0.2\n")
        assert load_profile(str(cpath)).profile.probs == (0.2, 0.4)


class TestTreeSerialization:
    def tree(self):
        return Node(2, Node(1, Leaf(0), Leaf(1)), Leaf(1))

    def test_dict_round_trip(self):
        t = self.tree()
        assert tree_from_dict(tree_to_dict(t)) == t

    def test_json_round_trip(self):
        t = self.tree()
        assert tree_from_dict(json.loads(render_json(t))) == t

    def test_dict_shape(self):
        d = tree_to_dict(self.tree())
        assert d == {
            "transmitter": 2,
            "on_zero": {"transmitter": 1, "on_zero": {"value": 0}, "on_one": {"value": 1}},
            "on_one": {"value": 1},
        }

    @pytest.mark.parametrize(
        "bad",
        [
            {"value": 2},
            {"value": 1, "extra": 0},
            {"transmitter": 1, "on_zero": {"value": 0}},
            {"transmitter": 0, "on_zero": {"value": 0}, "on_one": {"value": 1}},
            {"transmitter": "a", "on_zero": {"value": 0}, "on_one": {"value": 1}},
            [],
            "leaf",
            # JSON true and false are not the integers 1 and 0
            {"value": True},
            {"value": False},
            {"value": 1.0},
            {"transmitter": True, "on_zero": {"value": 0}, "on_one": {"value": 1}},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InputError):
            tree_from_dict(bad)

    @staticmethod
    def chain(depth: int, bottom: dict) -> dict:
        """`depth` nodes, each the zero branch of the one above, over `bottom`."""
        for _ in range(depth):
            bottom = {"transmitter": 1, "on_zero": bottom, "on_one": {"value": 1}}
        return bottom

    def test_deep_chain_parses(self):
        # a parser that recursed once per level would raise RecursionError here
        tree = tree_from_dict(self.chain(5000, {"value": 0}))
        assert tree_extent(tree)[:2] == (10_001, 5000)

    def test_deep_chain_refuses_a_bad_bottom_leaf(self):
        with pytest.raises(InputError, match="leaf value must be 0 or 1, got 2"):
            tree_from_dict(self.chain(5000, {"value": 2}))

    def test_dot_output(self):
        dot = tree_to_dot(self.tree())
        assert dot.startswith("digraph strategy {")
        assert dot.endswith("}\n")
        assert 'label="x2"' in dot
        assert 'label="1", shape=box' in dot
        assert '[label="0"];' in dot and '[label="1"];' in dot

    def test_dot_labels_by_rank(self):
        dot = tree_to_dot(self.tree(), labels=["lo", "hi"])
        assert 'label="hi", shape=ellipse' in dot
        assert 'label="lo", shape=ellipse' in dot
        assert "x1" not in dot and "x2" not in dot

    def test_dot_labels_are_escaped(self):
        dot = tree_to_dot(self.tree(), labels=['a"b', "c\\d"])
        assert 'label="a\\"b", shape=ellipse' in dot
        assert 'label="c\\\\d", shape=ellipse' in dot

    def test_dot_deterministic(self):
        assert tree_to_dot(self.tree()) == tree_to_dot(self.tree())

    def test_json_is_sorted_and_stable(self):
        text = render_json(self.tree())
        assert text == stdlib_json(json.loads(text)) == render_json(self.tree())


class TestRenderingCaps:
    def test_extent_counts_the_expanded_tree(self):
        for n in range(1, 9):
            for theta in range(1, n + 1):
                tree = build_index_tree(n, theta)
                nodes = tree_to_dot(tree).count("shape=")
                assert tree_extent(tree) == (nodes, n, len(stdlib_json(tree_to_dict(tree))) - 1), (n, theta)

    def test_every_valid_strategy_expands_to_the_closed_form(self):
        for n in range(1, 14):
            for theta in range(n + 2):
                assert tree_extent(build_index_tree(n, theta))[0] == 2 * comb(n + 1, theta) - 1, (n, theta)
        for n in range(1, 11):
            profile = ProbabilityProfile(tuple((i + 0.5) / n for i in range(n)))
            for theta in range(n + 2):
                assert tree_extent(optimal_tree(profile, theta))[0] == 2 * comb(n + 1, theta) - 1, (n, theta)
        for theta in range(6):
            trees = enumerate_trees(4, theta)
            assert {tree_extent(t)[0] for t in trees} == {2 * comb(5, theta) - 1}, theta

    def test_size_check_refuses_where_the_render_check_does(self, monkeypatch):
        tree = build_index_tree(9, 4)
        size = tree_extent(tree)[0]
        monkeypatch.setattr(tio, "MAX_RENDER_NODES", size)
        check_strategy_size(9, 4)
        monkeypatch.setattr(tio, "MAX_RENDER_NODES", size - 1)
        with pytest.raises(CapacityError) as from_size:
            check_strategy_size(9, 4)
        with pytest.raises(CapacityError) as from_tree:
            tio._check_render_caps(tree)
        assert str(from_size.value) == str(from_tree.value) == (
            f"the strategy expands to {size} tree nodes, over the rendering cap of {size - 1}")

    def test_size_past_the_decimal_digit_limit_is_bounded(self):
        # C(20001, 10000) has about 6,000 digits, past what Python prints by default
        with pytest.raises(CapacityError, match=r"expands to more than 2\*\*19994 tree nodes, over the rendering cap"):
            check_strategy_size(20_000, 10_000)

    def test_caps_refuse_before_rendering(self, monkeypatch):
        tree = build_index_tree(6, 3)
        size, depth, _ = tree_extent(tree)
        monkeypatch.setattr(tio, "MAX_RENDER_NODES", size - 1)
        for render in (tree_to_dict, tree_to_dot, render_json, lambda t: render_json(t, compact=True)):
            with pytest.raises(CapacityError, match=f"cap of {size - 1}"):
                render(tree)
        monkeypatch.setattr(tio, "MAX_RENDER_NODES", size)
        monkeypatch.setattr(tio, "MAX_JSON_DEPTH", depth - 1)
        for render in (tree_to_dict, lambda t: render_json({"tree": t}), lambda t: render_json([t], compact=True)):
            with pytest.raises(CapacityError, match=f"cap of {depth - 1}"):
                render(tree)
        assert tree_to_dot(tree).count("shape=") == size

    def test_byte_cap_one_byte_either_side(self, monkeypatch):
        tree = build_index_tree(7, 3)
        # the tree's own text, opening at nesting 0 and at nesting 1; compact
        # text is refused where tree_to_dict refuses, at the nesting-0 size
        at_level_0 = len(stdlib_json(tree_to_dict(tree))) - 1
        cases = (
            (tree_to_dict, at_level_0),
            (lambda t: render_json(t, compact=True), at_level_0),
            (lambda t: render_json({"tree": [t]}, compact=True), at_level_0),
            (render_json, len(render_json(tree)) - 1),
            (lambda t: render_json({"tree": t}), len(render_json({"tree": tree})) - len('{\n  "tree": \n}\n')),
        )
        for render, nbytes in cases:
            monkeypatch.setattr(tio, "MAX_JSON_BYTES", nbytes)
            render(tree)
            monkeypatch.setattr(tio, "MAX_JSON_BYTES", nbytes - 1)
            with pytest.raises(CapacityError, match=f"JSON is {nbytes} bytes, over the output cap of {nbytes - 1} bytes"):
                render(tree)
        # the byte cap is for JSON only
        tree_to_dot(tree)


def stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 5e-324, -0.0, 1e300, float("nan")]),
    st.text(max_size=6),
    st.sampled_from(['"', '\\"quoted\\"', "caf\u00e9", "\u2203x", "tab\there", "\U0001f600"]),
)
RECORDS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


def rounded(obj):
    """`obj` with every float rounded to the 12 significant digits output prints."""
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    return obj


class TestRenderJson:
    """`render_json` is byte for byte `json.dumps(sort_keys=True, indent=2)` plus a
    newline, and compact, `json.dumps(sort_keys=True)`, of the object with
    its floats rounded to 12 significant digits."""

    @settings(max_examples=200, deadline=None)
    @given(RECORDS)
    def test_random_records(self, obj):
        assert render_json(obj) == stdlib_json(rounded(obj))
        assert render_json(obj, compact=True) == json.dumps(rounded(obj), sort_keys=True)

    def test_empty_and_nested_containers(self):
        for obj in ({}, [], (), {"a": {}}, {"a": [[], {}, ()]}, [[[]]], {"b": 1, "a": {"d": [1, {"c": None}]}}):
            assert render_json(obj) == stdlib_json(obj)
            assert render_json(obj, compact=True) == json.dumps(obj, sort_keys=True)

    def test_non_string_keys_are_refused(self):
        for compact in (False, True):
            with pytest.raises(TypeError):
                render_json({1: 2}, compact=compact)

    def assert_tree_renders(self, tree):
        assert render_json({"tree": tree}) == stdlib_json({"tree": tree_to_dict(tree)})
        assert render_json(tree) == stdlib_json(tree_to_dict(tree))
        assert render_json({"tree": tree}, compact=True) == json.dumps({"tree": tree_to_dict(tree)}, sort_keys=True)
        assert render_json(tree, compact=True) == json.dumps(tree_to_dict(tree), sort_keys=True)

    def test_policy_dags(self):
        for n in range(1, 10):
            for theta in range(n + 2):
                self.assert_tree_renders(build_index_tree(n, theta))

    def test_optimal_and_parsed_trees(self):
        for probs, theta in (((0.2, 0.5, 0.7), 2), ((0.1, 0.3, 0.35, 0.6, 0.9), 3), ((0.4,), 1)):
            tree = optimal_tree(ProbabilityProfile(probs), theta)
            self.assert_tree_renders(tree)
            self.assert_tree_renders(tree_from_dict(tree_to_dict(tree)))

    def test_subtree_shared_at_two_levels(self):
        shared = Node(3, Leaf(0), Leaf(1))
        tree = Node(1, shared, Node(2, shared, Node(4, shared, shared)))
        self.assert_tree_renders(tree)
        obj = {"a": [tree, {"b": shared}], "c": shared, "n": 1}
        expected = {"a": [tree_to_dict(tree), {"b": tree_to_dict(shared)}], "c": tree_to_dict(shared), "n": 1}
        assert render_json(obj) == stdlib_json(expected)
        assert render_json(obj, compact=True) == json.dumps(expected, sort_keys=True)


class TestDeepStrategies:
    def test_every_reader_runs_900_levels_deep_from_150_frames_down(self):
        # 1,801 nodes and 900 levels, inside every render cap; a reader that
        # recursed once per level would pass the recursion limit here
        tree = build_index_tree(900, 1)
        assert tree_extent(tree) == (1801, 900, len(render_json(tree)) - 1)
        profile = ProbabilityProfile((0.5,) * 900)

        def read():
            assert tree_from_dict(tree_to_dict(tree)) == tree
            assert tree_to_dot(tree).count("->") == 1800
            assert tree_extent(tree)[:2] == (1801, 900)
            assert strategy_cost(tree, profile, 1) == pytest.approx(2.0)
            assert tree == build_index_tree(900, 1)
            return render_json(tree), render_json(tree, compact=True)

        def nest(frames):
            return nest(frames - 1) if frames else read()

        try:
            texts = nest(150)
        except RecursionError:  # reported below, without its 1,000 frames of traceback
            texts = None
        assert texts is not None, "a reader recursed once per level"
        # json.loads recurses per level, so the texts are parsed from up here
        for text in texts:
            assert tree_from_dict(json.loads(text)) == tree

    @pytest.mark.parametrize("n,theta", [(900, 1), (12, 6)])
    def test_dict_per_distinct_dag_node(self, n, theta):
        tree = build_index_tree(n, theta)
        seen: dict[int, dict] = {}
        stack = [tree_to_dict(tree)]
        while stack:
            d = stack.pop()
            if id(d) not in seen:
                seen[id(d)] = d
                stack += [d[k] for k in ("on_zero", "on_one") if k in d]
        assert len(seen) == len(dag_postorder(tree))
