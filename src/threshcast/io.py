"""Ingestion of probability profiles and (de)serialization of decision trees.

Profiles arrive as a JSON array or a single-column CSV in arbitrary
order.  Solvers require ascending order, so ingestion sorts with a stable
sort and keeps the permutation: rank r (1-based, in sorted order) maps
back to the original 0-based input position.  Ties keep input order.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from typing import Sequence

from .core import CapacityError, DecisionTree, InputError, Leaf, Node, ProbabilityProfile, tree_extent


@dataclass(frozen=True)
class IngestedProfile:
    """Sorted profile plus the rank -> original input position map."""

    profile: ProbabilityProfile
    original_index: tuple[int, ...]

    def original_position(self, rank: int) -> int:
        return self.original_index[rank - 1]


def ingest_values(values: Sequence[float]) -> IngestedProfile:
    vals = [float(v) for v in values]
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    profile = ProbabilityProfile(tuple(vals[i] for i in order))
    return IngestedProfile(profile, tuple(order))


def parse_profile_text(text: str) -> IngestedProfile:
    """Parse a profile from JSON-array or single-column CSV text."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty profile input")
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON profile: {e}") from e
        if not isinstance(data, list) or not all(isinstance(v, (int, float)) for v in data):
            raise InputError("JSON profile must be a flat array of numbers")
        return ingest_values(data)
    values: list[float] = []
    first_row = True
    for row in csv.reader(_io.StringIO(stripped)):
        cells = [c.strip() for c in row if c.strip()]
        if not cells:
            continue
        if len(cells) != 1:
            raise InputError(f"CSV profile must have one column, got row {row!r}")
        try:
            values.append(float(cells[0]))
        except ValueError:
            # A non-numeric first row is tolerated as a header.
            if not first_row:
                raise InputError(f"non-numeric probability {cells[0]!r}")
        first_row = False
    return ingest_values(values)


def load_profile(path: str) -> IngestedProfile:
    with open(path, "r", encoding="utf-8") as f:
        return parse_profile_text(f.read())


def parse_probs_arg(arg: str) -> IngestedProfile:
    """Parse a comma-separated --probs command line value."""
    parts = [s for s in (piece.strip() for piece in arg.split(",")) if s]
    if not parts:
        raise InputError("empty --probs value")
    try:
        values = [float(s) for s in parts]
    except ValueError as e:
        raise InputError(f"invalid --probs value: {e}") from e
    return ingest_values(values)


# ---------------------------------------------------------------------------
# Tree serialization

# Strategies are shared DAGs, and rendering expands them into trees.  A
# tree past these caps is refused with CapacityError (exit 3) instead of
# being printed: 10**6 nodes admits every policy tree up to n = 20 (at
# most 705 k nodes), and 900 levels of nesting is what the stdlib json
# encoder handles at the default recursion limit, with room left for
# its callers' frames.  Indented JSON grows two bytes per line and level,
# so within those caps it can still reach gigabytes; 2**28 bytes admits
# every policy tree up to n = 20 (at most 104 MB, at n = 20, theta = 11).
MAX_RENDER_NODES = 1_000_000
MAX_JSON_DEPTH = 900
MAX_JSON_BYTES = 1 << 28


def _check_render_caps(tree: DecisionTree, json_level: int | None = None) -> None:
    """Refuse a tree past the node cap, or, as indented JSON opening at
    nesting `json_level`, past the nesting or the byte cap."""
    size, depth, nbytes = tree_extent(tree)
    if size > MAX_RENDER_NODES:
        raise CapacityError(f"the strategy expands to {size} tree nodes, over the rendering cap of {MAX_RENDER_NODES}")
    if json_level is None:
        return
    if depth > MAX_JSON_DEPTH:
        raise CapacityError(f"the strategy is {depth} levels deep, over the JSON nesting cap of {MAX_JSON_DEPTH}")
    nbytes += 2 * json_level * (3 * size - 1)
    if nbytes > MAX_JSON_BYTES:
        raise CapacityError(f"the strategy's JSON is {nbytes} bytes, over the output cap of {MAX_JSON_BYTES} bytes")


def render_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, where a `Node` or
    `Leaf` stands in for its `tree_to_dict` dict, under the same caps.

    Object keys must be strings.  A strategy that is `obj` or one of its
    values is checked against the caps before anything is rendered.
    """
    values = obj.values() if isinstance(obj, dict) else ()
    for value, level in ((obj, 0), *((v, 1) for v in values)):
        if isinstance(value, (Node, Leaf)):
            _check_render_caps(value, level)
    out: list[str] = []
    _emit_json(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _emit_json(obj, level: int, out: list[str]) -> None:
    """Append the text of `obj` opening at nesting `level` to `out`."""
    if isinstance(obj, (Node, Leaf)):
        _emit_tree(obj, level, out)
        return
    if isinstance(obj, dict) and obj:
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        items = [(f"{json.dumps(k)}: ", v) for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)) and obj:
        items = [("", v) for v in obj]
        brackets = "[]"
    else:
        # an int's text is json's own, without a json.dumps call per number
        out.append(int.__repr__(obj) if type(obj) is int else json.dumps(obj))
        return
    inner = "\n" + "  " * (level + 1)
    sep = brackets[0] + inner
    for prefix, value in items:
        out.append(sep + prefix)
        _emit_json(value, level + 1, out)
        sep = "," + inner
    out.append("\n" + "  " * level + brackets[1])


def _emit_tree(tree: DecisionTree, level: int, out: list[str]) -> None:
    """Append the indented JSON of `tree_to_dict(tree)`, opening at nesting
    `level`, to `out`.

    The DAG is expanded depth first, but a (node, level) met again, whose
    indentation is the same, is appended as the text of its first rendering.
    So Python work is per (DAG node, level), and each byte of a repeated
    subtree is joined once: building the text bottom-up instead would copy
    every subtree's text into each ancestor's, depth times over.
    """
    _check_render_caps(tree, level)
    # (id(node), level) -> the (start, end) span of its pieces in `out`, then their joined text
    rendered: dict[tuple[int, int], tuple[int, int] | str] = {}
    # a (node, level) to render, a piece of text, or (None, key, start) closing a span
    stack: list = [(tree, level)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            out.append(entry)
            continue
        if len(entry) == 3:
            _, key, start = entry
            rendered[key] = (start, len(out))
            continue
        t, lv = entry
        key = (id(t), lv)
        done = rendered.get(key)
        if done is not None:
            if isinstance(done, tuple):
                done = rendered[key] = "".join(out[done[0] : done[1]])
            out.append(done)
            continue
        inner, close = "\n" + "  " * (lv + 1), "\n" + "  " * lv + "}"
        if isinstance(t, Leaf):
            rendered[key] = text = f'{{{inner}"value": {json.dumps(t.value)}{close}'
            out.append(text)
            continue
        stack += (
            (None, key, len(out)),
            f',{inner}"transmitter": {json.dumps(t.transmitter)}{close}',
            (t.on_zero, lv + 1),
            f',{inner}"on_zero": ',
            (t.on_one, lv + 1),
        )
        out.append(f'{{{inner}"on_one": ')


def tree_to_dict(tree: DecisionTree) -> dict:
    _check_render_caps(tree, 0)

    def expand(t: DecisionTree) -> dict:
        if isinstance(t, Leaf):
            return {"value": t.value}
        return {"transmitter": t.transmitter, "on_zero": expand(t.on_zero), "on_one": expand(t.on_one)}

    return expand(tree)


def tree_from_dict(data: object) -> DecisionTree:
    if not isinstance(data, dict):
        raise InputError(f"tree node must be an object, got {type(data).__name__}")
    if "value" in data:
        if set(data) != {"value"}:
            raise InputError(f"leaf object has extra keys: {sorted(set(data) - {'value'})}")
        value = data["value"]
        if value not in (0, 1):
            raise InputError(f"leaf value must be 0 or 1, got {value!r}")
        return Leaf(value)
    want = {"transmitter", "on_zero", "on_one"}
    if set(data) != want:
        raise InputError(f"internal node keys must be {sorted(want)}, got {sorted(data)}")
    transmitter = data["transmitter"]
    if not isinstance(transmitter, int) or transmitter < 1:
        raise InputError(f"transmitter must be a positive integer, got {transmitter!r}")
    return Node(transmitter, tree_from_dict(data["on_zero"]), tree_from_dict(data["on_one"]))


def tree_to_dot(tree: DecisionTree, labels: Sequence[str] | None = None) -> str:
    """Render a strategy as Graphviz DOT with deterministic preorder node ids.

    A node's two edges follow its whole subtree.  `labels[r-1]` overrides
    the display name of rank r, which lets callers show original input
    labels on a rank-space tree.
    """
    _check_render_caps(tree)
    lines = ["digraph strategy {"]
    # (subtree, id of the node it is the one-branch of, else -1), or
    # (None, edge lines), which pops once that one-branch subtree is done;
    # a zero-branch child's id is always its parent's id + 1
    stack: list = [(tree, -1)]
    counter = 0
    while stack:
        t, parent = stack.pop()
        if t is None:
            lines.append(parent)
            continue
        nid = counter
        counter += 1
        if parent >= 0:
            stack.append((None, f'  n{parent} -> n{parent + 1} [label="0"];\n  n{parent} -> n{nid} [label="1"];'))
        if isinstance(t, Leaf):
            lines.append(f'  n{nid} [label="{t.value}", shape=box];')
            continue
        name = f"x{t.transmitter}"
        if labels is not None and 1 <= t.transmitter <= len(labels):
            name = str(labels[t.transmitter - 1])
        lines.append(f'  n{nid} [label="{name}", shape=ellipse];')
        stack += ((t.on_one, nid), (t.on_zero, -1))
    lines.append("}")
    return "\n".join(lines) + "\n"
