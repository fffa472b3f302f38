"""Ingestion of probability profiles, tree (de)serialization, and
rendering: the one JSON emitter for records and strategies, DOT export,
their caps, and the precision every printed float has.

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
from math import comb
from typing import Sequence

from .core import CapacityError, DecisionTree, InputError, Leaf, Node, ProbabilityProfile, dag_postorder

# Every float printed, as text or as a JSON number, has 12 significant digits
FLOAT_FORMAT = "%.12g"


@dataclass(frozen=True)
class IngestedProfile:
    """Sorted profile plus the rank -> original input position map."""

    profile: ProbabilityProfile
    original_index: tuple[int, ...]

    def original_position(self, rank: int) -> int:
        return self.original_index[rank - 1]


def _float(v) -> float:
    try:
        return float(v)
    except OverflowError:  # an integer past the float range
        raise InputError(f"probability {v!r} outside the open interval (0, 1)") from None


def ingest_values(values: Sequence[float]) -> IngestedProfile:
    vals = [_float(v) for v in values]
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
        except ValueError as e:  # also an integer over the interpreter's digit limit
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


def read_text_file(path: str, what: str) -> str:
    """The file's UTF-8 text, without a leading byte-order mark; an InputError
    naming `what` and the file if it cannot be opened, read or decoded."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            return f.read()
    except OSError as e:
        raise InputError(f"cannot read {what}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {what}: {path!r} is not UTF-8 text ({e})") from e


def load_profile(path: str) -> IngestedProfile:
    return parse_profile_text(read_text_file(path, "probabilities file"))


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
# most 705 k nodes).  Rendering is iterative at any depth, but a reader's
# `json.loads` recurses once per level: at the default recursion limit it
# parses 990 nested arrays and raises RecursionError at 1,000, so 900
# levels leave room for its callers' frames.  Indented JSON grows two
# bytes per line and level, so within those caps it can still reach
# gigabytes; 2**28 bytes admits every policy tree up to n = 20 (at most
# 104 MB, at n = 20, theta = 11).
MAX_RENDER_NODES = 1_000_000
MAX_JSON_DEPTH = 900
MAX_JSON_BYTES = 1 << 28

# `policy --annotate` prints each reachable state's remaining ranks, so its
# output grows as lattice points x n, and that product is capped.  At the
# cap a table run is largest at theta 1, n = 5,792: 0.6-0.8 s, 491 MiB peak
# RSS and 75 MiB of csv; theta n/2 reaches n = 406 (0.5 s, 235 MiB, 60 MiB).
# JSON's own caps stop first, at 2.4 x 10^6 cells or fewer: theta 1, n = 900
# takes 0.6 s and 112 MiB (CLI processes, 2-core x86-64 host, Python 3.11).
MAX_ANNOTATE_CELLS = 1 << 25


def tree_extent(tree: DecisionTree) -> tuple[int, int, int]:
    """(node count, depth in edges, JSON bytes) of the tree a DAG expands to,
    memoized per node.

    JSON bytes are those of `render_json(tree)` without its final newline:
    indent 2, keys sorted.  That text has 3 * nodes - 1 line breaks, so
    opening at nesting level lv it is 2 * lv * (3 * nodes - 1) bytes longer.
    """
    memo: dict[int, tuple[int, int, int]] = {}
    for t in dag_postorder(tree):
        if isinstance(t, Leaf):
            memo[id(t)] = (1, 0, 16)  # '{\n  "value": 1\n}'
        else:
            (zs, zd, zb), (os_, od, ob) = memo[id(t.on_zero)], memo[id(t.on_one)]
            below = zs + os_
            # 50 bytes of braces, keys, breaks and indentation, the transmitter, and
            # both children one level in: 2 more bytes on each of their 3 * below - 2 breaks
            nbytes = 46 + len(str(t.transmitter)) + zb + ob + 6 * below
            memo[id(t)] = (1 + below, 1 + max(zd, od), nbytes)
    return memo[id(tree)]


def _check_node_cap(size: int) -> None:
    if size > MAX_RENDER_NODES:
        # past about 4,300 digits Python refuses to print an int in decimal
        shown = size if size.bit_length() < 10_000 else f"more than 2**{size.bit_length() - 1}"
        raise CapacityError(f"the strategy expands to {shown} tree nodes, over the rendering cap of {MAX_RENDER_NODES}")


def check_strategy_size(n: int, theta: int) -> None:
    """Refuse every valid strategy for (n, theta) past the node cap, before one is built.

    Whatever it asks, a valid strategy stops when theta ones or
    n - theta + 1 zeros have been heard, so its leaves are the 0/1 answer
    sequences that stop there: C(n + 1, theta) of them, by the
    hockey-stick identity, and one node fewer inside.  The count is
    `tree_extent`'s, so the message is `_check_render_caps`'s.
    """
    _check_node_cap(2 * comb(n + 1, theta) - 1)


def _check_render_caps(tree: DecisionTree, json_level: int | None = None) -> None:
    """Refuse a tree past the node cap, or, as indented JSON opening at
    nesting `json_level`, past the nesting or the byte cap."""
    size, depth, nbytes = tree_extent(tree)
    _check_node_cap(size)
    if json_level is None:
        return
    if depth > MAX_JSON_DEPTH:
        raise CapacityError(f"the strategy is {depth} levels deep, over the JSON nesting cap of {MAX_JSON_DEPTH}")
    nbytes += 2 * json_level * (3 * size - 1)
    if nbytes > MAX_JSON_BYTES:
        raise CapacityError(f"the strategy's JSON is {nbytes} bytes, over the output cap of {MAX_JSON_BYTES} bytes")


def render_json(obj, compact: bool = False) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, or with `compact`
    `json.dumps(obj, sort_keys=True)`, where a `Node` or `Leaf` stands in
    for its `tree_to_dict` dict, under the same caps, and every float (an
    `np.float64` too) is rounded to FLOAT_FORMAT's 12 significant digits.

    Object keys must be strings.  A strategy is checked against the caps
    before its container's items are rendered, as indented JSON opening at
    its own nesting level, or, compact, at level 0 as `tree_to_dict` does.

    The work is depth first from an explicit stack.  A strategy node met
    again at a nesting level where its text is the same is appended as the
    text of its first rendering: Python work is per (DAG node, level), and
    each byte of a repeated subtree is joined once.  Building the text
    bottom-up instead would copy every subtree's text into each
    ancestor's, depth times over.
    """
    if isinstance(obj, (Node, Leaf)):
        _check_render_caps(obj, 0)
    out: list[str] = []
    # (id(node), level) -> the (start, end) span of its pieces in `out`, then their joined text
    rendered: dict[tuple[int, int], tuple[int, int] | str] = {}
    # a piece of text, a (value, level) to render, or (None, key, start) closing a node's span
    stack: list = [(obj, 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            out.append(entry)
            continue
        if len(entry) == 3:
            _, key, start = entry
            rendered[key] = (start, len(out))
            continue
        value, level = entry
        if isinstance(value, (Node, Leaf)):
            key = (id(value), 0 if compact else level)  # compact text is the same at every level
            done = rendered.get(key)
            if done is not None:
                if isinstance(done, tuple):
                    done = rendered[key] = "".join(out[done[0] : done[1]])
                out.append(done)
                continue
            stack.append((None, key, len(out)))
            items = [('"value": ', value.value)] if isinstance(value, Leaf) else [
                ('"on_one": ', value.on_one), ('"on_zero": ', value.on_zero), ('"transmitter": ', value.transmitter)]
            brackets = "{}"
        else:
            if isinstance(value, dict) and value:
                if not all(isinstance(k, str) for k in value):
                    raise TypeError("JSON object keys must be strings")
                items = [(f"{json.dumps(k)}: ", v) for k, v in sorted(value.items())]
                brackets = "{}"
            elif isinstance(value, (list, tuple)) and value:
                items = [("", v) for v in value]
                brackets = "[]"
            elif type(value) is int:
                out.append(int.__repr__(value))  # json's own text, without a json.dumps call per number
                continue
            else:
                out.append(json.dumps(float(FLOAT_FORMAT % value) if isinstance(value, float) else value))
                continue
            for _, v in items:
                if isinstance(v, (Node, Leaf)):
                    _check_render_caps(v, 0 if compact else level + 1)
        inner = "" if compact else "\n" + "  " * (level + 1)
        pieces: list = []
        for i, (prefix, v) in enumerate(items):
            pieces += (("," + (inner or " ") if i else brackets[0] + inner) + prefix, (v, level + 1))
        pieces.append(inner[:-2] + brackets[1])
        stack += reversed(pieces)
    if not compact:
        out.append("\n")
    return "".join(out)


def tree_to_dict(tree: DecisionTree) -> dict:
    """The strategy as nested dicts, under `render_json`'s caps at level 0: one dict per
    distinct DAG node, built from its children's, so equal subtrees the DAG shares are one object."""
    _check_render_caps(tree, 0)
    made: dict[int, dict] = {}
    for t in dag_postorder(tree):
        made[id(t)] = {"value": t.value} if isinstance(t, Leaf) else {
            "transmitter": t.transmitter, "on_zero": made[id(t.on_zero)], "on_one": made[id(t.on_one)]}
    return made[id(tree)]


def tree_from_dict(data: object) -> DecisionTree:
    """The strategy a `tree_to_dict` dict describes, checked in preorder from an explicit stack."""
    built: list[DecisionTree] = []
    stack: list = [(data, None)]  # (object to check, None), or (None, transmitter) once both children are built
    while stack:
        data, transmitter = stack.pop()
        if transmitter is not None:
            on_one = built.pop()
            built.append(Node(transmitter, built.pop(), on_one))
        elif not isinstance(data, dict):
            raise InputError(f"tree node must be an object, got {type(data).__name__}")
        elif "value" in data:
            if set(data) != {"value"}:
                raise InputError(f"leaf object has extra keys: {sorted(set(data) - {'value'})}")
            value = data["value"]
            if type(value) is not int or value not in (0, 1):  # refuses true, false and 1.0
                raise InputError(f"leaf value must be 0 or 1, got {value!r}")
            built.append(Leaf(value))
        elif set(data) != {"transmitter", "on_zero", "on_one"}:
            raise InputError(f"internal node keys must be ['on_one', 'on_zero', 'transmitter'], got {sorted(data)}")
        elif type(data["transmitter"]) is not int or data["transmitter"] < 1:
            raise InputError(f"transmitter must be a positive integer, got {data['transmitter']!r}")
        else:
            stack += ((None, data["transmitter"]), (data["on_one"], None), (data["on_zero"], None))
    return built[0]


def tree_to_dot(tree: DecisionTree, labels: Sequence[str] | None = None) -> str:
    """Render a strategy as Graphviz DOT with deterministic preorder node ids.

    A node's two edges follow its whole subtree.  `labels[r-1]` overrides
    the display name of rank r, which lets callers show original input
    labels on a rank-space tree; its backslashes and double quotes are
    escaped.
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
            name = str(labels[t.transmitter - 1]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{nid} [label="{name}", shape=ellipse];')
        stack += ((t.on_one, nid), (t.on_zero, -1))
    lines.append("}")
    return "\n".join(lines) + "\n"
