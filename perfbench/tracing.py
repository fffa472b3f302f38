"""Spans around the calls into each threshcast module, recorded from outside.

Wrappers replace a public function at the place its callers look it up
(a module attribute, or a method on its class), so nothing under `src/`
changes.  Recursive internals (`cost_mask`, the recursion inside
`tree_to_dict`) and per-state helpers such as `classify_state` get no
wrapper: they are called so often that a span would cost more than the
work it measures.  `tree_internal_states` is a generator whose work runs
while `cli` iterates it, so that time counts as `cli` self time.

Each span records its name, start, end, parent span and op id.  A span's
self time is its duration minus the durations of its direct children;
calls are nested and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "core", "dp", "verify", "policy", "huffman", "sim")

# (module attribute the callers read, span name); span names are "<layer>.<function>"
FUNCTIONS = (
    ("cli", "parse_probs_arg", "io.parse"),
    ("cli", "load_profile", "io.parse"),
    ("cli", "tree_to_dict", "io.tree_to_dict"),
    ("cli", "tree_to_dot", "io.tree_to_dot"),
    ("cli", "optimal_tree", "dp.optimal_tree"),
    ("cli", "strategy_cost", "dp.strategy_cost"),
    ("sim", "strategy_cost", "dp.strategy_cost"),
    ("verify", "strategy_cost", "dp.strategy_cost"),
    ("dp", "validate_tree", "core.validate_tree"),
    ("cli", "index_policy_cost", "policy.index_policy_cost"),
    ("verify", "index_policy_cost", "policy.index_policy_cost"),
    ("cli", "build_index_tree", "policy.build_index_tree"),
    ("cli", "annotate_reachable_states", "policy.annotate_reachable_states"),
    ("cli", "check_lemma_inequalities", "verify.check_lemma_inequalities"),
    ("cli", "exhaustive_strategy_check", "verify.exhaustive_strategy_check"),
    ("verify", "enumerate_trees", "verify.enumerate_trees"),
    ("cli", "simulate_tree", "sim.simulate_tree"),
    ("cli", "run_block_replications", "sim.run_block_replications"),
    ("sim", "run_block_strategy", "sim.run_block_strategy"),
    ("sim", "build_block_code", "huffman.build_block_code"),
)
# (module, class, method, span name)
METHODS = (
    ("dp", "CostTable", "cost", "dp.table"),
    ("dp", "CostTable", "minimizers", "dp.minimizers"),
    ("huffman", "BernoulliBlockCode", "encode_block", "huffman.encode_block"),
    ("huffman", "BernoulliBlockCode", "decode_block", "huffman.decode_block"),
)


class Tracer:
    """Spans kept in parallel arrays while the run lasts, reduced at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._seen_codes: set = set()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen_codes = set()
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span (whether or not an op is active)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer, result, args)
            return result

        return traced

    def install(self, package_modules: dict) -> None:
        """Wrap every traced function of a freshly imported package."""
        for mod, attr, name in FUNCTIONS:
            module = package_modules[mod]
            setattr(module, attr, self.wrap(getattr(module, attr), name))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(package_modules[mod], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), name))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out


def _count_build(tracer: Tracer, result, args) -> None:
    key = (args[0], args[1])
    tracer.counts["huffman.build_calls"] += 1
    if key in tracer._seen_codes:
        tracer.counts["huffman.build_repeats"] += 1
    tracer._seen_codes.add(key)


def _counter(metric: str, amount):
    def count(tracer: Tracer, result, args) -> None:
        tracer.counts[metric] += amount(result)

    return count


COUNTERS = {
    "dp.minimizers": _counter("dp.minimizers_calls", lambda r: 1),
    "core.validate_tree": _counter("core.validate_calls", lambda r: 1),
    "verify.check_lemma_inequalities": _counter("verify.lemma_records", lambda r: len(r.records)),
    "verify.exhaustive_strategy_check": _counter("verify.trees_enumerated", lambda r: r.tree_count),
    "huffman.build_block_code": _count_build,
    "huffman.encode_block": _counter("huffman.codec_calls", lambda r: 1),
    "huffman.decode_block": _counter("huffman.codec_calls", lambda r: 1),
    "sim.run_block_strategy": _counter("sim.rounds", lambda r: len(r.rounds)),
    "sim.simulate_tree": _counter("sim.trials", lambda r: r.trials),
    "policy.annotate_reachable_states": _counter("policy.states_annotated", len),
}

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "io.parse_s": ("io.parse",),
    "io.tree_to_dict_s": ("io.tree_to_dict",),
    "io.tree_to_dot_s": ("io.tree_to_dot",),
    "core.validate_s": ("core.validate_tree",),
    "dp.table_s": ("dp.table",),
    "dp.tree_s": ("dp.optimal_tree",),
    "dp.minimizers_s": ("dp.minimizers",),
    "dp.strategy_cost_s": ("dp.strategy_cost",),
    "verify.lemma_self_s": ("verify.check_lemma_inequalities",),
    "verify.exhaustive_s": ("verify.exhaustive_strategy_check", "verify.enumerate_trees"),
    "policy.cost_s": ("policy.index_policy_cost",),
    "policy.tree_s": ("policy.build_index_tree",),
    "policy.annotate_s": ("policy.annotate_reachable_states",),
    "huffman.build_s": ("huffman.build_block_code",),
    "huffman.encode_s": ("huffman.encode_block",),
    "huffman.decode_s": ("huffman.decode_block",),
    "sim.block_self_s": ("sim.run_block_strategy", "sim.run_block_replications"),
    "sim.walk_self_s": ("sim.simulate_tree",),
}
COUNT_METRICS = (
    "dp.minimizers_calls",
    "core.validate_calls",
    "verify.lemma_records",
    "verify.trees_enumerated",
    "huffman.build_calls",
    "huffman.codec_calls",
    "sim.rounds",
    "sim.trials",
    "policy.states_annotated",
    "cli.stdout_bytes",
)


def layer_metrics(tracer: Tracer, rotations: int, slowdown: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per rotation of the mix, plus each layer's share
    of all self time.  Times are in reference seconds (divided by the run's
    slowdown)."""
    self_t = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (sum(self_t.get(n, 0.0) for n in names) / rotations / slowdown, "s")
    for metric in COUNT_METRICS:
        out[metric] = (tracer.counts.get(metric, 0.0) / rotations, "B" if metric.endswith("bytes") else "count")
    calls = tracer.counts.get("huffman.build_calls", 0.0)
    repeats = tracer.counts.get("huffman.build_repeats", 0.0)
    out["huffman.build_repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
    total = sum(self_t.values())
    for layer in LAYERS:
        t = sum(v for k, v in self_t.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = (t / total if total else 0.0, "ratio")
    return out
