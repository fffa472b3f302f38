"""Monte Carlo validation and multi-instance block-coding experiments.

Two layers: a vectorized walker that drives one strategy tree over
millions of independent trials (sample mean must straddle the analytic
expectation, computed value must never disagree with the function), and
a batched protocol where N instances run in lockstep and each scheduled
node sends one Huffman-coded block covering all instances that still
need it.  Batching amortizes the one-bit floor of a single transmission
down to the conditional entropy per instance, which is the whole point
of the experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import huffman
from .core import CapacityError, DecisionTree, InputError, Leaf, Node, ProbabilityProfile, ThresholdSpec, dag_postorder
from .dp import strategy_cost
from .huffman import BernoulliBlockCode, build_block_code
from .policy import build_index_tree


# Uniforms drawn at a time: 2 MiB of float64.  The generator's stream is
# the same in blocks of rows as in one call, so only the memory changes.
DRAW_BLOCK_CELLS = 1 << 18


def draw_measurements(
    profile: ProbabilityProfile, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean (trials, n) matrix; row = one trial, column j ~ Bernoulli(p_{j+1}).

    The uniforms are drawn and compared a block of rows at a time, and the
    matrix is stored column-major, since the walks read it a column at a
    time.
    """
    probs = np.asarray(profile.probs)
    X = np.empty((trials, profile.n), dtype=bool, order="F")
    step = max(1, DRAW_BLOCK_CELLS // profile.n)
    for start in range(0, trials, step):
        block = X[start : start + step]
        np.less(rng.random(block.shape), probs, out=block)
    return X


def walk_trials(tree: DecisionTree, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Computed value (int8) and bits broadcast (int64) for every row of `X`.

    Rows are pooled per DAG node and depth: nodes are visited in
    topological order, and each takes the index arrays arriving from all
    its parents at one depth at once.  An internal node splits them on its
    transmitter's column, read from a column-major copy of `X` (`X` itself
    when it is stored so, as `draw_measurements` stores it); a leaf sets
    their value, and their bit count to its depth.  Python work is per
    (DAG node, depth) pair, which is one pair per node when nodes are
    states, numpy work is O(rows * depth), and a branch no row takes is
    never entered.
    """
    trials = X.shape[0]
    columns = np.ascontiguousarray(X.T)
    bits = np.zeros(trials, dtype=np.int64)
    values = np.zeros(trials, dtype=np.int8)
    arriving: dict[int, dict[int, list[np.ndarray]]] = {id(tree): {0: [np.arange(trials)]}}
    for t in reversed(dag_postorder(tree)):  # parents before children
        for depth, parts in arriving.pop(id(t), {}).items():
            idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if isinstance(t, Leaf):
                values[idx] = t.value
                bits[idx] = depth
                continue
            ones = columns[t.transmitter - 1][idx]
            for child, rows in ((t.on_zero, idx[~ones]), (t.on_one, idx[ones])):
                if rows.size:
                    arriving.setdefault(id(child), {}).setdefault(depth + 1, []).append(rows)
    return values, bits


def _group_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `X`, and for each row of `X` the index of its own.

    Rows are renumbered by a radix pass over column chunks: a chunk's key
    is the group id so far shifted left by the chunk's width and or'd with
    its columns one at a time, and a presence table of at most
    max(2**16, 4 * rows) entries turns the keys back into dense ids.  Once
    more than a quarter of the rows are distinct with columns still
    unread, grouping would save little walk work, so refining stops and
    every row is its own group.
    """
    trials, n = X.shape
    span = max(1 << 16, 4 * trials)
    ids = np.zeros(trials, dtype=np.int64)
    groups, col = 1, 0
    while col < n and groups <= trials // 4:
        width = min(n - col, (span // groups).bit_length() - 1)
        for j in range(col, col + width):
            ids <<= 1
            ids |= X[:, j]
        present = np.zeros(groups << width, dtype=bool)
        present[ids] = True
        dense = np.cumsum(present) - 1
        ids = dense[ids]
        groups, col = int(dense[-1]) + 1, col + width
    if col < n:
        return X, np.arange(trials)
    first = np.empty(groups, dtype=np.int64)
    first[ids] = np.arange(trials)  # any row of a group will do
    return X[first], ids


@dataclass(frozen=True)
class SimulationReport:
    n: int
    theta: int
    trials: int
    seed: Optional[int]
    expected_bits: float
    mean_bits: float
    std_error: float
    error_count: int


# Cells of the (trials, n) measurement draw.  Peak memory grows linearly
# in trials at a fixed n.  At 10**7 cells a run peaks 241 MiB above the
# interpreter at n = 1, 127 MiB at n = 2, 29 MiB at n = 12 and 25 MiB at
# n = 60 (2-core x86-64 host, Python 3.11, numpy 2.4): the matrix is 1 B a
# cell, and the per-trial arrays, about 25 B a trial, dominate at small n.
# So at the cap that is about 1.2 GiB at n = 1, and under 0.15 GiB from
# n = 12 up.
SIM_MAX_CELLS = 5 * 10**7


def simulate_tree(
    tree: DecisionTree,
    profile: ProbabilityProfile,
    theta: int,
    trials: int,
    seed: Optional[int] = None,
) -> SimulationReport:
    """Run `trials` independent walks of `tree` and tally bits and errors.

    The draw is grouped into its distinct rows, `walk_trials` walks each
    distinct row once, and values and bits are expanded back per trial,
    so numpy work is O(distinct rows * depth) plus O(trials * n) to group
    and expand, and Python work is O(DAG nodes).  Fewer than 2 trials
    raise InputError, trials * n over SIM_MAX_CELLS CapacityError and an
    invalid tree TreeInvalidError, all before anything is drawn.
    """
    if trials < 2:
        raise InputError("at least 2 trials are needed for a standard error")
    if trials * profile.n > SIM_MAX_CELLS:
        raise CapacityError(
            f"trials x n = {trials * profile.n} is over the simulation cap of {SIM_MAX_CELLS} cells"
        )
    expected_bits = strategy_cost(tree, profile, theta)
    X = draw_measurements(profile, trials, np.random.default_rng(seed))
    rows, ids = _group_rows(X)
    values, bits = walk_trials(tree, rows)
    wrong = values != (rows.sum(axis=1) >= theta)
    bits = bits[ids]
    mean = float(bits.mean())
    se = float(bits.std(ddof=1) / np.sqrt(trials))
    return SimulationReport(
        n=profile.n,
        theta=theta,
        trials=trials,
        seed=seed,
        expected_bits=expected_bits,
        mean_bits=mean,
        std_error=se,
        error_count=int(wrong[ids].sum()),
    )


# ---------------------------------------------------------------------------
# Lockstep block protocol


OrderSpec = Union[str, Sequence[int]]


def strategy_dag(order: OrderSpec, n: int, theta: int) -> DecisionTree:
    """The strategy DAG an order names: the rank policy's, or a fixed permutation's.

    A permutation's DAG has one node per (ranks spoken j, residual
    threshold t): it asks order[j], and a 0 leads to (j + 1, t), a 1 to
    (j + 1, t - 1).  It is built bottom up, one row of t per j.
    """
    ThresholdSpec(n, theta)
    if order == "conjectured":
        return build_index_tree(n, theta)
    if isinstance(order, str):
        raise InputError(f"order must be 'conjectured' or a permutation, got {order!r}")
    perm = tuple(int(r) for r in order)
    if sorted(perm) != list(range(1, n + 1)):
        raise InputError(f"order {perm!r} is not a permutation of 1..{n}")
    zero, one = Leaf(0), Leaf(1)
    row: list[DecisionTree] = [one] + [zero] * theta  # all n spoken
    for j in range(n - 1, -1, -1):
        row = [one] + [Node(perm[j], row[t], row[t - 1]) if t <= n - j else zero for t in range(1, theta + 1)]
    return row[theta]


def _block_walk(tree: DecisionTree, N: int, send: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Walk N instances through `tree` in lockstep; return each one's value (int8).

    Depth first from an explicit stack, the zero branch popped before the
    one branch.  At each node with live instances, `send(rank, live)`
    transmits one block for the live instance indices and returns their
    bits as a bool array; a node no instance reaches sends nothing.
    """
    values = np.full(N, -1, dtype=np.int8)
    stack: list[tuple[DecisionTree, np.ndarray]] = [(tree, np.arange(N))]
    while stack:
        t, live = stack.pop()
        if live.size == 0:
            continue
        if isinstance(t, Leaf):
            values[live] = t.value
            continue
        ones = send(t.transmitter, live)
        stack.append((t.on_one, live[ones]))
        stack.append((t.on_zero, live[~ones]))
    return values


@dataclass(frozen=True)
class RoundRecord:
    """One block transmission: who spoke, for how many instances, at what cost."""

    index: int
    transmitter: int
    live_count: int
    code_bits: int


@dataclass(frozen=True)
class BlockExperimentReport:
    n: int
    theta: int
    N: int
    total_bits: int
    bits_per_instance: float
    first_round_bits: int
    rounds: tuple[RoundRecord, ...]
    error_count: int
    # each instance's decoded value; all -1 when the decode replay failed
    values: tuple[int, ...] = field(repr=False)


# A cold block-code build at L = 2048 takes about 7.4 s and 236 MiB
# (p = 0.6, 2-core x86-64 host, Python 3.11), and both grow as L**2.
BLOCK_MAX_N = 2048
# The widest class values, N log2(1 / min(p, 1 - p)) bits, a build may use: the smallest round cap that admits
# p = 5e-324 at N = 8.  At N = 2048 and p = 0.048 a build takes 7.3-7.9 s and 244 MiB (same host).
BLOCK_MAX_WIDTH = 9000

# Codes at least this long are built on worker processes when a run needs
# two or more of them.  At L = 48 a build takes 1.5-3 ms, and handing it
# to a worker and back adds about 0.6 ms (2-core x86-64 host, Python
# 3.11), so shorter codes would gain little; a lone long code is built
# here, where it costs no hand-off.
PARALLEL_BUILD_MIN_L = 48

_build_pool = None  # the worker pool, made by the first _build_codes that needs it


def _check_block(profile: ProbabilityProfile, N: int) -> None:
    if N < 1:
        raise InputError(f"N must be positive, got {N}")
    if N > BLOCK_MAX_N:
        raise CapacityError(f"N={N} is over the block length cap of {BLOCK_MAX_N}")
    q = min(profile.probs[0], 1.0 - profile.probs[-1])  # the profile is sorted
    if (width := N * -np.log2(q)) > BLOCK_MAX_WIDTH:
        raise CapacityError(f"N={N} at min(p, 1 - p) = {q!r} needs {width:.0f}-bit class values, "
                            f"over the block code width cap of {BLOCK_MAX_WIDTH}")


def _drop_build_pool() -> None:
    global _build_pool
    if _build_pool is not None:
        _build_pool.shutdown(wait=False, cancel_futures=True)
        _build_pool = None


def _exit_with_parent() -> None:
    """Worker initializer: end this worker once the process that made the pool
    has ended, even by a signal that ran none of its exit handlers."""
    import threading
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    def watch(sentinel) -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, args=(parent_process().sentinel,), daemon=True).start()


def _build_codes(keys: set[tuple[float, int]]) -> dict[tuple[float, int], BernoulliBlockCode]:
    """The block code of each (p, L) in `keys`, each built once, for one call.

    When two or more are at least PARALLEL_BUILD_MIN_L long and two cores
    are usable, those go to worker processes, longest first, while this
    process builds the others.  The pool has min(2, usable cores)
    workers, started with the default method by the first call that
    submits anything, and lives for the process.  When the workers cannot
    start, every code is built here, as is a code whose worker died.
    Workers run `huffman.build_block_code` by name, whatever this
    module's `build_block_code` has been replaced with (a wrapper cannot
    always be pickled).  A code is a pure function of (p, L), so the
    codes are the same on either path.
    """
    global _build_pool
    large = sorted((key for key in keys if key[1] >= PARALLEL_BUILD_MIN_L), key=itemgetter(1), reverse=True)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pending = {}
    if len(large) > 1 and cores > 1:
        try:
            if _build_pool is None:
                from concurrent.futures import ProcessPoolExecutor

                _build_pool = ProcessPoolExecutor(min(2, cores), initializer=_exit_with_parent)
            pending = {key: _build_pool.submit(huffman.build_block_code, *key) for key in large}
        except (OSError, RuntimeError):  # a fork failed, or the pool broke
            _drop_build_pool()
    codes = {key: build_block_code(*key) for key in keys if key not in pending}
    if pending:
        from concurrent.futures import BrokenExecutor

        for key, future in pending.items():
            try:
                codes[key] = future.result()
            except BrokenExecutor:  # a worker was killed
                _drop_build_pool()
                codes[key] = build_block_code(*key)
    return codes


# one replication's draw, each instance's value as the strategy reaches it,
# and each block it sends as (rank, p, the block's bits), in send order
_BlockPlan = tuple[np.ndarray, np.ndarray, list[tuple[int, float, np.ndarray]]]


def _plan_blocks(tree: DecisionTree, profile: ProbabilityProfile, N: int, seed) -> _BlockPlan:
    """Draw one replication and walk it, listing the blocks it sends."""
    X = draw_measurements(profile, N, np.random.default_rng(seed))
    blocks: list[tuple[int, float, np.ndarray]] = []

    def send(rank: int, live: np.ndarray) -> np.ndarray:
        # p(rank) refuses a rank outside 1..n with InputError before X is read (n + 1 is an IndexError there)
        p = profile.p(rank)
        bits = X[live, rank - 1]
        blocks.append((rank, p, bits))
        return bits

    return X, _block_walk(tree, N, send), blocks


def _encode_and_replay(
    tree: DecisionTree, profile: ProbabilityProfile, theta: int, plan: _BlockPlan, codes: dict
) -> BlockExperimentReport:
    """Code a planned replication's blocks, then decode the run back from the stream alone."""
    X, values, blocks = plan
    N = X.shape[0]
    stream_parts: list[str] = []
    rounds: list[RoundRecord] = []
    for rank, p, bits in blocks:
        cw = codes[p, bits.size].encode_block(bits.astype(int).tolist())
        rounds.append(RoundRecord(len(rounds), rank, bits.size, len(cw)))
        stream_parts.append(cw)
    stream = "".join(stream_parts)
    cursor = 0

    def decode(rank: int, live: np.ndarray) -> np.ndarray:
        nonlocal cursor
        key = (profile.p(rank), live.size)
        code = codes.get(key)
        if code is None:  # a misread stream can lead the replay off the encoder's path
            code = codes[key] = build_block_code(*key)
        block, cursor = code.decode_block(stream, cursor)
        return np.array(block, dtype=bool)

    try:
        decoded = _block_walk(tree, N, decode)
        if cursor != len(stream):
            raise InputError("decoder did not consume the whole stream")
    except InputError:
        decoded = np.full(N, -1, dtype=np.int8)
    truth = (X.sum(axis=1) >= theta).astype(np.int8)
    total_bits = len(stream)
    return BlockExperimentReport(
        n=profile.n,
        theta=theta,
        N=N,
        total_bits=total_bits,
        bits_per_instance=total_bits / N,
        first_round_bits=rounds[0].code_bits if rounds else 0,
        rounds=tuple(rounds),
        error_count=int(((values != truth) | (decoded != truth)).sum()),
        values=tuple(int(v) for v in decoded),
    )


def _run_blocks(
    tree: DecisionTree, profile: ProbabilityProfile, theta: int, N: int, seeds: Sequence
) -> list[BlockExperimentReport]:
    """One lockstep run of `tree` per seed, in three phases: every run is
    drawn and walked first, which lists its blocks, since each block's bits
    decide where the walk goes next; then each distinct (p, live count)
    code of all the runs is built once; then each run is encoded and
    replayed from those codes."""
    plans = [_plan_blocks(tree, profile, N, seed) for seed in seeds]
    codes = _build_codes({(p, bits.size) for _, _, blocks in plans for _, p, bits in blocks})
    return [_encode_and_replay(tree, profile, theta, plan, codes) for plan in plans]


def run_block_strategy(
    tree: DecisionTree, profile: ProbabilityProfile, theta: int, N: int, seed=None
) -> BlockExperimentReport:
    """Run N instances of strategy `tree` in lockstep, one Huffman-coded block per scheduled node.

    `seed` is anything `np.random.default_rng` takes.  The schedule walks
    the strategy DAG depth first, zero branch before one branch.  At each
    node the transmitter encodes its bits for exactly the instances still
    live there, as one iid block under its own marginal; nodes with no
    live instances transmit nothing.  Afterwards the same walk decodes the
    whole run back from the bit stream alone.  The tree is not validated
    first: an instance counts as an error when the value the strategy
    reaches, or the value the replay decodes, disagrees with the
    function, and a replay that misreads the stream or leaves some of it
    unread decodes no instance.  A transmitter outside 1..n, or N below 1,
    raises InputError, and N over BLOCK_MAX_N or N log2(1 / min(p, 1 - p))
    over BLOCK_MAX_WIDTH at any p CapacityError, before any code is built.
    At N = 1 every block is a single bit: the single-instance strategy.
    """
    _check_block(profile, N)
    return _run_blocks(tree, profile, theta, N, [seed])[0]


@dataclass(frozen=True)
class ReplicationSummary:
    n: int
    theta: int
    N: int
    order: str
    reps: int
    seed: Optional[int]
    mean_bits_per_instance: float
    se_bits_per_instance: float
    mean_first_round_per_instance: float
    se_first_round_per_instance: float
    error_count: int


def run_block_replications(
    profile: ProbabilityProfile,
    theta: int,
    N: int,
    reps: int,
    seed: Optional[int] = None,
    order: OrderSpec = "conjectured",
) -> tuple[list[BlockExperimentReport], ReplicationSummary]:
    """Independent repetitions of the lockstep protocol: `order`'s DAG is
    built once, and each replication is the run `run_block_strategy` makes
    on it, seeded with one spawned child of `SeedSequence(seed)`.  The
    replications share their codes: each distinct (p, live count) of the
    whole call is built once."""
    if reps < 2:
        raise InputError("at least 2 replications are needed for a standard error")
    _check_block(profile, N)
    tree = strategy_dag(order, profile.n, theta)
    children = np.random.SeedSequence(seed).spawn(reps)
    reports = _run_blocks(tree, profile, theta, N, children)
    per_inst = np.array([r.bits_per_instance for r in reports])
    first = np.array([r.first_round_bits / N for r in reports])
    summary = ReplicationSummary(
        n=profile.n,
        theta=theta,
        N=N,
        order="conjectured" if order == "conjectured" else str(tuple(order)),
        reps=reps,
        seed=seed,
        mean_bits_per_instance=float(per_inst.mean()),
        se_bits_per_instance=float(per_inst.std(ddof=1) / np.sqrt(reps)),
        mean_first_round_per_instance=float(first.mean()),
        se_first_round_per_instance=float(first.std(ddof=1) / np.sqrt(reps)),
        error_count=sum(r.error_count for r in reports),
    )
    return reports, summary
