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
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import huffman
from .core import (CapacityError, DecisionTree, InputError, Leaf, Node, ProbabilityProfile, ThresholdSpec, as_int,
                   dag_postorder)
from .dp import strategy_cost
from .huffman import BernoulliBlockCode, build_block_code, check_block_code
from .policy import build_index_tree, index_policy_cost, lattice_points


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
    never entered.  A node whose transmitter is outside 1..n, the columns
    of `X`, raises InputError, reached or not.
    """
    trials, n = X.shape
    columns = np.ascontiguousarray(X.T)
    bits = np.zeros(trials, dtype=np.int64)
    values = np.zeros(trials, dtype=np.int8)
    arriving: dict[int, dict[int, list[np.ndarray]]] = {id(tree): {0: [np.arange(trials)]}}
    for t in reversed(dag_postorder(tree)):  # parents before children
        if isinstance(t, Node) and not 0 < t.transmitter <= n:
            raise InputError(f"transmitter {t.transmitter} outside 1..{n}")
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
    z: float
    error_count: int


# Cells of the (trials, n) measurement draw.  Peak memory grows linearly
# in trials at a fixed n.  At 10**7 cells a run peaks 241 MiB above the
# interpreter at n = 1, 127 MiB at n = 2, 29 MiB at n = 12 and 25 MiB at
# n = 60 (2-core x86-64 host, Python 3.11, numpy 2.4): the matrix is 1 B a
# cell, and the per-trial arrays, about 25 B a trial, dominate at small n.
# So at the cap that is about 1.2 GiB at n = 1, and under 0.15 GiB from
# n = 12 up.
SIM_MAX_CELLS = 5 * 10**7

# Nodes of the rank policy's DAG, one per lattice point.  At the cap theta = 1, n = 20000 is the slowest DAG: 3.2 s
# and 69 MiB for `simulate --trials 2`, 3.0 s for `block --N 8 --reps 2`; past it, theta 500 at n = 1000 (5 x 10^5
# nodes) took `simulate` 5.7 s and 234 MiB (2-core x86-64 host, Python 3.11).
MAX_DAG_NODES = 20_000


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
    and expand, and Python work is O(DAG nodes).  Trials that are not an
    integer or fewer than 2 raise InputError, trials * n over SIM_MAX_CELLS
    CapacityError and an invalid tree TreeInvalidError, all before anything
    is drawn, as does a seed that is not None or an integer at least 0.
    """
    if seed is not None and (seed := as_int("seed", seed)) < 0:
        raise InputError(f"seed must be at least 0, got {seed}")
    trials = as_int("trials", trials)
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
        z=(mean - expected_bits) / se if se else 0.0,
        error_count=int(wrong[ids].sum()),
    )


# ---------------------------------------------------------------------------
# Lockstep block protocol


OrderSpec = Union[str, Iterable[int]]


def _read_order(order: OrderSpec) -> Union[str, tuple[int, ...]]:
    """'conjectured', or the ints an order lists; InputError for anything else, a rank that is not an int included."""
    if isinstance(order, str) and order == "conjectured":
        return order
    try:
        ranks = order if isinstance(order, str) else tuple(order)
    except TypeError:  # not iterable, as 5, None or a 0-d array
        ranks = order
    if not isinstance(ranks, tuple) or any(isinstance(r, bool) or not isinstance(r, (int, np.integer)) for r in ranks):
        raise InputError(f"order must be 'conjectured' or a permutation, got {ranks!r}")
    return tuple(map(int, ranks))


def strategy_dag(order: OrderSpec, n: int, theta: int) -> DecisionTree:
    """The strategy DAG an order names: the rank policy's, or a fixed permutation's.

    After the theta check, a policy DAG over MAX_DAG_NODES is refused before a node is built; no order's is larger.
    A permutation's DAG has one node per (ranks spoken j, residual
    threshold t): it asks order[j], and a 0 leads to (j + 1, t), a 1 to
    (j + 1, t - 1).  It is built bottom up, one row of t per j.
    """
    ThresholdSpec(n, theta)
    if (size := lattice_points(n, theta)) > MAX_DAG_NODES:
        raise CapacityError(f"the strategy DAG has {size} nodes, over the DAG cap of {MAX_DAG_NODES}")
    perm = _read_order(order)
    if perm == "conjectured":
        return build_index_tree(n, theta)
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
    total_bits: int
    bits_per_instance: float
    rounds: tuple[RoundRecord, ...]
    error_count: int
    # each instance's decoded value; all -1 when the decode replay failed
    values: tuple[int, ...] = field(repr=False)


BLOCK_MAX_N = 2048  # instances per replication, capped at every theta: at 0 and n + 1 a run still draws N x n cells
# A replication's memory is about 3.5 KB plus 30 B per instance, so it counts as N + BLOCK_REP_FIXED instances, and a
# call's reps x (N + BLOCK_REP_FIXED) is capped.  At the cap `block` (n = 5, theta 2) takes, process tree with workers:
# 7,710 reps at N = 8 1.0 s and 64 MiB, 4,096 at 128 1.7 s and 153 MiB, 910 at 1024 12.3 s and 187 MiB, and 481 at
# 2048 54 s and 316 MiB (2-core x86-64 host, Python 3.11).
BLOCK_REP_FIXED = 128
BLOCK_MAX_REP_INSTANCES = 1 << 20

# Codes at least this long go to the build workers when a call needs two or more.  A build takes about
# 0.45-0.65 ms at L = 32 and 0.95-1.15 ms at 48; a one-key job's round trip through the queue takes
# 0.10-0.18 ms (2-core x86-64 host, Python 3.11).  `block` ran about 5% faster at 32 than at 48 (7 of 8
# paired runs, with the earlier executor's 0.3-0.6 ms hand-off), and 24 gained nothing clear over 32.
PARALLEL_BUILD_MIN_L = 32

_build_pool = None  # (job queue, [(worker, its result pipe)]), started by the first _build_codes that needs it


def _check_block(profile: ProbabilityProfile, theta: int, N: int) -> None:
    if as_int("N", N) < 1:
        raise InputError(f"N must be positive, got {N}")
    if N > BLOCK_MAX_N:
        raise CapacityError(f"N={N} is over the block length cap of {BLOCK_MAX_N}")
    # only these theta send blocks, each at a profile p and at most N live, so the rarest p at N covers them all
    if 1 <= theta <= profile.n:
        check_block_code(min(profile.probs[0], 1.0 - profile.probs[-1]), N)  # the profile is sorted


def _drop_build_pool() -> None:
    global _build_pool
    if _build_pool is not None:
        queue, workers = _build_pool
        _build_pool = None
        for worker, results in workers:
            worker.terminate()
            worker.join()
            results.close()
        queue.close()


def _build_worker(queue, results) -> None:
    """Send back on `results` the codes of each job, a list of (p, L), taken off `queue`.  A thread
    ends this worker once the process that started it has ended, even by a signal."""
    import threading
    from multiprocessing import connection, parent_process

    parent = parent_process().sentinel  # ready once that process has ended
    threading.Thread(target=lambda: connection.wait([parent]) and os._exit(1), daemon=True).start()
    while True:
        results.send({key: huffman.build_block_code(*key) for key in queue.get()})


def _build_codes(keys: set[tuple[float, int]]) -> dict[tuple[float, int], BernoulliBlockCode]:
    """The block code of each (p, L) in `keys`, each built once, for one call.

    When two or more are at least PARALLEL_BUILD_MIN_L long and two cores
    are usable, min(2, usable cores) worker processes build them all and
    this one none, taking jobs off one queue: each long code alone, longest
    first, then the short ones split across the workers, at most 256 a job.
    At most two jobs a worker are out at once, so a put never waits on a
    worker that waits to send.  A worker that dies (its pipe ends) or cannot
    start, or an error while waiting, drops the pool, and what is missing
    is built here.  Workers run `huffman.build_block_code` by name; a code
    is a pure function of (p, L), so the codes are the same either way.
    """
    global _build_pool
    ordered = sorted(keys, key=itemgetter(1), reverse=True)
    large = sum(L >= PARALLEL_BUILD_MIN_L for _, L in ordered)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    codes: dict[tuple[float, int], BernoulliBlockCode] = {}
    if large > 1 and cores > 1:
        try:
            import multiprocessing.connection

            queue, workers = _build_pool = _build_pool or (multiprocessing.SimpleQueue(), [])
            while len(workers) < min(2, cores):  # started with the default method, they live for the process
                results, end = multiprocessing.Pipe(duplex=False)
                worker = multiprocessing.Process(target=_build_worker, args=(queue, end), daemon=True)
                with end:  # the worker's copy is the only one left open
                    worker.start()
                workers.append((worker, results))
            small = ordered[large:]
            parts = max(len(workers), -(-len(small) // 256))
            jobs = iter([[key] for key in ordered[:large]] + [small[i::parts] for i in range(min(parts, len(small)))])
            for job in islice(jobs, 2 * len(workers)):
                queue.put(job)
            while len(codes) < len(keys):
                for ready in multiprocessing.connection.wait([results for _, results in workers]):
                    codes.update(ready.recv())  # EOFError once a worker has ended
                    for job in islice(jobs, 1):
                        queue.put(job)
        except BaseException as error:  # a worker died or could not start, or the call was interrupted
            _drop_build_pool()
            if not isinstance(error, Exception):
                raise
    for key in keys - codes.keys():
        codes[key] = build_block_code(*key)
    return codes


# one replication's function value per instance, each instance's value as the
# strategy reaches it, and each block it sends as (rank, p, the block's bits), in send order
_BlockPlan = tuple[np.ndarray, np.ndarray, list[tuple[int, float, np.ndarray]]]


def _plan_blocks(tree: DecisionTree, profile: ProbabilityProfile, theta: int, N: int, seed) -> _BlockPlan:
    """Draw one replication and walk it, listing the blocks it sends."""
    X = draw_measurements(profile, N, np.random.default_rng(seed))
    blocks: list[tuple[int, float, np.ndarray]] = []

    def send(rank: int, live: np.ndarray) -> np.ndarray:
        # p(rank) refuses a rank outside 1..n with InputError before X is read (n + 1 is an IndexError there)
        p = profile.p(rank)
        bits = X[live, rank - 1]
        blocks.append((rank, p, bits))
        return bits

    return (X.sum(axis=1) >= theta).astype(np.int8), _block_walk(tree, N, send), blocks


def _encode_and_replay(
    tree: DecisionTree, profile: ProbabilityProfile, plan: _BlockPlan, codes: dict
) -> BlockExperimentReport:
    """Code a planned replication's blocks, then decode the run back from the stream alone."""
    truth, values, blocks = plan
    N = truth.size
    stream_parts: list[str] = []
    rounds: list[RoundRecord] = []
    for rank, p, bits in blocks:
        cw = codes[p, bits.size].encode_block(bits.tolist())
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
    total_bits = len(stream)
    return BlockExperimentReport(
        total_bits=total_bits,
        bits_per_instance=total_bits / N,
        rounds=tuple(rounds),
        error_count=int(((values != truth) | (decoded != truth)).sum()),
        values=tuple(decoded.tolist()),
    )


def _run_blocks(
    tree: DecisionTree, profile: ProbabilityProfile, theta: int, N: int, seeds: Sequence
) -> list[BlockExperimentReport]:
    """One lockstep run of `tree` per seed, in three phases: every run is
    drawn and walked first, which lists its blocks, since each block's bits
    decide where the walk goes next; then each distinct (p, live count)
    code of all the runs is built once; then each run is encoded and
    replayed from those codes."""
    plans = [_plan_blocks(tree, profile, theta, N, seed) for seed in seeds]
    codes = _build_codes({(p, bits.size) for _, _, blocks in plans for _, p, bits in blocks})
    return [_encode_and_replay(tree, profile, plan, codes) for plan in plans]


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
    unread decodes no instance.  A theta `ThresholdSpec` refuses, an N that
    is not an integer or below 1, or a transmitter outside 1..n raises
    InputError, and N over BLOCK_MAX_N, or at 1 <= theta <= n a (p, N)
    `huffman.check_block_code` refuses, CapacityError, before anything is drawn.
    At N = 1 every block is a single bit: the single-instance strategy.
    """
    ThresholdSpec(profile.n, theta)
    _check_block(profile, theta, N)
    return _run_blocks(tree, profile, theta, N, [seed])[0]


@dataclass(frozen=True)
class ReplicationSummary:
    n: int
    theta: int
    N: int
    reps: int
    seed: Optional[int]
    order: str
    single_instance_cost: float
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
    """Independent repetitions of the lockstep protocol: `order`'s DAG is built once, and each replication is the
    run `run_block_strategy` makes on it, seeded with one spawned child of `SeedSequence(seed)`.  The replications
    share their codes: each distinct (p, live count) of the whole call is built once.  The summary's `order` is the
    one the DAG is built from, and its `single_instance_cost` the rank policy's.  A seed that is not None or an
    integer at least 0 raises InputError; after `run_block_strategy`'s N checks, reps x (N + BLOCK_REP_FIXED) over
    BLOCK_MAX_REP_INSTANCES raises CapacityError, before anything is drawn."""
    if seed is not None and (seed := as_int("seed", seed)) < 0:
        raise InputError(f"seed must be at least 0, got {seed}")
    if as_int("reps", reps) < 2:
        raise InputError("at least 2 replications are needed for a standard error")
    _check_block(profile, theta, N)
    if (size := reps * (N + BLOCK_REP_FIXED)) > BLOCK_MAX_REP_INSTANCES:
        raise CapacityError(
            f"reps x (N + {BLOCK_REP_FIXED}) = {size} is over the replication cap of {BLOCK_MAX_REP_INSTANCES}"
        )
    order = _read_order(order)
    tree = strategy_dag(order, profile.n, theta)
    children = np.random.SeedSequence(seed).spawn(reps)
    reports = _run_blocks(tree, profile, theta, N, children)
    per_inst = np.array([r.bits_per_instance for r in reports])
    first = np.array([(r.rounds[0].code_bits if r.rounds else 0) / N for r in reports])
    summary = ReplicationSummary(
        n=profile.n,
        theta=theta,
        N=N,
        reps=reps,
        seed=seed,
        order=str(order),
        single_instance_cost=index_policy_cost(profile, theta),
        mean_bits_per_instance=float(per_inst.mean()),
        se_bits_per_instance=float(per_inst.std(ddof=1) / np.sqrt(reps)),
        mean_first_round_per_instance=float(first.mean()),
        se_first_round_per_instance=float(first.std(ddof=1) / np.sqrt(reps)),
        error_count=sum(r.error_count for r in reports),
    )
    return reports, summary
