"""Monte Carlo walker and the lockstep block protocol."""

import gc
import multiprocessing
import os
import pickle
import signal
import time
import weakref
from functools import wraps

import numpy as np
import pytest

from conftest import reference_block_rounds, reference_simulation_report
from threshcast import cli, sim
from threshcast.core import CapacityError, InputError, Leaf, Node, ProbabilityProfile, TreeInvalidError, walk_tree
from threshcast.huffman import BernoulliBlockCode
from threshcast.dp import optimal_tree, strategy_cost
from threshcast.policy import build_index_tree, index_policy_cost
from threshcast.sim import (
    DRAW_BLOCK_CELLS,
    SIM_MAX_CELLS,
    BlockExperimentReport,
    _group_rows,
    draw_measurements,
    run_block_replications,
    run_block_strategy,
    simulate_tree,
    strategy_dag,
    walk_trials,
)
from threshcast.verify import enumerate_trees


def run_order(profile, theta, N, seed, order="conjectured"):
    """The block protocol on the strategy DAG `order` names."""
    return run_block_strategy(strategy_dag(order, profile.n, theta), profile, theta, N, seed=seed)


class TestDrawMeasurements:
    def test_shape_and_dtype(self):
        rng = np.random.default_rng(1)
        X = draw_measurements(ProbabilityProfile((0.2, 0.5, 0.9)), 100, rng)
        assert X.shape == (100, 3)
        assert X.dtype == bool

    def test_deterministic_per_seed(self):
        profile = ProbabilityProfile((0.3, 0.6))
        a = draw_measurements(profile, 50, np.random.default_rng(7))
        b = draw_measurements(profile, 50, np.random.default_rng(7))
        assert (a == b).all()

    def test_blocks_draw_the_same_stream_as_one_call(self):
        profile = ProbabilityProfile((0.1, 0.3, 0.5, 0.7, 0.9))
        trials = 2 * (DRAW_BLOCK_CELLS // 5) + 3  # two full blocks and a partial one
        X = draw_measurements(profile, trials, np.random.default_rng(3))
        assert X.flags.f_contiguous
        assert (X == (np.random.default_rng(3).random((trials, 5)) < np.array(profile.probs))).all()

    def test_column_marginals(self):
        profile = ProbabilityProfile((0.2, 0.8))
        X = draw_measurements(profile, 200_000, np.random.default_rng(11))
        assert X[:, 0].mean() == pytest.approx(0.2, abs=0.01)
        assert X[:, 1].mean() == pytest.approx(0.8, abs=0.01)


class TestSimulateTree:
    def test_seeded_run_matches_expectation(self):
        profile = ProbabilityProfile((0.3, 0.6))
        tree = optimal_tree(profile, 1)
        report = simulate_tree(tree, profile, 1, 20_000, seed=0)
        assert report.error_count == 0
        assert report.expected_bits == pytest.approx(1.4, abs=1e-12)
        assert abs(report.mean_bits - report.expected_bits) < 4 * report.std_error
        assert report.seed == 0 and report.trials == 20_000

    def test_deterministic_per_seed(self):
        profile = ProbabilityProfile((0.2, 0.5, 0.7))
        tree = build_index_tree(3, 2)
        a = simulate_tree(tree, profile, 2, 5_000, seed=42)
        b = simulate_tree(tree, profile, 2, 5_000, seed=42)
        assert a == b

    def test_never_misclassifies(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(1, 7))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, n)))
            profile = ProbabilityProfile(probs)
            theta = int(rng.integers(0, n + 2))
            tree = build_index_tree(n, theta)
            report = simulate_tree(tree, profile, theta, 2_000, seed=int(rng.integers(1 << 20)))
            assert report.error_count == 0

    def test_trial_floor(self):
        profile = ProbabilityProfile((0.3, 0.6))
        with pytest.raises(InputError):
            simulate_tree(build_index_tree(2, 1), profile, 1, 1)

    def test_expected_matches_strategy_cost(self):
        profile = ProbabilityProfile((0.1, 0.4, 0.8))
        tree = build_index_tree(3, 2)
        report = simulate_tree(tree, profile, 2, 100, seed=5)
        assert report.expected_bits == pytest.approx(strategy_cost(tree, profile, 2), abs=1e-15)

    def test_shared_dag_at_sixty_nodes_within_budget(self):
        # the policy DAG has 1800 nodes but C(60, 30) root-to-leaf paths:
        # validation and the walk must work per node, not per path or trial
        rng = np.random.default_rng(59)
        profile = ProbabilityProfile(tuple(np.sort(rng.uniform(0.05, 0.95, 60)).tolist()))
        start = time.perf_counter()
        report = simulate_tree(build_index_tree(60, 30), profile, 30, 100_000, seed=3)
        assert time.perf_counter() - start < 5.0
        assert report.error_count == 0
        assert report.expected_bits == pytest.approx(index_policy_cost(profile, 30), abs=1e-9)
        assert abs(report.mean_bits - report.expected_bits) < 5 * report.std_error


class TestWalkTrials:
    """The pooled walk gives every row the value and bit count of `walk_tree`."""

    def assert_rows_match(self, tree, X):
        values, bits = walk_trials(tree, X)
        assert values.dtype == np.int8 and bits.dtype == np.int64
        for row, value, count in zip(X, values, bits):
            assert walk_tree(tree, row) == (value, count)

    def test_subtree_shared_at_two_depths(self):
        shared = Node(3, Node(4, Leaf(0), Leaf(1)), Leaf(1))
        tree = Node(1, shared, Node(2, shared, Leaf(0)))
        X = draw_measurements(ProbabilityProfile((0.3, 0.5, 0.6, 0.7)), 3000, np.random.default_rng(8))
        self.assert_rows_match(tree, X)
        # the same subtree on both branches of one node
        self.assert_rows_match(Node(2, shared, shared), X)

    def test_policy_dags_and_leaves(self):
        profile = ProbabilityProfile((0.1, 0.2, 0.35, 0.5, 0.6, 0.8, 0.9))
        X = draw_measurements(profile, 2000, np.random.default_rng(4))
        for theta in range(9):
            self.assert_rows_match(build_index_tree(7, theta), X)


class TestGroupedWalk:
    """Walking each distinct row once and expanding back gives every trial
    the value and bit count of `walk_tree`, and the report of walking every
    trial."""

    def assert_trials_match(self, theta, X):
        # the DAG is built here, not passed in: a failure report prints a
        # helper's arguments, and a strategy's repr is its expanded tree
        tree = build_index_tree(X.shape[1], theta)
        rows, ids = _group_rows(X)
        assert ids.shape == (X.shape[0],) and (rows[ids] == X).all()
        assert len(np.unique(rows, axis=0)) == len(rows)
        values, bits = walk_trials(tree, rows)
        for row, value, count in zip(X, values[ids], bits[ids]):
            assert walk_tree(tree, row) == (value, count)
        return rows, ids

    def test_mostly_repeats(self):
        X = draw_measurements(ProbabilityProfile((0.2, 0.5, 0.9)), 5000, np.random.default_rng(6))
        rows, _ = self.assert_trials_match(2, X)
        assert len(rows) == 8

    def test_distinct_rows_wider_than_a_word(self):
        X = draw_measurements(ProbabilityProfile((0.5,) * 70), 2000, np.random.default_rng(70))
        rows, ids = self.assert_trials_match(35, X)
        assert rows is X and (ids == np.arange(2000)).all()
        # 40 of those rows, each 50 times: grouping reads all 70 columns
        repeated = X[np.random.default_rng(1).permutation(np.repeat(np.arange(40), 50))]
        rows, _ = self.assert_trials_match(35, repeated)
        assert len(rows) == 40

    def test_single_column(self):
        X = draw_measurements(ProbabilityProfile((0.3,)), 1000, np.random.default_rng(2))
        rows, _ = self.assert_trials_match(1, X)
        assert len(rows) == 2

    def test_mostly_distinct_rows_fall_back_to_identity(self):
        # 16 columns leave 600 rows nearly all distinct, and 4 columns are left to read
        X = draw_measurements(ProbabilityProfile((0.5,) * 20), 600, np.random.default_rng(9))
        rows, ids = self.assert_trials_match(10, X)
        assert rows is X and (ids == np.arange(600)).all()

    def test_zero_rows(self):
        X = np.zeros((0, 5), dtype=bool)
        rows, ids = _group_rows(X)
        assert rows.shape == (0, 5) and ids.shape == (0,)
        values, bits = walk_trials(build_index_tree(5, 2), rows)
        assert values.shape == bits.shape == (0,)

    @pytest.mark.parametrize("n,theta,trials", [(3, 2, 5000), (12, 6, 100_000), (17, 12, 100_000), (30, 14, 20_000)])
    def test_report_equals_walking_every_trial(self, n, theta, trials):
        rng = np.random.default_rng(n)
        profile = ProbabilityProfile(tuple(np.sort(rng.uniform(0.01, 0.99, n)).tolist()))
        tree = build_index_tree(n, theta)
        report = simulate_tree(tree, profile, theta, trials, seed=n + 1)
        assert report == reference_simulation_report(tree, profile, theta, trials, n + 1)

    def test_walks_each_distinct_row_once(self, monkeypatch):
        walked = []

        def counting(tree, X):
            walked.append(X.shape[0])
            return walk_trials(tree, X)

        monkeypatch.setattr(sim, "walk_trials", counting)
        profile = ProbabilityProfile((0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.75, 0.85, 0.95))
        simulate_tree(build_index_tree(10, 5), profile, 5, 100_000, seed=10)
        X = draw_measurements(profile, 100_000, np.random.default_rng(10))
        assert walked == [len(np.unique(X, axis=0))]
        assert walked[0] <= 1 << 10


class TestTreeCheck:
    @pytest.mark.parametrize("rank", [3, 0])
    def test_an_invalid_tree_is_refused_before_the_draw(self, monkeypatch, rank):
        # rank 3 is past a 2-node profile's columns, and rank 0 would read column -1
        monkeypatch.setattr(sim, "draw_measurements", lambda *a, **k: pytest.fail("drew before the tree was checked"))
        with pytest.raises(TreeInvalidError, match=f"transmitter {rank} not in remaining set"):
            simulate_tree(Node(rank, Leaf(0), Leaf(1)), ProbabilityProfile((0.3, 0.6)), 1, 100)


class TestTrialCap:
    def test_over_the_cap_is_refused_before_the_draw(self, monkeypatch):
        class Drew(Exception):
            pass

        def drew(*a, **k):
            raise Drew

        monkeypatch.setattr(sim, "draw_measurements", drew)
        profile = ProbabilityProfile((0.1, 0.4, 0.8))
        tree = build_index_tree(3, 2)
        over = SIM_MAX_CELLS // 3 + 1
        with pytest.raises(CapacityError, match=f"over the simulation cap of {SIM_MAX_CELLS} cells"):
            simulate_tree(tree, profile, 2, over)
        with pytest.raises(Drew):
            simulate_tree(tree, profile, 2, SIM_MAX_CELLS // 3)


class TestBlockProtocol:
    def test_rounds_deeper_than_the_recursion_limit(self):
        # over 1,000 rounds on one branch: the schedule and its decode
        # replay must not recurse once per round
        n = 1100
        probs = tuple(sorted(0.45 + 0.1 * (i * 389 % n + 0.5) / n for i in range(n)))
        start = time.perf_counter()
        report = run_order(ProbabilityProfile(probs), 550, 2, seed=1)
        assert time.perf_counter() - start < 30.0
        assert report.error_count == 0
        # the two instances part after one round and each walks over 1,000 more
        assert len(report.rounds) > 2000
        assert report.total_bits == sum(r.code_bits for r in report.rounds)

    def test_single_instance_degenerates_to_tree_walk(self):
        profile = ProbabilityProfile((0.25, 0.5, 0.65))
        tree = build_index_tree(3, 2)
        for seed in range(50):
            report = run_block_strategy(tree, profile, 2, 1, seed=seed)
            X = draw_measurements(profile, 1, np.random.default_rng(seed))
            value, bits = walk_tree(tree, X[0])
            assert report.total_bits == bits
            assert report.values == (value,)
            assert report.error_count == 0
            assert all(r.code_bits == 1 and r.live_count == 1 for r in report.rounds)

    def test_round_skipped_when_no_instance_needs_it(self):
        # seed 2: all four instances read 1 at the top node, nobody visits
        # the zero branch, so only one block is ever sent
        profile = ProbabilityProfile((0.1, 0.9))
        report = run_order(profile, 1, 4, 2)
        assert len(report.rounds) == 1
        assert report.rounds[0].live_count == 4
        assert report.error_count == 0
        assert report.values == (1, 1, 1, 1)

    def test_shrinking_live_sets(self):
        profile = ProbabilityProfile((0.1, 0.9))
        report = run_order(profile, 1, 4, 0)
        assert [r.live_count for r in report.rounds] == [4, 1]
        assert report.total_bits == sum(r.code_bits for r in report.rounds)

    def test_batching_beats_single_instance_cost(self):
        profile = ProbabilityProfile((0.3, 0.6))
        report = run_order(profile, 1, 256, 3)
        assert report.error_count == 0
        assert report.bits_per_instance < 1.4  # single-instance optimum

    def test_deterministic_per_seed(self):
        profile = ProbabilityProfile((0.2, 0.5, 0.7))
        a = run_order(profile, 2, 32, 9)
        b = run_order(profile, 2, 32, 9)
        assert a == b
        assert isinstance(a, BlockExperimentReport)

    def test_fixed_transmission_order(self):
        profile = ProbabilityProfile((0.3, 0.6))
        assert strategy_dag((1, 2), 2, 1) == Node(1, Node(2, Leaf(0), Leaf(1)), Leaf(1))
        report = run_order(profile, 1, 16, 4, (1, 2))
        assert report.rounds[0].transmitter == 1
        assert report.error_count == 0
        _, summary = run_block_replications(profile, 1, 16, reps=2, seed=4, order=(1, 2))
        assert summary.order == "(1, 2)"

    def test_order_validation(self):
        with pytest.raises(InputError):
            strategy_dag((1, 1), 2, 1)
        with pytest.raises(InputError):
            strategy_dag((2, 3), 2, 1)
        with pytest.raises(InputError):
            strategy_dag("sideways", 2, 1)

    def test_constant_thresholds_send_nothing(self):
        profile = ProbabilityProfile((0.3, 0.6))
        low = run_order(profile, 0, 8, 1)
        assert low.rounds == () and low.total_bits == 0 and low.values == (1,) * 8
        high = run_order(profile, 3, 8, 1)
        assert high.rounds == () and high.total_bits == 0 and high.values == (0,) * 8
        for theta in (0, 3):  # with no round, a replication's first round sends 0 bits
            _, summary = run_block_replications(profile, theta, 8, reps=2, seed=1)
            assert summary.mean_first_round_per_instance == summary.mean_bits_per_instance == 0.0

    def test_instance_count_floor(self):
        with pytest.raises(InputError):
            run_order(ProbabilityProfile((0.3, 0.6)), 1, 0, 0)

    def test_each_code_is_built_once_per_run(self, monkeypatch):
        # the run keeps its own codes, so the decode replay rebuilds none of the encode walk's;
        # every code is built in this process, where the builds can be counted
        profile = ProbabilityProfile((0.2, 0.35, 0.5, 0.65, 0.8))
        tree = strategy_dag("conjectured", 5, 2)
        seeds = np.random.SeedSequence(3).spawn(2)
        expected = [run_block_strategy(tree, profile, 2, 64, seed=child) for child in seeds]
        build_path(monkeypatch, workers=False)
        built = count_builds(monkeypatch)
        for child, want in zip(seeds, expected):
            built.clear()
            assert run_block_strategy(tree, profile, 2, 64, seed=child) == want
            keys = {(profile.p(r.transmitter), r.live_count) for r in want.rounds}
            assert len(keys) > 2
            assert sorted(built) == sorted(keys)

    def test_decoded_values_match_function_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            n = int(rng.integers(1, 6))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.1, 0.9, n)))
            profile = ProbabilityProfile(probs)
            theta = int(rng.integers(1, n + 1))
            report = run_order(profile, theta, 64, int(rng.integers(1 << 20)))
            assert report.error_count == 0


class TestAnyStrategy:
    """`run_block_strategy` runs whatever DAG it is given, and checks it only by its values."""

    def test_every_valid_tree_runs_without_error(self):
        profile = ProbabilityProfile((0.5171, 0.5276, 0.9291, 0.9476))
        trees = enumerate_trees(4, 3)
        assert len(trees) == 288
        for i, tree in enumerate(trees):
            report = run_block_strategy(tree, profile, 3, 16, seed=i)
            assert report.error_count == 0, i
            assert report.total_bits == sum(r.code_bits for r in report.rounds)

    def test_a_flipped_leaf_counts_errors(self):
        # the zero leaf answers 1: every instance that reads two zeros is wrong
        profile = ProbabilityProfile((0.3, 0.6))
        tree = Node(2, Node(1, Leaf(1), Leaf(1)), Leaf(1))
        report = run_block_strategy(tree, profile, 1, 64, seed=5)
        X = draw_measurements(profile, 64, np.random.default_rng(5))
        assert report.error_count == int((~X.any(axis=1)).sum()) > 0
        assert report.values == (1,) * 64

    def test_transmitter_outside_the_profile_is_refused(self):
        profile = ProbabilityProfile((0.3, 0.6))
        for rank in (0, 3):
            with pytest.raises(InputError):
                run_block_strategy(Node(rank, Leaf(0), Leaf(1)), profile, 1, 8, seed=0)


class TestBlockWalkAgainstStateWalk:
    """The DAG walk sends the rounds, and reaches the values, of the state walk it replaced."""

    def test_matches_reference_encoder(self):
        rng = np.random.default_rng(67)
        cases = 0
        for _ in range(160):
            n = int(rng.integers(1, 7))
            profile = ProbabilityProfile(tuple(sorted(float(p) for p in rng.uniform(0.03, 0.97, n))))
            N = int(rng.integers(1, 70))
            seed = int(rng.integers(1 << 20))
            fixed = tuple(int(r) + 1 for r in rng.permutation(n))
            for theta in {0, int(rng.integers(1, n + 1)), n + 1}:
                for order in (None, fixed):
                    report = run_order(profile, theta, N, seed, order or "conjectured")
                    rounds, values, total_bits = reference_block_rounds(profile, theta, N, seed, order)
                    assert report.rounds == rounds, (profile.probs, theta, N, seed, order)
                    assert report.values == values
                    assert report.total_bits == total_bits
                    assert report.error_count == 0
                    cases += 1
        assert cases >= 300

    def test_a_flipped_decoded_bit_is_caught(self, monkeypatch):
        # the replay shares the encoder's walk but reads its bits from the
        # stream: one wrong decoded bit must show, as decoded values that
        # differ from the function, or as a failed replay (a stream not read
        # to its end, or a codeword cut off by its end) that counts every
        # instance as an error
        decode = BernoulliBlockCode.decode_block
        calls = {"made": 0, "flip_at": 0}

        def decode_one_wrong(self, stream, pos=0):
            block, end = decode(self, stream, pos)
            calls["made"] += 1
            if calls["made"] == calls["flip_at"]:
                block = [1 - block[0]] + list(block[1:])
            return block, end

        monkeypatch.setattr(BernoulliBlockCode, "decode_block", decode_one_wrong)
        profile = ProbabilityProfile((0.2, 0.45, 0.6, 0.8))
        seen = set()
        for order in ("conjectured", (3, 1, 4, 2)):
            for theta in (1, 2, 3):
                for flip_at in (1, 2, 3):
                    calls.update(made=0, flip_at=flip_at)
                    report = run_order(profile, theta, 48, theta, order)
                    assert report.error_count > 0, (order, theta, flip_at)
                    if report.error_count == 48:
                        assert report.values == (-1,) * 48
                        seen.add("failed replay")
                    else:
                        seen.add("value mismatch")
                    assert calls["made"] >= flip_at
        assert seen == {"value mismatch", "failed replay"}


class TestReplications:
    def test_summary_statistics(self):
        profile = ProbabilityProfile((0.3, 0.6))
        reports, summary = run_block_replications(profile, 1, 64, reps=6, seed=100)
        assert len(reports) == 6
        per_inst = np.array([r.bits_per_instance for r in reports])
        assert summary.mean_bits_per_instance == pytest.approx(per_inst.mean(), abs=1e-12)
        assert summary.se_bits_per_instance == pytest.approx(
            per_inst.std(ddof=1) / np.sqrt(6), abs=1e-12
        )
        first = np.array([r.rounds[0].code_bits / 64 for r in reports])
        assert summary.mean_first_round_per_instance == pytest.approx(first.mean(), abs=1e-12)
        assert summary.error_count == 0
        assert summary.reps == 6 and summary.N == 64 and summary.seed == 100

    def test_deterministic_per_seed(self):
        profile = ProbabilityProfile((0.2, 0.5, 0.7))
        _, a = run_block_replications(profile, 2, 16, reps=3, seed=8)
        _, b = run_block_replications(profile, 2, 16, reps=3, seed=8)
        assert a == b

    def test_each_report_is_one_strategy_run(self):
        profile = ProbabilityProfile((0.2, 0.45, 0.6, 0.8))
        for order in ("conjectured", (3, 1, 4, 2)):
            reports, _ = run_block_replications(profile, 2, 24, reps=4, seed=13, order=order)
            tree = strategy_dag(order, 4, 2)
            children = np.random.SeedSequence(13).spawn(4)
            assert reports == [run_block_strategy(tree, profile, 2, 24, seed=child) for child in children]

    def test_replication_floor(self):
        with pytest.raises(InputError):
            run_block_replications(ProbabilityProfile((0.3, 0.6)), 1, 8, reps=1, seed=0)


def build_path(monkeypatch, workers: bool) -> None:
    """Every run that needs two or more codes builds them all on worker
    processes (two usable cores, no length threshold), or all in this
    process (one usable core)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if workers else {0}, raising=False)
    monkeypatch.setattr(sim, "PARALLEL_BUILD_MIN_L", 0)


def count_builds(monkeypatch) -> list:
    """Record each (p, L) this process builds through `sim.build_block_code`."""
    built, real = [], sim.build_block_code

    def build(p, L):
        built.append((p, L))
        return real(p, L)

    monkeypatch.setattr(sim, "build_block_code", build)
    return built


def fail_to_start(self):
    raise OSError("fork failed")


def take_a_job_and_die(queue, results):
    queue.get()
    os._exit(1)


class TestCodeBuilds:
    """A call plans its blocks first, builds each code once, and builds the long ones on workers."""

    profile = ProbabilityProfile((0.2, 0.35, 0.5, 0.65, 0.8))

    def test_each_code_is_built_once_per_call(self, monkeypatch):
        # the call keeps its own codes, so a code its replications share is built once
        build_path(monkeypatch, workers=False)
        built = count_builds(monkeypatch)
        reports, _ = run_block_replications(self.profile, 2, 64, reps=4, seed=3)
        per_rep = [{(self.profile.p(r.transmitter), r.live_count) for r in rep.rounds} for rep in reports]
        keys = set().union(*per_rep)
        assert len(keys) > 2 and sum(map(len, per_rep)) > len(keys)
        assert sorted(built) == sorted(keys)

    def test_no_code_outlives_its_call(self, monkeypatch):
        build_path(monkeypatch, workers=False)
        refs, real = [], sim.build_block_code

        def build(p, L):
            code = real(p, L)
            refs.append(weakref.ref(code))
            return code

        monkeypatch.setattr(sim, "build_block_code", build)
        reports, _ = run_block_replications(self.profile, 2, 64, reps=3, seed=5)
        gc.collect()
        assert len(refs) > 2 and reports
        assert [ref for ref in refs if ref() is not None] == []

    @pytest.mark.parametrize("order", ["conjectured", (3, 1, 5, 2, 4)])
    def test_both_paths_give_equal_reports(self, monkeypatch, order):
        build_path(monkeypatch, workers=False)
        want = run_block_replications(self.profile, 2, 64, reps=3, seed=7, order=order)
        build_path(monkeypatch, workers=True)
        built = count_builds(monkeypatch)
        assert run_block_replications(self.profile, 2, 64, reps=3, seed=7, order=order) == want
        assert built == [] and sim._build_pool is not None

    @pytest.mark.parametrize("order", [(), ("--order", "4,2,5,1,3")])
    def test_both_paths_print_equal_stdout(self, monkeypatch, capsys, order):
        argv = ["block", "--probs", "0.8,0.2,0.65,0.35,0.5", "--theta", "3", "--N", "96", "--reps", "3",
                "--seed", "11", "--format", "json", "--transcript", *order]
        out = []
        for workers in (False, True):
            build_path(monkeypatch, workers)
            assert cli.main(argv) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1] and '"rounds"' in out[0]

    def test_both_paths_refuse_an_out_of_range_transmitter_alike(self, monkeypatch):
        # the zero branch of rank 1 asks rank 3 of a 2-node profile
        profile = ProbabilityProfile((0.3, 0.6))
        tree = Node(1, Node(2, Leaf(0), Node(3, Leaf(0), Leaf(1))), Leaf(1))
        errors = []
        for workers in (False, True):
            build_path(monkeypatch, workers)
            with pytest.raises(InputError) as e:
                run_block_strategy(tree, profile, 1, 64, seed=2)
            errors.append(str(e.value))
        assert errors[0] == errors[1]

    def test_a_wrapped_builder_does_not_reach_the_workers(self, monkeypatch):
        # the benchmark's tracer wraps sim.build_block_code with functools.wraps,
        # and such a wrapper cannot be pickled by name
        build_path(monkeypatch, workers=False)
        want = run_block_replications(self.profile, 2, 64, reps=3, seed=5)
        real = sim.build_block_code

        @wraps(real)
        def traced(*args):
            return real(*args)

        with pytest.raises(pickle.PicklingError):
            pickle.dumps(traced)
        monkeypatch.setattr(sim, "build_block_code", traced)
        build_path(monkeypatch, workers=True)
        assert run_block_replications(self.profile, 2, 64, reps=3, seed=5) == want

    def test_one_usable_core_starts_no_worker(self, monkeypatch):
        monkeypatch.setattr(sim, "_build_pool", None)
        monkeypatch.setattr(multiprocessing, "Process", lambda *a, **k: pytest.fail("a worker was made"))
        build_path(monkeypatch, workers=False)
        run_block_replications(self.profile, 2, 64, reps=3, seed=5)
        assert sim._build_pool is None

    @pytest.mark.parametrize("fail", ["start", "die"])
    def test_codes_the_workers_cannot_build_are_built_here(self, monkeypatch, fail):
        build_path(monkeypatch, workers=False)
        want = run_block_replications(self.profile, 2, 64, reps=3, seed=5)
        monkeypatch.setattr(sim, "_build_pool", None)
        if fail == "start":
            monkeypatch.setattr(multiprocessing.Process, "start", fail_to_start)
        else:
            monkeypatch.setattr(sim, "_build_worker", take_a_job_and_die)
        build_path(monkeypatch, workers=True)
        built = count_builds(monkeypatch)
        assert run_block_replications(self.profile, 2, 64, reps=3, seed=5) == want
        keys = {(self.profile.p(r.transmitter), r.live_count) for rep in want[0] for r in rep.rounds}
        assert sorted(built) == sorted(keys)
        assert sim._build_pool is None  # dropped, so the next call tries afresh

    def test_a_worker_killed_between_calls(self, monkeypatch):
        build_path(monkeypatch, workers=False)
        want = run_block_replications(self.profile, 2, 64, reps=3, seed=5)
        build_path(monkeypatch, workers=True)
        sim._drop_build_pool()
        assert run_block_replications(self.profile, 2, 64, reps=3, seed=5) == want
        worker = sim._build_pool[1][0][0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=30)
        assert worker.exitcode == -signal.SIGKILL
        built = count_builds(monkeypatch)
        assert run_block_replications(self.profile, 2, 64, reps=3, seed=5) == want
        assert built and sim._build_pool is None  # the call saw the worker's pipe end, and built here
        built.clear()
        assert run_block_replications(self.profile, 2, 64, reps=3, seed=5) == want
        assert built == [] and sim._build_pool is not None

    def test_the_caller_builds_no_short_code_on_the_worker_path(self, monkeypatch):
        # two usable cores at the default PARALLEL_BUILD_MIN_L: the workers build the short codes too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        built = count_builds(monkeypatch)
        reports, _ = run_block_replications(self.profile, 2, 64, reps=3, seed=5)
        lengths = [r.live_count for rep in reports for r in rep.rounds]
        assert sum(L >= sim.PARALLEL_BUILD_MIN_L for L in set(lengths)) > 1 and min(lengths) < sim.PARALLEL_BUILD_MIN_L
        assert built == [] and sim._build_pool is not None
