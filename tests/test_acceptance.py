"""Acceptance gate: the seven headline guarantees, at their stated tolerances.

Each criterion records its verdict on the shared result board before
asserting, so `pytest` always prints one pass/fail line per criterion in
the terminal summary.
"""

import functools
import json

import numpy as np

from conftest import (
    ACCEPTANCE_RESULTS,
    index_policy_next,
    reachable_decision_states,
    record_criterion,
    to_mask,
)
from threshcast.cli import main
from threshcast.core import ProbabilityProfile, walk_tree
from threshcast.dp import CostTable, optimal_cost, optimal_tree, strategy_cost
from threshcast.huffman import bernoulli_entropy, build_block_code
from threshcast.io import tree_to_dict
from threshcast.policy import build_index_tree, index_policy_cost
from threshcast.sim import (
    draw_measurements,
    run_block_replications,
    run_block_strategy,
    simulate_tree,
)
from threshcast.verify import check_lemma_inequalities, exhaustive_strategy_check

COST_TOL = 1e-12
LEMMA_TOL = 1e-9


def criterion(num: int):
    """Guarantee a board entry even if the test dies before its verdict."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                if num not in ACCEPTANCE_RESULTS:
                    record_criterion(num, False, f"did not complete: {type(e).__name__}: {e}")
                raise

        return wrapper

    return deco


def finish(num: int, passed: bool, detail: str) -> None:
    record_criterion(num, passed, detail)
    assert passed, f"criterion {num}: {detail}"


@criterion(1)
def test_criterion_1_policy_attains_exact_optimum_everywhere():
    """Policy cost == subset-table cost, and the policy's pick is always optimal."""
    rng = np.random.default_rng(101)
    profiles_per_n = 200
    worst_gap = 0.0
    pair_checks = 0
    state_checks = 0
    membership_failures = 0
    for n in range(1, 13):
        for _ in range(profiles_per_n):
            probs = tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n)))
            profile = ProbabilityProfile(probs)
            table = CostTable(profile)
            for theta in range(1, n + 1):
                gap = abs(index_policy_cost(profile, theta) - table.cost((1 << n) - 1, theta))
                worst_gap = max(worst_gap, gap)
                pair_checks += 1
                for remaining, t in reachable_decision_states(n, theta):
                    state_checks += 1
                    pick = index_policy_next((remaining, t))
                    if pick not in table.minimizers(to_mask(remaining), t, tol=COST_TOL):
                        membership_failures += 1
    passed = worst_gap <= COST_TOL and membership_failures == 0
    finish(
        1,
        passed,
        f"{profiles_per_n} profiles per n in 1..12, {pair_checks} (profile, theta) checks, "
        f"{state_checks} interior states; max |policy - exact| = {worst_gap:.3g} "
        f"(tol {COST_TOL:g}), pick-not-optimal states: {membership_failures}",
    )


@criterion(2)
def test_criterion_2_exhaustive_enumeration_confirms_optimum():
    """For n <= 4, the full tree space confirms both solver and policy."""
    rng = np.random.default_rng(102)
    profiles = 0
    checks = 0
    failures = 0
    worst_gap = 0.0
    for n in range(1, 5):
        for _ in range(25):
            probs = tuple(sorted(float(p) for p in rng.uniform(0.02, 0.98, n)))
            profile = ProbabilityProfile(probs)
            profiles += 1
            table = CostTable(profile)
            for theta in range(1, n + 1):
                report = exhaustive_strategy_check(profile, theta, tolerance=COST_TOL, table=table)
                checks += 1
                if not report.passed:
                    failures += 1
                worst_gap = max(
                    worst_gap,
                    abs(report.table_cost - report.best_cost),
                    abs(report.policy_cost - report.best_cost),
                )
    passed = failures == 0 and profiles >= 100
    finish(
        2,
        passed,
        f"{profiles} profiles (n 1..4, every theta), {checks} enumerations, "
        f"{failures} failures; max gap to enumerated minimum = {worst_gap:.3g}",
    )


@criterion(3)
def test_criterion_3_inequality_sweeps():
    """T/S1/S2 inequalities at 1e-9 and the exact zero at the reference node."""
    rng = np.random.default_rng(103)
    profiles = []
    for i in range(1000):
        m = 2 + i % 9
        profiles.append(tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, m))))
    for m in range(2, 11):
        profiles.append((0.5,) * m)
        profiles.append(tuple(0.5 + 1e-7 * j for j in range(m)))
        profiles.append(tuple(float(p) for p in np.linspace(0.02, 0.98, m)))
        profiles.append(tuple(sorted(0.97 * 0.7 ** (m - 1 - j) for j in range(m))))

    violations = 0
    records = 0
    worst = {}
    for probs in profiles:
        report = check_lemma_inequalities(ProbabilityProfile(probs), tolerance=LEMMA_TOL)
        violations += len(report.violations)
        records += len(report.records)
        for fam, v in report.worst.items():
            if fam not in worst or v > worst[fam]:
                worst[fam] = v
    passed = violations == 0 and worst.get("T=0@i=k+1", 1.0) == 0.0
    finish(
        3,
        passed,
        f"{len(profiles)} profiles (m 2..10), {records} (k, i) records, "
        f"{violations} violations at tol {LEMMA_TOL:g}; worst T = {worst.get('T<=0', 0.0):.3g}, "
        f"worst |T| at i=k+1 = {worst.get('T=0@i=k+1', 0.0):.3g} (must be exactly 0)",
    )


@criterion(4)
def test_criterion_4_order_depends_only_on_ranks():
    """Profiles sharing (n, theta) get the same optimal tree: the rank policy's."""
    rng = np.random.default_rng(104)
    pairs = 0
    structure_mismatches = 0
    optimality_failures = 0
    while pairs < 50:
        n = int(rng.integers(2, 11))
        theta = int(rng.integers(1, n + 1))
        a = tuple(sorted(float(p) for p in rng.uniform(0.02, 0.98, n)))
        b = tuple(sorted(float(p) for p in rng.uniform(0.02, 0.98, n)))
        if a == b:
            continue
        pairs += 1
        # each structure comes from its own profile's exact table
        tree_a = optimal_tree(ProbabilityProfile(a), theta)
        tree_b = optimal_tree(ProbabilityProfile(b), theta)
        shape = tree_to_dict(build_index_tree(n, theta))
        if not tree_to_dict(tree_a) == tree_to_dict(tree_b) == shape:
            structure_mismatches += 1
            continue
        # and each profile's tree is optimal for the other profile too
        for probs, tree in ((a, tree_b), (b, tree_a)):
            profile = ProbabilityProfile(probs)
            got = strategy_cost(tree, profile, theta)
            if abs(got - optimal_cost(profile, theta)) > COST_TOL:
                optimality_failures += 1
    passed = structure_mismatches == 0 and optimality_failures == 0
    finish(
        4,
        passed,
        f"{pairs} profile pairs (n <= 10): {structure_mismatches} pairs whose exact-table "
        f"trees differ from each other or from the rank policy's, "
        f"{optimality_failures} profiles where the other profile's tree missed the optimum",
    )


# (sorted profile, theta, seed): drawn once from a fixed generator and frozen,
# so the Monte Carlo outcomes below are reproducible run over run
MC_INSTANCES = [
    ((0.374944, 0.949366), 1, 1000),
    ((0.419804, 0.546559, 0.789151, 0.826497, 0.870339), 2, 1001),
    ((0.106688, 0.113322, 0.157152, 0.158582, 0.254876, 0.338937, 0.493708, 0.535355, 0.75404, 0.931104), 9, 1002),
    ((0.555951, 0.804764), 2, 1003),
    ((0.476379, 0.49141, 0.525112, 0.831385), 4, 1004),
    ((0.370411, 0.44478, 0.460907, 0.828262, 0.905279), 2, 1005),
    ((0.128147, 0.134194, 0.149079, 0.243217, 0.523484, 0.651205, 0.754471, 0.814376), 5, 1006),
    ((0.094225, 0.13022, 0.173489, 0.264688, 0.484985, 0.700708), 5, 1007),
    ((0.161842, 0.178602, 0.31585, 0.328389, 0.402189, 0.532708, 0.539034, 0.699338), 6, 1008),
    ((0.401902, 0.596553, 0.597132, 0.635094, 0.750215, 0.920859), 5, 1009),
    ((0.119124, 0.315744, 0.354335, 0.572611, 0.69032, 0.750306, 0.789723), 2, 1010),
    ((0.197962, 0.222391, 0.424039, 0.425684, 0.655109, 0.696898, 0.842634, 0.892896), 3, 1011),
    ((0.206027, 0.404944, 0.478789, 0.75649, 0.892267, 0.898805), 6, 1012),
    ((0.089472, 0.17849, 0.281545, 0.54536, 0.549431, 0.664612, 0.867577, 0.889964), 8, 1013),
    ((0.068756, 0.09282, 0.226145, 0.583115, 0.644508, 0.750773, 0.757456, 0.819506, 0.891494), 3, 1014),
    ((0.138387, 0.36647, 0.399776, 0.474674, 0.902377), 4, 1015),
    ((0.102576, 0.129608, 0.221273, 0.314586, 0.457937, 0.606668, 0.65874, 0.740664, 0.899409, 0.930566), 7, 1016),
    ((0.070545, 0.18023, 0.221117, 0.574444, 0.652938, 0.841858, 0.850043, 0.948001), 6, 1017),
    ((0.300475, 0.423406, 0.673539, 0.683356, 0.784866, 0.81807, 0.835492, 0.939128), 3, 1018),
    ((0.070469, 0.542656, 0.779018), 2, 1019),
]


@criterion(5)
def test_criterion_5_monte_carlo_matches_analytic_cost():
    """A million seeded walks per instance: mean within 3 SE, zero errors."""
    trials = 1_000_000
    worst_z = 0.0
    out_of_band = 0
    errors = 0
    for probs, theta, seed in MC_INSTANCES:
        profile = ProbabilityProfile(probs)
        tree = build_index_tree(profile.n, theta)
        report = simulate_tree(tree, profile, theta, trials, seed=seed)
        z = abs(report.mean_bits - report.expected_bits) / report.std_error
        worst_z = max(worst_z, z)
        if z > 3.0:
            out_of_band += 1
        errors += report.error_count
    passed = out_of_band == 0 and errors == 0
    finish(
        5,
        passed,
        f"{len(MC_INSTANCES)} fixed-seed instances x {trials} trials: "
        f"worst |z| = {worst_z:.2f} (limit 3), misclassified trials: {errors}",
    )


@criterion(6)
def test_criterion_6_block_coding_amortizes_below_one_instance():
    """Lockstep coded blocks beat the single-instance optimum; N=1 degenerates."""
    profile = ProbabilityProfile((0.3, 0.6))
    theta, N, reps, seed = 1, 1024, 50, 6
    single_cost = 1.4

    tree = build_index_tree(2, theta)
    degenerate_mismatches = 0
    for s in range(200):
        report = run_block_strategy(tree, profile, theta, 1, seed=s)
        X = draw_measurements(profile, 1, np.random.default_rng(s))
        value, bits = walk_tree(tree, X[0])
        if report.total_bits != bits or report.values != (value,):
            degenerate_mismatches += 1

    code = build_block_code(0.6, N)
    per_symbol = code.expected_length / N
    h2 = bernoulli_entropy(0.6)
    code_in_window = h2 <= per_symbol < h2 + 1.0 / N

    _, summary = run_block_replications(profile, theta, N, reps=reps, seed=seed)
    below = summary.mean_bits_per_instance < single_cost
    lo = h2
    hi = h2 + 1.0 / N + 3.0 * summary.se_first_round_per_instance
    first_in_band = lo <= summary.mean_first_round_per_instance <= hi

    passed = (
        degenerate_mismatches == 0
        and code_in_window
        and below
        and first_in_band
        and summary.error_count == 0
    )
    finish(
        6,
        passed,
        f"N={N}, reps={reps}: mean bits/instance = {summary.mean_bits_per_instance:.4f} "
        f"(< {single_cost}), first round {summary.mean_first_round_per_instance:.6f} in "
        f"[{lo:.6f}, {hi:.6f}], E[len]/N = {per_symbol:.6f} in [H, H + 1/N), "
        f"N=1 mismatches: {degenerate_mismatches}/200, errors: {summary.error_count}",
    )


@criterion(7)
def test_criterion_7_cli_output_is_byte_deterministic(capsys):
    """Same command, same seed: identical bytes, across every subcommand."""
    commands = [
        ["solve", "--probs", "0.3,0.6", "--theta", "1", "--format", "json"],
        ["solve", "--probs", "0.9,0.2,0.5", "--theta", "2", "--format", "table"],
        ["policy", "--probs", "0.2,0.5,0.7", "--theta", "2", "--check", "--annotate"],
        ["policy", "--probs", "0.3,0.6", "--theta", "1", "--format", "dot"],
        ["verify", "--sweeps", "10", "--max-n", "6", "--seed", "17", "--format", "csv"],
        ["verify", "--probs", "0.2,0.5,0.7", "--format", "json"],
        ["simulate", "--probs", "0.3,0.6", "--theta", "1", "--trials", "20000", "--seed", "12"],
        ["block", "--probs", "0.3,0.6", "--theta", "1", "--N", "32", "--reps", "3",
         "--seed", "12", "--format", "json", "--transcript"],
    ]
    mismatches = 0
    nonzero_exits = 0
    for argv in commands:
        code_a = main(argv)
        out_a = capsys.readouterr().out
        code_b = main(argv)
        out_b = capsys.readouterr().out
        if code_a != 0 or code_b != 0:
            nonzero_exits += 1
        if out_a != out_b or not out_a:
            mismatches += 1
        if argv[0] == "block":
            assert json.loads(out_a)["error_count"] == 0
    passed = mismatches == 0 and nonzero_exits == 0
    finish(
        7,
        passed,
        f"{len(commands)} commands run twice each: {mismatches} byte mismatches, "
        f"{nonzero_exits} unexpected exit codes",
    )
