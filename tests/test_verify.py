"""Inequality checks and the brute-force optimality oracle."""

from dataclasses import fields

import numpy as np
import pytest

from threshcast import verify
from threshcast.cli import main
from threshcast.core import (
    CapacityError,
    InputError,
    ProbabilityProfile,
    ThresholdSpec,
    validate_tree,
)
from threshcast.dp import CostTable
from threshcast.verify import (
    FAMILIES,
    LemmaRecord,
    LemmaViolation,
    check_lemma_inequalities,
    enumerate_trees,
    exhaustive_strategy_check,
    lemma_record,
)


def table_for(probs):
    return CostTable(ProbabilityProfile(probs))


def bump_entry(table: CostTable, mask: int, t: int, by: float) -> None:
    """Corrupt one stored table entry in place (test-only access to the storage)."""
    before = table.cost(mask, t)  # fills the table
    table._levels[mask.bit_count()][t, table._row[mask]] += by
    assert table.cost(mask, t) == before + by


class TestGapQuantities:
    """Hand-checked values on the two-node profile (0.3, 0.6).

    At k=0 (t=2): starting at node 1 costs 1 + 0.7*1 = 1.7, at node 2
    costs 1 + 0.4*1 = 1.4 (shifted terms -0.7 and -0.4), so T = -0.3.
    At k=1 (t=1) the roles flip and T(1,1) = -0.6 - (-0.3) = -0.3.
    """

    def test_T_frozen_value(self):
        assert lemma_record(table_for((0.3, 0.6)), 0, 2).T == pytest.approx(-0.3, abs=1e-15)
        assert lemma_record(table_for((0.3, 0.6)), 1, 1).T == pytest.approx(-0.3, abs=1e-15)

    def test_T_is_exactly_zero_at_reference_node(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(2, 8))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.02, 0.98, m)))
            table = table_for(probs)
            for k in range(m):
                assert lemma_record(table, k, k + 1).T == 0.0  # exact, not approx

    def test_S1_frozen_value(self):
        assert lemma_record(table_for((0.3, 0.6)), 0, 2).S1 == pytest.approx(-0.3, abs=1e-15)

    def test_S2_frozen_value(self):
        assert lemma_record(table_for((0.3, 0.6)), 1, 1).S2 == pytest.approx(-0.3, abs=1e-15)

    def test_domain_validation(self):
        table = table_for((0.3, 0.5, 0.6))
        with pytest.raises(InputError):
            lemma_record(table, 3, 1)  # k must stay below m
        with pytest.raises(InputError):
            lemma_record(table, -1, 1)
        with pytest.raises(InputError):
            lemma_record(table, 0, 4)  # i above m
        for k in range(3):
            for i in range(1, 4):
                rec = lemma_record(table, k, i)
                assert (rec.k, rec.i) == (k, i)
                assert (rec.S1 is None) == (i < k + 2)  # S1 needs i >= k+2
                assert (rec.S2 is None) == (i > k)  # S2 needs i <= k


class TestLemmaReport:
    def test_report_shape(self):
        report = check_lemma_inequalities(ProbabilityProfile((0.2, 0.5, 0.7)))
        assert report.m == 3
        assert len(report.records) == 9
        for rec in report.records:
            assert (rec.S1 is not None) == (rec.i >= rec.k + 2)
            assert (rec.S2 is not None) == (rec.i <= rec.k)
        assert report.passed
        assert report.violations == []
        assert set(report.worst) == set(FAMILIES)
        assert report.worst["T=0@i=k+1"] == 0.0
        for family in ("T<=0", "S1<=0", "S2<=0", "T<=S1", "T<=S2"):
            assert report.worst[family] <= 1e-9

    def test_random_profiles_pass(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, m)))
            assert check_lemma_inequalities(ProbabilityProfile(probs)).passed, probs

    def test_equal_probabilities_pass(self):
        assert check_lemma_inequalities(ProbabilityProfile((0.5,) * 6)).passed

    def test_csv_rows(self, capsys):
        assert main(["verify", "--probs", "0.6,0.3", "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["k", "i", "T", "S1", "S2"] == [f.name for f in fields(LemmaRecord)]
        report = check_lemma_inequalities(ProbabilityProfile((0.3, 0.6)))
        assert [(r[0], r[1]) for r in rows[1:]] == [(str(rec.k), str(rec.i)) for rec in report.records]
        by_ki = {(r[0], r[1]): r for r in rows[1:]}
        assert by_ki[("0", "1")] == ["0", "1", "0", "", ""]  # S1, S2 undefined at i = k+1
        assert by_ki[("0", "2")] == ["0", "2", "-0.3", "-0.3", ""]
        assert by_ki[("1", "1")] == ["1", "1", "-0.3", "", "-0.3"]

    def test_detects_corrupted_cost_table(self):
        # bump one interior entry; every inequality that routes through the
        # state must move, while the exact-zero family is structurally immune
        profile = ProbabilityProfile((0.4, 0.4, 0.4))
        table = CostTable(profile)
        bump_entry(table, 0b101, 2, 1.0)  # ranks 1 and 3, t = 2
        report = check_lemma_inequalities(profile, table=table)
        assert not report.passed
        families = {v.family for v in report.violations}
        assert "T<=0" in families
        assert "T=0@i=k+1" not in families
        worst_T = max(v.value for v in report.violations if v.family == "T<=0")
        assert worst_T == pytest.approx(0.6, abs=1e-12)

    def test_refuses_a_table_of_another_profile(self):
        profile = ProbabilityProfile((0.1, 0.5, 0.9))
        other = CostTable(ProbabilityProfile((0.2, 0.3, 0.4)))
        with pytest.raises(InputError, match="built for the profile"):
            check_lemma_inequalities(profile, table=other)
        assert check_lemma_inequalities(profile, table=CostTable(profile)).records == \
            check_lemma_inequalities(profile).records

    def test_negative_tolerance_forces_violations(self):
        report = check_lemma_inequalities(ProbabilityProfile((0.3, 0.6)), tolerance=-1.0)
        assert not report.passed
        assert all(isinstance(v, LemmaViolation) for v in report.violations)

    def test_negative_tolerance_flags_every_inequality_but_exact_zero(self):
        report = check_lemma_inequalities(ProbabilityProfile((0.15, 0.4, 0.55, 0.9)), tolerance=-1.0)
        expected, zeros = [], []
        for r in report.records:
            checks = {"T<=0": r.T} if r.i != r.k + 1 else {}
            if r.S1 is not None:
                checks.update({"S1<=0": r.S1, "T<=S1": r.T - r.S1})
            if r.S2 is not None:
                checks.update({"S2<=0": r.S2, "T<=S2": r.T - r.S2})
            expected += [LemmaViolation(family, r.k, r.i, value) for family, value in checks.items()]
            zeros += [abs(r.T)] if r.i == r.k + 1 else []
        assert len(report.records) == 16 and len(zeros) == 4
        assert report.violations == expected
        worst = {family: max(v.value for v in expected if v.family == family) for family in FAMILIES
                 if family != "T=0@i=k+1"}
        assert report.worst == {**worst, "T=0@i=k+1": max(zeros)}


class TestEnumeration:
    def test_counts(self, monkeypatch):
        assert len(enumerate_trees(1, 1)) == 1
        assert len(enumerate_trees(2, 1)) == 2
        assert len(enumerate_trees(3, 1)) == 6
        assert len(enumerate_trees(4, 2)) == 288
        monkeypatch.setattr(verify, "EXHAUSTIVE_MAX_N", 5)
        # past the per-process cache, which would keep the n = 5 trees after the cap is restored
        assert len(enumerate_trees.__wrapped__(5, 1)) == 120

    def test_constant_thresholds(self):
        trees = enumerate_trees(3, 0)
        assert len(trees) == 1

    def test_all_enumerated_trees_are_valid(self):
        spec = ThresholdSpec(3, 2)
        for tree in enumerate_trees(3, 2):
            validate_tree(tree, spec)

    def test_trees_are_distinct(self):
        trees = enumerate_trees(3, 2)
        assert len(set(map(repr, trees))) == len(trees)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_trees(5, 2)

    def test_each_n_theta_is_enumerated_once(self):
        # a sweep's profiles share one immutable tuple of trees per (n, theta)
        trees = enumerate_trees(4, 2)
        assert isinstance(trees, tuple)
        assert enumerate_trees(4, 2) is trees
        profiles = [ProbabilityProfile((0.1, 0.4, 0.6, 0.9)), ProbabilityProfile((0.2, 0.3, 0.5, 0.7))]
        shared = [exhaustive_strategy_check(p, 2) for p in profiles]
        enumerate_trees.cache_clear()
        assert [exhaustive_strategy_check(p, 2) for p in profiles] == shared


class TestExhaustiveCheck:
    def test_small_profiles_pass(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, n)))
            profile = ProbabilityProfile(probs)
            for theta in range(1, n + 1):
                report = exhaustive_strategy_check(profile, theta)
                assert report.passed, (probs, theta)
                assert report.witness is None
                assert report.tree_count == len(enumerate_trees(n, theta))
                assert report.best_cost == pytest.approx(report.table_cost, abs=1e-12)
                assert report.best_cost == pytest.approx(report.policy_cost, abs=1e-12)

    def test_catches_overstated_table(self):
        profile = ProbabilityProfile((0.3, 0.5, 0.6))
        table = CostTable(profile)
        bump_entry(table, 0b111, 2, 1.0)
        report = exhaustive_strategy_check(profile, 2, table=table)
        assert not report.passed
        assert report.witness is not None
        assert report.best_cost < report.table_cost - 0.5

    def test_refuses_a_table_of_another_profile(self):
        profile = ProbabilityProfile((0.1, 0.5, 0.9))
        with pytest.raises(InputError, match="built for the profile"):
            exhaustive_strategy_check(profile, 2, table=CostTable(ProbabilityProfile((0.2, 0.3, 0.4))))
        report = exhaustive_strategy_check(profile, 2, table=CostTable(profile))
        assert report.passed and report.table_cost == pytest.approx(2.1)

    # best and table costs as the per-tree cost scan gave them before the
    # one-pass fold; the fold must reproduce every one to the bit
    @pytest.mark.parametrize("probs,theta,best", [
        ((0.3, 0.6), 1, 1.4),
        ((0.1, 0.1, 0.6), 2, 2.13),
        ((0.2, 0.5, 0.7, 0.9), 3, 2.735),
        ((0.05, 0.45, 0.55, 0.95), 3, 2.5151250000000003),
        ((0.1234, 0.3817, 0.6021, 0.8899), 1, 1.180995764857),
        ((0.1234, 0.3817, 0.6021, 0.8899), 2, 2.552259942024),
        ((0.1234, 0.3817, 0.6021, 0.8899), 3, 2.5479825313810003),
        ((0.1234, 0.3817, 0.6021, 0.8899), 4, 1.198861761738),
        ((0.17, 0.29, 0.29, 0.83), 2, 2.915003),
    ])
    def test_costs_are_bit_stable(self, probs, theta, best):
        report = exhaustive_strategy_check(ProbabilityProfile(probs), theta)
        assert report.witness is None
        assert report.best_cost == best and report.table_cost == best

    @pytest.mark.parametrize("probs,theta,first_best", [((0.17, 0.29, 0.29, 0.83), 2, 107), ((0.5, 0.5, 0.5), 2, 0)])
    def test_witness_is_the_first_cheapest_tree(self, probs, theta, first_best):
        # ties among the cheapest trees go to the first in enumeration order
        profile = ProbabilityProfile(probs)
        n = len(probs)
        table = CostTable(profile)
        bump_entry(table, (1 << n) - 1, theta, 1.0)
        report = exhaustive_strategy_check(profile, theta, table=table)
        assert report.witness == enumerate_trees(n, theta)[first_best]
