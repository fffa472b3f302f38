"""Exact solver: hand-computed values, an independent oracle, tie handling."""

import tracemalloc
from fractions import Fraction
from math import comb
from time import perf_counter

import numpy as np
import pytest
from conftest import reference_cost_table

from threshcast import dp
from threshcast.core import (
    CapacityError,
    InputError,
    Leaf,
    Node,
    ProbabilityProfile,
    ThresholdSpec,
    validate_tree,
)
from threshcast.dp import (
    MAX_TABLE_N,
    CostTable,
    _plan,
    optimal_cost,
    optimal_tree,
    strategy_cost,
    strategy_costs,
)
from threshcast.io import tree_to_dict
from threshcast.policy import build_index_tree
from threshcast.verify import enumerate_trees


def oracle_cost(probs: tuple, remaining: frozenset, t: int) -> float:
    """Direct reference recursion, no masks, no table, for cross-checking."""
    if t <= 0 or t > len(remaining):
        return 0.0
    return min(
        1.0
        + probs[i - 1] * oracle_cost(probs, remaining - {i}, t - 1)
        + (1.0 - probs[i - 1]) * oracle_cost(probs, remaining - {i}, t)
        for i in remaining
    )


class TestHandValues:
    """Expected costs worked out by hand for two-node and three-node cases.

    Two nodes (0.3, 0.6): OR is cheapest with node 2 speaking first,
    1 + P(x2=0) * 1 = 1.4; AND with node 1 first, 1 + P(x1=1) * 1 = 1.3.
    Three nodes (0.2, 0.5, 0.7), threshold 2: node 2 first, then the
    two-node subproblems cost 1.3 (threshold 1 on {1,3}) and 1.2
    (threshold 2 on {1,3}), so 1 + 0.5*1.3 + 0.5*1.2 = 2.25.  Uniform
    (0.5, 0.5, 0.5), threshold 2: 1 + 0.5*1.5 + 0.5*1.5 = 2.5.
    """

    def test_two_node_or(self):
        assert optimal_cost(ProbabilityProfile((0.3, 0.6)), 1) == pytest.approx(1.4, abs=1e-15)

    def test_two_node_and(self):
        assert optimal_cost(ProbabilityProfile((0.3, 0.6)), 2) == pytest.approx(1.3, abs=1e-15)

    def test_three_node_threshold_two(self):
        assert optimal_cost(ProbabilityProfile((0.2, 0.5, 0.7)), 2) == pytest.approx(2.25, abs=1e-15)

    def test_three_node_uniform(self):
        assert optimal_cost(ProbabilityProfile((0.5, 0.5, 0.5)), 2) == pytest.approx(2.5, abs=1e-15)

    def test_constant_functions_cost_zero(self):
        p = ProbabilityProfile((0.3, 0.6))
        assert optimal_cost(p, 0) == 0.0
        assert optimal_cost(p, 3) == 0.0

    def test_single_node(self):
        assert optimal_cost(ProbabilityProfile((0.42,)), 1) == 1.0


class TestAgainstOracle:
    def test_random_profiles_all_thetas(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n)))
            profile = ProbabilityProfile(probs)
            table = CostTable(profile)
            full = frozenset(range(1, n + 1))
            for theta in range(0, n + 2):
                got = table.cost((1 << n) - 1, theta)
                want = oracle_cost(probs, full, theta)
                assert got == pytest.approx(want, abs=1e-12), (probs, theta)

    def test_substate_queries(self):
        profile = ProbabilityProfile((0.1, 0.4, 0.8))
        table = CostTable(profile)
        assert table.cost(0b101, 1) == pytest.approx(
            oracle_cost(profile.probs, frozenset({1, 3}), 1), abs=1e-14
        )


def first_transmitters(profile: ProbabilityProfile, theta: int) -> tuple[int, ...]:
    table = CostTable(profile, theta=theta)
    return table.minimizers((1 << profile.n) - 1, theta)


class TestMinimizersAndTies:
    def test_minimizers_hand_cases(self):
        p = ProbabilityProfile((0.3, 0.6))
        assert first_transmitters(p, 1) == (2,)
        assert first_transmitters(p, 2) == (1,)

    def test_equal_probabilities_tie(self):
        p = ProbabilityProfile((0.5, 0.5))
        assert first_transmitters(p, 1) == (1, 2)

    def test_exact_mode_uses_rationals(self):
        p = ProbabilityProfile((0.25, 0.5))
        table = CostTable(p, exact=True)
        cost = table.cost(0b11, 1)
        assert isinstance(cost, Fraction)
        assert cost == Fraction(3, 2)

    def test_exact_mode_tie_is_exact(self):
        p = ProbabilityProfile((0.5, 0.5, 0.5))
        table = CostTable(p, exact=True)
        assert table.minimizers(0b111, 2) == (1, 2, 3)

    def test_tie_tolerance_must_be_non_negative(self):
        # no rank is within a negative or NaN tolerance of the best, so the tree's pick would not exist
        profile = ProbabilityProfile((0.3, 0.6))
        for tol in (-1.0, float("nan")):
            with pytest.raises(InputError, match="tie tolerance"):
                CostTable(profile).minimizers(0b11, 1, tol=tol)
            with pytest.raises(InputError, match="tie tolerance"):
                optimal_tree(profile, 1, tol=tol)

    def test_candidate_costs_rejects_determined(self):
        table = CostTable(ProbabilityProfile((0.3, 0.6)))
        with pytest.raises(InputError):
            table.candidate_costs(0b1, 0)

    def test_state_rank_validation(self):
        # a negative mask would otherwise index the row map from its end
        table = CostTable(ProbabilityProfile((0.3, 0.6)))
        cases = ((0b10001, "rank 5 outside"), (0b100, "rank 3 outside"), (-1, "negative"), (-0b11, "negative"))
        for mask, message in cases:
            for query in (table.cost, table.candidate_costs, table.minimizers):
                with pytest.raises(InputError, match=message):
                    query(mask, 1)


def all_entries(n: int):
    """Every (mask, t) the table holds, determined columns included."""
    for mask in range(1 << n):
        for t in range(0, mask.bit_count() + 2):
            yield mask, t


class TestLevelFill:
    """The popcount-level fill against the recursive memo it replaced."""

    def test_float_fill_is_bit_identical_to_the_recursion(self):
        rng = np.random.default_rng(19)
        for n in range(1, 11):
            for probs in (
                tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n))),
                (0.5,) * n,
            ):
                table = CostTable(ProbabilityProfile(probs))
                want = reference_cost_table(probs)
                for mask, t in all_entries(n):
                    got = table.cost(mask, t)
                    assert type(got) is float
                    assert got == want(mask, t), (probs, mask, t)

    def test_exact_fill_matches_the_rational_recursion(self):
        rng = np.random.default_rng(23)
        for n in range(1, 8):
            probs = tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n)))
            table = CostTable(ProbabilityProfile(probs), exact=True)
            want = reference_cost_table(probs, exact=True)
            for mask, t in all_entries(n):
                got = table.cost(mask, t)
                assert type(got) is Fraction
                assert got == want(mask, t), (probs, mask, t)

    def test_candidate_costs_are_the_recurrence_terms(self):
        # every undetermined state a table holds, full and each theta's band,
        # in floats and in rationals, against the recursion's terms
        rng = np.random.default_rng(43)
        for n in range(1, 9):
            probs = tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n)))
            for exact in (False, True):
                want = reference_cost_table(probs, exact=exact)
                one = Fraction(1) if exact else 1.0
                ps = tuple(Fraction(p) for p in probs) if exact else probs
                for theta in (None, *range(0, n + 2)):
                    table = CostTable(ProbabilityProfile(probs), exact=exact, theta=theta)
                    for mask in range(1, 1 << n):
                        level = mask.bit_count()
                        for t in band_of(n, theta, level):
                            cand = table.candidate_costs(mask, t)
                            assert list(cand) == [r for r in range(1, n + 1) if mask >> (r - 1) & 1]
                            assert min(cand.values()) == table.cost(mask, t)
                            for rank, c in cand.items():
                                rest = mask ^ (1 << (rank - 1))
                                p = ps[rank - 1]
                                assert type(c) is type(one)
                                assert c == one + p * want(rest, t - 1) + (one - p) * want(rest, t), (theta, mask, t)

    def test_stored_levels_equal_the_recursion_whichever_edge_rows_are_dropped(self):
        # a level gathers neither row 0 one level down (when its band starts
        # at t = 1) nor row l (when it ends at t = l); every combination
        # occurs here, and the empty bands of theta 0 and n + 1 fill too
        rng = np.random.default_rng(47)
        dropped = set()
        for n in range(1, 9):
            probs = tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n)))
            row = _plan(n)[0]
            by_level: dict = {}
            for mask in range(1 << n):
                by_level.setdefault(mask.bit_count(), []).append(mask)
            for exact in (False, True):
                want = reference_cost_table(probs, exact=exact)
                for theta in (None, *range(0, n + 2)):
                    table = CostTable(ProbabilityProfile(probs), exact=exact, theta=theta)
                    table._fill()
                    for level, masks in by_level.items():
                        band = band_of(n, theta, level)
                        stored = np.asarray(table._levels[level])
                        assert stored.shape == (len(band) + 2, comb(n, level))
                        assert (stored[0] == 0).all() and (stored[-1] == 0).all()
                        if band:
                            dropped.add((band[0] == 1, band[-1] == level))
                        for t in band:
                            for mask in masks:
                                got = stored[t - band[0] + 1, row[mask]]
                                assert got == want(mask, t), (exact, theta, mask, t)
                                assert type(got) is (Fraction if exact else np.float64)
        assert dropped == {(False, False), (False, True), (True, False), (True, True)}

    def test_n18_fill_within_budget(self):
        probs = tuple((i + 0.5) / 18 for i in range(18))
        table = CostTable(ProbabilityProfile(probs))
        start = perf_counter()
        cost = table.cost((1 << 18) - 1, 9)
        assert perf_counter() - start < 30.0
        assert 9.0 <= cost <= 18.0


def band_of(n: int, theta: int | None, level: int) -> range:
    """The t a walk from (all n nodes, theta) can reach with `level` nodes
    left; with theta None, every undetermined t."""
    if theta is None:
        return range(1, level + 1)
    return range(max(1, theta - (n - level)), min(level, theta) + 1)


class TestThresholdBand:
    """A table built for one theta against the full table and the recursion."""

    def assert_band_matches(self, probs: tuple, exact: bool) -> None:
        n = len(probs)
        profile = ProbabilityProfile(probs)
        want = reference_cost_table(probs, exact=exact)
        kind = Fraction if exact else float
        for theta in range(0, n + 2):
            table = CostTable(profile, exact=exact, theta=theta)
            for mask, t in all_entries(n):
                level = mask.bit_count()
                if 1 <= t <= level and t not in band_of(n, theta, level):
                    with pytest.raises(InputError, match="band"):
                        table.cost(mask, t)
                    continue
                got = table.cost(mask, t)
                assert type(got) is kind
                assert got == want(mask, t), (probs, theta, mask, t)

    def test_float_band_equals_the_recursion(self):
        rng = np.random.default_rng(29)
        for n in range(1, 11):
            self.assert_band_matches(tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n))), exact=False)
        self.assert_band_matches((0.5,) * 6, exact=False)

    def test_exact_band_equals_the_rational_recursion(self):
        rng = np.random.default_rng(31)
        for n in range(1, 8):
            self.assert_band_matches(tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n))), exact=True)

    def test_out_of_band_candidates_and_minimizers_refuse(self):
        table = CostTable(ProbabilityProfile((0.2, 0.4, 0.7)), theta=1)
        for query in (table.cost, table.candidate_costs, table.minimizers):
            with pytest.raises(InputError, match="band"):
                query(0b11, 2)
        # the refusal comes before the fill, whose entries nothing asked for
        assert table._levels is None

    @pytest.mark.parametrize("theta", [1, None], ids=["band", "full"])
    def test_one_state_check_refuses_and_reads_determined_states_before_the_fill(self, theta):
        table = CostTable(ProbabilityProfile((0.2, 0.4, 0.7)), theta=theta)
        queries = (table.cost, table.candidate_costs, table.minimizers)
        # the mask comes first, even at a t that would make the state determined
        for mask, t, message in ((-1, 0, "negative"), (-0b11, 1, "negative"), (0b1001, 1, "rank 4 outside"),
                                 (0b1000, 5, "rank 4 outside")):
            for query in queries:
                with pytest.raises(InputError, match=message):
                    query(mask, t)
        for mask, t in ((0, 0), (0, 1), (0b11, 0), (0b11, 3), (0b111, 4)):
            assert table.cost(mask, t) == 0
            for query in queries[1:]:
                with pytest.raises(InputError, match="only at undetermined states"):
                    query(mask, t)
        assert table._levels is None

    def test_band_tree_equals_the_full_table_tree(self):
        rng = np.random.default_rng(37)
        for n in range(1, 9):
            probs = tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, n)))
            profile = ProbabilityProfile(probs)
            for exact in (False, True):
                full = CostTable(profile, exact=exact)
                for theta in range(0, n + 2):
                    band = CostTable(profile, exact=exact, theta=theta)
                    assert tree_to_dict(optimal_tree(profile, theta, table=band)) == tree_to_dict(
                        optimal_tree(profile, theta, table=full)
                    )
                    assert band.cost((1 << n) - 1, theta) == full.cost((1 << n) - 1, theta)

    def test_extreme_theta_fills_one_row_per_level(self):
        # a theta table stores only its band and the zero row on each side
        probs = tuple((i + 0.5) / 9 for i in range(9))
        for exact in (False, True):
            for theta in (1, 9):
                table = CostTable(ProbabilityProfile(probs), exact=exact, theta=theta)
                table.cost((1 << 9) - 1, theta)
                for level in range(1, 10):
                    band = band_of(9, theta, level)
                    assert list(band) == [1 if theta == 1 else level]
                    stored = np.asarray(table._levels[level])
                    assert stored.shape == (len(band) + 2, comb(9, level))
                    assert (stored[1] != 0).all()
                    assert (stored[0] == 0).all() and (stored[2] == 0).all()

    def test_every_band_entry_equals_the_full_table(self):
        rng = np.random.default_rng(41)
        for n in range(1, 11):
            profile = ProbabilityProfile(tuple(sorted(float(p) for p in rng.uniform(0.01, 0.99, n))))
            for exact in (False, True):
                full = CostTable(profile, exact=exact)
                for theta in range(0, n + 2):
                    table = CostTable(profile, exact=exact, theta=theta)
                    for mask, t in all_entries(n):
                        level = mask.bit_count()
                        if 1 <= t <= level and t not in band_of(n, theta, level):
                            with pytest.raises(InputError, match="band"):
                                table.cost(mask, t)
                        else:
                            assert table.cost(mask, t) == full.cost(mask, t), (n, exact, theta, mask, t)

    def test_theta_is_validated(self):
        with pytest.raises(InputError):
            CostTable(ProbabilityProfile((0.3, 0.6)), theta=4)
        with pytest.raises(CapacityError):
            CostTable(ProbabilityProfile(tuple((i + 1) / 30.0 for i in range(25))), theta=99)


class TestPlan:
    """The profile-free plan: built once per n, smaller tables with a theta."""

    def test_one_plan_per_n(self):
        def filled(probs: tuple) -> CostTable:
            table = CostTable(ProbabilityProfile(probs))
            table.cost((1 << len(probs)) - 1, 1)
            return table

        a, b = filled((0.1, 0.5, 0.7, 0.9)), filled((0.3, 0.35, 0.6, 0.8))
        assert a._row is b._row is _plan(4)[0]
        assert filled((0.2, 0.4, 0.6))._row is not a._row
        row, cols, bits = _plan(4)
        for l in range(1, 5):
            assert cols[l].shape == bits[l].shape == (l, comb(4, l))
            assert row.readonly and not cols[l].flags.writeable and not bits[l].flags.writeable

    def test_theta_table_peak_memory(self):
        n = 16
        CostTable(ProbabilityProfile(tuple((i + 0.5) / n for i in range(n))), theta=1).cost((1 << n) - 1, 1)
        profile = ProbabilityProfile(tuple((i + 0.25) / n for i in range(n)))
        tracemalloc.start()
        try:
            CostTable(profile, theta=1).cost((1 << n) - 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 6,848,183 B: this call's peak when every fill rebuilt the lattice and
        # stored level l as l + 2 rows; 2,061,064 B with the plan built and
        # only the band stored
        assert peak < 6_848_183


class TestFillBlocks:
    """Levels filled in many column blocks give the same entries as in one."""

    CELLS = 40

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dp, "FILL_BLOCK_CELLS", self.CELLS)
        # at n = 10 some levels fall to one column per block, others have
        # several columns per block and a last block that is partial; a full
        # level gathers l - 1 rows and writes l, so a block holds CELLS // l**2
        widths = {l: max(1, self.CELLS // (l * l)) for l in range(1, 11)}
        assert any(w == 1 for w in widths.values())
        assert any(1 < w < comb(10, l) and comb(10, l) % w for l, w in widths.items())

    def test_float_and_exact_fills_equal_the_recursion(self, small_blocks):
        TestLevelFill().test_float_fill_is_bit_identical_to_the_recursion()
        TestLevelFill().test_exact_fill_matches_the_rational_recursion()
        TestLevelFill().test_stored_levels_equal_the_recursion_whichever_edge_rows_are_dropped()

    def test_bands_equal_the_recursion_and_the_full_table(self, small_blocks):
        bands = TestThresholdBand()
        bands.test_float_band_equals_the_recursion()
        bands.test_exact_band_equals_the_rational_recursion()
        bands.test_every_band_entry_equals_the_full_table()

    def test_no_block_temporary_exceeds_the_block_cells(self, monkeypatch):
        # a full level writes one row more than it gathers, a band at theta 1
        # or n as many, an empty band none
        n = 12
        _plan(n)
        sizes = []
        for name in ("empty", "take"):
            def record(*args, _real=getattr(np, name), **kwargs):
                out = _real(*args, **kwargs)
                sizes.append(out.size)
                return out

            monkeypatch.setattr(dp.np, name, record)
        profile = ProbabilityProfile(tuple((i + 0.25) / n for i in range(n)))
        for theta in (None, 0, 1, n // 2, n, n + 1):
            CostTable(profile, theta=theta)._fill()
        assert sizes and max(sizes) <= dp.FILL_BLOCK_CELLS

    def test_full_fill_peak_memory(self):
        n = 16
        _plan(n)
        table = CostTable(ProbabilityProfile(tuple((i + 0.25) / n for i in range(n))))
        tracemalloc.start()
        try:
            table.cost((1 << n) - 1, n // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = sum(np.asarray(level).nbytes for level in table._levels)
        # over the stored levels: 3,023,704 B when each pass allocated its
        # band-by-level temporaries, 437,216 B with 2**14-cell blocks
        assert peak - stored < 1_500_000


class TestCapacity:
    def test_ceiling_holds_whatever_the_cap(self):
        probs = tuple((i + 1) / 33.0 for i in range(MAX_TABLE_N + 1))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=str(MAX_TABLE_N)):
                CostTable(ProbabilityProfile(probs), node_cap=40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_node_cap(self):
        probs = tuple((i + 1) / 30.0 for i in range(25))
        with pytest.raises(CapacityError):
            CostTable(ProbabilityProfile(probs))
        CostTable(ProbabilityProfile(probs), node_cap=25)

    def test_cap_is_configurable_downward(self):
        with pytest.raises(CapacityError):
            CostTable(ProbabilityProfile((0.1, 0.2, 0.3)), node_cap=2)


class TestTreeExtraction:
    def test_tree_is_valid_and_attains_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, n)))
            profile = ProbabilityProfile(probs)
            for theta in range(0, n + 2):
                tree = optimal_tree(profile, theta)
                validate_tree(tree, ThresholdSpec(n, theta))
                assert strategy_cost(tree, profile, theta) == pytest.approx(
                    optimal_cost(profile, theta), abs=1e-12
                )

    def test_tie_break_prefers_lowest_rank(self):
        tree = optimal_tree(ProbabilityProfile((0.5, 0.5)), 1)
        assert isinstance(tree, Node) and tree.transmitter == 1

    def test_constant_function_tree_is_leaf(self):
        assert optimal_tree(ProbabilityProfile((0.3, 0.6)), 0) == Leaf(1)
        assert optimal_tree(ProbabilityProfile((0.3, 0.6)), 3) == Leaf(0)


class TestTableForAnotherProfile:
    """A table built for another profile is refused, not read as this profile's."""

    P1, P2 = ProbabilityProfile((0.1, 0.5, 0.9)), ProbabilityProfile((0.2, 0.3, 0.4))

    def test_optimal_cost(self):
        assert optimal_cost(self.P1, 2, table=CostTable(ProbabilityProfile(self.P1.probs))) == pytest.approx(2.1)
        assert CostTable(self.P2).cost(0b111, 2) == pytest.approx(2.32)
        with pytest.raises(InputError, match="built for the profile"):
            optimal_cost(self.P1, 2, table=CostTable(self.P2))

    def test_optimal_tree(self):
        assert optimal_tree(self.P1, 2, table=CostTable(self.P1)) == optimal_tree(self.P1, 2)
        with pytest.raises(InputError, match="built for the profile"):
            optimal_tree(self.P1, 2, table=CostTable(self.P2))


class TestStrategyCost:
    def test_hand_tree(self):
        profile = ProbabilityProfile((0.3, 0.6))
        tree = Node(1, Node(2, Leaf(0), Leaf(1)), Leaf(1))  # node 1 first: dearer OR
        assert strategy_cost(tree, profile, 1) == pytest.approx(1.7, abs=1e-15)

    def test_validation_is_on_by_default(self):
        profile = ProbabilityProfile((0.3, 0.6))
        with pytest.raises(InputError):
            strategy_cost(Leaf(1), profile, 1)
        assert strategy_costs([Leaf(1)], profile)[0] == 0.0  # the fold itself does not validate

    def test_optimum_never_beaten_by_random_strategies(self):
        rng = np.random.default_rng(3)

        def random_tree(remaining, t):
            if t <= 0:
                return Leaf(1)
            if t > len(remaining):
                return Leaf(0)
            rank = int(rng.choice(sorted(remaining)))
            rest = remaining - {rank}
            return Node(rank, random_tree(rest, t), random_tree(rest, t - 1))

        for _ in range(25):
            n = int(rng.integers(1, 7))
            probs = tuple(sorted(float(p) for p in rng.uniform(0.05, 0.95, n)))
            profile = ProbabilityProfile(probs)
            theta = int(rng.integers(1, n + 1))
            best = optimal_cost(profile, theta)
            tree = random_tree(frozenset(range(1, n + 1)), theta)
            assert strategy_cost(tree, profile, theta) >= best - 1e-12

    @pytest.mark.parametrize("theta", [1, 2, 3, 4])
    def test_one_pass_equals_per_tree_costs(self, theta):
        """One memo over all trees (they share subtrees) changes no cost by a bit."""
        profile = ProbabilityProfile((0.1234, 0.3817, 0.6021, 0.8899))

        def reference(t):  # the recurrence, written out without a memo
            if isinstance(t, Leaf):
                return 0.0
            p = profile.p(t.transmitter)
            return 1.0 + p * reference(t.on_one) + (1.0 - p) * reference(t.on_zero)

        trees = enumerate_trees(4, theta)
        costs = strategy_costs(trees, profile)
        assert costs == [strategy_costs([t], profile)[0] for t in trees]
        assert costs == [reference(t) for t in trees]

    @pytest.mark.parametrize("n,theta,root,on_zero", [
        (200, 100, 158.816512414301, 158.9070370514328),
        (1100, 550, 962.1092428364958, 961.3430730869638),
    ])
    def test_one_pass_on_policy_dags(self, n, theta, root, on_zero):
        # root and on_zero are pinned from the per-tree stack walk this fold replaced
        profile = ProbabilityProfile(tuple(sorted(((i * 7919) % 997 + 1) / 999 for i in range(1, n + 1))))
        tree = build_index_tree(n, theta)
        costs = strategy_costs([tree, tree.on_zero, tree.on_one], profile)
        assert costs[:2] == [root, on_zero]
        assert strategy_costs([tree], profile)[0] == root
