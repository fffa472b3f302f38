"""Prefix codes: explicit builder, and the weight-class aggregated block code."""

import bisect
import hashlib
import heapq
import math
import pickle
import random
import time
import tracemalloc

import conftest
import numpy as np
import pytest
from conftest import (HuffmanCode, block_distribution, huffman_build, reference_aggregate_lengths,
                      relaxed_two_length_optimum)
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcast import huffman
from threshcast.core import CapacityError, InputError
from threshcast.huffman import BernoulliBlockCode, bernoulli_entropy, build_block_code

# sha256 of repr(class_lengths), one line per (p, L), over the grid in
# TestTwoQueueBuilder.test_real_codes_are_pinned.  The heap oracle in
# conftest shares the builder's tie rule, so this is the check of real
# codes that does not move with it.
REAL_CLASS_LENGTHS_SHA256 = "b7d50817059e35bca32dc07868b3ccc34bea359ab40935834d1430ee5627fb4a"
# The same, over the grid in TestTwoQueueBuilder.test_real_codes_near_a_fair_coin_are_pinned,
# where the walk stops long before the root; taken from a builder that walked to the root.
NEAR_FAIR_CLASS_LENGTHS_SHA256 = "bf8c08e0b2f8e0cd9ca044083c098c18b4c1a425857068058113fc5c8ddf04bc"


class TestEntropy:
    def test_values(self):
        assert bernoulli_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert bernoulli_entropy(0.6) == pytest.approx(0.9709505944546686, abs=1e-12)

    def test_symmetry(self):
        assert bernoulli_entropy(0.3) == pytest.approx(bernoulli_entropy(0.7), abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InputError):
                bernoulli_entropy(bad)


class TestExplicitBuilder:
    def test_two_bit_block_frozen_code(self):
        # Bernoulli(0.8) pair: probabilities 0.64 / 0.16 / 0.16 / 0.04
        code = huffman_build(block_distribution(0.8, 2))
        assert code.codewords == {0b11: "1", 0b10: "00", 0b01: "011", 0b00: "010"}
        assert code.expected_length == pytest.approx(1.56, abs=1e-12)

    def test_uniform_four_symbols(self):
        code = huffman_build({"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
        assert code.codewords == {"a": "00", "b": "01", "c": "10", "d": "11"}
        assert code.expected_length == 2.0

    def test_singleton_alphabet(self):
        code = huffman_build({"x": 1.0})
        assert code.codewords == {"x": ""}
        assert code.expected_length == 0.0
        assert code.encode(["x", "x"]) == ""
        assert code.decode("", 3) == ["x", "x", "x"]

    def test_validation(self):
        with pytest.raises(InputError):
            huffman_build({})
        with pytest.raises(InputError):
            huffman_build({"a": 0.5, "b": 0.0, "c": 0.5})
        with pytest.raises(InputError):
            huffman_build({"a": 0.5, "b": 0.4})

    def test_encode_decode_round_trip(self):
        code = huffman_build(block_distribution(0.7, 3))
        rng = np.random.default_rng(5)
        symbols = [int(s) for s in rng.integers(0, 8, 50)]
        bits = code.encode(symbols)
        assert code.decode(bits, len(symbols)) == symbols

    def test_decode_rejects_leftover_and_truncation(self):
        code = huffman_build({"a": 0.5, "b": 0.25, "c": 0.25})
        bits = code.encode(["a", "b"])
        with pytest.raises(InputError):
            code.decode(bits + "1", 2)
        with pytest.raises(InputError):
            code.decode(bits[:-1], 2)

    def test_kraft_equality(self):
        for dist in (block_distribution(0.8, 2), block_distribution(0.55, 4)):
            assert huffman_build(dist).kraft_sum() == 1

    def test_deterministic(self):
        dist = block_distribution(0.62, 4)
        assert huffman_build(dist).codewords == huffman_build(dist).codewords

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12).map(
            lambda ws: {i: w / sum(ws) for i, w in enumerate(ws)}
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_optimality_properties(self, dist):
        total = sum(dist.values())
        dist = {s: p / total for s, p in dist.items()}
        code = huffman_build(dist)
        words = list(code.codewords.values())
        for a in words:
            for b in words:
                if a is not b:
                    assert not b.startswith(a)
        assert code.kraft_sum() == 1
        entropy = -sum(p * math.log2(p) for p in dist.values())
        assert entropy - 1e-9 <= code.expected_length < entropy + 1.0


class TestBlockDistribution:
    def test_sums_to_one(self):
        for p, L in ((0.3, 1), (0.8, 2), (0.51, 5)):
            dist = block_distribution(p, L)
            assert len(dist) == 1 << L
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_first_bit_is_most_significant(self):
        dist = block_distribution(0.8, 2)
        assert dist[0b10] == pytest.approx(0.8 * 0.2, abs=1e-15)
        assert dist[0b01] == pytest.approx(0.2 * 0.8, abs=1e-15)

    def test_caps_and_domain(self):
        with pytest.raises(CapacityError):
            block_distribution(0.5, 17)
        with pytest.raises(InputError):
            block_distribution(0.5, 0)
        with pytest.raises(InputError):
            block_distribution(1.0, 4)


class TestAggregatedMatchesExplicit:
    def test_expected_lengths_agree(self):
        for p in (0.3, 0.5, 0.6, 0.832):
            for L in (1, 2, 3, 5, 8, 11):
                explicit = huffman_build(block_distribution(p, L))
                aggregated = build_block_code(p, L)
                assert aggregated.expected_length == pytest.approx(
                    explicit.expected_length, abs=1e-9
                ), (p, L)

    def test_length_multisets_agree(self):
        p, L = 0.7, 6
        explicit = huffman_build(block_distribution(p, L))
        aggregated = build_block_code(p, L)
        explicit_lengths = sorted(len(cw) for cw in explicit.codewords.values())
        got = sorted(
            length
            for dm in aggregated.class_lengths
            for length, cnt in dm.items()
            for _ in range(cnt)
        )
        assert got == explicit_lengths


class TestTwoQueueBuilder:
    """The two-queue builder against the heap builder it replaced (in conftest)."""

    def test_lengths_equal_on_fixed_marginals(self):
        for L in list(range(1, 65)) + [100, 256]:
            for p in (0.5, 0.25, 0.75, 0.01, 0.99):
                assert build_block_code(p, L).class_lengths == reference_aggregate_lengths(p, L), (p, L)

    def test_lengths_equal_on_seeded_random_marginals(self):
        rng = np.random.default_rng(44)
        cases = [(float(rng.uniform(0.001, 0.999)), L) for L in range(1, 129, 3)]
        cases += [(p, L) for p in (1e-6, 0.5 - 2**-40, 0.5 + 2**-40, 1 - 1e-6) for L in (5, 33, 128)]
        for p, L in cases:
            assert build_block_code(p, L).class_lengths == reference_aggregate_lengths(p, L), (p, L)

    def test_real_codes_are_pinned(self):
        digest = hashlib.sha256()
        for p in (1 / 3, 1 / 4, 3 / 4, 3 / 8, 0.6, 0.01, 1e-6, 1 - 1e-6, 0.5 - 2**-40, 0.5 + 2**-40, 5e-324):
            for L in list(range(1, 65)) + [128, 256]:
                digest.update(repr(build_block_code(p, L).class_lengths).encode() + b"\n")
        assert digest.hexdigest() == REAL_CLASS_LENGTHS_SHA256

    def test_real_codes_near_a_fair_coin_are_pinned(self):
        rng = random.Random(39)
        ps = [0.5, 0.45, 0.55, 0.49, 0.51, 0.4, 0.6, 0.3, 0.7] + [round(rng.uniform(0.01, 0.99), 6) for _ in range(30)]
        digest = hashlib.sha256()
        for p in ps:
            for L in list(range(1, 65)) + [96, 128, 200, 256]:
                digest.update(repr(build_block_code(p, L).class_lengths).encode() + b"\n")
        assert digest.hexdigest() == NEAR_FAIR_CLASS_LENGTHS_SHA256
        # every merge ties at p = 1/2, and the walk stops after its one batch
        for L in (1024, 2048):
            assert build_block_code(0.5, L).class_lengths == [{L: math.comb(L, w)} for w in range(L + 1)], L

    def test_tie_paths_on_small_integer_weights(self, monkeypatch):
        # Fronts that meet an equal-valued entry are rare on real class
        # values; small integer weights make them common, and both
        # builders see the same weights.
        rng = random.Random(7)
        for _ in range(1500):
            L = rng.randint(1, 12)
            vals = [rng.randint(1, 4) for _ in range(L + 1)]
            monkeypatch.setattr(huffman, "_class_values", lambda p, L: list(vals))
            monkeypatch.setattr(conftest, "_class_values", lambda p, L: list(vals))
            assert huffman._aggregate_lengths(0.5, L) == reference_aggregate_lengths(0.5, L), vals

    def test_kraft_and_class_count_checks_run_on_every_build(self, monkeypatch):
        def short_by_one(p, L):
            lengths = reference_aggregate_lengths(p, L)
            lengths[0] = {d: c + 1 for d, c in lengths[0].items()}
            return lengths

        def one_length_shorter(p, L):
            lengths = reference_aggregate_lengths(p, L)
            (d, c), = lengths[0].items()
            lengths[0] = {d - 1: c}
            return lengths

        for fake, pattern in ((short_by_one, "do not sum"), (one_length_shorter, "Kraft")):
            monkeypatch.setattr(huffman, "_aggregate_lengths", fake)
            with pytest.raises(AssertionError, match=pattern):
                build_block_code(0.7, 9)


class TestOctaveBatches:
    """Values that land on a batch's 2V bound, against the heap builder in conftest."""

    def test_lengths_equal_where_p_over_q_is_near_a_power_of_two(self):
        # class values step by p/q, so here they sit on or next to a power of two apart
        rng = random.Random(18)
        for p in (1 / 3, 2 / 3, 0.2, 0.8, 1 / 9, 1 / 17, 0.5 - 2**-40, 0.5 + 2**-40):
            for L in [1, 2, 3] + rng.sample(range(4, 193), 4):
                assert huffman._aggregate_lengths(p, L) == reference_aggregate_lengths(p, L), (p, L)

    def test_tie_paths_on_weights_up_to_eight(self, monkeypatch):
        # weights 1..8 put many values exactly on 2V, the bound of a batch
        rng = random.Random(8)
        for _ in range(1500):
            L = rng.randint(1, 12)
            vals = [rng.randint(1, 8) for _ in range(L + 1)]
            monkeypatch.setattr(huffman, "_class_values", lambda p, L: list(vals))
            monkeypatch.setattr(conftest, "_class_values", lambda p, L: list(vals))
            assert huffman._aggregate_lengths(0.5, L) == reference_aggregate_lengths(0.5, L), vals

    def test_lengths_equal_past_the_queue_trim(self):
        # tens of thousands of entries: the taken front of the pair queue is cut off many times
        for p, L in ((0.6, 320), (0.3, 330)):
            assert huffman._aggregate_lengths(p, L) == reference_aggregate_lengths(p, L), (p, L)

    def test_fair_coin_gives_every_block_length_L(self):
        for L in range(1, 65):
            assert huffman._aggregate_lengths(0.5, L) == [{L: math.comb(L, w)} for w in range(L + 1)], L

    def test_rank_round_trip_at_1024(self):
        L = 1024
        rng = random.Random(1024)
        cases = [[0] * L, [1] * L]
        cases += [[int(rng.random() < q) for _ in range(L)] for q in (0.001, 0.3, 0.5, 0.6, 0.999)]
        for bits in cases:
            w = sum(bits)
            r = huffman._rank_in_class(bits, w)
            # rank as a sum of binomials, one per one bit
            left, expect = w, 0
            for j, b in enumerate(bits):
                if b:
                    expect += math.comb(L - 1 - j, left)
                    left -= 1
            assert r == expect and 0 <= r < math.comb(L, w)
            assert huffman._unrank_in_class(r, L, w) == bits
        for w in (0, 1, L - 1, L):
            assert huffman._unrank_in_class(0, L, w) == [0] * (L - w) + [1] * w
            assert huffman._unrank_in_class(math.comb(L, w) - 1, L, w) == [1] * w + [0] * (L - w)


class TestLevelCounting:
    """Lengths read off the making order, against the heap builder in conftest."""

    @pytest.mark.parametrize("L,vals", [(4, [4, 1, 2, 1, 4]), (5, [1, 3, 1, 2, 1, 1]), (5, [2, 1, 2, 1, 1, 1])])
    def test_depth_boundary_inside_an_alternation(self, monkeypatch, L, vals):
        # a front of made trees meets an equal-valued entry of made trees
        # and pairs its own trees first, and a depth boundary falls among
        # the pairs around that tie
        monkeypatch.setattr(huffman, "_class_values", lambda p, L: list(vals))
        monkeypatch.setattr(conftest, "_class_values", lambda p, L: list(vals))
        assert huffman._aggregate_lengths(0.5, L) == reference_aggregate_lengths(0.5, L)

    def test_tie_paths_on_longer_blocks(self, monkeypatch):
        # fronts of made trees meet equal-valued made trees in every build, several levels apart
        rng = random.Random(35)
        for _ in range(300):
            L = rng.randint(13, 40)
            vals = [rng.randint(1, 8) for _ in range(L + 1)]
            monkeypatch.setattr(huffman, "_class_values", lambda p, L: list(vals))
            monkeypatch.setattr(conftest, "_class_values", lambda p, L: list(vals))
            assert huffman._aggregate_lengths(0.5, L) == reference_aggregate_lengths(0.5, L), vals

    def test_long_runs_of_levels_without_leaves(self):
        # each class is 2**52 or more times heavier than the next, so many
        # levels that take no leaves lie between one class's leaves and the next's
        for p in (5e-324, 1e-300, 1 - 2**-52):
            for L in (2, 9, 24):
                assert huffman._aggregate_lengths(p, L) == reference_aggregate_lengths(p, L), (p, L)

    def test_walk_stops_once_every_leaf_is_taken(self, monkeypatch):
        # each batch bisects both queues once: at (0.45, 256) the last leaf
        # is paired in batch 75 of the 296 a walk to the root takes
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return bisect.bisect_left(*args, **kwargs)

        monkeypatch.setattr(huffman, "bisect_left", counted)
        huffman._aggregate_lengths(0.45, 256)
        assert len(calls) < 200

    def test_memory_stays_near_linear_in_L(self):
        # the builder keeps the live queue entries and a few runs per class, not every merge
        tracemalloc.start()
        try:
            huffman._aggregate_lengths(0.6, 192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_memory_stays_near_linear_in_L_on_tied_values(self, monkeypatch):
        # all classes but one tie, so fronts of made trees meet equal-valued made trees
        # again and again; the memory must not grow with the number of merges
        monkeypatch.setattr(huffman, "_class_values", lambda p, L: [1] * L + [2])
        tracemalloc.start()
        try:
            huffman._aggregate_lengths(0.5, 192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_cost_equals_a_heap_over_every_block(self, monkeypatch):
        # the code's total cost against plain Huffman over all 2**L blocks,
        # whose cost is the sum of every merged value whatever the tie rule
        rng = random.Random(38)
        for _ in range(200):
            L = rng.randint(1, 12)
            vals = [rng.randint(1, 8) for _ in range(L + 1)]
            monkeypatch.setattr(huffman, "_class_values", lambda p, L: list(vals))
            lengths = huffman._aggregate_lengths(0.5, L)
            heap = [vals[w] for w in range(L + 1) for _ in range(math.comb(L, w))]
            heapq.heapify(heap)
            cost = 0
            while len(heap) > 1:
                merged = heapq.heappop(heap) + heapq.heappop(heap)
                cost += merged
                heapq.heappush(heap, merged)
            assert sum(d * count * vals[w] for w, dm in enumerate(lengths) for d, count in dm.items()) == cost, vals


class TestClassValues:
    """The stepped class values against the full-product oracle in conftest."""

    @pytest.mark.parametrize("p", [1 / 3, 0.6, 0.5 - 2**-40, 0.5 + 2**-40, 1e-300, 5e-324])
    def test_equal_to_full_products(self, p):
        for L in (1, 2, 7, 64, 256, 1024):
            assert huffman._class_values(p, L) == conftest._class_values(p, L), (p, L)

    def test_scale_is_unchanged_where_one_over_p_is_finite(self):
        # log2(1 / p) rounds to 2 + 2**-51 here and -log2(p) to 2, which
        # would move the scale by one bit at L = 1
        p = 0.25 * (1 - 2**-53)
        for L in (1, 2, 7):
            assert huffman._class_values(p, L) == conftest._class_values(p, L), L

    def test_subnormal_probabilities_keep_64_guard_bits(self):
        # 1 / p overflows to inf below about 5.6e-309, not at 6e-309
        for p in (5e-324, 2.0**-1070, 3e-309, 6e-309):
            for L in (1, 8, 33):
                vals = huffman._class_values(p, L)
                assert vals == conftest._class_values(p, L), (p, L)
                assert 2**64 <= min(vals) <= 2**65, (p, L)
        code = build_block_code(5e-324, 8)
        assert code.class_lengths[0] == {1: 1}
        assert code.expected_length == pytest.approx(1.0)
        for bits in ([0] * 8, [0, 0, 1, 0, 0, 0, 0, 0], [1] * 8):
            assert code.decode_block(code.encode_block(bits)) == (bits, len(code.encode_block(bits)))

    def test_one_waiting_tree_meets_an_equal_value(self, monkeypatch):
        # small weights that tie: a single tree waits in front of an
        # equal-valued entry of more trees, and an entry of more trees
        # waits in front of an equal-valued single tree
        cases = [(2, [1, 1, 1]), (3, [1, 1, 1, 1]), (3, [1, 1, 5, 1]), (4, [3, 1, 1, 2, 1])]
        for L, vals in cases:
            monkeypatch.setattr(huffman, "_class_values", lambda p, L: list(vals))
            monkeypatch.setattr(conftest, "_class_values", lambda p, L: list(vals))
            assert huffman._aggregate_lengths(0.5, L) == reference_aggregate_lengths(0.5, L), vals
        monkeypatch.setattr(huffman, "_class_values", lambda p, L: [1] * (L + 1))
        assert huffman._aggregate_lengths(0.5, 3) == [{3: math.comb(3, w)} for w in range(4)]


class TestOptimumAtLargeL:
    """Expected lengths of real codes against optima derived apart from the builder."""

    # p / (1 - p) = 2**-j: every word's self-information has the same
    # fractional part x, and an optimal code uses two lengths per class
    @pytest.mark.parametrize("j, Ls", [(1, range(1, 129))] + [(j, range(33, 129)) for j in (2, 3, 4)],
                             ids=["1/3", "1/5", "1/9", "1/17"])
    def test_closed_form_where_p_over_q_is_a_power_of_two(self, j, Ls):
        # At j >= 2 and L <= 32 the code is off the form by up to 0.20 (1/5), 0.44 (1/9) and
        # 0.65 (1/17): the few words of the outer classes cannot split between two lengths in
        # the proportion the form assumes.  Worst error over the grid: 4.8e-10 (1/3), 4.5e-10 (1/5)
        # and 1.1e-10 (1/9, 1/17), all at L = 1024.
        p = 1 / (1 + 2**j)
        for L in [*Ls, 256, 512, 1024]:
            x = L * math.log2(1 / (1 - p)) % 1.0
            form = L * bernoulli_entropy(p) + 2 - x - 2 ** (1 - x)
            assert build_block_code(p, L).expected_length == pytest.approx(form, rel=0, abs=1e-8), (p, L)

    def test_relaxed_two_length_optimum(self):
        # Worst error over these cases: 7.4e-13 on the fixed p, and 1.2e-6 on the random
        # ones, at (0.948, 52), which leaves the 1e-5 tolerance a margin of 8.  At L <= 32
        # the relaxation is off by up to 3e-2, so no case goes below L = 48.
        rng = random.Random(41)
        cases = [(p, L) for p in (0.1, 0.3, 0.45, 0.6) for L in (64, 96, 128, 200, 256, 512, 1024)]
        cases += [(rng.uniform(0.05, 0.95), rng.randint(48, 256)) for _ in range(12)]
        for p, L in cases:
            expected = build_block_code(p, L).expected_length
            assert expected == pytest.approx(relaxed_two_length_optimum(p, L), rel=0, abs=1e-5), (p, L)


class TestBuildCap:
    """The one cap on a build's work, L**3 log2(1 / min(p, 1 - p))."""

    def test_a_build_over_the_cap_is_refused_at_once(self):
        cap = f"over the block code build cap of {huffman.BLOCK_CODE_MAX_WORK}$"
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=cap):
            build_block_code(5e-324, 1024)  # about 40 s and 670 MiB without the cap
        assert time.perf_counter() - start < 0.1
        # the boundary at the smallest p, from either end
        for p in (5e-324, 1 - 2**-53):
            L = math.floor((huffman.BLOCK_CODE_MAX_WORK / -math.log2(min(p, 1 - p))) ** (1 / 3))
            huffman.check_block_code(p, L)
            with pytest.raises(CapacityError, match=cap):
                huffman.check_block_code(p, L + 1)

    def test_every_build_the_old_width_cap_admitted_passes(self):
        # The CLI used to refuse N over 2048, and N -log2(min(p, 1 - p)) over 9000 bits, and
        # asked for nothing else; N <= 2048 and N b <= 9000 give N**3 b <= 2048**2 x 9000.
        def width_cap_admits(p, N):
            return N * -np.log2(min(p, 1.0 - p)) <= 9000

        ps = [*np.geomspace(5e-324, 0.5, 60).tolist(), 0.048, 0.0477]
        ps += [1 - p for p in ps if 1 - p < 1]
        # the floats nearest the old cap at N = 2048, where a rounding could tell the caps apart
        edge = 2 ** (-9000 / 2048)
        ps += [edge + k * math.ulp(edge) for k in range(-64, 65)]
        admitted = 0
        for p in ps:
            for N in (1, 8, 128, 512, 1024, 2048):
                if width_cap_admits(p, N):
                    huffman.check_block_code(p, N)
                    admitted += 1
        assert admitted > len(ps) * 3


class TestBlockCode:
    def test_exhaustive_round_trip_and_prefix_freedom(self):
        code = build_block_code(0.7, 6)
        words = {}
        for v in range(64):
            bits = [int(b) for b in format(v, "06b")]
            cw = code.encode_block(bits)
            assert len(cw) == len(code.encode_block(bits))
            decoded, pos = code.decode_block(cw)
            assert decoded == bits and pos == len(cw)
            words[v] = cw
        assert len(set(words.values())) == 64
        ws = list(words.values())
        for a in ws:
            for b in ws:
                if a is not b:
                    assert not b.startswith(a)

    def test_stream_of_blocks_decodes_sequentially(self):
        code = build_block_code(0.6, 8)
        rng = np.random.default_rng(9)
        blocks = [[int(b) for b in rng.integers(0, 2, 8)] for _ in range(40)]
        stream = "".join(code.encode_block(b) for b in blocks)
        pos = 0
        out = []
        for _ in blocks:
            block, pos = code.decode_block(stream, pos)
            out.append(block)
        assert out == blocks
        assert pos == len(stream)

    def test_codewords_are_pinned(self):
        # sha256 of every codeword, in block order, captured from the
        # per-length canonical tables this run list replaced
        digest = hashlib.sha256()
        for p, L in ((0.7, 10), (0.3, 12), (0.5, 9), (0.01, 11), (0.9, 8)):
            code = build_block_code(p, L)
            for v in range(1 << L):
                bits = [(v >> (L - 1 - j)) & 1 for j in range(L)]
                cw = code.encode_block(bits)
                assert code.decode_block(cw) == (bits, len(cw))
                digest.update(cw.encode() + b"\n")
        assert digest.hexdigest() == "949b74d9994997970a709f5731be2e9045ee46d2a1a0277b81a600c5d022836a"

    @pytest.mark.parametrize("p,L,two_run_classes", [(0.2, 256, 153), (0.6, 128, 6)])
    def test_run_boundaries_at_large_L(self, p, L, two_run_classes):
        # the first and last rank of every (length, weight) run, past where every codeword can be checked
        code = build_block_code(p, L)
        assert sum(len(dm) == 2 for dm in code.class_lengths) == two_run_classes
        for w, dm in enumerate(code.class_lengths):
            first = 0
            for d, count in sorted(dm.items()):
                words = []
                for r in (first, first + count - 1):
                    bits = huffman._unrank_in_class(r, L, w)
                    cw = code.encode_block(bits)
                    assert len(cw) == d and code.decode_block(cw) == (bits, d), (w, r)
                    words.append(int(cw, 2))
                assert words[1] == words[0] + count - 1, (w, d)
                first += count
            assert first == math.comb(L, w), w

    def test_a_pickled_code_holds_one_run_table(self):
        # build workers send their codes back pickled; a second table of the runs would double this
        assert len(pickle.dumps(build_block_code(0.2, 256))) < 48_000

    @pytest.mark.parametrize("p,L", [(0.6, 8), (0.9, 12)])
    def test_stream_cut_anywhere(self, p, L):
        code = build_block_code(p, L)
        rng = np.random.default_rng(21)
        blocks = [[int(b) for b in (rng.random(L) < p)] for _ in range(6)]
        stream = "".join(code.encode_block(b) for b in blocks)
        for cut in range(len(stream) + 1):
            pos = 0
            for block in blocks:
                end = pos + len(code.encode_block(block))
                if end > cut:
                    with pytest.raises(InputError, match="ended inside"):
                        code.decode_block(stream[:cut], pos)
                    break
                assert code.decode_block(stream[:cut], pos) == (block, end)
                pos = end
            else:
                assert cut == len(stream)

    @pytest.mark.parametrize("char", ["x", "_", " "])
    def test_non_bit_characters_are_refused(self, char):
        code = build_block_code(0.6, 4)
        cw = code.encode_block([1, 0, 1, 0])
        for j in range(len(cw)):
            with pytest.raises(InputError, match="not 0 or 1"):
                code.decode_block("1" + cw[:j] + char + cw[j + 1:], 1)

    def test_decode_position_is_exact(self):
        code = build_block_code(0.6, 4)
        cw = code.encode_block([1, 0, 1, 0])
        block, pos = code.decode_block(cw + "10101", 0)
        assert block == [1, 0, 1, 0]
        assert pos == len(cw)

    def test_a_negative_position_is_refused(self):
        code = build_block_code(0.3, 4)
        stream = "1101100"  # two codewords
        assert code.decode_block(stream, 0) == ([1, 0, 0, 1], 5)
        for pos in (-1, -3, -len(stream)):  # -3 would read the stream's last bits as a codeword
            with pytest.raises(InputError, match=f"stream position {pos} is negative"):
                code.decode_block(stream, pos)

    def test_within_class_shorter_codes_go_to_lex_smaller_blocks(self):
        code = build_block_code(0.75, 8)
        for w in range(9):
            lengths = []
            for v in range(256):
                bits = [int(b) for b in format(v, "08b")]
                if sum(bits) == w:
                    lengths.append(len(code.encode_block(bits)))
            # enumeration order of equal-weight blocks is lexicographic
            assert lengths == sorted(lengths), w

    def test_expected_length_entropy_window(self):
        for p, L in ((0.6, 16), (0.6, 64), (0.3, 200), (0.9, 128)):
            h = L * bernoulli_entropy(p)
            el = build_block_code(p, L).expected_length
            assert h - 1e-6 <= el < h + 1.0, (p, L)

    def test_single_bit_block(self):
        code = build_block_code(0.7, 1)
        assert code.encode_block([0]) == "0"
        assert code.encode_block([1]) == "1"
        assert code.expected_length == pytest.approx(1.0, abs=1e-12)

    def test_two_bit_frozen_expected_length(self):
        assert build_block_code(0.8, 2).expected_length == pytest.approx(1.56, abs=1e-9)

    def test_large_block_round_trip(self):
        code = build_block_code(0.6, 256)
        assert isinstance(code, BernoulliBlockCode)
        h = 256 * bernoulli_entropy(0.6)
        assert h <= code.expected_length < h + 1.0
        rng = np.random.default_rng(13)
        bits = [int(b) for b in (rng.random(256) < 0.6)]
        cw = code.encode_block(bits)
        decoded, pos = code.decode_block(cw)
        assert decoded == bits and pos == len(cw)

    def test_input_validation(self):
        code = build_block_code(0.6, 4)
        with pytest.raises(InputError):
            code.encode_block([1, 0, 1])
        with pytest.raises(InputError):
            code.decode_block("0")  # shorter than any codeword
        with pytest.raises(InputError):
            build_block_code(0.0, 4)
        with pytest.raises(InputError):
            build_block_code(0.5, 0)

    def test_explicit_code_type(self):
        assert isinstance(huffman_build({"a": 0.5, "b": 0.5}), HuffmanCode)
