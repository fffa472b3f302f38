"""Prefix codes: explicit builder, and the weight-class aggregated block code."""

import hashlib
import math
import random

import conftest
import numpy as np
import pytest
from conftest import HuffmanCode, block_distribution, huffman_build, reference_aggregate_lengths
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcast import huffman
from threshcast.core import CapacityError, InputError
from threshcast.huffman import BernoulliBlockCode, bernoulli_entropy, build_block_code


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

    def test_tie_paths_on_small_integer_weights(self, monkeypatch):
        # Equal-value fronts in one queue with the larger count in front
        # almost never arise from real class values; small integer weights
        # make them common, and both builders see the same weights.
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

    def test_lengths_equal_once_children_move_to_arrays(self, monkeypatch):
        # over 2**16 families: the children of the first ones are packed into arrays
        packed = []

        class Recording(huffman.array):
            def fromlist(self, keys):
                packed.append(len(keys))
                super().fromlist(keys)

        monkeypatch.setattr(huffman, "array", Recording)
        for p, L in ((0.6, 320), (0.3, 330)):
            packed.clear()
            assert huffman._aggregate_lengths(p, L) == reference_aggregate_lengths(p, L), (p, L)
            assert packed and min(packed) > 2**16, (p, L)

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
