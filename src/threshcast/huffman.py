"""Prefix codes for blocks of independent identical coin flips.

A block of L bits drawn iid Bernoulli(p) has 2**L outcomes but only
L + 1 distinct probabilities, one per number of ones.  The block-code
builder therefore runs Huffman's construction on runs: an entry is a
family of identical subtrees with one value and a count, and one merge
event pairs up as many of a family's trees as it can.  Merged values
never decrease, so two FIFO queues replace a heap: van Leeuwen's
two-queue method (ICALP 1976) in the run-length form of Moffat and
Turpin (IEEE Trans. IT 44(4), 1998).  While the smallest live value is
V, every entry a merge makes is at least 2V, so the entries below 2V
are taken off both queues as one batch, merged by value with one stable
sort and walked in order.  An entry whose trees pair with each other
rejoins the queue with its value doubled and its count halved.  Made
trees pair their own first, tie or not, so they are taken in the order
they were made, and lengths are read off that order by level counting
(Moffat and Katajainen, WADS 1995), in a few steps per class rather than
one per family.  So the walk ends at the last leaf's pair, after about
L |log2(p / (1 - p))| batches and at most about 1.4 L**2 entries (Moffat
and Turpin's r log(n / r), r = L + 1 runs of n = 2**L symbols): 0.93
L**2 at p = 0.3, 0.28 L**2 at 0.45, one batch of L + 1 at p = 1/2.

Family values are exact big integers at a fixed binary scale with 64
guard bits.  A truncated family value of c outcomes is below the exact
one by less than c, while the value itself is at least c * 2**64 by the
choice of scale, so merge decisions can deviate from exact-value
decisions only between families equal to within relative 2**-63; that
cannot move the expected length at any tolerance used in this project.
The resulting length multiset satisfies the Kraft equality exactly
(checked in big integers) and codewords are assigned canonically, so a
(length, weight) run of codewords is one range of consecutive codes.
A code keeps one table of these runs, each with its first code
left-aligned to the longest length and its first rank, and each class
keeps the indices of its runs; the length counts and the expected length
are read off that table when asked for.  Encoding ranks an outcome within
its weight class and takes the class's last run starting at or below
that rank; decoding reads the longest length's worth of bits and finds
its run with one bisect over the runs' first codes (Moffat and Turpin,
IEEE Trans. Commun. 45(10), 1997).  Before any work, `check_block_code`
refuses a build over BLOCK_CODE_MAX_WORK, raising CapacityError.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from operator import itemgetter
from typing import Sequence

from .core import CapacityError, InputError, as_int


def bernoulli_entropy(p: float) -> float:
    """Entropy in bits of a single Bernoulli(p) flip."""
    if not 0.0 < p < 1.0:
        raise InputError(f"entropy needs p in (0, 1), got {p!r}")
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


# ---------------------------------------------------------------------------
# Weight-class aggregated construction


# (0.048, 2048), the widest build the old CLI caps took, 4.2-5.3 s, 51 MiB; (5e-324, 327) 205 MiB (2-core x86-64)
BLOCK_CODE_MAX_WORK = 2048**2 * 9000


def check_block_code(p: float, L: int) -> None:
    """Refuse, in O(1) floats, p outside (0, 1) or L < 1 (InputError) and L**3 log2(1 / min(p, 1 - p)), L**2 x the
    class values' width, which a build's time tracks, over BLOCK_CODE_MAX_WORK (CapacityError); an L that is
    not an integer raises InputError first."""
    L = as_int("L", L)
    if not (0.0 < p < 1.0 and L >= 1):
        raise InputError(f"a block code needs p in (0, 1) and L >= 1, got p = {p!r}, L = {L}")
    if L**3 * -math.log2(m := min(p, 1.0 - p)) > BLOCK_CODE_MAX_WORK:
        raise CapacityError(f"L**3 log2(1 / {m!r}) at L={L} is over the block code build cap of {BLOCK_CODE_MAX_WORK}")


def _class_values(p: float, L: int) -> list[int]:
    """Exact truncated values of p^w q^(L-w) scaled to 2**E, w = 0..L.

    p is taken at its exact binary value A / 2**a, so the only error is
    the final truncating shift; E leaves 64 guard bits above the
    smallest class value.
    """
    A, D = p.as_integer_ratio()
    a = D.bit_length() - 1
    B = D - A
    r = 1.0 / min(p, 1.0 - p)  # inf for p below about 5.6e-309, where -log2(p) stands in
    E = math.ceil(L * (math.log2(r) if r < math.inf else -math.log2(p))) + 64
    shift = a * L - E
    vals = []
    num = B**L  # A^w B^(L-w), which B divides while w < L
    for w in range(L + 1):
        vals.append(num >> shift if shift >= 0 else num << -shift)
        num = num // B * A
    return vals


def _aggregate_lengths(p: float, L: int) -> list[dict[int, int]]:
    """Codeword-length multiset per weight class: {length: count} for each w.

    Queue entries are (value, count, key): `count` trees of `value`.  A
    class's leaves are keyed ~w; any other entry holds the trees made by
    pairs key, key + 1, ..., numbered in making order.  The class queue
    is sorted by (value, w), the pair queue is in making order, and on
    equal values a class goes first.  The smallest entry pairs its trees
    with each other, its last tree left to pair with the next entry's
    first.  Only a class's leaves pair first with an equal-valued entry's
    trees (take = the smaller count): at p = 1/4 and 3/4 leaves meet
    equal made trees, and the tests pin those codes.  Made trees pair
    their own even on a tie, so every made tree is taken in making order.
    Huffman's construction is optimal however it breaks ties.

    Every entry made while the smallest live value is V is at least 2V,
    or v + V while a leftover tree of value v < V waits to pair with the
    next entry, so each batch below that bound is sliced off both queues,
    merged by one stable sort on value and walked in order.

    Lengths come by level counting (Moffat and Katajainen, WADS 1995).
    Made trees are taken in making order, so the pairs below q take made
    trees 0 to rho(q) - 1, rho(q) = 2q - (the leaves they take).  If
    pairs [a, b) sit at depth d, the root pair 2**L - 2 at depth 0 (a
    full binary tree on 2**L leaves has q = 2**L - 1 pairs), the leaves
    they take get length d + 1 and pairs [rho(a), rho(b)) depth d + 1.
    So the walk stops once every class is taken and no leaf waits in
    front: no later merge takes a leaf, so the merge log is final, and
    later pairs take made trees in making order whatever their values.
    """
    values = _class_values(p, L)
    first = itemgetter(0)
    lq = sorted(((values[w], math.comb(L, w), ~w) for w in range(L + 1)), key=first)
    # above every merged value: ends the class queue and is never taken
    lq.append((1 << (max(values).bit_length() + L + 1), 0, 0))
    mq = []
    put_m = mq.append
    # (first pair, pairs, key, key) of each merge that takes leaves, after an empty one at 0
    merges = [(0, 0, 0, 0)]
    log = merges.append
    li = mi = q = 0
    # the front entry being walked: value, trees left, key
    v = c = k = 0
    while li <= L or (c and k < 0):
        top = lq[li][0]
        if mi < len(mq) and mq[mi][0] < top:
            top = mq[mi][0]
        bound = (v if c else top) + top
        lj = bisect_left(lq, bound, li, key=first)
        mj = bisect_left(mq, bound, mi, key=first)
        batch = lq[li:lj]
        if mj > mi:
            batch += mq[mi:mj]
            if li < lj:
                batch.sort(key=first)
        li, mi = lj, mj
        for v2, c2, k2 in batch:
            if c > 1:
                if v2 != v or k >= 0:
                    h = c >> 1
                    if k < 0:
                        log((q, h, k, k))
                    put_m((v + v, h, q))
                    q += h
                    c &= 1
                elif c > c2:  # a class outlasts an equal-valued entry
                    log((q, c2, k, k2))
                    put_m((v + v2, c2, q))
                    q += c2
                    c -= c2
                    continue
            if c:  # c <= c2 here: each tree left pairs with one of the entry's
                if k < 0 or k2 < 0:
                    log((q, c, k, k2))
                put_m((v + v2, c, q))
                q += c
                c2 -= c
            v, c, k = v2, c2, k2
        # every entry left is at or above the bound, so none equals v
        if c > 1:
            h = c >> 1
            if k < 0:
                log((q, h, k, k))
            put_m((v + v, h, q))
            q += h
            c &= 1
        if mi > 4096:
            del mq[:mi]
            mi = 0

    out = [{} for _ in range(L + 1)]
    # leaves taken by each pair of a merge, and by all pairs below its first
    per = [(r[2] < 0) + (r[3] < 0) for r in merges]
    lam = list(accumulate((n * r[1] for n, r in zip(per, merges)), initial=0))
    a, b, d, i = (1 << L) - 2, (1 << L) - 1, 1, len(merges) - 1
    while a < b:
        # length d to the leaves pairs [a, b) take, from merge i down to the one at or below a
        while True:
            s, m, ka, kb = merges[i]
            n = min(b, s + m) - max(a, s)
            if n > 0:
                for kk in ka, kb:
                    if kk < 0:
                        out[~kk][d] = out[~kk].get(d, 0) + n
            if s <= a:
                break
            i -= 1
        r, e, K = a + a - lam[i] - per[i] * min(a - s, m), s + m, lam[i + 1]
        if e <= r < a:  # no pair down to merge i's end takes leaves: rho(x) = 2x - K doubles K - x per level
            t = ((K - e) // (K - r)).bit_length()
            a, b, d = K - (K - r << t), K - (K - r << t - 1), d + t + 1
        else:
            a, b, d = r, a, d + 1
    return out


def _rank_in_class(bits: Sequence[int], w: int) -> int:
    """Lexicographic rank of a bit string among equal-weight strings.

    Of the C(m, k) strings left, u = C(m, k) (m - k) / m put a 0 next and
    C(m, k) - u = C(m - 1, k - 1) a 1.
    """
    m, k, r = len(bits), w, 0
    t = math.comb(m, k)  # C(m, k) for the m bits left, k of them ones
    for b in bits:
        u = t * (m - k) // m
        if b:
            r += u
            t -= u
            k -= 1
        else:
            t = u
        m -= 1
    return r


def _unrank_in_class(r: int, L: int, w: int) -> list[int]:
    bits = []
    m, k = L, w
    t = math.comb(m, k)
    for _ in range(L):
        u = t * (m - k) // m
        if r >= u:
            bits.append(1)
            r -= u
            t -= u
            k -= 1
        else:
            bits.append(0)
            t = u
        m -= 1
    return bits


@dataclass
class BernoulliBlockCode:
    """Canonical minimum-redundancy code for an L-bit iid Bernoulli(p) block.

    Within a weight class (all outcomes equally likely), shorter
    codewords go to lexicographically smaller outcomes; across the whole
    alphabet, codewords are assigned canonically by (length, weight,
    in-class rank).  The code is one table of those (length, weight) runs;
    a run's count is the gap from its first code to the next run's, at its
    own length.  Ranking and unranking step one binomial per bit.
    """

    p: float
    L: int
    # every run in canonical order: (first code left-aligned to the longest length, length, w, first rank)
    _runs: list[tuple[int, int, int, int]] = field(repr=False)
    # per class, the indices of its runs in _runs, shortest length first
    _class_runs: list[tuple[int, ...]] = field(repr=False)

    @property
    def class_lengths(self) -> list[dict[int, int]]:
        """Codeword-length multiset per weight class: {length: count} for each w."""
        runs = self._runs
        width = runs[-1][1]
        out: list[dict[int, int]] = [{} for _ in range(self.L + 1)]
        for (start, d, w, _), (end, *_) in pairwise(runs + [(1 << width,)]):
            out[w][d] = (end - start) >> (width - d)
        return out

    @property
    def expected_length(self) -> float:
        """Expected codeword length in bits under Bernoulli(p)^L."""
        L, log_p, log_q = self.L, math.log(self.p), math.log(1.0 - self.p)
        expected = 0.0
        for w, dm in enumerate(self.class_lengths):
            log_pmf = math.lgamma(L + 1) - math.lgamma(w + 1) - math.lgamma(L - w + 1) + w * log_p + (L - w) * log_q
            expected += math.exp(log_pmf) * (sum(d * cnt for d, cnt in dm.items()) / math.comb(L, w))
        return expected

    def encode_block(self, bits: Sequence[int]) -> str:
        if len(bits) != self.L:
            raise InputError(f"block has {len(bits)} bits, code expects {self.L}")
        w = sum(1 for b in bits if b)
        r = _rank_in_class(bits, w)
        runs = self._runs
        for i in reversed(self._class_runs[w]):
            start, length, _, rank_start = runs[i]
            if rank_start <= r:  # a class's first run starts at rank 0
                return format((start >> (runs[-1][1] - length)) + r - rank_start, "b").zfill(length)

    def decode_block(self, stream: str, pos: int = 0) -> tuple[list[int], int]:
        """Read one codeword from `stream` at `pos`; return (block bits, new pos).

        Bits past the stream's end read as 0, and a codeword needing them is refused, as is a negative pos.
        """
        if pos < 0:
            raise InputError(f"stream position {pos} is negative")
        runs = self._runs
        width = runs[-1][1]
        window = stream[pos : pos + width]
        rest = window.lstrip("01")
        if rest:
            raise InputError(f"bit stream has {rest[0]!r} at position {pos + len(window) - len(rest)}, not 0 or 1")
        value = int(window.ljust(width, "0"), 2)
        start, length, w, rank_start = runs[bisect_right(runs, value, key=itemgetter(0)) - 1]
        if pos + length > len(stream):
            raise InputError("bit stream ended inside a block codeword")
        return _unrank_in_class(rank_start + ((value - start) >> (width - length)), self.L, w), pos + length


def build_block_code(p: float, L: int) -> BernoulliBlockCode:
    """Build the aggregated block code for Bernoulli(p)^L; what `check_block_code` refuses raises first."""
    check_block_code(p, L)
    class_lengths = _aggregate_lengths(p, L)

    # canonical order: by length, then weight, then in-class rank
    by_length = sorted((d, w, cnt) for w, dm in enumerate(class_lengths) for d, cnt in dm.items())
    width = by_length[-1][0]
    class_runs: list[tuple[int, ...]] = [()] * (L + 1)
    runs: list[tuple[int, int, int, int]] = []
    rank_end = [0] * (L + 1)
    code = prev = 0
    for d, w, cnt in by_length:
        code <<= d - prev
        prev = d
        class_runs[w] += (len(runs),)
        runs.append((code << (width - d), d, w, rank_end[w]))
        rank_end[w] += cnt
        code += cnt
    for w, total in enumerate(rank_end):
        if total != math.comb(L, w):
            raise AssertionError(f"class {w} length counts do not sum to C({L},{w})")
    if code != 1 << width:
        raise AssertionError("length multiset misses Kraft equality")
    return BernoulliBlockCode(p=p, L=L, _runs=runs, _class_runs=class_runs)
