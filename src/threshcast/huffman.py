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
sort and walked in order.  Pairing an entry's trees with each other
makes no family: the entry rejoins the family queue with its value
doubled and its count halved.  About 1.4 L**2 entries are walked, in
line with Moffat and Turpin's bound of r log(n / r) for r = L + 1 runs
over n = 2**L symbols, in about L log2(1 / min(p, 1 - p)) batches; only
about half of them, 0.7 L**2, make a family for the reverse pass that
hands depths down to the classes.

Family values are exact big integers at a fixed binary scale with 64
guard bits.  A truncated family value of c outcomes is below the exact
one by less than c, while the value itself is at least c * 2**64 by the
choice of scale, so merge decisions can deviate from exact-value
decisions only between families equal to within relative 2**-63; that
cannot move the expected length at any tolerance used in this project.
The resulting length multiset satisfies the Kraft equality exactly
(checked in big integers) and codewords are assigned canonically, so a
(length, weight) run of codewords is one range of consecutive codes.
Encoding ranks an outcome within its weight class and finds the class's
run of that rank; decoding reads the longest length's worth of bits and
finds its run with one bisect over the runs' first codes, left-aligned
to that length (Moffat and Turpin, IEEE Trans. Commun. 45(10), 1997).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Sequence

from .core import InputError


def bernoulli_entropy(p: float) -> float:
    """Entropy in bits of a single Bernoulli(p) flip."""
    if not 0.0 < p < 1.0:
        raise InputError(f"entropy needs p in (0, 1), got {p!r}")
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


# ---------------------------------------------------------------------------
# Weight-class aggregated construction


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

    Queue entries are (value, count, key): `count` trees of `value`, each
    a perfect subtree over 2**j level-0 trees of node key >> S, at level
    j = key & (2**S - 1).  Nodes are the classes (0..L) and the families
    (L+1..) in creation order; the class queue is sorted by (value, w),
    the family queue is in creation order, and on equal values a class
    goes first.  The smallest entry pairs its trees with the next
    smallest's (take = the smaller count) when their values are equal or
    it holds one tree, which makes a family; else it pairs them with each
    other, and the entry rejoins the family queue one level up, with its
    value doubled and its count halved, its odd tree left behind.

    Every entry made while the smallest live value is V is at least 2V,
    or v + V while a leftover tree of value v < V waits to pair with the
    next entry, so each batch below that bound is sliced off both queues,
    merged by one stable sort on value and walked in order.
    """
    values = _class_values(p, L)
    S = L.bit_length()
    first = itemgetter(0)
    lq = sorted(((values[w], math.comb(L, w), w << S) for w in range(L + 1)), key=first)
    # above every family value: ends the class queue and is never taken
    end = 1 << (max(values).bit_length() + L + 1)
    lq.append((end, 0, -1))
    mq = []
    # children of family L + 1 + i, as keys: the first in ca and cb, the
    # latest in fa and fb, moved over in blocks of 2**16 to bound memory
    ca, cb, fa, fb = array("q"), array("q"), [], []
    put_m = mq.append
    li = mi = 0
    step = 1 << S
    nk = (L + 1) << S
    # the front entry being walked: value, trees left, key
    v = c = k = 0
    while True:
        top = lq[li][0]
        if mi < len(mq) and mq[mi][0] < top:
            top = mq[mi][0]
        if c and top == end:
            break
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
                if v2 != v:
                    put_m((v + v, c >> 1, k + 1))
                    c &= 1
                elif c > c2:  # equal values, and the front outlasts the entry
                    fa.append(k)
                    fb.append(k2)
                    put_m((v + v2, c2, nk))
                    nk += step
                    c -= c2
                    continue
            if c:  # c <= c2 here: each tree left pairs with one of the entry's
                fa.append(k)
                fb.append(k2)
                put_m((v + v2, c, nk))
                nk += step
                c2 -= c
            v, c, k = v2, c2, k2
        # every entry left is at or above the bound, so none equals v
        if c > 1:
            put_m((v + v, c >> 1, k + 1))
            c &= 1
        if mi > 4096:
            del mq[:mi]
            mi = 0
            if len(fa) > 65536:
                ca.fromlist(fa)
                cb.fromlist(fb)
                fa, fb = [], []

    # Reverse pass from the root, the last family made (level j of it).
    # Node g's level-0 trees sit at depth dep[g] (cnt[g] of them; 0 =
    # none yet) and, rarely, at the further depths in more[g] = [depth,
    # count, ...].  A child at level j of a tree at depth d - 1 holds
    # 2**j level-0 trees at depth d + j.
    nid, mask = nk >> S, step - 1
    dep, cnt, more = [0] * nid, [0] * nid, [None] * nid

    def push(g: int, d: int, c: int) -> None:
        if dep[g] in (0, d):
            dep[g], cnt[g] = d, cnt[g] + c
            return
        tr = more[g] = more[g] or []
        for j in range(0, len(tr), 2):
            if tr[j] == d:
                tr[j + 1] += c
                return
        tr += (d, c)

    j = k & mask
    dep[-1], cnt[-1] = j, 1 << j
    for f, a, b in zip(range(nid - 1, L, -1), chain(reversed(fa), reversed(ca)), chain(reversed(fb), reversed(cb))):
        d, c = dep[f] + 1, cnt[f]
        cnt[f] = 0
        g, j = a >> S, a & mask
        if not dep[g] or dep[g] == d + j:
            dep[g], cnt[g] = d + j, cnt[g] + (c << j)
        else:
            push(g, d + j, c << j)
        g, j = b >> S, b & mask
        if not dep[g] or dep[g] == d + j:
            dep[g], cnt[g] = d + j, cnt[g] + (c << j)
        else:
            push(g, d + j, c << j)
        tr = more[f]
        if tr:
            for i in range(0, len(tr), 2):
                for x in a, b:
                    j = x & mask
                    push(x >> S, tr[i] + 1 + j, tr[i + 1] << j)
    trs = ([dep[w], cnt[w]] + (more[w] or []) for w in range(L + 1))
    return [dict(sorted(zip(tr[::2], tr[1::2]))) for tr in trs]


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
    in-class rank).  Everything is computed from class-level counts: the
    lengths come from octave batches of about 1.4 L**2 queue entries on
    big integers, about half of which make families, which makes L in
    the hundreds take milliseconds to a tenth of a second and L = 1024
    about 1.5 s.  Ranking and unranking step one binomial per bit.
    """

    p: float
    L: int
    class_lengths: list[dict[int, int]]
    expected_length: float
    # per class, by length: (rank end, length, first code - first rank)
    _class_runs: list[list[tuple[int, int, int]]] = field(repr=False)
    # every run in canonical order: (first code left-aligned to the longest length, length, w, first rank)
    _runs: list[tuple[int, int, int, int]] = field(repr=False)

    def encode_block(self, bits: Sequence[int]) -> str:
        if len(bits) != self.L:
            raise InputError(f"block has {len(bits)} bits, code expects {self.L}")
        w = sum(1 for b in bits if b)
        r = _rank_in_class(bits, w)
        for rank_end, length, base in self._class_runs[w]:
            if r < rank_end:
                return format(base + r, "b").zfill(length)
        raise AssertionError("rank outside class range")

    def decode_block(self, stream: str, pos: int = 0) -> tuple[list[int], int]:
        """Read one codeword from `stream` at `pos`; return (block bits, new pos).

        Bits past the stream's end read as 0, and a codeword needing them is refused.
        """
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
    """Build the aggregated block code for Bernoulli(p)^L."""
    if not 0.0 < p < 1.0:
        raise InputError(f"p must be in (0, 1), got {p!r}")
    if L < 1:
        raise InputError(f"block length must be positive, got {L}")
    class_lengths = _aggregate_lengths(p, L)

    # canonical order: by length, then weight, then in-class rank
    by_length = sorted((d, w, cnt) for w, dm in enumerate(class_lengths) for d, cnt in dm.items())
    width = by_length[-1][0]
    class_runs: list[list[tuple[int, int, int]]] = [[] for _ in class_lengths]
    runs: list[tuple[int, int, int, int]] = []
    rank_end = [0] * (L + 1)
    code = prev = 0
    for d, w, cnt in by_length:
        code <<= d - prev
        prev = d
        rank_start = rank_end[w]
        rank_end[w] += cnt
        class_runs[w].append((rank_end[w], d, code - rank_start))
        runs.append((code << (width - d), d, w, rank_start))
        code += cnt
    for w, total in enumerate(rank_end):
        if total != math.comb(L, w):
            raise AssertionError(f"class {w} length counts do not sum to C({L},{w})")
    if code != 1 << width:
        raise AssertionError("length multiset misses Kraft equality")

    q = 1.0 - p
    expected = 0.0
    lg_n = math.lgamma(L + 1)
    for w, dm in enumerate(class_lengths):
        log_pmf = (
            lg_n
            - math.lgamma(w + 1)
            - math.lgamma(L - w + 1)
            + w * math.log(p)
            + (L - w) * math.log(q)
        )
        avg_len = sum(d * cnt for d, cnt in dm.items()) / math.comb(L, w)
        expected += math.exp(log_pmf) * avg_len

    return BernoulliBlockCode(
        p=p,
        L=L,
        class_lengths=class_lengths,
        expected_length=expected,
        _class_runs=class_runs,
        _runs=runs,
    )
