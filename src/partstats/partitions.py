"""Set partitions of [n] = {1..n}: canonical coding, enumeration, views.

The canonical internal form is the restricted growth string (RGS)
a_1..a_n with a_1 = 0 and a_{j+1} <= 1 + max(a_1..a_j).  Blocks, arcs
and block extrema are derived views.  Elements are 1-indexed in the
external API; the RGS itself is stored 0-indexed by position.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .exactnum import unpack


class PartitionError(ValueError):
    """Invalid partition data (bad RGS, overlapping blocks, bad text)."""


class SetPartition:
    """An immutable set partition of [n], stored as its RGS."""

    __slots__ = ("n", "rgs")

    def __init__(self, rgs: Sequence[int]):
        rgs = tuple(rgs)
        mx = -1
        for j, a in enumerate(rgs):
            if type(a) is not int or a < 0 or a > mx + 1:
                raise PartitionError(
                    "not a restricted growth string at position %d: %r" % (j + 1, rgs)
                )
            if a > mx:
                mx = a
        self.n = len(rgs)
        self.rgs = rgs

    @classmethod
    def _trusted(cls, rgs: tuple) -> "SetPartition":
        p = object.__new__(cls)
        p.n = len(rgs)
        p.rgs = rgs
        return p

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.n else 0

    def blocks(self) -> list:
        """Blocks as sorted lists of 1-indexed elements, ordered by minimum."""
        out: list = [[] for _ in range(self.block_count)]
        for pos, cls_id in enumerate(self.rgs):
            out[cls_id].append(pos + 1)
        return out

    def arcs(self) -> list:
        """Pairs (e, f), e < f co-blocked with f the next block element above e."""
        last_seen: dict = {}
        out = []
        for pos, cls_id in enumerate(self.rgs):
            x = pos + 1
            if cls_id in last_seen:
                out.append((last_seen[cls_id], x))
            last_seen[cls_id] = x
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPartition) and self.rgs == other.rgs

    def __hash__(self) -> int:
        return hash(self.rgs)

    def __repr__(self) -> str:
        return "SetPartition(%r)" % (self.rgs,)

    def __str__(self) -> str:
        if self.n == 0:
            return ""
        sep = "," if self.n > 9 else ""
        return "|".join(sep.join(str(x) for x in b) for b in self.blocks())


def crossing_count(arcs: list) -> int:
    """Pairs of arcs (e1, f1), (e2, f2) with e1 < e2 < f1 < f2."""
    return sum(1 for e1, f1 in arcs for e2, f2 in arcs if e1 < e2 < f1 < f2)


def canonical_rgs(labels: Iterable) -> tuple:
    """Relabel by first occurrence: the RGS of the partition the labels induce."""
    relabel: dict = {}
    out = []
    for v in labels:
        if v not in relabel:
            relabel[v] = len(relabel)
        out.append(relabel[v])
    return tuple(out)


def from_blocks(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Canonical partition from disjoint blocks covering [n]."""
    blocks = [sorted(b) for b in blocks]
    elems: dict = {}
    for idx, b in enumerate(blocks):
        if not b:
            raise PartitionError("empty block")
        for x in b:
            if x in elems:
                raise PartitionError("element %d appears in two blocks" % x)
            elems[x] = idx
    n = len(elems)
    if n and (min(elems) != 1 or max(elems) != n):
        raise PartitionError("blocks must partition {1..n}, got elements %s" % sorted(elems))
    return SetPartition(canonical_rgs(elems[x] for x in range(1, n + 1)))


def iter_rgs(n: int) -> Iterator[tuple]:
    """All restricted growth strings of length n in lexicographic order.

    The first n - 1 positions advance as an odometer; each prefix is built
    as a tuple once and then joined to every value the last position can
    take, from 1-tuples made up front.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        yield (0,) * n
        return
    m = n - 1
    ends = [(a,) for a in range(n)]
    rgs = [0] * m
    # maxp[j] = max(rgs[0..j-1]); position j can be incremented iff rgs[j] <= maxp[j]
    maxp = [0] * m
    while True:
        prefix = tuple(rgs)
        top = maxp[-1] if maxp[-1] > rgs[-1] else rgs[-1]
        for end in ends[:top + 2]:
            yield prefix + end
        j = m - 1
        while j > 0 and rgs[j] > maxp[j]:
            j -= 1
        if j == 0:
            return
        rgs[j] += 1
        mx = maxp[j] if maxp[j] > rgs[j] else rgs[j]
        for i in range(j + 1, m):
            rgs[i] = 0
            maxp[i] = mx


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of [n] exactly once, in lexicographic RGS order."""
    trusted = SetPartition._trusted
    for rgs in iter_rgs(n):
        yield trusted(rgs)


def brute_distribution(n: int, target: str) -> dict:
    """{value: count} of the dimension ("dim") or 2-crossing ("int") exponent
    over every partition of [n], by one depth-first walk over the elements.

    The walk keeps each block's latest element, lasts[b].  Element x joining
    the block whose latest element is l adds the arc (l, x): ``dim`` gains
    x - l - 1, and ``int`` gains the earlier arcs (e, f) with e < l < f, one
    per other block b whose span, from its least element to lasts[b],
    strictly contains l.  Opening a block adds 0.

    For ``int`` the walk keeps cover[b], the number of blocks whose span
    strictly contains lasts[b], so joining block c adds cover[c].  The join
    moves lasts[c] from l to x, the largest element so far: no span contains
    x, so cover[c] becomes 0, and the span of c now also contains every
    lasts[b] between l and x, that is every lasts[b] > l (all of them exceed
    the least element of c, which is at most l); no other span changes.
    Undoing the join restores cover[c] and lasts[c] = l, after which the same
    test lasts[b] > l finds the blocks it bumped.

    The walk places elements 2..n-2 only.  At each such node of weight w the
    nb^2 + 2nb + 2 ways to place n - 1 and n are counted at once, as the
    polynomial q^w * P(q), with e1 and e2 the first two elementary symmetric
    sums of q^(k_b) over the blocks:

    - ``int``, k_b = cover[b]: P = 2 + 3 e1 + (1 + q) e2.  If n - 1 opens a
      block, n opens one, joins it (both add 0) or joins b (adds k_b).  If
      n - 1 joins c (adds k_c), n opens or joins c (0) or joins b != c, which
      adds k_b plus 1 when lasts[b] > lasts[c].  Each pair of blocks is thus
      counted once with the +1 and once without, whatever the order of lasts.
    - ``dim``, k_b = n - 1 - lasts[b] >= 1: P = 2 + e1 + 2 q^-1 (e1 + e2).
      n - 1 joining b adds k_b - 1, n joining b adds k_b, and n joining the
      block of n - 1 adds 0.

    The histogram is one integer with a slot of ``size`` bytes per value, as
    ``exactnum.unpack`` reads it, so adding a node is a shift and an add.
    Every count is at most B_n <= n^n < 2^(8 size) for size = ceil(n *
    n.bit_length() / 8), a bound that, unlike B_n, costs no time at large n.

    The walk recurses n - 2 calls deep; past the interpreter's recursion
    limit it raises ``ValueError`` on the first descent.
    """
    if target not in ("dim", "int"):
        raise ValueError("target must be 'dim' or 'int', got %r" % (target,))
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 3:
        return {0: max(n, 1)}  # B_0 = B_1 = 1 and B_2 = 2, all of weight 0
    crossings = target == "int"
    size = (n * n.bit_length() + 7) // 8
    S = 8 * size
    m = n - 1  # the walk stops when m is the next element to place
    lasts, cover = [1], [0]
    packed = 0

    def walk(x: int, w: int) -> None:
        """Count every way to place x..n after elements 1..x-1 of weight w."""
        nonlocal packed
        if x == m:
            # e1 and p2 = sum of q^(2 k_b), packed; e2 = (e1^2 - p2) / 2
            e1 = p2 = 0
            for k in (cover if crossings else [m - l for l in lasts]):
                e1 += 1 << k * S
                p2 += 1 << 2 * k * S
            if crossings:
                e2 = (e1 * e1 - p2) >> 1  # every slot is even
                packed += (2 + 3 * e1 + e2 + (e2 << S)) << w * S
            else:
                # e1 + e2 has no constant term, so q^-1 is an exact shift
                packed += (2 + e1 + ((2 * e1 + e1 * e1 - p2) >> S)) << w * S
            return
        nb = len(lasts)
        for c in range(nb):
            l = lasts[c]
            k = cover[c] if crossings else x - l - 1  # the weight the join adds
            if crossings:
                cover[c] = 0
                for b in range(nb):
                    if lasts[b] > l:
                        cover[b] += 1
            lasts[c] = x
            walk(x + 1, w + k)
            lasts[c] = l
            if crossings:
                cover[c] = k
                for b in range(nb):
                    if lasts[b] > l:
                        cover[b] -= 1
        lasts.append(x)
        cover.append(0)
        walk(x + 1, w)
        lasts.pop()
        cover.pop()

    try:
        walk(2, 0)
    except RecursionError:
        raise ValueError("n=%d needs a walk %d calls deep, which reaches the interpreter's "
                         "recursion limit (%d)" % (n, n - 2, sys.getrecursionlimit())) from None
    return unpack(packed, size)


@dataclass(frozen=True)
class MarkedSetPartition:
    """A set partition with every block flagged open or closed.

    ``open_flags[i]`` refers to the ith block in minimum order.
    """

    base: SetPartition
    open_flags: tuple

    def __post_init__(self):
        if len(self.open_flags) != self.base.block_count:
            raise PartitionError("need one open/closed flag per block")

    @property
    def open_count(self) -> int:
        return sum(1 for f in self.open_flags if f)

    def arcs(self) -> list:
        """The base arcs, plus an arc (max, n + 1) from each open block's maximum."""
        lam = self.base
        maxima = {c: x for x, c in enumerate(lam.rgs, 1)}
        return lam.arcs() + [(maxima[c], lam.n + 1)
                             for c, is_open in enumerate(self.open_flags) if is_open]


def marked_enumerate(n: int) -> Iterator[MarkedSetPartition]:
    """All (partition, marking) pairs; 2^blocks markings per partition."""
    for lam in enumerate_partitions(n):
        ell = lam.block_count
        for mask in range(1 << ell):
            flags = tuple(bool(mask >> i & 1) for i in range(ell))
            yield MarkedSetPartition(lam, flags)


def parse_partition(text: str) -> SetPartition:
    """Parse either block notation (``1356|27|4`` or ``1,3,5,6|2,7|4``)
    or a comma-separated RGS (``0,1,0,1,2,0,0``).

    Block notation lists each block's elements digit by digit unless the
    text has a comma or more than nine digits; then every block is a comma
    list.  ``str(SetPartition)`` writes commas for n > 9, where a partition
    into singletons has none but more than nine digits, and one block has
    no ``|``.  Whitespace between numbers is ignored in both notations, so
    ``1 3|2`` and ``1, 3|2`` both read as ``13|2``; a comma list still needs
    its commas.  Every number is ASCII digits with no sign, underscore or
    leading zero (``0`` itself is a number); anything else raises
    ``PartitionError``.
    """
    text = text.strip()
    if text == "":
        return SetPartition(())
    if "|" not in text and text.startswith("0"):  # an RGS starts with 0; no block holds 0
        return SetPartition(tuple(map(_number, text.split(","))))
    numbers = "," in text or sum(c.isdecimal() for c in text) > 9
    return from_blocks(map(_number, chunk.split(",") if numbers else "".join(chunk.split()))
                       for chunk in text.split("|"))


def _number(text: str) -> int:
    """``text``, less surrounding whitespace, as a number by the rule in ``parse_partition``."""
    digits = text.strip()
    try:
        if digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
            return int(digits)
    except ValueError:  # more digits than CPython converts to an int
        pass
    raise PartitionError("bad number: %r" % text)
