"""Set partitions of [n] = {1..n}: canonical coding, enumeration, views.

The canonical internal form is the restricted growth string (RGS)
a_1..a_n with a_1 = 0 and a_{j+1} <= 1 + max(a_1..a_j).  Blocks, arcs
and block extrema are derived views.  Elements are 1-indexed in the
external API; the RGS itself is stored 0-indexed by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class PartitionError(ValueError):
    """Invalid partition data (bad RGS, overlapping blocks, bad text)."""


class SetPartition:
    """An immutable set partition of [n], stored as its RGS."""

    __slots__ = ("n", "rgs")

    def __init__(self, rgs: Sequence[int]):
        rgs = tuple(rgs)
        mx = -1
        for j, a in enumerate(rgs):
            if a < 0 or a > mx + 1:
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
    """All restricted growth strings of length n in lexicographic order."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    # maxp[j] = max(rgs[0..j-1]); position j can be incremented iff rgs[j] <= maxp[j]
    maxp = [0] * n
    while True:
        yield tuple(rgs)
        j = n - 1
        while j > 0 and rgs[j] > maxp[j]:
            j -= 1
        if j == 0:
            return
        rgs[j] += 1
        mx = maxp[j] if maxp[j] > rgs[j] else rgs[j]
        for i in range(j + 1, n):
            rgs[i] = 0
            maxp[i] = mx


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of [n] exactly once, in lexicographic RGS order."""
    trusted = SetPartition._trusted
    for rgs in iter_rgs(n):
        yield trusted(rgs)


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
    no ``|``.
    """
    text = text.strip()
    if text == "":
        return SetPartition(())
    if "|" not in text:
        parts = [p.strip() for p in text.split(",")]
        if parts[0].startswith("0"):  # an RGS starts with 0; no block holds 0
            try:
                return SetPartition(tuple(int(p) for p in parts))
            except PartitionError:
                raise
            except ValueError:
                raise PartitionError("bad RGS text: %r" % text)
    numbers = "," in text or sum(c.isdecimal() for c in text) > 9
    blocks = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        try:
            blocks.append([int(p) for p in (chunk.split(",") if numbers else chunk)])
        except ValueError:
            raise PartitionError("bad block text: %r" % chunk)
    return from_blocks(blocks)
