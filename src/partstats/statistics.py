"""Pattern-defined statistics on set partitions.

A pattern is a template (equivalence on [k], firsts, lasts, arcs,
consecutivity); a statistic sums, for each of its distinct patterns, one
rational weight polynomial over all occurrences of that pattern.  Products
of statistics are again statistics via pattern merges, which keeps the
whole collection a filtered algebra.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, log10, prod
from typing import Iterable, Mapping

from .partitions import SetPartition, canonical_rgs


class StatisticError(ValueError):
    """Malformed pattern, weight polynomial, or DSL document."""


# ---------------------------------------------------------------------------
# weight polynomials
# ---------------------------------------------------------------------------

class WeightPolynomial:
    """Polynomial in y_1..y_k and m with rational coefficients.

    Monomials are keyed by (e_1, .., e_k, e_m); the mapping is kept in
    canonical sorted form so equal polynomials compare equal.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: Mapping[tuple, Fraction]):
        self.k = k
        clean = {}
        for mono, c in terms.items():
            if len(mono) != k + 1 or any(e < 0 for e in mono):
                raise StatisticError("bad monomial %r for k=%d" % (mono, k))
            c = Fraction(c)
            if c:
                clean[tuple(mono)] = c
        self.terms = tuple(sorted(clean.items()))

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, k: int, c) -> "WeightPolynomial":
        return cls(k, {(0,) * (k + 1): Fraction(c)})

    @classmethod
    def variable(cls, k: int, i: int) -> "WeightPolynomial":
        """y_i (1-indexed)."""
        if not 1 <= i <= k:
            raise StatisticError("variable y%d out of range for k=%d" % (i, k))
        mono = [0] * (k + 1)
        mono[i - 1] = 1
        return cls(k, {tuple(mono): Fraction(1)})

    @classmethod
    def ground_size(cls, k: int) -> "WeightPolynomial":
        """The variable m (evaluates to n)."""
        mono = [0] * k + [1]
        return cls(k, {tuple(mono): Fraction(1)})

    # -- algebra ------------------------------------------------------------
    def __add__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        acc = dict(self.terms)
        for mono, c in other.terms:
            acc[mono] = acc.get(mono, Fraction(0)) + c
        return WeightPolynomial(self.k, acc)

    def __neg__(self) -> "WeightPolynomial":
        return WeightPolynomial(self.k, {m: -c for m, c in self.terms})

    def __sub__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        return self + (-other)

    def __mul__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
        return WeightPolynomial(self.k, acc)

    def scaled(self, c) -> "WeightPolynomial":
        c = Fraction(c)
        return WeightPolynomial(self.k, {m: c * v for m, v in self.terms})

    def __pow__(self, e: int) -> "WeightPolynomial":
        if e < 0:
            raise StatisticError("negative exponent")
        if e < 2:  # the polynomial is never mutated, so y^1 may be y itself
            return self if e else WeightPolynomial.constant(self.k, 1)
        square = (self ** (e >> 1))._square()  # square and multiply
        return square * self if e & 1 else square

    def _square(self) -> "WeightPolynomial":
        """``self * self``, multiplying each unordered pair of terms once."""
        acc: dict = {}
        terms = self.terms
        for i, (m1, c1) in enumerate(terms):
            mono = tuple(2 * a for a in m1)
            acc[mono] = acc.get(mono, Fraction(0)) + c1 * c1
            c1 *= 2
            for m2, c2 in terms[i + 1:]:
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
        return WeightPolynomial(self.k, acc)

    def relabeled(self, positions: tuple, k_new: int) -> "WeightPolynomial":
        """Send y_i to y_{positions[i-1]} (positions 1-indexed into [k_new])."""
        acc: dict = {}
        for mono, c in self.terms:
            out = [0] * (k_new + 1)
            for i, e in enumerate(mono[: self.k]):
                out[positions[i] - 1] += e
            out[k_new] = mono[self.k]
            key = tuple(out)
            acc[key] = acc.get(key, Fraction(0)) + c
        return WeightPolynomial(k_new, acc)

    def evaluate(self, xs: tuple, n: int) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms:
            v = c
            for x, e in zip(xs, mono):
                if e:
                    v *= Fraction(x) ** e
            if mono[self.k]:
                v *= Fraction(n) ** mono[self.k]
            total += v
        return total

    def total_degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightPolynomial)
            and self.k == other.k
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return "WeightPolynomial(k=%d, %r)" % (self.k, dict(self.terms))


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def _is_positions(v) -> bool:
    return isinstance(v, (list, tuple, set, range)) and all(type(i) is int for i in v)


@dataclass(frozen=True)
class Pattern:
    """(equivalence, firsts, lasts, arcs, consecutive) over positions 1..k.

    ``equiv`` is stored as a canonical RGS over positions; the four
    position sets are sorted tuples with 1-indexed entries.  A pattern
    whose constraints are unsatisfiable (e.g. nonconsecutive entries in
    ``consecutive``) is legal; it has no occurrences, and no ``Statistic``
    keeps it.  ``make`` checks its input; the constructor checks only the
    length cap, so it takes fields already in this form.
    """

    k: int
    equiv: tuple
    firsts: tuple = ()
    lasts: tuple = ()
    arcs: tuple = ()
    consecutive: tuple = ()

    def __post_init__(self):
        if self.k > MAX_MERGED_LENGTH:
            raise StatisticError(
                "pattern length %d exceeds MAX_MERGED_LENGTH = %d" % (self.k, MAX_MERGED_LENGTH)
            )

    @classmethod
    def make(cls, k, equiv, firsts=(), lasts=(), arcs=(), consecutive=()) -> "Pattern":
        """The one checked door for pattern input, from the DSL or a library call."""
        for key, v in (("firsts", firsts), ("lasts", lasts)):
            if not _is_positions(v):
                raise StatisticError("'%s' must be a list of integer positions" % key)
        for key, v in (("arcs", arcs), ("consecutive", consecutive)):
            if not isinstance(v, (list, tuple, set, range)) or not all(
                isinstance(pr, (list, tuple)) and len(pr) == 2 and _is_positions(pr) for pr in v
            ):
                raise StatisticError(
                    "'%s' must be a list of [a, b] pairs of integer positions" % key
                )
        equiv = canonical_rgs(equiv)
        if len(equiv) != k:
            raise StatisticError("equivalence must cover all %d positions" % k)

        def check_pos(i):
            if not 1 <= i <= k:
                raise StatisticError("position %r out of range 1..%d" % (i, k))
            return i

        firsts = tuple(sorted(check_pos(i) for i in set(firsts)))
        lasts = tuple(sorted(check_pos(i) for i in set(lasts)))
        arcs = tuple(sorted((check_pos(a), check_pos(b)) for a, b in set(map(tuple, arcs))))
        consecutive = tuple(
            sorted((check_pos(a), check_pos(b)) for a, b in set(map(tuple, consecutive)))
        )
        for a, b in arcs + consecutive:
            if a >= b:
                raise StatisticError("pair (%d,%d) must be strictly increasing" % (a, b))
        for a, b in arcs:
            if equiv[a - 1] != equiv[b - 1]:
                raise StatisticError("arc (%d,%d) joins inequivalent positions" % (a, b))
        return cls(k, equiv, firsts, lasts, arcs, consecutive)


# ---------------------------------------------------------------------------
# compiled occurrence search
# ---------------------------------------------------------------------------
#
# A pattern compiles once into one step per position, saying where that
# position's candidates come from.  A partition is read through its views,
# built once and shared by every pattern evaluated on it:
#   cls[v]   block of element v (v = 1..n; cls[0] is a sentinel)
#   nxt[v]   next element of v's block, 0 if v is its block's maximum
#   first[v] whether v is its block's minimum
# The search places positions left to right.  A position whose class was
# used before walks that block from its previous element (an arc takes only
# the next one); a consecutive position has the single candidate x_{i-1}+1;
# a fresh class scans elements of blocks no earlier class holds.  Candidates
# come in increasing order, so occurrences come out in lexicographic order.

def _views(rgs: tuple) -> tuple:
    n = len(rgs)
    cls = (-1,) + rgs
    nxt = [0] * (n + 1)
    first = [False] * (n + 1)
    tail = [0] * (n + 1)  # largest element seen so far, per block
    for v in range(1, n + 1):
        b = cls[v]
        p = tail[b]
        if p:
            nxt[p] = v
        else:
            first[v] = True
        tail[b] = v
    return n, cls, nxt, first


def _steps(p: Pattern):
    """Per-position steps ``(prev, arc, adj, first, last, more)``, or None
    when the constraints cannot hold together in any partition.

    ``prev`` is the latest earlier position of the same class (-1 for a
    fresh class); ``arc`` says the position is ``nxt`` of ``prev``; ``adj``
    that it is one above the position before it; ``first``/``last`` that it
    is its block's minimum/maximum; ``more`` that a later position shares
    its class, so it is not its block's maximum.
    """
    k, equiv = p.k, p.equiv
    prev, seen = [], {}
    for i, c in enumerate(equiv):
        prev.append(seen.get(c, -1))
        seen[c] = i
    arc, adj = [False] * k, [False] * k
    for a, b in p.arcs:
        # an arc joins a position to the next element of its block, so the
        # source must be the latest earlier position of the target's class
        if not 1 <= a < b <= k or prev[b - 1] != a - 1:
            return None
        arc[b - 1] = True
    for a, b in p.consecutive:
        if b != a + 1 or not 1 <= a < b <= k:  # a position between leaves no room
            return None
        adj[b - 1] = True
    first = [False] * k
    for i in p.firsts:
        if prev[i - 1] >= 0:  # an earlier element of the block is smaller
            return None
        first[i - 1] = True
    last = [False] * k
    for i in p.lasts:
        if seen[equiv[i - 1]] != i - 1:  # a later element of the block is larger
            return None
        last[i - 1] = True
    more = [seen[c] != i for i, c in enumerate(equiv)]
    return tuple(zip(prev, arc, adj, first, last, more))


def _search(steps: tuple, weight, views: tuple, out, x: list, used: list, i: int, lo: int) -> int:
    """Weighted count of the occurrences extending ``x[:i]``; position i
    takes values from ``lo`` on.

    ``weight`` is an int (a constant weight) or a tuple of ``(coefficient,
    ((position, exponent), ...))`` integer monomials.  ``used`` holds the
    block of each class placed so far.  When ``out`` is a list, every
    occurrence is appended to it as a 1-indexed tuple.
    """
    n, cls, nxt, first = views
    k = len(steps)
    prev, arc, adj, want_first, want_last, more = steps[i]
    hi = n - k + 1 + i
    if prev >= 0:
        v = nxt[x[prev]]
        if arc:
            cands = (v,) if lo <= v <= hi and (v == lo or not adj) else ()
        elif adj:
            cands = (lo,) if lo <= hi and cls[lo] == cls[x[prev]] else ()
        else:
            cands = []
            while v and v <= hi:
                if v >= lo:
                    cands.append(v)
                v = nxt[v]
    elif want_first:  # a block minimum's block holds no earlier element
        if adj:
            cands = (lo,) if lo <= hi and first[lo] else ()
        else:
            cands = [v for v in range(lo, hi + 1) if first[v]]
    elif adj:
        cands = (lo,) if lo <= hi and cls[lo] not in used else ()
    else:
        cands = [v for v in range(lo, hi + 1) if cls[v] not in used]
    if want_last:
        cands = [v for v in cands if not nxt[v]]
    elif more:
        cands = [v for v in cands if nxt[v]]
    if i + 1 == k:
        if out is None and type(weight) is int:
            return weight * len(cands)
        total = 0
        for v in cands:
            x[i] = v
            if out is not None:
                out.append(tuple(x))
            total += weight if type(weight) is int else _weigh(weight, x)
        return total
    total = 0
    for v in cands:
        x[i] = v
        if prev < 0:
            used.append(cls[v])
            total += _search(steps, weight, views, out, x, used, i + 1, v + 1)
            used.pop()
        else:
            total += _search(steps, weight, views, out, x, used, i + 1, v + 1)
    return total


def _weigh(weight: tuple, x: list) -> int:
    total = 0
    for c, powers in weight:
        for i, e in powers:
            c *= x[i] ** e
        total += c
    return total


def _occurrence_total(steps: tuple, weight, views: tuple, out=None) -> int:
    """Sum of ``weight`` over the occurrences of ``steps`` (k <= n)."""
    if not steps:  # the empty tuple; a weight with no positions is an int
        if out is not None:
            out.append(())
        return weight
    return _search(steps, weight, views, out, [0] * len(steps), [], 0, 1)


def occurrences(p: Pattern, lam: SetPartition) -> list:
    """All increasing tuples of [n] positions realizing the pattern."""
    steps = _steps(p)
    if steps is None or p.k > lam.n:
        return []
    out: list = []
    _occurrence_total(steps, 1, _views(lam.rgs), out)
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class Statistic:
    """For each pattern, its weight polynomial summed over its occurrences;
    the statistic is the sum over its patterns.

    ``terms`` holds one ``(Pattern, WeightPolynomial)`` pair per distinct
    pattern that can occur: weights given on an equal pattern add, and zero
    weights and patterns whose constraints cannot hold together drop.  The
    statistic is compiled as it is built: each term keeps its step table and
    its weight in y-power groups over the common denominator ``_den``.
    """

    __slots__ = ("terms", "_den", "_tables", "_folded")

    def __init__(self, terms: Iterable[tuple]):
        acc: dict = {}
        for p, q in terms:
            if q.k != p.k:
                raise StatisticError("weight polynomial arity != pattern length")
            acc[p] = acc[p] + q if p in acc else q
        steps = {p: _steps(p) for p, q in acc.items() if q.terms}
        self.terms = tuple((p, acc[p]) for p, s in steps.items() if s is not None)
        self._den = den = lcm(*(c.denominator for _, q in self.terms for _, c in q.terms))
        self._tables = []
        for p, q in self.terms:
            groups: dict = {}
            for mono, c in q.terms:
                powers = tuple((i, e) for i, e in enumerate(mono[:-1]) if e)
                groups.setdefault(powers, []).append((int(c * den), mono[-1]))
            self._tables.append((p.k, steps[p], groups))
        self._folded = (None, None)

    def _weights_at(self, n: int) -> list:
        """``[(steps, weight)]`` for partitions of [n], in the form
        ``_search`` takes: each y-power group's coefficients with m = n
        folded in.  Patterns longer than n and zero weights drop out."""
        last_n, folded_terms = self._folded
        if n != last_n:
            folded_terms = []
            for k, steps, groups in self._tables:
                if k > n:
                    continue
                folded = ((sum(c * n ** e for c, e in ms), powers) for powers, ms in groups.items())
                weight = tuple((c, powers) for c, powers in folded if c)
                if not weight:
                    continue
                if len(weight) == 1 and not weight[0][1]:
                    weight = weight[0][0]
                folded_terms.append((steps, weight))
            self._folded = (n, folded_terms)
        return folded_terms

    def _total(self, rgs: tuple) -> int:
        """The statistic times ``_den`` on the partition with this RGS."""
        views = _views(rgs)
        return sum(_occurrence_total(steps, w, views) for steps, w in self._weights_at(len(rgs)))

    def evaluate(self, lam: SetPartition) -> Fraction:
        return Fraction(self._total(lam.rgs), self._den)

    def degree(self) -> int:
        return max((p.k + q.total_degree() for p, q in self.terms), default=0)

    def __add__(self, other: "Statistic") -> "Statistic":
        return Statistic(self.terms + other.terms)

    def __sub__(self, other: "Statistic") -> "Statistic":
        return self + other.scaled(-1)

    def scaled(self, c) -> "Statistic":
        return Statistic([(p, q.scaled(c)) for p, q in self.terms])

    def __mul__(self, other: "Statistic") -> "Statistic":
        return merge_product(self, other)

    def __repr__(self) -> str:
        return "Statistic(<%d terms, degree %d>)" % (len(self.terms), self.degree())


# ---------------------------------------------------------------------------
# aggregates: a transfer DP over the elements
# ---------------------------------------------------------------------------
#
# For one pattern and one monomial prod y_i^e_i, ``_transfer_dp`` adds up
# prod x_i^e_i over every pair (partition of [n], occurrence x), building
# the partition element by element.  After element v the state is (i, b):
# positions 0..i-1 of the occurrence are placed, and b blocks hold no
# position (free blocks).  Element v+1 then
#   - opens a free block (b -> b+1);
#   - joins one of the b free blocks, or one of the joins[i] placed classes
#     whose block may take it: the class's latest position is not ``last``
#     and its next position is not an ``arc``;
#   - or becomes position i, times (v+1)^e_i.  A repeated class joins its
#     block; a fresh class opens a block or, unless ``first``, adopts one
#     of the b free blocks (b ways, b -> b-1).
# When position i is ``adj`` the state is locked: position i-1 was the
# element just placed, so the next element must be position i.  A pair
# gives exactly one path: each element's move is read off from whether it
# is a position, whether its block is new, and which block it joins, and
# the moves allowed are exactly those the constraints allow.  The answer at
# n is the weight on the states with i = k after element n.  No constraint
# needs a later element, so one run up to nmax answers every n <= nmax.

def aggregate_range(f: Statistic, nmax: int) -> list:
    """Exact sums of f over all partitions of [n] for n = 0..nmax, by one
    transfer DP per pattern and y-monomial; no partition is listed."""
    if nmax < 0:
        raise StatisticError("aggregate needs n >= 0, not %d" % nmax)
    totals = [0] * (nmax + 1)
    for k, steps, groups in f._tables:
        if k > nmax:
            continue
        for powers, ms in groups.items():
            for n, s in enumerate(_transfer_dp(steps, powers, nmax)):
                totals[n] += s * sum(c * n ** e for c, e in ms)
    return [Fraction(t, f._den) for t in totals]


def aggregate(f: Statistic, n: int) -> Fraction:
    """Exact sum of f over all partitions of [n]."""
    return aggregate_range(f, n)[n]


def aggregate_cost(f: Statistic, n: int) -> int:
    """An estimate of the work of ``aggregate_range(f, n)``: n^2 (k + 1) per y-monomial
    group of each term that fits in [n]; one DP updates about (k + 1) n^2 / 2 cells."""
    return n * n * sum((k + 1) * len(groups) for k, _, groups in f._tables if k <= n)


def evaluate_cost(f: Statistic, lam: SetPartition) -> int:
    """A bound on the work of ``f.evaluate(lam)``: the candidates the occurrence
    search examines at every node (prefix) of its tree, times the weight's
    y-monomial groups.  A free position (not pinned by an arc or a consecutive
    pair) draws from the block minima if ``first``, the maxima if ``last``, the
    singleton blocks if both, else [n]; see the README's guard section."""
    n, sizes = lam.n, Counter(lam.rgs)
    pools = {(False, False): n, (True, False): len(sizes), (False, True): len(sizes),
             (True, True): sum(size == 1 for size in sizes.values())}
    total = 0
    for k, steps, groups in (t for t in f._tables if t[0] <= n):
        counts, work = Counter(), 1  # the root
        for i, (prev, arc, adj, first, last, _) in enumerate(steps):
            fresh = prev < 0 and not (arc or adj)  # scans every value: one more from [n]
            drawn = counts + Counter({(False, False): 1}) if fresh else counts
            prefixes = min(prod(comb(pools[p], c) for p, c in drawn.items()),
                           comb(n - k + i + fresh, sum(drawn.values())))
            walks = prev >= 0 and not (arc or adj)  # at most the largest block
            work += prefixes * (max(sizes.values()) if walks else 1)
            counts[first, last] += not (arc or adj)
        total += work * len(groups)
    return total


def _transfer_dp(steps: tuple, powers: tuple, nmax: int) -> list:
    """For n = 0..nmax, the sum over the partitions of [n] and their occurrences
    x of ``steps`` of prod x[i]^e over ``powers``, (position, exponent) pairs."""
    k = len(steps)
    exps = [0] * k
    for i, e in powers:
        exps[i] = e
    later = {s[0]: j for j, s in enumerate(steps) if s[0] >= 0}  # next position of a class
    joins = [
        sum(
            1 for j in range(i)
            if not steps[j][4] and (j not in later or later[j] >= i and not steps[later[j]][1])
        )
        for i in range(k + 1)
    ]
    rows = [[1]] + [[0]] * k  # rows[i][b] after element 0
    sums = [sum(rows[k])]
    for v in range(1, nmax + 1):
        new = []
        for i in range(k + 1):
            old = rows[i]
            if i < k and steps[i][2]:
                row = [0] * (v + 1)
            else:
                j = joins[i]
                row = [a + w * (b + j) for b, (a, w) in enumerate(zip([0] + old, old + [0]))]
            if i:
                p = placed = rows[i - 1]
                prev, _, _, first = steps[i - 1][:4]
                if prev < 0 and not first:  # open a block, or adopt one of b + 1 free ones
                    placed = [w + b * u for b, (w, u) in enumerate(zip(p, p[1:] + [0]), 1)]
                f = v ** exps[i - 1]
                row = [r + f * w for r, w in zip(row, placed)] + row[v:]
            new.append(row)
        rows = new
        sums.append(sum(rows[k]))
    return sums


# ---------------------------------------------------------------------------
# merges: pointwise products of statistics
# ---------------------------------------------------------------------------

def merge_product(f: Statistic, g: Statistic) -> Statistic:
    """A statistic equal to the pointwise product f * g everywhere.

    Each pair of patterns merges onto its targets (see ``_merges``); a
    target's weight is the product of the two weights after variable
    relabeling.  A target whose constraints cannot hold together has no
    occurrences, so its weight is never built.
    """
    out = []
    for p1, q1 in f.terms:
        for p2, q2 in g.terms:
            for p3, m1, m2 in _merges(p1, p2):
                if _steps(p3) is not None:
                    out.append((p3, q1.relabeled(m1, p3.k) * q2.relabeled(m2, p3.k)))
    return Statistic(out)


def _merges(p1: Pattern, p2: Pattern):
    """Yield every merge ``(target, m1, m2)`` of two patterns.

    ``m1`` and ``m2`` are strictly increasing index maps into [k3] whose
    images cover it, k3 = max(k1,k2)..k1+k2.  Each class of ``p2`` joins a
    distinct class of ``p1`` (the one on every position they share) or stays
    its own; firsts/lasts/arcs/consecutivity are the induced unions.  Map
    pairs come in lexicographic order, each pair's targets in RGS order.
    """
    k1, k2 = p1.k, p2.k
    r1, r2 = len(set(p1.equiv)), len(set(p2.equiv))
    # a join is injective iff no two p2 classes take the same p1 class
    joins = [j for j in product(*([*range(r1), r1 + c] for c in range(r2))) if len(set(j)) == r2]
    for k3 in range(max(k1, k2), k1 + k2 + 1):
        for m1 in combinations(range(1, k3 + 1), k1):
            at1 = dict(zip(m1, p1.equiv))
            rest = tuple(t for t in range(1, k3 + 1) if t not in at1)
            for shared in combinations(m1, k1 + k2 - k3):
                m2 = tuple(sorted(shared + rest))
                at2 = dict(zip(m2, p2.equiv))
                equivs = [
                    canonical_rgs(at1[t] if t in at1 else join[at2[t]] for t in range(1, k3 + 1))
                    for join in joins
                    if all(join[at2[t]] == at1[t] for t in shared)
                ]
                sides = ((p1, m1), (p2, m2))
                firsts = {m[i - 1] for p, m in sides for i in p.firsts}
                lasts = {m[i - 1] for p, m in sides for i in p.lasts}
                arcs = {(m[a - 1], m[b - 1]) for p, m in sides for a, b in p.arcs}
                cons = {(m[a - 1], m[b - 1]) for p, m in sides for a, b in p.consecutive}
                # no make() checks: the maps increase into 1..k3 and each join agrees
                # with p1 where they share, so every target is valid by construction
                fields = [tuple(sorted(s)) for s in (firsts, lasts, arcs, cons)]
                for equiv in sorted(equivs):
                    yield Pattern(k3, equiv, *fields), m1, m2


# ---------------------------------------------------------------------------
# builtin statistics
# ---------------------------------------------------------------------------

def builtin(name: str, **params) -> Statistic:
    """Named statistics from the standard catalogue.

    blocks, blocks_choose(k), blocks_of_size(i), crossings_k(k),
    nestings, dimension, intertwining, levels, firsts_sum, lasts_sum.
    """
    if name == "blocks":
        p = Pattern.make(1, [0], firsts=[1])
        return Statistic([(p, WeightPolynomial.constant(1, 1))])
    if name == "blocks_choose":
        k = _nat_param(params, "k", minimum=1)
        p = Pattern.make(k, range(k), firsts=range(1, k + 1))
        return Statistic([(p, WeightPolynomial.constant(k, 1))])
    if name == "blocks_of_size":
        i = _nat_param(params, "i", minimum=1)
        p = Pattern.make(
            i, [0] * i, firsts=[1], lasts=[i], arcs=[(j, j + 1) for j in range(1, i)]
        )
        return Statistic([(p, WeightPolynomial.constant(i, 1))])
    if name == "crossings_k":
        k = _nat_param(params, "k", minimum=1)
        equiv = list(range(k)) * 2
        p = Pattern.make(2 * k, equiv, arcs=[(t, k + t) for t in range(1, k + 1)])
        return Statistic([(p, WeightPolynomial.constant(2 * k, 1))])
    if name == "intertwining":
        return builtin("crossings_k", k=2)
    if name == "nestings":
        p = Pattern.make(4, [0, 1, 1, 0], arcs=[(1, 4), (2, 3)])
        return Statistic([(p, WeightPolynomial.constant(4, 1))])
    if name == "levels":
        p = Pattern.make(2, [0, 0], arcs=[(1, 2)], consecutive=[(1, 2)])
        return Statistic([(p, WeightPolynomial.constant(2, 1))])
    if name == "firsts_sum":
        p = Pattern.make(1, [0], firsts=[1])
        return Statistic([(p, WeightPolynomial.variable(1, 1))])
    if name == "lasts_sum":
        p = Pattern.make(1, [0], lasts=[1])
        return Statistic([(p, WeightPolynomial.variable(1, 1))])
    if name == "dimension":
        ground = Statistic([(Pattern.make(0, []), WeightPolynomial.ground_size(0))])
        return (
            builtin("lasts_sum") - builtin("firsts_sum") + builtin("blocks") - ground
        )
    raise StatisticError("unknown builtin statistic %r" % name)


def _nat_param(params: dict, key: str, minimum: int = 0) -> int:
    if key not in params:
        raise StatisticError("builtin needs parameter %r" % key)
    v = params[key]
    if type(v) is not int:
        raise StatisticError("parameter %s must be an integer, not %r" % (key, v))
    if v < minimum:
        raise StatisticError("parameter %s=%d below minimum %d" % (key, v, minimum))
    return v


# ---------------------------------------------------------------------------
# pattern DSL
# ---------------------------------------------------------------------------

# [0-9]: numbers are ASCII digits (\d takes any Unicode digit; re.ASCII would narrow \s too)
_TOKEN = re.compile(r"\s*([0-9]+|y[0-9]+|m|\(|\)|\+|\-|\*|\^|/)")

# Largest total degree (in y_1..y_k and m) a DSL weight may reach; checked
# before each product or power, so no expression runs unbounded.
MAX_WEIGHT_DEGREE = 16
# Largest number of monomials a product or power in a DSL weight may have,
# by an upper bound checked before it is built.  The degree cap alone lets
# (y1+...+y8+m)^16 build 735,471 monomials; at this cap the slowest power,
# (y1+...+y4+m)^12, builds 1,820 in 0.11-0.12 s (CPython 3.11, 2-vCPU x86-64).
MAX_WEIGHT_MONOMIALS = 2048
# Largest pattern length a DSL document may have.  The occurrence search
# recurses once per position, and a pattern longer than n has no occurrences.
MAX_PATTERN_LENGTH = 64
# Largest length any pattern may have, checked as each ``Pattern`` is built: the
# occurrence search recurses once per position, so this keeps it far below
# the interpreter's recursion limit.  Twice the DSL cap, so the product of
# two DSL patterns still builds.
MAX_MERGED_LENGTH = 2 * MAX_PATTERN_LENGTH


def _natural(t: str) -> int:
    try:
        return int(t)
    except ValueError:  # more digits than int() converts
        raise StatisticError("number %.20s... in weight expression is too long" % t)


def _check_degree(d: int) -> None:
    if d > MAX_WEIGHT_DEGREE:  # a degree of over 20 digits is shown by its size
        shown = "%d" % d if d < 10**20 else "about 10^%.1f" % log10(d)
        raise StatisticError("weight degree %s exceeds MAX_WEIGHT_DEGREE = %d"
                             % (shown, MAX_WEIGHT_DEGREE))


def _check_monomials(bound: int) -> None:
    if bound > MAX_WEIGHT_MONOMIALS:
        raise StatisticError(
            "weight may have %d monomials, more than MAX_WEIGHT_MONOMIALS = %d"
            % (bound, MAX_WEIGHT_MONOMIALS)
        )


def _parse_q(text: str, k: int) -> WeightPolynomial:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise StatisticError("bad character in weight expression: %r" % text[pos:])
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel
    idx = [0]

    def peek():
        return tokens[idx[0]]

    def take():
        t = tokens[idx[0]]
        idx[0] += 1
        return t

    def parse_expr():
        acc = parse_term()
        while peek() in ("+", "-"):
            op = take()
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term():
        acc = parse_factor()
        while peek() == "*":
            take()
            f = parse_factor()
            _check_degree(acc.total_degree() + f.total_degree())
            _check_monomials(len(acc.terms) * len(f.terms))
            acc = acc * f
        return acc

    def parse_factor():
        if peek() == "-":  # the one unary minus: -y1^2 is -(y1^2); ^ never chains
            take()
            return parse_factor().scaled(-1)
        base = parse_atom()
        if peek() == "^":
            take()
            t = take()
            if t is None or not t.isdigit():
                raise StatisticError("exponent must be a natural number")
            e = _natural(t)
            # a constant base is capped too: its power grows without bound
            _check_degree(max(e, base.total_degree() * e))
            # at most one monomial per multiset of e of the base's terms
            _check_monomials(comb(max(len(base.terms), 1) + e - 1, e))
            base = base ** e
        return base

    def parse_atom():
        t = take()
        if t == "(":
            inner = parse_expr()
            if take() != ")":
                raise StatisticError("unbalanced parentheses in weight expression")
            return inner
        if t is None:
            raise StatisticError("unexpected end of weight expression")
        if t.isdigit():
            num = _natural(t)
            if peek() == "/":
                take()
                den = take()
                if den is None or not den.isdigit() or _natural(den) == 0:
                    raise StatisticError("bad rational literal")
                return WeightPolynomial.constant(k, Fraction(num, _natural(den)))
            return WeightPolynomial.constant(k, num)
        if t == "m":
            return WeightPolynomial.ground_size(k)
        if t.startswith("y"):
            return WeightPolynomial.variable(k, _natural(t[1:]))
        raise StatisticError("unexpected token %r" % t)

    try:
        result = parse_expr()
    except RecursionError:
        raise StatisticError("weight expression is nested too deeply")
    if peek() is not None:
        raise StatisticError("trailing tokens in weight expression")
    return result


def pattern_from_dict(doc: dict) -> Statistic:
    """Build a one-pattern statistic from a DSL document (parsed JSON object)."""
    k = doc.get("length")
    if type(k) is not int or k < 0:
        raise StatisticError("pattern document needs a nonnegative integer 'length'")
    if k > MAX_PATTERN_LENGTH:
        raise StatisticError(
            "pattern length %d exceeds MAX_PATTERN_LENGTH = %d" % (k, MAX_PATTERN_LENGTH)
        )
    blocks = doc.get("blocks")
    if blocks is None:
        raise StatisticError("pattern document needs 'blocks'")
    if not isinstance(blocks, (list, tuple)) or any(
        not isinstance(b, (list, tuple)) or any(type(x) is not int for x in b) for b in blocks
    ):
        raise StatisticError("'blocks' must be a list of lists of integer positions")
    labels: dict = {}
    for bi, b in enumerate(blocks):
        for x in b:
            if not 1 <= x <= k or x in labels:
                raise StatisticError("'blocks' must partition 1..%d" % k)
            labels[x] = bi
    if len(labels) != k:
        raise StatisticError("'blocks' must partition 1..%d" % k)
    q = doc.get("q", "1")
    if not isinstance(q, str):
        raise StatisticError("'q' must be a string, such as \"y1 + 1/2*m\"")
    fields = (doc.get(key, []) for key in ("firsts", "lasts", "arcs", "consecutive"))
    p = Pattern.make(k, [labels[x] for x in range(1, k + 1)], *fields)
    return Statistic([(p, _parse_q(q, k))])


def parse_pattern(text: str) -> Statistic:
    """Parse a pattern DSL document from JSON text."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, or too many digits or levels
        raise StatisticError("pattern document is not valid JSON: %s" % e)
    if not isinstance(doc, dict):
        raise StatisticError("pattern document must be a single object")
    return pattern_from_dict(doc)
