"""Pattern-defined statistics on set partitions.

A pattern is a template (equivalence on [k], firsts, lasts, arcs,
consecutivity); a simple statistic sums a polynomial weight over all
occurrences of its pattern; a statistic is a rational linear combination
of simple statistics.  Products of statistics are again statistics via
pattern merges, which keeps the whole collection a filtered algebra.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping

from .partitions import SetPartition, enumerate_partitions, iter_rgs


class StatisticError(ValueError):
    """Malformed pattern, weight polynomial, or DSL document."""


# ---------------------------------------------------------------------------
# weight polynomials
# ---------------------------------------------------------------------------

class WeightPolynomial:
    """Polynomial in y_1..y_k and m with rational coefficients.

    Monomials are keyed by (e_1, .., e_k, e_m); the mapping is kept in
    canonical sorted form so equal polynomials hash equal.
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
        out = WeightPolynomial.constant(self.k, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightPolynomial)
            and self.k == other.k
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.k, self.terms))

    def __repr__(self) -> str:
        return "WeightPolynomial(k=%d, %r)" % (self.k, dict(self.terms))


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def _canonical_rgs(labels: Iterable[int]) -> tuple:
    relabel: dict = {}
    out = []
    for v in labels:
        if v not in relabel:
            relabel[v] = len(relabel)
        out.append(relabel[v])
    return tuple(out)


@dataclass(frozen=True)
class Pattern:
    """(equivalence, firsts, lasts, arcs, consecutive) over positions 1..k.

    ``equiv`` is stored as a canonical RGS over positions; the four
    position sets are sorted tuples with 1-indexed entries.  A pattern
    whose constraints are unsatisfiable (e.g. nonconsecutive entries in
    ``consecutive``) is legal and simply has no occurrences.
    """

    k: int
    equiv: tuple
    firsts: tuple = ()
    lasts: tuple = ()
    arcs: tuple = ()
    consecutive: tuple = ()

    @classmethod
    def make(cls, k, equiv, firsts=(), lasts=(), arcs=(), consecutive=()) -> "Pattern":
        equiv = _canonical_rgs(equiv)
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


class _Program:
    """A statistic compiled for evaluation.

    Terms on the same pattern share one search, their weights summed;
    every weight coefficient is an integer over the common denominator
    ``den``.  ``at(n)`` fixes the ground size m = n into the weights.
    """

    __slots__ = ("den", "patterns", "_at")

    def __init__(self, f: "Statistic"):
        by_pattern: dict = {}
        for c, s in f.terms:
            acc = by_pattern.setdefault(s.pattern, {})
            for mono, qc in s.q.terms:
                acc[mono] = acc.get(mono, 0) + c * qc
        self.den = lcm(*(v.denominator for acc in by_pattern.values() for v in acc.values()))
        self.patterns = []
        for p, acc in by_pattern.items():
            steps = _steps(p)
            monos = [
                (int(v * self.den), tuple((i, e) for i, e in enumerate(mono[:-1]) if e), mono[-1])
                for mono, v in acc.items()
                if v
            ]
            if steps is not None and monos:
                self.patterns.append((p.k, steps, monos))
        self._at = (None, None)

    def at(self, n: int) -> list:
        """``[(steps, weight)]`` for partitions of [n], in the form
        ``_search`` takes; patterns longer than n and zero weights drop out."""
        last_n, program = self._at
        if n != last_n:
            program = []
            for k, steps, monos in self.patterns:
                if k > n:
                    continue
                folded: dict = {}
                for c, powers, em in monos:
                    folded[powers] = folded.get(powers, 0) + c * n ** em
                weight = tuple((c, powers) for powers, c in folded.items() if c)
                if not weight:
                    continue
                if len(weight) == 1 and not weight[0][1]:
                    weight = weight[0][0]
                program.append((steps, weight))
            self._at = (n, program)
        return program

    def total(self, rgs: tuple) -> int:
        """The statistic times ``den`` on the partition with this RGS."""
        views = _views(rgs)
        return sum(_occurrence_total(steps, w, views) for steps, w in self.at(len(rgs)))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleStatistic:
    pattern: Pattern
    q: WeightPolynomial

    def __post_init__(self):
        if self.q.k != self.pattern.k:
            raise StatisticError("weight polynomial arity != pattern length")

    def evaluate(self, lam: SetPartition) -> Fraction:
        return Statistic([(1, self)]).evaluate(lam)

    def degree(self) -> int:
        return self.pattern.k + self.q.total_degree()


class Statistic:
    """A finite rational linear combination of simple statistics."""

    __slots__ = ("terms", "_program")

    def __init__(self, terms: Iterable[tuple]):
        acc: dict = {}
        for c, s in terms:
            c = Fraction(c)
            if c:
                acc[s] = acc.get(s, Fraction(0)) + c
        self.terms = tuple((c, s) for s, c in acc.items() if c)
        self._program = None

    @classmethod
    def simple(cls, pattern: Pattern, q: WeightPolynomial) -> "Statistic":
        return cls([(Fraction(1), SimpleStatistic(pattern, q))])

    def _compiled(self) -> _Program:
        if self._program is None:
            self._program = _Program(self)
        return self._program

    def evaluate(self, lam: SetPartition) -> Fraction:
        prog = self._compiled()
        return Fraction(prog.total(lam.rgs), prog.den)

    def degree(self) -> int:
        return max((s.degree() for _, s in self.terms), default=0)

    def __add__(self, other: "Statistic") -> "Statistic":
        return Statistic(list(self.terms) + list(other.terms))

    def __sub__(self, other: "Statistic") -> "Statistic":
        return self + other.scaled(-1)

    def scaled(self, c) -> "Statistic":
        c = Fraction(c)
        return Statistic([(c * c0, s) for c0, s in self.terms])

    def __mul__(self, other: "Statistic") -> "Statistic":
        out = []
        for c1, s1 in self.terms:
            for c2, s2 in other.terms:
                out.extend(merge_product(s1, s2).scaled(c1 * c2).terms)
        return Statistic(out)

    def __repr__(self) -> str:
        return "Statistic(<%d terms, degree %d>)" % (len(self.terms), self.degree())


def aggregate(f: Statistic, n: int) -> Fraction:
    """Exact sum of f over all partitions of [n]."""
    prog = f._compiled()
    return Fraction(sum(prog.total(lam.rgs) for lam in enumerate_partitions(n)), prog.den)


# ---------------------------------------------------------------------------
# merges: pointwise products of simple statistics
# ---------------------------------------------------------------------------

def merge_product(f1: SimpleStatistic, f2: SimpleStatistic) -> Statistic:
    """A statistic equal to the pointwise product f1 * f2 everywhere.

    Enumerates every merge of the two patterns onto a target of length
    max(k1,k2)..k1+k2: a pair of strictly increasing index maps whose
    images cover the target, together with every target equivalence
    whose pullbacks along the maps reproduce the source equivalences.
    Firsts/lasts/arcs/consecutivity of the target are the induced
    unions; weights multiply after variable relabeling.  Contradictory
    targets are kept (they contribute zero occurrences).
    """
    p1, p2 = f1.pattern, f2.pattern
    k1, k2 = p1.k, p2.k
    out = []
    for k3 in range(max(k1, k2), k1 + k2 + 1):
        for m1 in combinations(range(1, k3 + 1), k1):
            for m2 in combinations(range(1, k3 + 1), k2):
                if len(set(m1) | set(m2)) != k3:
                    continue
                for equiv in iter_rgs(k3):
                    if _canonical_rgs(equiv[i - 1] for i in m1) != p1.equiv:
                        continue
                    if _canonical_rgs(equiv[i - 1] for i in m2) != p2.equiv:
                        continue
                    firsts = {m1[i - 1] for i in p1.firsts} | {m2[i - 1] for i in p2.firsts}
                    lasts = {m1[i - 1] for i in p1.lasts} | {m2[i - 1] for i in p2.lasts}
                    arcs = {(m1[a - 1], m1[b - 1]) for a, b in p1.arcs} | {
                        (m2[a - 1], m2[b - 1]) for a, b in p2.arcs
                    }
                    cons = {(m1[a - 1], m1[b - 1]) for a, b in p1.consecutive} | {
                        (m2[a - 1], m2[b - 1]) for a, b in p2.consecutive
                    }
                    try:
                        p3 = Pattern.make(k3, equiv, firsts, lasts, arcs, cons)
                    except StatisticError:
                        # arc joining inequivalent target positions: such a
                        # merge target has no occurrences anywhere, skip
                        continue
                    q3 = f1.q.relabeled(m1, k3) * f2.q.relabeled(m2, k3)
                    out.append((Fraction(1), SimpleStatistic(p3, q3)))
    return Statistic(out)


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
        return Statistic.simple(p, WeightPolynomial.constant(1, 1))
    if name == "blocks_choose":
        k = _nat_param(params, "k", minimum=1)
        p = Pattern.make(k, range(k), firsts=range(1, k + 1))
        return Statistic.simple(p, WeightPolynomial.constant(k, 1))
    if name == "blocks_of_size":
        i = _nat_param(params, "i", minimum=1)
        p = Pattern.make(
            i, [0] * i, firsts=[1], lasts=[i], arcs=[(j, j + 1) for j in range(1, i)]
        )
        return Statistic.simple(p, WeightPolynomial.constant(i, 1))
    if name == "crossings_k":
        k = _nat_param(params, "k", minimum=1)
        equiv = list(range(k)) * 2
        p = Pattern.make(2 * k, equiv, arcs=[(t, k + t) for t in range(1, k + 1)])
        return Statistic.simple(p, WeightPolynomial.constant(2 * k, 1))
    if name == "intertwining":
        return builtin("crossings_k", k=2)
    if name == "nestings":
        p = Pattern.make(4, [0, 1, 1, 0], arcs=[(1, 4), (2, 3)])
        return Statistic.simple(p, WeightPolynomial.constant(4, 1))
    if name == "levels":
        p = Pattern.make(2, [0, 0], arcs=[(1, 2)], consecutive=[(1, 2)])
        return Statistic.simple(p, WeightPolynomial.constant(2, 1))
    if name == "firsts_sum":
        p = Pattern.make(1, [0], firsts=[1])
        return Statistic.simple(p, WeightPolynomial.variable(1, 1))
    if name == "lasts_sum":
        p = Pattern.make(1, [0], lasts=[1])
        return Statistic.simple(p, WeightPolynomial.variable(1, 1))
    if name == "dimension":
        ground = Statistic.simple(
            Pattern.make(0, []), WeightPolynomial.ground_size(0)
        )
        return (
            builtin("lasts_sum") - builtin("firsts_sum") + builtin("blocks") - ground
        )
    raise StatisticError("unknown builtin statistic %r" % name)


def _nat_param(params: dict, key: str, minimum: int = 0) -> int:
    if key not in params:
        raise StatisticError("builtin needs parameter %r" % key)
    v = int(params[key])
    if v < minimum:
        raise StatisticError("parameter %s=%d below minimum %d" % (key, v, minimum))
    return v


# ---------------------------------------------------------------------------
# pattern DSL
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|y\d+|m|\(|\)|\+|\-|\*|\^|/)")

# Largest total degree (in y_1..y_k and m) a DSL weight may reach; checked
# before each product or power, so no expression runs unbounded.
MAX_WEIGHT_DEGREE = 16


def _natural(t: str) -> int:
    try:
        return int(t)
    except ValueError:  # more digits than int() converts
        raise StatisticError("number %.20s... in weight expression is too long" % t)


def _check_degree(d: int) -> None:
    if d > MAX_WEIGHT_DEGREE:
        raise StatisticError(
            "weight degree %d exceeds MAX_WEIGHT_DEGREE = %d" % (d, MAX_WEIGHT_DEGREE)
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
        if peek() == "-":
            take()
            acc = parse_term().scaled(-1)
        else:
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
            acc = acc * f
        return acc

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            t = take()
            if t is None or not t.isdigit():
                raise StatisticError("exponent must be a natural number")
            e = _natural(t)
            # a constant base is capped too: its power grows without bound
            _check_degree(max(e, base.total_degree() * e))
            base = base ** e
        return base

    def parse_atom():
        t = take()
        if t == "(":
            inner = parse_expr()
            if take() != ")":
                raise StatisticError("unbalanced parentheses in weight expression")
            return inner
        if t == "-":
            return parse_factor().scaled(-1)
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


def _positions(doc: dict, key: str) -> list:
    v = doc.get(key, [])
    if not isinstance(v, (list, tuple)) or any(type(i) is not int for i in v):
        raise StatisticError("'%s' must be a list of integer positions" % key)
    return list(v)


def _pairs(doc: dict, key: str) -> list:
    v = doc.get(key, [])
    if not isinstance(v, (list, tuple)) or any(
        not isinstance(pr, (list, tuple)) or len(pr) != 2 or any(type(i) is not int for i in pr)
        for pr in v
    ):
        raise StatisticError("'%s' must be a list of [a, b] pairs of integer positions" % key)
    return [tuple(pr) for pr in v]


def pattern_from_dict(doc: dict) -> Statistic:
    """Build a simple statistic from a DSL document (parsed JSON object)."""
    k = doc.get("length")
    if type(k) is not int or k < 0:
        raise StatisticError("pattern document needs a nonnegative integer 'length'")
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
    p = Pattern.make(
        k,
        [labels[x] for x in range(1, k + 1)],
        firsts=_positions(doc, "firsts"),
        lasts=_positions(doc, "lasts"),
        arcs=_pairs(doc, "arcs"),
        consecutive=_pairs(doc, "consecutive"),
    )
    return Statistic.simple(p, _parse_q(q, k))


def parse_pattern(text: str) -> Statistic:
    """Parse a pattern DSL document from JSON text."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, or too many digits or levels
        raise StatisticError("pattern document is not valid JSON: %s" % e)
    if not isinstance(doc, dict):
        raise StatisticError("pattern document must be a single object")
    return pattern_from_dict(doc)
