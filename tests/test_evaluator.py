"""Differential tests of the compiled evaluator and the aggregate DP.

The evaluator's reference tries every k-subset of [n] with
``itertools.combinations``, checks each pattern constraint directly on the
partition's blocks, and evaluates the weight in exact Fractions.  The
aggregate DP's reference sums the compiled evaluator over every partition
of [n]; closed forms check the DP at sizes no enumeration reaches.
"""

from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from partstats.exactnum import bell
from partstats.partitions import SetPartition, canonical_rgs, enumerate_partitions, iter_rgs
from partstats.recursions import dim_moments_range, int_moments_range
from partstats.statistics import (
    MAX_MERGED_LENGTH,
    Pattern,
    Statistic,
    StatisticError,
    WeightPolynomial,
    _merges,
    _search,
    aggregate,
    aggregate_cost,
    aggregate_range,
    builtin,
    evaluate_cost,
    merge_product,
    occurrences,
    pattern_from_dict,
)
from test_acceptance import MERGE_PAIRS, _make

PARTITIONS = {n: list(enumerate_partitions(n)) for n in range(7)}


def ref_occurrences(p: Pattern, lam) -> list:
    blocks = lam.blocks()
    firsts = {b[0] for b in blocks}
    lasts = {b[-1] for b in blocks}
    nxt = {e: f for b in blocks for e, f in zip(b, b[1:])}
    out = []
    for xs in combinations(range(1, lam.n + 1), p.k):
        cl = [lam.rgs[x - 1] for x in xs]
        if any(
            (cl[i] == cl[j]) != (p.equiv[i] == p.equiv[j])
            for i in range(p.k)
            for j in range(p.k)
        ):
            continue
        if any(xs[i - 1] not in firsts for i in p.firsts):
            continue
        if any(xs[i - 1] not in lasts for i in p.lasts):
            continue
        if any(nxt.get(xs[a - 1]) != xs[b - 1] for a, b in p.arcs):
            continue
        if any(xs[b - 1] - xs[a - 1] != 1 for a, b in p.consecutive):
            continue
        out.append(xs)
    return out


def ref_weight(q: WeightPolynomial, xs: tuple, n: int) -> Fraction:
    total = Fraction(0)
    for mono, c in q.terms:
        v = Fraction(c)
        for x, e in zip(xs + (n,), mono):
            v *= Fraction(x) ** e
        total += v
    return total


def ref_evaluate(f: Statistic, lam) -> Fraction:
    return sum(
        (ref_weight(q, xs, lam.n) for p, q in f.terms for xs in ref_occurrences(p, lam)),
        Fraction(0),
    )


def check_statistic(f: Statistic, nmax: int = 6) -> None:
    for n in range(nmax + 1):
        total = Fraction(0)
        for lam in PARTITIONS[n]:
            for p, _ in f.terms:
                assert occurrences(p, lam) == ref_occurrences(p, lam)
            value = ref_evaluate(f, lam)
            assert f.evaluate(lam) == value
            assert sum(Statistic([(p, q)]).evaluate(lam) for p, q in f.terms) == value
            total += value
        assert aggregate(f, n) == total


# --- random patterns -----------------------------------------------------------

@st.composite
def patterns(draw, max_k=4):
    k = draw(st.integers(min_value=0, max_value=max_k))
    equiv = []
    for _ in range(k):
        equiv.append(draw(st.integers(min_value=0, max_value=max(equiv, default=-1) + 1)))
    positions = list(range(1, k + 1))
    pairs = list(combinations(positions, 2))
    same = [(a, b) for a, b in pairs if equiv[a - 1] == equiv[b - 1]]
    subset = lambda xs: draw(st.lists(st.sampled_from(xs), max_size=3)) if xs else []  # noqa: E731
    return Pattern.make(
        k,
        equiv,
        firsts=subset(positions),
        lasts=subset(positions),
        arcs=subset(same),
        consecutive=subset(pairs),
    )


@st.composite
def weights(draw, k):
    """A rational polynomial of degree <= 2 in y1..yk and m."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mono = [0] * (k + 1)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mono[draw(st.integers(min_value=0, max_value=k))] += 1
        terms[tuple(mono)] = Fraction(
            draw(st.integers(min_value=-5, max_value=5)), draw(st.integers(min_value=1, max_value=4))
        )
    return WeightPolynomial(k, terms)


@st.composite
def statistics(draw, max_terms=2, max_k=4):
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        p = draw(patterns(max_k))
        c = Fraction(draw(st.integers(min_value=-3, max_value=3)), draw(st.integers(1, 3)))
        terms.append((p, draw(weights(p.k)).scaled(c)))
    return Statistic(terms)


@settings(max_examples=60, deadline=None)
@given(statistics())
def test_random_statistics_match_reference(f):
    check_statistic(f)


@settings(max_examples=15, deadline=None)
@given(statistics(max_terms=2, max_k=3), statistics(max_terms=2, max_k=3))
def test_random_merge_products_match_reference(f1, f2):
    f3 = f1 * f2
    check_statistic(f3, nmax=5)
    for n in range(6):
        for lam in PARTITIONS[n]:
            assert f3.evaluate(lam) == f1.evaluate(lam) * f2.evaluate(lam)


def _occurs_at_identity(p: Pattern) -> bool:
    """Whether positions 1..k realize ``p`` in the partition of [k] that
    ``p.equiv`` spells out."""
    return tuple(range(1, p.k + 1)) in ref_occurrences(p, SetPartition(p.equiv))


@settings(max_examples=40, deadline=None)
@given(statistics(max_terms=3), statistics(max_terms=2, max_k=3), statistics(max_terms=2, max_k=3))
def test_kept_terms_can_occur(f, f1, f2):
    for p, _ in f.terms + (f1 * f2).terms:
        assert _occurs_at_identity(p)


@settings(max_examples=40, deadline=None)
@given(st.lists(patterns(), min_size=1, max_size=4))
def test_dropped_patterns_never_occur(ps):
    f = Statistic([(p, WeightPolynomial.constant(p.k, 1)) for p in ps])
    kept = {p for p, _ in f.terms}
    for p in ps:
        if p not in kept:
            assert not _occurs_at_identity(p)
            assert all(ref_occurrences(p, lam) == [] for n in range(7) for lam in PARTITIONS[n])


# --- merge targets ---------------------------------------------------------------

def _merges_by_sweep(p1: Pattern, p2: Pattern):
    """The generate-and-test reference for ``_merges``: every pair of index
    maps that covers the target, every RGS of the target length, kept when
    both pullbacks are the source equivalences."""
    k1, k2 = p1.k, p2.k
    for k3 in range(max(k1, k2), k1 + k2 + 1):
        for m1 in combinations(range(1, k3 + 1), k1):
            for m2 in combinations(range(1, k3 + 1), k2):
                if len(set(m1) | set(m2)) != k3:
                    continue
                for equiv in iter_rgs(k3):
                    if canonical_rgs(equiv[i - 1] for i in m1) != p1.equiv:
                        continue
                    if canonical_rgs(equiv[i - 1] for i in m2) != p2.equiv:
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
                    yield p3, m1, m2


# the distinct patterns of the builtin catalogue up to length 4; dimension
# brings the blocks, firsts_sum and lasts_sum patterns and the empty one
BUILTIN_PATTERNS = list(
    dict.fromkeys(
        p
        for f in [
            *(builtin("blocks_choose", k=k) for k in (2, 3)),
            *(builtin("blocks_of_size", i=i) for i in (1, 2, 3)),
            *(builtin("crossings_k", k=k) for k in (1, 2)),
            builtin("nestings"),
            builtin("levels"),
            builtin("dimension"),
        ]
        for p, _ in f.terms
    )
)


@settings(max_examples=80, deadline=None)
@given(patterns(), patterns())
def test_merges_match_sweep(p1, p2):
    assert list(_merges(p1, p2)) == list(_merges_by_sweep(p1, p2))


def test_merges_of_builtin_patterns_match_sweep():
    for p1 in BUILTIN_PATTERNS:
        for p2 in BUILTIN_PATTERNS:
            assert list(_merges(p1, p2)) == list(_merges_by_sweep(p1, p2))


# --- edge cases ------------------------------------------------------------------

def simple(k, equiv, q=None, **constraints) -> Statistic:
    p = Pattern.make(k, equiv, **constraints)
    return Statistic([(p, q or WeightPolynomial.constant(k, 1))])


def test_two_arcs_into_one_position():
    f = simple(3, [0, 0, 0], arcs=[(1, 3), (2, 3)])
    check_statistic(f)
    assert all(f.evaluate(lam) == 0 for lam in PARTITIONS[6])


def test_arc_skipping_a_same_class_position():
    check_statistic(simple(3, [0, 0, 0], arcs=[(1, 3)]))


def test_consecutive_on_nonadjacent_positions():
    f = simple(3, [0, 1, 0], consecutive=[(1, 3)])
    check_statistic(f)
    assert aggregate(f, 6) == 0


def test_arc_and_consecutive_on_one_pair():
    f = simple(2, [0, 0], arcs=[(1, 2)], consecutive=[(1, 2)])
    check_statistic(f)
    for n in range(7):
        assert aggregate(f, n) == aggregate(builtin("levels"), n)


def test_first_last_and_consecutive_on_fresh_classes():
    check_statistic(simple(3, [0, 1, 2], firsts=[2, 3], lasts=[1], consecutive=[(1, 2), (2, 3)]))


def test_length_zero_term_with_ground_weight():
    f = Statistic([(Pattern.make(0, []), WeightPolynomial.ground_size(0))])
    check_statistic(f)
    for n in range(7):
        assert aggregate(f, n) == n * bell(n)
    lam = PARTITIONS[3][0]
    assert occurrences(Pattern.make(0, []), lam) == [()]


def test_pattern_longer_than_partition():
    f = builtin("crossings_k", k=2) + builtin("crossings_k", k=3)
    check_statistic(f)
    for n in range(4):
        assert aggregate(f, n) == 0
        for lam in PARTITIONS[n]:
            assert occurrences(f.terms[0][0], lam) == []


def test_merge_product_drops_contradictory_targets():
    # firsts on one pattern's arc target: merged targets that put both on
    # one position have no occurrences, so the product does not keep them
    f, g = builtin("blocks"), builtin("levels")
    out = merge_product(f, g)
    targets = [p3 for p1, _ in f.terms for p2, _ in g.terms for p3, _, _ in _merges(p1, p2)]
    contradictory = [p for p in targets if any(b in p.firsts for _, b in p.arcs)]
    assert contradictory
    check_statistic(out, nmax=5)
    kept = {p for p, _ in out.terms}
    for p in contradictory:
        assert p not in kept
        assert all(occurrences(p, lam) == [] for n in range(7) for lam in PARTITIONS[n])


def test_builtin_products_match_reference():
    pairs = [("crossings_k", "nestings"), ("dimension", "levels"), ("firsts_sum", "lasts_sum")]
    for a, b in pairs:
        fa = builtin(a, k=2) if a == "crossings_k" else builtin(a)
        check_statistic(fa * builtin(b), nmax=5)


def test_builtins_match_reference():
    for name, params in [
        ("blocks", {}),
        ("blocks_choose", {"k": 2}),
        ("blocks_of_size", {"i": 2}),
        ("crossings_k", {"k": 2}),
        ("nestings", {}),
        ("levels", {}),
        ("dimension", {}),
    ]:
        check_statistic(builtin(name, **params))


# --- the aggregate DP against enumeration -------------------------------------------

def enumeration_aggregate(f: Statistic, n: int) -> Fraction:
    """The sum of f over every partition of [n], one evaluation each."""
    return Fraction(sum(f._total(lam.rgs) for lam in enumerate_partitions(n)), f._den)


BUILTINS = [
    ("blocks", {}),
    ("blocks_choose", {"k": 2}),
    ("blocks_choose", {"k": 3}),
    ("blocks_of_size", {"i": 1}),
    ("blocks_of_size", {"i": 3}),
    ("crossings_k", {"k": 1}),
    ("crossings_k", {"k": 2}),
    ("nestings", {}),
    ("levels", {}),
    ("firsts_sum", {}),
    ("lasts_sum", {}),
    ("dimension", {}),
    ("intertwining", {}),
]


@pytest.mark.parametrize("name,params", BUILTINS, ids=[n + str(p) for n, p in BUILTINS])
def test_aggregate_of_builtin_matches_enumeration(name, params):
    f = builtin(name, **params)
    assert aggregate_range(f, 9) == [enumeration_aggregate(f, n) for n in range(10)]


@pytest.mark.parametrize("pair", MERGE_PAIRS, ids=["%s*%s" % p for p in MERGE_PAIRS])
def test_aggregate_of_merge_product_matches_enumeration(pair):
    f = _make(pair[0]) * _make(pair[1])
    assert aggregate_range(f, 7) == [enumeration_aggregate(f, n) for n in range(8)]


@settings(max_examples=60, deadline=None)
@given(statistics(max_terms=3, max_k=5))
def test_aggregate_of_random_statistic_matches_enumeration(f):
    assert aggregate_range(f, 7) == [enumeration_aggregate(f, n) for n in range(8)]


@settings(max_examples=15, deadline=None)
@given(statistics(max_terms=2, max_k=3), statistics(max_terms=2, max_k=3))
def test_aggregate_of_random_product_matches_enumeration(f1, f2):
    f = f1 * f2
    assert aggregate_range(f, 7) == [enumeration_aggregate(f, n) for n in range(8)]


def test_aggregate_closed_forms_at_n_150():
    ns = range(151)
    assert aggregate_range(builtin("blocks"), 150) == [bell(n + 1) - bell(n) for n in ns]
    for i in (1, 2, 5):
        assert aggregate_range(builtin("blocks_of_size", i=i), 150) == [
            comb(n, i) * bell(n - i) if n >= i else 0 for n in ns]
    assert aggregate_range(builtin("levels"), 150) == [
        (n - 1) * bell(n - 1) if n else 0 for n in ns]


def test_aggregate_matches_the_exponent_moments():
    assert aggregate_range(builtin("dimension"), 60) == [m[1] for m in dim_moments_range(1, 60)]
    assert aggregate_range(builtin("crossings_k", k=2), 60) == [
        m[1] for m in int_moments_range(1, 60)]


def test_aggregate_of_negative_n_is_a_statistic_error():
    for n in (-1, -10):
        with pytest.raises(StatisticError):
            aggregate(builtin("blocks"), n)
        with pytest.raises(StatisticError):
            aggregate_range(builtin("blocks"), n)


def test_aggregate_runs_one_dp_per_y_monomial_group():
    # four monomials in two y-power groups: y1 * (m - 1)^2 and 3 * m; the
    # first group's coefficient is 0 at n = 1
    f = pattern_from_dict({"length": 1, "blocks": [[1]], "q": "y1*m^2 - 2*y1*m + y1 + 3*m"})
    assert len(f.terms[0][1].terms) == 4
    for n in (1, 8, 100):
        assert aggregate_cost(f, n) == n * n * 2 * 2
    assert aggregate_range(f, 8) == [enumeration_aggregate(f, n) for n in range(9)]


@settings(max_examples=60, deadline=None)
@given(patterns(max_k=5))
def test_evaluate_cost_bounds_the_occurrences(p):
    f = Statistic([(p, WeightPolynomial.constant(p.k, 1))])
    for n, partitions in PARTITIONS.items():
        assert all(len(ref_occurrences(p, lam)) <= evaluate_cost(f, lam) for lam in partitions)


def search_work(f: Statistic, lam: SetPartition) -> int:
    """The candidates the occurrence search examines over its whole tree while
    ``f.evaluate(lam)`` runs: one per node for a pinned position, the rest of
    the block for a repeated one, every value in range for a fresh one."""
    work = 0

    def counting(steps, weight, views, out, x, used, i, lo):
        nonlocal work
        n, _, nxt, _ = views
        prev, arc, adj = steps[i][:3]
        hi = n - len(steps) + 1 + i
        if arc or adj:
            work += 1
        elif prev >= 0:
            v = nxt[x[prev]]
            while v and v <= hi:
                work += 1
                v = nxt[v]
        else:
            work += max(hi - lo + 1, 0)
        return _search(steps, weight, views, out, x, used, i, lo)

    with mock.patch("partstats.statistics._search", counting):
        f.evaluate(lam)
    return work


@settings(max_examples=60, deadline=None)
@given(patterns(max_k=5))
def test_evaluate_cost_bounds_the_search_work(p):
    # every node of the search tree counts, not only the occurrences at its
    # leaves: a late small pool must not hide the prefixes built before it
    f = Statistic([(p, WeightPolynomial.constant(p.k, 1))])
    for n, partitions in PARTITIONS.items():
        assert all(search_work(f, lam) <= evaluate_cost(f, lam) for lam in partitions)


def test_evaluate_cost_counts_free_positions():
    # an arc or a consecutive pair pins a position to the one before it, and
    # each y-monomial group of the weight counts once per candidate; with no
    # flags, the root and the scans at depths 0..k-1 add up to C(n + 1, k)
    def cost(n, q="1", **constraints):
        return evaluate_cost(pattern_from_dict(dict(constraints, length=3, q=q)),
                             SetPartition(range(n)))

    assert cost(10, blocks=[[1], [2], [3]]) == comb(11, 3)
    # root, scan for x1 <= 8, then one candidate at each of 8 and 9 prefixes
    assert cost(10, blocks=[[1, 2, 3]], arcs=[[1, 2], [2, 3]]) == 1 + 8 + 8 + 9
    # root, scans for x1 <= 8 and x2 <= 9, then one candidate per prefix (x1, x2)
    assert cost(10, blocks=[[1], [2], [3]], consecutive=[[2, 3]]) == 1 + 8 + comb(9, 2) + comb(9, 2)
    assert cost(10, blocks=[[1], [2], [3]], q="y1 + y2^2 + 3*m") == 3 * comb(11, 3)
    assert cost(2, blocks=[[1], [2], [3]]) == 0


def test_evaluate_cost_draws_flagged_positions_from_their_pools():
    # a first (last) position takes a block minimum (maximum), one that is
    # both a singleton block; other free positions take any element.  The
    # search still scans every value in range for a flagged position
    lam = SetPartition([i % 10 for i in range(100)] + [10, 11])  # n = 102, 12 blocks, 2 singletons

    def cost(lam=lam, **constraints):
        doc = dict(constraints, length=3, blocks=[[1], [2], [3]], q="1")
        return evaluate_cost(pattern_from_dict(doc), lam)

    # root; scan for x1 <= 100; one block maximum, then a scan; two, then a scan
    assert cost(lasts=[1, 2, 3]) == 1 + 100 + 12 * 102 + comb(12, 2) * 102
    assert cost(firsts=[1, 2], lasts=[3]) == cost(lasts=[1, 2, 3])
    assert cost(firsts=[1, 2, 3], lasts=[1, 2, 3]) == 1 + 100 + 2 * 102 + 1 * 102
    # an empty pool at the last position does not cancel the prefixes before
    # it: 100 pairs, no singleton, yet every prefix (x1, x2) scans to n = 200
    pairs = SetPartition([i % 100 for i in range(200)])
    assert cost(pairs, firsts=[3], lasts=[3]) == 1 + 198 + comb(199, 2) + comb(200, 3)
    # never above C(n + 1, k), the unflagged count: on 10 singletons, not 10 * C(10, 2)
    assert cost(SetPartition(range(10)), firsts=[1]) == comb(11, 3)


def test_pattern_length_is_capped_in_make():
    # the cap holds for every pattern, not only DSL documents, so the
    # occurrence search never nears the recursion limit
    lam = SetPartition([0] * MAX_MERGED_LENGTH)
    assert builtin("blocks_of_size", i=MAX_MERGED_LENGTH).evaluate(lam) == 1
    with pytest.raises(StatisticError, match="MAX_MERGED_LENGTH"):
        builtin("blocks_of_size", i=1200).evaluate(SetPartition([0] * 1200))
    with pytest.raises(StatisticError, match="MAX_MERGED_LENGTH"):
        Pattern.make(MAX_MERGED_LENGTH + 1, [0] * (MAX_MERGED_LENGTH + 1))
    # merge targets are built without make, and the cap still holds for them
    with pytest.raises(StatisticError, match="MAX_MERGED_LENGTH"):
        builtin("blocks_of_size", i=MAX_MERGED_LENGTH) * builtin("blocks")
