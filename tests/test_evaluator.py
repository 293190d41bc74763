"""Differential tests of the compiled evaluator against a brute-force reference.

The reference tries every k-subset of [n] with ``itertools.combinations``,
checks each pattern constraint directly on the partition's blocks, and
evaluates the weight in exact Fractions.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from partstats.exactnum import bell
from partstats.partitions import enumerate_partitions
from partstats.statistics import (
    Pattern,
    SimpleStatistic,
    Statistic,
    WeightPolynomial,
    aggregate,
    builtin,
    merge_product,
    occurrences,
)

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
        (
            c * ref_weight(s.q, xs, lam.n)
            for c, s in f.terms
            for xs in ref_occurrences(s.pattern, lam)
        ),
        Fraction(0),
    )


def check_statistic(f: Statistic, nmax: int = 6) -> None:
    for n in range(nmax + 1):
        total = Fraction(0)
        for lam in PARTITIONS[n]:
            for _, s in f.terms:
                assert occurrences(s.pattern, lam) == ref_occurrences(s.pattern, lam)
            value = ref_evaluate(f, lam)
            assert f.evaluate(lam) == value
            assert sum(c * s.evaluate(lam) for c, s in f.terms) == value
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
        terms.append((c, SimpleStatistic(p, draw(weights(p.k)))))
    return Statistic(terms)


@settings(max_examples=60, deadline=None)
@given(statistics())
def test_random_statistics_match_reference(f):
    check_statistic(f)


@settings(max_examples=15, deadline=None)
@given(statistics(max_terms=1, max_k=3), statistics(max_terms=1, max_k=3))
def test_random_merge_products_match_reference(f1, f2):
    f3 = f1 * f2
    check_statistic(f3, nmax=5)
    for n in range(6):
        for lam in PARTITIONS[n]:
            assert f3.evaluate(lam) == f1.evaluate(lam) * f2.evaluate(lam)


# --- edge cases ------------------------------------------------------------------

def simple(k, equiv, q=None, **constraints) -> Statistic:
    p = Pattern.make(k, equiv, **constraints)
    return Statistic.simple(p, q or WeightPolynomial.constant(k, 1))


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
    f = Statistic.simple(Pattern.make(0, []), WeightPolynomial.ground_size(0))
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
            assert occurrences(f.terms[0][1].pattern, lam) == []


def test_merge_product_keeps_contradictory_targets():
    # firsts on one pattern's arc target: merged targets that put both on
    # one position have no occurrences, and must add nothing
    (_, s1), = builtin("blocks").terms
    (_, s2), = builtin("levels").terms
    out = merge_product(s1, s2)
    contradictory = [
        s for _, s in out.terms if any(b in s.pattern.firsts for _, b in s.pattern.arcs)
    ]
    assert contradictory
    check_statistic(out, nmax=5)
    for s in contradictory:
        f = Statistic.simple(s.pattern, s.q)
        check_statistic(f, nmax=5)
        assert all(aggregate(f, n) == 0 for n in range(7))


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
