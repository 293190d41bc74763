import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partstats.exactnum import bell, binomial, stirling2
from partstats.partitions import enumerate_partitions, parse_partition
from partstats.statistics import (
    Pattern,
    StatisticError,
    Statistic,
    WeightPolynomial,
    aggregate,
    builtin,
    merge_product,
    occurrences,
    parse_pattern,
)

LAM = parse_partition("1356|27|4")


# --- occurrence semantics on the worked example -----------------------------

def test_dimension_of_worked_example():
    assert builtin("dimension").evaluate(LAM) == 6


def test_crossings2_occurrence():
    cr2 = builtin("crossings_k", k=2)
    assert cr2.evaluate(LAM) == 1
    p = next(s.pattern for _, s in cr2.terms)
    assert occurrences(p, LAM) == [(1, 2, 3, 7)]


def test_nestings_of_worked_example():
    assert builtin("nestings").evaluate(LAM) == 2


def test_levels_small():
    assert builtin("levels").evaluate(parse_partition("123")) == 2
    assert builtin("levels").evaluate(parse_partition("13|2")) == 0


def test_firsts_lasts_sums():
    assert builtin("firsts_sum").evaluate(LAM) == 7
    assert builtin("lasts_sum").evaluate(LAM) == 17


def test_blocks_of_size():
    assert builtin("blocks_of_size", i=1).evaluate(LAM) == 1
    assert builtin("blocks_of_size", i=2).evaluate(LAM) == 1
    assert builtin("blocks_of_size", i=4).evaluate(LAM) == 1
    assert builtin("blocks_of_size", i=3).evaluate(LAM) == 0


def test_intertwining_is_crossings2():
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert builtin("intertwining").evaluate(lam) == builtin(
                "crossings_k", k=2
            ).evaluate(lam)


# --- aggregates against closed forms ----------------------------------------

def test_aggregate_blocks():
    # sum of block counts over all partitions of [n]
    for n in range(7):
        expected = sum(k * stirling2(n, k) for k in range(n + 1))
        assert aggregate(builtin("blocks"), n) == expected


def test_aggregate_fixtures_n3():
    assert aggregate(builtin("blocks"), 3) == 10
    assert aggregate(builtin("levels"), 3) == 4
    assert aggregate(builtin("blocks_of_size", i=1), 3) == 6


def test_aggregate_singletons_closed_form():
    for n in range(1, 9):
        assert aggregate(builtin("blocks_of_size", i=1), n) == n * bell(n - 1)


def test_aggregate_blocks_choose_two():
    # pairs of blocks: sum of C(l, 2)
    for n in range(8):
        expected = sum(
            binomial(lam.block_count, 2) for lam in enumerate_partitions(n)
        )
        assert aggregate(builtin("blocks_choose", k=2), n) == expected


def test_dimension_equals_arc_formula():
    for n in range(8):
        for lam in enumerate_partitions(n):
            d = sum(f - e - 1 for e, f in lam.arcs())
            assert builtin("dimension").evaluate(lam) == d


def test_crossing_free_counts_are_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    cr2 = builtin("crossings_k", k=2)
    for n in range(8):
        free = sum(1 for lam in enumerate_partitions(n) if cr2.evaluate(lam) == 0)
        assert free == catalan[n]


# --- weight polynomials ------------------------------------------------------

def test_weight_polynomial_arithmetic():
    y1 = WeightPolynomial.variable(2, 1)
    y2 = WeightPolynomial.variable(2, 2)
    m = WeightPolynomial.ground_size(2)
    q = (y1 + y2) * m - y1 ** 2
    assert q.evaluate((3, 5), 10) == (3 + 5) * 10 - 9
    assert q.total_degree() == 2


def test_weight_polynomial_power_by_squaring():
    q = WeightPolynomial.variable(2, 1) + WeightPolynomial.ground_size(2).scaled(Fraction(1, 2))
    product = WeightPolynomial.constant(2, 1)
    for e in range(12):
        assert q ** e == product
        product = product * q


def test_weight_polynomial_rationals():
    q = WeightPolynomial.constant(1, Fraction(1, 3))
    y = WeightPolynomial.variable(1, 1)
    assert (q * y).evaluate((6,), 1) == 2


# --- merge products ----------------------------------------------------------

def _pointwise_product_check(f1: Statistic, f2: Statistic, nmax: int = 6):
    f3 = f1 * f2
    for n in range(nmax + 1):
        for lam in enumerate_partitions(n):
            assert f3.evaluate(lam) == f1.evaluate(lam) * f2.evaluate(lam)


def test_merge_product_singleton_square():
    x1 = builtin("blocks_of_size", i=1)
    _pointwise_product_check(x1, x1)
    sq = x1 * x1
    for n in range(2, 9):
        expected = n * bell(n - 1) + n * (n - 1) * bell(n - 2)
        assert aggregate(sq, n) == expected


@pytest.mark.parametrize(
    "name1,name2",
    [
        ("blocks", "blocks"),
        ("blocks", "blocks_of_size"),
        ("blocks_of_size", "levels"),
        ("levels", "levels"),
        ("blocks", "crossings_k"),
        ("nestings", "blocks_of_size"),
        ("firsts_sum", "blocks"),
        ("lasts_sum", "blocks_of_size"),
        ("dimension", "blocks"),
        ("crossings_k", "nestings"),
    ],
)
def test_merge_product_pointwise(name1, name2):
    def mk(name):
        if name == "blocks_of_size":
            return builtin(name, i=1)
        if name == "crossings_k":
            return builtin(name, k=2)
        return builtin(name)

    _pointwise_product_check(mk(name1), mk(name2), nmax=5)


def test_merge_product_degree_bound():
    x1 = builtin("blocks_of_size", i=1)
    assert (x1 * x1).degree() <= 2 * x1.degree()


def test_merge_product_simple_interface():
    (c1, s1), = builtin("blocks").terms
    out = merge_product(s1, s1)
    lam = parse_partition("12|3")
    assert out.evaluate(lam) == 4


# --- DSL ---------------------------------------------------------------------

def test_dsl_roundtrip_singletons():
    doc = {"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}
    f = parse_pattern(json.dumps(doc))
    for n in range(6):
        assert aggregate(f, n) == aggregate(builtin("blocks_of_size", i=1), n)


def test_dsl_weight_expression():
    doc = {"length": 1, "blocks": [[1]], "lasts": [1], "q": "y1"}
    f = parse_pattern(json.dumps(doc))
    assert f.evaluate(LAM) == 17


def test_dsl_rational_and_power():
    doc = {"length": 1, "blocks": [[1]], "firsts": [1], "q": "1/2 * y1^2"}
    f = parse_pattern(json.dumps(doc))
    assert f.evaluate(parse_partition("13|2")) == Fraction(1 + 4, 2)


def test_dsl_rejects_bad_documents():
    for doc in [
        {"length": 2, "blocks": [[1]]},
        {"length": 2, "blocks": [[1, 2]], "arcs": [[2, 1]]},
        {"length": 1, "blocks": [[1]], "q": "y2"},
        {"length": 1, "blocks": [[1]], "q": "1 +"},
    ]:
        with pytest.raises(StatisticError):
            parse_pattern(json.dumps(doc))


def test_arc_requires_coblocked_positions():
    with pytest.raises(StatisticError):
        Pattern.make(2, [0, 1], arcs=[(1, 2)])


# --- equidistribution of the two crossing-type statistics -------------------

def test_crossings_and_nestings_equidistributed():
    cr2 = builtin("crossings_k", k=2)
    ne = builtin("nestings")
    for n in range(8):
        hist_c: dict = {}
        hist_n: dict = {}
        for lam in enumerate_partitions(n):
            c = cr2.evaluate(lam)
            v = ne.evaluate(lam)
            hist_c[c] = hist_c.get(c, 0) + 1
            hist_n[v] = hist_n.get(v, 0) + 1
        assert hist_c == hist_n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_statistic_linear_combinations(a, b):
    f = builtin("blocks").scaled(a) + builtin("levels").scaled(b)
    for lam in enumerate_partitions(4):
        expected = a * builtin("blocks").evaluate(lam) + b * builtin("levels").evaluate(lam)
        assert f.evaluate(lam) == expected
