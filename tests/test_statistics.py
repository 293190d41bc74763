import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partstats.exactnum import bell, stirling2
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
    pattern_from_dict,
)

LAM = parse_partition("1356|27|4")


# --- occurrence semantics on the worked example -----------------------------

def test_dimension_of_worked_example():
    assert builtin("dimension").evaluate(LAM) == 6


def test_crossings2_occurrence():
    cr2 = builtin("crossings_k", k=2)
    assert cr2.evaluate(LAM) == 1
    (p, _), = cr2.terms
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
            math.comb(lam.block_count, 2) for lam in enumerate_partitions(n)
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


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(1, 2)], ids=["2", "3", "1/2"])
def test_supercharacters_sum_to_the_group_order(q):
    # the supercharacters of U_n(F_q) are the partitions of [n] with arcs
    # labelled by F_q^x; lambda's have degree q^dim and norm q^int, so
    # sum chi(1)^2 / <chi, chi> = |U_n(F_q)| reads
    # sum (q - 1)^arcs q^(2 dim - int) = q^(n(n-1)/2), arcs = n - blocks
    dim, inter = builtin("dimension"), builtin("intertwining")
    for n in range(9):
        total = sum((q - 1) ** (n - lam.block_count)
                    * q ** int(2 * dim.evaluate(lam) - inter.evaluate(lam))
                    for lam in enumerate_partitions(n))
        assert total == q ** (n * (n - 1) // 2), n


# --- weight polynomials ------------------------------------------------------

def test_weight_polynomial_arithmetic():
    y1 = WeightPolynomial.variable(2, 1)
    y2 = WeightPolynomial.variable(2, 2)
    m = WeightPolynomial.ground_size(2)
    q = (y1 + y2) * m - y1 ** 2
    assert q.evaluate((3, 5), 10) == (3 + 5) * 10 - 9
    assert q.total_degree() == 2


def test_weight_polynomial_power_is_repeated_product():
    q = WeightPolynomial.variable(2, 1) + WeightPolynomial.ground_size(2).scaled(Fraction(1, 2))
    product = WeightPolynomial.constant(2, 1)
    for e in range(12):
        assert q ** e == product
        product = product * q


@st.composite
def narrow_weights(draw):
    """Up to 3 terms in y1..yk and m, k <= 3, with exponents <= 2."""
    k = draw(st.integers(min_value=1, max_value=3))
    monomials = st.lists(st.integers(min_value=0, max_value=2), min_size=k + 1, max_size=k + 1)
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = draw(st.dictionaries(monomials.map(tuple), coefficients, max_size=3))
    return WeightPolynomial(k, terms)


@settings(max_examples=60, deadline=None)
@given(narrow_weights(), st.integers(min_value=0, max_value=16))
def test_weight_polynomial_power_by_squaring_is_exact(q, e):
    product = WeightPolynomial.constant(q.k, 1)
    for _ in range(e):
        product = product * q
    assert (q ** e).terms == product.terms


def test_weight_polynomial_rationals():
    q = WeightPolynomial.constant(1, Fraction(1, 3))
    y = WeightPolynomial.variable(1, 1)
    assert (q * y).evaluate((6,), 1) == 2


# --- one weight per pattern -------------------------------------------------

def test_equal_patterns_collapse_to_one_term():
    p = Pattern.make(1, [0], firsts=[1])
    y1 = WeightPolynomial.variable(1, 1)
    two = WeightPolynomial.constant(1, 2)
    f = Statistic([(p, y1), (p, two)])
    assert f.terms == ((p, y1 + two),)
    # blocks and firsts_sum share the pattern "a block minimum"
    blocks, firsts_sum = builtin("blocks"), builtin("firsts_sum")
    assert (blocks + firsts_sum).terms == ((p, y1 + WeightPolynomial.constant(1, 1)),)
    for lam in enumerate_partitions(5):
        assert f.evaluate(lam) == firsts_sum.evaluate(lam) + 2 * blocks.evaluate(lam)


def test_difference_with_itself_has_no_terms():
    for f in (builtin("dimension"), builtin("nestings"), builtin("blocks").scaled(Fraction(2, 3))):
        zero = f - f
        assert zero.terms == ()
        assert zero.degree() == 0
        assert aggregate(zero, 5) == 0
        assert zero.evaluate(LAM) == 0
    assert builtin("levels").scaled(0).terms == ()


def test_dimension_has_one_term_per_pattern():
    d = builtin("dimension")
    assert len(d.terms) == 3
    assert len({p for p, _ in d.terms}) == 3
    assert all(q.terms for _, q in d.terms)


def test_weight_arity_must_match_pattern_length():
    with pytest.raises(StatisticError):
        Statistic([(Pattern.make(1, [0]), WeightPolynomial.constant(2, 1))])


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
    out = merge_product(builtin("blocks"), builtin("blocks"))
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
        # numbers are ASCII digits, not any Unicode decimal digit
        {"length": 1, "blocks": [[1]], "q": "y\u0661"},
        {"length": 1, "blocks": [[1]], "q": "\u0662"},
    ]:
        with pytest.raises(StatisticError):
            parse_pattern(json.dumps(doc))


@pytest.mark.parametrize("k", [2.7, True, "x", "2", None])
def test_builtin_parameters_must_be_integers(k):
    with pytest.raises(StatisticError, match="must be an integer"):
        builtin("crossings_k", k=k)


def test_arc_requires_coblocked_positions():
    with pytest.raises(StatisticError):
        Pattern.make(2, [0, 1], arcs=[(1, 2)])


@pytest.mark.parametrize("key, value", [
    *(("firsts", v) for v in ([1.0], [True], ["1"], 5, None)),
    ("arcs", [(1,)]),
    ("arcs", [(1.0, 2)]),
    ("consecutive", [[1, 2, 3]]),
])
def test_pattern_make_refuses_malformed_input_as_the_dsl_does(key, value):
    # a library call gets the DSL's checks and messages, not a later TypeError
    with pytest.raises(StatisticError) as e:
        Pattern.make(2, [0, 0], **{key: value})
    with pytest.raises(StatisticError) as dsl:
        pattern_from_dict({"length": 2, "blocks": [[1, 2]], key: value})
    shape = "integer positions" if key == "firsts" else "[a, b] pairs of integer positions"
    assert str(e.value) == str(dsl.value) == "'%s' must be a list of %s" % (key, shape)


def test_pattern_make_takes_lists_tuples_sets_and_ranges():
    expected = Pattern.make(2, [0, 0], firsts=[1], arcs=[(1, 2)], consecutive=[[1, 2]])
    for firsts, arcs in [({1}, ((1, 2),)), (range(1, 2), {(1, 2)})]:
        assert Pattern.make(2, (0, 0), firsts=firsts, arcs=arcs, consecutive=[(1, 2)]) == expected
    assert expected == Pattern(2, (0, 0), firsts=(1,), arcs=((1, 2),), consecutive=((1, 2),))


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
