from math import comb

from partstats import recursions
from partstats.exactnum import bell
from partstats.partitions import enumerate_partitions, marked_enumerate
from partstats.recursions import (
    dim_distribution,
    dim_moments,
    dim_moments_range,
    dim_table,
    int_distribution,
    int_moments,
    int_table,
    marked_dimension,
    marked_intertwining,
)
from partstats.statistics import aggregate, builtin

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440]


def _brute_hist(n, weight):
    hist: dict = {}
    for lam in enumerate_partitions(n):
        v = int(weight.evaluate(lam))
        hist[v] = hist.get(v, 0) + 1
    return hist


def test_dim_distribution_matches_enumeration():
    d = builtin("dimension")
    for n in range(9):
        assert dim_distribution(n) == _brute_hist(n, d)


def test_int_distribution_matches_enumeration():
    cr2 = builtin("crossings_k", k=2)
    for n in range(9):
        assert int_distribution(n) == _brute_hist(n, cr2)


def test_dim_table_matches_marked_enumeration():
    for n in range(7):
        brute: dict = {}
        for mu in marked_enumerate(n):
            key = (mu.open_count, marked_dimension(mu))
            brute[key] = brute.get(key, 0) + 1
        assert dim_table(n) == brute


def test_int_table_matches_marked_enumeration():
    for n in range(7):
        brute: dict = {}
        for mu in marked_enumerate(n):
            key = (mu.open_count, marked_intertwining(mu))
            brute[key] = brute.get(key, 0) + 1
        assert int_table(n) == brute


def test_dim_slice_totals_are_bell():
    for n in range(12):
        assert sum(dim_distribution(n).values()) == bell(n)
        assert sum(int_distribution(n).values()) == bell(n)


def test_dim_weight_zero_column():
    # weight-0 marked objects with no open block: one per nonempty subset chain,
    # 2^(n-1) in total
    for n in range(1, 15):
        assert dim_table(n).get((0, 0), 0) == 2 ** (n - 1)


def test_int_crossing_free_column_is_catalan():
    for n in range(12):
        assert int_table(n).get((0, 0), 0) == CATALAN[n]


def test_dim_moments_match_enumeration():
    d = builtin("dimension")
    for n in range(8):
        brute = [
            sum(int(d.evaluate(lam)) ** k for lam in enumerate_partitions(n))
            for k in range(4)
        ]
        assert dim_moments(3, n) == brute


def test_int_moments_match_enumeration():
    cr2 = builtin("crossings_k", k=2)
    for n in range(8):
        brute = [
            sum(int(cr2.evaluate(lam)) ** k for lam in enumerate_partitions(n))
            for k in range(4)
        ]
        assert int_moments(3, n) == brute


def test_merge_product_aggregates_match_moments():
    # the third oracle: powers of a statistic built by pattern merges, summed
    # over all partitions, against the exponent DP's moments
    d = builtin("dimension")
    cr2 = builtin("crossings_k", k=2)
    d2, cr2sq = d * d, cr2 * cr2
    d3 = d2 * d
    for n in range(8):
        dim = dim_moments(3, n)
        assert aggregate(d2, n) == dim[2]
        assert aggregate(d3, n) == dim[3]
        assert aggregate(cr2sq, n) == int_moments(2, n)[2]


def test_moments_range_prefix_consistency():
    rows = dim_moments_range(2, 12)
    assert len(rows) == 13
    for n in (3, 7, 12):
        assert rows[n] == dim_moments(2, n)
    for n in range(13):
        assert rows[n][0] == bell(n)


def test_distribution_value_ranges():
    for n in range(2, 10):
        dd = dim_distribution(n)
        assert min(dd) == 0
        ii = int_distribution(n)
        assert min(ii) == 0
        assert all(c > 0 for c in ii.values())


def test_moments_agree_with_distributions():
    # moments come from power-sum rows, distributions from packed rows
    for moments, distribution in ((dim_moments, dim_distribution), (int_moments, int_distribution)):
        for n in range(31):
            dist = distribution(n)
            assert moments(4, n) == [sum(c * b ** k for b, c in dist.items()) for k in range(5)]
            assert moments(0, n) == [bell(n)]


def test_table_totals_are_marked_partition_counts():
    # the packed slot is sized from this count, which bounds every cell
    for n in range(31):
        total = sum(comb(n, j) * bell(j) * bell(n - j) for j in range(n + 1))
        assert sum(dim_table(n).values()) == total
        assert sum(int_table(n).values()) == total


def test_each_front_end_runs_the_engine_once(monkeypatch):
    calls = []
    layers = recursions._layers

    def spy(*args, **kwargs):
        calls.append(args)
        return layers(*args, **kwargs)

    monkeypatch.setattr(recursions, "_layers", spy)
    for run in (lambda: dim_distribution(12), lambda: int_table(9), lambda: int_moments(3, 9)):
        calls.clear()
        run()
        assert len(calls) == 1
