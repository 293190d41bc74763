import sys
import threading
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
    int_moments_range,
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


def _spy_on_layers(monkeypatch) -> list:
    """The argument tuples of every later ``_layers`` call."""
    calls = []
    layers = recursions._layers

    def spy(*args, **kwargs):
        calls.append(args)
        return layers(*args, **kwargs)

    monkeypatch.setattr(recursions, "_layers", spy)
    return calls


def test_each_front_end_runs_the_engine_once(monkeypatch):
    # empty memos, so that earlier tests cannot answer dim_distribution or
    # int_moments
    monkeypatch.setattr(recursions, "_DISTS", {})
    monkeypatch.setattr(recursions, "_MOMENTS", {})
    calls = _spy_on_layers(monkeypatch)
    for run in (lambda: dim_distribution(12), lambda: int_table(9), lambda: int_moments(3, 9)):
        calls.clear()
        run()
        assert len(calls) == 1


def _oracle(target, k, n):
    """M_0..M_k for n' = 0..n from one run of the engine, bypassing the memo."""
    return [rows[0] for rows in recursions._layers(target, n, False, k)]


_FRONT_ENDS = {("dim", False): dim_moments, ("dim", True): dim_moments_range,
               ("int", False): int_moments, ("int", True): int_moments_range}


def _expected(target, whole, k, n):
    """What ``_FRONT_ENDS[target, whole](k, n)`` must return."""
    want = _oracle(target, k, n)
    return want if whole else want[n]


def test_moments_memo_reuses_one_run(monkeypatch):
    monkeypatch.setattr(recursions, "_MOMENTS", {})
    want = {key: _oracle(*key) for key in (("dim", 2, 12), ("dim", 3, 5), ("int", 2, 5))}
    calls = _spy_on_layers(monkeypatch)

    def runs(*requests):
        calls.clear()
        for front_end, k, n in requests:
            front_end(k, n)
        return len(calls)

    assert runs((dim_moments, 2, 9)) == 1
    assert runs((dim_moments, 2, 9), (dim_moments, 2, 4), (dim_moments_range, 2, 9),
                (dim_moments_range, 2, 0)) == 0
    assert runs((dim_moments_range, 2, 12)) == 1
    assert runs((dim_moments, 2, 12), (dim_moments, 2, 10)) == 0
    assert runs((dim_moments, 3, 5)) == 1
    assert runs((int_moments, 2, 5)) == 1
    assert runs((dim_moments, 3, 5), (int_moments_range, 2, 5)) == 0

    # results are the caller's to change
    row, rows = dim_moments(2, 9), dim_moments_range(2, 9)
    row[0] = -1
    row.append(7)
    rows[3][1] = -1
    rows[0].clear()
    rows.pop()
    assert dim_moments(2, 9) == want["dim", 2, 12][9]
    assert dim_moments_range(2, 9) == want["dim", 2, 12][:10]
    assert dim_moments(3, 5) == want["dim", 3, 5][5] and int_moments(2, 5) == want["int", 2, 5][5]

    # a warm memo still refuses negative sizes
    for call in (lambda: dim_moments(2, -1), lambda: dim_moments_range(2, -1),
                 lambda: dim_moments_range(-1, 3), lambda: int_moments(-1, 3)):
        with pytest.raises(ValueError):
            call()
    assert runs() == 0


_REQUESTS = st.lists(
    st.tuples(st.sampled_from(["dim", "int"]), st.booleans(), st.integers(0, 4), st.integers(0, 40)),
    min_size=1, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(_REQUESTS)
def test_moments_memo_matches_the_engine(requests):
    # each sequence runs forwards and then backwards, so that every n both
    # rises past what the memo holds and falls within it
    with mock.patch.object(recursions, "_MOMENTS", {}):
        for target, whole, k, n in requests + requests[::-1]:
            assert _FRONT_ENDS[target, whole](k, n) == _expected(target, whole, k, n)


def _in_four_threads(memo, orders, call, want):
    """Run ``call`` on each request of ``orders[t]`` in thread t, on an empty
    ``memo``, and check every result against ``want[request]``."""
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(t):
        barrier.wait(timeout=30)
        results[t] = [(request, call(request)) for request in orders[t]]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(recursions, memo, {}):
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t in range(4):
        assert results[t] is not None and len(results[t]) == len(orders[t])
        for request, got in results[t]:
            assert got == want[request], request


def test_moments_memo_concurrent_calls_agree():
    # four threads released together on an empty memo and switched often,
    # each with its own order of targets, orders and rising and falling n
    requests = [(t, whole, k, n) for n in (3, 30, 8, 40, 1, 25) for k in (0, 2, 4)
                for t in ("dim", "int") for whole in (False, True)]
    orders = [requests, requests[::-1], requests[1::2] + requests[::2], requests[::2] + requests[1::2]]
    want = {request: _expected(*request) for request in requests}
    _in_four_threads("_MOMENTS", orders, lambda r: _FRONT_ENDS[r[:2]](*r[2:]), want)


def _dist_oracle(target, n):
    """The distribution of layer n from one run of the engine, bypassing the memo."""
    return {b: c for (_, b), c in recursions._cells(target, n, False).items()}


_DISTRIBUTIONS = {"dim": dim_distribution, "int": int_distribution}


def test_distribution_memo_reuses_one_answer(monkeypatch):
    monkeypatch.setattr(recursions, "_DISTS", {})
    want = {key: _dist_oracle(*key) for key in (("dim", 12), ("dim", 9), ("int", 9))}
    calls = _spy_on_layers(monkeypatch)

    def runs(*requests):
        calls.clear()
        for target, n in requests:
            assert _DISTRIBUTIONS[target](n) == want[target, n]
        return len(calls)

    assert runs(("dim", 12)) == 1
    assert runs(("dim", 12), ("dim", 12)) == 0
    # one answer per n: a smaller n is a new request
    assert runs(("dim", 9)) == 1
    assert runs(("int", 9)) == 1
    assert runs(("int", 9), ("dim", 9), ("dim", 12)) == 0

    # results are the caller's to change
    got = dim_distribution(12)
    got[0] = -1
    got[10 ** 6] = 7
    del got[max(got)]
    int_distribution(9).clear()
    assert runs(("dim", 12), ("int", 9)) == 0

    # a warm memo still refuses negative sizes
    for call in (lambda: dim_distribution(-1), lambda: int_distribution(-1)):
        with pytest.raises(ValueError):
            call()
    assert runs() == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["dim", "int"]), st.integers(0, 30)),
                min_size=1, max_size=8))
def test_distribution_memo_matches_the_engine(requests):
    # each sequence runs twice, so that every request is asked both cold and warm
    with mock.patch.object(recursions, "_DISTS", {}):
        for target, n in requests + requests[::-1]:
            assert _DISTRIBUTIONS[target](n) == _dist_oracle(target, n)


def test_distribution_memo_concurrent_calls_agree():
    # four threads released together on an empty memo and switched often,
    # each with its own order of targets and sizes, repeats included
    requests = [(t, n) for n in (3, 30, 8, 25, 1, 30, 8) for t in ("dim", "int")]
    orders = [requests, requests[::-1], requests[1::2] + requests[::2], requests[::2] + requests[1::2]]
    want = {request: _dist_oracle(*request) for request in requests}
    _in_four_threads("_DISTS", orders, lambda r: _DISTRIBUTIONS[r[0]](r[1]), want)
