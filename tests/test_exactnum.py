import math
import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from partstats.exactnum import bell, bell_mod, bell_mod_table, stirling2, unpack

BELL_SMALL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_bell_small_values():
    for n, expected in enumerate(BELL_SMALL):
        assert bell(n) == expected


def test_bell_binomial_recurrence():
    for n in range(1, 40):
        assert bell(n + 1) == sum(math.comb(n, k) * bell(k) for k in range(n + 1))


def test_stirling_rows():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]


@given(st.integers(min_value=0, max_value=30))
def test_stirling_row_sums_to_bell(n):
    assert sum(stirling2(n, k) for k in range(n + 1)) == bell(n)


def test_stirling_recurrence():
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@given(st.integers(min_value=0, max_value=120), st.integers(min_value=2, max_value=50))
def test_bell_mod_consistent_with_exact(n, m):
    assert bell_mod(n, m) == bell(n) % m


def test_bell_mod_table_shape():
    table = bell_mod_table(10, 4)
    assert table == [b % 4 for b in BELL_SMALL]


# moduli on both sides of the reduction bound m * 2^100: rows of small moduli
# are reduced every few rows, rows of 10^400 + 1 never below n = 600
@pytest.mark.parametrize("m", [2, 3, 255, 256, 257, 2**61 - 1, 2**64 + 13, 10**30 + 57, 10**400 + 1])
def test_bell_mod_table_matches_exact(m):
    assert bell_mod_table(600, m) == [bell(n) % m for n in range(601)]
    assert bell_mod_table(0, m) == [1]
    assert bell_mod_table(1, m) == [1, 1]


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=2, max_value=2**200))
def test_bell_mod_table_any_modulus(n, m):
    assert bell_mod_table(n, m) == [bell(i) % m for i in range(n + 1)]


@given(st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=20),
       st.integers(min_value=5, max_value=9))
@example([2**40 - 1, 0, 1, 0], 5)  # a full slot, a zero slot and a trailing zero slot
def test_unpack_reads_every_slot(counts, size):
    packed = sum(c << 8 * size * i for i, c in enumerate(counts))
    assert unpack(packed, size) == {i: c for i, c in enumerate(counts) if c}


def test_bell_negative_rejected():
    with pytest.raises(ValueError):
        bell(-1)


def test_bell_and_stirling_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    assert [bell(n) for n in range(301)] == [int(sympy.bell(n)) for n in range(301)]
    for n in range(41):
        assert [stirling2(n, k) for k in range(n + 1)] == [int(stirling(n, k)) for k in range(n + 1)]


def test_stirling_concurrent_calls_agree():
    # more threads than cores, released together and switched often, all
    # build rows up to n = 400; each must get what one single-threaded call
    # and the explicit formula give
    n, ks = 400, [0, 1, 7, 200, 399, 400]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(t):
        barrier.wait(timeout=30)
        results[t] = [stirling2(n, k) for k in ks]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    expected = [stirling2(n, k) for k in ks]
    assert expected == [
        sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)
        for k in ks
    ]
    assert results == [expected] * 4
