import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from partstats import cli, exactnum
from partstats.exactnum import (BellTable, bell, bell_mod, bell_mod_table, bell_table, exact_text,
                                stirling2, unpack)

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


MODULI = [2, 255, 256, 257, 2**61 - 1, 10**30 + 57, 10**400 + 1]


# the shared table above is warm, so these start fresh tables at chosen
# frontiers k: untouched (k = 1), below, at, just above and far above nmax
@pytest.mark.parametrize("nmax", [0, 1, 2, 40, 150])
def test_mod_table_resumes_from_any_frontier(nmax):
    for k in sorted({1, 2, nmax // 2, nmax - 1, nmax, nmax + 1, nmax + 2, 4 * nmax + 60}):
        for m in MODULI:
            table = BellTable()
            table.extend(k)
            before = table.max_index
            assert table.mod_table(nmax, m) == [bell(n) % m for n in range(nmax + 1)], (k, m)
            assert table.max_index == before  # a first call never grows


def test_mod_table_reads_a_consistent_snapshot():
    # one thread grows a fresh table row by row while another reads residues
    # past its frontier; each read must see a frontier, its row and B_0..B_k
    # together.  A version that reduced B_0..B_k before reading the row,
    # outside the lock, failed this test in each of five runs.
    nmax, m = 260, 257
    expected = [bell(n) % m for n in range(nmax + 1)]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for trial in range(1, 7):
            table = BellTable()
            grower = threading.Thread(target=lambda: [table.extend(n) for n in range(2, nmax - 10)])

            def read():
                while grower.is_alive() or len(results) < 100 * trial:
                    results.append(table.mod_table(nmax, m))

            reader = threading.Thread(target=read)
            grower.start()
            reader.start()
            grower.join(timeout=60)
            reader.join(timeout=60)
            assert not grower.is_alive() and not reader.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * len(results)


def _at(k):
    table = BellTable()
    table.extend(k)
    return table


def _calls_until_growth(table, nmax, m, calls=60):
    """The frontier after each of up to ``calls`` calls of ``mod_table(nmax, m)``,
    stopping at the first that grew it; every result must be exact."""
    expected, frontiers = [bell(n) % m for n in range(nmax + 1)], []
    while len(frontiers) < calls and (not frontiers or frontiers[-1] == frontiers[0]):
        assert table.mod_table(nmax, m) == expected
        frontiers.append(table.max_index)
    return frontiers


def _check_table(table):
    # one consistent frontier k: B_0..B_k, and the triangle row ending in B_k
    k = table.max_index
    assert table._values == [bell(n) for n in range(k + 1)]
    assert len(table._row) == k and table._row[-1] == bell(k)


@pytest.mark.parametrize("m", [257, 10**6 + 3, 10**400 + 1], ids=["257", "10^6+3", "10^400+1"])
def test_mod_table_grows_once_repeated_calls_have_paid(m):
    table = _at(300)
    frontiers = _calls_until_growth(table, 320, m)
    assert len(frontiers) > 1 and frontiers == [300] * (len(frontiers) - 1) + [320]
    _check_table(table)
    assert _calls_until_growth(table, 320, m, 5) == [320] * 5  # then it only reads
    assert table.mod_table(330, m) == [bell(n) % m for n in range(331)]
    assert table.max_index == 320  # a first call at the new frontier


def test_mod_table_prices_a_wide_modulus_by_its_digits():
    # residues mod 10^400 + 1 (45 digits) cost several times those mod 257,
    # so repeated calls pay for the same growth sooner
    narrow = _calls_until_growth(_at(300), 320, 257)
    wide = _calls_until_growth(_at(300), 320, 10**400 + 1)
    assert narrow[-1] == wide[-1] == 320
    assert 1 < len(wide) < len(narrow)


@pytest.mark.parametrize("k, nmax", [(1, 150), (1, 400), (300, 320), (300, 600)])
def test_mod_table_buys_only_after_paying_the_real_growth(k, nmax):
    # the rent paid before the growth covers the digit additions that
    # growing B_(k+1)..B_nmax takes, far from the frontier too
    table = _at(k)
    growth = sum(i * -(-bell(i).bit_length() // 30) for i in range(k + 1, nmax + 1))
    paid = []
    while table.max_index == k and len(paid) < 100:
        paid.append(table._rent[1] if table._rent[0] == k else 0)
        assert table.mod_table(nmax, 257) == [bell(n) % 257 for n in range(nmax + 1)]
    assert table.max_index == nmax and len(paid) > 1 and paid[-1] >= growth


def test_mod_table_count_restarts_when_the_frontier_moves():
    m = 10**6 + 3
    calls = len(_calls_until_growth(_at(300), 320, m))
    table = _at(300)
    _calls_until_growth(table, 320, m, calls - 1)  # one call short of the growth
    assert table.max_index == 300
    table.extend(301)  # another caller moves the frontier
    frontiers = _calls_until_growth(table, 320, m)
    assert len(frontiers) > 1 and frontiers[0] == 301 and frontiers[-1] == 320
    _check_table(table)


def test_mod_table_buy_races_an_extend():
    # two readers call past frontier 300 until one of them buys, while a
    # third thread moves the frontier row by row; every result must be
    # exact and the table must end at one consistent frontier
    moduli = (257, 10**6 + 3)
    expected = {m: [bell(n) % m for n in range(321)] for m in moduli}
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            table = _at(300)
            barrier = threading.Barrier(3)

            def read(m):
                barrier.wait(timeout=30)
                for _ in range(8):
                    results.append((m, table.mod_table(320, m)))

            def grow():
                barrier.wait(timeout=30)
                for n in range(301, 311):
                    table.extend(n)

            threads = [threading.Thread(target=read, args=(m,)) for m in moduli]
            threads.append(threading.Thread(target=grow))
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert table.max_index in (310, 320)
            _check_table(table)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 6 * 16
    assert all(values == expected[m] for m, values in results)


def _csv_of(values):
    return "n,bell\n" + "".join("%d,%d\n" % row for row in enumerate(values))


# The CLI keeps the text that `bell --max` prints (cli._bell_csv); the table
# holds numbers only.  These tests start each text from the header.
_NO_TEXT = ("n,bell\n", (7,))


def test_text_formats_each_value_once(monkeypatch):
    formatted = []

    def spy(x):
        formatted.append(x)
        return exact_text(x)

    monkeypatch.setattr(cli, "exact_text", spy)
    monkeypatch.setattr(cli, "_bell_text", _NO_TEXT)
    csv = cli._bell_csv
    assert csv(0) == "n,bell\n0,1\n" and csv(10) == _csv_of(BELL_SMALL)
    first, again = csv(40), csv(60)
    assert first == _csv_of(bell(n) for n in range(41)) and again.startswith(first)
    assert csv(60) is again  # the kept text itself at its last line
    assert csv(7) == _csv_of(BELL_SMALL[:8])
    assert formatted == [bell(n) for n in range(61)]  # each once, in order
    assert csv(5) == "n,bell\n0,1\n1,1\n2,2\n3,5\n4,15\n5,52\n"
    with pytest.raises(ValueError):
        csv(-1)


def test_text_reads_are_consistent_while_the_table_grows(monkeypatch):
    # one thread grows a fresh table row by row while two others read CSV
    # text at rising sizes, each extending the table and the text; every read
    # must equal the CSV of the exact values, with no line lost or repeated
    nmax = 300
    expected = _csv_of(bell(n) for n in range(nmax + 1))
    # stops[k + 1] ends the line of B_k
    stops = list(accumulate(map(len, expected.splitlines(keepends=True))))
    sizes = range(nmax + 1)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            table = BellTable()
            monkeypatch.setattr(exactnum, "_BELL", table)
            monkeypatch.setattr(cli, "_bell_text", _NO_TEXT)
            grower = threading.Thread(target=lambda: [table.extend(n) for n in range(2, nmax + 1)])
            readers = [threading.Thread(target=lambda: results.extend((k, cli._bell_csv(k)) for k in sizes))
                       for _ in range(2)]
            for th in [grower] + readers:
                th.start()
            for th in [grower] + readers:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in [grower] + readers)
            assert cli._bell_csv(nmax) == expected
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 12 * len(sizes)
    assert all(text == expected[: stops[k + 1]] for k, text in results)


def test_text_grows_in_one_join(monkeypatch):
    # extending the text from B_600 to B_1200 holds the new lines beside the
    # text joined from them, 1.83 times the text's bytes; joining the new
    # lines apart and then appending them to the kept text peaks at 2.59
    monkeypatch.setattr(cli, "_bell_text", _NO_TEXT)
    bell_table(1200)
    cli._bell_csv(600)
    tracemalloc.start()
    try:
        text = cli._bell_csv(1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * sys.getsizeof(text)
    assert text == _csv_of(bell(n) for n in range(1201))


def _triangle_row(k):
    """Row k of the Bell triangle, one unchunked prefix sum per row."""
    row = [1]
    for _ in range(k - 1):
        row = list(accumulate(row, initial=row[-1]))
    return row


def test_growth_keeps_about_one_row_alive():
    # growing B_701..B_800 may hold the new values, the last row and the
    # chunk being summed, about 1.35 times that row's bytes with 256-entry
    # chunks; a growth that keeps row n alive while it builds row n + 1
    # peaks at about 2.0 times, and fails this bound
    table = BellTable()
    table.extend(700)
    tracemalloc.start()
    try:
        table.extend(800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    new_values = sum(map(sys.getsizeof, table._values[701:]))
    row = sys.getsizeof(table._row) + sum(map(sys.getsizeof, table._row))
    assert peak < new_values + 1.5 * row
    assert table._row == _triangle_row(800)
    assert table._values == [bell(n) for n in range(801)]


def test_interrupted_growth_leaves_the_row_whole(monkeypatch):
    # row 600 is summed in three chunks; an interrupt halfway through the
    # second leaves row 600 and B_0..B_600 as they were, and growth resumes
    # exactly
    table = BellTable()
    table.extend(600)
    calls = []

    def interrupted(part, initial):
        calls.append(initial)
        for i, total in enumerate(accumulate(part, initial=initial)):
            if len(calls) == 2 and i == 100:
                raise KeyboardInterrupt
            yield total

    monkeypatch.setattr(exactnum, "accumulate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        table.extend(601)
    monkeypatch.undo()
    assert len(calls) == 2 and table.max_index == 600
    assert table._row == _triangle_row(600)
    table.extend(610)
    assert table._row == _triangle_row(610)
    assert table._values == [bell(n) for n in range(611)]


def test_bell_table_reads_the_values_at_once():
    assert bell_table(0) == [1] and bell_table(10) == BELL_SMALL
    assert bell_table(320) == [bell(n) for n in range(321)]
    with pytest.raises(ValueError):
        bell_table(-1)


@given(st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=20),
       st.integers(min_value=5, max_value=9))
@example([2**40 - 1, 0, 1, 0], 5)  # a full slot, a zero slot and a trailing zero slot
def test_unpack_reads_every_slot(counts, size):
    packed = sum(c << 8 * size * i for i, c in enumerate(counts))
    assert unpack(packed, size) == {i: c for i, c in enumerate(counts) if c}


def _with_digit_limit(limit, fn, *args):
    """``fn(*args)`` under CPython's int-to-str digit limit ``limit`` (0 lifts
    it); the limit in force before is restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(saved)


def _check_exact_text(x):
    # the reference is formatted with no limit; exact_text runs under the
    # smallest limit CPython accepts, so no str call of its own may pass 640
    want = _with_digit_limit(0, str, x)
    assert _with_digit_limit(640, exact_text, x) == want


@pytest.mark.parametrize("k", [0, 599, 600, 601, 639, 640, 4299, 4300, 4301, 5000])
@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_exact_text_equals_str(k, d, sign):
    # 10^k - 1, 10^k and 10^k + 1 about the split (near 10^600) and the
    # default limit (4300 digits); 10^5000 and 10^5000 + 1 leave a low piece
    # of zeros, and k = 0 gives 0 and +-1
    _check_exact_text(sign * (10**k + d))


def test_exact_text_of_fractions_and_split_edges_equals_str():
    for x in [Fraction(10**5000 + 1), Fraction(-7, 1), Fraction(0), Fraction(3, 10**600 + 1),
              Fraction(1, 10**4400 + 3), Fraction(-(10**4301) - 1, 10**6000 + 7)]:
        _check_exact_text(x)
    for bits in (1992, 1993, 1994):  # ints up to 1993 bits are formatted whole
        for x in (2**bits - 1, 2**bits, -(2**bits)):
            _check_exact_text(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=66440).flatmap(lambda b: st.integers(-(2**b), 2**b)))
@example(3**41900)  # 19,992 digits
@example(-(10**19999) - 1)
def test_exact_text_of_any_int_up_to_20000_digits(x):
    _check_exact_text(x)


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
