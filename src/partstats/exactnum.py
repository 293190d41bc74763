"""Exact big integers: Bell and Stirling numbers, and packed histograms.

Everything here is exact. Python ints carry the arbitrary-precision
integer arithmetic and ``fractions.Fraction`` is used for rationals
throughout the package.  ``exact_text`` is the one formatter of computed
numbers: it prints them at any size and never touches CPython's
process-wide int-to-str digit limit, which keeps guarding input parsing.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate, islice
from operator import sub


def exact_text(x: int | Fraction) -> str:
    """``str(x)`` as it reads with no int-to-str digit limit.

    B_n has more than 4300 digits, CPython's default limit, from n = 1981
    on.  An int of more than 1993 bits (about 10^600) is split by a power of
    ten into halves that are formatted apart, the low half zero-filled, so
    every ``str`` call stays below 640 digits, the smallest limit CPython
    accepts.
    """
    if isinstance(x, Fraction):
        den = x.denominator
        return exact_text(x.numerator) + ("/" + exact_text(den) if den != 1 else "")
    if x < 0:
        return "-" + exact_text(-x)
    bits = x.bit_length()
    if bits <= 1993:  # x < 2^1993 < 10^600
        return str(x)
    k = bits * 3 // 20  # 10^k < sqrt(x), so the high half is nonzero
    hi, lo = divmod(x, 10**k)
    return exact_text(hi) + exact_text(lo).zfill(k)


# mod_table counts work in digit additions, one 30-bit digit of a big-int sum:
# 1.34 ns in growing B_3002..B_3040 (CPython 3.11.7, 2-vCPU x86-64).  Row 3002
# took 8.5 ns a digit to reduce mod 999983 and the residue rows after it 39 ns
# a cell.  Each 30-bit digit of the modulus past its first adds about 2 digit
# additions to both: per digit reduced and per cell, 18 and 45 at 2 digits,
# 29 and 51 at 10, 48 and 67 at 20, 78 and 102 at 45 (M = 10^400 + 1).
_REDUCE_COST = 7  # digit additions per digit reduced, for a one-digit modulus
_CELL_COST = 27  # digit additions per residue-triangle cell, likewise
_WIDE_COST = 2  # digit additions added to each per further digit of the modulus


# entries of a triangle row summed and freed at a time by BellTable._grow: a
# small fraction of the rows that dominate memory (thousands of entries), so
# at most one row and a chunk are alive, yet enough that the Python loop over
# chunks costs nothing next to the C-level sums
_CHUNK = 256


class BellTable:
    """Memoized Bell numbers B_0..B_max computed via the Bell triangle.

    The triangle rows also satisfy the binomial recurrence
    B_{n+1} = sum_k C(n,k) B_k; a table instance only ever grows.
    Extension is guarded by a lock so a shared table is safe to grow
    from multiple threads; reads of already-computed entries are free.
    The decimal text of each B_n is made at most once, on demand, and kept
    in one CSV text; see ``csv``.
    """

    def __init__(self) -> None:
        self._values = [1, 1]  # B_0, B_1
        self._row = [1]  # latest triangle row; last entry is B_1
        self._csv = "n,bell\n"  # header, then "n,B_n" lines for n < len(_ends) - 1
        self._ends = [len(self._csv)]  # _ends[n + 1] is the end of the line of B_n
        self._rent = (1, 0)  # (frontier, residue work done past it), see mod_table
        self._lock = threading.Lock()

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    def extend(self, n: int) -> None:
        """Ensure B_0..B_n are available."""
        if n <= self.max_index:
            return
        with self._lock:
            self._grow(n)

    def _grow(self, n: int) -> None:
        # the caller holds the lock, which is not re-entrant.  Row k + 1 is
        # built a chunk at a time while row k is emptied in place, so about
        # one row of big ints is alive rather than two.
        while self.max_index < n:
            old = self._row
            size, row = len(old), [old[-1]]
            try:
                while old:
                    part = old[:_CHUNK]
                    row += islice(accumulate(part, initial=row[-1]), 1, None)
                    del old[:_CHUNK]
            except BaseException:
                # put the entries already deleted back, the steps of the new
                # row, so an interrupted growth leaves row k whole
                done = size - len(old)
                old[:0] = map(sub, row[1: done + 1], row[:done])
                raise
            self._row = row
            self._values.append(row[-1])

    def mod_table(self, nmax: int, m: int) -> list[int]:
        """B_0..B_nmax reduced mod m, from the B_n the table holds.

        Up to the table's frontier k each value is B_n % m.  Past it the
        triangle goes on mod m from row k: each row is one prefix sum of
        the row before, so it is nondecreasing and its last entry bounds
        the rest.  Reduction mod m is exact whenever it is done, so a row
        is reduced only once that entry passes m * 2^100: the entries stay
        below about m * 2^100 * nmax, and most rows cost one C-level
        ``accumulate`` and no division.

        Rent or buy: the table counts the residue work of calls past its
        frontier k, dearer for a modulus of more 30-bit digits.  Once that
        count reaches an upper bound on the work of growing to nmax, a call
        grows the table instead, so a first call at a frontier never grows
        it.  A move of the frontier restarts the count.
        """
        if nmax < 0:
            raise ValueError("nmax must be nonnegative")
        if m < 2:
            raise ValueError("modulus must be at least 2")
        with self._lock:  # the frontier, its row and B_0..B_k, read together
            k, bits = self.max_index, self._row[-1].bit_length()
            if nmax > k:
                paid = self._rent[1] if self._rent[0] == k else 0
                # B_i <= i * B_(i-1): nmax - k new rows of <= nmax entries of <= top digits
                top = (bits + (nmax - k) * nmax.bit_length()) // 30 + 1
                if paid >= (nmax - k) * nmax * top:
                    self._grow(nmax)
                else:
                    wide = _WIDE_COST * ((m.bit_length() - 1) // 30)
                    self._rent = (k, paid + (_REDUCE_COST + wide) * k * (bits // 30 + 1)
                                  + (_CELL_COST + wide) * (nmax - k) * (nmax + k + 1) // 2)
            # a copy: growth empties the row list in place
            row, held = self._row[:], self._values[: nmax + 1]
        values = [b % m for b in held]
        if len(values) <= nmax:  # row[-1] is B_k, the last value held
            bound = m << 100
            row = list(map(m.__rmod__, row))
            while len(values) <= nmax:
                row = list(accumulate(row, initial=row[-1]))
                if row[-1] > bound:
                    row = list(map(m.__rmod__, row))
                values.append(row[-1] % m)
        return values

    def csv(self, nmax: int) -> str:
        """The text ``n,bell`` then one ``n,B_n`` line for n = 0..nmax, each
        line ending in a newline.  Each B_n is formatted once per table by
        ``exact_text`` (CPython's int-to-str is quadratic in the digits) and
        kept in one CSV text, of which this is a prefix: the text itself
        when nmax is the largest n formatted so far."""
        if nmax < 0:
            raise ValueError("nmax must be nonnegative")
        self.extend(nmax)  # before the lock, which is not re-entrant
        with self._lock:
            ends = self._ends
            if len(ends) <= nmax + 1:
                start = len(ends) - 1
                # the held text and the new lines in one join, so the text
                # is built in one copy beside the lines; the text and its
                # offsets change together, once nothing more can fail
                lines = [self._csv]
                lines += ("%d,%s\n" % (i, exact_text(b))
                          for i, b in enumerate(self._values[start: nmax + 1], start))
                stops = list(islice(accumulate(map(len, lines)), 1, None))
                self._csv = "".join(lines)
                ends += stops
            return self._csv[: ends[nmax + 1]]

    def values(self, nmax: int) -> list[int]:
        """B_0..B_nmax, read at once."""
        if nmax < 0:
            raise ValueError("nmax must be nonnegative")
        self.extend(nmax)
        return self._values[: nmax + 1]

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError("Bell numbers are indexed by naturals, got %d" % n)
        self.extend(n)
        return self._values[n]


_BELL = BellTable()


def bell(n: int) -> int:
    """The nth Bell number, the number of set partitions of [n]."""
    return _BELL[n]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires nonnegative arguments")
    if k > n:
        return 0
    row = [1]  # S(m,0)..S(m,m)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m)] + [1]
    return row[k]


def unpack(packed: int, size: int) -> dict:
    """{i: count} of the nonzero slots of ``packed``, ``size`` bytes each, lowest first."""
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    counts = (int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size))
    return {i: c for i, c in enumerate(counts) if c}


def bell_table(nmax: int) -> list[int]:
    """B_0..B_nmax from the shared table, in one read; see ``bell`` for one."""
    return _BELL.values(nmax)


def bell_mod_table(nmax: int, m: int) -> list[int]:
    """B_0..B_nmax reduced mod m; see ``BellTable.mod_table``."""
    return _BELL.mod_table(nmax, m)


def bell_csv(nmax: int) -> str:
    """``bell --max nmax``'s CSV text of B_0..B_nmax; see ``BellTable.csv``."""
    return _BELL.csv(nmax)


def bell_mod(n: int, m: int) -> int:
    """B_n mod m.  Grows the shared exact table only once calls past its
    frontier have paid for that; see ``BellTable.mod_table``."""
    return _BELL.mod_table(n, m)[n]
