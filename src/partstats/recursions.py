"""Polynomial-time recursions for dimension and crossing-count distributions.

Both recursions run over "marked" partitions (each block open or
closed); the open-block count A is the extra DP state that makes a
layer at n derivable from the layer at n-1.  The A=0 slice of a layer
is the honest distribution over ordinary set partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import MarkedSetPartition, crossing_count


@dataclass(frozen=True)
class DistLayer:
    """Exact counts f(n; A, B) keyed by (open blocks A, weight B)."""

    n: int
    cells: dict

    def a_slice(self, a: int = 0) -> dict:
        return {b: c for (aa, b), c in self.cells.items() if aa == a}

    def total(self) -> int:
        return sum(self.cells.values())


# ---------------------------------------------------------------------------
# marked-weight oracles (brute force; used by the tests against the DPs)
# ---------------------------------------------------------------------------

def marked_dimension(mu: MarkedSetPartition) -> int:
    """Closed-block maxima minus all minima, plus blocks, plus n*(open-1).

    Equals the dimension exponent of the underlying partition when no
    block is open.
    """
    blocks = mu.base.blocks()
    total = 0
    for b, is_open in zip(blocks, mu.open_flags):
        if not is_open:
            total += b[-1]
        total -= b[0]
    return total + len(blocks) + mu.base.n * (mu.open_count - 1)


def marked_intertwining(mu: MarkedSetPartition) -> int:
    """Interlaced arc pairs, plus pending crossings against open blocks.

    A pending crossing is an (arc (e, f), open block) pair whose block
    maximum lies strictly inside the arc: whatever element later joins
    that still-open block must land beyond f and complete a crossing.
    With no open blocks this is exactly the number of 2-crossings.
    """
    lam = mu.base
    arcs = lam.arcs()
    total = crossing_count(arcs)
    blocks = lam.blocks()
    for b, is_open in zip(blocks, mu.open_flags):
        if is_open:
            last = b[-1]
            total += sum(1 for e, f in arcs if e < last < f)
    return total


# ---------------------------------------------------------------------------
# dimension exponent
# ---------------------------------------------------------------------------

def dim_table(n: int) -> DistLayer:
    """f(n; A, B): marked partitions with A open blocks and weight B.

    Layer recursion: the new element joins as an open singleton, a
    closed singleton, extends an open block, or extends-and-closes one.
    """
    layer = {(0, 0): 1}
    for _ in range(n):
        nxt: dict = {}
        for (a, b), c in layer.items():
            # new element as an open singleton
            _add(nxt, a + 1, b + a, c)
            # new element as a closed singleton
            _add(nxt, a, b + a, c)
            if a:
                # appended to one of the a open blocks, block stays open
                _add(nxt, a, b + a - 1, a * c)
                # appended to one of the a open blocks, block closes
                _add(nxt, a - 1, b + a - 1, a * c)
        layer = nxt
    return DistLayer(n, layer)


def _add(cells: dict, a: int, b: int, c: int) -> None:
    key = (a, b)
    cells[key] = cells.get(key, 0) + c


def dim_distribution(n: int) -> dict:
    """Counts of ordinary partitions of [n] by dimension exponent."""
    return dim_table(n).a_slice(0)


def dim_moments_range(kmax: int, nmax: int) -> list:
    """[M(d^0;n)..M(d^kmax;n)] for every n in 0..nmax, all exact integers.

    Never materializes the weight axis: tracks, per open-block count A,
    the power sums of the marked weight up to order kmax.
    """
    from math import comb

    # cur[k][A] = M_k(d; current layer, A)
    cur = [[1 if k == 0 else 0] for k in range(kmax + 1)]
    out = [[cur[k][0] for k in range(kmax + 1)]]
    for n in range(1, nmax + 1):
        prev = cur
        amax_prev = len(prev[0]) - 1
        cur = [[0] * (n + 1) for _ in range(kmax + 1)]
        for a in range(n + 1):
            for k in range(kmax + 1):
                acc = 0
                # open singleton added: from (a-1), weight shift a-1
                if 0 <= a - 1 <= amax_prev:
                    acc += _shifted(prev, k, a - 1, a - 1, comb)
                # closed singleton: from a, weight shift a
                if a <= amax_prev:
                    acc += _shifted(prev, k, a, a, comb)
                    # extend an open block, stays open: multiplicity a, shift a-1
                    if a:
                        acc += a * _shifted(prev, k, a, a - 1, comb)
                # extend an open block and close it: from a+1, shift a
                if a + 1 <= amax_prev:
                    acc += (a + 1) * _shifted(prev, k, a + 1, a, comb)
                cur[k][a] = acc
        out.append([cur[k][0] for k in range(kmax + 1)])
    return out


def _shifted(prev: list, k: int, a: int, delta: int, comb) -> int:
    """sum_j C(k,j) delta^(k-j) M_j(prev layer, A=a)."""
    acc = 0
    for j in range(k + 1):
        acc += comb(k, j) * delta ** (k - j) * prev[j][a]
    return acc


def dim_moments(kmax: int, n: int) -> list:
    """Exact M(d^k; n) for k = 0..kmax."""
    return dim_moments_range(kmax, n)[n]


# ---------------------------------------------------------------------------
# intertwining exponent
# ---------------------------------------------------------------------------

def _int_layers(nmax: int):
    """Yield (n, rows) for n = 0..nmax; rows[A] is a dense list over B."""
    rows = [[1]]
    yield 0, rows
    for n in range(1, nmax + 1):
        bmax_prev = max(len(r) for r in rows) - 1
        amax = n
        bmax = bmax_prev + n  # weight can grow by at most the old open count
        # prefix sums per A-row of the previous layer
        prefix = []
        for r in rows:
            p = [0] * (len(r) + 1)
            for i, v in enumerate(r):
                p[i + 1] = p[i] + v
            prefix.append(p)

        def row_get(a: int, b: int) -> int:
            if a < 0 or a >= len(rows) or b < 0 or b >= len(rows[a]):
                return 0
            return rows[a][b]

        def row_range(a: int, lo: int, hi: int) -> int:
            # sum over b in [lo, hi] of rows[a][b]
            if a < 0 or a >= len(rows) or hi < 0:
                return 0
            lo = max(lo, 0)
            hi = min(hi, len(rows[a]) - 1)
            if lo > hi:
                return 0
            p = prefix[a]
            return p[hi + 1] - p[lo]

        nxt = []
        for a in range(amax + 1):
            row = [0] * (bmax + 1)
            for b in range(bmax + 1):
                v = row_get(a, b)  # closed singleton
                v += row_get(a - 1, b)  # open singleton
                v += row_range(a + 1, b - a, b)  # close one of a+1 open blocks
                if a:
                    v += row_range(a, b - a + 1, b)  # extend an open block
                row[b] = v
            while row and row[-1] == 0:
                row.pop()
            nxt.append(row)
        while nxt and not nxt[-1]:
            nxt.pop()
        rows = nxt
        yield n, rows


def int_table(n: int) -> DistLayer:
    """f_i(n; A, B): marked partitions by open blocks and crossing weight."""
    for m, rows in _int_layers(n):
        if m == n:
            cells = {}
            for a, row in enumerate(rows):
                for b, c in enumerate(row):
                    if c:
                        cells[(a, b)] = c
            return DistLayer(n, cells)
    raise AssertionError("unreachable")


def int_distribution(n: int) -> dict:
    """Counts of ordinary partitions of [n] by number of 2-crossings."""
    return int_table(n).a_slice(0)


def int_moments_range(kmax: int, nmax: int) -> list:
    """[M(i^0;n)..M(i^kmax;n)] for n = 0..nmax, via the distribution DP."""
    out = []
    for _, rows in _int_layers(nmax):
        slice0 = rows[0] if rows else []
        out.append([sum(c * b ** k for b, c in enumerate(slice0)) for k in range(kmax + 1)])
    return out


def int_moments(kmax: int, n: int) -> list:
    return int_moments_range(kmax, n)[n]
