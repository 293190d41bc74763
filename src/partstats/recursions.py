"""Polynomial-time recursions for dimension and crossing-count distributions.

Both recursions run over "marked" partitions (each block open or
closed); the open-block count A is the extra DP state that makes a
layer at n derivable from the layer at n-1.  The A=0 slice of a layer
is the honest distribution over ordinary set partitions.

The module keeps no state: each front end runs the DP once per call.  One
pruned moments run to N is exact for every n <= N; a caller that repeats
requests keeps what it needs, as the CLI does.
"""

from __future__ import annotations

from collections import Counter, deque
from math import comb
from operator import mul

from .exactnum import bell, unpack
from .partitions import MarkedSetPartition, crossing_count


# ---------------------------------------------------------------------------
# marked-weight oracles (brute force; used by the tests against the DPs)
# ---------------------------------------------------------------------------

def marked_dimension(mu: MarkedSetPartition) -> int:
    """The sum of f - e - 1 over the arcs (e, f) of ``mu``, open ones included.

    With no open block this is the dimension exponent of the partition.
    """
    return sum(f - e - 1 for e, f in mu.arcs())


def marked_intertwining(mu: MarkedSetPartition) -> int:
    """The crossing pairs among the arcs of ``mu``, open ones included.

    An open block's arc (max, n + 1) is crossed by every arc (e, f) with
    e < max < f: whatever element later joins that block lands beyond f.
    With no open block this is the number of 2-crossings.
    """
    return crossing_count(mu.arcs())


# ---------------------------------------------------------------------------
# one transfer DP for both exponents
# ---------------------------------------------------------------------------

# target -> (d, a -> (P0, P1)).  P0 and P1 are the weight polynomials
# {shift: count} of a new element meeting a open blocks.  P0: it opens a
# block (A: a -> a+1) or is a closed singleton (a -> a).  P1: it extends an
# open block, which stays open (a -> a) or closes (a -> a-1).  Packed rows
# multiply by the few terms of d * P and divide their sum by d unless d = 1:
# for int, (x - 1)(1 + x + ... + x^(a-1)) = x^a - 1.
_STEPS = {
    "dim": ({0: 1}, lambda a: ({a: 1}, {a - 1: a} if a else {})),
    "int": ({0: -1, 1: 1}, lambda a: ({0: 1}, dict.fromkeys(range(a), 1))),
}


def _layers(target: str, n: int, table: bool, kmax: int = 0, slot: int = 0):
    """Yield the rows of layers 0..n; row A is the marked partitions with A open blocks.

    With ``slot`` a row is its weight polynomial packed into one integer,
    ``slot`` bits per coefficient (Kronecker substitution); otherwise it
    is the power sums M_0..M_kmax of its weights.  Unless ``table``, rows
    that cannot close their blocks by layer n are dropped.
    """
    if n < 0 or kmax < 0:
        raise ValueError("n and kmax must be nonnegative")
    d, step = _STEPS[target]
    # per row a: the polynomials of the moves from rows a-1, a and a+1.  A
    # generator: int's hold about a terms, so each is freed once it is used
    moves = ((step(a - 1)[0] if a else {}, Counter(step(a)[0]) + Counter(step(a)[1]),
              step(a + 1)[1]) for a in range(n + 1))
    if slot:
        den = sum(c << slot * s for s, c in d.items())
        terms = [[(j, c, slot * s) for j, p in enumerate(m) for s, c in _times(p, d).items() if c]
                 for m in moves]
        zero, rows = 0, [1]

        def combine(a, *v):
            row = sum(v[j] * c << s for j, c, s in terms[a])
            return row // den if den > 1 else row
    else:
        # M_j(row * P) = sum_i C(j, i) M_i(row) N_{j-i}(P), N_t the power sums of P
        ks = range(kmax + 1)
        mats = []
        for m in moves:
            sums = [[sum(c * s ** t for s, c in p.items()) for t in ks] for p in m]
            mats.append([[comb(j, i) * ns[j - i] if i <= j else 0 for ns in sums for i in ks]
                         for j in ks])
        zero, rows = [0] * (kmax + 1), [[1] + [0] * kmax]

        def combine(a, lo, mid, hi):
            v = lo + mid + hi
            return [sum(map(mul, r, v)) for r in mats[a]]
    yield rows
    for i in range(1, n + 1):
        p = rows + [zero, zero]  # p[-1] is the empty row below A = 0
        top = i if table else min(i, n - i)
        rows = [combine(a, p[a - 1], p[a], p[a + 1]) for a in range(top + 1)]
        yield rows


def _times(p: dict, q: dict) -> Counter:
    """The product of two polynomials {shift: coefficient}."""
    out = Counter()
    for t, e in q.items():
        out.update({s + t: c * e for s, c in p.items()})
    return out


def _cells(target: str, n: int, table: bool) -> dict:
    """{(A, B): count} of layer n."""
    # every packed coefficient is at most the count of all marked partitions
    # of [n], T_n(2) = sum_j C(n, j) B_j B_(n-j) (Touchard polynomials are of
    # binomial type); deque(..., 1) keeps only the last layer
    total = sum(comb(n, j) * bell(j) * bell(n - j) for j in range(n + 1))
    size = (total.bit_length() + 7) // 8
    rows = deque(_layers(target, n, table, slot=8 * size), 1).pop()
    return {(a, b): c for a, row in enumerate(rows) for b, c in unpack(row, size).items()}


def _distribution(target: str, n: int) -> dict:
    """Counts of ordinary partitions of [n] by weight: the A = 0 row of layer n."""
    return {b: c for (_, b), c in _cells(target, n, False).items()}


def _moments(target: str, kmax: int, nmax: int) -> list:
    """The power sums M_0..M_kmax of n = 0..nmax, from one pruned run to nmax."""
    return [rows[0] for rows in _layers(target, nmax, False, kmax)]


# ---------------------------------------------------------------------------
# front ends: dimension and intertwining exponents
# ---------------------------------------------------------------------------

def dim_table(n: int) -> dict:
    """{(A, B): f(n; A, B)}: marked partitions with A open blocks and weight B."""
    return _cells("dim", n, True)


def dim_distribution(n: int) -> dict:
    """Counts of ordinary partitions of [n] by dimension exponent."""
    return _distribution("dim", n)


def dim_moments_range(kmax: int, nmax: int) -> list:
    """[M(d^0;n)..M(d^kmax;n)] for every n in 0..nmax, all exact integers."""
    return _moments("dim", kmax, nmax)


def dim_moments(kmax: int, n: int) -> list:
    """Exact M(d^k; n) for k = 0..kmax."""
    return _moments("dim", kmax, n)[n]


def int_table(n: int) -> dict:
    """{(A, B): f_i(n; A, B)}: marked partitions by open blocks and crossing weight."""
    return _cells("int", n, True)


def int_distribution(n: int) -> dict:
    """Counts of ordinary partitions of [n] by number of 2-crossings."""
    return _distribution("int", n)


def int_moments_range(kmax: int, nmax: int) -> list:
    """[M(i^0;n)..M(i^kmax;n)] for n = 0..nmax, all exact integers."""
    return _moments("int", kmax, nmax)


def int_moments(kmax: int, n: int) -> list:
    """Exact M(i^k; n) for k = 0..kmax."""
    return _moments("int", kmax, n)[n]


def moments_cost(kmax: int, n: int) -> int:
    """An estimate of the work of ``dim_moments``/``int_moments(kmax, n)``.

    The binomial transforms hold (n + 1) * 3(kmax + 1)^2 entries with
    kmax-bit binomials, about (n + 1)(kmax + 1)^3 in all.  The layers apply
    them to about n^2 / 4 rows of (kmax + 1) power sums whose bit length grows
    with n + kmax: about (n + 1)^2 (kmax + 1)^2 (n + kmax + 1).  The factor
    64 weights the first term against the second, as measured.
    """
    return (n + 1) * (kmax + 1) ** 2 * ((n + 1) * (n + kmax + 1) + 64 * (kmax + 1))
