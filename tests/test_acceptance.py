"""Acceptance suite: eleven end-to-end checks, one test per criterion.

Each test prints its own pass line; the terminal summary (see conftest)
additionally reports one line per criterion after the run.
"""

import math
from fractions import Fraction

from partstats.asymptotics import (
    dim_moment_asym,
    int_moment_asym,
    log_bell_asym,
    log_bell_exact,
)
from partstats.exactnum import bell, bell_mod_table
from partstats.partitions import enumerate_partitions, marked_enumerate
from partstats.recursions import (
    dim_distribution,
    dim_moments_range,
    dim_table,
    int_distribution,
    int_table,
    marked_dimension,
    marked_intertwining,
)
from partstats.shifted_bell import (
    ShiftedBellPolynomial,
    default_sample_points,
    fit,
    profile_dim,
    profile_generic,
    profile_int,
)
from partstats.statistics import aggregate, builtin

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440]


def _ok(num: int, message: str) -> None:
    print("criterion %d PASS: %s" % (num, message))


def _row(values, start=0):
    return {start + i: v for i, v in enumerate(values) if v}


# ---------------------------------------------------------------------------
# 1. enumeration soundness
# ---------------------------------------------------------------------------

def test_criterion_01_enumeration_counts():
    expected = [bell(n) for n in range(14)]
    for n in range(14):
        assert sum(1 for _ in enumerate_partitions(n)) == expected[n]
    _ok(1, "enumeration count equals the Bell number for n = 0..13 (B_13 = %d)" % expected[13])


# ---------------------------------------------------------------------------
# 2. dimension DP vs enumeration oracles
# ---------------------------------------------------------------------------

def test_criterion_02_dimension_dp_vs_oracle():
    for n in range(10):
        brute: dict = {}
        for mu in marked_enumerate(n):
            key = (mu.open_count, marked_dimension(mu))
            brute[key] = brute.get(key, 0) + 1
        assert dim_table(n) == brute
    d = builtin("dimension")
    for n in range(11):
        hist: dict = {}
        for lam in enumerate_partitions(n):
            v = int(d.evaluate(lam))
            hist[v] = hist.get(v, 0) + 1
        assert dim_distribution(n) == hist
    _ok(2, "dimension DP equals marked histogram (n <= 9) and plain histogram (n <= 10)")


# ---------------------------------------------------------------------------
# 3. published distribution tables
# ---------------------------------------------------------------------------

DIM_ROWS = {
    3: [4, 1],
    4: [8, 4, 3],
    5: [16, 12, 13, 9, 2],
    6: [32, 32, 42, 42, 35, 12, 8],
    7: [64, 80, 120, 145, 159, 133, 86, 52, 32, 6],
    8: [128, 192, 320, 440, 559, 600, 591, 440, 380, 248, 164, 48, 30],
}

INT_ROWS = {
    4: [14, 1],
    5: [42, 9, 1],
    6: [132, 55, 14, 2],
    7: [429, 286, 120, 35, 6, 1],
    8: [1430, 1365, 819, 364, 119, 35, 7, 1],
    9: [4862, 6188, 4900, 2940, 1394, 586, 203, 59, 13, 2],
    10: [16796, 27132, 26928, 20400, 12576, 6846, 3246, 1358, 493, 153, 38, 8, 1],
}


def test_criterion_03_table_fixtures():
    for n, row in DIM_ROWS.items():
        assert dim_distribution(n) == _row(row)
    for n, row in INT_ROWS.items():
        assert int_distribution(n) == _row(row)
    _ok(3, "distribution tables match for dimension (n = 3..8) and intertwining (n = 4..10)")


# ---------------------------------------------------------------------------
# 4. closed-form zero-weight columns
# ---------------------------------------------------------------------------

def test_criterion_04_zero_columns():
    for n in range(1, 21):
        assert dim_table(n).get((0, 0), 0) == 2 ** (n - 1)
    for n in range(15):
        assert int_table(n).get((0, 0), 0) == CATALAN[n]
    _ok(4, "f(n,0,0) = 2^(n-1) for n <= 20 and crossing-free counts are Catalan for n <= 14")


# ---------------------------------------------------------------------------
# 5. fit regressions against published closed forms
# ---------------------------------------------------------------------------

def _fit_moment(kind: str, k: int) -> ShiftedBellPolynomial:
    profile = profile_dim(k) if kind == "dim" else profile_int(k)
    points = default_sample_points(profile)
    if kind == "dim":
        moments = dim_moments_range(k, max(points))
    else:
        from partstats.recursions import int_moments_range

        moments = int_moments_range(k, max(points))
    return fit([(n, moments[n][k]) for n in points], profile)


P3 = {
    0: [0, 1],
    1: [Fraction(-1, 3), 6, 3],
    2: [Fraction(8, 3), -45, -12],
    3: [18, 51, 12, 1],
    4: [Fraction(-131, 3), -45, -6],
    5: [42, 12],
    6: [-8],
}

Q3 = {
    0: [Fraction(19, 192), Fraction(-29, 96), Fraction(1, 16), Fraction(1, 8)],
    1: [Fraction(331, 192), Fraction(-193, 96), Fraction(-17, 16), Fraction(3, 8)],
    2: [Fraction(-25, 6), Fraction(-743, 96), Fraction(-1, 4), Fraction(3, 8)],
    3: [Fraction(775, 64), Fraction(449, 96), Fraction(-1, 16), Fraction(1, 8)],
    4: [Fraction(-451, 32), Fraction(-619, 96), Fraction(-15, 16)],
    5: [Fraction(2045, 192), Fraction(75, 32)],
    6: [Fraction(-125, 64)],
}


def _assert_fit_equals(result: ShiftedBellPolynomial, expected: dict):
    exp = ShiftedBellPolynomial.from_dict(expected)
    assert result == exp, "fit mismatch:\n got %s\n want %s" % (
        result.canonical_text(),
        exp.canonical_text(),
    )


def test_criterion_05_fit_regressions():
    # first dimension moment: -2 B_{n+2} + (n+4) B_{n+1}
    _assert_fit_equals(_fit_moment("dim", 1), {1: [4, 1], 2: [-2]})
    # second dimension moment, with middle coefficient n^2 + 8n + 9
    _assert_fit_equals(
        _fit_moment("dim", 2),
        {0: [0, 1], 1: [-3, -4], 2: [9, 8, 1], 3: [-15, -4], 4: [4]},
    )
    # first two intertwining moments
    _assert_fit_equals(
        _fit_moment("int", 1),
        {
            0: [Fraction(1, 4), Fraction(1, 2)],
            1: [Fraction(9, 4), Fraction(1, 2)],
            2: [Fraction(-5, 4)],
        },
    )
    _assert_fit_equals(
        _fit_moment("int", 2),
        {
            0: [Fraction(-23, 144), Fraction(24, 144), Fraction(36, 144)],
            1: [Fraction(-260, 144), Fraction(72, 144), Fraction(72, 144)],
            2: [Fraction(489, 144), Fraction(156, 144), Fraction(36, 144)],
            3: [Fraction(-814, 144), Fraction(-180, 144)],
            4: [Fraction(225, 144)],
        },
    )
    # full third-moment coefficient blocks
    _assert_fit_equals(_fit_moment("dim", 3), P3)
    _assert_fit_equals(_fit_moment("int", 3), Q3)
    _ok(5, "fitted moment formulas match every published coefficient block exactly")


# ---------------------------------------------------------------------------
# 6. moment recursion consistency
# ---------------------------------------------------------------------------

def test_criterion_06_moment_consistency():
    d = builtin("dimension")
    rows = dim_moments_range(4, 60)
    for n in range(10):
        brute = [0] * 5
        for lam in enumerate_partitions(n):
            v = int(d.evaluate(lam))
            for k in range(5):
                brute[k] += v ** k
        assert rows[n] == brute
    for k in range(1, 5):
        fitted = _fit_moment("dim", k)
        for n in range(61):
            assert fitted.evaluate(n) == rows[n][k]
    _ok(6, "dimension moments agree with enumeration (n <= 9) and fitted formulas (n <= 60, k <= 4)")


# ---------------------------------------------------------------------------
# 7. classical aggregate identities
# ---------------------------------------------------------------------------

def test_criterion_07_classical_aggregates():
    blocks = builtin("blocks")
    levels = builtin("levels")
    for n in range(10):
        assert aggregate(blocks, n) == bell(n + 1) - bell(n)
        for i in range(1, n + 1):
            assert aggregate(builtin("blocks_of_size", i=i), n) == math.comb(n, i) * bell(n - i)
        if n >= 1:
            # one published form of this aggregate is inconsistent with the
            # definition from n=4 on; the merge bijection gives (n-1) B_{n-1},
            # which enumeration confirms
            assert aggregate(levels, n) == (n - 1) * bell(n - 1)
        # falling moments of the block count
        counts = [lam.block_count for lam in enumerate_partitions(n)]
        assert sum(c * (c - 1) for c in counts) == bell(n + 2) - 3 * bell(n + 1) + bell(n)
        assert sum(c * (c - 1) * (c - 2) for c in counts) == (
            bell(n + 3) - 6 * bell(n + 2) + 8 * bell(n + 1) - bell(n)
        )
        for k in (2, 3):
            agg = aggregate(builtin("blocks_choose", k=k), n)
            assert agg == Fraction(sum(math.comb(c, k) for c in counts))
    # general form via the fitter
    profile = profile_generic(1, 1)
    pts = default_sample_points(profile)
    fitted = fit([(n, aggregate(blocks, n)) for n in pts], profile)
    _assert_fit_equals(fitted, {0: [-1], 1: [1]})
    from partstats.exactnum import stirling2

    profile = profile_generic(3, 3)
    pts = default_sample_points(profile)
    samples = [
        (n, sum(math.comb(c, 3) * stirling2(n, c) for c in range(n + 1))) for n in pts
    ]
    fitted = fit(samples, profile)
    _assert_fit_equals(
        fitted,
        {
            0: [Fraction(-1, 6)],
            1: [Fraction(8, 6)],
            2: [Fraction(-6, 6)],
            3: [Fraction(1, 6)],
        },
    )
    # the general form via the fitter; samples come from the merge bijection
    # (collapse i and i+1), which the enumeration loop above validated
    profile = profile_generic(2, 2)
    pts = default_sample_points(profile)
    fitted = fit([(n, (n - 1) * bell(n - 1)) for n in pts], profile)
    _assert_fit_equals(fitted, {-1: [-1, 1]})
    _ok(7, "classical aggregates and block-count falling-moment identities hold (n <= 9)")


# ---------------------------------------------------------------------------
# 8. closure of the statistic algebra under products
# ---------------------------------------------------------------------------

def _make(name):
    if name == "X1":
        return builtin("blocks_of_size", i=1)
    if name == "X2":
        return builtin("blocks_of_size", i=2)
    if name == "cr2":
        return builtin("crossings_k", k=2)
    return builtin(name)


MERGE_PAIRS = [
    ("X1", "X1"),
    ("blocks", "blocks"),
    ("blocks", "X1"),
    ("X1", "X2"),
    ("X1", "levels"),
    ("levels", "levels"),
    ("blocks", "cr2"),
    ("nestings", "X1"),
    ("firsts_sum", "blocks"),
    ("lasts_sum", "X2"),
    ("dimension", "blocks"),
    ("cr2", "nestings"),
]


def test_criterion_08_merge_closure():
    partitions = {n: list(enumerate_partitions(n)) for n in range(8)}
    for name1, name2 in MERGE_PAIRS:
        f1, f2 = _make(name1), _make(name2)
        f3 = f1 * f2
        for n in range(8):
            for lam in partitions[n]:
                assert f3.evaluate(lam) == f1.evaluate(lam) * f2.evaluate(lam)
    x1sq = _make("X1") * _make("X1")
    for n in range(2, 10):
        expected = n * bell(n - 1) + n * (n - 1) * bell(n - 2)
        assert aggregate(x1sq, n) == expected
    _ok(8, "%d merge products are pointwise exact on all partitions with n <= 7" % len(MERGE_PAIRS))


# ---------------------------------------------------------------------------
# 9. crossing/nesting equidistribution
# ---------------------------------------------------------------------------

def _joint_cr_ne(n: int) -> dict:
    table: dict = {}
    for lam in enumerate_partitions(n):
        arcs = lam.arcs()
        cr = ne = 0
        for i, (e1, f1) in enumerate(arcs):
            for e2, f2 in arcs:
                if e1 < e2 < f1 < f2:
                    cr += 1
                if e1 < e2 and f2 < f1:
                    ne += 1
        key = (cr, ne)
        table[key] = table.get(key, 0) + 1
    return table


def test_criterion_09_equidistribution():
    for n in range(10):
        table = _joint_cr_ne(n)
        swapped = {(b, a): c for (a, b), c in table.items()}
        assert table == swapped
    _ok(9, "joint crossing/nesting table is symmetric under coordinate swap for n <= 9")


# ---------------------------------------------------------------------------
# 10. Bell number periodicity in small moduli
# ---------------------------------------------------------------------------

def test_criterion_10_bell_periodicity():
    nmax = 200
    mod4 = bell_mod_table(nmax, 4)
    block = [1, 1, 2, 1, 3, 0, 3, 1, 0, 3, 3, 2]
    for n in range(nmax + 1):
        assert mod4[n] == block[n % 12]
    mod9 = bell_mod_table(nmax, 9)
    mod16 = bell_mod_table(nmax, 16)
    for n in range(nmax + 1 - 39):
        assert mod9[n] == mod9[n + 39]
    for n in range(nmax + 1 - 48):
        assert mod16[n] == mod16[n + 48]
    _ok(
        10,
        "Bell numbers mod 4 have period 12 with initial block %s; period 39 mod 9 and 48 mod 16"
        % block,
    )


# ---------------------------------------------------------------------------
# 11. asymptotic accuracy bands
# ---------------------------------------------------------------------------

def test_criterion_11_asymptotics():
    # second-order Bell estimate within 1% at n = 100
    errors = {}
    for n in (100, 200):
        exact = log_bell_exact(n)
        errs = []
        for order in (0, 1, 2):
            est = log_bell_asym(n, 0, order)
            errs.append(abs(math.exp(est - exact) - 1.0))
        errors[n] = errs
    assert errors[100][2] < 0.01
    for n in (100, 200):
        assert errors[n][0] > errors[n][1] > errors[n][2]
    # mean dimension and mean intertwining at n = 1000, within 10 percent
    n = 1000
    bn = bell(n)
    dim_exact = Fraction(_fit_moment("dim", 1).evaluate(n), bn)
    int_exact = Fraction(_fit_moment("int", 1).evaluate(n), bn)
    dim_est = dim_moment_asym(n)[0]
    int_est = int_moment_asym(n)[0]
    dim_err = abs(dim_est / float(dim_exact) - 1.0)
    int_err = abs(int_est / float(int_exact) - 1.0)
    assert dim_err < 0.10 and int_err < 0.10
    _ok(
        11,
        "Bell estimate error %.2e at n=100 (order 2), monotone in order; "
        "mean errors %.3f (dimension) and %.3f (intertwining) at n=1000"
        % (errors[100][2], dim_err, int_err),
    )
