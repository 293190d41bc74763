import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from partstats import shifted_bell
from partstats.exactnum import bell
from partstats.recursions import dim_moments_range, int_moments_range
from partstats.shifted_bell import (
    HOLDOUT,
    DomainError,
    FitError,
    FitProfile,
    ShiftedBellPolynomial,
    default_sample_points,
    fit,
    generic_unknowns,
    profile_dim,
    profile_generic,
    profile_int,
    target_unknowns,
)


def test_evaluate_simple():
    # n*B_{n-1}: count of singleton blocks aggregated
    r = ShiftedBellPolynomial.from_dict({-1: [0, 1]})
    for n in range(1, 10):
        assert r.evaluate(n) == n * bell(n - 1)


def test_evaluate_domain_error():
    r = ShiftedBellPolynomial.from_dict({-2: [1]})
    with pytest.raises(DomainError):
        r.evaluate(1)


def test_canonical_text_and_serialize():
    r = ShiftedBellPolynomial.from_dict({1: [4, 1], 2: [-2]})
    assert r.canonical_text() == "j=1: 4 + 1*n ; j=2: -2"
    assert r.to_dict() == {
        "shifts": [
            {"shift": 1, "coefficients": ["4", "1"]},
            {"shift": 2, "coefficients": ["-2"]},
        ]
    }


def test_zero_polynomial():
    r = ShiftedBellPolynomial.from_dict({0: [0], 3: []})
    assert r.canonical_text() == "0"
    assert r.evaluate(5) == 0


def test_profile_shapes():
    g = profile_generic(2, 1)
    assert g.shifts == (-1, 0, 1, 2)
    assert g.degree_bounds == (2, 2, 1, 0)
    d = profile_dim(2)
    assert d.shifts == (0, 1, 2, 3, 4)
    assert d.degree_bounds == (1, 1, 2, 1, 0)
    i = profile_int(1)
    assert i.shifts == (0, 1, 2)
    assert i.degree_bounds == (1, 1, 0)
    i = profile_int(3)
    assert i.shifts == tuple(range(7))
    assert i.degree_bounds == (3, 3, 3, 3, 2, 1, 0)


def test_target_unknowns_count_the_profiles():
    for k in range(1, 40):
        assert target_unknowns("dim", k) == profile_dim(k).unknowns
        assert target_unknowns("int", k) == profile_int(k).unknowns
    with pytest.raises(ValueError):
        target_unknowns("nest", 2)


def test_generic_unknowns_count_the_profile():
    for big_n in range(12):
        for k in range(8):
            assert generic_unknowns(big_n, k) == profile_generic(big_n, k).unknowns
    for big_n, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            generic_unknowns(big_n, k)


def test_profile_validation():
    with pytest.raises(ValueError):
        FitProfile((0, 0), (1, 1))
    with pytest.raises(ValueError):
        FitProfile((0, 1), (1, -1))
    with pytest.raises(ValueError):
        FitProfile((0,), (1, 1))
    with pytest.raises(ValueError):
        FitProfile((), ())


def test_default_sample_points_cover_unknowns():
    p = profile_int(2)
    pts = default_sample_points(p)
    assert len(pts) == p.unknowns + 3
    assert pts[0] == max(1, -p.shifts[0])


def test_fit_recovers_known_dim_mean():
    k = 1
    profile = profile_dim(k)
    pts = default_sample_points(profile)
    moments = dim_moments_range(k, max(pts))
    r = fit([(n, moments[n][k]) for n in pts], profile)
    assert r.coeffs == ((1, (Fraction(4), Fraction(1))), (2, (Fraction(-2),)))


def test_fit_recovers_known_int_mean():
    k = 1
    profile = profile_int(k)
    pts = default_sample_points(profile)
    moments = int_moments_range(k, max(pts))
    r = fit([(n, moments[n][k]) for n in pts], profile)
    # fitted mean aggregate must reproduce exact values well past the samples
    extra = int_moments_range(k, max(pts) + 6)
    for n in range(1, max(pts) + 7):
        assert r.evaluate(n) == extra[n][k]


def test_fit_insufficient_points():
    profile = profile_dim(1)
    pts = default_sample_points(profile)[:3]
    moments = dim_moments_range(1, max(pts))
    with pytest.raises(FitError, match="insufficient"):
        fit([(n, moments[n][1]) for n in pts], profile)


def test_fit_with_fewer_samples_than_the_holdout_is_insufficient():
    profile = FitProfile((0,), (0,))
    for samples in ([(1, 1), (2, 2)], [(1, 1), (2, 2), (3, 5)]):
        with pytest.raises(FitError, match="insufficient"):
            fit(samples, profile)


def test_fit_wrong_profile_detected():
    # 2^n is not a shifted Bell polynomial with these shifts/degrees
    profile = profile_generic(1, 0)
    pts = default_sample_points(profile)
    with pytest.raises(FitError, match="cannot represent"):
        fit([(n, 2 ** n) for n in pts], profile)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_fit_roundtrip_random_polynomials(seed):
    rng = random.Random(seed)
    profile = profile_generic(rng.randint(0, 2), rng.randint(0, 2))
    mapping = {}
    for j, b in zip(profile.shifts, profile.degree_bounds):
        mapping[j] = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(b + 1)
        ]
    truth = ShiftedBellPolynomial.from_dict(mapping)
    pts = default_sample_points(profile)
    fitted = fit([(n, truth.evaluate(n)) for n in pts], profile)
    for n in pts + [max(pts) + 1, max(pts) + 5]:
        assert fitted.evaluate(n) == truth.evaluate(n)


def _sympy_fit(samples, profile):
    """Reference fit: sympy rref on the training rows, then on all rows if
    the training rows leave a coefficient free; free columns at zero.
    Returns ("ok", canonical text) or ("error", message fragment)."""
    sympy = pytest.importorskip("sympy")
    unknowns = [(j, e) for j, b in zip(profile.shifts, profile.degree_bounds) for e in range(b + 1)]
    m = len(unknowns)
    train = len(samples) - HOLDOUT
    if train < m:
        return "error", "insufficient"

    def solve(points):
        rows = [
            [n ** e * bell(n + j) for j, e in unknowns] + [sympy.Rational(v.numerator, v.denominator)]
            for n, v in points
        ]
        reduced, pivots = sympy.Matrix(rows).rref()
        if m in pivots:
            return None, len(pivots)
        x = [Fraction(0)] * m
        for i, col in enumerate(pivots):
            x[col] = Fraction(int(reduced[i, m].p), int(reduced[i, m].q))
        return x, len(pivots)

    x, rank = solve(samples[:train])
    if x is not None and rank < m:
        x, _ = solve(samples)
    if x is None:
        return "error", "inconsistent system"
    mapping = {}
    for (j, e), c in zip(unknowns, x):
        mapping.setdefault(j, []).append(c)
    poly = ShiftedBellPolynomial.from_dict(mapping)
    for n, v in samples[train:]:
        if poly.evaluate(n) != v:
            return "error", "holdout mismatch at n=%d" % n
    return "ok", poly.canonical_text()


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
# seeds that reach each outcome: solved from training rows (0), with a held
# pivot (25), with a free column (35); inconsistent with full training rank (3),
# with a held pivot (120), with a free column (7); holdout mismatch (1);
# insufficient (2)
@example(0)
@example(25)
@example(35)
@example(3)
@example(120)
@example(7)
@example(1)
@example(2)
def test_fit_matches_sympy_reference(seed):
    # random profiles and sample lists: duplicated n (rank-deficient
    # training rows), short lists, perturbed values, too-small profiles
    rng = random.Random(seed)
    shifts = sorted(rng.sample(range(-2, 4), rng.randint(1, 3)))
    bounds = [rng.randint(0, 2) for _ in shifts]
    profile = FitProfile(tuple(shifts), tuple(bounds))
    extra = rng.random() < 0.25  # truth of higher degree than the profile allows
    truth = ShiftedBellPolynomial.from_dict({
        j: [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(b + extra + 1)]
        for j, b in zip(shifts, bounds)
    })
    n0, top = max(0, -shifts[0]), rng.randint(1, 8)
    pts = default_sample_points(profile)
    ns = [
        pts,
        [rng.randint(n0, n0 + top) for _ in range(rng.randint(1, profile.unknowns + 6))],
        pts[: rng.randint(0, len(pts))],
        rng.sample(pts + [rng.choice(pts) for _ in range(rng.randint(1, 3))], len(pts) + 1),
    ][rng.randrange(4)]
    samples = [(n, truth.evaluate(n)) for n in ns]
    if samples and rng.random() < 0.3:
        i = rng.randrange(len(samples))
        samples[i] = (samples[i][0], samples[i][1] + Fraction(1, rng.randint(1, 3)))
    kind, expected = _sympy_fit(samples, profile)
    if kind == "ok":
        assert fit(samples, profile).canonical_text() == expected
    else:
        with pytest.raises(FitError, match=expected):
            fit(samples, profile)


def _int_rows(samples, profile):
    """fit's integer rows ``n^e * B(n+j) * den(v) | num(v)``."""
    unknowns = [(j, e) for j, b in zip(profile.shifts, profile.degree_bounds) for e in range(b + 1)]
    return [[n ** e * bell(n + j) * v.denominator for j, e in unknowns] + [v.numerator]
            for n, v in samples]


def _paper_profile_int(k):
    """The paper's profile for the k-th intertwining moment: shifts -k..2k,
    the coefficient of B_{n+s} of degree at most 2k - s.  ``profile_int``
    drops what is zero in every fit: the negative shifts, and the degrees
    past k."""
    shifts = tuple(range(-k, 2 * k + 1))
    return FitProfile(shifts, tuple(2 * k - s for s in shifts))


def _target_samples(target, k, profile=None):
    if profile is None:
        profile = (profile_dim if target == "dim" else profile_int)(k)
    pts = default_sample_points(profile)
    moments = (dim_moments_range if target == "dim" else int_moments_range)(k, max(pts))
    return [(n, Fraction(moments[n][k])) for n in pts], profile


def _outcome(samples, profile):
    try:
        return "ok", fit(samples, profile).canonical_text()
    except FitError as e:
        return "error", str(e)


def _bareiss(samples: list, rows: list, train: int, m: int) -> list:
    """The coefficients by fraction-free Gauss-Jordan over the integer rows,
    which it overwrites, or FitError.  The reference solver: it alone
    decides rank-deficient and inconsistent systems."""
    # each update divides exactly by the previous pivot; pivotless columns
    # stay free (zero)
    pivot_cols = []
    trained = 0  # pivots taken from training rows
    prev = 1
    for col in range(m):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        trained += piv < train
        rows[r], rows[piv] = rows[piv], rows[r]
        top, p = rows[r], rows[r][col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivot_cols.append(col)
    if trained < m:  # underdetermined training rows: held rows joined the system
        train = len(rows)
    if any(row[-1] for row in rows[len(pivot_cols):train]):
        raise FitError("profile cannot represent the aggregate: inconsistent system")
    for (n, _), row in zip(samples[train:], rows[train:]):
        if row[-1]:
            raise FitError("profile cannot represent the aggregate: holdout mismatch at n=%d" % n)
    solution = [0] * m
    for row, col in zip(rows, pivot_cols):
        solution[col] = Fraction(row[-1], row[col])
    return solution


def _bareiss_outcome(samples, profile):
    m = profile.unknowns
    try:
        solution = _bareiss(samples, _int_rows(samples, profile), len(samples) - HOLDOUT, m)
    except FitError as e:
        return "error", str(e)
    unknowns = [(j, e) for j, b in zip(profile.shifts, profile.degree_bounds) for e in range(b + 1)]
    mapping = {}
    for (j, _), c in zip(unknowns, solution):
        mapping.setdefault(j, []).append(c)
    return "ok", ShiftedBellPolynomial.from_dict(mapping).canonical_text()


def test_primes_descend_through_every_prime_below_2_30():
    sympy = pytest.importorskip("sympy")
    expected, p = [], 1 << 30
    for _ in range(40):
        p = sympy.prevprime(p)
        expected.append(p)
    primes = shifted_bell._primes()
    assert [next(primes) for _ in range(40)] == expected


def _primes_from(first):
    """``_primes`` led by the primes ``first``, then the real ones."""
    real = shifted_bell._primes

    def primes():
        yield from first
        yield from real()

    return primes


def test_modular_fit_survives_a_prime_that_divides_a_pivot(monkeypatch):
    # int k = 2 through the paper's profile (28 unknowns): 13 divides the 6th
    # leading minor of the training rows, the pivot Bareiss meets there
    # without row exchanges, but not their determinant, so another row takes
    # that pivot mod 13; 449 divides the determinant, so mod 449 a column has
    # no pivot, and the prime after it, with more pivots, replaces it
    samples, profile = _target_samples("int", 2, _paper_profile_int(2))
    assert profile.unknowns == 28
    m = profile.unknowns
    a = [row[:m] for row in _int_rows(samples, profile)[:m]]
    prev, minors = 1, []
    for r in range(m):  # Bareiss without row exchanges: pivot r is the leading minor
        minors.append(a[r][r])
        for i in range(r + 1, m):
            a[i] = [(a[r][r] * x - a[i][r] * y) // prev for x, y in zip(a[i], a[r])]
        prev = a[r][r]
    assert minors[5] % 13 == 0 and minors[-1] % 13 and minors[-1] % 449 == 0
    expected = _bareiss_outcome(samples, profile)
    for first in (13, 449):
        monkeypatch.setattr(shifted_bell, "_primes", _primes_from([first]))
        assert _outcome(samples, profile) == expected


def test_a_held_mismatch_is_decided_after_one_prime(monkeypatch):
    samples, profile = _target_samples("int", 2)
    n, v = samples[-1]
    samples[-1] = (n, v + 1)
    real, tried = shifted_bell._primes, []

    def primes():
        for p in real():
            tried.append(p)
            yield p

    monkeypatch.setattr(shifted_bell, "_primes", primes)
    with pytest.raises(FitError, match="holdout mismatch at n=%d$" % n):
        fit(samples, profile)
    assert len(tried) == 1


def test_a_held_row_that_vanishes_mod_the_first_prime_still_mismatches():
    # the first held value is off by the first prime p, so its row is zero
    # mod p but not over Q; the second held value is off by 1, nonzero mod p
    samples, profile = _target_samples("int", 2)
    assert all(v.denominator == 1 for _, v in samples)
    p = next(shifted_bell._primes())
    first = len(samples) - HOLDOUT
    for i, delta in ((first, p), (first + 1, 1)):
        samples[i] = (samples[i][0], samples[i][1] + delta)
    with pytest.raises(FitError, match="holdout mismatch at n=%d$" % samples[first][0]):
        fit(samples, profile)


def test_singular_training_rows_go_to_bareiss():
    # profile_generic(1, 0) at its default points: the training rows at
    # n = 1, 2, 3 have determinant 0, so held rows must supply a pivot; the
    # outcome must be the Bareiss oracle's
    profile = profile_generic(1, 0)
    pts = default_sample_points(profile)
    assert len(pts) == profile.unknowns + HOLDOUT
    truth = ShiftedBellPolynomial.from_dict({0: [Fraction(1, 3), -2], 1: [5]})
    for values in ([truth.evaluate(n) for n in pts], [Fraction(2) ** n for n in pts]):
        samples = list(zip(pts, values))
        assert _outcome(samples, profile) == _bareiss_outcome(samples, profile)


def test_sharp_int_profile_gives_the_paper_profile_fit():
    for k in range(1, 8):
        sharp = fit(*_target_samples("int", k))
        paper = fit(*_target_samples("int", k, _paper_profile_int(k)))
        assert sharp.canonical_text() == paper.canonical_text(), k
        assert sharp.to_dict() == paper.to_dict(), k


def test_sharp_int_fits_hold_on_twice_their_sample_range():
    # the sharp profile rests on the fits, not on a proof, so each fit to
    # k = 10 must reproduce the exact moments to twice its last sample; the
    # coefficient of B_{n+2k} is (-5/4)^k
    last = max(default_sample_points(profile_int(10)))
    exact = int_moments_range(10, 2 * last)
    for k in range(1, 11):
        profile = profile_int(k)
        pts = default_sample_points(profile)
        fitted = fit([(n, exact[n][k]) for n in pts], profile)
        assert fitted.coeffs[-1] == (2 * k, (Fraction(-5, 4) ** k,)), k
        for n in range(1, 2 * max(pts) + 1):
            assert fitted.evaluate(n) == exact[n][k], (k, n)


def test_top_coefficients_of_the_dim_fits():
    # the coefficient of B_{n+2k} is (-2)^k
    for k in range(1, 11):
        assert fit(*_target_samples("dim", k)).coeffs[-1] == (2 * k, (Fraction(-2) ** k,)), k


def test_a_fit_with_a_wide_answer_reconstructs_a_logarithmic_number_of_times(monkeypatch):
    # w * n * B_n with w = 10^4485, the aggregate of a pattern that weighs
    # each position w: its 5 unknowns take about a thousand primes, and
    # reconstruction is attempted O(log) times in their count, not at each
    w = 10**4485
    profile = profile_generic(1, 1)
    samples = [(n, w * n * bell(n)) for n in default_sample_points(profile)]
    real_primes, real_rational = shifted_bell._primes, shifted_bell._rational
    primes, calls = [], []

    def counted_primes():
        for p in real_primes():
            primes.append(p)
            yield p

    def counted_rational(u, mod):
        calls.append(mod)
        return real_rational(u, mod)

    monkeypatch.setattr(shifted_bell, "_primes", counted_primes)
    monkeypatch.setattr(shifted_bell, "_rational", counted_rational)
    assert fit(samples, profile).coeffs == ((0, (0, w)),)
    assert len(primes) > 900
    assert len(calls) <= 4 * profile.unknowns * math.log2(len(primes))


def test_target_fits_reproduce_the_moments_to_n_120():
    for target, top in (("int", 5), ("dim", 8)):
        exact = (dim_moments_range if target == "dim" else int_moments_range)(top, 120)
        for k in range(1, top + 1):
            samples, profile = _target_samples(target, k)
            fitted = fit(samples, profile)
            for n in range(max(1, -profile.shifts[0]), 121):
                assert fitted.evaluate(n) == exact[n][k], (target, k, n)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_modular_path_matches_bareiss(seed, small_primes_first):
    # profiles of 2 to 25 unknowns; numerators and denominators up to 10^12,
    # which one prime's reconstruction can get wrong; default, shuffled and
    # duplicated points, and points with few distinct n (rank-deficient
    # systems with free columns); perturbed values; truths of higher degree
    # than the profile allows; and, in bulk, unlucky primes 3..23 first
    rng = random.Random(seed)
    shifts = sorted(rng.sample(range(-2, 5), rng.randint(2, 5)))
    profile = FitProfile(tuple(shifts), tuple(rng.randint(0, 4) for _ in shifts))
    extra = rng.random() < 0.25
    top = rng.choice([99, 10**12])
    truth = ShiftedBellPolynomial.from_dict({
        j: [Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(b + extra + 1)]
        for j, b in zip(profile.shifts, profile.degree_bounds)
    })
    pts = default_sample_points(profile)
    few = [rng.choice(pts[:rng.randint(1, 4)]) for _ in pts]
    ns = [pts, rng.sample(pts, len(pts)), pts + [rng.choice(pts)], sorted(pts + pts[:3]),
          few][rng.randrange(5)]
    samples = [(n, truth.evaluate(n)) for n in ns]
    if rng.random() < 0.3:
        i = rng.randrange(len(samples))
        samples[i] = (samples[i][0], samples[i][1] + Fraction(1, rng.randint(1, 3)))
    with pytest.MonkeyPatch.context() as patch:
        if small_primes_first:
            patch.setattr(shifted_bell, "_primes", _primes_from([3, 5, 7, 11, 13, 17, 19, 23]))
        assert _outcome(samples, profile) == _bareiss_outcome(samples, profile)
