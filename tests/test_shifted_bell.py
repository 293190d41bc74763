import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert i.shifts == (-1, 0, 1, 2)
    assert i.degree_bounds == (3, 2, 1, 0)


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
    assert r.coefficient(1) == (Fraction(4), Fraction(1))
    assert r.coefficient(2) == (Fraction(-2),)
    assert r.coefficient(0) == ()


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
