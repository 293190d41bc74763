import math

import pytest
from hypothesis import given, settings, strategies as st

from partstats.asymptotics import (
    alpha,
    bell_ratio,
    dim_moment_asym,
    int_moment_asym,
    log_bell_asym,
    log_bell_exact,
    log_big_int,
)
from partstats.exactnum import bell


def test_alpha_reference_values():
    assert alpha(0) == pytest.approx(0.5671432904097838, rel=1e-12)
    assert alpha(1) == pytest.approx(0.8526055020137254, rel=1e-12)


def test_alpha_defining_equation():
    for n in (0, 1, 5, 10, 100, 1000, 10 ** 6):
        a = alpha(n)
        assert abs(a * math.exp(a) - (n + 1)) <= 1e-9 * (n + 1)


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_alpha_monotone(n):
    assert alpha(n + 1) > alpha(n)


def test_log_big_int_accuracy():
    for x in (1, 7, 2 ** 70, 10 ** 500, bell(300)):
        expected = math.log(x) if x.bit_length() < 900 else None
        got = log_big_int(x)
        if expected is not None:
            assert got == pytest.approx(expected, rel=1e-12)
    # cross-check huge input against lgamma-scale identity: log(2^k) = k log 2
    k = 100000
    assert log_big_int(2 ** k) == pytest.approx(k * math.log(2), rel=1e-12)


def test_log_bell_estimate_accuracy_and_monotonicity():
    for n in (100, 200):
        exact = log_bell_exact(n)
        errs = []
        for order in (0, 1, 2):
            est = log_bell_asym(n, 0, order)
            errs.append(abs(math.exp(est - exact) - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01


def test_log_bell_estimate_with_shift():
    for k in (1, 2, 5):
        exact = log_bell_exact(100 + k)
        est = log_bell_asym(100, k, 2)
        assert abs(math.exp(est - exact) - 1.0) < 0.01


def test_bell_ratio_near_exact():
    for n in (50, 100, 400):
        for k in (1, 2):
            est = bell_ratio(n, k)
            exact = bell(n + k) / bell(n)
            assert abs(est / exact - 1.0) < 0.05


def test_moment_means_close_at_large_n():
    # exact means from the known closed forms of the aggregates
    n = 1000
    bn = bell(n)
    dim_exact = (-2 * bell(n + 2) + (n + 4) * bell(n + 1)) / bn
    int_exact = (
        (2 * n + 1) * bell(n) + (2 * n + 9) * bell(n + 1) - 5 * bell(n + 2)
    ) / (4 * bn)
    assert abs(dim_moment_asym(n)[0] / dim_exact - 1.0) < 0.10
    assert abs(int_moment_asym(n)[0] / int_exact - 1.0) < 0.10


def test_moment_asym_outputs_positive():
    # at small n the lower-order corrections can flip signs, so check
    # only in the regime the expansions target
    for n in (100, 1000):
        for fn in (dim_moment_asym, int_moment_asym):
            mean, s2, s3 = fn(n)
            assert mean > 0
            assert s2 > 0


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        log_bell_asym(0, 0, 0)
    with pytest.raises(ValueError):
        log_bell_asym(10, 0, 3)
    with pytest.raises(ValueError):
        bell_ratio(10, -1)
    with pytest.raises(ValueError):
        dim_moment_asym(1)
    with pytest.raises(ValueError):
        log_big_int(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=20, max_value=400))
def test_order2_estimate_tracks_exact(n):
    exact = log_bell_exact(n)
    est = log_bell_asym(n, 0, 2)
    assert abs(math.exp(est - exact) - 1.0) < 0.02
