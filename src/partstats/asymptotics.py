"""Saddle-point asymptotics for Bell numbers and the two exponent means.

All floating work happens on the natural-log scale; exact Bell numbers
enter through a bit-length + mantissa logarithm so that B_1000-sized
integers never touch a float directly.
"""

from __future__ import annotations

import math

from .exactnum import bell

_RESIDUAL_REL = 1e-12


def alpha(n: int) -> float:
    """The root u of u e^u = n + 1 by Newton iteration; monotone, safe for all n >= 0."""
    target = n + 1
    u = max(1.0, math.log(n + 1) - math.log(math.log(n + 3)))
    for _ in range(100):
        eu = math.exp(u)
        f = u * eu - target
        step = f / (eu * (1.0 + u))
        u -= step
        if abs(step) < 1e-15 * max(1.0, u):
            break
    residual = u * math.exp(u) - target
    if abs(residual) > _RESIDUAL_REL * target:
        raise ArithmeticError("alpha iteration failed to converge at n=%d" % n)
    return u


def log_big_int(x: int) -> float:
    """Natural log of a positive big integer, ~15 significant digits."""
    if x <= 0:
        raise ValueError("log of nonpositive integer")
    nbits = x.bit_length()
    if nbits <= 960:
        return math.log(x)
    shift = nbits - 64
    return math.log(x >> shift) + shift * math.log(2)


def log_bell_exact(n: int) -> float:
    """ln B_n from the exact Bell table."""
    return log_big_int(bell(n))


def _r1(u: float, k: int) -> float:
    num = (
        (-12 * k * k + 24 * k - 2)
        + (-24 * k * k + 24 * k + 18) * u
        + (-12 * k * k - 12 * k + 20) * u**2
        + (-12 * k + 3) * u**3
        - 2 * u**4
    )
    return num / (24 * (u + 1) ** 3)


def _r2(u: float, k: int) -> float:
    k2, k3, k4 = k * k, k**3, k**4
    num = (
        (144 * k4 - 384 * k3 + 624 * k2 - 1152 * k + 100)
        + (576 * k4 - 576 * k3 + 816 * k2 - 3264 * k - 648) * u
        + (864 * k4 + 1056 * k3 + 432 * k2 - 6384 * k - 1292) * u**2
        + (576 * k4 + 2784 * k3 + 2280 * k2 - 7440 * k - 2604) * u**3
        + (144 * k4 + 2016 * k3 + 3888 * k2 - 3552 * k - 2988) * u**4
        + (480 * k3 + 2328 * k2 + 72 * k - 1800) * u**5
        + (480 * k2 + 600 * k - 551) * u**6
        + (144 * k - 60) * u**7
        + 4 * u**8
    )
    return num / (1152 * (u + 1) ** 6)


def log_bell_asym(n: int, k: int = 0, order: int = 0) -> float:
    """Order-T saddle-point estimate of ln B_{n+k} (T = 0, 1 or 2)."""
    if n < 1 or n + k < 0:
        raise ValueError("need n >= 1 and n + k >= 0")
    if order not in (0, 1, 2):
        raise ValueError("correction order must be 0, 1 or 2")
    a = alpha(n)
    zeta = ((n + 1) * (a + 1) + k) / (a * a)
    log_v = (
        math.lgamma(n + k + 1)
        - 0.5 * math.log(2 * math.pi)
        - 1.0
        - 0.5 * math.log(zeta)
        + (n + 1) / a  # e^{alpha_n}, exactly (n+1)/alpha_n
        - (n + k + 1) * math.log(a)
    )
    corr = 1.0
    if order >= 1:
        corr += _r1(a, k) / n
    if order >= 2:
        corr += _r2(a, k) / (n * n)
    return log_v + math.log(corr)


def bell_ratio(n: int, k: int) -> float:
    """Leading approximation to B_{n+k} / B_n."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    a = alpha(n)
    ratio = 1.0
    for i in range(1, k + 1):
        ratio *= (n + i) / a
    return ratio * (1.0 - k * a / ((n + 1) * (a + 1))) ** -0.5


def dim_moment_asym(n: int):
    """(mean, s2, s3) asymptotics for the dimension exponent.

    mean and s3 are the leading terms; s2 includes the printed
    second-order n^2 correction.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    a = alpha(n)
    mean = (a - 2) / (a * a) * n**2
    s2 = (a * a - 7 * a + 17) / (a**3 * (a + 1)) * n**3
    s2 += (
        (-8 * a**7 - 29 * a**6 - 136 * a**5 - 207 * a**4 + 69 * a**3 + 407 * a**2 + 116 * a - 80)
        / (2 * a**4 * (a + 1) ** 4)
        * n**2
    )
    s3 = (
        (6 * a**4 - 83 * a**3 + 435 * a**2 - 732 * a - 881)
        / (3 * (a + 1) ** 3 * a**4)
        * n**4
    )
    return mean, s2, s3


def int_moment_asym(n: int):
    """(mean, s2, s3) asymptotics for the intertwining exponent."""
    if n < 2:
        raise ValueError("need n >= 2")
    a = alpha(n)
    mean = (2 * a - 5) / (4 * a * a) * n**2
    s2 = (3 * a * a - 22 * a + 56) / (9 * a**3 * (a + 1)) * n**3
    s2 += (
        (-16 * a**7 - 52 * a**6 - 204 * a**5 - 155 * a**4 - 126 * a**3 - 12 * a**2 + 230 * a + 175)
        / (8 * a**4 * (a + 1) ** 4)
        * n**2
    )
    s3 = (
        (a - 5)
        * (4 * a**3 - 31 * a**2 + 100 * a + 99)
        / (8 * a**4 * (a + 1) ** 3)
        * n**4
    )
    return mean, s2, s3
