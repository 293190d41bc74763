"""Shifted Bell polynomials: representation, evaluation, exact fitting.

A shifted Bell polynomial is a finite sum R(n) = sum_j Q_j(n) B_{n+j}
with rational polynomial coefficients.  Aggregates of pattern statistics
all take this form, with known shift ranges and per-shift degree bounds,
so a handful of exact sample values pins the closed form down by linear
algebra; held-out samples confirm the profile was adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactnum import bell, exact_text


class DomainError(ValueError):
    """Evaluation requested at an index where a Bell number would be negative."""


class FitError(ValueError):
    """Fit failed; the message distinguishes the two causes."""


def _trim(coeffs: Sequence[Fraction]) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_eval(coeffs: Sequence[Fraction], n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class ShiftedBellPolynomial:
    """Map shift j -> polynomial in n (ascending coefficient tuples)."""

    coeffs: tuple  # tuple of (shift, coefficient tuple), ascending shifts

    @classmethod
    def from_dict(cls, mapping: dict) -> "ShiftedBellPolynomial":
        items = []
        for j, poly in sorted(mapping.items()):
            poly = _trim([Fraction(c) for c in poly])
            if poly:
                items.append((int(j), poly))
        return cls(tuple(items))

    def evaluate(self, n: int) -> Fraction:
        total = Fraction(0)
        for j, poly in self.coeffs:
            if n + j < 0:
                raise DomainError(
                    "shift %d needs Bell index %d at n=%d" % (j, n + j, n)
                )
            total += _poly_eval(poly, n) * bell(n + j)
        return total

    def canonical_text(self) -> str:
        """One deterministic line: ascending shifts, ascending powers of n."""
        if not self.coeffs:
            return "0"
        chunks = []
        for j, poly in self.coeffs:
            parts = []
            for e, c in enumerate(poly):
                if c == 0:
                    continue
                text = exact_text(c)
                if e == 0:
                    parts.append(text)
                elif e == 1:
                    parts.append(text + "*n")
                else:
                    parts.append("%s*n^%d" % (text, e))
            chunks.append("j=%d: %s" % (j, " + ".join(parts).replace("+ -", "- ")))
        return " ; ".join(chunks)

    def to_dict(self) -> dict:
        return {
            "shifts": [
                {"shift": j, "coefficients": [exact_text(c) for c in poly]}
                for j, poly in self.coeffs
            ]
        }


@dataclass(frozen=True)
class FitProfile:
    """Strictly increasing shifts with a max polynomial degree for each."""

    shifts: tuple
    degree_bounds: tuple

    def __post_init__(self):
        if not self.shifts:
            raise ValueError("empty profile")
        if len(self.shifts) != len(self.degree_bounds):
            raise ValueError("profile shape mismatch")
        if any(b < 0 for b in self.degree_bounds):
            raise ValueError("negative degree bound")
        if any(a >= b for a, b in zip(self.shifts, self.shifts[1:])):
            raise ValueError("shifts must be strictly increasing")

    @property
    def unknowns(self) -> int:
        return sum(b + 1 for b in self.degree_bounds)


def profile_generic(big_n: int, k: int) -> FitProfile:
    """Profile for a degree-``big_n`` statistic whose pattern length is k:
    shifts -k..big_n; the coefficient of B_{n+big_n-j} may have degree j
    for j <= big_n and j-1 beyond."""
    if big_n < 0 or k < 0:
        raise ValueError("profile parameters must be nonnegative")
    shifts = list(range(-k, big_n + 1))
    bounds = []
    for s in shifts:
        j = big_n - s
        bounds.append(j if j <= big_n else j - 1)
    return FitProfile(tuple(shifts), tuple(bounds))


def profile_dim(k: int) -> FitProfile:
    """Moment profile for the dimension exponent: shifts 0..2k with the
    sharpened degree rule (j for j <= k, else k - ceil((j-k)/2))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shifts = list(range(0, 2 * k + 1))
    bounds = []
    for s in shifts:
        j = 2 * k - s
        bounds.append(j if j <= k else k - (j - k + 1) // 2)
    return FitProfile(tuple(shifts), tuple(bounds))


def profile_int(k: int) -> FitProfile:
    """Moment profile for the intertwining exponent: shifts -k..2k, the
    coefficient of B_{n+2k-j} bounded by degree j."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shifts = list(range(-k, 2 * k + 1))
    bounds = [2 * k - s for s in shifts]
    return FitProfile(tuple(shifts), tuple(bounds))


def target_unknowns(target: str, k: int) -> int:
    """``profile_dim(k).unknowns`` or ``profile_int(k).unknowns``, in O(1):
    no profile is built, so any k >= 1 costs the same."""
    if target == "dim":  # j + 1 for j <= k, then k + 1 - ceil(t / 2) for t = 1..k
        return (k + 1) * (k + 2) // 2 + k * (k + 1) - (k + 1) ** 2 // 4
    if target == "int":  # degrees 0..3k, once each
        return (3 * k + 1) * (3 * k + 2) // 2
    raise ValueError("target must be 'dim' or 'int', got %r" % (target,))


def generic_unknowns(big_n: int, k: int) -> int:
    """``profile_generic(big_n, k).unknowns``, in O(1): degrees 0..big_n
    for j <= big_n, then j - 1 for j = big_n + 1..big_n + k."""
    if big_n < 0 or k < 0:
        raise ValueError("profile parameters must be nonnegative")
    return (big_n + 1) * (big_n + 2) // 2 + k * big_n + k * (k + 1) // 2


HOLDOUT = 3  # trailing samples that fit() keeps out of the training rows


def default_sample_points(profile: FitProfile) -> list:
    """Consecutive n values guaranteeing valid Bell indices and enough
    equations: n0 = max(1, -min shift) through n0 + unknowns + HOLDOUT - 1."""
    n0 = max(1, -profile.shifts[0])
    return list(range(n0, n0 + profile.unknowns + HOLDOUT))


# Fits of fewer unknowns go straight to Bareiss, the faster there.  Whole
# fit() calls, best of 300-400: 4 unknowns (dim k = 1) took 0.05 ms by
# Bareiss against 0.14 ms mod p, 10 (dim k = 2, int k = 1) 0.27 against
# 0.30 ms, 11 0.38 against 0.35 ms and 18 (dim k = 3) 1.39 against 0.69 ms
# (CPython 3.11.7, 2-vCPU x86-64).
MODULAR_MIN_UNKNOWNS = 11


def fit(samples: Iterable[tuple], profile: FitProfile) -> ShiftedBellPolynomial:
    """Solve exactly for the profile's coefficients from (n, value) samples.

    Every sample gives the integer row ``n^e * B(n+j) * den(v) | num(v)``,
    training rows first.  From MODULAR_MIN_UNKNOWNS unknowns on, the rows
    are solved mod word-size primes and the rationals rebuilt
    (``_solve_modular``); the result stands only once every row checks
    exactly.  Otherwise, and wherever that path cannot certify an answer,
    one fraction-free Gauss-Jordan (``_bareiss``) solves them and gives
    every verdict: the last HOLDOUT samples must be reproduced exactly, a
    mismatch meaning the profile cannot represent the aggregate, and if the
    training rows leave a coefficient free, held rows supply its pivot and
    the whole system must be consistent instead.
    """
    samples = [(int(n), Fraction(v)) for n, v in samples]
    lo = profile.shifts[0]
    for n, _ in samples:
        if n + lo < 0:
            raise FitError("sample n=%d puts Bell index below zero for shift %d" % (n, lo))
    unknowns = [(j, e) for j, b in zip(profile.shifts, profile.degree_bounds) for e in range(b + 1)]
    m = len(unknowns)
    train = max(0, len(samples) - HOLDOUT)
    if train < m:
        raise FitError("insufficient sample points: %d unknowns, %d equations" % (m, train))
    rows = [[n ** e * bell(n + j) * v.denominator for j, e in unknowns] + [v.numerator]
            for n, v in samples]
    solution = _solve_modular(rows, train, m) if m >= MODULAR_MIN_UNKNOWNS else None
    if solution is None:
        solution = _bareiss(samples, rows, train, m)
    mapping: dict = {}
    for (j, _), c in zip(unknowns, solution):
        mapping.setdefault(j, []).append(c)
    return ShiftedBellPolynomial.from_dict(mapping)


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


def _is_prime(n: int) -> bool:
    """Primality of an odd n > 7 below 3.2 * 10^9, where the strong
    probable-prime test to bases 2, 3, 5 and 7 is exact."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes below 2^30, descending, each found when asked for."""
    n = (1 << 30) + 1
    while True:
        n -= 2
        if _is_prime(n):
            yield n


def _solve_mod(rows: list, train: int, m: int, p: int) -> list | None:
    """The solution mod the prime p of the training rows, by Gauss-Jordan
    with fit's first-nonzero pivot rule, or None when a column has no pivot
    in the training rows mod p, or when a surplus training row or a held row
    is left nonzero, which it is then over Q too.

    Each row is one int holding its residues in fixed slots, so a row update
    ``row + (p - f) * pivot row`` is one C-level multiply-add.  Slots are
    reduced only when a row becomes the pivot row, whose slots then lie
    below p; a row takes at most m updates of less than p^2 each, which the
    slot width leaves room for.
    """
    size = (2 * p.bit_length() + len(rows).bit_length() + 7) // 8  # bytes a slot
    bits, width = 8 * size, (m + 1) * size
    mask = (1 << bits) - 1

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")

    packed = [pack([a % p for a in row]) for row in rows]
    for col in range(m):
        shift = col * bits
        piv = next((i for i in range(col, train) if (packed[i] >> shift & mask) % p), None)
        if piv is None:
            return None
        raw = packed[piv].to_bytes(width, "little")
        inv = pow(int.from_bytes(raw[col * size:(col + 1) * size], "little"), -1, p)
        top = pack([int.from_bytes(raw[i:i + size], "little") * inv % p
                    for i in range(0, width, size)])
        packed[piv], packed[col] = packed[col], top
        for i, row in enumerate(packed):
            f = (row >> shift & mask) % p
            if f and i != col:
                packed[i] = row + (p - f) * top
    shift = m * bits  # the right-hand side, the top slot
    if any((row >> shift) % p for row in packed[m:]):
        return None
    return [(row >> shift) % p for row in packed[:m]]


def _rational(u: int, mod: int) -> Fraction | None:
    """The r/s with r = s*u mod ``mod`` and |r|, s at most sqrt(mod/2), if
    any (Wang's rational reconstruction: half an extended Euclid)."""
    bound = isqrt(mod >> 1)
    r0, r1, s0, s1 = mod, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _solve_modular(rows: list, train: int, m: int) -> list | None:
    """The coefficients as Fractions once every row checks exactly, or None
    for ``_bareiss`` to decide.

    Full rank mod p proves the training rows have full rank over Q, so they
    have at most one solution, and a candidate that satisfies every row is
    the one Bareiss finds.  Primes are added, their residues combined by
    CRT and the rationals rebuilt, until a candidate checks.  By Cramer's
    rule and Hadamard's bound, each coefficient's numerator and denominator
    lie below H, the product of the m largest training-row norms, so a
    modulus past 2*H^2 rebuilds the solution if there is one; past it the
    search stops.
    """
    # a squared row norm is below 2^(2 * widest entry's bits + bits of the length)
    norms = sorted(2 * max(a.bit_length() for a in row) + len(row).bit_length()
                   for row in rows[:train])
    limit = sum(norms[-m:]) + 1  # 2*H^2 < 2^limit
    mod, residues = 1, [0] * m
    for p in _primes():
        x = _solve_mod(rows, train, m, p)
        if x is None:
            return None
        inv = pow(mod, -1, p)
        residues = [r + mod * ((xi - r) * inv % p) for r, xi in zip(residues, x)]
        mod *= p
        candidate = []
        for u in residues:
            c = _rational(u, mod)
            if c is None:
                break
            candidate.append(c)
        else:
            den = lcm(*(c.denominator for c in candidate))
            scaled = [c.numerator * (den // c.denominator) for c in candidate]
            if all(sum(map(mul, row, scaled)) == row[-1] * den for row in rows):
                return candidate
        if mod.bit_length() > limit:
            return None
