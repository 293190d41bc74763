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
from typing import Iterable, Sequence

from .exactnum import bell


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

    def coefficient(self, j: int) -> tuple:
        for shift, poly in self.coeffs:
            if shift == j:
                return poly
        return ()

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
                if e == 0:
                    parts.append(str(c))
                elif e == 1:
                    parts.append("%s*n" % c)
                else:
                    parts.append("%s*n^%d" % (c, e))
            chunks.append("j=%d: %s" % (j, " + ".join(parts).replace("+ -", "- ")))
        return " ; ".join(chunks)

    def to_dict(self) -> dict:
        return {
            "shifts": [
                {"shift": j, "coefficients": [str(c) for c in poly]}
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


def fit(samples: Iterable[tuple], profile: FitProfile) -> ShiftedBellPolynomial:
    """Solve exactly for the profile's coefficients from (n, value) samples.

    One fraction-free Gauss-Jordan runs over the integer rows
    ``n^e * B(n+j) * den(v) | num(v)``, training rows first.  The last
    HOLDOUT samples must then be reproduced exactly; a mismatch means the
    profile cannot represent the aggregate.  If the training rows leave a
    coefficient free, held rows supply its pivot and the whole system must
    be consistent instead.
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
    # Bareiss: each update divides exactly by the previous pivot; pivotless
    # columns stay free (zero)
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
    mapping: dict = {}
    for (j, _), c in zip(unknowns, solution):
        mapping.setdefault(j, []).append(c)
    return ShiftedBellPolynomial.from_dict(mapping)
