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

    @property
    def lower_shift(self) -> int:
        return self.coeffs[0][0] if self.coeffs else 0

    @property
    def upper_shift(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

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

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def serialize(self) -> str:
        """Line-oriented form: ``shift <j>: <c0> <c1> ...`` with exact rationals."""
        if not self.coeffs:
            return "shift 0: 0\n"
        return "".join(
            "shift %d: %s\n" % (j, " ".join(str(c) for c in poly))
            for j, poly in self.coeffs
        )

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


def default_sample_points(profile: FitProfile, holdout: int = 3) -> list:
    """Consecutive n values guaranteeing valid Bell indices and enough
    equations: n0 = max(1, -min shift) through n0 + unknowns + holdout - 1."""
    n0 = max(1, -profile.shifts[0])
    return list(range(n0, n0 + profile.unknowns + holdout))


def fit(
    samples: Iterable[tuple],
    profile: FitProfile,
    holdout: int = 3,
) -> ShiftedBellPolynomial:
    """Solve exactly for the profile's coefficients from (n, value) samples.

    The last ``holdout`` samples are excluded from the linear system and
    must be reproduced exactly by the solution; a mismatch means the
    profile cannot represent the aggregate.
    """
    samples = [(int(n), Fraction(v)) for n, v in samples]
    if holdout < 1:
        raise FitError("holdout must be at least 1")
    lo = profile.shifts[0]
    for n, _ in samples:
        if n + lo < 0:
            raise FitError("sample n=%d puts Bell index below zero for shift %d" % (n, lo))
    unknowns = [(j, e) for j, b in zip(profile.shifts, profile.degree_bounds) for e in range(b + 1)]
    m = len(unknowns)
    train, held = samples[: len(samples) - holdout], samples[len(samples) - holdout:]
    if len(train) < m:
        raise FitError("insufficient sample points: %d unknowns, %d equations" % (m, len(train)))

    def build_rows(points):
        rows = []
        for n, v in points:
            row = [Fraction(n) ** e * bell(n + j) for j, e in unknowns]
            row.append(v)
            rows.append(row)
        return rows

    def solve(rows):
        # exact Gaussian elimination; pivotless columns stay free (zero)
        pivot_cols = []
        r = 0
        for col in range(m):
            piv = None
            for i in range(r, len(rows)):
                if rows[i][col] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][col]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivot_cols.append(col)
            r += 1
        for i in range(r, len(rows)):
            if rows[i][-1] != 0:
                raise FitError(
                    "profile cannot represent the aggregate: inconsistent system"
                )
        solution = [Fraction(0)] * m
        for i, col in enumerate(pivot_cols):
            solution[col] = rows[i][-1]
        return solution, len(pivot_cols)

    solution, rank = solve(build_rows(train))
    if rank < m:
        # training points underdetermine the profile; fold the holdout
        # equations into the system and require full consistency instead
        solution, _ = solve(build_rows(samples))

    mapping: dict = {}
    for (j, e), c in zip(unknowns, solution):
        mapping.setdefault(j, [Fraction(0)] * 0)
        poly = mapping[j]
        while len(poly) <= e:
            poly.append(Fraction(0))
        poly[e] = c
    result = ShiftedBellPolynomial.from_dict(mapping)
    for n, v in held:
        if result.evaluate(n) != v:
            raise FitError(
                "profile cannot represent the aggregate: holdout mismatch at n=%d" % n
            )
    return result
