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
from itertools import count
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactnum import bell, bell_table, exact_text


class DomainError(ValueError):
    """Evaluation requested at an index where a Bell number would be negative."""


class FitError(ValueError):
    """Fit failed; the message says why: a sample below the Bell domain,
    insufficient sample points, or a profile that cannot represent the
    aggregate (an inconsistent system or a holdout mismatch)."""


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


def _moment_profile(k: int, dip) -> FitProfile:
    """Shifts 0..2k; the coefficient of B_{n+s} has degree 2k - s for
    s >= k and k - dip(k - s) below."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shifts = range(2 * k + 1)
    bounds = [2 * k - s if s >= k else k - dip(k - s) for s in shifts]
    return FitProfile(tuple(shifts), tuple(bounds))


def profile_dim(k: int) -> FitProfile:
    """Moment profile for the dimension exponent: the moment rule with
    dip(t) = ceil(t/2)."""
    return _moment_profile(k, lambda t: (t + 1) // 2)


def profile_int(k: int) -> FitProfile:
    """Moment profile for the intertwining exponent: the moment rule with
    no dip, so degree min(k, 2k - s) at shift s.  The paper's looser
    profile (shifts -k..2k, degree 2k - s) adds only coefficients that
    every exact fit found zero."""
    return _moment_profile(k, lambda t: 0)


def target_unknowns(target: str, k: int) -> int:
    """``profile_dim(k).unknowns`` or ``profile_int(k).unknowns``, in O(1):
    no profile is built, so any k >= 1 costs the same."""
    if target not in ("dim", "int"):
        raise ValueError("target must be 'dim' or 'int', got %r" % (target,))
    # degrees j + 1 for j = 0..k, then k + 1 - dip(t) for t = 1..k; the dips
    # of dim sum to floor((k + 1)^2 / 4)
    dips = (k + 1) ** 2 // 4 if target == "dim" else 0
    return (k + 1) * (3 * k + 2) // 2 - dips


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

    Every sample gives the integer row ``n^e * B(n+j) * den(v) | num(v)``,
    training rows first, and ``_echelon`` solves the training rows.  If they
    leave a coefficient free, held rows supply its pivot and the whole
    system must be consistent instead.  Otherwise the last HOLDOUT samples
    must be reproduced exactly, a mismatch meaning the profile cannot
    represent the aggregate.
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
    bells = bell_table(max(n for n, _ in samples) + profile.shifts[-1])
    rows = [[n ** e * bells[n + j] * v.denominator for j, e in unknowns] + [v.numerator]
            for n, v in samples]
    # with no surplus training row to be found inconsistent, the first held
    # row may settle a mismatch after one prime
    solution, free = _echelon(rows, train, train if train == m else None)
    if free:
        solution, _ = _echelon(rows, len(rows), None)
        train = len(rows)
    den, scaled = _over_lcd(solution or ())
    for (n, _), row in zip(samples[train:], rows[train:]):
        if solution is None or sum(map(mul, row, scaled)) != row[-1] * den:
            raise FitError("profile cannot represent the aggregate: holdout mismatch at n=%d" % n)
    mapping: dict = {}
    for (j, _), c in zip(unknowns, solution):
        mapping.setdefault(j, []).append(c)
    return ShiftedBellPolynomial.from_dict(mapping)


def _over_lcd(coeffs: Sequence[Fraction]) -> tuple:
    """(d, [c * d for c in coeffs]) for the least common denominator d."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _echelon(rows: list, eligible: int, held: int | None) -> tuple:
    """Gauss-Jordan over Q on the integer rows, the right-hand side as
    column m, with fit's first-nonzero pivot rule and pivots only from
    ``rows[:eligible]``: (solution, free), the coefficients of the
    right-hand side over the pivot columns with every free coefficient at
    zero, and whether there is one.  FitError when the right-hand side takes
    a pivot.  ``held`` is None or the index of a row past the eligible ones;
    the solution is None once that row is nonzero mod a prime at which every
    column but the right-hand side takes a pivot, as it is then over Q.

    The rows are reduced mod 30-bit primes.  A column that takes a pivot
    mod p has one over Q once every column before it is settled.  A column
    without a pivot mod p is settled only when its coefficients over the
    pivot columns, rebuilt by CRT and rational reconstruction, reproduce it
    exactly on every eligible row.  A prime whose pivots are fewer or later
    than another prime's is unlucky and skipped; only finitely many are.

    Reconstruction is attempted at each of the first 8 primes in use, then
    only once their count has grown by a quarter since the last attempt.
    Each attempt is quadratic in the size of the modulus, so an answer of D
    digits costs O(log D) attempts, not D, and at most a quarter more
    primes than it needs.
    """
    m = len(rows[0]) - 1
    best = None  # the pivot columns of the primes in use
    for p in _primes():
        pivots, open_cols, rest = _reduce_mod(rows, eligible, held, p)
        inconsistent = m not in open_cols  # the right-hand side took a pivot
        r = len(pivots) - inconsistent  # pivots among the first m columns
        if r == m and rest:
            return None, False
        key = pivots + [m + 1]  # earlier and more pivots compare lower
        if best is None or key < best:
            # used: the primes in use; tried: how many there were at the last attempt
            best, mod, settled, used, tried = key, 1, {}, 0, 0
            residues = {c: [0] * r for c in open_cols}
        elif key > best:
            continue
        inv = pow(mod, -1, p)
        used += 1
        attempt = used <= 8 or 4 * used >= 5 * tried
        if attempt:
            tried = used
        for c, column in open_cols.items():
            if c in settled:
                continue
            residues[c] = [u + mod * ((x - u) * inv % p) for u, x in zip(residues[c], column)]
            if not attempt:
                continue
            coeffs = [_rational(u, mod * p) for u in residues[c]]
            if None in coeffs:
                continue
            solution = [Fraction(0)] * m
            for col, coeff in zip(pivots, coeffs):
                solution[col] = coeff
            den, scaled = _over_lcd(solution)
            if all(sum(map(mul, row, scaled)) == row[c] * den for row in rows[:eligible]):
                settled[c] = solution
        mod *= p
        if len(settled) == len(open_cols):
            if inconsistent:
                raise FitError("profile cannot represent the aggregate: inconsistent system")
            return settled[m], r < m


def _reduce_mod(rows: list, eligible: int, held: int | None, p: int) -> tuple:
    """Gauss-Jordan mod the prime p on ``rows[:eligible]`` and ``rows[held]``
    with the right-hand side as column m, fit's first-nonzero pivot rule and
    pivots only from the eligible rows: (the pivot columns, {each column
    without a pivot: its entries in the pivot rows of the first m columns},
    the held row's last entry, or 0 without one).

    Each row is one int holding its residues in fixed slots, so a row update
    ``row + (p - f) * pivot row`` is one C-level multiply-add.  Slots are
    reduced only when a row becomes the pivot row, whose slots then lie
    below p; a row takes fewer updates than there are rows, each less than
    p^2, which the slot width leaves room for.
    """
    m = len(rows[0]) - 1
    chosen = rows[:eligible] + ([] if held is None else [rows[held]])
    size = (2 * p.bit_length() + len(chosen).bit_length() + 7) // 8  # bytes a slot
    bits, width = 8 * size, (m + 1) * size
    mask = (1 << bits) - 1

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")

    packed = [pack([a % p for a in row]) for row in chosen]
    pivots = []
    for col in range(m + 1):
        r, shift = len(pivots), col * bits
        piv = next((i for i in range(r, eligible) if (packed[i] >> shift & mask) % p), None)
        if piv is None:
            continue
        raw = packed[piv].to_bytes(width, "little")
        inv = pow(int.from_bytes(raw[col * size:(col + 1) * size], "little"), -1, p)
        top = pack([int.from_bytes(raw[i:i + size], "little") * inv % p
                    for i in range(0, width, size)])
        packed[piv], packed[r] = packed[r], top
        for i, row in enumerate(packed):
            f = (row >> shift & mask) % p
            if f and i != r:
                packed[i] = row + (p - f) * top
        pivots.append(col)
    taken = set(pivots)
    r = len(taken - {m})
    open_cols = {c: [(row >> c * bits & mask) % p for row in packed[:r]]
                 for c in range(m + 1) if c not in taken}
    return pivots, open_cols, (packed[-1] >> m * bits) % p if held is not None else 0


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


_PRIMES: dict = {}  # i -> the i-th prime below 2^30, descending, once found


def _primes() -> Iterator[int]:
    """The primes below 2^30, descending, each found when first asked for
    and kept for the process (threads that race find the same prime)."""
    p = (1 << 30) + 1
    for i in count():
        if i not in _PRIMES:
            q = p - 2
            while not _is_prime(q):
                q -= 2
            _PRIMES[i] = q
        p = _PRIMES[i]
        yield p


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
