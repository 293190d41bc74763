"""Output checks for benchmark jobs, run by run.py outside the timed loop.

Each job kind gets at least one check that does not trust the code path that
produced the output:

- pattern aggregates, ``eval``, products and ``dist --brute`` are compared
  with a numpy enumeration oracle written here from the pattern semantics;
- ``bell`` values are compared with sympy for small n, with a numpy Bell
  triangle modulo M (or modulo a large prime for exact values), and with
  Touchard's congruence B(n+p) = B(n) + B(n+1) (mod p) for small primes p;
- ``dist`` counts must sum to B(n), count the 2^(n-1) interval partitions at
  dimension 0 and the Catalan(n) noncrossing ones at intertwining 0, and their
  first two moments must match the shifted Bell closed forms;
- ``moments`` must start with M0 = B(n) and match the closed forms, which
  the paper's theorem makes valid at every n;
- fitted closed forms must reproduce samples that the fit did not use;
- ``asym`` rows are compared with Dobinski's series, summed here in floats.

Bell numbers used by the checks come from this module, not from partstats.
Checks return None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

# one BLAS thread: the checks are small, and a pool of BLAS threads in this
# process would compete with the timed worker for the machine's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
WIDE_PRIME = 1000000007  # < 2^30, so a numpy row sum of 8000 entries fits in int64
SYMPY_MAX_N = 100


# ---------------------------------------------------------------------------
# Bell numbers and enumeration, independent of the program under test
# ---------------------------------------------------------------------------

class BellNumbers:
    """Exact B(0..) from B(n+1) = sum_k C(n,k) B(k), grown on demand."""

    def __init__(self):
        self.values = [1]

    def __getitem__(self, n: int) -> int:
        while len(self.values) <= n:
            m = len(self.values) - 1
            self.values.append(sum(math.comb(m, k) * b for k, b in enumerate(self.values)))
        return self.values[n]


def bell_mod_numpy(nmax: int, m: int) -> np.ndarray:
    """B(0..nmax) mod m by the Bell triangle, one numpy prefix sum per row."""
    out = np.empty(nmax + 1, dtype=np.int64)
    out[0] = 1 % m
    row = np.array([1 % m], dtype=np.int64)
    for n in range(1, nmax + 1):
        out[n] = row[-1]
        row = np.concatenate(([row[-1]], (row[-1] + np.cumsum(row)) % m))
    return out


def all_rgs(n: int) -> np.ndarray:
    """Every restricted growth string of length n, one per row."""
    rows = np.zeros((1, 0), dtype=np.int8)
    maxes = np.full(1, -1, dtype=np.int64)
    for _ in range(n):
        counts = maxes + 2
        parent = np.repeat(np.arange(len(rows)), counts)
        vals = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.hstack([rows[parent], vals[:, None].astype(np.int8)])
        maxes = np.maximum(maxes[parent], vals)
    return rows


class Partitions:
    """Views of a stack of partitions given as RGS rows (0-indexed elements)."""

    def __init__(self, rgs: np.ndarray):
        self.rgs = rgs
        p, n = rgs.shape
        self.n = n
        prefix_max = np.maximum.accumulate(rgs, axis=1) if n else rgs
        before = np.hstack([np.full((p, 1), -1), prefix_max[:, :-1]]) if n else rgs
        self.first = rgs > before
        self.next = np.full((p, n), -1, dtype=np.int64)  # next element of the same block
        seen = np.full((p, n + 1), -1, dtype=np.int64)
        rows = np.arange(p)
        for x in range(n - 1, -1, -1):
            self.next[:, x] = seen[rows, rgs[:, x]]
            seen[rows, rgs[:, x]] = x
        self.last = self.next < 0

    def values(self, spec: dict):
        """(numerators, denominator): the statistic of ``spec`` on every row."""
        k, n = spec["length"], self.n
        combos = np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(-1, k)
        den = math.lcm(*(d for _, d, _ in spec["q"]))
        weights = np.zeros(len(combos), dtype=np.int64)
        for num, d, exps in spec["q"]:
            term = np.full(len(combos), num * (den // d) * n ** exps[-1], dtype=np.int64)
            for i, e in enumerate(exps[:-1]):
                term *= (combos[:, i] + 1) ** e
            weights += term
        label = {}
        for b, blk in enumerate(spec["blocks"]):
            for x in blk:
                label[x - 1] = b
        cls = self.rgs[:, combos] if k else None
        mask = np.ones((len(self.rgs), len(combos)), dtype=bool)
        for i in range(k):
            for j in range(i + 1, k):
                same = cls[:, :, i] == cls[:, :, j]
                mask &= same if label[i] == label[j] else ~same
        for i in spec.get("firsts", []):
            mask &= self.first[:, combos[:, i - 1]]
        for i in spec.get("lasts", []):
            mask &= self.last[:, combos[:, i - 1]]
        for a, b in spec.get("arcs", []):
            mask &= self.next[:, combos[:, a - 1]] == combos[:, b - 1]
        for a, b in spec.get("consecutive", []):
            mask &= combos[:, b - 1] - combos[:, a - 1] == 1
        return mask.astype(np.int64) @ weights, den

    def dimension(self) -> np.ndarray:
        """Sum over blocks of (max - min + 1), minus n: the dimension exponent."""
        pos = np.arange(self.n)
        return (np.where(self.last, pos, 0) - np.where(self.first, pos, 0) + self.first).sum(axis=1) - self.n

    def crossings(self) -> np.ndarray:
        """Pairs of arcs (e1, f1), (e2, f2) with e1 < e2 < f1 < f2."""
        total = np.zeros(len(self.rgs), dtype=np.int64)
        for e1 in range(self.n):
            f1 = self.next[:, e1]
            for e2 in range(e1 + 1, self.n):
                f2 = self.next[:, e2]
                total += (f1 > e2) & (f2 > f1)
        return total


def fraction_total(values, den) -> Fraction:
    return Fraction(int(values.sum()), den)


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("header is not %r" % header)
    return [line.split(",") for line in lines[1:]]


def int_table(text: str, header: str) -> list:
    return [(int(a), int(b)) for a, b in csv_rows(text, header)]


def closed_form(text: str) -> list:
    """[(shift, [Fraction coefficients])] from the JSON line of ``fit``."""
    lines = text.splitlines()
    if len(lines) != 2:
        raise ValueError("fit prints two lines, got %d" % len(lines))
    doc = json.loads(lines[1])
    return [(s["shift"], [Fraction(c) for c in s["coefficients"]]) for s in doc["shifts"]]


def evaluate_form(form: list, n: int, bell) -> Fraction:
    return sum((sum(c * n ** e for e, c in enumerate(cs)) * bell[n + j] for j, cs in form), Fraction(0))


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

class Checker:
    """Checks job outputs; ``partstats`` is imported from ``src`` only for
    fresh fit samples and the fast path that ``dist --brute`` must equal."""

    def __init__(self, src: str):
        self.src = src
        self.bell = BellNumbers()
        self._partitions = {}
        self._forms = {}  # (target, k) -> closed form
        self._sympy = None

    # -- helpers ---------------------------------------------------------------
    def partitions(self, n: int) -> Partitions:
        if n not in self._partitions:
            self._partitions[n] = Partitions(all_rgs(n))
        return self._partitions[n]

    def aggregate(self, spec: dict, n: int) -> Fraction:
        return fraction_total(*self.partitions(n).values(spec))

    def _import_program(self):
        if self.src not in sys.path:
            sys.path.insert(0, self.src)

    def program_cli(self, argv: list) -> str:
        """Run the program's CLI in this process."""
        self._import_program()
        from partstats import cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.run(argv)
        if rc:
            raise RuntimeError("partstats %s exited %d" % (" ".join(argv), rc))
        return out.getvalue()

    def form(self, target: str, k: int) -> list:
        """The verified closed form of the kth moment of ``target``."""
        if (target, k) not in self._forms:
            text = self.program_cli(["fit", "--target", target, "--k", str(k)])
            reason = self._verify_form(text, target, k)
            if reason:
                raise RuntimeError("closed form for %s k=%d: %s" % (target, k, reason))
        return self._forms[(target, k)]

    def sympy_bell(self, n: int) -> int:
        if self._sympy is None:
            import sympy

            self._sympy = [int(sympy.bell(i)) for i in range(SYMPY_MAX_N + 1)]
        return self._sympy[n]

    # -- dispatch --------------------------------------------------------------
    def check(self, job: dict, rc: int, err: str, payload: bytes):
        if rc != 0:
            return "exit code %d: %s" % (rc, err.strip().splitlines()[-1] if err.strip() else "")
        if err:
            return "unexpected stderr: %s" % err.strip()[:200]
        spec = job["check"]
        try:
            text = payload.decode()
            return getattr(self, "_check_" + spec["kind"])(text, spec)
        except (ValueError, KeyError, IndexError) as e:  # includes decoding and JSON errors
            return "unparsable output: %s: %s" % (type(e).__name__, e)
        except RuntimeError as e:  # the program failed to produce a reference value
            return str(e)

    # -- per kind ---------------------------------------------------------------
    def _check_aggregate(self, text, spec):
        want = self.aggregate(spec["spec"], spec["n"])
        got = Fraction(text.strip())
        return None if got == want and text == "%s\n" % want else "aggregate %s, oracle %s" % (got, want)

    def _check_product(self, text, spec):
        a = self.partitions(spec["n"]).values(spec["a"])
        b = self.partitions(spec["n"]).values(spec["b"])
        want = Fraction(sum(int(x) * int(y) for x, y in zip(a[0], b[0])), a[1] * b[1])
        return None if text == "%s\n" % want else "product aggregate %s, oracle %s" % (text.strip(), want)

    def _check_eval(self, text, spec):
        rows = Partitions(np.array([spec["rgs"]], dtype=np.int8))
        want = fraction_total(*rows.values(spec["spec"]))
        return None if text == "%s\n" % want else "eval %s, oracle %s" % (text.strip(), want)

    def _check_fit_pattern(self, text, spec):
        form = closed_form(text)
        for n in (9, 10):  # default profile samples stop at n = 8
            got, want = evaluate_form(form, n, self.bell), self.aggregate(spec["spec"], n)
            if got != want:
                return "closed form gives %s at fresh n=%d, oracle %s" % (got, n, want)
        return None

    def _check_fit_target(self, text, spec):
        return self._verify_form(text, spec["target"], spec["k"])

    def _verify_form(self, text, target, k):
        """Check a fitted moment closed form on two n beyond its samples."""
        form = closed_form(text)
        if self._forms.get((target, k)) == form:
            return None
        self._import_program()
        from partstats import recursions, shifted_bell

        profile = shifted_bell.profile_dim(k) if target == "dim" else shifted_bell.profile_int(k)
        last = max(shifted_bell.default_sample_points(profile))
        moments = (recursions.dim_moments_range if target == "dim" else recursions.int_moments_range)(k, last + 2)
        for n in (last + 1, last + 2):
            if evaluate_form(form, n, self.bell) != moments[n][k]:
                return "closed form misses the fresh sample at n=%d" % n
        self._forms[(target, k)] = form
        return None

    def _check_dist(self, text, spec):
        n, target = spec["n"], spec["target"]
        rows = int_table(text, "value,count")
        counts = dict(rows)
        if [v for v, _ in rows] != sorted(counts) or any(c <= 0 for c in counts.values()):
            return "values not strictly increasing or counts not positive"
        if sum(counts.values()) != self.bell[n]:
            return "counts sum to %d, B(%d) = %d" % (sum(counts.values()), n, self.bell[n])
        zero = 2 ** (n - 1) if target == "dim" else math.comb(2 * n, n) // (n + 1)
        if n and counts.get(0) != zero:
            return "%s = 0 on %s partitions, expected %d" % (target, counts.get(0), zero)
        if spec["brute"]:
            p = self.partitions(n)
            stat = p.dimension() if target == "dim" else p.crossings()
            vals, cnts = np.unique(stat, return_counts=True)
            if dict(zip(vals.tolist(), cnts.tolist())) != counts:
                return "brute distribution differs from the numpy oracle"
            fast = self.program_cli(["dist", target, "--n", str(n)])
            if fast != text:
                return "--brute output differs from the fast path"
        for k in (1, 2):
            moment = sum(c * v ** k for v, c in counts.items())
            if moment != evaluate_form(self.form(target, k), n, self.bell):
                return "moment %d of the distribution misses the closed form" % k
        return None

    def _check_moments(self, text, spec):
        n, target, k = spec["n"], spec["target"], spec["k"]
        rows = int_table(text, "k,moment")
        if [j for j, _ in rows] != list(range(k + 1)):
            return "moment orders are not 0..%d" % k
        if rows[0][1] != self.bell[n]:
            return "M0 = %d, B(%d) = %d" % (rows[0][1], n, self.bell[n])
        for j, value in rows[1:]:
            if value != evaluate_form(self.form(target, j), n, self.bell):
                return "M%d misses the closed form" % j
        return None

    def _check_bell(self, text, spec):
        nmax, m = spec["n"], spec["mod"]
        rows = csv_rows(text, "n,bell")
        if [int(i) for i, _ in rows] != list(range(nmax + 1)):
            return "indices are not 0..%d" % nmax
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            values = [int(v) for _, v in rows]
        finally:
            sys.set_int_max_str_digits(limit)
        for n in range(min(nmax, SYMPY_MAX_N) + 1):
            want = self.sympy_bell(n) if m is None else self.sympy_bell(n) % m
            if values[n] != want:
                return "B(%d) = %d, sympy says %d" % (n, values[n], want)
        wide = WIDE_PRIME if m is None else m
        reduced = [v % wide for v in values]
        if reduced != bell_mod_numpy(nmax, wide).tolist():
            return "values differ from the Bell triangle mod %d" % wide
        for p in SMALL_PRIMES:
            if m is not None and m % p:
                continue
            r = [v % p for v in values]
            if any((r[n + p] - r[n] - r[n + 1]) % p for n in range(nmax - p + 1)):
                return "Touchard's congruence fails mod %d" % p
        return None

    def _check_asym(self, text, spec):
        n, target = spec["n"], spec["target"]
        rows = {r[0]: r[1:] for r in csv_rows(text, "quantity,exact,asymptotic,rel_error")}
        if sorted(rows) != ["alpha", "log_bell_T0", "log_bell_T1", "log_bell_T2", "mean"]:
            return "unexpected rows %s" % sorted(rows)
        a = float(rows["alpha"][0])
        if abs(a * math.exp(a) - (n + 1)) > 1e-9 * (n + 1):
            return "alpha %r does not solve u e^u = n + 1" % a
        form = self.form(target, 1)
        ks, weights, logb = _dobinski(n)
        for order in (0, 1, 2):
            exact, est, rel = (float(x) for x in rows["log_bell_T%d" % order])
            if abs(exact - logb) > 1e-10 * logb:
                return "log B(%d) = %r, Dobinski gives %r" % (n, exact, logb)
            if abs(abs(math.expm1(est - exact)) - rel) > 3e-11 * logb + 0.01 * rel:
                return "rel_error of log_bell_T%d is inconsistent" % order
        # exact mean = R(n) / B(n), with B(n+j) / B(n) the moments of Dobinski's weights
        mean = sum(float(sum(c * n ** e for e, c in enumerate(cs))) * float(np.dot(weights, ks ** j))
                   for j, cs in form)
        exact_mean, asym_mean, rel = (float(x) for x in rows["mean"])
        if abs(exact_mean - mean) > 1e-6 * abs(mean):
            return "exact mean %r, Dobinski gives %r" % (exact_mean, mean)
        if abs(abs(asym_mean / exact_mean - 1.0) - rel) > 0.01 * rel + 1e-12:
            return "rel_error of the mean is inconsistent"
        return None


def _dobinski(n: int):
    """(k, normalised k^n / k!, log B(n)) over the terms of Dobinski's series.

    B(n) = e^-1 sum_k k^n / k!, so for n >= 1 the ratio B(n+j) / B(n) is the
    jth moment of k under the normalised weights (k = 0 adds nothing).
    """
    ks = np.arange(1, 8 * n + 60, dtype=float)
    logs = n * np.log(ks) - np.array([math.lgamma(k + 1) for k in ks])
    top = logs.max()
    w = np.exp(logs - top)
    total = w.sum()
    return ks, w / total, top + math.log(total) - 1.0
