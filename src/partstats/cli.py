"""Command-line interface: every capability as a deterministic subcommand.

Exit codes: 0 success, 1 user error (single-line diagnostic on stderr),
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import asymptotics, exactnum, recursions, shifted_bell, statistics
from .exactnum import bell, bell_mod_table, exact_text
from .partitions import PartitionError, brute_distribution, parse_partition
from .statistics import StatisticError

BRUTE_GUARD = 14
# dist's DP cost grows about as n^5 (dim) and n^6 (int); measured at the
# bound on CPython 3.11.7, 2 vCPU
DP_GUARD = 200
DP_COST = "at n=200 dist dim took 27 s and 142 MiB, dist int 85 s and 101 MiB"
# bound on statistics.aggregate_cost at the largest size aggregated (`fit
# --pattern` takes every sample point from one run); measured at the bound on
# CPython 3.11.7, 2 vCPU (the time per unit grows as the DP's integers widen)
AGGREGATE_GUARD = 2 * 10**7
AGGREGATE_COST = ("at the bound crossings_k(2)*nestings (n=120) took 2.8 s, "
                  "one singleton pattern (n=3162) 12 s")
# bound on recursions.moments_cost for `moments`; measured at and past the
# bound on CPython 3.11.7, 2 vCPU
MOMENTS_GUARD = 3 * 10**10
MOMENTS_COST = ("at the bound dim n=3100 k=0 took 15 s, dim n=0 k=773 9 s, "
                "int n=1955 k=1 14 s and 24 MiB")
# bound on the unknowns of the `fit --target` and `fit --pattern` profiles
# (int k <= 15, dim k <= 17 pass); measured cold, moments or aggregate
# included, on CPython 3.11.7, 2 vCPU
FIT_GUARD = 406
FIT_COST = ("int k=15 (376 unknowns) took 6.0 s, dim k=17 (396) 8.7 s, dim k=18 (442) 12.2 s, "
            "a failing pattern fit (406) 0.7 s")
# exact `bell --max N` shares the asym bound and text: both grow B_0..B_N
# (bell --max 3000 took 5.3 s, --max 4000 12.7 s)
ASYM_GUARD = 4000
ASYM_COST = "n=3000 took 5.2 s, n=4000 12 s, n=4500 19 s"
# bound on (N + 1)^2 times the machine words of M for `bell --max N --mod M`,
# the entries the triangle adds; measured at the bound on CPython 3.11.7, 2 vCPU
BELL_MOD_GUARD = 2 * 10**8
BELL_MOD_COST = "N=14000 M=10^6+3 took 4.6-6.6 s, N=3000 M=2^1329-1 1.1 s"
# bound on statistics.evaluate_cost for `eval`; measured at the bound on
# CPython 3.11.7, 2 vCPU
EVAL_GUARD = 3 * 10**7
EVAL_COST = ("at the bound 4 singleton positions (n=165) took 2.9 s, 5 (n=82) 3.9 s, "
             "4 with 3 y-monomial groups (n=122) 5.7 s")


class CliError(Exception):
    """User-facing error; printed as one line, exit code 1."""


def _write(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError("cannot write output: %s" % e)


def _load_statistic(path: str) -> statistics.Statistic:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError("cannot read pattern file: %s" % e)
    try:
        return statistics.parse_pattern(text)
    except StatisticError as e:
        raise CliError("invalid pattern: %s" % e)


def _guard(value: int, force: bool, bound: int, what: str, measured: str, name: str = "") -> None:
    """Refuse ``value`` past ``bound`` unless forced, in one line naming the
    subject (``name=value``, or with no name the estimated cost), the guard,
    its bound and ``measured``, the cost seen at the bound or at ``value``."""
    if value <= bound or force:
        return
    if not name:
        subject = "estimated cost about 10^%.1f" % math.log10(value)
    else:
        try:
            subject = "%s=%d" % (name, value)
        except ValueError:  # past CPython's int-to-str digit limit
            subject = "%s=about 10^%.1f" % (name, math.log10(value))
    raise CliError("%s exceeds the %s (%d; %s); pass --force to override"
                   % (subject, what, bound, measured))


def _brute_force_cost(n: int) -> str:
    """The brute-force walk visits all B_n partitions; never compute B_n here.
    B_0 = B_1 = 1, and ``log_bell_asym`` has no value at n = 0."""
    try:
        return "about 10^%.1f partitions" % (asymptotics.log_bell_asym(max(n, 1)) / math.log(10))
    except OverflowError:  # ln B_n overflows a float only from n > 10^305 on
        return "over 10^(10^300) partitions"


def _check_sizes(args) -> None:
    """Refuse a --n, --k, --max, --profile-degree or --profile-k that no
    list can index.

    Run only under --force: without it, every guard refuses such a size
    first and states its estimated cost.
    """
    for name in ("n", "k", "max", "profile_degree", "profile_k"):
        value = getattr(args, name, None)
        if value is not None and value > sys.maxsize:
            raise CliError("--%s exceeds the largest size a list can index (%d)"
                           % (name.replace("_", "-"), sys.maxsize))


def _csv(header: str, rows) -> str:
    """``header`` and one ``a,b`` line per pair: ``a`` a small int and ``b``
    text, the ``exact_text`` of a computed number, copied once by one join."""
    parts = [header, "\n"]
    for a, b in rows:
        parts += ("%d," % a, b, "\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# subcommands. ``run`` binds each ``_cmd_*`` handler once per process, when
# it builds its parser. Each dim/int function, and ``exactnum.bell_table``, is
# still looked up on its module at call time, when a memo of the block by
# ``_parser`` misses, so a wrapper bound onto the module later (perfbench's
# tracer, a test spy) sees every engine run.
# ---------------------------------------------------------------------------

def _cmd_bell(args) -> None:
    if args.max < 0:
        raise CliError("--max must be nonnegative")
    if args.mod is not None:
        if args.mod < 2:
            raise CliError("--mod must be at least 2")
        _guard((args.max + 1) ** 2 * (args.mod.bit_length() // 64 + 1), args.force,
               BELL_MOD_GUARD, "bell --mod cost guard", BELL_MOD_COST)
        # each residue is below M, which int() parsed under the int-to-str
        # digit limit, so "%d" prints it
        residues = bell_mod_table(args.max, args.mod)
        text = "n,bell\n" + "".join(map("%d,%d\n".__mod__, enumerate(residues)))
    else:
        _guard(args.max, args.force, ASYM_GUARD, "bell guard", ASYM_COST, "max")
        text = _bell_csv(args.max)
    _write(args, text)


def _cmd_dist(args) -> None:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    if args.brute:
        _guard(args.n, args.force, BRUTE_GUARD, "brute-force guard", _brute_force_cost(args.n), "n")
        try:
            pairs = sorted(brute_distribution(args.n, args.target).items())
        except ValueError as e:  # a forced n past the recursion limit
            raise CliError(str(e))
    else:
        _guard(args.n, args.force, DP_GUARD, "DP guard", DP_COST, "n")
        pairs = _distribution(args.target, args.n)
    _write(args, _csv("value,count", ((v, exact_text(c)) for v, c in pairs)))


def _cmd_moments(args) -> None:
    if args.n < 0 or args.k < 0:
        raise CliError("--n and --k must be nonnegative")
    _guard(recursions.moments_cost(args.k, args.n), args.force, MOMENTS_GUARD,
           "moments cost guard", MOMENTS_COST)
    values = _moment_rows(args.target, args.k, args.n)[args.n]
    _write(args, _csv("k,moment", enumerate(map(exact_text, values))))


def _cmd_eval(args) -> None:
    f = _load_statistic(args.pattern)
    try:
        lam = parse_partition(args.partition)
    except PartitionError as e:
        raise CliError("invalid partition: %s" % e)
    _guard(statistics.evaluate_cost(f, lam), args.force, EVAL_GUARD, "eval cost guard", EVAL_COST)
    _write(args, exact_text(f.evaluate(lam)) + "\n")


def _cmd_aggregate(args) -> None:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    f = _load_statistic(args.pattern)
    _guard(statistics.aggregate_cost(f, args.n), args.force, AGGREGATE_GUARD,
           "aggregate cost guard", AGGREGATE_COST)
    _write(args, exact_text(statistics.aggregate(f, args.n)) + "\n")


def _fit_target(target: str, k: int) -> shifted_bell.ShiftedBellPolynomial:
    profile = getattr(shifted_bell, "profile_" + target)(k)
    points = shifted_bell.default_sample_points(profile)
    moments = _moment_rows(target, k, max(points))
    return shifted_bell.fit([(n, moments[n][k]) for n in points], profile)


def _cmd_fit(args) -> None:
    if args.target and args.pattern:
        raise CliError("fit takes either --target or --pattern, not both")
    if args.target:
        if args.profile_degree is not None or args.profile_k is not None:
            raise CliError("--profile-degree and --profile-k go with --pattern, not --target")
        k = 1 if args.k is None else args.k
        if k < 1:
            raise CliError("--k must be at least 1")
        # asym's k = 1 fit passes no guard
        _guard(shifted_bell.target_unknowns(args.target, k), args.force, FIT_GUARD,
               "fit guard", FIT_COST, "unknowns")
        result = _fit_target(args.target, k)
    elif args.pattern:
        if args.k is not None:
            raise CliError("--k goes with --target, not --pattern")
        f = _load_statistic(args.pattern)
        deg = args.profile_degree if args.profile_degree is not None else f.degree()
        pk = args.profile_k if args.profile_k is not None else max(
            (p.k for p, _ in f.terms), default=0
        )
        try:
            unknowns = shifted_bell.generic_unknowns(deg, pk)
        except ValueError as e:
            raise CliError("invalid profile: %s" % e)
        _guard(unknowns, args.force, FIT_GUARD, "fit guard", FIT_COST, "unknowns")
        profile = shifted_bell.profile_generic(deg, pk)
        points = shifted_bell.default_sample_points(profile)
        _guard(statistics.aggregate_cost(f, max(points)), args.force, AGGREGATE_GUARD,
               "aggregate cost guard", AGGREGATE_COST)
        sums = statistics.aggregate_range(f, max(points))
        samples = [(n, sums[n]) for n in points]
        try:
            result = shifted_bell.fit(samples, profile)
        except shifted_bell.FitError as e:
            raise CliError("fit failed: %s" % e)
    else:
        raise CliError("fit needs either --target or --pattern")
    text = result.canonical_text() + "\n" + json.dumps(result.to_dict(), sort_keys=True) + "\n"
    _write(args, text)


def _cmd_asym(args) -> None:
    n = args.n
    if n < 2:
        raise CliError("--n must be at least 2")
    _guard(n, args.force, ASYM_GUARD, "asym guard", ASYM_COST, "n")
    fitted = _fit_target(args.target, 1)
    total = fitted.evaluate(n)
    # one correctly rounded int division, as float(Fraction) does, without
    # first reducing the fraction by the gcd of two numbers of B_n's size
    exact_mean = total.numerator / (total.denominator * bell(n))
    mean_est = getattr(asymptotics, args.target + "_moment_asym")(n)[0]
    a = asymptotics.alpha(n)
    # the exact mean is 0 at small n (dim at n = 2, int at n <= 3)
    rel = abs(mean_est / exact_mean - 1.0) if total.numerator else math.inf
    lines = [
        "quantity,exact,asymptotic,rel_error",
        "alpha,%.12g,%.12g,0" % (a, a),
        "mean,%.12g,%.12g,%.3e" % (exact_mean, mean_est, rel),
    ]
    exact_log = asymptotics.log_bell_exact(n)
    for order in (0, 1, 2):
        est = asymptotics.log_bell_asym(n, 0, order)
        lines.append(
            "log_bell_T%d,%.12g,%.12g,%.3e"
            % (order, exact_log, est, abs(math.exp(est - exact_log) - 1.0))
        )
    _write(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse errors to exit code 1
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="partstats", description="Exact set-partition statistics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bell", help="Bell numbers, optionally reduced mod M")
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--mod", type=int, default=None)
    sp.set_defaults(func=_cmd_bell)

    sp = sub.add_parser("dist", help="exact distribution of dim or int exponent")
    sp.add_argument("target", choices=["dim", "int"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--brute", action="store_true", help="oracle path via enumeration")
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("moments", help="exact moments via the DP recursions")
    sp.add_argument("target", choices=["dim", "int"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("eval", help="evaluate a pattern statistic on one partition")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--partition", required=True)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("aggregate", help="sum a pattern statistic over all of Pi(n)")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_aggregate)

    sp = sub.add_parser("fit", help="fit a shifted Bell polynomial")
    sp.add_argument("--target", choices=["dim", "int"])
    sp.add_argument("--k", type=int)
    sp.add_argument("--pattern")
    sp.add_argument("--profile-degree", type=int, default=None)
    sp.add_argument("--profile-k", type=int, default=None)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("asym", help="asymptotic vs exact comparison table")
    sp.add_argument("--target", choices=["dim", "int"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_asym)

    for sp in sub.choices.values():
        sp.add_argument("--force", action="store_true")
        sp.add_argument("--out")
    return p


# ---------------------------------------------------------------------------
# what a warm process repeats: one process may run many commands (a test
# session, a benchmark worker). No lock: each entry is immutable and replaced
# whole, so a race only computes an answer twice.
# ---------------------------------------------------------------------------

_parser = None  # built by the first run() call; build_parser() makes a new one
# (target, n) -> the sorted (value, count) pairs of `dist`; keyed by n alone,
# as every layer's A = 0 row of a run would grow about as n^4
_dists: dict = {}
# (target, k) -> the power sums M_0..M_k of n = 0..N, one run to N
_moments: dict = {}
# the `bell --max` text so far and its line ends: ends[n + 1] ends B_n's line
_bell_text = ("n,bell\n", (7,))


def _distribution(target: str, n: int) -> tuple:
    """The sorted (value, count) pairs of the distribution of ``target`` on [n]."""
    got = _dists.get((target, n))
    if got is None:
        hist = getattr(recursions, target + "_distribution")(n)
        got = _dists[target, n] = tuple(sorted(hist.items()))
    return got


def _moment_rows(target: str, k: int, n: int) -> tuple:
    """The power sums M_0..M_k of ``target`` for n' = 0..n, one tuple per n'."""
    got = _moments.get((target, k), ())
    if not 0 <= n < len(got):  # a negative n reaches the engine, which refuses it
        rows = getattr(recursions, target + "_moments_range")(k, n)
        got = _moments[target, k] = tuple(map(tuple, rows))
    return got[: n + 1]


def _bell_csv(nmax: int) -> str:
    """``bell --max nmax``'s text, a prefix of the one kept: each B_n is
    formatted once per process (CPython's int-to-str is quadratic in the
    digits), and the kept text itself is returned at its last line."""
    global _bell_text
    text, ends = _bell_text
    if not 0 <= nmax < len(ends) - 1:  # bell_table refuses a negative nmax
        ends = list(ends)
        start = len(ends) - 1
        # after the first append (a copy) the local is the only reference: CPython grows it in place
        for i, b in enumerate(exactnum.bell_table(nmax)[start:], start):
            text += "%d,%s\n" % (i, exact_text(b))
            ends.append(len(text))
        _bell_text = text, tuple(ends)
    return text[: ends[nmax + 1]]


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if args.force:
            _check_sizes(args)
        args.func(args)
        return 0
    except (CliError, StatisticError, PartitionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as e:  # internal invariant violation
        print("internal error: %s" % e, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
