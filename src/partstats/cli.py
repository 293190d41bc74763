"""Command-line interface: every capability as a deterministic subcommand.

Exit codes: 0 success, 1 user error (single-line diagnostic on stderr),
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from fractions import Fraction

from . import asymptotics, recursions, shifted_bell, statistics
from .exactnum import bell, bell_mod_table
from .partitions import PartitionError, crossing_count, enumerate_partitions, parse_partition
from .statistics import StatisticError

BRUTE_GUARD = 14
# dist's DP cost grows about as n^5 (dim) and n^6 (int); measured at the
# bound on CPython 3.11.7, 2 vCPU
DP_GUARD = 200
DP_COST = "at n=200 dist dim took 27 s and 142 MiB, dist int 85 s and 101 MiB"


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


def _guard_n(n: int, force: bool, bound: int = BRUTE_GUARD, what: str = "brute-force guard",
             cost: str = "") -> None:
    if n > bound and not force:
        raise CliError("n=%d exceeds the %s (%d%s); pass --force to override" % (n, what, bound, cost))


def _csv(header: str, rows) -> str:
    """``header`` and one ``a,b`` line per integer pair, printed in full.

    The rows are computed, not read, so CPython's limit on the digits of an
    int-to-str conversion (which guards parsing input) is lifted while they
    are formatted: B_n has more than 4300 digits from n = 1981 on.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return header + "\n" + "".join("%d,%d\n" % row for row in rows)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# subcommands. Each dim/int function is looked up on its module at call
# time, so a wrapper bound onto the module later (perfbench's tracer, a test
# spy) sees every call.
# ---------------------------------------------------------------------------

def _cmd_bell(args) -> None:
    if args.max < 0:
        raise CliError("--max must be nonnegative")
    if args.mod is not None:
        if args.mod < 2:
            raise CliError("--mod must be at least 2")
        values = bell_mod_table(args.max, args.mod)
    else:
        values = [bell(n) for n in range(args.max + 1)]
    _write(args, _csv("n,bell", enumerate(values)))


def _cmd_dist(args) -> None:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    if args.brute:
        _guard_n(args.n, args.force)
        if args.target == "dim":
            d = statistics.builtin("dimension")
            values = (int(d.evaluate(lam)) for lam in enumerate_partitions(args.n))
        else:
            # the oracle counts crossings directly, not through the evaluator
            values = (crossing_count(lam.arcs()) for lam in enumerate_partitions(args.n))
        hist = Counter(values)
    else:
        _guard_n(args.n, args.force, DP_GUARD, "DP guard", "; " + DP_COST)
        hist = getattr(recursions, args.target + "_distribution")(args.n)
    _write(args, _csv("value,count", sorted(hist.items())))


def _cmd_moments(args) -> None:
    if args.n < 0 or args.k < 0:
        raise CliError("--n and --k must be nonnegative")
    values = getattr(recursions, args.target + "_moments")(args.k, args.n)
    _write(args, _csv("k,moment", enumerate(values)))


def _cmd_eval(args) -> None:
    f = _load_statistic(args.pattern)
    try:
        lam = parse_partition(args.partition)
    except PartitionError as e:
        raise CliError("invalid partition: %s" % e)
    _write(args, "%s\n" % f.evaluate(lam))


def _cmd_aggregate(args) -> None:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    _guard_n(args.n, args.force)
    f = _load_statistic(args.pattern)
    _write(args, "%s\n" % statistics.aggregate(f, args.n))


def _fit_target(target: str, k: int) -> shifted_bell.ShiftedBellPolynomial:
    if k < 1:
        raise CliError("--k must be at least 1")
    profile = getattr(shifted_bell, "profile_" + target)(k)
    points = shifted_bell.default_sample_points(profile)
    moments = getattr(recursions, target + "_moments_range")(k, max(points))
    return shifted_bell.fit([(n, moments[n][k]) for n in points], profile)


def _cmd_fit(args) -> None:
    if args.target:
        result = _fit_target(args.target, args.k)
    elif args.pattern:
        f = _load_statistic(args.pattern)
        deg = args.profile_degree if args.profile_degree is not None else f.degree()
        pk = args.profile_k if args.profile_k is not None else max(
            (s.pattern.k for _, s in f.terms), default=0
        )
        try:
            profile = shifted_bell.profile_generic(deg, pk)
        except ValueError as e:
            raise CliError("invalid profile: %s" % e)
        points = shifted_bell.default_sample_points(profile)
        _guard_n(max(points), args.force)
        samples = [(n, statistics.aggregate(f, n)) for n in points]
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
    fitted = _fit_target(args.target, 1)
    exact_mean = Fraction(fitted.evaluate(n), bell(n))
    mean_est = getattr(asymptotics, args.target + "_moment_asym")(n)[0]
    a = asymptotics.alpha(n)
    lines = [
        "quantity,exact,asymptotic,rel_error",
        "alpha,%.12g,%.12g,0" % (a.alpha, a.alpha),
        "mean,%.12g,%.12g,%.3e"
        % (float(exact_mean), mean_est, abs(mean_est / float(exact_mean) - 1.0)),
    ]
    exact_log = asymptotics.log_bell_exact(n)
    for order in (0, 1, 2):
        est = asymptotics.log_bell_asym(n, 0, order).log_value
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
    sp.add_argument("--force", action="store_true")
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
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_aggregate)

    sp = sub.add_parser("fit", help="fit a shifted Bell polynomial")
    sp.add_argument("--target", choices=["dim", "int"])
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--pattern")
    sp.add_argument("--profile-degree", type=int, default=None)
    sp.add_argument("--profile-k", type=int, default=None)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("asym", help="asymptotic vs exact comparison table")
    sp.add_argument("--target", choices=["dim", "int"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_asym)

    for sp in sub.choices.values():
        sp.add_argument("--out")
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except (CliError, StatisticError, PartitionError, shifted_bell.FitError,
            shifted_bell.DomainError) as e:
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
