"""Command-line interface: every capability as a deterministic subcommand.

Exit codes: 0 success, 1 user error (single-line diagnostic on stderr),
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import asymptotics, recursions, shifted_bell, statistics
from .exactnum import bell, bell_mod_table
from .partitions import PartitionError, brute_distribution, parse_partition
from .statistics import StatisticError

BRUTE_GUARD = 14
# dist's DP cost grows about as n^5 (dim) and n^6 (int); measured at the
# bound on CPython 3.11.7, 2 vCPU
DP_GUARD = 200
DP_COST = "at n=200 dist dim took 27 s and 142 MiB, dist int 85 s and 101 MiB"
# bound on statistics.aggregate_cost summed over the aggregates of
# `aggregate` and `fit --pattern`; measured at the bound on CPython 3.11.7,
# 2 vCPU (the time per unit grows with n, as the DP's integers widen)
AGGREGATE_GUARD = 2 * 10**7
AGGREGATE_COST = ("at the bound crossings_k(2)*nestings (n=120) took 2.8 s, "
                  "one singleton pattern (n=3162) 12 s")
# bound on recursions.moments_cost for `moments`, on the unknowns of the
# `fit --target` and `fit --pattern` profiles, and on n for `asym`, whose
# exact B_n costs about n^3; measured at and past the bounds on CPython
# 3.11.7, 2 vCPU
MOMENTS_GUARD = 3 * 10**10
MOMENTS_COST = ("at the bound dim n=3100 k=0 took 15 s, dim n=0 k=773 9 s, "
                "int n=1955 k=1 14 s and 24 MiB")
FIT_GUARD = 91
FIT_COST = "int k=4 (91 unknowns) took 11.5 s, dim k=8 (97) 17.6 s, int k=5 (136) 149 s"
# exact `bell --max N` shares the asym bound and text: both grow B_0..B_N
# (bell --max 3000 took 5.3 s, --max 4000 12.7 s)
ASYM_GUARD = 4000
ASYM_COST = "n=3000 took 5.2 s, n=4000 12 s, n=4500 19 s"
# bound on (N + 1)^2 times the machine words of M for `bell --max N --mod M`,
# the entries the triangle adds; measured at the bound on CPython 3.11.7, 2 vCPU
BELL_MOD_GUARD = 2 * 10**8
BELL_MOD_COST = "N=14000 M=10^6+3 took 4.6-6.6 s, N=3000 M=2^1329-1 1.1 s"


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
             cost: str = "", name: str = "n") -> None:
    if n > bound and not force:
        if not cost:  # brute force visits all B_n partitions; never compute B_n here
            try:
                log10_bell = asymptotics.log_bell_asym(n).log_value / math.log(10)
                cost = "; about 10^%.1f partitions" % log10_bell
            except OverflowError:  # ln B_n overflows a float only from n > 10^305 on
                cost = "; over 10^(10^300) partitions"
        try:
            shown = "%d" % n
        except ValueError:  # past CPython's int-to-str digit limit
            shown = "about 10^%.1f" % math.log10(n)
        raise CliError("%s=%s exceeds the %s (%d%s); pass --force to override"
                       % (name, shown, what, bound, cost))


def _guard_cost(cost: int, force: bool, bound: int, what: str, measured: str) -> None:
    if cost > bound and not force:
        raise CliError(
            "estimated cost about 10^%.1f exceeds the %s (%d; %s); pass --force to override"
            % (math.log10(cost), what, bound, measured)
        )


def _guard_aggregate(f: statistics.Statistic, ns, force: bool) -> None:
    _guard_cost(sum(statistics.aggregate_cost(f, n) for n in ns), force, AGGREGATE_GUARD,
                "aggregate cost guard", AGGREGATE_COST)


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
# subcommands. ``run`` binds each ``_cmd_*`` handler once per process, when
# it builds its parser. Each dim/int function is still looked up on its
# module at call time, so a wrapper bound onto the module later (perfbench's
# tracer, a test spy) sees every call.
# ---------------------------------------------------------------------------

def _cmd_bell(args) -> None:
    if args.max < 0:
        raise CliError("--max must be nonnegative")
    if args.mod is not None:
        if args.mod < 2:
            raise CliError("--mod must be at least 2")
        _guard_cost((args.max + 1) ** 2 * (args.mod.bit_length() // 64 + 1), args.force,
                    BELL_MOD_GUARD, "bell --mod cost guard", BELL_MOD_COST)
        values = bell_mod_table(args.max, args.mod)
    else:
        _guard_n(args.max, args.force, ASYM_GUARD, "bell guard", "; " + ASYM_COST, "max")
        values = [bell(n) for n in range(args.max + 1)]
    _write(args, _csv("n,bell", enumerate(values)))


def _cmd_dist(args) -> None:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    if args.brute:
        _guard_n(args.n, args.force)
        hist = brute_distribution(args.n, args.target)
    else:
        _guard_n(args.n, args.force, DP_GUARD, "DP guard", "; " + DP_COST)
        hist = getattr(recursions, args.target + "_distribution")(args.n)
    _write(args, _csv("value,count", sorted(hist.items())))


def _cmd_moments(args) -> None:
    if args.n < 0 or args.k < 0:
        raise CliError("--n and --k must be nonnegative")
    _guard_cost(recursions.moments_cost(args.k, args.n), args.force, MOMENTS_GUARD,
                "moments cost guard", MOMENTS_COST)
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
    f = _load_statistic(args.pattern)
    _guard_aggregate(f, [args.n], args.force)
    _write(args, "%s\n" % statistics.aggregate(f, args.n))


def _fit_target(target: str, k: int) -> shifted_bell.ShiftedBellPolynomial:
    profile = getattr(shifted_bell, "profile_" + target)(k)
    points = shifted_bell.default_sample_points(profile)
    moments = getattr(recursions, target + "_moments_range")(k, max(points))
    return shifted_bell.fit([(n, moments[n][k]) for n in points], profile)


def _cmd_fit(args) -> None:
    if args.target and args.pattern:
        raise CliError("fit takes either --target or --pattern, not both")
    if args.target:
        if args.k < 1:
            raise CliError("--k must be at least 1")
        # asym's k = 1 fit passes no guard
        _guard_n(shifted_bell.target_unknowns(args.target, args.k), args.force, FIT_GUARD,
                 "fit guard", "; " + FIT_COST, "unknowns")
        result = _fit_target(args.target, args.k)
    elif args.pattern:
        f = _load_statistic(args.pattern)
        deg = args.profile_degree if args.profile_degree is not None else f.degree()
        pk = args.profile_k if args.profile_k is not None else max(
            (p.k for p, _ in f.terms), default=0
        )
        try:
            unknowns = shifted_bell.generic_unknowns(deg, pk)
        except ValueError as e:
            raise CliError("invalid profile: %s" % e)
        _guard_n(unknowns, args.force, FIT_GUARD, "fit guard", "; " + FIT_COST, "unknowns")
        profile = shifted_bell.profile_generic(deg, pk)
        points = shifted_bell.default_sample_points(profile)
        _guard_aggregate(f, points, args.force)
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
    _guard_n(n, args.force, ASYM_GUARD, "asym guard", "; " + ASYM_COST)
    fitted = _fit_target(args.target, 1)
    exact_mean = Fraction(fitted.evaluate(n), bell(n))
    mean_est = getattr(asymptotics, args.target + "_moment_asym")(n)[0]
    a = asymptotics.alpha(n)
    # the exact mean is 0 at small n (dim at n = 2, int at n <= 3)
    rel = abs(mean_est / float(exact_mean) - 1.0) if exact_mean else math.inf
    lines = [
        "quantity,exact,asymptotic,rel_error",
        "alpha,%.12g,%.12g,0" % (a.alpha, a.alpha),
        "mean,%.12g,%.12g,%.3e" % (float(exact_mean), mean_est, rel),
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
    sp.add_argument("--force", action="store_true")
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
    sp.add_argument("--force", action="store_true")
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
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_asym)

    for sp in sub.choices.values():
        sp.add_argument("--out")
    return p


_parser = None  # built by the first run() call; build_parser() makes a new one


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if getattr(args, "force", False):
            _check_sizes(args)
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
