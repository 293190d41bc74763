import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import partstats
from partstats import asymptotics, cli, exactnum, recursions, shifted_bell, statistics
from partstats.cli import run
from partstats.exactnum import bell
from partstats.partitions import parse_partition
from partstats.statistics import MAX_PATTERN_LENGTH, MAX_WEIGHT_DEGREE, MAX_WEIGHT_MONOMIALS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bell_subcommand(capsys):
    code, out, err = invoke(capsys, "bell", "--max", "5")
    assert code == 0 and err == ""
    assert out == "n,bell\n0,1\n1,1\n2,2\n3,5\n4,15\n5,52\n"


def test_bell_mod_subcommand(capsys):
    code, out, _ = invoke(capsys, "bell", "--max", "12", "--mod", "4")
    values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert values == [1, 1, 2, 1, 3, 0, 3, 1, 0, 3, 3, 2, 1]


def test_bell_mod_same_bytes_cold_and_warm(capsys):
    # a fresh process rebuilds the triangle mod M from row 1; here the exact
    # table already holds B_0..B_302 after asym, and the residues are read off it
    argv = ["bell", "--max", "300", "--mod", "97"]
    src = os.path.dirname(os.path.dirname(partstats.__file__))
    cold = subprocess.run([sys.executable, "-m", "partstats.cli"] + argv, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert cold.returncode == 0 and cold.stderr == b""
    assert invoke(capsys, "asym", "--target", "dim", "--n", "300")[0] == 0
    assert exactnum._BELL.max_index >= 300
    code, warm, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert warm.encode() == cold.stdout


def test_bell_mod_prints_residues_of_a_4300_digit_modulus(capsys):
    # the widest modulus int() parses under the digit limit; past N = 1980
    # the residues are B_n reduced to 4299 or 4300 digits
    m = 10**4299 + 7
    code, out, err = invoke(capsys, "bell", "--max", "1990", "--mod", str(m), "--force")
    assert code == 0 and err == ""
    assert out == "n,bell\n" + "".join(
        "%d,%s\n" % (n, exactnum.exact_text(bell(n) % m)) for n in range(1991))
    assert max(map(len, out.splitlines())) >= len("1990,") + 4299


def test_dist_exact_and_brute_are_byte_identical(capsys):
    for target in ("dim", "int"):
        for n in range(11):
            _, fast, _ = invoke(capsys, "dist", target, "--n", str(n))
            _, brute, _ = invoke(capsys, "dist", target, "--n", str(n), "--brute")
            assert fast == brute


def test_dist_output_shape(capsys):
    code, out, _ = invoke(capsys, "dist", "dim", "--n", "4")
    assert code == 0
    assert out == "value,count\n0,8\n1,4\n2,3\n"


def test_brute_guard_and_force(capsys):
    code, _, err = invoke(capsys, "dist", "dim", "--n", "15", "--brute")
    assert code == 1
    assert err.startswith("error:") and "force" in err
    assert "(14; about 10^9.1 partitions)" in err  # B_15 = 1,382,958,545
    # the estimate is O(1) in n, and stays a user error past float range
    for n in ("100000", "1" + "0" * 400):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "dist", "dim", "--n", n, "--brute")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "partitions); pass --force" in err
    # forced, a walk too deep for the interpreter is a user error found at once
    for target in ("dim", "int"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "dist", target, "--n", "3000", "--brute", "--force")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "recursion limit (" in err


def test_dp_guard_and_force(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "dist", "int", "--n", str(cli.DP_GUARD + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "force" in err and str(cli.DP_GUARD) in err
    monkeypatch.setattr(cli, "DP_GUARD", 5)
    assert invoke(capsys, "dist", "dim", "--n", "6")[0] == 1
    assert invoke(capsys, "dist", "dim", "--n", "6", "--force")[:2] == invoke(
        capsys, "dist", "dim", "--n", "6", "--brute"
    )[:2]


def test_moments_subcommand(capsys):
    code, out, _ = invoke(capsys, "moments", "dim", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "k,moment\n0,15\n1,10\n2,16\n"


def test_moments_cost_guard_and_force(capsys, monkeypatch):
    # the largest benchmark job (n 184, k 4) passes; the estimate is O(1) in k
    assert recursions.moments_cost(4, 184) <= cli.MOMENTS_GUARD
    start = time.perf_counter()
    code, out, err = invoke(capsys, "moments", "dim", "--n", "5", "--k", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: estimated cost about 10^17.6 exceeds the moments cost guard (%d;"
                          % cli.MOMENTS_GUARD)
    assert err.endswith("pass --force to override\n")
    monkeypatch.setattr(cli, "MOMENTS_GUARD", 10**4)  # moments_cost(2, 4) = 10215
    assert invoke(capsys, "moments", "dim", "--n", "4", "--k", "2")[0] == 1
    assert invoke(capsys, "moments", "dim", "--n", "4", "--k", "2", "--force")[:2] == (
        0, "k,moment\n0,15\n1,10\n2,16\n")


def test_fit_target_guard_and_force(capsys, monkeypatch):
    # int k = 15 (376 unknowns) passes; the unknowns are counted without
    # building a profile
    assert shifted_bell.target_unknowns("int", 15) <= cli.FIT_GUARD
    for k, unknowns in (("16", 425), ("100000", 15000250001)):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "fit", "--target", "int", "--k", k)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: unknowns=%d exceeds the fit guard (%d;" % (unknowns, cli.FIT_GUARD))
    monkeypatch.setattr(cli, "FIT_GUARD", 3)
    assert invoke(capsys, "fit", "--target", "dim", "--k", "1")[0] == 1  # 4 unknowns
    code, out, _ = invoke(capsys, "fit", "--target", "dim", "--k", "1", "--force")
    assert code == 0 and out.splitlines()[0] == "j=1: 4 + 1*n ; j=2: -2"
    # asym's internal k = 1 fit is not refused
    assert invoke(capsys, "asym", "--target", "int", "--n", "50")[0] == 0


def test_asym_guard_and_force(capsys, monkeypatch):
    def no_bell(n):
        raise AssertionError("the guard computed bell(%d)" % n)

    for n in (str(cli.ASYM_GUARD + 1), "1" + "0" * 400):
        monkeypatch.setattr(cli, "bell", no_bell)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "asym", "--target", "dim", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: n=%s exceeds the asym guard (%d;" % (n, cli.ASYM_GUARD))
    monkeypatch.undo()
    assert 3000 <= cli.ASYM_GUARD  # the largest benchmark job
    monkeypatch.setattr(cli, "ASYM_GUARD", 40)
    assert invoke(capsys, "asym", "--target", "int", "--n", "50")[0] == 1
    code, out, _ = invoke(capsys, "asym", "--target", "int", "--n", "50", "--force")
    assert code == 0 and out.startswith("quantity,exact,asymptotic,rel_error\nalpha,")


def test_bell_guard_and_force(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("the guard built a table")

    huge = "1" + "0" * 400
    monkeypatch.setattr(cli, "bell", no_table)
    monkeypatch.setattr(cli, "bell_csv", no_table)
    monkeypatch.setattr(cli, "bell_mod_table", no_table)
    for n in (str(cli.ASYM_GUARD + 1), huge):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "bell", "--max", n)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: max=%s exceeds the bell guard (%d;" % (n, cli.ASYM_GUARD))
    # the --mod estimate is (N + 1)^2 times the machine words of M
    for n, m, log10_cost in (("14200", "1000003", "8.3"), ("6000", "1" + "0" * 100, "8.3"),
                             (huge, "7", "800.0")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "bell", "--max", n, "--mod", m)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: estimated cost about 10^%s exceeds the bell --mod cost guard (%d;"
                              % (log10_cost, cli.BELL_MOD_GUARD))
        assert err.endswith("pass --force to override\n")
    monkeypatch.undo()
    # the benchmark's largest jobs: bell --max 2500, bell --max 3040 --mod M for M <= 10^6 + 3
    assert 2500 <= cli.ASYM_GUARD and 3041 ** 2 <= cli.BELL_MOD_GUARD
    monkeypatch.setattr(cli, "ASYM_GUARD", 3)
    monkeypatch.setattr(cli, "BELL_MOD_GUARD", 20)  # (4 + 1)^2 = 25
    assert invoke(capsys, "bell", "--max", "4")[0] == 1
    assert invoke(capsys, "bell", "--max", "4", "--mod", "7")[0] == 1
    assert invoke(capsys, "bell", "--max", "4", "--force")[:2] == (
        0, "n,bell\n0,1\n1,1\n2,2\n3,5\n4,15\n")
    assert invoke(capsys, "bell", "--max", "4", "--mod", "7", "--force")[:2] == (
        0, "n,bell\n0,1\n1,1\n2,2\n3,5\n4,1\n")


def test_eval_and_aggregate(tmp_path, capsys):
    doc = {"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "eval", "--pattern", str(path), "--partition", "1356|27|4")
    assert code == 0 and out == "1\n"
    code, out, _ = invoke(capsys, "aggregate", "--pattern", str(path), "--n", "5")
    assert code == 0 and out == "%d\n" % (5 * bell(4))


def test_aggregate_past_the_brute_force_guard(tmp_path, capsys):
    # aggregate runs the transfer DP, so n = 15 is no longer refused
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    code, out, err = invoke(capsys, "aggregate", "--pattern", str(path), "--n", "15")
    assert code == 0 and err == "" and out == "%d\n" % (15 * bell(14))


def test_aggregate_cost_guard_and_force(tmp_path, capsys, monkeypatch):
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    # the estimate is n^2 * (k + 1) * monomials = 2 * n^2; it costs O(1) in n
    for n, log10_cost in (("100000", "10.3"), ("1" + "0" * 400, "800.3")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "aggregate", "--pattern", str(path), "--n", n)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: estimated cost about 10^%s exceeds" % log10_cost)
        assert str(cli.AGGREGATE_GUARD) in err and err.endswith("pass --force to override\n")
    monkeypatch.setattr(cli, "AGGREGATE_GUARD", 100)
    assert invoke(capsys, "aggregate", "--pattern", str(path), "--n", "8")[0] == 1
    assert invoke(capsys, "aggregate", "--pattern", str(path), "--n", "8", "--force")[:2] == (
        0, "%d\n" % (8 * bell(7)))
    # fit --pattern samples n = 1..8 from one DP run, so the guard charges
    # the estimate at n = 8 only: 2 * 8^2 = 128, not the sum 408
    fit = ("fit", "--pattern", str(path), "--profile-degree", "1", "--profile-k", "1")
    monkeypatch.setattr(cli, "AGGREGATE_GUARD", 127)
    code, out, err = invoke(capsys, *fit)
    assert code == 1 and out == "" and "aggregate cost guard (127;" in err
    code, out, _ = invoke(capsys, *fit, "--force")
    assert code == 0 and out.splitlines()[0] == "j=-1: 1*n"
    monkeypatch.setattr(cli, "AGGREGATE_GUARD", 128)
    code, out, err = invoke(capsys, *fit)
    assert code == 0 and err == "" and out.splitlines()[0] == "j=-1: 1*n"


_HUGE = "1" + "0" * 400
_FIT_REFUSAL = "exceeds the fit guard (406; %s); pass --force to override\n" % cli.FIT_COST


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["dist", "dim", "--n", "15", "--brute"], "n=15 exceeds the brute-force guard "
         "(14; about 10^9.1 partitions); pass --force to override\n"),
        (["dist", "int", "--n", "100000", "--brute"], "n=100000 exceeds the brute-force guard "
         "(14; about 10^364471.0 partitions); pass --force to override\n"),
        (["dist", "dim", "--n", _HUGE, "--brute"], "n=%s exceeds the brute-force guard "
         "(14; over 10^(10^300) partitions); pass --force to override\n" % _HUGE),
        (["dist", "int", "--n", "201"], "n=201 exceeds the DP guard "
         "(200; %s); pass --force to override\n" % cli.DP_COST),
        (["moments", "dim", "--n", "5", "--k", "100000"], "estimated cost about 10^17.6 exceeds "
         "the moments cost guard (30000000000; %s); pass --force to override\n" % cli.MOMENTS_COST),
        (["eval", "--pattern", "SIX", "--partition", ",".join(map(str, range(200)))],
         "estimated cost about 10^10.9 exceeds the eval cost guard "
         "(30000000; %s); pass --force to override\n" % cli.EVAL_COST),
        (["aggregate", "--pattern", "ONE", "--n", "100000"], "estimated cost about 10^10.3 exceeds "
         "the aggregate cost guard (20000000; %s); pass --force to override\n" % cli.AGGREGATE_COST),
        (["fit", "--target", "int", "--k", "16"], "unknowns=425 " + _FIT_REFUSAL),
        (["fit", "--pattern", "ONE", "--profile-degree", "28"], "unknowns=464 " + _FIT_REFUSAL),
        (["fit", "--pattern", "ONE", "--profile-degree", "9" * 4000],
         "unknowns=about 10^7999.7 " + _FIT_REFUSAL),
        (["asym", "--target", "dim", "--n", "4001"], "n=4001 exceeds the asym guard "
         "(4000; %s); pass --force to override\n" % cli.ASYM_COST),
        (["bell", "--max", "4001"], "max=4001 exceeds the bell guard "
         "(4000; %s); pass --force to override\n" % cli.ASYM_COST),
        (["bell", "--max", _HUGE], "max=%s exceeds the bell guard "
         "(4000; %s); pass --force to override\n" % (_HUGE, cli.ASYM_COST)),
        (["bell", "--max", "14200", "--mod", "1000003"], "estimated cost about 10^8.3 exceeds the "
         "bell --mod cost guard (200000000; %s); pass --force to override\n" % cli.BELL_MOD_COST),
    ],
)
def test_refusal_lines_in_full(argv, expected, tmp_path, capsys):
    # every guard refuses with one line: its subject, bound and measured cost
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    six = tmp_path / "six.json"
    six.write_text(json.dumps({"length": 6, "blocks": [[i] for i in range(1, 7)], "q": "1"}))
    files = {"ONE": str(one), "SIX": str(six)}
    assert invoke(capsys, *(files.get(a, a) for a in argv)) == (1, "", "error: " + expected)


def test_fit_target(capsys):
    code, out, _ = invoke(capsys, "fit", "--target", "dim", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j=1: 4 + 1*n ; j=2: -2"
    doc = json.loads(lines[1])
    assert doc == {
        "shifts": [
            {"shift": 1, "coefficients": ["4", "1"]},
            {"shift": 2, "coefficients": ["-2"]},
        ]
    }


def test_fit_pattern(tmp_path, capsys):
    doc = {"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(
        capsys, "fit", "--pattern", str(path), "--profile-degree", "1", "--profile-k", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "j=-1: 1*n"


def test_asym_subcommand(capsys):
    code, out, _ = invoke(capsys, "asym", "--target", "dim", "--n", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,exact,asymptotic,rel_error"
    row = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(row["log_bell_T2"][3]) < 0.01
    assert float(row["mean"][3]) < 0.5


_ASYM_300_BELL = (
    "log_bell_T0,1045.33215555,1045.33214839,7.159e-06\n"
    "log_bell_T1,1045.33215555,1045.33215923,3.686e-06\n"
    "log_bell_T2,1045.33215555,1045.33215554,1.216e-08\n"
)


@pytest.mark.parametrize("target,mean", [
    ("dim", "mean,11466.257047,11208.6213844,2.247e-02\n"),
    ("int", "mean,4652.51755673,4363.45899313,6.213e-02\n"),
])
def test_asym_output_is_fixed(capsys, target, mean):
    assert invoke(capsys, "asym", "--target", target, "--n", "300") == (
        0,
        "quantity,exact,asymptotic,rel_error\n"
        "alpha,4.25825160911,4.25825160911,0\n" + mean + _ASYM_300_BELL,
        "",
    )


@pytest.mark.parametrize("target,n", [("dim", 2), ("int", 2), ("int", 3)])
def test_asym_where_the_exact_mean_is_zero(capsys, target, n):
    code, out, err = invoke(capsys, "asym", "--target", target, "--n", str(n))
    assert code == 0 and err == ""
    row = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
    assert row["mean"][1] == "0" and row["mean"][3] == "inf"


def test_fit_target_and_pattern_together_exit_one(tmp_path, capsys):
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    code, out, err = invoke(capsys, "fit", "--target", "dim", "--pattern", str(path))
    assert code == 1 and out == ""
    assert err == "error: fit takes either --target or --pattern, not both\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"length": 6, "blocks": [[1, 2, 3, 4, 5, 6]], "q": "0"},
        {"length": 6, "blocks": [[1, 2, 3, 4, 5, 6]], "q": "y1 - y1"},
        {"length": 6, "blocks": [[1, 2, 3, 4, 5, 6]], "q": "y6*m - m*y6"},
        # consecutive on positions that are not adjacent: it can never occur
        {"length": 3, "blocks": [[1, 3], [2]], "consecutive": [[1, 3]], "q": "y1"},
    ],
    ids=["0", "y1 - y1", "y6*m - m*y6", "cannot occur"],
)
def test_zero_weight_document_fits_to_zero(tmp_path, capsys, doc):
    # the weight vanishes or the pattern cannot occur, so the statistic has
    # no terms and degree 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "fit", "--pattern", str(path))
    assert code == 0 and err == ""
    assert out == '0\n{"shifts": []}\n'
    assert invoke(capsys, "aggregate", "--pattern", str(path), "--n", "7")[:2] == (0, "0\n")


def _unlimited(fn):
    """``fn()`` with CPython's int-to-str digit limit lifted, then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


def test_bell_prints_numbers_beyond_the_int_str_limit(capsys, monkeypatch, tmp_path):
    # B_n has more than 4300 digits, CPython's default int-to-str limit, from
    # n = 1981 on. The calls start from an empty table and grow, shrink and
    # regrow its memo of decimal text; the expected rows are formatted here
    # from the exact ints.
    limit = sys.get_int_max_str_digits()
    sizes = (1990, 5, 1440, 2000, 0)
    values = [bell(n) for n in range(max(sizes) + 1)]
    rows = _unlimited(lambda: ["%d,%d\n" % row for row in enumerate(values)])
    monkeypatch.setattr(exactnum, "_BELL", exactnum.BellTable())
    target = tmp_path / "bell.csv"
    for n, out_path in [(n, None) for n in sizes] + [(1985, target)]:
        argv = ["bell", "--max", str(n)] + (["--out", str(out_path)] if out_path else [])
        code, out, err = invoke(capsys, *argv)
        if out_path:
            assert out == ""
            out = out_path.read_text()
        assert code == 0 and err == ""
        assert out == "n,bell\n" + "".join(rows[: n + 1]), n
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError):
            int("9" * 5000)


# texts of 5000 to 6000 characters, repeated from a short seed
_LONG_TEXT = st.builds(lambda seed, k: (seed * k)[:k], st.text("0123456789-", min_size=1, max_size=9),
                       st.integers(5000, 6000))
_CSV_ROWS = st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 20), st.text(max_size=12) | _LONG_TEXT),
                     max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=12), _CSV_ROWS)
@example("value,count", [])
@example("n,bell", [(0, "1")])
@example("k,moment", [(3, "7" * 5001)])
def test_csv_matches_the_row_format(header, rows):
    # byte for byte what one "%d,%s\n" line per row gave, for a list of rows
    # and for the one-shot iterator that bell passes
    want = header + "\n" + "".join("%d,%s\n" % row for row in rows)
    assert cli._csv(header, rows) == want
    assert cli._csv(header, iter(rows)) == want
    assert cli._csv(header, map(tuple, rows)) == want


# every position weighs (10^299)^15 = 10^4485, which has 4486 digits
_BIG_WEIGHT = {"length": 1, "blocks": [[1]], "q": "(1%s)^15" % ("0" * 299)}


def test_results_past_the_int_str_limit_print_in_full(tmp_path, capsys):
    # eval, aggregate and fit print computed numbers at any size; the
    # references are formatted here with the limit lifted
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_BIG_WEIGHT))
    f = statistics.parse_pattern(path.read_text())
    w = 10**4485
    profile = shifted_bell.profile_generic(f.degree(), 1)
    points = shifted_bell.default_sample_points(profile)
    sums = statistics.aggregate_range(f, max(points))
    fitted = shifted_bell.fit([(n, sums[n]) for n in points], profile)
    assert fitted.coeffs == ((0, (0, w)),)  # the sum over Pi(n) is w * n * B_n
    cases = [
        (["eval", "--partition", "1|2|3"], lambda: "%s\n" % f.evaluate(parse_partition("1|2|3"))),
        (["aggregate", "--n", "3"], lambda: "%s\n" % statistics.aggregate(f, 3)),
        (["fit"], lambda: "j=0: %d*n\n%s\n" % (w, json.dumps(
            {"shifts": [{"coefficients": ["0", str(w)], "shift": 0}]}, sort_keys=True))),
    ]
    for argv, expected in cases:
        code, out, err = invoke(capsys, *argv, "--pattern", str(path))
        assert (code, err) == (0, ""), argv
        assert out == _unlimited(expected), argv


def test_aggregate_of_the_empty_pattern_prints_b_n_past_the_limit(tmp_path, capsys):
    # the empty pattern occurs once in each partition, so its sum is B_n, and
    # B_2100 has 4605 digits
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"length": 0, "blocks": [], "q": "1"}))
    code, out, err = invoke(capsys, "aggregate", "--pattern", str(path), "--n", "2100")
    assert (code, err) == (0, "")
    assert out == _unlimited(lambda: "%d\n" % bell(2100))


def test_no_cli_path_changes_the_int_str_limit(tmp_path, capsys, monkeypatch):
    # the limit is one setting for the whole process, so a command that lifts
    # it races every other thread's input parsing; none may touch it
    def refuse(limit):
        raise AssertionError("sys.set_int_max_str_digits(%d) called" % limit)

    path = tmp_path / "big.json"
    path.write_text(json.dumps(_BIG_WEIGHT))
    monkeypatch.setattr(exactnum, "_BELL", exactnum.BellTable())
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    for argv in (["bell", "--max", "1990"], ["bell", "--max", "60", "--mod", "1000003"],
                 ["aggregate", "--pattern", str(path), "--n", "3"],
                 ["eval", "--pattern", str(path), "--partition", "1|2"],
                 ["fit", "--pattern", str(path)], ["fit", "--target", "dim"],
                 ["dist", "dim", "--n", "12"], ["dist", "int", "--n", "6", "--brute"],
                 ["moments", "int", "--n", "12", "--k", "2"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_negative_profile_parameters_exit_one(tmp_path, capsys):
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    for option, value in (("--profile-degree", "-1"), ("--profile-k", "-2")):
        code, out, err = invoke(capsys, "fit", "--pattern", str(path), option, value)
        assert code == 1 and out == "" and err.startswith("error: invalid profile")


def test_fit_pattern_profile_guard_and_force(tmp_path, capsys, monkeypatch):
    # (D+1)(D+2)/2 + k*D + k(k+1)/2 unknowns, counted before any profile is
    # built; the document has degree D = 1 and pattern length k = 1
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    fit = ("fit", "--pattern", str(path))
    big = 10**400
    huge = str(big)
    for option, value, shown in (("--profile-degree", huge, "%d" % ((big + 1) * (big + 2) // 2 + big + 1)),
                                 ("--profile-k", huge, "%d" % (3 + big + big * (big + 1) // 2)),
                                 ("--profile-degree", "9" * 4000, "about 10^7999.7"),
                                 ("--profile-degree", "28", "464")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *fit, option, value)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: unknowns=%s exceeds the fit guard (%d;"
                              % (shown, cli.FIT_GUARD))
        assert err.endswith("pass --force to override\n")
    for option in ("--profile-degree", "--profile-k"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *fit, option, huge, "--force")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == "error: %s exceeds the largest size a list can index (%d)\n" % (option, sys.maxsize)
    monkeypatch.setattr(cli, "FIT_GUARD", 3)
    small = fit + ("--profile-degree", "1", "--profile-k", "1")  # 5 unknowns
    assert invoke(capsys, *small)[0] == 1
    code, out, _ = invoke(capsys, *small, "--force")
    assert code == 0 and out.splitlines()[0] == "j=-1: 1*n"


def test_failing_pattern_fits_are_decided_fast(tmp_path, capsys):
    # count of singleton blocks, n*B(n-1), needs shift -1: without it the
    # profile cannot represent the aggregate.  At 105 unknowns one prime
    # settles the holdout mismatch; at 3 the training rows are singular and
    # the held rows join an inconsistent system
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}))
    for degree, verdict in (("13", "holdout mismatch at n=106"), ("1", "inconsistent system")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "fit", "--pattern", str(path), "--profile-k", "0",
                                "--profile-degree", degree)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "error: fit failed: profile cannot represent the aggregate: %s\n" % verdict


def test_run_reuses_one_parser_without_leaking_options(tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser(_build=cli.build_parser):
        built.append(1)
        return _build()

    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "MOMENTS_GUARD", 10**4)  # moments_cost(2, 4) = 10215
    monkeypatch.setattr(cli, "FIT_GUARD", 3)  # dim k = 1 has 4 unknowns
    target = tmp_path / "bell.csv"
    calls = [
        ("moments", "dim", "--n", "4", "--k", "2", "--force"),
        ("moments", "dim", "--n", "4", "--k", "2"),
        ("fit", "--target", "dim", "--k", "1", "--force"),
        ("fit", "--target", "dim", "--k", "1"),
        ("fit",),
        ("bell", "--max", "3", "--out", str(target)),
        ("bell", "--max", "3"),
        ("bell", "--max", "abc"),
        ("bell", "--max", "4"),
        ("dist", "nope", "--n", "3"),
        ("dist", "int", "--n", "15", "--brute"),
        ("dist", "int", "--n", "15"),
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        fresh.append(invoke(capsys, *argv)[:2])
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert [invoke(capsys, *argv)[:2] for argv in calls] == fresh
    assert len(built) == 1
    codes = [code for code, _ in fresh]
    assert codes == [0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
    assert fresh[5][1] == "" and fresh[6][1] == target.read_text() == "n,bell\n0,1\n1,1\n2,2\n3,5\n"


def test_dim_int_functions_are_looked_up_at_call_time(capsys, monkeypatch):
    # perfbench's tracer rebinds module attributes; the CLI must see them
    called = set()
    for module, name in ((recursions, "dim_distribution"), (recursions, "int_moments"),
                         (recursions, "dim_moments_range"), (recursions, "int_moments_range"),
                         (asymptotics, "int_moment_asym")):
        def spy(*args, _fn=getattr(module, name), _name=name):
            called.add(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    for argv in (("dist", "dim", "--n", "5"), ("moments", "int", "--n", "5", "--k", "2"),
                 ("fit", "--target", "dim"), ("asym", "--target", "int", "--n", "50")):
        assert invoke(capsys, *argv)[0] == 0
    assert called == {"dim_distribution", "int_moments", "dim_moments_range",
                      "int_moments_range", "int_moment_asym"}


def test_out_redirection(tmp_path, capsys):
    target = tmp_path / "bell.csv"
    code, out, _ = invoke(capsys, "bell", "--max", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "n,bell\n0,1\n1,1\n2,2\n3,5\n"


def test_out_to_missing_directory_is_a_user_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = invoke(capsys, "bell", "--max", "3", "--out", str(target))
    assert code == 1 and out == "" and err.startswith("error: cannot write output")


def test_deterministic_output(capsys):
    _, a, _ = invoke(capsys, "moments", "int", "--n", "9", "--k", "3")
    _, b, _ = invoke(capsys, "moments", "int", "--n", "9", "--k", "3")
    assert a == b


@pytest.mark.parametrize(
    "argv",
    [
        ["bell", "--max", "-1"],
        ["bell", "--max", "5", "--mod", "1"],
        ["dist", "dim"],
        ["dist", "nope", "--n", "3"],
        ["moments", "dim", "--n", "-2", "--k", "1"],
        ["eval", "--pattern", "/nonexistent.json", "--partition", "1|2"],
        ["fit"],
        ["asym", "--target", "dim", "--n", "1"],
        ["nosuchcommand"],
        # past --force, a size no list can index is refused, not run
        ["fit", "--target", "int", "--k", "1" + "0" * 400, "--force"],
        ["dist", "dim", "--n", "1" + "0" * 400, "--brute", "--force"],
        ["moments", "int", "--n", "1" + "0" * 400, "--k", "1", "--force"],
        ["bell", "--max", "1" + "0" * 400, "--force"],
        # each fit mode refuses the other mode's options
        ["fit", "--pattern", "PATTERN", "--k", "5"],
        ["fit", "--target", "dim", "--k", "1", "--profile-degree", "9", "--profile-k", "4"],
        # a number with a leading zero
        ["eval", "--pattern", "PATTERN", "--partition", "000"],
    ],
)
def test_user_errors_exit_one(argv, tmp_path, capsys):
    path = tmp_path / "singletons.json"  # a valid pattern: only the argv is wrong
    path.write_text(json.dumps({"length": 1, "blocks": [[1]], "q": "1"}))
    code, _, err = invoke(capsys, *(str(path) if a == "PATTERN" else a for a in argv))
    assert code == 1
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_invalid_int_message(capsys):
    assert invoke(capsys, "bell", "--max", "abc") == (
        1, "", "error: argument --max: invalid int value: 'abc'\n")


def test_eval_bad_partition(tmp_path, capsys):
    doc = {"length": 1, "blocks": [[1]], "q": "1"}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, "eval", "--pattern", str(path), "--partition", "13|13")
    assert code == 1 and err.startswith("error:")


def test_eval_cost_guard_and_force(tmp_path, capsys, monkeypatch):
    # 6 singleton positions on 200 singletons: C(200, 6), about 8.2e10, occurrences
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"length": 6, "blocks": [[i] for i in range(1, 7)], "q": "1"}))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "eval", "--pattern", str(path), "--partition",
                            ",".join(map(str, range(200))))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: estimated cost about 10^10.9 exceeds the eval cost guard (%d;"
                          % cli.EVAL_GUARD)
    assert err.endswith("pass --force to override\n")
    # the benchmark's largest eval jobs, length 4 at n = 30 with up to 3 weight
    # terms, stay far below the bound
    assert 100 * 3 * math.comb(30, 4) <= cli.EVAL_GUARD
    monkeypatch.setattr(cli, "EVAL_GUARD", 10)  # estimate C(9, 6) = 84; C(8, 6) = 28 occurrences
    assert invoke(capsys, "eval", "--pattern", str(path), "--partition", "0,1,2,3,4,5,6,7")[0] == 1
    assert invoke(capsys, "eval", "--pattern", str(path), "--partition", "0,1,2,3,4,5,6,7",
                  "--force")[:2] == (0, "28\n")


def test_eval_cost_prices_last_positions_by_blocks(tmp_path, capsys):
    # 5 singleton positions all in lasts take block maxima: on the 10 blocks
    # i % 10 of n = 100 each depth d scans [n] from at most C(10, d) prefixes,
    # an estimate of 38,597, not about C(101, 5)
    path = tmp_path / "lasts.json"
    path.write_text(json.dumps({"length": 5, "blocks": [[i] for i in range(1, 6)],
                                "lasts": [1, 2, 3, 4, 5], "q": "1"}))
    partition = ",".join(str(i % 10) for i in range(100))
    assert invoke(capsys, "eval", "--pattern", str(path), "--partition", partition) == (0, "252\n", "")


def test_eval_cost_counts_the_prefixes_before_an_empty_pool(tmp_path, capsys):
    # 5 singleton positions, the last both first and last, on 100 pairs
    # (n = 200, no singleton block): no occurrence, yet every prefix of 4
    # positions scans the values above it, about C(200, 5) candidates
    path = tmp_path / "late.json"
    path.write_text(json.dumps({"length": 5, "blocks": [[i] for i in range(1, 6)],
                                "firsts": [5], "lasts": [5], "q": "1"}))
    partition = ",".join(str(i % 100) for i in range(200))
    start = time.perf_counter()
    assert invoke(capsys, "eval", "--pattern", str(path), "--partition", partition) == (
        1, "", "error: estimated cost about 10^9.4 exceeds the eval cost guard (%d; %s); "
        "pass --force to override\n" % (cli.EVAL_GUARD, cli.EVAL_COST))
    assert time.perf_counter() - start < 1.0


# --- pattern documents: every malformed one exits 1 -----------------------------

def _eval_document(text: str):
    """Exit code and stderr of ``eval`` with ``text`` as the pattern file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["eval", "--pattern", path, "--partition", "13|2|4"])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "doc",
    [
        {"length": 1, "blocks": [[1]], "firsts": ["a"]},
        {"length": 2, "blocks": [[1, 2]], "arcs": [[1]]},
        {"length": 1, "blocks": [[1]], "q": 5},
        {"length": 2, "blocks": [[1, 2]], "firsts": "12"},
        {"length": 1, "blocks": [[1]], "q": "y1^100000000"},
        {"length": 1, "blocks": [[1]], "q": "9" * 5000},
        {"length": 1, "blocks": [[1]], "q": "(" * 3000 + "1" + ")" * 3000},
        {"length": "1", "blocks": [[1]]},
        {"length": 1, "blocks": [[True]]},
        {"length": 10 ** 12, "blocks": [[1]]},
        {"length": 1, "blocks": [[1]], "q": "y1*-3^3^2"},
        {"length": 1200, "blocks": [list(range(1, 1201))]},
        {"length": 1, "blocks": [[1]], "q": "y1^" + "9" * 4300},
        {"length": 1, "blocks": [[1]], "q": "(y1*y1)^" + "9" * 4300},
    ],
)
def test_malformed_documents_exit_one(doc):
    code, err = _eval_document(json.dumps(doc))
    assert code == 1, err
    assert err.startswith("error: invalid pattern:") and len(err.strip().splitlines()) == 1
    assert len(err.encode()) < 200


def test_weight_degree_cap_is_named():
    code, err = _eval_document(json.dumps({"length": 1, "blocks": [[1]], "q": "y1^100000000"}))
    assert code == 1 and "MAX_WEIGHT_DEGREE = %d" % MAX_WEIGHT_DEGREE in err
    doc = {"length": 1, "blocks": [[1]], "q": "y1^%d" % MAX_WEIGHT_DEGREE}
    assert _eval_document(json.dumps(doc))[0] == 0
    # the degree of (y1*y1)^(10^4300 - 1) has 4301 digits, one past the
    # default int-to-str limit; a degree of more than 20 digits is named by its size
    for q, named in (("(y1*y1)^" + "9" * 4300, "about 10^4300.3"), ("y1^" + "9" * 4300, "about 10^4300.0"),
                     ("y1^1" + "0" * 20, "about 10^20.0"), ("y1^" + "9" * 20, "9" * 20)):
        code, err = _eval_document(json.dumps({"length": 1, "blocks": [[1]], "q": q}))
        assert code == 1 and err == ("error: invalid pattern: weight degree %s exceeds "
                                     "MAX_WEIGHT_DEGREE = %d\n" % (named, MAX_WEIGHT_DEGREE))


def test_weight_monomial_cap_is_named():
    # (y1+...+y8+m)^16 is within MAX_WEIGHT_DEGREE but has 735,471 monomials
    doc = {"length": 8, "blocks": [[i] for i in range(1, 9)],
           "q": "(y1+y2+y3+y4+y5+y6+y7+y8+m)^16"}
    code, err = _eval_document(json.dumps(doc))
    assert code == 1 and "MAX_WEIGHT_MONOMIALS = %d" % MAX_WEIGHT_MONOMIALS in err
    doc["q"] = "(y1+y2+y3+y4+y5+y6+y7+y8+m)^3*(y1+y2+y3+y4+y5+y6+y7+y8+m)^3"
    assert _eval_document(json.dumps(doc))[0] == 1
    doc["q"] = "(y1+y2+y3+y4+y5+y6+y7+y8+m)^3"
    assert _eval_document(json.dumps(doc))[0] == 0


def test_pattern_length_cap_is_named(tmp_path, capsys):
    # the occurrence search recurses once per position: a 1200-position
    # pattern on a 1200-element partition is refused, not overflowed
    def eval_one_block(k):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"length": k, "blocks": [list(range(1, k + 1))]}))
        return invoke(capsys, "eval", "--pattern", str(path), "--partition", ",".join(["0"] * k))

    code, out, err = eval_one_block(1200)
    assert code == 1 and out == "" and "MAX_PATTERN_LENGTH = %d" % MAX_PATTERN_LENGTH in err
    assert eval_one_block(MAX_PATTERN_LENGTH)[:2] == (0, "1\n")


@pytest.mark.parametrize("text", ["[" * 5000, '{"length": %s}' % ("9" * 5000)])
def test_unparsable_json_exits_one(text):
    assert _eval_document(text)[0] == 1


def test_pattern_file_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = invoke(capsys, "eval", "--pattern", str(path), "--partition", "1|2")
    assert code == 1 and err.startswith("error: cannot read pattern file")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
_POSITION = st.integers(-1, 5) | _JSON
# constants and exponents written with 4300-4400 digits, around CPython's
# int-to-str limit; 4300 is the most that parses, and a degree 2 or 16 times
# such an exponent has more digits than the limit.  All must exit 0 or 1
_DIGIT_RUN = st.builds(lambda lead, fill, size: lead + fill * (size - 1),
                       st.sampled_from("123456789"), st.sampled_from("0123456789"),
                       st.just(4300) | st.integers(4300, 4400))
_LONG_Q = st.builds(lambda form, digits: form % digits,
                    st.sampled_from(["%s", "-%s*m", "1/%s", "2^%s", "y1^%s", "(y1*y1)^%s", "(m^16)^%s"]),
                    _DIGIT_RUN)
_Q = st.text(alphabet="y12345m()+-*^/ 0", max_size=12) | _LONG_Q | _JSON
# the second branch is a well-formed one-position pattern, so that its q
# always reaches the weight parser
_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "length": st.integers(-1, 5) | _JSON,
        "blocks": st.lists(st.lists(_POSITION, max_size=3), max_size=3) | _JSON,
        "firsts": st.lists(_POSITION, max_size=3) | _JSON,
        "lasts": st.lists(_POSITION, max_size=3) | _JSON,
        "arcs": st.lists(st.lists(_POSITION, max_size=3), max_size=2) | _JSON,
        "consecutive": st.lists(st.lists(_POSITION, max_size=3), max_size=2) | _JSON,
        "q": _Q,
    },
) | st.fixed_dictionaries({"length": st.just(1), "blocks": st.just([[1]]), "q": _Q})


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_fuzzed_documents_never_exit_two(doc):
    code, err = _eval_document(json.dumps(doc))
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
