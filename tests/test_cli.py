import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from partstats import asymptotics, cli, recursions, shifted_bell
from partstats.cli import run
from partstats.exactnum import bell
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
    # the benchmark's int k = 3 (55 unknowns) passes; the unknowns are counted
    # without building a profile
    assert shifted_bell.target_unknowns("int", 3) <= cli.FIT_GUARD
    for k, unknowns in (("5", 136), ("100000", 45000450001)):
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
    # fit --pattern sums the estimate over its sample points
    fit = ("fit", "--pattern", str(path), "--profile-degree", "1", "--profile-k", "1")
    code, out, err = invoke(capsys, *fit)
    assert code == 1 and out == "" and "aggregate cost guard (100;" in err
    code, out, _ = invoke(capsys, *fit, "--force")
    assert code == 0 and out.splitlines()[0] == "j=-1: 1*n"


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


def test_bell_prints_numbers_beyond_the_int_str_limit(capsys):
    # B_1990 has more than 4300 digits, CPython's default int-to-str limit
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "bell", "--max", "1990")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = "1990,%d" % bell(1990)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.splitlines()[-1] == expected


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
                                 ("--profile-degree", "12", "104")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *fit, option, value)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: unknowns=%s exceeds the fit guard (%d;" % (shown, cli.FIT_GUARD))
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
    ],
)
def test_user_errors_exit_one(argv, capsys):
    code, _, err = invoke(capsys, *argv)
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
    ],
)
def test_malformed_documents_exit_one(doc):
    code, err = _eval_document(json.dumps(doc))
    assert code == 1, err
    assert err.startswith("error: invalid pattern:") and len(err.strip().splitlines()) == 1


def test_weight_degree_cap_is_named():
    code, err = _eval_document(json.dumps({"length": 1, "blocks": [[1]], "q": "y1^100000000"}))
    assert code == 1 and "MAX_WEIGHT_DEGREE = %d" % MAX_WEIGHT_DEGREE in err
    doc = {"length": 1, "blocks": [[1]], "q": "y1^%d" % MAX_WEIGHT_DEGREE}
    assert _eval_document(json.dumps(doc))[0] == 0


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
_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "length": st.integers(-1, 5) | _JSON,
        "blocks": st.lists(st.lists(_POSITION, max_size=3), max_size=3) | _JSON,
        "firsts": st.lists(_POSITION, max_size=3) | _JSON,
        "lasts": st.lists(_POSITION, max_size=3) | _JSON,
        "arcs": st.lists(st.lists(_POSITION, max_size=3), max_size=2) | _JSON,
        "consecutive": st.lists(st.lists(_POSITION, max_size=3), max_size=2) | _JSON,
        "q": st.text(alphabet="y12345m()+-*^/ 0", max_size=12) | _JSON,
    },
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_fuzzed_documents_never_exit_two(doc):
    code, err = _eval_document(json.dumps(doc))
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
