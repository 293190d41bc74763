import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from partstats import asymptotics, cli, recursions
from partstats.cli import run
from partstats.exactnum import bell
from partstats.statistics import MAX_WEIGHT_DEGREE, MAX_WEIGHT_MONOMIALS


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


def test_eval_and_aggregate(tmp_path, capsys):
    doc = {"length": 1, "blocks": [[1]], "firsts": [1], "lasts": [1], "q": "1"}
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "eval", "--pattern", str(path), "--partition", "1356|27|4")
    assert code == 0 and out == "1\n"
    code, out, _ = invoke(capsys, "aggregate", "--pattern", str(path), "--n", "5")
    assert code == 0 and out == "%d\n" % (5 * bell(4))


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
    ],
)
def test_user_errors_exit_one(argv, capsys):
    code, _, err = invoke(capsys, *argv)
    assert code == 1
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1


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
