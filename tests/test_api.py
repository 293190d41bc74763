"""The package's public surface: what ``from partstats import *`` provides and
how its functions treat sizes that no partition has."""

import ast
import pathlib
import sys
import types

import pytest

import partstats
from partstats import (
    FitError,
    FitProfile,
    MarkedSetPartition,
    Pattern,
    PartitionError,
    SetPartition,
    StatisticError,
    WeightPolynomial,
    bell_mod,
    bell_mod_table,
    builtin,
    dim_distribution,
    dim_moments,
    dim_moments_range,
    dim_table,
    enumerate_partitions,
    fit,
    int_distribution,
    int_moment_asym,
    int_moments,
    iter_rgs,
    marked_enumerate,
    parse_pattern,
    pattern_from_dict,
    profile_dim,
    profile_generic,
    stirling2,
)
from partstats.statistics import _parse_q


def test_all_lists_every_public_name_once():
    bound = {name for name, value in vars(partstats).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(partstats.__all__) == len(set(partstats.__all__))
    assert set(partstats.__all__) == bound


@pytest.mark.parametrize("call", [
    lambda: dim_distribution(-1),
    lambda: int_distribution(-1),
    lambda: dim_table(-1),
    lambda: dim_moments(2, -1),
    lambda: dim_moments_range(-1, 3),
    lambda: int_moments(-1, 3),
    lambda: bell_mod_table(-1, 5),
    lambda: bell_mod(-1, 5),
    lambda: list(iter_rgs(-1)),
    lambda: list(enumerate_partitions(-2)),
    lambda: list(marked_enumerate(-1)),
], ids=["dim_distribution", "int_distribution", "dim_table", "dim_moments", "dim_moments_range",
        "int_moments", "bell_mod_table", "bell_mod", "iter_rgs", "enumerate_partitions",
        "marked_enumerate"])
def test_negative_sizes_raise(call):
    with pytest.raises(ValueError):
        call()


# Each library refusal with its whole message: a short name (the test id),
# the call, the error's type and its text.
REFUSALS = [
    ("WeightPolynomial(1, {(1,): 1})", lambda: WeightPolynomial(1, {(1,): 1}),
     StatisticError, "bad monomial (1,) for k=1"),
    ("variable(1, 1) ** -1", lambda: WeightPolynomial.variable(1, 1) ** -1,
     StatisticError, "negative exponent"),
    ("Pattern.make(2, [0])", lambda: Pattern.make(2, [0]),
     StatisticError, "equivalence must cover all 2 positions"),
    ("builtin(nope)", lambda: builtin("nope"),
     StatisticError, "unknown builtin statistic 'nope'"),
    ("builtin([nope])", lambda: builtin(["nope"]),
     StatisticError, "unknown builtin statistic ['nope']"),
    ("builtin(crossings_k)", lambda: builtin("crossings_k"),
     StatisticError, "builtin needs parameter 'k'"),
    ("builtin(crossings_k, k=0)", lambda: builtin("crossings_k", k=0),
     StatisticError, "parameter k=0 below minimum 1"),
    ("q=y1^", lambda: _parse_q("y1^", 1),
     StatisticError, "exponent must be a natural number"),
    ("q=y1^y1", lambda: _parse_q("y1^y1", 1),
     StatisticError, "exponent must be a natural number"),
    ("q=(y1", lambda: _parse_q("(y1", 1),
     StatisticError, "unbalanced parentheses in weight expression"),
    ("q=3000 parentheses deep", lambda: _parse_q("(" * 3000 + "1" + ")" * 3000, 1),
     StatisticError, "weight expression is nested too deeply"),
    ("blocks [[1], [1]]", lambda: pattern_from_dict({"length": 1, "blocks": [[1], [1]]}),
     StatisticError, "'blocks' must partition 1..1"),
    ("blocks [[2]]", lambda: pattern_from_dict({"length": 1, "blocks": [[2]]}),
     StatisticError, "'blocks' must partition 1..1"),
    ("parse_pattern([])", lambda: parse_pattern("[]"),
     StatisticError, "pattern document must be a single object"),
    ("int_moment_asym(1)", lambda: int_moment_asym(1),
     ValueError, "need n >= 2"),
    ("bell_mod_table(5, 1)", lambda: bell_mod_table(5, 1),
     ValueError, "modulus must be at least 2"),
    ("stirling2(-1, 0)", lambda: stirling2(-1, 0),
     ValueError, "stirling2 requires nonnegative arguments"),
    ("profile_generic(-1, 0)", lambda: profile_generic(-1, 0),
     ValueError, "profile parameters must be nonnegative"),
    ("profile_dim(0)", lambda: profile_dim(0),
     ValueError, "k must be >= 1"),
    ("fit below the Bell domain", lambda: fit([(0, 1), (1, 1), (2, 1), (3, 1)], FitProfile((-1,), (0,))),
     FitError, "sample n=0 puts Bell index below zero for shift -1"),
    ("MarkedSetPartition without flags", lambda: MarkedSetPartition(SetPartition([0]), ()),
     PartitionError, "need one open/closed flag per block"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_library_refusals_say_why(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error and str(e.value) == message


def test_runtime_imports_are_stdlib_only():
    # partstats has no runtime dependency: every absolute import in its
    # sources names a standard-library module (numpy and sympy serve tests only)
    sources = sorted(pathlib.Path(partstats.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
