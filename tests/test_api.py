"""The package's public surface: what ``from partstats import *`` provides and
how its functions treat sizes that no partition has."""

import types

import pytest

import partstats
from partstats import (
    bell_mod,
    bell_mod_table,
    dim_distribution,
    dim_moments,
    dim_moments_range,
    dim_table,
    enumerate_partitions,
    int_distribution,
    int_moments,
    iter_rgs,
    marked_enumerate,
)


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
