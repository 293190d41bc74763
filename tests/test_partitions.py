from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from partstats.exactnum import bell
from partstats.partitions import (
    MarkedSetPartition,
    PartitionError,
    SetPartition,
    brute_distribution,
    crossing_count,
    enumerate_partitions,
    from_blocks,
    iter_rgs,
    marked_enumerate,
    parse_partition,
)
from partstats.recursions import dim_distribution, int_distribution
from partstats.statistics import builtin


def test_enumeration_counts_match_bell():
    for n in range(9):
        assert sum(1 for _ in enumerate_partitions(n)) == bell(n)


def scanning_rgs(n):
    """The odometer over all n positions that iter_rgs replaced: the oracle."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    maxp = [0] * n
    while True:
        yield tuple(rgs)
        j = n - 1
        while j > 0 and rgs[j] > maxp[j]:
            j -= 1
        if j == 0:
            return
        rgs[j] += 1
        mx = maxp[j] if maxp[j] > rgs[j] else rgs[j]
        for i in range(j + 1, n):
            rgs[i] = 0
            maxp[i] = mx


def test_iter_rgs_matches_the_scanning_generator():
    for n in range(10):
        assert list(iter_rgs(n)) == list(scanning_rgs(n))


def test_rgs_enumeration_is_strictly_increasing_lex():
    for n in range(1, 7):
        seqs = list(iter_rgs(n))
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs)) == bell(n)


def test_blocks_of_canonical_example():
    lam = parse_partition("1356|27|4")
    assert lam.n == 7
    assert lam.blocks() == [[1, 3, 5, 6], [2, 7], [4]]
    assert lam.block_count == 3
    assert str(lam) == "1356|27|4"


def test_parse_partition_formats_agree():
    a = parse_partition("1356|27|4")
    b = parse_partition("1,3,5,6|2,7|4")
    c = parse_partition("0,1,0,2,0,0,1")
    assert a == b == c
    # whitespace between numbers is ignored in both notations
    assert parse_partition("1 3|2") == parse_partition("1, 3|2") == parse_partition("13|2")


def test_parse_partition_rejects_garbage():
    for bad in ["13|13", "1|3", "0,2", "1x3", "|", "2|1,1", "1,a|2", "1,|2", "1\u00b2|3",
                # a number is ASCII digits with no sign, underscore or leading zero
                "000", "00", "0,+1", "0,0_0", "1,+2|3", "\uff112|3", "0," + "1" * 5000]:
        with pytest.raises(PartitionError):
            parse_partition(bad)


def test_block_notation_above_nine():
    lam = SetPartition((0, 1, 0, 2, 2, 2, 2, 2, 2, 2, 2, 3))
    assert str(lam) == "1,3|2|4,5,6,7,8,9,10,11|12"
    assert parse_partition(str(lam)) == lam
    for rgs in [tuple(range(10)), (0,) * 10]:  # no comma; no bar
        assert parse_partition(str(SetPartition(rgs))) == SetPartition(rgs)


@st.composite
def rgs_strings(draw):
    rgs = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        rgs.append(draw(st.integers(min_value=0, max_value=max(rgs, default=-1) + 1)))
    return tuple(rgs)


@settings(max_examples=200)
@given(rgs_strings())
def test_block_notation_roundtrip(rgs):
    lam = SetPartition(rgs)
    assert parse_partition(str(lam)) == lam


def test_arcs_and_extrema():
    lam = parse_partition("1356|27|4")
    assert sorted(lam.arcs()) == [(1, 3), (2, 7), (3, 5), (5, 6)]


@given(st.integers(min_value=0, max_value=8))
def test_arc_count_plus_blocks_equals_n(n):
    for lam in enumerate_partitions(n):
        assert len(lam.arcs()) + lam.block_count == n


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=7))
def test_from_blocks_roundtrip(n):
    for lam in enumerate_partitions(n):
        assert from_blocks(lam.blocks()) == lam


def test_invalid_rgs_rejected():
    for bad in [(1,), (0, 2), (0, 1, 3)]:
        with pytest.raises(PartitionError):
            SetPartition(bad)


@pytest.mark.parametrize("bad", [[0, 0.5], [0, 1.0], [0, True], [0, "1"], [False]])
def test_non_integer_entries_rejected(bad):
    # refused up front, naming the position, not by a later TypeError
    with pytest.raises(PartitionError, match="at position %d: " % len(bad)):
        SetPartition(bad)


def test_marked_enumeration_counts():
    # each partition contributes 2^(number of blocks) markings
    for n in range(6):
        expected = sum(2 ** lam.block_count for lam in enumerate_partitions(n))
        got = sum(1 for _ in marked_enumerate(n))
        assert got == expected


def test_marked_open_count_consistent():
    for mu in marked_enumerate(4):
        assert isinstance(mu, MarkedSetPartition)
        assert mu.open_count == sum(mu.open_flags)
        assert len(mu.open_flags) == mu.base.block_count


def test_hash_and_equality():
    a = parse_partition("12|3")
    b = from_blocks([(1, 2), (3,)])
    assert a == b and hash(a) == hash(b)
    assert a != parse_partition("123")


def test_brute_distribution_matches_arcs_and_the_evaluator():
    # the walk counts each crossing when its later arc closes, and each arc
    # (l, x) of a block adds x - l - 1 to the dimension
    d = builtin("dimension")
    for n in range(10):
        lams = list(enumerate_partitions(n))
        assert brute_distribution(n, "int") == Counter(crossing_count(lam.arcs()) for lam in lams)
        assert brute_distribution(n, "dim") == Counter(int(d.evaluate(lam)) for lam in lams)
    # the walk is n - 2 calls deep: past the interpreter's recursion limit
    # it refuses on the first descent instead of running for B_n partitions
    for n, target in ((3, "nest"), (-1, "dim"), (3000, "dim"), (3000, "int")):
        with pytest.raises(ValueError):
            brute_distribution(n, target)


def test_brute_distribution_matches_the_transfer_dp():
    # the DPs share no counting code with the walk or its count of the last
    # two elements; both only decode their packed histograms the same way
    for n in (10, 11):
        assert brute_distribution(n, "int") == int_distribution(n)
        assert brute_distribution(n, "dim") == dim_distribution(n)
