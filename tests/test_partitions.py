import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from stirlingsym.partitions import (
    chain_type,
    check_partition,
    compositions_of,
    conjugate,
    parse_rational,
    partitions_of,
    rational_str,
    sort_to_partition,
    trim,
    wcomp_add,
    wcomp_leq,
    weak_compositions,
    z_of,
)


def brute_force_partitions(n):
    """Oracle: filter all nonincreasing positive tuples summing to n."""
    found = set()

    def walk(prefix, rest):
        if rest == 0:
            found.add(prefix)
            return
        lo = 1
        hi = min(rest, prefix[-1]) if prefix else rest
        for part in range(lo, hi + 1):
            walk(prefix + (part,), rest - part)

    walk((), n)
    return found


def test_partitions_of_against_oracle():
    for n in range(9):
        got = partitions_of(n)
        assert len(got) == len(set(got))
        assert set(got) == brute_force_partitions(n)
    assert len(partitions_of(6)) == 11


def test_partitions_reverse_lexicographic_order():
    assert partitions_of(0) == [()]
    assert partitions_of(2) == [(2,), (1, 1)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(9):
        parts = partitions_of(n)
        # plain descending tuple comparison
        assert parts == sorted(parts, reverse=True)


def test_compositions_counts_and_shapes():
    assert compositions_of(1) == [(1,)]
    assert len(compositions_of(3)) == 4
    for n in range(1, 11):
        comps = compositions_of(n)
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        for nu in comps:
            assert all(p >= 1 for p in nu)
            assert sort_to_partition(nu) in set(partitions_of(n))


def test_composition_signed_count_matches_binomials():
    # sum over compositions of (-t)^length, grouped by length
    for n in range(1, 11):
        by_len = {}
        for nu in compositions_of(n):
            by_len[len(nu)] = by_len.get(len(nu), 0) + 1
        assert by_len == {k: comb(n - 1, k - 1) for k in range(1, n + 1)}


def test_weak_compositions():
    assert weak_compositions(0, 3) == [(0, 0, 0)]
    assert set(weak_compositions(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert len(weak_compositions(3, 3)) == 10
    for n, k in [(0, 1), (2, 3), (4, 2), (3, 4)]:
        got = weak_compositions(n, k)
        assert len(got) == comb(n + k - 1, k - 1)
        assert len(set(got)) == len(got)
        assert all(sum(mu) == n and len(mu) == k for mu in got)


def test_chain_type():
    assert chain_type({}, range(0)) == ()
    # no links: every element is its own chain
    assert chain_type({}, range(1, 4)) == (1, 1, 1)
    # one chain 2 -> 5 -> 1 -> 3 through every element
    assert chain_type({2: 5, 5: 1, 1: 3}, [1, 2, 3, 5]) == (4,)
    # disjoint chains 1 -> 4, 3 -> 6 -> 2 -> 7 and the singleton 5
    assert chain_type({1: 4, 3: 6, 6: 2, 2: 7}, range(1, 8)) == (4, 2, 1)


def test_conjugate_is_an_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n
    assert conjugate((3, 1)) == (2, 1, 1)


def cycle_type(perm):
    seen = set()
    lengths = []
    for start in perm:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        lengths.append(length)
    return sort_to_partition(lengths)


@pytest.mark.parametrize("n", range(1, 6))
def test_z_of_counts_centralizers(n):
    # oracle: |conjugacy class of type lam| = n! / z_lam
    tally = {}
    for perm in itertools.permutations(range(1, n + 1)):
        lam = cycle_type(perm)
        tally[lam] = tally.get(lam, 0) + 1
    for lam, size in tally.items():
        assert size * z_of(lam) == factorial(n)


def test_z_of_examples():
    assert z_of(()) == 1
    assert z_of((1, 1)) == 2
    assert z_of((2, 1, 1)) == 4


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_weak_composition_helpers():
    assert trim((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert wcomp_leq((1, 0), (2, 1, 3))
    assert not wcomp_leq((0, 2), (2, 1))
    assert wcomp_add((1, 2), (0, 0, 3)) == (1, 2, 3)


nonzero_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
).filter(lambda q: q != 0)


@given(nonzero_fractions)
def test_rational_inverse_roundtrip(q):
    assert q * (1 / q) == 1


@given(st.fractions(max_denominator=100, min_value=Fraction(-999), max_value=Fraction(999)))
def test_rational_rendering_roundtrip(q):
    assert parse_rational(rational_str(q)) == q


def test_rational_rendering_convention():
    assert rational_str(Fraction(4)) == "4"
    assert rational_str(Fraction(-5, 2)) == "-5/2"
    assert parse_rational("4/1") == 4
    with pytest.raises(ValueError, match="zero denominator in '3/0'"):
        parse_rational(" 3/0")
