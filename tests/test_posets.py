import itertools

import pytest

from stirlingsym import limits, posets
from stirlingsym.partitions import (
    partitions_of,
    trim,
    wcomp_add,
    wcomp_leq,
    weak_compositions,
)
from stirlingsym.posets import (
    Interval,
    check_thm62,
    check_thm64,
    interval,
    mobius_invariant,
    set_partitions,
)


BELL = [1, 1, 2, 5, 15, 52]


def test_set_partitions():
    for n in range(6):
        parts = list(set_partitions(range(1, n + 1)))
        assert len(parts) == BELL[n]
        assert len(set(parts)) == len(parts)
        for blocks in parts:
            assert sorted(x for b in blocks for x in b) == list(range(1, n + 1))


def test_trivial_intervals():
    iv = interval("pi", 2, (1,))
    assert len(iv.elements) == 2
    assert iv.mobius_invariant() == -1
    iv = interval("b", 1, (1,))
    assert len(iv.elements) == 2
    assert iv.mobius_invariant() == -1


def _partition_leq(x, y):
    """Oracle order on weighted partitions: refinement plus blockwise
    componentwise weight domination, decided for one pair."""
    locate = {}
    for j, (block, _) in enumerate(y):
        for v in block:
            locate[v] = j
    sums = [()] * len(y)
    for block, weight in x:
        j = locate[block[0]]
        if any(locate[v] != j for v in block[1:]):
            return False
        sums[j] = wcomp_add(sums[j], weight)
    return all(wcomp_leq(s, w) for s, (_, w) in zip(sums, y))


def _subset_leq(x, y):
    """Oracle order on weighted subsets: containment and componentwise."""
    return set(x[0]) <= set(y[0]) and wcomp_leq(x[1], y[1])


def brute_force_partition_interval(n, mu):
    """Oracle: every weighted partition of [n], filtered by <= top."""
    mu = trim(mu)
    width = max(1, len(mu))
    top = ((tuple(range(1, n + 1)), mu),)

    out = []
    for blocks in set_partitions(range(1, n + 1)):
        pools = []
        for b in blocks:
            need = len(b) - 1
            pools.append(
                [trim(nu) for nu in weak_compositions(need, width)]
                if need
                else [()]
            )
        for weights in itertools.product(*pools):
            element = tuple(zip(blocks, weights))
            if _partition_leq(element, top):
                out.append(element)
    return sorted(out)


@pytest.mark.parametrize("mu", [(2, 0), (1, 1), (2,), (0, 2)])
def test_partition_interval_against_filter_oracle(mu):
    iv = interval("pi", 3, mu)
    assert sorted(iv.elements) == brute_force_partition_interval(3, mu)


def test_partition_interval_examples():
    iv = interval("pi", 3, (2, 0))
    assert len(iv.elements) == 5
    assert iv.mobius_invariant() == 2
    # a weight bounded purely by the first coordinate collapses to the plain
    # partition lattice, whose invariant is -(n-1)!
    assert mobius_invariant("pi", 4, (3,)) == -6


def test_interval_limit_admits_an_interval_of_its_own_size(monkeypatch):
    assert posets.INTERVAL_MAX_ELEMENTS == 2_000
    # pi at n=3 below (2, 0) has 5 elements
    monkeypatch.setattr(limits, "INTERVAL_MAX_ELEMENTS", 5)
    assert len(interval("pi", 3, (2, 0)).elements) == 5
    monkeypatch.setattr(limits, "INTERVAL_MAX_ELEMENTS", 4)
    with pytest.raises(ValueError, match="more than 4 elements"):
        interval("pi", 3, (2, 0))


def test_subset_interval_examples():
    assert mobius_invariant("b", 2, (1, 1)) == 3
    # with all weight on one coordinate the interval is the boolean lattice
    for n in range(1, 4):
        assert mobius_invariant("b", n, (n,)) == (-1) ** n


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        interval("pi", 3, (3,))
    with pytest.raises(ValueError):
        interval("b", 3, (2,))
    with pytest.raises(ValueError):
        interval("nope", 3, (2,))


def test_down_sets_match_the_pairwise_order():
    # every shape for pi at n <= 5 and b at n <= 4, sorted, reversed and with
    # a leading zero
    tops = set()
    for kind, ns in (("pi", range(1, 6)), ("b", range(1, 5))):
        for n in ns:
            for lam in partitions_of(n - 1 if kind == "pi" else n):
                tops |= {(kind, n, mu) for mu in (lam, lam[::-1], (0,) + lam)}
    assert len(tops) == 52
    for kind, n, mu in sorted(tops):
        iv = interval(kind, n, mu)
        leq = _partition_leq if kind == "pi" else _subset_leq
        expected = [sum(1 << i for i, x in enumerate(iv.elements) if leq(x, y))
                    for y in iv.elements]
        assert iv.down == expected, (kind, n, mu)


def test_order_validation_rejects_non_orders():
    for down, error, message in [
        ([0b10, 0b11], AssertionError, "not reflexive"),
        ([0b11, 0b11], AssertionError, "not antisymmetric"),
        # 0 <= 1 and 1 <= 2 but not 0 <= 2
        ([0b001, 0b011, 0b110], AssertionError, "not transitive"),
        # two minimal elements below one top, two maximal above one bottom
        ([0b001, 0b010, 0b111], ValueError, "unique bottom or top"),
        ([0b001, 0b011, 0b101], ValueError, "unique bottom or top"),
    ]:
        with pytest.raises(error, match=message):
            Interval(range(len(down)), down)
    # an antichain passed off as an interval, its validation skipped
    unchecked = Interval.__new__(Interval)
    unchecked.down, unchecked.bottom, unchecked.top = [0b01, 0b10], 0, 1
    with pytest.raises(AssertionError, match="do not sum to zero"):
        unchecked.mobius_invariant()


def test_mobius_values_sum_to_zero():
    # mobius_invariant asserts this internally; exercise a few intervals
    for mu in partitions_of(3):
        interval("pi", 4, mu).mobius_invariant()
        interval("b", 3, mu).mobius_invariant()


def test_rearrangement_invariance_spot():
    assert mobius_invariant("pi", 4, (2, 1)) == mobius_invariant("pi", 4, (1, 2))
    assert mobius_invariant("pi", 4, (2, 1)) == mobius_invariant("pi", 4, (0, 2, 1))
    assert mobius_invariant("b", 3, (2, 1)) == mobius_invariant("b", 3, (1, 2))


def test_checks_pass():
    assert check_thm62(3).passed
    assert check_thm64(2).passed


def test_componentwise_order_helper():
    assert wcomp_leq((1, 0, 1), (1, 1, 1))
    assert not wcomp_leq((2,), (1, 5))
