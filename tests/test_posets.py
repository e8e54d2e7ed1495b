import itertools

import pytest

from stirlingsym import posets
from stirlingsym.partitions import partitions_of, trim, wcomp_leq, weak_compositions
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


def brute_force_partition_interval(n, mu):
    """Oracle: every weighted partition of [n], filtered by <= top."""
    mu = trim(mu)
    width = max(1, len(mu))
    top = ((tuple(range(1, n + 1)), mu),)
    from stirlingsym.posets import _partition_leq

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
    monkeypatch.setattr(posets, "INTERVAL_MAX_ELEMENTS", 5)
    assert len(interval("pi", 3, (2, 0)).elements) == 5
    monkeypatch.setattr(posets, "INTERVAL_MAX_ELEMENTS", 4)
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


def test_order_validation_rejects_non_orders():
    with pytest.raises(AssertionError):
        Interval("pi", 0, (), [0, 1], lambda a, b: True)  # not antisymmetric

    def broken(a, b):
        # 0<=1, 1<=2 but not 0<=2: transitivity fails
        return (a, b) in {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}

    with pytest.raises(AssertionError):
        Interval("pi", 0, (), [0, 1, 2], broken)


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
