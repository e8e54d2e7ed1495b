import itertools
import random
from fractions import Fraction
from math import comb, factorial

from stirlingsym import moduli
from stirlingsym.moduli import WP_MAX_N, check_thm65, wp_volume
from stirlingsym.partitions import partitions_of, z_of
from stirlingsym.stirling import stirling_symfunc
from stirlingsym.symfunc import convert


def labeled_parts_oracle(lam):
    """Independent evaluation: distribute the parts as labeled objects.

    Treating the l(lam) parts as distinguishable and assigning each to one of
    k labeled slots realizes exactly the multinomial multiplicities of the
    closed formula, so the two routes must agree on every partition.
    """
    n = sum(lam)
    length = len(lam)
    total = Fraction(0)
    for k in range(length + 1):
        if k == 0:
            inner = Fraction(1) if length == 0 else Fraction(0)
        else:
            inner = Fraction(0)
            for assignment in itertools.product(range(k), repeat=length):
                sizes = [0] * k
                for part, slot in zip(lam, assignment):
                    sizes[slot] += part
                if 0 in sizes:
                    continue
                denom = 1
                for s in sizes:
                    denom *= factorial(s + 1)
                inner += Fraction(1, denom)
        total += (-1) ** (length - k) * comb(n + k, k) * inner
    return factorial(n) * total


def test_volume_base_values():
    assert wp_volume(()) == 1
    assert wp_volume((1,)) == 1
    assert wp_volume((2,)) == 1
    assert wp_volume((1, 1)) == 5
    assert wp_volume((2, 1)) == 9
    assert wp_volume((1, 1, 1)) == 61


def test_volume_takes_any_iterable():
    assert wp_volume([2, 1]) == 9
    assert wp_volume(iter([1, 1])) == 5


def test_volume_pins_from_the_slot_enumeration():
    # computed by enumerating every spread of the part multiplicities over
    # the k slots, a route independent of the generating-function power
    assert wp_volume((1,) * 12) == 14273926322439378685
    assert wp_volume((1,) * 13) == 3718118808742139574436
    assert wp_volume((3, 2, 2, 1, 1, 1, 1, 1, 1)) == 7340760300536216
    # the size limit itself is accepted
    wp_volume((1,) * WP_MAX_N)


def test_volume_matches_labeled_parts_oracle():
    for n in range(7):
        for lam in partitions_of(n):
            assert wp_volume(lam) == labeled_parts_oracle(lam)


def test_volume_independent_of_part_order():
    # the oracle consumes the parts in any order; shuffling must not matter
    rng = random.Random(5)
    for lam in [(3, 2, 1), (2, 2, 1, 1), (4, 1, 1)]:
        shuffled = list(lam)
        rng.shuffle(shuffled)
        assert labeled_parts_oracle(tuple(shuffled)) == wp_volume(lam)


def test_power_sum_link_at_degree_two():
    pexp = convert(stirling_symfunc(2, 2), "p")
    assert pexp.coefficient((1, 1)) == Fraction(5, 2)
    assert wp_volume((1, 1)) / z_of((1, 1)) == Fraction(5, 2)
    assert pexp.coefficient((2,)) == -wp_volume((2,)) / z_of((2,))


def test_sign_rule_check():
    report = check_thm65(4)
    assert report.passed
    assert any("(-1)^(n-len)" in note for note in report.details)
    # the check records that the other printed exponent disagrees
    assert any("disagrees" in note for note in report.details)


def test_sign_rule_check_compares_exactly(monkeypatch):
    # volumes fitted to the other rule, (-1)^(n-1-len): it must be reported
    # at every degree, which needs exact signs (61/6 at p(1,1,1) is no float)
    def fitted(lam):
        m = sum(lam)
        pexp = convert(stirling_symfunc(m, 2), "p")
        return (-1) ** ((m - 1 - len(lam)) % 2) * pexp.coefficient(lam) * z_of(lam)

    monkeypatch.setattr(moduli, "wp_volume", fitted)
    report = check_thm65(5)
    assert report.passed
    assert report.details == [
        f"degree {m}: uniform sign rule (-1)^(n-1-len)" for m in range(6)
    ]


def test_sign_rule_check_degree_one():
    report = check_thm65(1)
    assert report.passed
    assert any("degree 1" in note for note in report.details)
