"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Every comparison is exact rational equality; the few runtime
bounds are asserted with generous margins.
"""

import time
from fractions import Fraction

from stirlingsym import cli
from stirlingsym.identities import (
    check_equicardinality,
    check_equidistribution,
    check_eulerian_oracle,
    check_forbidden,
    check_htoe,
    check_inversion,
    check_lemma52,
    check_prop11,
    check_prop12,
    check_riordan,
    check_thm13,
    check_thm14,
    check_thm17,
    check_tree_permutation,
    noncrossing_partitions,
)
from stirlingsym.moduli import check_thm65
from stirlingsym.posets import check_thm62, check_thm64
from stirlingsym.stirling import StirlingPerm, stirling_symfunc, type_of
from stirlingsym.symfunc import convert

from expansion_tables import BASES, STATS_TABLE_N3, expected_terms, stats


def _record(criterion: int, passed: bool, detail: str = ""):
    suffix = f" - {detail}" if detail else ""
    line = f"ACCEPTANCE {criterion:2d}: {'pass' if passed else 'FAIL'}{suffix}"
    print(line)
    assert passed, line


def _table_reproduced(r: int) -> bool:
    for n in range(7):
        f = stirling_symfunc(n, r)
        for basis in BASES:
            if convert(f, basis).terms != expected_terms(r, n, basis):
                return False
    return True


def test_criterion_01_single_letter_table():
    start = time.monotonic()
    ok = _table_reproduced(1)
    ok = ok and expected_terms(1, 6, "m")[(1,) * 6] == 90921
    ok = ok and expected_terms(1, 6, "p")[(1,) * 6] == Fraction(30307, 240)
    f = convert(stirling_symfunc(6, 1), "p")
    ok = ok and f.coefficient((1,) * 6) == Fraction(30307, 240)
    elapsed = time.monotonic() - start
    _record(1, ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_02_doubled_letter_table():
    start = time.monotonic()
    ok = _table_reproduced(2)
    f = convert(stirling_symfunc(4, 2), "h")
    ok = ok and f.terms == {
        (4,): -1,
        (3, 1): 15,
        (2, 2): 10,
        (2, 1, 1): -105,
        (1, 1, 1, 1): 105,
    }
    g = convert(stirling_symfunc(6, 2), "p")
    ok = ok and g.coefficient((1,) * 6) == Fraction(882989, 240)
    elapsed = time.monotonic() - start
    _record(2, ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_03_egf_multiplicative_inverse():
    report = check_thm13(6)
    _record(3, report.passed)


def test_criterion_04_egf_compositional_inverse():
    report = check_thm14(7)
    _record(4, report.passed)


def test_criterion_05_ogf_identities():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    counts_ok = all(
        len(noncrossing_partitions(k)) == catalan[k] for k in range(8)
    )
    r11 = check_prop11(6)
    r12 = check_prop12(6)
    _record(5, counts_ok and r11.passed and r12.passed)


def test_criterion_06_descent_polynomials():
    r1 = check_riordan(8)
    r2 = check_thm17(8)
    oracle = check_eulerian_oracle(6)
    _record(6, r1.passed and r2.passed and oracle.passed)


def test_criterion_07_equidistribution_and_table_rows():
    battery = check_equidistribution()
    rows_ok = True
    for text, (des, asc, pla, aa, da, tn, inn) in STATS_TABLE_N3.items():
        sp = StirlingPerm(tuple(int(ch) for ch in text), 3, 2)
        st = stats(sp)
        rows_ok = rows_ok and (st["des"], st["asc"], st["pla"]) == (des, asc, (pla,))
        rows_ok = rows_ok and type_of(sp, "AA") == aa
        rows_ok = rows_ok and type_of(sp, "DA") == da
        rows_ok = rows_ok and type_of(sp, "TN", 1) == tn
        rows_ok = rows_ok and type_of(sp, "IN", 1) == inn
    rows_ok = rows_ok and len(STATS_TABLE_N3) == 15
    _record(7, battery.passed and rows_ok)


def test_criterion_08_tree_permutation_correspondence():
    report = check_tree_permutation(7)
    _record(8, report.passed)


def test_criterion_09_colored_family_equicardinality():
    report = check_equicardinality(4)
    _record(9, report.passed)


def test_criterion_10_forbidden_chain_series():
    report = check_forbidden(5)
    _record(10, report.passed)


def test_criterion_11_composition_expansion_and_specialization():
    r1 = check_htoe(8)
    r2 = check_lemma52(8)
    _record(11, r1.passed and r2.passed)


def test_criterion_12_dual_route_inversion():
    report = check_inversion(6, samples=50)
    _record(12, report.passed)


def test_criterion_13_mobius_invariants():
    start = time.monotonic()
    r62 = check_thm62(4)
    r64 = check_thm64(3)
    elapsed = time.monotonic() - start
    _record(13, r62.passed and r64.passed and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_14_volume_sign_rule():
    report = check_thm65(5)
    named = any("uniform sign rule" in note for note in report.details)
    _record(14, report.passed and named, "; ".join(report.details[-1:]))


def test_criterion_15_full_verification_suite(battery):
    start = time.monotonic()
    code = cli.main(["verify", "--identity", "all"])
    elapsed = time.monotonic() - start
    _record(15, code == 0 and elapsed < 180, f"exit={code}, {elapsed:.1f}s")
