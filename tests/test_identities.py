import json
from fractions import Fraction
from math import factorial

import pytest

from stirlingsym.identities import (
    check_drake,
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
    invert_egf_numeric,
    is_noncrossing,
    noncrossing_e_sum,
    noncrossing_partitions,
    registry,
)
from stirlingsym.report import VerificationReport
from stirlingsym.symfunc import SymFunc, basis_element


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_noncrossing_enumeration():
    for n in range(8):
        found = noncrossing_partitions(n)
        assert len(found) == CATALAN[n]
        assert len(set(found)) == len(found)
        for blocks in found:
            assert is_noncrossing(blocks)
            assert sorted(x for b in blocks for x in b) == list(range(1, n + 1))
    # the crossing partition is excluded
    assert ((1, 3), (2, 4)) not in set(noncrossing_partitions(4))


def test_noncrossing_e_sums():
    assert noncrossing_e_sum(0) == SymFunc.one("e")
    assert noncrossing_e_sum(1) == basis_element("e", (1,))
    assert noncrossing_e_sum(2) == SymFunc("e", {(2,): 1, (1, 1): 1})
    assert noncrossing_e_sum(3) == SymFunc("e", {(3,): 1, (2, 1): 3, (1, 1, 1): 1})


def test_ogf_checks_pass():
    assert check_prop11(6).passed
    assert check_prop12(5).passed


def test_ogf_compositional_coefficient_extraction():
    # the y^3 coefficient of the inverse is the noncrossing sum on two letters
    from stirlingsym.identities import _shifted_h_ogf

    inv = _shifted_h_ogf(4).comp_inverse()
    assert inv.coefficient(3) == noncrossing_e_sum(2)
    assert inv.coefficient(1) == SymFunc.one("h")


def test_egf_checks_pass_at_small_order():
    assert check_thm13(5).passed
    assert check_thm14(5).passed


def test_descent_polynomial_checks():
    assert check_riordan(6).passed
    assert check_thm17(6).passed
    assert check_eulerian_oracle(4).passed


def test_expansion_checks():
    assert check_htoe(6).passed
    assert check_lemma52(6).passed


def test_combinatorial_checks():
    assert check_equidistribution(4, 2).passed
    assert check_equidistribution(3, 3).passed
    assert check_tree_permutation(5).passed
    assert check_equicardinality(3).passed
    assert check_forbidden(4).passed
    assert check_drake(5).passed


def test_invert_egf_numeric_analytic_pairs():
    # exp(y) inverts to exp(-y)
    got = invert_egf_numeric("mult", [Fraction(1)] * 7, 6)
    assert got == [Fraction((-1) ** n) for n in range(7)]
    # y is its own compositional inverse
    got = invert_egf_numeric("comp", [0, 1, 0, 0, 0, 0, 0], 6)
    assert got == [Fraction(0), Fraction(1)] + [Fraction(0)] * 5
    # exp(y) - 1 inverts to log(1+y)
    got = invert_egf_numeric("comp", [0, 1, 1, 1, 1, 1, 1], 6)
    assert got == [0, 1, -1, 2, -6, 24, -120]


def test_invert_egf_numeric_preconditions():
    with pytest.raises(ValueError):
        invert_egf_numeric("mult", [0, 1, 1], 2)
    with pytest.raises(ValueError):
        invert_egf_numeric("comp", [1, 1, 1], 2)
    with pytest.raises(ValueError):
        invert_egf_numeric("comp", [0, 0, 1], 2)
    with pytest.raises(ValueError):
        invert_egf_numeric("what", [1], 0)


def fraction_egf_inverse(kind, f):
    """Oracle: coefficient-by-coefficient triangular solve over Fraction.

    Works on the ordinary coefficients a_n = f_n/n! and returns the semantic
    (EGF) coefficients of the multiplicative or compositional inverse.
    """
    order = len(f) - 1
    a = [Fraction(x) / factorial(n) for n, x in enumerate(f)]

    def mul(u, v):
        return [sum(u[i] * v[n - i] for i in range(n + 1)) for n in range(order + 1)]

    g = [Fraction(0)] * (order + 1)
    if kind == "mult":
        # sum_i a_i g_(n-i) = [n == 0]
        for n in range(order + 1):
            g[n] = (int(n == 0) - sum(a[i] * g[n - i] for i in range(1, n + 1))) / a[0]
    else:
        # [y^n] sum_k a_k g^k = [n == 1]; g_n enters only through a_1 g_n
        g[1] = 1 / a[1]
        for n in range(2, order + 1):
            power, rest = g[:], Fraction(0)
            for k in range(2, n + 1):
                power = mul(power, g)
                rest += a[k] * power[n]
            g[n] = -rest / a[1]
    return [g[n] * factorial(n) for n in range(order + 1)]


def test_fraction_egf_inverse_oracle():
    # exp(y) -> exp(-y), and exp(y) - 1 -> log(1+y)
    assert fraction_egf_inverse("mult", [1] * 6) == [1, -1, 1, -1, 1, -1]
    assert fraction_egf_inverse("comp", [0] + [1] * 5) == [0, 1, -1, 2, -6, 24]


@pytest.mark.parametrize(
    "kind, coeffs",
    [
        ("mult", "3/2,-1,2,1/3,-4,5,0,7/2,-1"),
        ("comp", "0,-2/3,1,-1/2,3,0,2,-5,1/4,6"),
    ],
)
def test_invert_builds_no_transition_matrix(capsys, monkeypatch, kind, coeffs):
    from stirlingsym import cli, symfunc

    def refuse(*args):
        raise AssertionError("invert must not convert between bases")

    monkeypatch.setattr(symfunc, "_to_m_matrix", refuse)
    monkeypatch.setattr(symfunc, "_from_m_matrix", refuse)
    code = cli.main(["invert", "--kind", kind, f"--coeffs={coeffs}", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    want = fraction_egf_inverse(kind, [Fraction(x) for x in coeffs.split(",")])
    assert [Fraction(x) for x in json.loads(out)] == want


def test_inversion_check():
    assert check_inversion(4, samples=10).passed


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, False)  # failing without a discrepancy
    r = VerificationReport(
        "x", {"order": 3}, False, {"location": "y^1", "lhs": "0", "rhs": "1"}
    )
    data = r.to_json()
    assert data["pass"] is False
    assert data["order"] == 3
    assert data["discrepancy"]["location"] == "y^1"
    assert "FAIL" in r.render()
    ok = VerificationReport("x", {"order": 3}, True)
    payload = json.loads(json.dumps(ok.to_json()))
    assert payload == {"identity": "x", "order": 3, "pass": True, "discrepancy": None}


def test_series_report_pinpoints_first_coefficient():
    from stirlingsym.report import series_report
    from stirlingsym.series import SymFuncRing, TruncatedSeries

    ring = SymFuncRing(basis="e")
    lhs = TruncatedSeries.from_coefficients(
        ring, "ogf", 2, [ring.one(), basis_element("e", (1,)), basis_element("e", (2,))]
    )
    rhs = TruncatedSeries.from_coefficients(
        ring, "ogf", 2, [ring.one(), basis_element("e", (1,)), basis_element("e", (1, 1))]
    )
    report = series_report("demo", {"order": 2}, lhs, rhs)
    assert not report.passed
    # drilled down to the first differing monomial term, as exact rationals
    assert report.discrepancy == {
        "location": "y^2, m(2)",
        "lhs": "0",
        "rhs": "1",
    }


def test_registry_names():
    names = set(registry())
    assert {
        "prop11",
        "prop12",
        "thm13",
        "thm14",
        "riordan",
        "thm17",
        "htoe",
        "lemma52",
        "equidist",
        "treeperm",
        "equicard",
        "forbidden",
        "drake",
        "inversion",
        "thm62",
        "thm64",
        "thm65",
        "eulerian_oracle",
    } == names
