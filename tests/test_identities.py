import json
from fractions import Fraction
from math import factorial

import pytest

from stirlingsym import identities, moduli, posets
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
from stirlingsym.partitions import sort_to_partition
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
    from stirlingsym.identities import _h_coefficient, _ogf

    inv = _ogf(4, lambda n: _h_coefficient(2, n)).comp_inverse()
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
    from stirlingsym.report import first_mismatch, series_report
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
    # drilled down to the first differing term of the shared basis, as exact
    # rationals; sides in different bases are compared in the m basis
    assert report.discrepancy == {
        "location": "y^2, e(2)",
        "lhs": "1",
        "rhs": "0",
    }
    mixed = first_mismatch("demo", {}, [("x", basis_element("e", (2,)),
                                         basis_element("h", (2,)))])
    assert mixed.discrepancy == {"location": "x, m(2)", "lhs": "0", "rhs": "1"}


def test_first_mismatch_stops_at_the_first_differing_pair():
    from stirlingsym.report import first_mismatch

    def cases():
        yield "a", 1, 1
        yield "b", Fraction(1, 2), Fraction(1, 3)
        raise AssertionError("consumed past the first mismatch")

    report = first_mismatch("demo", {"n": 2}, cases(), ["note"])
    assert not report.passed
    assert report.discrepancy == {"location": "b", "lhs": "1/2", "rhs": "1/3"}
    assert report.details == []  # notes describe a passing check only
    ok = first_mismatch("demo", {"n": 2}, iter([("a", 1, 1)]), ["note"])
    assert ok.passed and ok.details == ["note"]


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


def _bump(value):
    """A wrong answer of the same kind: one more, or one more item."""
    if isinstance(value, list):
        return value + value[:1]
    if isinstance(value, SymFunc):
        return value + SymFunc.one(value.basis)
    return value + 1


def _bumped(fn, when=lambda *args: True):
    return lambda *args: _bump(fn(*args)) if when(*args) else fn(*args)


def _wrong_type(fn, kind):
    return lambda sp, k, j=1: (99,) if k == kind else fn(sp, k, j)


def _not_analytic(kind, f, order):
    # the exp and exp-1 cases pass, so the random samples are reached
    return any(x not in (0, 1) for x in f)


def _not_sorted(kind, n, mu):
    return tuple(mu) != sort_to_partition(mu)


# (identity, extra argv, module, name, replacement factory, location prefix):
# one side of every check is replaced by a wrong answer, and the failing
# report must point at the first place where the two sides differ
FAILING_PATHS = [
    ("prop11", ["--order", "3"], identities, "_e", _bumped, "y^0"),
    ("prop12", ["--order", "3"], identities, "noncrossing_partitions", _bumped,
     "|NC_0|"),
    ("prop12", ["--order", "3"], identities, "noncrossing_e_sum", _bumped, "y^1"),
    ("thm13", ["--order", "3"], identities, "stirling_symfunc", _bumped, "y^0"),
    ("thm14", ["--order", "3"], identities, "stirling_symfunc", _bumped, "y^1"),
    ("riordan", ["--order", "4"], identities, "eulerian_polynomial", _bumped,
     "y^0"),
    ("riordan", ["--order", "4"], identities, "specialize_E", _bumped,
     "specialized lhs"),
    ("riordan", ["--order", "4"], identities, "stirling_symfunc", _bumped,
     "E at y^0"),
    ("thm17", ["--order", "4"], identities, "eulerian_polynomial", _bumped, "y^1"),
    ("thm17", ["--order", "4"], identities, "specialize_E", _bumped,
     "specialized lhs y^0"),
    ("thm17", ["--order", "4"], identities, "stirling_symfunc", _bumped,
     "E at y^1"),
    ("eulerian_oracle", ["--n", "3"], identities, "eulerian_brute_force",
     _bumped, "(n=0, r=1)"),
    ("htoe", ["--n", "4"], identities, "convert", _bumped, "h_0"),
    ("lemma52", ["--n", "4"], identities, "specialize_E", _bumped, "h_1"),
    ("equidist", ["--n", "3", "--r", "2"], identities, "type_of",
     lambda fn: _wrong_type(fn, "DA"), "Q(3,2) DA"),
    ("treeperm", ["--n", "4"], identities, "enumerate_normalized", _bumped,
     "|Nor_1|"),
    ("treeperm", ["--n", "4"], identities, "lyndon_type",
     lambda fn: lambda t: (99,), "k=1 lyn vs AA"),
    ("equicard", [], identities, "enumerate_colored",
     lambda fn: _bumped(fn, lambda kind, mu: kind == "lyn"), "mu=()"),
    ("forbidden", ["--order", "3"], identities, "convert", _bumped, "lyn y^1"),
    ("drake", ["--order", "3"], identities, "colored_generating_function",
     _bumped, "lyn y^1"),
    ("inversion", ["--order", "3"], identities, "invert_egf_numeric",
     lambda fn: lambda *args: [x + 1 for x in fn(*args)], "exp y^0"),
    ("inversion", ["--order", "3"], identities, "factorial", _bumped,
     "log(1+y)"),
    ("inversion", ["--order", "3"], identities, "invert_egf_numeric",
     lambda fn: lambda *args: (
         [x + 1 for x in fn(*args)] if _not_analytic(*args) else fn(*args)),
     "mult#0 y^0"),
    ("thm62", ["--n", "3"], posets, "mobius_invariant", _bumped, "n=1 mu=()"),
    ("thm62", ["--n", "3"], posets, "mobius_invariant",
     lambda fn: _bumped(fn, _not_sorted), "n=3 rearrangement (0, 1, 1) of (1, 1)"),
    ("thm64", ["--n", "2"], posets, "mobius_invariant", _bumped, "n=1 mu=(1,)"),
    ("thm64", ["--n", "2"], posets, "mobius_invariant",
     lambda fn: _bumped(fn, _not_sorted), "n=2 rearrangement (0, 1, 1) of (1, 1)"),
    ("thm65", ["--n", "2"], moduli, "wp_volume", _bumped, "degree 0"),
    # both sides are in the p basis, so the report names the wrong p term
    ("thm65", ["--n", "4"], moduli, "wp_volume",
     lambda fn: _bumped(fn, lambda lam: lam == (2, 1)),
     "degree 3 under (-1)^(n-len), p(2,1)"),
]


@pytest.mark.parametrize(
    "identity, argv, module, name, wrong, location",
    FAILING_PATHS,
    ids=[f"{case[0]}-{case[3]}-{case[5]}" for case in FAILING_PATHS],
)
def test_failing_check_pinpoints_the_first_mismatch(
    capsys, monkeypatch, identity, argv, module, name, wrong, location
):
    from stirlingsym import cli

    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    code = cli.main(["verify", "--identity", identity, "--format", "json", *argv])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False
    assert report["discrepancy"]["location"].startswith(location)
