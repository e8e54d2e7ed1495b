import contextlib
import importlib
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import pinned_outputs
from stirlingsym import cli, identities, limits, moduli, posets, stirling, symfunc, trees
from stirlingsym.identities import check_drake
from stirlingsym.partitions import partitions_of
from stirlingsym.report import VerificationReport
from stirlingsym.series import SymFuncRing, TruncatedSeries
from stirlingsym.symfunc import SymFunc

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--n", "2", "--r", "2", "--basis", "m")
    assert code == 0
    assert out == "2*m(2) + 5*m(1,1)\n"


def test_expand_json_roundtrips(capsys):
    code, out, _ = run(
        capsys, "expand", "--n", "3", "--r", "1", "--basis", "e", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == SymFunc("e", {(3,): 1, (2, 1): 4, (1, 1, 1): 1}).to_json()


def test_expand_latex(capsys):
    code, out, _ = run(
        capsys, "expand", "--n", "2", "--r", "2", "--basis", "m", "--format", "latex"
    )
    assert out == "2m_{(2)} + 5m_{(1,1)}\n"


def test_eulerian(capsys):
    code, out, _ = run(capsys, "eulerian", "--n", "3", "--r", "2")
    assert code == 0
    assert out == "t + 8*t^2 + 6*t^3\n"


@pytest.mark.parametrize("argv, line", [
    (["eulerian", "--n", "4", "--r", "2"], '[[1, "1"], [2, "22"], [3, "58"], [4, "24"]]'),
    (["mobius", "--poset", "pi", "--n", "4", "--mu", "2,1"],
     '{"poset": "pi", "n": 4, "mu": [2, 1], "mobius": -26}'),
    (["mobius", "--poset", "pi", "--n", "4", "--mu", "2,1", "--verify"],
     '{"poset": "pi", "n": 4, "mu": [2, 1], "mobius": -26, "coefficient": "-26", '
     '"pass": true}'),
], ids=["eulerian", "mobius", "mobius-verify"])
def test_json_lines_keep_their_bytes(capsys, argv, line):
    assert run(capsys, *argv, "--format", "json") == (0, line + "\n", "")


def test_enumerate_words(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--r", "2")
    assert code == 0
    assert out.splitlines() == ["1122", "1221", "2211"]
    code, out, _ = run(
        capsys, "enumerate", "--n", "2", "--r", "2", "--format", "json"
    )
    assert [json.loads(line) for line in out.splitlines()] == [
        [1, 1, 2, 2],
        [1, 2, 2, 1],
        [2, 2, 1, 1],
    ]


def test_enumerate_trees(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--what", "trees", "--n", "3", "--format", "json"
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_verify_single(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "thm13", "--order", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "identity": "thm13",
        "order": 4,
        "pass": True,
        "discrepancy": None,
    }


def test_verify_passes_n_to_checks(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "htoe", "--n", "5")
    assert code == 0
    assert "pass" in out


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nonsense")
    assert code == 2
    assert err.startswith("error: unknown identity 'nonsense'; known: prop11,")


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    failing = VerificationReport(
        "fake", {"order": 1}, False, {"location": "y^0", "lhs": "0", "rhs": "1"}
    )
    monkeypatch.setattr(identities, "registry", lambda: {"prop11": lambda: failing})
    code, out, _ = run(capsys, "verify", "--identity", "prop11")
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run(capsys, "verify", "--identity", "all", "--format", "json")
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [("riordan", "--order", "9"), ("lemma52", "--n", "12")],
)
def test_specializations_meet_no_degree_cap(capsys, argv):
    # e_i -> t maps e and h inputs term by term, with no conversion to cap
    code, out, err = run(capsys, "verify", "--identity", *argv)
    assert (code, err) == (0, "")
    assert ": pass" in out


@pytest.mark.parametrize("identity", ["prop12", "thm14"])
def test_verify_order_meets_the_degree_cap(capsys, identity):
    # the order-9 inverse has coefficients up to degree 8 = the default cap;
    # an inversion that formed a degree-9 intermediate would exit 2 here
    refused = pinned_outputs.argv(f"refused-{identity}-order10")
    code, out, err = run(capsys, *_one_step_below(refused, "--order"))
    assert (code, err) == (0, "")
    assert out.startswith(f"{identity} [order=9]: pass")
    code, out, err = run(capsys, *refused)
    assert (code, out) == (2, "")
    assert "exceeds the cap 8" in err


def test_htoe_still_meets_the_degree_cap(capsys):
    code, out, err = run(capsys, *pinned_outputs.argv("refused-htoe-n9"))
    assert (code, out) == (2, "")
    assert "exceeds the cap 8" in err


def test_htoe_refuses_large_n_before_any_conversion(capsys, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("no transition matrix may be built")

    monkeypatch.setattr(symfunc, "_to_m_matrix", no_matrix)
    code, out, err = run(capsys, *pinned_outputs.argv("refused-htoe-n9"))
    assert (code, out) == (2, "")
    assert "degree 9 exceeds the cap 8" in err


@pytest.mark.parametrize("argv", [
    pinned_outputs.argv("refused-mobius-pi-6-11111"),
    ["mobius", "--poset", "pi", "--n", "8", "--mu", "7"],
    ["mobius", "--poset", "b", "--n", "12", "--mu", "6,6"],
], ids=["pi-6-1,1,1,1,1", "pi-8-7", "b-12-6,6"])
def test_mobius_refuses_a_large_interval_before_building_its_order(
        capsys, monkeypatch, argv):
    def no_order(elements):
        raise AssertionError("the order must not be built")

    monkeypatch.setattr(posets, "_down_sets", no_order)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert (f"has more than {posets.INTERVAL_MAX_ELEMENTS} elements, the "
            "interval limit (posets.INTERVAL_MAX_ELEMENTS)") in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "equidist", "--n", "9", "--r", "2"],
        pinned_outputs.argv("refused-eulerian_oracle-n9"),
        ["verify", "--identity", "treeperm", "--n", "10"],
    ],
)
def test_enumerating_checks_refuse_large_n_before_any_word(capsys, monkeypatch, argv):
    def no_walk(n, r):
        raise AssertionError("the word walk must not start")

    monkeypatch.setattr(stirling, "_walk", no_walk)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"over the enumeration limit {stirling.ENUMERATION_MAX_WORDS}" in err
    # eulerian_oracle --n 8 walks Q(8, 2), 2,027,025 words, and stays accepted
    limits.check_word_budget(8, 2)


@pytest.mark.parametrize("r", [126, 1000])
def test_equidist_refuses_typing_work_before_any_word(capsys, monkeypatch, r):
    # Q(2, r) has only r + 1 words, but each is typed for 2r kinds at O(r)
    def no_walk(n, r):
        raise AssertionError("the word walk must not start")

    monkeypatch.setattr(stirling, "_walk", no_walk)
    code, out, err = run(capsys, *pinned_outputs.argv(f"refused-equidist-r{r}"))
    assert (code, out) == (2, "")
    assert f"over the typing limit {stirling.TYPING_MAX_WORK}" in err
    # Q(2, 125), the sizes of the default battery and the Q(7, 2) of
    # treeperm --n 8 stay accepted
    limits.check_typing_budget(2, 125)
    for n, r in [(6, 1), (6, 2), (5, 3), (7, 2)]:
        limits.check_typing_budget(n, r)


class Reached(Exception):
    """Raised by the expensive layer that the walk patches."""


_CAP = (f"degree {limits.DEFAULT_DEGREE_CAP + 1} exceeds the cap "
        f"{limits.DEFAULT_DEGREE_CAP}; pass a larger cap explicitly")
_TYPE_SUM = f"n={limits.TYPE_SUM_MAX_N + 1} exceeds the type-sum limit {limits.TYPE_SUM_MAX_N}"
_WORDS = f"over the enumeration limit {limits.ENUMERATION_MAX_WORDS}"
_TYPING = f"over the typing limit {limits.TYPING_MAX_WORK}"
_INTERVAL = (f"has more than {limits.INTERVAL_MAX_ELEMENTS} elements, the "
             "interval limit (posets.INTERVAL_MAX_ELEMENTS)")

# The walk over limits.ROWS, one boundary per entry: the id (its row's name,
# then a suffix when a row has more than one boundary), the manifest entry
# refused one step past the limit, the option that steps back to the limit,
# the expensive layer, and the refusal message.  A command whose limit is
# not one option's step states its accepted argv in full instead.
WALK = [
    ("prop11", "refused-prop11-order9", "--order", (identities, "convert"), _CAP),
    ("prop12", "refused-prop12-order10", "--order", (identities, "convert"), _CAP),
    ("thm13", "refused-thm13-order9", "--order", (identities, "convert"), _CAP),
    ("thm14", "refused-thm14-order10", "--order", (identities, "convert"), _CAP),
    ("riordan", "refused-riordan-order31", "--order", (TruncatedSeries, "inv"), _TYPE_SUM),
    # comp_inverse inverts through inv
    ("thm17", "refused-thm17-order32", "--order", (TruncatedSeries, "inv"), _TYPE_SUM),
    ("eulerian_oracle", "refused-eulerian_oracle-n9", "--n", (stirling, "_walk"), _WORDS),
    ("htoe", "refused-htoe-n9", "--n", (identities, "convert"), _CAP),
    ("lemma52", "refused-lemma52-n31", "--n", (identities, "specialize_E"), _TYPE_SUM),
    # Q(2, r) has only r + 1 words, but each is typed for 2r kinds at O(r)
    ("equidist", "refused-equidist-r126", "--r", (stirling, "_walk"), _TYPING),
    ("equidist-words", "refused-equidist-n10-r1", "--n", (stirling, "_walk"), _WORDS),
    # Q(8, 2) fits the word limit, but typing it and the trees of [9] does not
    ("treeperm", "refused-treeperm-n9", "--n", (identities, "normalized_trees"),
     _TYPING),
    ("forbidden", "refused-forbidden-order10", "--order",
     (identities, "forbidden_tree_egf"), _CAP),
    ("drake", "refused-drake-order7", "--order", (trees, "_colorings"),
     f"order={limits.COLORED_MAX_N + 1} exceeds the colored-tree limit "
     f"{limits.COLORED_MAX_N}"),
    ("inversion", "refused-inversion-order31", "--order", (TruncatedSeries, "inv"),
     _TYPE_SUM),
    ("thm62", "refused-thm62-n6", "--n", (posets, "_down_sets"), _INTERVAL),
    ("thm64", "refused-thm64-n7", "--n", (posets, "_down_sets"), _INTERVAL),
    ("thm65", "refused-thm65-n9", "--n", (moduli, "convert"), _CAP),
    ("expand", "refused-expand-9-2-p", "--n", (stirling, "_type_tally"), _CAP),
    ("expand-e", "refused-expand-31-2-e", "--n", (stirling, "_type_tally"), _TYPE_SUM),
    ("expand-j", "refused-expand-DA-j5",
     ["expand", "--n", "4", "--r", "2", "--kind", "DA", "--j", "1"],
     (stirling, "_type_tally"), "kind DA takes no j; j must be 1, got 5"),
    ("expand-TN", "refused-expand-TN-r1",
     ["expand", "--n", "2", "--r", "2", "--kind", "TN"],
     (stirling, "_type_tally"), "kind TN needs r >= 2; the words of Q(n, 1) have no gaps"),
    ("enumerate", "refused-trees-n10", "--n", (trees, "_word_trees"),
     f"n={limits.NORMALIZED_MAX_N + 1} exceeds the normalized-tree limit "
     f"{limits.NORMALIZED_MAX_N}"),
    ("eulerian", "refused-eulerian-n1424", "--n", (stirling, "_descent_tally"),
     f"has more than {sys.get_int_max_str_digits()} digits, the limit of integer "
     "string conversion (sys.get_int_max_str_digits())"),
    ("invert", "refused-invert-mult-32-coeffs", "--coeffs", (stirling, "_type_tally"),
     _TYPE_SUM),
    ("invert-comp", "refused-invert-comp-33-coeffs", "--coeffs",
     (stirling, "_type_tally"), _TYPE_SUM),
    ("wp", "refused-wp-31", "--lambda", (moduli, "_box_polynomial"),
     f"|lambda| = {limits.WP_MAX_N + 1} exceeds the volume limit {limits.WP_MAX_N} "
     "(moduli.WP_MAX_N)"),
    ("mobius", "refused-mobius-pi-6-11111",
     ["mobius", "--poset", "pi", "--n", "6", "--mu", "2,2,1"],
     (posets, "_down_sets"), _INTERVAL),
    # the interval below (5, 3) is accepted; at n = 9 the type sum has degree 9
    ("mobius-verify", "refused-mobius-b-9-63-verify",
     ["mobius", "--poset", "b", "--n", "8", "--mu", "5,3", "--verify"],
     (posets, "_down_sets"), _CAP),
    ("tables", "refused-tables-nmax9", "--nmax", (symfunc, "convert"), _CAP),
]


def _one_step_below(argv: list[str], step) -> list[str]:
    """The argv at the limit: ``step`` itself when it is a full argv, else
    argv with that option's value one lower, or one item shorter when it is
    a comma list."""
    if isinstance(step, list):
        return step
    i = argv.index(step) + 1
    items = argv[i].split(",")
    value = ",".join(items[:-1]) if len(items) > 1 else str(int(argv[i]) - 1)
    return [*argv[:i], value, *argv[i + 1:]]


def _sizes(argv: list[str]) -> dict:
    """The size options of a ``verify`` argv, as the check's keywords."""
    return {argv[i].removeprefix("--"): int(argv[i + 1]) for i in range(3, len(argv), 2)}


def test_the_walk_covers_every_row():
    walked = {entry_id.split("-")[0] for entry_id, *_ in WALK}
    assert walked == {name for name, row in limits.ROWS.items() if row.refuse}
    # equicard takes no size option, so it has no limit to walk
    assert {name for name, row in limits.ROWS.items() if not row.refuse} == {"equicard"}
    assert set(identities.registry()) <= set(limits.ROWS)
    for _, refused_id, *_ in WALK:
        assert pinned_outputs.entries()[refused_id]["exit"] == 2, refused_id


@pytest.mark.parametrize("entry_id, refused_id, step, layer, message", WALK,
                         ids=[entry[0] for entry in WALK])
def test_sizes_are_refused_before_any_work(capsys, monkeypatch, entry_id, refused_id,
                                           step, layer, message):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(*layer, reached)
    refused = pinned_outputs.argv(refused_id)
    accepted = _one_step_below(refused, step)
    # at the limit the command reaches its expensive layer
    with pytest.raises(Reached):
        cli.main(accepted)
    # one step past it, it exits 2 and leaves the layer untouched
    code, out, err = run(capsys, *refused)
    assert (code, out) == (2, "")
    assert message in err
    if refused[0] == "verify":
        # a direct library call refuses the same size as well
        check = identities.registry()[refused[2]]
        with pytest.raises(Reached):
            check(**_sizes(accepted))
        with pytest.raises(ValueError) as info:
            check(**_sizes(refused))
        assert message in str(info.value)


def test_eulerian_refuses_a_count_it_could_not_print(capsys, monkeypatch):
    def no_recurrence(n, r):
        raise AssertionError("the descent recurrence must not start")

    with monkeypatch.context() as patched:
        patched.setattr(stirling, "_descent_tally", no_recurrence)
        code, out, err = run(capsys, *pinned_outputs.argv("refused-eulerian-n2000"))
        assert (code, out) == (2, "")
        assert (f"has more than {sys.get_int_max_str_digits()} digits, the limit of "
                "integer string conversion (sys.get_int_max_str_digits())") in err
    # |Q(2, 2)| = 3 has exactly as many digits as a limit of 1 allows
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 1)
    assert run(capsys, "eulerian", "--n", "2", "--r", "2") == (0, "t + 2*t^2\n", "")
    code, out, err = run(capsys, "eulerian", "--n", "3", "--r", "2")
    assert (code, out) == (2, "")
    assert "|Q(3,2)| has more than 1 digits" in err


def test_schur_and_power_sum_expansions_build_no_variable_expansion(capsys, monkeypatch):
    # p is the hub: only e <-> h and e/h <-> m build the d-variable matrices.
    # The oracles below pivot m and s through e, with the matrices, before
    # the builders are patched away.
    def in_e(x):
        return symfunc.convert(x, "e")

    f = SymFunc("m", {(2, 1): 3, (1,): -1, (): 2})
    g = SymFunc("s", {(2, 1): 1, (3,): Fraction(1, 2), (1,): 1})
    values = {k: Fraction(k + 1, 2 * k + 1) for k in range(1, 9)}
    checks = []
    for x, y in ((f, f), (f, g), (g, f), (f, f.scale(3) + g)):
        checks.append((partial(symfunc.multiply, x, y), symfunc.multiply(in_e(x), in_e(y))))
    for x in (f, g):
        checks += [
            (partial(symfunc.omega, x), symfunc.omega(in_e(x))),
            (partial(symfunc.specialize_E, x), symfunc.specialize_E(in_e(x))),
            (partial(symfunc.evaluate_h, x, values), symfunc.evaluate_h(in_e(x), values)),
        ]
    coeffs = [SymFunc.one("m"), SymFunc("m", {(1,): 1}),
              SymFunc("m", {(2,): 1, (1, 1): -2}), f]
    series_m = TruncatedSeries.from_coefficients(SymFuncRing(basis="m"), "ogf", 3, coeffs)
    in_e_ring = TruncatedSeries.from_coefficients(SymFuncRing(basis="e"), "ogf", 3,
                                                  [in_e(c) for c in coeffs])
    checks.append((lambda: series_m.inv().coeffs, in_e_ring.inv().coeffs))

    def no_matrix(*args):
        raise AssertionError("no d-variable transition matrix may be built")

    monkeypatch.setattr(symfunc, "_to_m_matrix", no_matrix)
    monkeypatch.setattr(symfunc, "_from_m_matrix", no_matrix)
    for entry_id in ("expand-8-2-s", "expand-8-2-p"):
        entry = pinned_outputs.entries()[entry_id]
        code, out, err = run(capsys, *entry["argv"])
        assert err == ""
        assert pinned_outputs.mismatch(entry, code, out.encode()) is None
    every = {lam: Fraction(len(lam) + 1, d + 1) for d in range(9) for lam in partitions_of(d)}
    for source in symfunc.BASES:
        for target in symfunc.BASES:
            if source == target or {source, target} <= {"e", "h", "m"}:
                continue
            x = SymFunc(source, every)
            y = symfunc.convert(x, target)
            assert y.basis == target
            assert symfunc.convert(y, source).terms == x.terms, (source, target)
    for call, expected in checks:
        assert call() == expected
    assert symfunc.multiply(f, g).basis == "m"
    assert identities.check_forbidden(5).passed
    assert check_drake(5).passed
    with pytest.raises(symfunc.DegreeCapError, match="degree 9 exceeds the cap 8"):
        symfunc.convert(symfunc.basis_element("e", (9,)), "p")

    def no_tally(n, r):
        raise AssertionError("the type recurrence must not start")

    monkeypatch.setattr(stirling, "_type_tally", no_tally)
    code, out, err = run(capsys, *pinned_outputs.argv("refused-expand-9-2-p"))
    assert (code, out) == (2, "")
    assert "degree 9 exceeds the cap 8" in err


@pytest.mark.parametrize("entry_id",
                         ["prop11-8-json", "prop12-9-json", "thm13-8-json", "thm14-9-json"])
def test_series_checks_build_no_variable_expansion(capsys, monkeypatch, entry_id):
    # both sides are read in p, where e_k and h_k have closed forms
    def no_matrix(*args):
        raise AssertionError("no d-variable transition matrix may be built")

    monkeypatch.setattr(symfunc, "_to_m_matrix", no_matrix)
    monkeypatch.setattr(symfunc, "_from_m_matrix", no_matrix)
    entry = pinned_outputs.entries()[entry_id]
    code, out, err = run(capsys, *entry["argv"])
    assert err == ""
    assert pinned_outputs.mismatch(entry, code, out.encode()) is None


def test_series_check_in_p_sees_a_wrong_closed_form(monkeypatch):
    # flip the sign of p(4)/4 in the closed form of e_4: the e side of prop11
    # moves at y^4 while the h side does not
    image = symfunc._power_sum_image

    def flipped(family, k):
        terms = image(family, k)
        if (family, k) == ("e", 4):
            terms = symfunc._Terms(terms)
            terms[(4,)] = -terms[(4,)]
        return terms

    monkeypatch.setattr(symfunc, "_power_sum_image", flipped)
    report = identities.check_prop11(8)
    assert not report.passed
    assert report.discrepancy["location"].startswith("y^4, p(4)")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equicard", "--n", "9"], "'equicard' takes no --n; its size options: none"),
        (["prop11", "--n", "3"], "'prop11' takes no --n; its size options: --order"),
        (["forbidden", "--r", "3"],
         "'forbidden' takes no --r; its size options: --order"),
        (["htoe", "--order", "3", "--n", "3"], "'htoe' takes no --order; its size "
         "options: --n (or --order in its place)"),
    ],
)
def test_verify_refuses_a_size_option_the_check_does_not_take(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--identity", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: identity {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "prop12", "--order", "0"],
    pinned_outputs.argv("refused-thm14-order0"),
    ["verify", "--identity", "thm17", "--order", "0"],
    ["verify", "--identity", "inversion", "--order", "0"],
], ids=["prop12", "thm14", "thm17", "inversion"])
def test_verify_refuses_order_zero_where_a_series_is_inverted(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: order must be at least 1\n")


@pytest.mark.parametrize("argv", [
    pinned_outputs.argv("refused-htoe-negative-n"),
    ["verify", "--identity", "lemma52", "--n", "-1"],
    ["verify", "--identity", "treeperm", "--n", "-1"],
    ["verify", "--identity", "thm62", "--n", "-1"],
    ["verify", "--identity", "thm64", "--n", "-1"],
    ["verify", "--identity", "thm65", "--n", "-1"],
], ids=["htoe", "lemma52", "treeperm", "thm62", "thm64", "thm65"])
def test_verify_refuses_a_negative_size_before_the_check_runs(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: --n must be nonnegative, got -1\n")


def test_verify_reads_size_options_from_the_row_not_the_check(capsys, monkeypatch):
    # a tracer replaces each registry check with a *args, **kwargs wrapper
    # that carries __wrapped__ but names no option of its own
    check = identities.check_prop11
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return check(*args, **kwargs)

    wrapper.__wrapped__ = check
    monkeypatch.setattr(identities, "check_prop11", wrapper)
    assert run(capsys, "verify", "--identity", "prop11", "--order", "3") == (
        0, "prop11 [order=3]: pass\n", "")
    assert calls == [{"order": 3}]


def test_verify_keeps_the_order_fallback_and_the_battery_refuses_size_options(
        capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--identity", "htoe", "--order", "3")
    assert (code, out) == (0, "htoe [n=3]: pass\n")
    # the battery refuses a size option before any check runs

    def refuse(**kwargs):
        raise AssertionError("no check may run")

    monkeypatch.setattr(identities, "registry", lambda: {"a": refuse, "b": refuse})
    for option in ("--order", "--n", "--r"):
        code, out, err = run(capsys, "verify", "--identity", "all", option, "5")
        assert (code, out) == (2, "")
        assert err == (f"error: --identity all takes no {option}; the battery "
                       "runs every check at its default size\n")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


def test_enumerate_streams_under_a_memory_limit_and_stops_at_a_closed_pipe():
    # Q(9, 2) holds 34,459,425 words, far beyond 512 MB as a list
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirlingsym.cli", "enumerate", "--n", "9", "--r", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=_limit_address_space,
    )
    lines = [proc.stdout.readline() for _ in range(1000)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    words = [line.rstrip("\n") for line in lines]
    assert words[0] == "112233445566778899"
    assert all(w < v for w, v in zip(words, words[1:]))
    for w in words:
        stirling.StirlingPerm(tuple(int(ch) for ch in w), 9, 2)
    assert "Traceback" not in err
    assert code == cli.EXIT_BROKEN_PIPE == 141


class _ReaderLeavesAfter(io.StringIO):
    """A stdout whose reader closes the pipe once ``lines`` lines have come;
    like any ``io.StringIO``, it has no descriptor."""

    def __init__(self, lines: int):
        super().__init__()
        self.lines = lines

    def write(self, text: str) -> int:
        room = self.lines - self.getvalue().count("\n")
        taken = "".join(text.splitlines(keepends=True)[:room])
        super().write(taken)
        if taken != text:
            raise BrokenPipeError
        return len(text)


def test_tree_enumeration_streams_and_stops_at_a_closed_pipe(monkeypatch):
    # the trees of [9] are 2,027,025; one leaf word has at most Catalan(8) = 1,430
    built = []
    word_trees = trees._word_trees

    def counted(word):
        out = word_trees(word)
        built.append(len(out))
        return out

    monkeypatch.setattr(trees, "_word_trees", counted)
    stdout = _ReaderLeavesAfter(3)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = cli.main(["enumerate", "--what", "trees", "--n", "9"])
    assert code == cli.EXIT_BROKEN_PIPE
    assert stdout.getvalue() == "*\n  *\n    *\n"
    assert 0 < sum(built) < 2000


def test_main_leaves_a_closed_pipe_on_its_descriptor(monkeypatch):
    # an in-process caller keeps its stdout: main points no descriptor elsewhere
    read, write = os.pipe()
    os.close(read)
    before = os.fstat(write)
    with contextlib.suppress(BrokenPipeError), open(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["enumerate", "--what", "trees", "--n", "9"])
        after = os.fstat(write)
    assert code == cli.EXIT_BROKEN_PIPE
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    assert stat.S_ISFIFO(after.st_mode)


@pytest.mark.parametrize("returned", [0, 1, cli.EXIT_BROKEN_PIPE])
def test_run_exits_with_the_code_and_silences_stdout_only_after_a_closed_pipe(
        monkeypatch, tmp_path, returned):
    with open(tmp_path / "stdout", "w") as stdout:
        before = os.fstat(stdout.fileno())
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(cli, "main", lambda: returned)
        with pytest.raises(SystemExit) as exited:
            cli.run()
        after = os.fstat(stdout.fileno())
    assert exited.value.code == returned
    same = (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    assert same == (returned != cli.EXIT_BROKEN_PIPE)
    if not same:
        assert after.st_rdev == os.stat(os.devnull).st_rdev


def test_a_fault_in_a_check_is_not_reported_as_a_refusal(monkeypatch):
    # exit 2 means a ValueError: usage or a refused size; any other exception
    # is a fault and keeps its traceback
    def faulty(**sizes):
        raise KeyError("missing")

    monkeypatch.setattr(identities, "registry", lambda: {"lemma52": faulty})
    with pytest.raises(KeyError, match="missing"):
        cli.main(["verify", "--identity", "lemma52"])


def test_the_console_script_runs_the_process_entry():
    # a script bound to main would leave a closed pipe's EPIPE unsilenced;
    # plain text, since tomllib is absent before Python 3.11
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^\[project\.scripts\]\n(?:[^\[].*\n)*?'
                             r'stirlingsym\s*=\s*"([\w.]+):(\w+)"$', text, re.M).groups()
    assert getattr(importlib.import_module(module), name) is cli.run


def test_invert(capsys):
    code, out, _ = run(
        capsys, "invert", "--kind", "comp", "--coeffs", "0,1,1,1,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == ["0", "1", "-1", "2", "-6"]
    code, _, err = run(capsys, "invert", "--kind", "mult", "--coeffs", "0,1")
    assert code == 2
    code, out, err = run(capsys, *pinned_outputs.argv("refused-invert-zero-denominator"))
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")
    code, out, err = run(capsys, "invert", "--kind", "mult", "--coeffs", "1,1",
                         "--order", "-1")
    assert (code, out, err) == (2, "", "error: order must be nonnegative\n")
    code, out, err = run(capsys, "invert", "--kind", "comp", "--coeffs", "0")
    assert (code, out) == (2, "")
    assert err == "error: compositional inverse needs f_0 = 0 and f_1 != 0\n"


def test_list_values_may_start_with_a_minus_sign(capsys):
    attached = run(capsys, "invert", "--kind", "mult", "--coeffs=-1,2,3")
    separate = run(capsys, "invert", "--kind", "mult", "--coeffs", "-1,2,3")
    assert separate == attached == (0, "0: -1\n1: -2\n2: -11\n", "")
    code, out, _ = run(capsys, "invert", "--kind", "mult", "--coeffs", "-1/2", "--format", "json")
    assert (code, json.loads(out)) == (0, ["-2"])
    for argv in (("--mu", "-1,3"), ("--mu=-1,3",)):
        code, out, err = run(capsys, "mobius", "--poset", "pi", "--n", "3", *argv)
        assert (code, out) == (2, "")
        assert err == "error: mu=(-1, 3) has a negative part -1\n"
    # a flag after a list option is still a missing value
    with pytest.raises(SystemExit) as info:
        cli.main(["invert", "--kind", "mult", "--coeffs", "--format", "json"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (MemoryError(), 3, "error: MemoryError\n"),
        (RecursionError("maximum recursion depth exceeded"), 3,
         "error: RecursionError: maximum recursion depth exceeded\n"),
        (KeyboardInterrupt(), 130, "error: interrupted\n"),
    ],
)
def test_resource_errors_exit_with_one_line(capsys, monkeypatch, exc, code, message):
    def raise_it(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "wp", raise_it)
    assert run(capsys, "wp", "--lambda", "2,1") == (code, "", message)


def test_wp(capsys):
    code, out, _ = run(capsys, "wp", "--lambda", "2,1")
    assert code == 0
    assert out == "9\n"
    code, out, _ = run(capsys, "wp", "--lambda", "1,1", "--format", "json")
    assert json.loads(out) == {"lambda": [1, 1], "wp": "5"}


def test_mobius(capsys):
    code, out, _ = run(capsys, "mobius", "--poset", "pi", "--n", "3", "--mu", "2,0")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run(
        capsys, "mobius", "--poset", "b", "--n", "2", "--mu", "1,1", "--verify"
    )
    assert code == 0
    assert "pass" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["expand"])  # missing required --n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "expand", "--n", "4", "--r", "2", "--basis", "p")
    second = run(capsys, "expand", "--n", "4", "--r", "2", "--basis", "p")
    assert first == second


def test_tables_match_golden_files(capsys, tmp_path):
    code, out, _ = run(capsys, "tables", "--out", str(tmp_path))
    assert code == 0
    for r in (1, 2):
        produced = (tmp_path / f"expansions_r{r}.txt").read_bytes()
        golden = (GOLDEN / f"expansions_r{r}.txt").read_bytes()
        assert produced == golden


def test_tables_stdout(capsys):
    code, out, _ = run(capsys, "tables", "--nmax", "2")
    assert code == 0
    assert "type-sum expansions for r=1" in out
    assert "2*m(2) + 5*m(1,1)" in out


def test_tables_rejects_negative_nmax(capsys):
    code, out, err = run(capsys, "tables", "--nmax", "-1")
    assert code == 2
    assert out == ""
    assert "--nmax" in err


def test_tables_refuse_an_out_path_they_cannot_write(capsys, tmp_path):
    # an existing file, and a directory below one
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_path in (taken, taken / "below"):
        code, out, err = run(capsys, "tables", "--nmax", "2", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write the tables to {out_path}: ")
        assert err.count("\n") == 1
