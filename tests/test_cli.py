import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from stirlingsym import cli, identities, moduli, posets, stirling, symfunc, trees
from stirlingsym.identities import check_drake
from stirlingsym.report import VerificationReport
from stirlingsym.series import TruncatedSeries
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
    f = SymFunc.from_json(json.loads(out))
    assert f == SymFunc("e", {(3,): 1, (2, 1): 4, (1, 1, 1): 1})


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
    monkeypatch.setattr(identities, "registry", lambda: {"fake": lambda: failing})
    code, out, _ = run(capsys, "verify", "--identity", "fake")
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run(capsys, "verify", "--identity", "all", "--format", "json")
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("identity", ["prop12", "thm14"])
def test_verify_order_meets_the_degree_cap(capsys, identity):
    # the order-9 inverse has coefficients up to degree 8 = the default cap;
    # an inversion that formed a degree-9 intermediate would exit 2 here
    code, out, err = run(capsys, "verify", "--identity", identity, "--order", "9")
    assert (code, err) == (0, "")
    assert out.startswith(f"{identity} [order=9]: pass")
    code, out, err = run(capsys, "verify", "--identity", identity, "--order", "10")
    assert (code, out) == (2, "")
    assert "exceeds the cap 8" in err


@pytest.mark.parametrize(
    "argv",
    [("riordan", "--order", "9"), ("lemma52", "--n", "12")],
)
def test_specializations_meet_no_degree_cap(capsys, argv):
    # e_i -> t maps e and h inputs term by term, with no conversion to cap
    code, out, err = run(capsys, "verify", "--identity", *argv)
    assert (code, err) == (0, "")
    assert ": pass" in out


def test_htoe_still_meets_the_degree_cap(capsys):
    code, out, err = run(capsys, "verify", "--identity", "htoe", "--n", "9")
    assert (code, out) == (2, "")
    assert "exceeds the cap 8" in err


def test_htoe_refuses_large_n_before_any_conversion(capsys, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("no transition matrix may be built")

    monkeypatch.setattr(symfunc, "_to_m_matrix", no_matrix)
    code, out, err = run(capsys, "verify", "--identity", "htoe", "--n", "9")
    assert (code, out) == (2, "")
    assert "degree 9 exceeds the cap 8" in err


def test_enumerate_trees_refuses_large_n_before_any_work(capsys, monkeypatch):
    def no_attach(*args):
        raise AssertionError("no tree may be built")

    monkeypatch.setattr(trees, "_attach", no_attach)
    code, out, err = run(capsys, "enumerate", "--what", "trees", "--n", "10")
    assert (code, out) == (2, "")
    assert f"exceeds the normalized-tree limit {trees.NORMALIZED_MAX_N}" in err
    assert trees.NORMALIZED_MAX_N == 9


def test_drake_refuses_large_order_before_any_work(capsys, monkeypatch):
    def no_colorings(*args):
        raise AssertionError("the coloring walk must not start")

    monkeypatch.setattr(trees, "_colorings", no_colorings)
    code, out, err = run(capsys, "verify", "--identity", "drake", "--order", "7")
    assert (code, out) == (2, "")
    assert f"exceeds the colored-tree limit {trees.COLORED_MAX_N}" in err
    monkeypatch.undo()
    assert trees.COLORED_MAX_N == 6
    assert check_drake(6).passed


@pytest.mark.parametrize("poset, n, mu", [
    ("pi", "6", "1,1,1,1,1"),
    ("pi", "8", "7"),
    ("b", "12", "6,6"),
])
def test_mobius_refuses_a_large_interval_before_building_its_order(
        capsys, monkeypatch, poset, n, mu):
    def no_order(elements):
        raise AssertionError("the order must not be built")

    monkeypatch.setattr(posets, "_down_sets", no_order)
    code, out, err = run(capsys, "mobius", "--poset", poset, "--n", n, "--mu", mu)
    assert (code, out) == (2, "")
    assert (f"has more than {posets.INTERVAL_MAX_ELEMENTS} elements, the "
            "interval limit (posets.INTERVAL_MAX_ELEMENTS)") in err


_TYPE_SUM_REFUSAL = f"n=31 exceeds the type-sum limit {stirling.TYPE_SUM_MAX_N}"
_CAP_REFUSAL = "degree 9 exceeds the cap 8; pass a larger cap explicitly"
_EXPAND_CAP_REFUSAL = "degree 30 exceeds the cap 8; pass a larger cap explicitly"
_INTERVAL_REFUSAL = (f"has more than {posets.INTERVAL_MAX_ELEMENTS} elements, the "
                     "interval limit (posets.INTERVAL_MAX_ELEMENTS)")


@pytest.mark.parametrize("argv, owner, step, message", [
    (["verify", "--identity", "thm62", "--n", "6"], posets, "_down_sets",
     _INTERVAL_REFUSAL),
    (["verify", "--identity", "thm64", "--n", "9"], posets, "_down_sets",
     _INTERVAL_REFUSAL),
    (["verify", "--identity", "riordan", "--order", "31"], TruncatedSeries, "inv",
     _TYPE_SUM_REFUSAL),
    (["verify", "--identity", "inversion", "--order", "31"], TruncatedSeries, "inv",
     _TYPE_SUM_REFUSAL),
    # comp_inverse inverts through inv
    (["verify", "--identity", "thm17", "--order", "32"], TruncatedSeries, "inv",
     _TYPE_SUM_REFUSAL),
    (["verify", "--identity", "lemma52", "--n", "31"], identities, "specialize_E",
     _TYPE_SUM_REFUSAL),
    (["invert", "--kind", "mult", "--coeffs", ",".join(["1"] * 32)], stirling,
     "_type_tally", _TYPE_SUM_REFUSAL),
    (["verify", "--identity", "forbidden", "--order", "10"], identities, "convert",
     _CAP_REFUSAL),
    (["verify", "--identity", "prop12", "--order", "10"], identities, "convert",
     _CAP_REFUSAL),
    (["verify", "--identity", "thm65", "--n", "9"], moduli, "convert", _CAP_REFUSAL),
    # Q(8, 2) fits the word limit, but typing it and the trees of [9] does not
    (["verify", "--identity", "treeperm", "--n", "9"], identities, "enumerate_normalized",
     f"over the typing limit {stirling.TYPING_MAX_WORK}"),
    (["wp", "--lambda", ",".join(["1"] * (moduli.WP_MAX_N + 1))], moduli,
     "_box_polynomial", f"exceeds the volume limit {moduli.WP_MAX_N} (moduli.WP_MAX_N)"),
    (["tables", "--nmax", "9"], symfunc, "convert", _CAP_REFUSAL),
    # the interval below (6, 3) is accepted; its type sum has degree 9
    (["mobius", "--poset", "b", "--n", "9", "--mu", "6,3", "--verify"], posets,
     "_down_sets", _CAP_REFUSAL),
    (["expand", "--n", "30", "--r", "2", "--basis", "m"], stirling, "_type_tally",
     _EXPAND_CAP_REFUSAL),
], ids=["thm62", "thm64", "riordan", "inversion", "thm17", "lemma52", "invert", "forbidden",
        "prop12", "thm65", "treeperm", "wp", "tables", "mobius-verify", "expand"])
def test_sizes_are_refused_before_any_work(capsys, monkeypatch, argv, owner, step,
                                           message):
    def no_work(*args):
        raise AssertionError(f"{step} must not run")

    monkeypatch.setattr(owner, step, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_eulerian_refuses_a_count_it_could_not_print(capsys, monkeypatch):
    def no_recurrence(n, r):
        raise AssertionError("the descent recurrence must not start")

    with monkeypatch.context() as patched:
        patched.setattr(stirling, "_descent_tally", no_recurrence)
        code, out, err = run(capsys, "eulerian", "--n", "2000", "--r", "2")
        assert (code, out) == (2, "")
        assert (f"has more than {sys.get_int_max_str_digits()} digits, the limit of "
                "integer string conversion (sys.get_int_max_str_digits())") in err
    # |Q(2, 2)| = 3 has exactly as many digits as a limit of 1 allows
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 1)
    assert run(capsys, "eulerian", "--n", "2", "--r", "2") == (0, "t + 2*t^2\n", "")
    code, out, err = run(capsys, "eulerian", "--n", "3", "--r", "2")
    assert (code, out) == (2, "")
    assert "|Q(3,2)| has more than 1 digits" in err


def test_expand_refuses_large_n_before_any_work(capsys, monkeypatch):
    def no_tally(n, r):
        raise AssertionError("the type recurrence must not start")

    monkeypatch.setattr(stirling, "_type_tally", no_tally)
    code, out, err = run(capsys, "expand", "--n", "60", "--r", "2")
    assert (code, out) == (2, "")
    assert f"exceeds the type-sum limit {stirling.TYPE_SUM_MAX_N}" in err
    # the limit itself is accepted
    monkeypatch.setattr(stirling, "_type_tally", lambda n, r: (((n,), 1),))
    code, out, _ = run(capsys, "expand", "--n", str(stirling.TYPE_SUM_MAX_N), "--r", "2")
    assert (code, out) == (0, f"e({stirling.TYPE_SUM_MAX_N})\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--identity", "equidist", "--n", "9", "--r", "2"],
        ["--identity", "eulerian_oracle", "--n", "9"],
        ["--identity", "treeperm", "--n", "10"],
    ],
)
def test_enumerating_checks_refuse_large_n_before_any_word(capsys, monkeypatch, argv):
    def no_walk(n, r):
        raise AssertionError("the word walk must not start")

    monkeypatch.setattr(stirling, "_walk", no_walk)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"over the enumeration limit {stirling.ENUMERATION_MAX_WORDS}" in err
    # eulerian_oracle --n 8 walks Q(8, 2), 2,027,025 words, and stays accepted
    stirling.check_word_budget(8, 2)


@pytest.mark.parametrize("r", [126, 1000])
def test_equidist_refuses_typing_work_before_any_word(capsys, monkeypatch, r):
    # Q(2, r) has only r + 1 words, but each is typed for 2r kinds at O(r)
    def no_walk(n, r):
        raise AssertionError("the word walk must not start")

    monkeypatch.setattr(stirling, "_walk", no_walk)
    code, out, err = run(capsys, "verify", "--identity", "equidist", "--n", "2",
                         "--r", str(r))
    assert (code, out) == (2, "")
    assert f"over the typing limit {stirling.TYPING_MAX_WORK}" in err
    # Q(2, 125), the sizes of the default battery and the Q(7, 2) of
    # treeperm --n 8 stay accepted
    stirling.check_typing_budget(2, 125)
    for n, r in [(6, 1), (6, 2), (5, 3), (7, 2)]:
        stirling.check_typing_budget(n, r)


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


@pytest.mark.parametrize("identity", ["prop12", "thm14", "thm17", "inversion"])
def test_verify_refuses_order_zero_where_a_series_is_inverted(capsys, identity):
    code, out, err = run(capsys, "verify", "--identity", identity, "--order", "0")
    assert (code, out, err) == (2, "", "error: order must be at least 1\n")


@pytest.mark.parametrize("identity",
                         ["htoe", "lemma52", "treeperm", "thm62", "thm64", "thm65"])
def test_verify_refuses_a_negative_size_before_the_check_runs(capsys, identity):
    code, out, err = run(capsys, "verify", "--identity", identity, "--n", "-1")
    assert (code, out, err) == (2, "", "error: --n must be nonnegative, got -1\n")


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


def test_invert(capsys):
    code, out, _ = run(
        capsys, "invert", "--kind", "comp", "--coeffs", "0,1,1,1,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == ["0", "1", "-1", "2", "-6"]
    code, _, err = run(capsys, "invert", "--kind", "mult", "--coeffs", "0,1")
    assert code == 2
    code, out, err = run(capsys, "invert", "--kind", "mult", "--coeffs", "1/0")
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
