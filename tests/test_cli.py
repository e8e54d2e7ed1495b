import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from stirlingsym import cli, stirling, symfunc, trees
from stirlingsym.identities import check_drake
from stirlingsym.report import VerificationReport
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
        capsys, "verify", "--identity", "thm13", "--order", "4", "--json"
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
    assert "unknown identity" in err


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    failing = VerificationReport(
        "fake", {"order": 1}, False, {"location": "y^0", "lhs": "0", "rhs": "1"}
    )
    monkeypatch.setattr(cli, "registry", lambda: {"fake": lambda: failing})
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
