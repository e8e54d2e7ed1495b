"""Tests of the benchmark itself: oracles, failure counting, tracing.

Run with:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import series_job  # noqa: E402
import trace_entry  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402


def _nested_words(n, r):
    """Q(n, r) by brute force over all multiset permutations."""
    letters = [k for k in range(1, n + 1) for _ in range(r)]
    out = set()
    for w in set(permutations(letters)):
        ok = True
        for m in range(1, n + 1):
            pos = [i for i, x in enumerate(w) if x == m]
            if any(x < m for x in w[pos[0]:pos[-1] + 1]):
                ok = False
        if ok:
            out.add(w)
    return out


@pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (3, 2), (2, 3)])
def test_descent_triangle_counts_nested_words(n, r):
    words = _nested_words(n, r)
    assert len(words) == oracles.word_count(n, r)
    row = [0] * (n + 1)
    for w in words:
        padded = (0,) + w + (0,)
        row[sum(a > b for a, b in zip(padded, padded[1:]))] += 1
    assert row == oracles.descent_triangle(n, r)


def _eulerian_text(n, r):
    row = oracles.descent_triangle(n, r)
    parts = [("t" if d == 1 else f"t^{d}") if c == 1 else
             (f"{c}*t" if d == 1 else f"{c}*t^{d}") for d, c in enumerate(row) if c]
    return (" + ".join(parts) + "\n").encode()


def _ok(out):
    return {"exit_code": 0, "timed_out": False, "stdout": out}


def test_eulerian_oracle_rejects_a_corrupted_coefficient():
    job = {"id": "e", "check": "eulerian", "params": {"n": 5, "r": 2}}
    good = _eulerian_text(5, 2)
    assert oracles.check_job(job, _ok(good), {}) is None
    bad = good.replace(b"+ 1", b"+ 2", 1)
    assert bad != good
    assert oracles.check_job(job, _ok(bad), {}) is not None
    assert oracles.check_job(job, _ok(b"garbage\n"), {}) is not None
    assert oracles.check_job(job, {**_ok(good), "exit_code": 1}, {}) == "exit code 1"
    assert oracles.check_job(job, {**_ok(good), "timed_out": True}, {}) == "timed out"


def test_expand_oracle_checks_the_sum_and_the_twin():
    job = {"id": "tn", "check": "expand_e",
           "params": {"n": 2, "r": 2, "same_as": "aa"}}
    out = b"e(2) + 2*e(1,1)\n"    # |Q(2,2)| = 3
    assert oracles.check_job(job, _ok(out), {"aa": out}) is None
    assert oracles.check_job(job, _ok(out), {"aa": b"e(2)\n"}) is not None
    assert oracles.check_job(job, _ok(b"e(2) + 3*e(1,1)\n"), {"aa": out}) is not None


def test_invert_oracle():
    coeffs = "2,-1/2,3"
    inverse = oracles.egf_inverse([Fraction(x) for x in coeffs.split(",")])
    out = "".join(f"{n}: {c}\n" for n, c in enumerate(inverse)).encode()
    job = {"id": "i", "check": "invert_mult", "params": {"coeffs": coeffs}}
    assert oracles.check_job(job, _ok(out), {}) is None
    assert oracles.check_job(job, _ok(out.replace(b"0: 1/2", b"0: 1")), {}) is not None


def test_series_job_output_passes_and_corruption_fails(capsys):
    egf = "1,-1/2,3,2/3,5"
    assert series_job.main(["--thm17-order", "6", "--riordan-order", "7",
                            f"--egf={egf}"]) == 0
    out = capsys.readouterr().out.encode()
    job = {"id": "s", "check": "series",
           "params": {"thm17_order": 6, "riordan_order": 7, "egf": egf}}
    assert oracles.check_job(job, _ok(out), {}) is None
    lines = out.splitlines(keepends=True)
    item = json.loads(lines[2])
    item["coeffs"][3] = "7"
    lines[2] = (json.dumps(item) + "\n").encode()
    assert "qq_comp" in oracles.check_job(job, _ok(b"".join(lines)), {})


def test_verify_oracle_counts_reports():
    job = {"id": "v", "check": "verify_pass", "params": {"reports": 2}}
    good = b"a [n=1]: pass\nb [n=2]: pass\n  note\n"
    assert oracles.check_job(job, _ok(good), {}) is None
    assert oracles.check_job(job, _ok(good.replace(b"b [n=2]: pass", b"b [n=2]: FAIL")),
                             {}) is not None
    assert oracles.check_job(job, _ok(b"a [n=1]: pass\n"), {}) is not None


def test_corrupted_job_output_counts_as_failed(monkeypatch):
    jobs = [{"id": "e", "kind": "cli", "args": [], "check": "eulerian",
             "params": {"n": 4, "r": 1}}]
    good = _eulerian_text(4, 1)
    fake = {"exit_code": 0, "timed_out": False, "stderr": b"", "wall_s": 1.0,
            "cpu_s": 1.0, "peak_rss_mb": 10.0}
    monkeypatch.setattr(bench, "run_process", lambda argv, timeout: {**fake, "stdout": good})
    run = bench.Run()
    run.run_pass(jobs)
    assert (run.attempted, run.failures) == (1, [])
    monkeypatch.setattr(bench, "run_process",
                        lambda argv, timeout: {**fake, "stdout": good.replace(b"11", b"12")})
    run.run_pass(jobs)
    assert run.attempted == 2 and len(run.failures) == 1


def test_traced_output_that_differs_counts_as_failed(monkeypatch, tmp_path):
    jobs = [{"id": "e", "kind": "cli", "args": [], "check": "eulerian",
             "params": {"n": 4, "r": 1}}]
    good = _eulerian_text(4, 1)

    def fake_process(argv, timeout):
        traced = argv[1].endswith("trace_entry.py")
        if traced:
            Path(argv[2]).write_text('{"names": [], "spans": []}')
        return {"exit_code": 0, "timed_out": False, "stderr": b"", "wall_s": 1.0,
                "cpu_s": 1.0, "peak_rss_mb": 10.0,
                "stdout": good + (b"\n" if traced else b"")}

    monkeypatch.setattr(bench, "run_process", fake_process)
    run = bench.Run()
    bench.traced_pass(run, jobs, tmp_path)
    assert run.attempted == 2
    assert run.failures == ["traced e: stdout differs from the untraced run"]


def test_timeout_kills_and_reports():
    r = bench.run_process([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    assert r["timed_out"] and r["exit_code"] != 0 and r["wall_s"] < 10


def test_traced_job_prints_the_same_bytes(tmp_path):
    job = {"id": "e", "kind": "cli", "args": ["eulerian", "--n", "4", "--r", "2"]}
    plain = bench.run_process(bench.job_argv(job), 60)
    spans_file = tmp_path / "spans.json"
    traced = bench.run_process(bench.job_argv(job, spans_file), 60)
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert plain["stdout"] == traced["stdout"]
    doc = json.loads(spans_file.read_text())
    names = {doc["names"][s[0]] for s in doc["spans"]}
    assert {"cli.main", "stirling.eulerian_polynomial"} <= names
    metrics = bench.layer_metrics([doc])
    assert metrics["stirling.words"] == oracles.word_count(4, 2)
    assert metrics["stirling.calls"] == 1


def test_words_count_only_enumerations():
    tracer = trace_entry.Tracer("j")
    cached = tracer._words_before("stirling.stirling_symfunc")
    again = tracer._words_before("stirling.eulerian_polynomial")
    brute = tracer._words_before("stirling.eulerian_brute_force")
    assert cached((4, 2), {}) == oracles.word_count(4, 2)
    assert cached((4, 2), {"kind": "TN"}) == again((), {"n": 4, "r": 2}) == 0
    assert cached((3, 2), {}) == oracles.word_count(3, 2)
    assert brute((4, 2), {}) == brute((4, 2), {}) == oracles.word_count(4, 2)


def test_layer_metrics_subtracts_children():
    doc = {"names": ["cli.main", "symfunc.convert", "series.TruncatedSeries.mul"],
           "spans": [[0, 0.0, 10.0, -1, "j", None],
                     [1, 1.0, 4.0, 0, "j", [3, True, 5]],
                     [2, 5.0, 6.0, 0, "j", 8],
                     [1, 7.0, 8.0, 0, "j", [2, False, 2]]]}
    m = bench.layer_metrics([doc])
    assert m["cli.self_s"] == 5.0
    assert m["symfunc.self_s"] == m["symfunc.convert.self_s"] == 4.0
    assert m["symfunc.convert.cold_s"] == 3.0 and m["symfunc.convert.cold_calls"] == 1
    assert m["symfunc.convert.terms_out"] == 7 and m["symfunc.convert.max_degree"] == 3
    assert m["series.mul.calls"] == 1 and m["series.max_order"] == 8


def test_workloads_are_seeded():
    for w in WORKLOADS:
        assert jobs_for(w, 3) == jobs_for(w, 3)
    a, b = jobs_for("algebra", 1), jobs_for("algebra", 2)
    assert sorted(j["id"] for j in a) == sorted(j["id"] for j in b)
    assert [j["params"] for j in a] != [j["params"] for j in b]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tally",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
