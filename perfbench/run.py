"""Benchmark of the stirlingsym CLI and library, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload {tally,algebra,verify} --seed N
                           --seconds S --trace {0,1}

Load is a closed loop with one client: each job of the workload runs in a
fresh interpreter, one at a time, so every pass pays the cold caches a CLI
user pays.  A pass runs every job once; passes repeat until the next one
would end after ``--seconds`` (at least one pass runs).

``--trace 0`` reports the end-to-end metrics: the median over passes of
``wall_s``, ``cpu_s``, ``max_job_s`` and ``peak_rss_mb``, and ``setup_s``,
the median time of several fresh interpreters from start to a ready CLI
parser, measured first and counted within ``--seconds``.  ``--trace 1``
runs each pass twice, untraced and then through ``trace_entry.py``, checks
that every traced job prints exactly the bytes its untraced twin printed,
and reports the per-layer metrics from the spans.

Every job's output is checked by ``oracles.py``; a job that exits nonzero,
times out or prints a wrong answer counts as failed.  The last line of
stdout is the JSON result; the line before it holds the full record
(machine, commit, jobs, every metric's samples and quartiles).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import check_job  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

JOB_TIMEOUT_S = 60.0    # a job running longer is killed and counts as failed
RUN_LIMIT_S = 160.0     # no job may run past this point of the whole run
SETUP_SAMPLES = 40
SETUP_CODE = "import stirlingsym.cli as cli; cli.build_parser()"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "max_job_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

CHECKS = ["prop11", "prop12", "thm13", "thm14", "riordan", "thm17",
          "eulerian_oracle", "htoe", "lemma52", "equidist", "treeperm", "equicard",
          "forbidden", "drake", "inversion", "thm62", "thm64", "thm65"]
PER_LAYER = {
    "stirling.self_s": "s", "stirling.calls": "count",
    "stirling.stirling_symfunc.self_s": "s", "stirling.eulerian_polynomial.self_s": "s",
    "stirling.enumerate_stirling.self_s": "s", "stirling.eulerian_brute_force.self_s": "s",
    "stirling.words": "count", "stirling.words_per_s": "words/s",
    "symfunc.self_s": "s", "symfunc.convert.self_s": "s", "symfunc.convert.calls": "count",
    "symfunc.convert.max_degree": "count", "symfunc.convert.terms_out": "count",
    "symfunc.convert.cold_s": "s", "symfunc.convert.cold_calls": "count",
    "symfunc.multiply.self_s": "s", "symfunc.multiply.calls": "count",
    "symfunc.specialize_E.self_s": "s", "symfunc.evaluate_h.self_s": "s",
    "series.self_s": "s", "series.inv.self_s": "s", "series.comp_inverse.self_s": "s",
    "series.comp_inverse.calls": "count", "series.compose.calls": "count",
    "series.mul.calls": "count", "series.max_order": "count",
    "trees.self_s": "s", "trees.enumerate_normalized.self_s": "s",
    "trees.colored_generating_function.self_s": "s",
    "trees.enumerate_colored.self_s": "s", "trees.trees": "count",
    "posets.self_s": "s", "posets.interval.self_s": "s",
    "posets.mobius_invariant.self_s": "s", "posets.interval_elements": "count",
    "moduli.self_s": "s", "report.self_s": "s",
    "identities.self_s": "s", "identities.invert_egf_numeric.self_s": "s",
    **{f"identities.{name}.s": "s" for name in CHECKS},
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}
LAYERS = ["stirling", "symfunc", "series", "trees", "posets", "moduli", "report",
          "identities", "cli"]


# -- processes --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], timeout: float) -> dict:
    """Run one process to completion; killed after ``timeout`` seconds.

    CPU time and peak RSS come from the kernel's rusage of waited-for
    children.  Jobs run one at a time, so the CPU time is the difference
    around this call; ``ru_maxrss`` is the largest peak RSS of any child of
    this run so far.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=timeout)
        code, out, err, timed_out = proc.returncode, proc.stdout, proc.stderr, False
    except subprocess.TimeoutExpired as exc:
        code, out, err, timed_out = -signal.SIGKILL, exc.stdout or b"", exc.stderr or b"", True
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "exit_code": code,
        "timed_out": timed_out,
        "stdout": out,
        "stderr": err,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
    }


def job_argv(job: dict, spans_file: Path | None = None) -> list[str]:
    if spans_file is not None:
        return [sys.executable, str(HERE / "trace_entry.py"), str(spans_file),
                job["id"], job["kind"], *job["args"]]
    if job["kind"] == "cli":
        return [sys.executable, "-m", "stirlingsym.cli", *job["args"]]
    return [sys.executable, str(HERE / "series_job.py"), *job["args"]]


class Run:
    """Bookkeeping of one benchmark run: deadline, attempts and failures."""

    def __init__(self):
        self.start = perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def timeout(self) -> float:
        return max(1.0, min(JOB_TIMEOUT_S, self.start + RUN_LIMIT_S - perf_counter()))

    def time_left(self) -> float:
        return self.start + RUN_LIMIT_S - perf_counter()

    def run_pass(self, jobs: list[dict], spans_dir: Path | None = None,
                 twin: dict | None = None) -> dict:
        """Run every job once, then check every output.  A traced pass
        writes spans to ``spans_dir``, and each job must print the same
        bytes as in ``twin``, the untraced pass."""
        results = {}
        start = perf_counter()
        for job in jobs:
            spans = None if spans_dir is None else spans_dir / f"{job['id']}.json"
            results[job["id"]] = run_process(job_argv(job, spans), self.timeout())
        wall = perf_counter() - start
        outputs = {jid: r["stdout"] for jid, r in results.items()}
        for job in jobs:
            self.attempted += 1
            result = results[job["id"]]
            reason = check_job(job, result, outputs)
            if twin is not None and not reason:
                if result["stdout"] != twin["jobs"][job["id"]]["stdout"]:
                    reason = "stdout differs from the untraced run"
                elif not (spans_dir / f"{job['id']}.json").is_file():
                    reason = "no spans written"
            if reason:
                tag = "traced " if twin is not None else ""
                err = result["stderr"].decode(errors="replace").strip()
                tail = f" ({err.splitlines()[-1]})" if err else ""
                self.failures.append(f"{tag}{job['id']}: {reason}{tail}")
        return {"wall_s": wall, "jobs": results}


# -- metrics -----------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


def pass_metrics(p: dict) -> dict:
    jobs = p["jobs"].values()
    return {
        "wall_s": p["wall_s"],
        "cpu_s": sum(j["cpu_s"] for j in jobs),
        "max_job_s": max(j["wall_s"] for j in jobs),
        "peak_rss_mb": max(j["peak_rss_mb"] for j in jobs),
    }


def repeat(step, seconds: float, run: Run) -> list:
    """Call ``step`` at least once, and again while the next call, taking
    as long as the longest so far, would end within ``seconds``."""
    start = perf_counter()
    out = []
    longest = 0.0
    while True:
        t0 = perf_counter()
        out.append(step())
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds or longest > run.time_left():
            return out


def measure_setup(run: Run) -> list[float]:
    """Fresh interpreter to a ready CLI parser, several times; the first,
    unmeasured start also writes the bytecode caches."""
    argv = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        r = run_process(argv, run.timeout())
        run.attempted += 1
        if r["exit_code"] != 0:
            run.failures.append(f"setup: exit code {r['exit_code']}")
        elif i:
            samples.append(r["wall_s"])
    return samples


def layer_metrics(span_docs: list[dict]) -> dict:
    """Per-layer self time, calls and work counts from the spans of one pass.

    A span's layer is the module that defines the wrapped function; its self
    time is its duration minus the durations of its direct children.
    """
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    for doc in span_docs:
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for name_i, t0, t1, parent, _job, _extra in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name_i, t0, t1, parent, _job, extra) in enumerate(spans):
            name = names[name_i]
            layer, func = name.split(".")[0], name.split(".")[-1]
            dur = t1 - t0
            own = dur - child[i]
            add(f"{layer}.self_s", own)
            add(f"{layer}.calls", 1)
            if ".check." in name:
                add(f"identities.{func}.s", dur)
            else:
                add(f"{layer}.{func}.self_s", own)
                add(f"{layer}.{func}.calls", 1)
            if layer == "stirling" and (
                    parent < 0 or not names[spans[parent][0]].startswith("stirling.")):
                add("stirling.words", extra)
            elif name == "symfunc.convert":
                degree, cold, terms_out = extra
                acc["symfunc.convert.max_degree"] = max(
                    acc.get("symfunc.convert.max_degree", 0), degree)
                add("symfunc.convert.terms_out", terms_out)
                if cold:
                    add("symfunc.convert.cold_calls", 1)
                    add("symfunc.convert.cold_s", own)
            elif layer == "series" and extra is not None:
                acc["series.max_order"] = max(acc.get("series.max_order", 0), extra)
            elif name == "trees.enumerate_normalized":
                add("trees.trees", extra)
            elif name == "posets.interval":
                add("posets.interval_elements", extra)
    words, busy = acc.get("stirling.words", 0), acc.get("stirling.self_s", 0)
    acc["stirling.words_per_s"] = words / busy if busy else 0.0
    return acc


def traced_pass(run: Run, jobs: list[dict], work: Path) -> dict:
    """One untraced and one traced pass; per-layer metrics and shares."""
    plain = run.run_pass(jobs)
    spans_dir = Path(tempfile.mkdtemp(dir=work))
    traced = run.run_pass(jobs, spans_dir, twin=plain)
    docs = [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(spans_dir.glob("*.json"))]
    shutil.rmtree(spans_dir)
    acc = layer_metrics(docs)
    acc["cli.stdout_bytes"] = sum(len(traced["jobs"][j["id"]]["stdout"])
                                  for j in jobs if j["kind"] == "cli")
    acc["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: acc.get(name, 0) for name in PER_LAYER}
    shares = {layer: acc.get(f"{layer}.self_s", 0) / traced["wall_s"] for layer in LAYERS}
    return {"metrics": metrics, "shares": shares}


# -- record ------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "memory_gb": round(memory / 2**30, 2),
            "platform": platform.platform()}


def commit() -> dict:
    """Commit and dirty flag; null outside a git work tree."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"commit": None, "dirty": None}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=ROOT, capture_output=True, text=True)
    if head.returncode or status.returncode:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def preflight() -> str | None:
    """Why this directory cannot be benchmarked, or None.  Without the
    program's source there is nothing to measure, so the run stops before
    it prints a result."""
    if not (ROOT / "src" / "stirlingsym" / "cli.py").is_file():
        return "no src/stirlingsym: run from a checkout of the repository"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    run = Run()
    jobs = jobs_for(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), **commit(),
              "load": "closed loop, one client, one fresh interpreter per job",
              "jobs": [{"id": j["id"], "kind": j["kind"], "args": j["args"]}
                       for j in jobs]}
    samples: dict[str, list[float]] = {}
    if args.trace:
        work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            pairs = repeat(lambda: traced_pass(run, jobs, work), args.seconds, run)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for name in PER_LAYER:
            samples[name] = [p["metrics"][name] for p in pairs]
        record["shares_of_traced_wall_s"] = {
            layer: statistics.median(p["shares"][layer] for p in pairs)
            for layer in LAYERS}
        units = PER_LAYER
    else:
        setup_start = perf_counter()
        samples["setup_s"] = measure_setup(run)
        passes = repeat(lambda: run.run_pass(jobs),
                        args.seconds - (perf_counter() - setup_start), run)
        for metrics in map(pass_metrics, passes):
            for name, value in metrics.items():
                samples.setdefault(name, []).append(value)
        record["job_wall_s"] = {
            job["id"]: summary([p["jobs"][job["id"]]["wall_s"] for p in passes])
            for job in jobs}
        units = END_TO_END

    failed = len(run.failures)
    record["attempted"] = run.attempted
    record["failed"] = failed
    record["error_rate"] = {"value": failed / run.attempted, "base": "job and setup runs attempted"}
    record["failures"] = run.failures
    record["metrics"] = {name: {"unit": units[name], **summary(samples[name])}
                         for name in units if samples.get(name)}
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['median']!r} {m['unit']} "
              f"(median of {m['n']}, quartiles {m['q1']!r} .. {m['q3']!r})")
    print(f"error_rate = {failed}/{run.attempted} job and setup runs")
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
