"""Job lists of the three benchmark workloads, drawn from a seed.

A job is one fresh interpreter: either a ``stirlingsym`` CLI call
(``kind == "cli"``) or the benchmark's own series job (``kind == "series"``,
see ``series_job.py``).  ``check`` names the oracle in ``oracles.py`` that
judges the job's output; ``params`` carries what the oracle needs.

The seed draws the ``invert`` coefficients and the rational EGF of the
series job, and the order in which each pass runs its jobs.  Every job's
cost is independent of the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("tally", "algebra", "verify")

# Orders of the series job.  The Q[t] orders match the sizes the workload
# was calibrated at; QQ_ORDER is the order of the seeded rational EGF.
THM17_ORDER = 20
RIORDAN_ORDER = 24
QQ_ORDER = 16
INVERT_TERMS = 9


def _job(job_id, args, check, kind="cli", **params):
    return {"id": job_id, "kind": kind, "args": list(args), "check": check,
            "params": params}


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if q or not nonzero:
            return q


def _draw_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Small bounded rationals; the first two are nonzero so that both the
    multiplicative and the compositional inverse exist."""
    return [_rational(rng, nonzero=i < 2) for i in range(count)]


def _text(values) -> str:
    # passed as --option=value, since a leading minus would read as a flag
    return ",".join(str(q) for q in values)


def _tally_jobs(rng):
    return [
        _job("eulerian-7-2", ["eulerian", "--n", "7", "--r", "2"], "eulerian", n=7, r=2),
        _job("expand-7-2-e", ["expand", "--n", "7", "--r", "2", "--basis", "e"],
             "expand_e", n=7, r=2),
        _job("expand-7-2-e-TN",
             ["expand", "--n", "7", "--r", "2", "--kind", "TN", "--basis", "e"],
             "expand_e", n=7, r=2, same_as="expand-7-2-e"),
        _job("eulerian-9-1", ["eulerian", "--n", "9", "--r", "1"], "eulerian", n=9, r=1),
        _job("expand-6-3-e", ["expand", "--n", "6", "--r", "3", "--basis", "e"],
             "expand_e", n=6, r=3),
        _job("eulerian-6-3", ["eulerian", "--n", "6", "--r", "3"], "eulerian", n=6, r=3),
    ]


def _algebra_jobs(rng):
    coeffs = _draw_rationals(rng, INVERT_TERMS)
    egf = _draw_rationals(rng, QQ_ORDER + 1)
    return [
        _job("verify-prop11-8", ["verify", "--identity", "prop11", "--order", "8"],
             "verify_pass", reports=1),
        _job("invert-mult", ["invert", "--kind", "mult", f"--coeffs={_text(coeffs)}"],
             "invert_mult", coeffs=_text(coeffs)),
        _job("expand-8-1-s", ["expand", "--n", "8", "--r", "1", "--basis", "s"], "digest"),
        _job("tables", ["tables"], "tables"),
        _job("series",
             ["--thm17-order", str(THM17_ORDER), "--riordan-order", str(RIORDAN_ORDER),
              f"--egf={_text(egf)}"],
             "series", kind="series", thm17_order=THM17_ORDER,
             riordan_order=RIORDAN_ORDER, egf=_text(egf)),
    ]


def _verify_jobs(rng):
    return [
        _job("verify-all", ["verify", "--identity", "all"], "verify_pass", reports=18),
        _job("mobius-pi-5", ["mobius", "--poset", "pi", "--n", "5", "--mu", "1,1,1,1",
                             "--verify"], "mobius_pass"),
        _job("trees-7-json", ["enumerate", "--what", "trees", "--n", "7", "--format",
                              "json"], "digest"),
    ]


_BUILDERS = {"tally": _tally_jobs, "algebra": _algebra_jobs, "verify": _verify_jobs}


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for this seed, in the order a pass runs them."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs
