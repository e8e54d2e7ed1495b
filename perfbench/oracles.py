"""Output oracles: each judges one job's stdout without trusting the program.

``check_job(job, result, outputs)`` returns ``None`` when the job's output is
right and a one-line reason otherwise.  ``outputs`` maps job id to stdout of
the same pass, for checks that compare two jobs.  Every oracle here is
computed by the benchmark itself; only the golden tables and the digests in
``digests.json`` are recorded data.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
DIGESTS = HERE / "digests.json"

_E_TERM = re.compile(r"^(-?)(?:(\d+(?:/\d+)?)\*)?e\(([\d,]+)\)$")
_T_TERM = re.compile(r"^(-?)(?:(\d+(?:/\d+)?)|(?:(\d+(?:/\d+)?)\*)?t(?:\^(\d+))?)$")


def word_count(n: int, r: int) -> int:
    """|Q(n, r)| = prod_{k=1..n} ((k-1)r + 1)."""
    return prod((k - 1) * r + 1 for k in range(1, n + 1))


def descent_triangle(n: int, r: int) -> list[int]:
    """Row n of C(n, d) = d C(n-1, d) + ((n-1)r + 2 - d) C(n-1, d-1), C(0,0)=1.

    C(n, d) counts the words of Q(n, r) with d descents, the final position
    counting as a descent (Gessel & Stanley, "Stirling polynomials", 1978).
    """
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [d * prev[d] + (((m - 1) * r + 2 - d) * prev[d - 1] if d else 0)
               for d in range(m + 1)]
    return row


def _terms(text: str) -> list[str]:
    """Split a rendered sum ``a + b - c`` into signed, space-free terms."""
    if not text.strip():
        raise ValueError("empty expression")
    return [t.replace(" ", "").removeprefix("+")
            for t in re.split(r" (?=[+-] )", text.strip())]


def parse_e_sum(text: str) -> dict[tuple[int, ...], Fraction]:
    """Parse ``render_symfunc`` text of an e-basis element."""
    out = {}
    for term in _terms(text):
        m = _E_TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse e-term {term!r}")
        lam = tuple(int(p) for p in m.group(3).split(","))
        if lam in out:
            raise ValueError(f"repeated term e{lam}")
        out[lam] = Fraction(m.group(2) or 1) * (-1 if m.group(1) else 1)
    return out


def parse_tpoly(text: str) -> dict[int, Fraction]:
    """Parse ``TPoly`` text such as ``1 + t - 240*t^2``."""
    out = {}
    for term in _terms(text):
        m = _T_TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse t-term {term!r}")
        if m.group(2) is not None:
            e, c = 0, Fraction(m.group(2))
        else:
            e, c = int(m.group(4) or 1), Fraction(m.group(3) or 1)
        if e in out:
            raise ValueError(f"repeated power t^{e}")
        out[e] = -c if m.group(1) else c
    return out


# -- per-job oracles ------------------------------------------------------------


def _eulerian(job, out, outputs):
    n, r = job["params"]["n"], job["params"]["r"]
    poly = parse_tpoly(out.decode())
    row = descent_triangle(n, r)
    want = {d: Fraction(c) for d, c in enumerate(row) if c}
    if sum(poly.values()) != word_count(n, r):
        return f"coefficients sum to {sum(poly.values())}, not |Q({n},{r})|"
    if poly != want:
        return "descent polynomial differs from the descent-slot triangle"
    return None


def _expand_e(job, out, outputs):
    n, r = job["params"]["n"], job["params"]["r"]
    terms = parse_e_sum(out.decode())
    if any(sum(lam) != n for lam in terms):
        return f"a term is not of degree {n}"
    if sum(terms.values()) != word_count(n, r):
        return f"e-coefficients sum to {sum(terms.values())}, not |Q({n},{r})|"
    other = job["params"].get("same_as")
    if other is not None and outputs.get(other) != out:
        return f"output is not byte-equal to {other}"
    return None


def _tables(job, out, outputs):
    golden = b"".join((GOLDEN / f"expansions_r{r}.txt").read_bytes() for r in (1, 2))
    return None if out == golden else "tables differ from tests/golden"


def egf_inverse(semantic: list[Fraction]) -> list[Fraction]:
    """Multiplicative inverse of an EGF by the triangular Cauchy recurrence."""
    a = [c / factorial(n) for n, c in enumerate(semantic)]
    b = [1 / a[0]]
    for n in range(1, len(a)):
        b.append(-sum(a[k] * b[n - k] for k in range(1, n + 1)) / a[0])
    return [c * factorial(n) for n, c in enumerate(b)]


def _compose_is_identity(outer: list[Fraction], inner: list[Fraction]) -> bool:
    """outer(inner(y)) == y up to the common order, on EGF semantics."""
    order = len(outer) - 1
    f = [c / factorial(n) for n, c in enumerate(outer)]
    g = [c / factorial(n) for n, c in enumerate(inner)]
    total = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    total[0] = f[0]
    for k in range(1, order + 1):
        power = [sum(power[i] * g[n - i] for i in range(n + 1)) for n in range(order + 1)]
        for n in range(order + 1):
            total[n] += f[k] * power[n]
    return total == [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)


def _rationals(text: str) -> list[Fraction]:
    return [Fraction(x) for x in text.split(",")]


def _invert_mult(job, out, outputs):
    want = egf_inverse(_rationals(job["params"]["coeffs"]))
    lines = out.decode().splitlines()
    got = []
    for n, line in enumerate(lines):
        head, _, value = line.partition(": ")
        if head != str(n):
            return f"line {n} is not 'n: value'"
        got.append(Fraction(value))
    return None if got == want else "inverse differs from the triangular inverse"


def _series(job, out, outputs):
    p = job["params"]
    results = {}
    for line in out.decode().splitlines():
        item = json.loads(line)
        results[item["name"]] = item["coeffs"]
    if sorted(results) != ["qq_comp", "qq_inv", "riordan", "thm17"]:
        return f"unexpected series results {sorted(results)}"

    def tpolys(coeffs):
        return [{int(e): Fraction(c) for e, c in poly} for poly in coeffs]

    thm17 = tpolys(results["thm17"])
    if len(thm17) != p["thm17_order"] + 1 or thm17[0]:
        return "thm17: wrong order or nonzero constant term"
    for n in range(1, len(thm17)):
        row = descent_triangle(n - 1, 2)
        if thm17[n] != {d: Fraction(c) for d, c in enumerate(row) if c}:
            return f"thm17: y^{n}/{n}! is not row {n - 1} of the r=2 triangle"
    riordan = tpolys(results["riordan"])
    if len(riordan) != p["riordan_order"] + 1:
        return "riordan: wrong order"
    for n, poly in enumerate(riordan):
        if poly != {d: Fraction(c) for d, c in enumerate(descent_triangle(n, 1)) if c}:
            return f"riordan: y^{n}/{n}! is not row {n} of the Eulerian triangle"
    egf = _rationals(p["egf"])
    inv = [Fraction(c) for c in results["qq_inv"]]
    if inv != egf_inverse(egf):
        return "qq_inv differs from the triangular inverse"
    comp = [Fraction(c) for c in results["qq_comp"]]
    if len(comp) != len(egf) or not _compose_is_identity([Fraction(0)] + egf[1:], comp):
        return "qq_comp composed with the EGF is not y"
    return None


def _verify_pass(job, out, outputs):
    heads = [line for line in out.decode().splitlines()
             if line and not line.startswith(" ")]
    if len(heads) != job["params"]["reports"]:
        return f"{len(heads)} reports, expected {job['params']['reports']}"
    bad = [h for h in heads if not h.endswith(": pass")]
    return f"report does not pass: {bad[0]}" if bad else None


def _mobius_pass(job, out, outputs):
    m = re.fullmatch(r"mobius = (-?\d+), signed type-sum coefficient = (-?\d+): pass\n",
                     out.decode())
    if not m or m.group(1) != m.group(2):
        return "mobius report does not pass"
    return None


def _digest(job, out, outputs):
    want = json.loads(DIGESTS.read_text())[job["id"]]
    got = hashlib.sha256(out).hexdigest()
    return None if got == want else f"sha256 {got[:12]} differs from the recorded output"


ORACLES = {
    "eulerian": _eulerian,
    "expand_e": _expand_e,
    "tables": _tables,
    "invert_mult": _invert_mult,
    "series": _series,
    "verify_pass": _verify_pass,
    "mobius_pass": _mobius_pass,
    "digest": _digest,
}


def check_job(job: dict, result: dict, outputs: dict) -> str | None:
    """None when the job succeeded and its output is right, else why not."""
    if result.get("timed_out"):
        return "timed out"
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}"
    try:
        return ORACLES[job["check"]](job, result["stdout"], outputs)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc}"
