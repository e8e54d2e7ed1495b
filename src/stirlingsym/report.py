"""Verification reports: identity checks are data, not log output.

A check states its identity as a lazy stream of ``(location, lhs, rhs)``
cases and hands it to :func:`first_mismatch`, which stops at the first pair
whose sides differ and pinpoints the differing term; :func:`series_report`
is the same for the coefficients of two truncated series.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one named identity check.

    ``params`` records the sizes/orders actually checked.  A failing report
    always carries a ``discrepancy`` dict with keys ``location``, ``lhs`` and
    ``rhs`` pinpointing the first offending coefficient.  ``details`` holds
    optional human-readable notes (e.g. which sign rule matched).
    """

    identity: str
    params: dict
    passed: bool
    discrepancy: dict | None = None
    details: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.passed and not self.discrepancy:
            raise ValueError("a failing report must pinpoint a discrepancy")

    def to_json(self) -> dict:
        out = {"identity": self.identity}
        out.update(self.params)
        out["pass"] = self.passed
        out["discrepancy"] = self.discrepancy
        if self.details:
            out["details"] = list(self.details)
        return out

    def render(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"{self.identity} [{params}]: {'pass' if self.passed else 'FAIL'}"
        lines = [head]
        if self.discrepancy:
            d = self.discrepancy
            lines.append(f"  first discrepancy at {d['location']}:")
            lines.append(f"    lhs = {d['lhs']}")
            lines.append(f"    rhs = {d['rhs']}")
        for note in self.details:
            lines.append(f"  {note}")
        return "\n".join(lines)


def first_mismatch(identity: str, params: dict, cases,
                   details=()) -> VerificationReport:
    """Report the first of the ``(location, lhs, rhs)`` cases with lhs != rhs.

    ``cases`` is consumed lazily, so no work is done past the first mismatch.
    The discrepancy drills into the pair: for symmetric functions it names
    the first differing monomial term and the two rational values, for
    t-polynomials the first differing power of t.  ``details`` are the notes
    of the passing report.
    """
    for location, lhs, rhs in cases:
        if lhs != rhs:
            where, va, vb = _first_difference(lhs, rhs)
            spot = location if where is None else f"{location}, {where}"
            return VerificationReport(
                identity, params, False, {"location": spot, "lhs": va, "rhs": vb}
            )
    return VerificationReport(identity, params, True, details=list(details))


def coefficient_pairs(lhs, rhs):
    """The cases ``("y^n", lhs_n, rhs_n)`` of two truncated series."""
    return ((f"y^{n}", lhs.coeffs[n], rhs.coeffs[n]) for n in range(lhs.order + 1))


def series_report(identity: str, params: dict, lhs, rhs) -> VerificationReport:
    """Compare two truncated series coefficientwise into a report."""
    return first_mismatch(identity, params, coefficient_pairs(lhs, rhs))


def _first_difference(a, b):
    """(location, lhs, rhs) of the first differing term of two coefficients.

    Two symmetric functions are compared in their common basis, and in the
    m basis when their bases differ.
    """
    from .partitions import rational_str
    from .symfunc import SymFunc, TPoly, convert, _term_order_key

    if isinstance(a, SymFunc) and isinstance(b, SymFunc):
        if a.basis != b.basis:
            a, b = convert(a, "m"), convert(b, "m")
        for lam in sorted(set(a.terms) | set(b.terms), key=_term_order_key):
            x, y = a.terms.get(lam, 0), b.terms.get(lam, 0)
            if x != y:
                body = ",".join(str(p) for p in lam)
                return f"{a.basis}({body})", rational_str(x), rational_str(y)
    if isinstance(a, TPoly) and isinstance(b, TPoly):
        for e in sorted(set(a.coeffs) | set(b.coeffs)):
            x, y = a.coeffs.get(e, 0), b.coeffs.get(e, 0)
            if x != y:
                return f"t^{e}", rational_str(x), rational_str(y)
    return None, str(a), str(b)
