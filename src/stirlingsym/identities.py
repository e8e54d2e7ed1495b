"""Machine-runnable verification of every identity the package implements.

Each ``check_*`` function returns a :class:`VerificationReport`; the CLI
``verify`` verb and the acceptance tests consume these reports.  All checks
are deterministic (random inputs are drawn from fixed seeds) and exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

from .partitions import (
    Partition,
    binomial,
    compositions_of,
    rational_str,
    sort_to_partition,
    trim,
    weak_compositions,
)
from .report import VerificationReport, series_report
from .series import QQ, QT, SymFuncRing, TruncatedSeries, symfunc_egf
from .stirling import (
    enumerate_stirling,
    eulerian_brute_force,
    eulerian_polynomial,
    stirling_symfunc,
    type_of,
)
from .symfunc import SymFunc, TPoly, basis_element, convert, evaluate_h, specialize_E
from .trees import (
    COLORED_MAX_N,
    colored_generating_function,
    comb_type,
    enumerate_colored,
    enumerate_normalized,
    forbidden_tree_egf,
    lyndon_type,
)

T = TPoly.t()
ONE = TPoly.const(1)


def _h(n: int) -> SymFunc:
    return basis_element("h", (n,) if n else ())


def _e(n: int) -> SymFunc:
    return basis_element("e", (n,) if n else ())


def _alternating_h_ogf(order: int) -> TruncatedSeries:
    ring = SymFuncRing(basis="h")
    return TruncatedSeries.from_coefficients(
        ring, "ogf", order, [(-1) ** n * _h(n) for n in range(order + 1)]
    )


def _shifted_h_ogf(order: int) -> TruncatedSeries:
    ring = SymFuncRing(basis="h")
    coeffs = [SymFunc.zero("h")] + [
        (-1) ** (n - 1) * _h(n - 1) for n in range(1, order + 1)
    ]
    return TruncatedSeries.from_coefficients(ring, "ogf", order, coeffs)


# ---------------------------------------------------------------------------
# noncrossing partitions
# ---------------------------------------------------------------------------


def noncrossing_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All noncrossing set partitions of [n] (Catalan many).

    Built by first-block decomposition: the block containing the minimum
    splits the rest into gaps between its consecutive elements, and no later
    block may straddle a gap boundary.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def build(ground: tuple[int, ...]):
        if not ground:
            yield ()
            return
        first, rest = ground[0], ground[1:]
        for size in range(len(rest) + 1):
            for others in combinations(rest, size):
                blockfull = (first,) + others
                cuts = [*others, None]
                gaps = []
                start = 0
                for cut in cuts:
                    gap = []
                    while start < len(rest) and (cut is None or rest[start] < cut):
                        if rest[start] not in others:
                            gap.append(rest[start])
                        start += 1
                    gaps.append(tuple(gap))
                pieces = [list(build(gap)) for gap in gaps]

                def assemble(i: int, acc):
                    if i == len(pieces):
                        yield (blockfull,) + acc
                        return
                    for sub in pieces[i]:
                        yield from assemble(i + 1, acc + sub)

                yield from assemble(0, ())

    return [tuple(sorted(p)) for p in build(tuple(range(1, n + 1)))]


def is_noncrossing(blocks) -> bool:
    """Direct crossing test: no i<j<k<l with i,k and j,l in distinct blocks."""
    owner = {}
    for b, block in enumerate(blocks):
        for x in block:
            owner[x] = b
    elems = sorted(owner)
    for i, j, k, l in combinations(elems, 4):
        if owner[i] == owner[k] != owner[j] == owner[l]:
            return False
    return True


def noncrossing_e_sum(n: int) -> SymFunc:
    """Sum of e_(block sizes) over the noncrossing partitions of [n]."""
    tally: dict[Partition, int] = {}
    for blocks in noncrossing_partitions(n):
        lam = sort_to_partition(len(b) for b in blocks)
        tally[lam] = tally.get(lam, 0) + 1
    return SymFunc("e", {lam: Fraction(c) for lam, c in tally.items()})


# ---------------------------------------------------------------------------
# ordinary generating function identities
# ---------------------------------------------------------------------------


def check_prop11(order: int = 6) -> VerificationReport:
    """OGF: the inverse of the alternating h series is the e series."""
    lhs = _alternating_h_ogf(order).inv()
    ring = SymFuncRing(basis="h")
    rhs = TruncatedSeries.from_coefficients(
        ring, "ogf", order, [convert(_e(n), "h") for n in range(order + 1)]
    )
    return series_report("prop11", {"order": order}, lhs, rhs)


def check_prop12(order: int = 6) -> VerificationReport:
    """OGF: the compositional inverse of the shifted alternating h series is
    the series of noncrossing-partition e-sums."""
    catalan = [binomial(2 * k, k) // (k + 1) for k in range(8)]
    for k in range(8):
        found = noncrossing_partitions(k)
        if len(found) != catalan[k] or not all(is_noncrossing(p) for p in found):
            return VerificationReport(
                "prop12",
                {"order": order},
                False,
                {
                    "location": f"|NC_{k}|",
                    "lhs": str(len(found)),
                    "rhs": str(catalan[k]),
                },
            )
    lhs = _shifted_h_ogf(order).comp_inverse()
    ring = SymFuncRing(basis="h")
    coeffs = [SymFunc.zero("h")] + [
        convert(noncrossing_e_sum(n - 1), "h") for n in range(1, order + 1)
    ]
    rhs = TruncatedSeries.from_coefficients(ring, "ogf", order, coeffs)
    report = series_report("prop12", {"order": order}, lhs, rhs)
    report.details.append("noncrossing counts match Catalan numbers up to C_7")
    return report


# ---------------------------------------------------------------------------
# exponential generating function identities
# ---------------------------------------------------------------------------


def check_thm13(order: int = 6) -> VerificationReport:
    """EGF: inverse of the alternating h series = permutation run-type e-sums."""
    lhs = symfunc_egf(order, lambda n: (-1) ** n * _h(n)).inv()
    rhs = symfunc_egf(order, lambda n: stirling_symfunc(n, 1))
    return series_report("thm13", {"order": order}, lhs, rhs)


def check_thm14(order: int = 7) -> VerificationReport:
    """EGF: compositional inverse of the shifted alternating h series equals
    the series of nested-pair-type e-sums (doubled letters)."""
    lhs = symfunc_egf(
        order,
        lambda n: SymFunc.zero("h") if n == 0 else (-1) ** (n - 1) * _h(n - 1),
    ).comp_inverse()
    rhs = symfunc_egf(
        order,
        lambda n: SymFunc.zero("e") if n == 0 else stirling_symfunc(n - 1, 2),
    )
    return series_report("thm14", {"order": order}, lhs, rhs)


# ---------------------------------------------------------------------------
# specializations: descent polynomials
# ---------------------------------------------------------------------------


def _riordan_closed_form(order: int) -> TruncatedSeries:
    """(1-t) / (1 - t exp((1-t)y)) written with a unit constant term.

    Dividing numerator and denominator by 1-t gives 1/(1 - t G) where
    G = sum_{n>=1} (1-t)^(n-1) y^n / n!, whose inversion stays inside Q[t].
    """
    g = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly()] + [(ONE - T) ** (n - 1) for n in range(1, order + 1)]
    )
    one = TruncatedSeries.one(QT, "egf", order)
    return (one - g.scale(T)).inv()


def check_riordan(order: int = 8) -> VerificationReport:
    """First-order descent polynomials via the classical closed form.

    Also verifies that the t-specialization commutes with the underlying
    symmetric-function identity on both sides.
    """
    closed = _riordan_closed_form(order)
    ref = TruncatedSeries.from_egf_coefficients(
        QT, order, [eulerian_polynomial(n, 1) for n in range(order + 1)]
    )
    report = series_report("riordan", {"order": order}, closed, ref)
    if not report.passed:
        return report
    # specialization commutes: E of each symmetric-function coefficient
    lhs_egf = TruncatedSeries.from_egf_coefficients(
        QT, order, [specialize_E((-1) ** n * _h(n)) for n in range(order + 1)]
    )
    one = TruncatedSeries.one(QT, "egf", order)
    g = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly()] + [(ONE - T) ** (n - 1) for n in range(1, order + 1)]
    )
    if lhs_egf != one - g.scale(T):
        return VerificationReport(
            "riordan",
            {"order": order},
            False,
            {"location": "specialized lhs", "lhs": "E(h series)", "rhs": "1 - t*G"},
        )
    for n in range(order + 1):
        a = specialize_E(stirling_symfunc(n, 1))
        b = eulerian_polynomial(n, 1)
        if a != b:
            return VerificationReport(
                "riordan",
                {"order": order},
                False,
                {"location": f"E at y^{n}", "lhs": str(a), "rhs": str(b)},
            )
    report.details.append("t-specialization commutes coefficientwise")
    return report


def check_thm17(order: int = 8) -> VerificationReport:
    """Second-order descent polynomials via the compositional closed form.

    The closed form ((1-t)y + (1-exp(y(1-t)))t) / (1-t)^2 has y-coefficients
    that are genuine polynomials in t: the constant term vanishes, the linear
    term is 1 and the y^n/n! coefficient for n >= 2 is -t(1-t)^(n-2).
    """
    closed = TruncatedSeries.from_egf_coefficients(
        QT,
        order,
        [TPoly(), ONE] + [-T * (ONE - T) ** (n - 2) for n in range(2, order + 1)],
    )
    inv = closed.comp_inverse()
    ref = TruncatedSeries.from_egf_coefficients(
        QT,
        order,
        [TPoly()] + [eulerian_polynomial(n - 1, 2) for n in range(1, order + 1)],
    )
    report = series_report("thm17", {"order": order}, inv, ref)
    if not report.passed:
        return report
    for n in range(order + 1):
        coeff = (
            SymFunc.zero("h") if n == 0 else (-1) ** (n - 1) * _h(n - 1)
        )
        if specialize_E(coeff) != closed.egf_coefficient(n):
            return VerificationReport(
                "thm17",
                {"order": order},
                False,
                {
                    "location": f"specialized lhs y^{n}",
                    "lhs": str(specialize_E(coeff)),
                    "rhs": str(closed.egf_coefficient(n)),
                },
            )
        if n >= 1 and specialize_E(stirling_symfunc(n - 1, 2)) != ref.egf_coefficient(n):
            return VerificationReport(
                "thm17",
                {"order": order},
                False,
                {"location": f"E at y^{n}", "lhs": "E(type sum)", "rhs": "descent tally"},
            )
    report.details.append("t-specialization commutes coefficientwise")
    return report


def check_eulerian_oracle(n: int = 6) -> VerificationReport:
    """Descent polynomials agree with an independent backtracking tally."""
    for r in (1, 2):
        for k in range(n + 1):
            a = eulerian_polynomial(k, r)
            b = eulerian_brute_force(k, r)
            if a != b:
                return VerificationReport(
                    "eulerian_oracle",
                    {"n": n},
                    False,
                    {"location": f"(n={k}, r={r})", "lhs": str(a), "rhs": str(b)},
                )
    return VerificationReport("eulerian_oracle", {"n": n}, True)


# ---------------------------------------------------------------------------
# h-to-e expansion and the t-specialization lemma
# ---------------------------------------------------------------------------


def check_htoe(n: int = 8) -> VerificationReport:
    """h_k equals the signed sum of e over compositions, for k = 0..n."""
    for k in range(n + 1):
        if k == 0:
            rhs = SymFunc.one("e")
        else:
            terms: dict[Partition, Fraction] = {}
            for nu in compositions_of(k):
                lam = sort_to_partition(nu)
                sign = (-1) ** (k + len(lam))
                terms[lam] = terms.get(lam, Fraction(0)) + sign
            rhs = SymFunc("e", terms)
        lhs = convert(_h(k), "e")
        if lhs != rhs:
            return VerificationReport(
                "htoe",
                {"n": n},
                False,
                {"location": f"h_{k}", "lhs": str(lhs), "rhs": str(rhs)},
            )
    return VerificationReport("htoe", {"n": n}, True)


def check_lemma52(n: int = 8) -> VerificationReport:
    """E(h_k) = t (t-1)^(k-1) for k = 1..n."""
    for k in range(1, n + 1):
        lhs = specialize_E(_h(k))
        rhs = T * (T - ONE) ** (k - 1)
        if lhs != rhs:
            return VerificationReport(
                "lemma52",
                {"n": n},
                False,
                {"location": f"h_{k}", "lhs": str(lhs), "rhs": str(rhs)},
            )
    return VerificationReport("lemma52", {"n": n}, True)


# ---------------------------------------------------------------------------
# type equidistribution
# ---------------------------------------------------------------------------


def _type_multisets(n: int, r: int) -> dict[str, dict]:
    perms = enumerate_stirling(n, r)
    kinds: list[tuple[str, str, int]] = [("AA", "AA", 1), ("DA", "DA", 1)]
    for j in range(1, r):
        kinds.append((f"TN_{j}", "TN", j))
        kinds.append((f"IN_{j}", "IN", j))
    out: dict[str, dict] = {}
    for label, kind, j in kinds:
        tally: dict[Partition, int] = {}
        for sp in perms:
            lam = type_of(sp, kind, j)
            tally[lam] = tally.get(lam, 0) + 1
        out[label] = tally
    return out


def check_equidistribution(n: int | None = None, r: int | None = None) -> VerificationReport:
    """The type statistics all have the same distribution over Q(n, r).

    With no arguments runs the default battery: r=1 up to n=6, r=2 up to
    n=6, r=3 up to n=5.
    """
    if (n is None) != (r is None):
        raise ValueError("give both n and r, or neither")
    if n is not None:
        cases = [(n, r)]
        params = {"n": n, "r": r}
    else:
        cases = [(k, 1) for k in range(7)]
        cases += [(k, 2) for k in range(7)]
        cases += [(k, 3) for k in range(6)]
        params = {"cases": "r=1:n<=6, r=2:n<=6, r=3:n<=5"}
    for nn, rr in cases:
        tallies = _type_multisets(nn, rr)
        reference = tallies["AA"]
        for label, tally in tallies.items():
            if tally != reference:
                return VerificationReport(
                    "equidist",
                    params,
                    False,
                    {
                        "location": f"Q({nn},{rr}) {label}",
                        "lhs": str(sorted(tally.items())),
                        "rhs": str(sorted(reference.items())),
                    },
                )
    return VerificationReport("equidist", params, True)


def check_tree_permutation(n: int = 7) -> VerificationReport:
    """Tree types on [k] match permutation types on doubled letters [k-1].

    The Lyn tree-type multiset over normalized trees equals the ascending
    adjacent type multiset over Q(k-1, 2); Comb matches the terminally nested
    types; and the tree count is (2k-3)!!.
    """
    for k in range(1, n + 1):
        trees = enumerate_normalized(k)
        expected = 1
        for odd in range(1, 2 * k - 2, 2):
            expected *= odd
        if len(trees) != expected:
            return VerificationReport(
                "treeperm",
                {"n": n},
                False,
                {"location": f"|Nor_{k}|", "lhs": str(len(trees)), "rhs": str(expected)},
            )
        perms = enumerate_stirling(k - 1, 2)
        pairs = [
            ("lyn vs AA", lyndon_type, lambda sp: type_of(sp, "AA")),
            ("comb vs TN", comb_type, lambda sp: type_of(sp, "TN", 1)),
        ]
        for label, tree_fn, perm_fn in pairs:
            t_tally: dict[Partition, int] = {}
            for t in trees:
                lam = tree_fn(t)
                t_tally[lam] = t_tally.get(lam, 0) + 1
            p_tally: dict[Partition, int] = {}
            for sp in perms:
                lam = perm_fn(sp)
                p_tally[lam] = p_tally.get(lam, 0) + 1
            if t_tally != p_tally:
                return VerificationReport(
                    "treeperm",
                    {"n": n},
                    False,
                    {
                        "location": f"k={k} {label}",
                        "lhs": str(sorted(t_tally.items())),
                        "rhs": str(sorted(p_tally.items())),
                    },
                )
    return VerificationReport("treeperm", {"n": n}, True)


# ---------------------------------------------------------------------------
# colored tree families
# ---------------------------------------------------------------------------


def _bounded_weak_compositions(total_max: int, width: int):
    seen = set()
    for total in range(total_max + 1):
        for k in range(1, width + 1):
            for mu in weak_compositions(total, k):
                seen.add(trim(mu))
    return sorted(seen)


def check_equicardinality(weight: int = 4) -> VerificationReport:
    """|Lyn_mu| = |Comb_mu| for every content mu with |mu|, support <= weight."""
    for mu in _bounded_weak_compositions(weight, weight):
        a = len(enumerate_colored("lyn", mu))
        b = len(enumerate_colored("comb", mu))
        if a != b:
            return VerificationReport(
                "equicard",
                {"weight": weight},
                False,
                {"location": f"mu={mu}", "lhs": str(a), "rhs": str(b)},
            )
    return VerificationReport("equicard", {"weight": weight}, True)


def check_forbidden(order: int = 5) -> VerificationReport:
    """Signed EGFs of the forbidden chains equal the alternating h series."""
    ring = SymFuncRing(basis="m")
    ref = TruncatedSeries.from_egf_coefficients(
        ring,
        order,
        [SymFunc.zero("m")]
        + [convert((-1) ** (n - 1) * _h(n - 1), "m") for n in range(1, order + 1)],
    )
    for kind in ("lyn", "comb"):
        got = forbidden_tree_egf(kind, order)
        report = series_report("forbidden", {"order": order, "kind": kind}, got, ref)
        if not report.passed:
            return report
    return VerificationReport("forbidden", {"order": order}, True)


def check_drake(order: int = 6) -> VerificationReport:
    """Compositional inverse of the forbidden-chain EGF enumerates the
    colored trees, coefficient by coefficient, for both coloring conditions."""
    if order > COLORED_MAX_N:
        raise ValueError(f"order={order} exceeds the colored-tree limit {COLORED_MAX_N}")
    for kind in ("lyn", "comb"):
        inv = forbidden_tree_egf(kind, order).comp_inverse()
        for n in range(1, order + 1):
            lhs = inv.egf_coefficient(n)
            rhs = colored_generating_function(kind, n)
            if lhs != rhs:
                return VerificationReport(
                    "drake",
                    {"order": order},
                    False,
                    {
                        "location": f"{kind} y^{n}",
                        "lhs": str(convert(lhs, "m")),
                        "rhs": str(convert(rhs, "m")),
                    },
                )
    return VerificationReport("drake", {"order": order}, True)


# ---------------------------------------------------------------------------
# generic series inversion through the h-expansions
# ---------------------------------------------------------------------------


def invert_egf_numeric(kind: str, f, order: int) -> list[Fraction]:
    """Coefficients of the inverse EGF via the h-expansion evaluations.

    ``f`` lists the semantic coefficients f_n of y^n/n!.  For kind "mult"
    the n-th semantic output coefficient is (-1)^n f_0^{-1} P_n evaluated at
    h_i = f_i/f_0, where P_n is the permutation-type sum; for kind "comp" it
    is (-1)^(n-1) f_1^{-n} Q_(n-1) evaluated at h_i = f_(i+1)/f_1, with Q
    the doubled-letter analogue.  The type sums stay in the e basis:
    :func:`evaluate_h` derives the images of e_k from the values of h_k, so
    no basis conversion (and no degree cap) is involved.  Must agree with
    the direct triangular inversions.
    """
    f = [Fraction(x) for x in f]
    if len(f) < order + 1:
        raise ValueError("need coefficients up to the requested order")
    if kind == "mult":
        if f[0] == 0:
            raise ValueError("multiplicative inverse needs f_0 != 0")
        values = {i: f[i] / f[0] for i in range(1, order + 1)}
        return [
            (-1) ** n / f[0] * evaluate_h(stirling_symfunc(n, 1), values)
            for n in range(order + 1)
        ]
    if kind == "comp":
        if f[0] != 0 or f[1] == 0:
            raise ValueError("compositional inverse needs f_0 = 0 and f_1 != 0")
        values = {i: f[i + 1] / f[1] for i in range(1, order)}
        out = [Fraction(0)]
        for n in range(1, order + 1):
            out.append(
                (-1) ** (n - 1)
                * f[1] ** (-n)
                * evaluate_h(stirling_symfunc(n - 1, 2), values)
            )
        return out
    raise ValueError("kind must be 'mult' or 'comp'")


def check_inversion(order: int = 6, samples: int = 50) -> VerificationReport:
    """The h-expansion inversion route agrees with direct triangular solves.

    Exercised on the two classical analytic pairs (exp and its reciprocal,
    exp-1 and log(1+y)) and on `samples` random rational EGFs per kind.
    """
    params = {"order": order, "samples": samples}

    def run_case(kind: str, sem: list[Fraction], label: str):
        series = TruncatedSeries.from_egf_coefficients(QQ, order, sem)
        direct = series.inv() if kind == "mult" else series.comp_inverse()
        got = invert_egf_numeric(kind, sem, order)
        for n in range(order + 1):
            if got[n] != direct.egf_coefficient(n):
                return VerificationReport(
                    "inversion",
                    params,
                    False,
                    {
                        "location": f"{label} y^{n}",
                        "lhs": rational_str(got[n]),
                        "rhs": rational_str(direct.egf_coefficient(n)),
                    },
                )
        return None

    # exp(y): inverse is exp(-y)
    expo = [Fraction(1)] * (order + 1)
    bad = run_case("mult", expo, "exp")
    if bad:
        return bad
    got = invert_egf_numeric("mult", expo, order)
    if got != [Fraction((-1) ** n) for n in range(order + 1)]:
        return VerificationReport(
            "inversion",
            params,
            False,
            {"location": "exp(-y)", "lhs": str(got), "rhs": "(-1)^n"},
        )
    # exp(y) - 1: compositional inverse is log(1+y)
    expm1 = [Fraction(0)] + [Fraction(1)] * order
    bad = run_case("comp", expm1, "expm1")
    if bad:
        return bad
    got = invert_egf_numeric("comp", expm1, order)
    want = [Fraction(0)] + [
        Fraction((-1) ** (n - 1) * factorial(n - 1)) for n in range(1, order + 1)
    ]
    if got != want:
        return VerificationReport(
            "inversion",
            params,
            False,
            {"location": "log(1+y)", "lhs": str(got), "rhs": str(want)},
        )
    rng = random.Random(271828)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for i in range(samples):
        sem = [rand_frac() for _ in range(order + 1)]
        sem[0] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        bad = run_case("mult", sem, f"mult#{i}")
        if bad:
            return bad
        sem = [rand_frac() for _ in range(order + 1)]
        sem[0] = Fraction(0)
        sem[1] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        bad = run_case("comp", sem, f"comp#{i}")
        if bad:
            return bad
    return VerificationReport("inversion", params, True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def registry() -> dict:
    """Name -> zero-config check callable, in suite order."""
    from .posets import check_thm62, check_thm64
    from .moduli import check_thm65

    return {
        "prop11": check_prop11,
        "prop12": check_prop12,
        "thm13": check_thm13,
        "thm14": check_thm14,
        "riordan": check_riordan,
        "thm17": check_thm17,
        "eulerian_oracle": check_eulerian_oracle,
        "htoe": check_htoe,
        "lemma52": check_lemma52,
        "equidist": check_equidistribution,
        "treeperm": check_tree_permutation,
        "equicard": check_equicardinality,
        "forbidden": check_forbidden,
        "drake": check_drake,
        "inversion": check_inversion,
        "thm62": check_thm62,
        "thm64": check_thm64,
        "thm65": check_thm65,
    }
