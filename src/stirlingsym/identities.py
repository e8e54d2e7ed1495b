"""Machine-runnable verification of every identity the package implements.

Each ``check_*`` function returns a :class:`VerificationReport`; the CLI
``verify`` verb and the acceptance tests consume these reports.  All checks
are deterministic (random inputs are drawn from fixed seeds) and exact.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .partitions import (
    Partition,
    binomial,
    compositions_of,
    sort_to_partition,
    trim,
    weak_compositions,
)
from .report import VerificationReport, coefficient_pairs, first_mismatch, series_report
from .series import QQ, QT, SymFuncRing, TruncatedSeries, symfunc_egf
from .stirling import (
    check_type_sum_limit,
    check_typing_budget,
    check_word_budget,
    enumerate_stirling,
    eulerian_brute_force,
    eulerian_polynomial,
    stirling_symfunc,
    type_of,
)
from .symfunc import (
    DEFAULT_DEGREE_CAP,
    SymFunc,
    TPoly,
    _check_cap,
    basis_element,
    convert,
    evaluate_h,
    specialize_E,
)
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

    def cases():
        for k in range(8):
            found = noncrossing_partitions(k)
            catalan = binomial(2 * k, k) // (k + 1)
            yield f"|NC_{k}|", len(found), catalan
            yield f"|NC_{k}| noncrossing", sum(map(is_noncrossing, found)), catalan
        ring = SymFuncRing(basis="h")
        coeffs = [SymFunc.zero("h")] + [
            convert(noncrossing_e_sum(n - 1), "h") for n in range(1, order + 1)
        ]
        rhs = TruncatedSeries.from_coefficients(ring, "ogf", order, coeffs)
        yield from coefficient_pairs(_shifted_h_ogf(order).comp_inverse(), rhs)

    details = ["noncrossing counts match Catalan numbers up to C_7"]
    return first_mismatch("prop12", {"order": order}, cases(), details)


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


_COMMUTES = "t-specialization commutes coefficientwise"


def _riordan_denominator(order: int) -> TruncatedSeries:
    """1 - t G, the denominator of (1-t) / (1 - t exp((1-t)y)) over 1-t.

    Dividing numerator and denominator by 1-t gives 1/(1 - t G) where
    G = sum_{n>=1} (1-t)^(n-1) y^n / n!, whose inversion stays inside Q[t].
    """
    g = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly()] + [(ONE - T) ** (n - 1) for n in range(1, order + 1)]
    )
    return TruncatedSeries.one(QT, "egf", order) - g.scale(T)


def check_riordan(order: int = 8) -> VerificationReport:
    """First-order descent polynomials via the classical closed form.

    Also verifies that the t-specialization commutes with the underlying
    symmetric-function identity on both sides.
    """
    check_type_sum_limit(order)
    denominator = _riordan_denominator(order)
    ref = TruncatedSeries.from_egf_coefficients(
        QT, order, [eulerian_polynomial(n, 1) for n in range(order + 1)]
    )

    def cases():
        yield from coefficient_pairs(denominator.inv(), ref)
        # specialization commutes: E of each symmetric-function coefficient
        for n in range(order + 1):
            lhs_n = specialize_E((-1) ** n * _h(n))
            yield f"specialized lhs y^{n}", lhs_n, denominator.egf_coefficient(n)
            type_sum_n = specialize_E(stirling_symfunc(n, 1))
            yield f"E at y^{n}", type_sum_n, ref.egf_coefficient(n)

    return first_mismatch("riordan", {"order": order}, cases(), [_COMMUTES])


def check_thm17(order: int = 8) -> VerificationReport:
    """Second-order descent polynomials via the compositional closed form.

    The closed form ((1-t)y + (1-exp(y(1-t)))t) / (1-t)^2 has y-coefficients
    that are genuine polynomials in t: the constant term vanishes, the linear
    term is 1 and the y^n/n! coefficient for n >= 2 is -t(1-t)^(n-2).
    """
    check_type_sum_limit(order - 1)
    closed = TruncatedSeries.from_egf_coefficients(
        QT,
        order,
        [TPoly(), ONE] + [-T * (ONE - T) ** (n - 2) for n in range(2, order + 1)],
    )
    ref = TruncatedSeries.from_egf_coefficients(
        QT,
        order,
        [TPoly()] + [eulerian_polynomial(n - 1, 2) for n in range(1, order + 1)],
    )

    def cases():
        yield from coefficient_pairs(closed.comp_inverse(), ref)
        for n in range(order + 1):
            coeff = SymFunc.zero("h") if n == 0 else (-1) ** (n - 1) * _h(n - 1)
            lhs_n = specialize_E(coeff)
            yield f"specialized lhs y^{n}", lhs_n, closed.egf_coefficient(n)
            if n >= 1:
                type_sum_n = specialize_E(stirling_symfunc(n - 1, 2))
                yield f"E at y^{n}", type_sum_n, ref.egf_coefficient(n)

    return first_mismatch("thm17", {"order": order}, cases(), [_COMMUTES])


def check_eulerian_oracle(n: int = 6) -> VerificationReport:
    """Descent polynomials agree with a descent tally over every word."""
    check_word_budget(n, 2)
    cases = (
        (f"(n={k}, r={r})", eulerian_polynomial(k, r), eulerian_brute_force(k, r))
        for r in (1, 2)
        for k in range(n + 1)
    )
    return first_mismatch("eulerian_oracle", {"n": n}, cases)


# ---------------------------------------------------------------------------
# h-to-e expansion and the t-specialization lemma
# ---------------------------------------------------------------------------


def _signed_composition_sum(k: int) -> SymFunc:
    """Sum of (-1)^(k - l(nu)) e_nu over the compositions nu of k."""
    if k == 0:
        return SymFunc.one("e")
    terms: dict[Partition, Fraction] = {}
    for nu in compositions_of(k):
        lam = sort_to_partition(nu)
        terms[lam] = terms.get(lam, Fraction(0)) + (-1) ** (k + len(lam))
    return SymFunc("e", terms)


def check_htoe(n: int = 8) -> VerificationReport:
    """h_k equals the signed sum of e over compositions, for k = 0..n."""
    # convert(h_n, "e") would refuse n only after building the matrices of
    # every smaller degree
    _check_cap(n, DEFAULT_DEGREE_CAP)
    cases = (
        (f"h_{k}", convert(_h(k), "e"), _signed_composition_sum(k))
        for k in range(n + 1)
    )
    return first_mismatch("htoe", {"n": n}, cases)


def check_lemma52(n: int = 8) -> VerificationReport:
    """E(h_k) = t (t-1)^(k-1) for k = 1..n."""
    cases = (
        (f"h_{k}", specialize_E(_h(k)), T * (T - ONE) ** (k - 1))
        for k in range(1, n + 1)
    )
    return first_mismatch("lemma52", {"n": n}, cases)


# ---------------------------------------------------------------------------
# type equidistribution
# ---------------------------------------------------------------------------


def _tallies(items, fns: dict) -> dict[str, list[tuple[Partition, int]]]:
    """Sorted (value, multiplicity) pairs of each fn over items, in one pass."""
    counts = {label: Counter() for label in fns}
    for item in items:
        for label, fn in fns.items():
            counts[label][fn(item)] += 1
    return {label: sorted(c.items()) for label, c in counts.items()}


def _type_fn(kind: str, j: int = 1):
    return lambda sp: type_of(sp, kind, j)


def _type_multisets(n: int, r: int) -> dict[str, list]:
    fns = {"AA": _type_fn("AA"), "DA": _type_fn("DA")}
    for j in range(1, r):
        fns[f"TN_{j}"] = _type_fn("TN", j)
        fns[f"IN_{j}"] = _type_fn("IN", j)
    return _tallies(enumerate_stirling(n, r), fns)


def check_equidistribution(n: int | None = None, r: int | None = None) -> VerificationReport:
    """The type statistics all have the same distribution over Q(n, r).

    With no arguments runs the default battery: r=1 up to n=6, r=2 up to
    n=6, r=3 up to n=5.  A given size above the word or typing limit of
    :func:`~stirlingsym.stirling.check_typing_budget` is refused up front.
    """
    if (n is None) != (r is None):
        raise ValueError("give both n and r, or neither")
    if n is not None:
        check_typing_budget(n, r)
        sizes = [(n, r)]
        params = {"n": n, "r": r}
    else:
        sizes = [(k, 1) for k in range(7)]
        sizes += [(k, 2) for k in range(7)]
        sizes += [(k, 3) for k in range(6)]
        params = {"cases": "r=1:n<=6, r=2:n<=6, r=3:n<=5"}

    def cases():
        for nn, rr in sizes:
            tallies = _type_multisets(nn, rr)
            for label, tally in tallies.items():
                yield f"Q({nn},{rr}) {label}", tally, tallies["AA"]

    return first_mismatch("equidist", params, cases())


def check_tree_permutation(n: int = 7) -> VerificationReport:
    """Tree types on [k] match permutation types on doubled letters [k-1].

    The Lyn tree-type multiset over normalized trees equals the ascending
    adjacent type multiset over Q(k-1, 2); Comb matches the terminally nested
    types; and the tree count is (2k-3)!!.
    """
    check_word_budget(max(n - 1, 0), 2)

    def cases():
        for k in range(1, n + 1):
            trees = enumerate_normalized(k)
            yield f"|Nor_{k}|", len(trees), prod(range(1, 2 * k - 2, 2))
            tree_types = _tallies(trees, {"lyn": lyndon_type, "comb": comb_type})
            perm_types = _tallies(enumerate_stirling(k - 1, 2),
                                  {"AA": _type_fn("AA"), "TN": _type_fn("TN", 1)})
            yield f"k={k} lyn vs AA", tree_types["lyn"], perm_types["AA"]
            yield f"k={k} comb vs TN", tree_types["comb"], perm_types["TN"]

    return first_mismatch("treeperm", {"n": n}, cases())


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
    cases = (
        (
            f"mu={mu}",
            len(enumerate_colored("lyn", mu)),
            len(enumerate_colored("comb", mu)),
        )
        for mu in _bounded_weak_compositions(weight, weight)
    )
    return first_mismatch("equicard", {"weight": weight}, cases)


def check_forbidden(order: int = 5) -> VerificationReport:
    """Signed EGFs of the forbidden chains equal the alternating h series."""
    # the series below would meet the cap at h_(order-1) only after
    # building the matrices of every smaller degree
    _check_cap(order - 1, DEFAULT_DEGREE_CAP)
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

    def cases():
        for kind in ("lyn", "comb"):
            inv = forbidden_tree_egf(kind, order).comp_inverse()
            for n in range(1, order + 1):
                yield (
                    f"{kind} y^{n}",
                    inv.egf_coefficient(n),
                    colored_generating_function(kind, n),
                )

    return first_mismatch("drake", {"order": order}, cases())


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
        check_type_sum_limit(order)
        values = {i: f[i] / f[0] for i in range(1, order + 1)}
        return [
            (-1) ** n / f[0] * evaluate_h(stirling_symfunc(n, 1), values)
            for n in range(order + 1)
        ]
    if kind == "comp":
        if f[0] != 0 or f[1] == 0:
            raise ValueError("compositional inverse needs f_0 = 0 and f_1 != 0")
        check_type_sum_limit(order - 1)
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
    check_type_sum_limit(order)  # the route of kind "mult" sums types up to order
    rng = random.Random(271828)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def both_routes(kind: str, sem: list[Fraction], label: str):
        series = TruncatedSeries.from_egf_coefficients(QQ, order, sem)
        direct = series.inv() if kind == "mult" else series.comp_inverse()
        got = invert_egf_numeric(kind, sem, order)
        for n in range(order + 1):
            yield f"{label} y^{n}", got[n], direct.egf_coefficient(n)

    def cases():
        # exp(y): inverse is exp(-y)
        expo = [Fraction(1)] * (order + 1)
        yield from both_routes("mult", expo, "exp")
        exp_neg = [Fraction((-1) ** n) for n in range(order + 1)]
        yield "exp(-y)", invert_egf_numeric("mult", expo, order), exp_neg
        # exp(y) - 1: compositional inverse is log(1+y)
        expm1 = [Fraction(0)] + [Fraction(1)] * order
        yield from both_routes("comp", expm1, "expm1")
        log1p = [Fraction(0)] + [
            Fraction((-1) ** (n - 1) * factorial(n - 1)) for n in range(1, order + 1)
        ]
        yield "log(1+y)", invert_egf_numeric("comp", expm1, order), log1p
        for i in range(samples):
            sem = [rand_frac() for _ in range(order + 1)]
            sem[0] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            yield from both_routes("mult", sem, f"mult#{i}")
            sem = [rand_frac() for _ in range(order + 1)]
            sem[0] = Fraction(0)
            sem[1] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            yield from both_routes("comp", sem, f"comp#{i}")

    return first_mismatch("inversion", {"order": order, "samples": samples}, cases())


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
