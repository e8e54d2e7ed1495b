"""Machine-runnable verification of every identity the package implements.

Each ``check_*`` function returns a :class:`VerificationReport`; the CLI
``verify`` verb and the acceptance tests consume these reports.  All checks
are deterministic (random inputs are drawn from fixed seeds) and exact.

The paper's inversion identities are one statement for r = 1 and r = 2.
With s = r - 1, the series sum_n (-1)^(n-s) h_(n-s) y^n
(:func:`_h_coefficient`) is inverted multiplicatively for r = 1 and
compositionally for r = 2 (:func:`_invert`).  As an OGF its inverse holds
the e_n (r = 1) and the noncrossing e-sums (r = 2); as an EGF it holds the
type sum F(n-s, r) at y^n/n! (``stirling._type_sum``), and under e_i -> t
the first- or second-order Eulerian polynomial.  ``prop11``/``prop12``,
``thm13``/``thm14``, ``riordan``/``thm17``, ``forbidden`` and
``stirling.invert_egf_numeric`` are all built from these pieces.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .limits import refuse
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
    _FAMILY,
    _type_sum,
    enumerate_stirling,
    eulerian_brute_force,
    eulerian_polynomial,
    invert_egf_numeric,
    type_of,
)
from .symfunc import (
    SymFunc,
    TPoly,
    basis_element,
    convert,
    specialize_E,
)
from .trees import (
    colored_generating_function,
    comb_type,
    enumerate_colored,
    forbidden_tree_egf,
    lyndon_type,
    normalized_trees,
)

T = TPoly.t()
ONE = TPoly.const(1)


def _h(n: int) -> SymFunc:
    return basis_element("h", (n,) if n else ())


def _e(n: int) -> SymFunc:
    return basis_element("e", (n,) if n else ())


def _h_coefficient(r: int, n: int, basis: str = "h") -> SymFunc:
    """(-1)^(n-s) h_(n-s) with s = r - 1, in ``basis``; 0 for n < s."""
    s = r - 1
    if n < s:
        return SymFunc.zero(basis)
    return convert((-1) ** (n - s) * _h(n - s), basis)


def _invert(r: int, series: TruncatedSeries) -> TruncatedSeries:
    """The inversion of family r: multiplicative for r = 1, compositional for 2."""
    return series.inv() if r == 1 else series.comp_inverse()


def _ogf(order: int, fn) -> TruncatedSeries:
    """OGF with coefficients fn(n), read in the power-sum basis; the twin of
    symfunc_egf.  e and h reach p through their closed forms, and products
    in p join partitions, so the series checks build no transition matrix."""
    coeffs = [convert(fn(n), "p") for n in range(order + 1)]
    return TruncatedSeries.from_coefficients(SymFuncRing(basis="p"), "ogf", order, coeffs)


# ---------------------------------------------------------------------------
# noncrossing partitions
# ---------------------------------------------------------------------------


def noncrossing_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All noncrossing set partitions of [n] (Catalan many).

    Recursion on the next block-mate of the minimum: it stands alone, or it
    joins the block of ground[j], and ground[1:j] is partitioned on its own
    inside that arc.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def build(ground: tuple[int, ...]):
        if not ground:
            yield ()
            return
        first = ground[0]
        for rest in build(ground[1:]):
            yield ((first,),) + rest
        for j in range(1, len(ground)):
            for inside in build(ground[1:j]):
                for outside in build(ground[j:]):
                    yield ((first,) + outside[0],) + inside + outside[1:]

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
    refuse("prop11", order)
    lhs = _invert(1, _ogf(order, lambda n: _h_coefficient(1, n)))
    return series_report("prop11", {"order": order}, lhs, _ogf(order, _e))


def check_prop12(order: int = 6) -> VerificationReport:
    """OGF: the compositional inverse of the shifted alternating h series is
    the series of noncrossing-partition e-sums."""
    # convert would meet the cap at h_(order - 1) only after the Catalan
    # counts below and the conversions of every smaller degree
    refuse("prop12", order)

    def cases():
        for k in range(8):
            found = noncrossing_partitions(k)
            catalan = binomial(2 * k, k) // (k + 1)
            yield f"|NC_{k}|", len(found), catalan
            yield f"|NC_{k}| noncrossing", sum(map(is_noncrossing, found)), catalan
        lhs = _invert(2, _ogf(order, lambda n: _h_coefficient(2, n)))
        rhs = _ogf(order, lambda n: noncrossing_e_sum(n - 1) if n else SymFunc.zero("e"))
        yield from coefficient_pairs(lhs, rhs)

    details = ["noncrossing counts match Catalan numbers up to C_7"]
    return first_mismatch("prop12", {"order": order}, cases(), details)


# ---------------------------------------------------------------------------
# exponential generating function identities
# ---------------------------------------------------------------------------


def _egf_check(identity: str, r: int, order: int) -> VerificationReport:
    """EGF: the inverse of family r's h series holds F(n-s, r) at y^n/n!."""
    refuse(identity, order)
    lhs = _invert(r, symfunc_egf(order, lambda n: _h_coefficient(r, n), "p"))
    rhs = symfunc_egf(order, lambda n: _type_sum(r, n), "p")
    return series_report(identity, {"order": order}, lhs, rhs)


def check_thm13(order: int = 6) -> VerificationReport:
    """EGF: inverse of the alternating h series = permutation run-type e-sums."""
    return _egf_check("thm13", 1, order)


def check_thm14(order: int = 7) -> VerificationReport:
    """EGF: compositional inverse of the shifted alternating h series equals
    the series of nested-pair-type e-sums (doubled letters)."""
    return _egf_check("thm14", 2, order)


# ---------------------------------------------------------------------------
# specializations: descent polynomials
# ---------------------------------------------------------------------------


_COMMUTES = "t-specialization commutes coefficientwise"


def _closed_coefficient(r: int, n: int) -> TPoly:
    """E of _h_coefficient(r, n) in closed form, by E(h_k) = t (t-1)^(k-1):
    0 below s = r - 1, 1 at s and -t(1-t)^(n-s-1) above."""
    s = r - 1
    if n <= s:
        return ONE if n == s else TPoly()
    return -T * (ONE - T) ** (n - s - 1)


def _descent_check(identity: str, r: int, order: int) -> VerificationReport:
    """The closed form of family r over Q[t], inverted, has the order-r
    Eulerian polynomial A(n-s, r) at y^n/n!.

    Also verifies that the t-specialization commutes with the underlying
    symmetric-function identity on both sides.
    """
    refuse(identity, order)
    s = r - 1
    closed = TruncatedSeries.from_egf_coefficients(
        QT, order, [_closed_coefficient(r, n) for n in range(order + 1)]
    )
    ref = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly()] * s + [eulerian_polynomial(n, r) for n in range(order + 1 - s)]
    )

    def cases():
        yield from coefficient_pairs(_invert(r, closed), ref)
        # specialization commutes: E of each symmetric-function coefficient
        for n in range(order + 1):
            lhs_n = specialize_E(_h_coefficient(r, n))
            yield f"specialized lhs y^{n}", lhs_n, closed.egf_coefficient(n)
            type_sum_n = specialize_E(_type_sum(r, n))
            yield f"E at y^{n}", type_sum_n, ref.egf_coefficient(n)

    return first_mismatch(identity, {"order": order}, cases(), [_COMMUTES])


def check_riordan(order: int = 8) -> VerificationReport:
    """First-order descent polynomials via the classical closed form
    (1-t) / (1 - t exp((1-t)y)), divided through by 1-t: 1 - t G with
    G = sum_{n>=1} (1-t)^(n-1) y^n / n!, whose inversion stays inside Q[t]."""
    return _descent_check("riordan", 1, order)


def check_thm17(order: int = 8) -> VerificationReport:
    """Second-order descent polynomials via the compositional closed form
    ((1-t)y + (1-exp(y(1-t)))t) / (1-t)^2, whose y-coefficients are genuine
    polynomials in t: y^0 vanishes, y^1 is 1 and y^n/n! for n >= 2 is
    -t(1-t)^(n-2)."""
    return _descent_check("thm17", 2, order)


def check_eulerian_oracle(n: int = 6) -> VerificationReport:
    """Descent polynomials agree with a descent tally over every word."""
    refuse("eulerian_oracle", n)
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
    refuse("htoe", n)
    cases = (
        (f"h_{k}", convert(_h(k), "e"), _signed_composition_sum(k))
        for k in range(n + 1)
    )
    return first_mismatch("htoe", {"n": n}, cases)


def check_lemma52(n: int = 8) -> VerificationReport:
    """E(h_k) = t (t-1)^(k-1) for k = 1..n; n above ``TYPE_SUM_MAX_N`` is
    refused before any specialization."""
    refuse("lemma52", n)
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
    :func:`~stirlingsym.limits.check_typing_budget` is refused up front.
    """
    if (n is None) != (r is None):
        raise ValueError("give both n and r, or neither")
    if n is not None:
        refuse("equidist", n, r)
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
    refuse("treeperm", n)

    def cases():
        for k in range(1, n + 1):
            tree_types = _tallies(normalized_trees(k),
                                  {"lyn": lyndon_type, "comb": comb_type})
            count = sum(c for _, c in tree_types["lyn"])
            yield f"|Nor_{k}|", count, prod(range(1, 2 * k - 2, 2))
            perm_types = _tallies(enumerate_stirling(k - 1, 2),
                                  {"AA": _type_fn("AA"), "TN": _type_fn("TN", 1)})
            yield f"k={k} lyn vs AA", tree_types["lyn"], perm_types["AA"]
            yield f"k={k} comb vs TN", tree_types["comb"], perm_types["TN"]

    return first_mismatch("treeperm", {"n": n}, cases())


# ---------------------------------------------------------------------------
# colored tree families
# ---------------------------------------------------------------------------


def _bounded_weak_compositions(total_max: int, width: int):
    # trimming the compositions into width slots yields every shorter support
    return sorted({trim(mu) for total in range(total_max + 1)
                   for mu in weak_compositions(total, max(width, 1))})


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
    # refuse an order whose reference h_(order-1) exceeds the cap before the
    # chains are enumerated
    refuse("forbidden", order)

    def cases():
        for kind in ("lyn", "comb"):
            got = forbidden_tree_egf(kind, order)
            # both sides are in p: the enumeration's m tallies cross by the
            # Hall rows, the reference h by its closed form
            for n in range(order + 1):
                yield f"{kind} y^{n}", got.egf_coefficient(n), _h_coefficient(2, n, "p")

    return first_mismatch("forbidden", {"order": order}, cases())


def check_drake(order: int = 6) -> VerificationReport:
    """Compositional inverse of the forbidden-chain EGF enumerates the
    colored trees, coefficient by coefficient, for both coloring conditions."""
    refuse("drake", order)

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


def check_inversion(order: int = 6, samples: int = 50) -> VerificationReport:
    """The h-expansion inversion route agrees with direct triangular solves.

    Exercised on the two classical analytic pairs (exp and its reciprocal,
    exp-1 and log(1+y)) and on `samples` random rational EGFs per kind.
    """
    refuse("inversion", order)  # the route of kind "mult" sums types up to order
    rng = random.Random(271828)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def both_routes(kind: str, sem: list[Fraction], label: str):
        series = TruncatedSeries.from_egf_coefficients(QQ, order, sem)
        direct = _invert(_FAMILY[kind], series)
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
