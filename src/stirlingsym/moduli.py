"""Closed-formula volumes indexed by partitions, cross-checked against the
power-sum expansion of the doubled-letter type sums.

The value attached to a partition lam of n is

    n! * sum_{k=0}^{l(lam)} (-1)^(l(lam)-k) C(n+k, k)
       * sum over ordered decompositions lam = nu^1 + ... + nu^k
         (every nu^i a nonempty partition, multiset union lam)
         of prod_j C(m_j(lam); m_j(nu^1), ..., m_j(nu^k))
            / prod_i (|nu^i| + 1)!

where parts of equal size are distributed into the k labeled slots with the
stated multinomial multiplicity.  With p_j the distinct parts of lam and m_j
their multiplicities, a slot holding c_j parts p_j weighs
x^c / (prod_j c_j! * (sum_j p_j c_j + 1)!), so the inner sum over k slots is
prod_j m_j! * [x^m] (G - 1)^k for the box polynomial

    G = sum_{0 <= c <= m} x^c / (prod_j c_j! * (sum_j p_j c_j + 1)!)

in one variable per distinct part.  :func:`wp_volume` multiplies G - 1 by
itself l(lam) times, dropping every monomial outside the box, and reads the
coefficient of x^m after each product.

The cross-check computes the power-sum expansion of the doubled-letter type
sum of degree n and compares each coefficient against sign * value / z_lam
under the two candidate sign rules (-1)^(n - l(lam)) and
(-1)^(n - 1 - l(lam)); desk computation favors the former, so the check
asserts that a single rule matches every lam at once and records which one it
was.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from operator import add, le, mul

from .limits import WP_MAX_N, refuse  # WP_MAX_N keeps its name here
from .partitions import Partition, check_partition, multiplicities, partitions_of, z_of
from .report import VerificationReport, first_mismatch
from .stirling import stirling_symfunc
from .symfunc import SymFunc, convert


def _box_polynomial(parts, mults, scale: int) -> dict[tuple[int, ...], int]:
    """scale * (G - 1) as {c: coefficient}; scale makes every one an integer."""
    return {
        c: scale // (prod(map(factorial, c)) * factorial(sum(map(mul, parts, c)) + 1))
        for c in product(*(range(m + 1) for m in mults))
        if any(c)
    }


def _truncated_product(f: dict, g: dict, bound) -> dict:
    """f * g without the monomials whose exponents exceed ``bound``."""
    out: dict = {}
    for a, x in f.items():
        for b, y in g.items():
            c = tuple(map(add, a, b))
            if all(map(le, c, bound)):
                out[c] = out.get(c, 0) + x * y
    return out


def wp_volume(lam: Partition) -> Fraction:
    """Exact evaluation of the closed formula; wp_volume(()) == 1.

    A partition of more than ``WP_MAX_N`` is refused before any work.
    """
    lam = check_partition(lam)
    refuse("wp", lam)
    n = sum(lam)
    counted = sorted(multiplicities(lam).items())
    parts = tuple(p for p, _ in counted)
    mults = tuple(m for _, m in counted)
    scale = prod(map(factorial, mults)) * factorial(n + 1)
    step = _box_polynomial(parts, mults, scale)
    power = {(0,) * len(mults): 1}  # scale^k * (G - 1)^k
    total = Fraction(0)
    for k in range(len(lam) + 1):
        if k:
            power = _truncated_product(power, step, mults)
        inner = Fraction(power.get(mults, 0), scale**k)
        total += (-1) ** (len(lam) - k) * comb(n + k, k) * inner
    return factorial(n) * prod(map(factorial, mults)) * total


#: The two candidate sign rules, each as the shift c of (-1)^(n - c - l(lam)).
_SIGN_RULES = {"(-1)^(n-len)": 0, "(-1)^(n-1-len)": 1}


def check_thm65(n: int = 5) -> VerificationReport:
    """A single sign rule links the volumes to the power-sum coefficients.

    For each degree m <= n the check computes the power-sum expansion of the
    doubled-letter type sum and compares it with the expansion each sign
    rule predicts, sign * wp_volume(lam) / z_lam at every lam of m.  It
    passes when one rule matches at each m, and notes the matching rules;
    a degree no rule matches is reported against the first rule.
    """
    # convert would meet the cap at degree n only after building the
    # matrices of every smaller degree
    refuse("thm65", n)
    details: list[str] = []

    def cases():
        for m in range(n + 1):
            pexp = convert(stirling_symfunc(m, 2), "p")
            scaled = {lam: wp_volume(lam) / z_of(lam) for lam in partitions_of(m)}
            predicted = {
                rule: SymFunc("p", {lam: (-1) ** ((m - shift - len(lam)) % 2) * v
                                    for lam, v in scaled.items()})
                for rule, shift in _SIGN_RULES.items()
            }
            winners = [rule for rule, rhs in predicted.items() if rhs == pexp]
            if winners:
                details.append(f"degree {m}: uniform sign rule {' and '.join(winners)}")
            rule = winners[0] if winners else "(-1)^(n-len)"
            yield f"degree {m} under {rule}", pexp, predicted[rule]
        if all("(-1)^(n-len)" in d for d in details[1:]):
            details.append(
                "the stated exponent n-1-len disagrees; n-len matches every degree"
            )

    return first_mismatch("thm65", {"n": n}, cases(), details)
