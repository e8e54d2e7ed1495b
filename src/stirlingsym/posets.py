"""Finite maximal intervals of two weighted posets and their Mobius invariants.

A *weighted partition* of [n] is a set partition whose block B carries a weak
composition of |B| - 1.  Ordering: refine the blocks and dominate the weights
blockwise (the merged block's weight must dominate the componentwise sum of
the weights of its parts).  The bottom is the all-singleton zero-weighted
partition and the maximal elements are the one-block partitions weighted by a
weak composition mu of n - 1; only the finite interval below one of these is
ever materialized.

A *weighted subset* pairs S with a weak composition of size exactly |S| (the
rank-matching fiber of the subset lattice against componentwise-ordered weak
compositions).  Maximal elements pair [n] with a weak composition mu of n.

The generating function of the Mobius invariants of the maximal intervals,
summed over all top weights as monomials x^mu, reproduces the signed type
sums of the doubled-letter family (partitions) and of plain permutations
(subsets); the two checks below verify this coefficientwise for one sorted
representative per shape plus a rearrangement-invariance probe.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .partitions import (
    partitions_of,
    trim,
    weak_compositions,
    wcomp_add,
    wcomp_leq,
)
from .report import VerificationReport, first_mismatch
from .stirling import stirling_symfunc
from .symfunc import convert

#: Largest interval that ``interval`` materializes.  Building and validating
#: the order costs O(size^2) comparisons: the largest interval accepted,
#: "pi" at n=6 below (2, 2, 1) with 1,760 elements, takes about 19 s, and
#: "pi" at n=6 below (2, 1, 1, 1), with 2,866, about 41 s.
INTERVAL_MAX_ELEMENTS = 2_000


def set_partitions(ground):
    """Stream the set partitions of the ground tuple, blocks and output
    canonical."""
    ground = tuple(ground)
    if not ground:
        yield ()
        return
    first, rest = ground[0], ground[1:]
    for smaller in set_partitions(rest):
        yield tuple(sorted(((first,),) + smaller))
        for i, block in enumerate(smaller):
            grown = tuple(sorted((first,) + block))
            yield tuple(sorted(smaller[:i] + (grown,) + smaller[i + 1 :]))


class Interval:
    """Explicit finite interval: elements plus the full order relation."""

    def __init__(self, kind: str, n: int, mu, elements, leq_fn):
        self.kind = kind
        self.n = n
        self.mu = trim(mu)
        self.elements = list(elements)
        size = len(self.elements)
        self.leq = [
            [leq_fn(self.elements[i], self.elements[j]) for j in range(size)]
            for i in range(size)
        ]
        self._validate()

    def _validate(self) -> None:
        size = len(self.elements)
        below = [
            frozenset(i for i in range(size) if self.leq[i][j]) for j in range(size)
        ]
        for i in range(size):
            if not self.leq[i][i]:
                raise AssertionError("order is not reflexive")
            for j in range(size):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise AssertionError("order is not antisymmetric")
                if self.leq[i][j] and not below[i] <= below[j]:
                    raise AssertionError("order is not transitive")
        bottoms = [j for j in range(size) if below[j] == frozenset({j})]
        tops = [i for i in range(size) if all(self.leq[j][i] for j in range(size))]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("interval lacks a unique bottom or top")
        self.bottom = bottoms[0]
        self.top = tops[0]

    def mobius_invariant(self) -> int:
        """mu(bottom, top) by the standard alternating recursion.

        Also asserts the defining property: the Mobius values over any
        nontrivial interval sum to zero.
        """
        size = len(self.elements)
        order = sorted(range(size), key=lambda j: sum(self.leq[i][j] for i in range(size)))
        value = [0] * size
        for j in order:
            if j == self.bottom:
                value[j] = 1
            else:
                value[j] = -sum(value[i] for i in range(size) if self.leq[i][j] and i != j)
        if size > 1 and sum(value) != 0:
            raise AssertionError("Mobius values do not sum to zero")
        return value[self.top]


def _partition_elements(n: int, mu):
    if sum(mu) != n - 1:
        raise ValueError(f"top weight must have size n-1 = {n - 1}, got {mu}")
    width = max(1, len(mu))
    for blocks in set_partitions(range(1, n + 1)):
        choices = []
        for block in blocks:
            need = len(block) - 1
            valid = [
                trim(nu)
                for nu in weak_compositions(need, width)
                if wcomp_leq(nu, mu)
            ] if need else [()]
            choices.append(valid)

        def assign(i: int, acc, total):
            if i == len(blocks):
                yield tuple(zip(blocks, acc))
                return
            for nu in choices[i]:
                new_total = wcomp_add(total, nu)
                if wcomp_leq(new_total, mu):
                    yield from assign(i + 1, acc + (nu,), new_total)

        yield from assign(0, (), ())


def _partition_leq(x, y) -> bool:
    """Refinement plus blockwise componentwise weight domination."""
    locate = {}
    for j, (block, _) in enumerate(y):
        for v in block:
            locate[v] = j
    sums = [()] * len(y)
    for block, weight in x:
        j = locate[block[0]]
        if any(locate[v] != j for v in block[1:]):
            return False
        sums[j] = wcomp_add(sums[j], weight)
    return all(wcomp_leq(s, w) for s, (_, w) in zip(sums, y))


def _subset_elements(n: int, mu):
    if sum(mu) != n:
        raise ValueError(f"top weight must have size n = {n}, got {mu}")
    width = max(1, len(mu))
    ground = tuple(range(1, n + 1))
    for size in range(n + 1):
        for subset in combinations(ground, size):
            for nu in weak_compositions(size, width):
                if wcomp_leq(nu, mu):
                    yield (subset, trim(nu))


def _subset_leq(x, y) -> bool:
    return set(x[0]) <= set(y[0]) and wcomp_leq(x[1], y[1])


def interval(kind: str, n: int, mu) -> Interval:
    """Materialize the maximal interval below the one-block/full-set top.

    Refuses an interval of more than ``INTERVAL_MAX_ELEMENTS`` elements as
    soon as listing passes that count, before the order is built.
    """
    negative = [x for x in mu if x < 0]
    if negative:
        raise ValueError(f"mu={tuple(mu)} has a negative part {negative[0]}")
    if kind == "pi":
        list_elements, leq = _partition_elements, _partition_leq
    elif kind == "b":
        list_elements, leq = _subset_elements, _subset_leq
    else:
        raise ValueError("kind must be 'pi' or 'b'")
    mu = trim(mu)
    elements = []
    for element in list_elements(n, mu):
        if len(elements) == INTERVAL_MAX_ELEMENTS:
            raise ValueError(
                f"the {kind} interval at n={n} below mu={mu} has more than "
                f"{INTERVAL_MAX_ELEMENTS} elements, the interval limit "
                "(posets.INTERVAL_MAX_ELEMENTS)")
        elements.append(element)
    return Interval(kind, n, mu, elements, leq)


def mobius_invariant(kind: str, n: int, mu) -> int:
    return interval(kind, n, mu).mobius_invariant()


def _signed_type_coefficient(kind: str, n: int, shape) -> Fraction:
    """The coefficient of x^mu predicted by the signed type-sum functions."""
    if kind == "pi":
        f = convert(stirling_symfunc(n - 1, 2), "m")
        sign = (-1) ** (n - 1)
    else:
        f = convert(stirling_symfunc(n, 1), "m")
        sign = (-1) ** n
    return sign * f.coefficient(shape)


def _check_poset(identity: str, kind: str, nmax: int) -> VerificationReport:
    def cases():
        for n in range(1, nmax + 1):
            shapes = partitions_of(n if kind == "b" else n - 1)
            for lam in shapes:
                yield (
                    f"n={n} mu={lam}",
                    mobius_invariant(kind, n, lam),
                    _signed_type_coefficient(kind, n, lam),
                )
            # rearrangement invariance: permuting or zero-padding the top
            # weight must not change the Mobius invariant
            probes = [lam for lam in shapes if len(lam) >= 2]
            if probes:
                lam = probes[0]
                for mu in ((lam[-1],) + lam[1:-1] + (lam[0],), (0,) + lam):
                    yield (
                        f"n={n} rearrangement {mu} of {lam}",
                        mobius_invariant(kind, n, mu),
                        mobius_invariant(kind, n, lam),
                    )

    return first_mismatch(identity, {"n": nmax}, cases())


def check_thm62(n: int = 4) -> VerificationReport:
    """Mobius invariants of the weighted partition tops match the signed
    doubled-letter type sums, one sorted weight per shape, up to n."""
    return _check_poset("thm62", "pi", n)


def check_thm64(n: int = 3) -> VerificationReport:
    """Mobius invariants of the weighted subset tops match the signed
    permutation type sums, one sorted weight per shape, up to n."""
    return _check_poset("thm64", "b", n)
