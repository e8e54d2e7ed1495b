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
from itertools import combinations, groupby

from .limits import (  # INTERVAL_MAX_ELEMENTS keeps its name here
    INTERVAL_MAX_ELEMENTS,
    interval_elements,
    refuse,
)
from .partitions import partitions_of, trim, weak_compositions, wcomp_add, wcomp_leq
from .report import VerificationReport, first_mismatch
from .stirling import stirling_symfunc
from .symfunc import convert


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
    """Explicit finite interval: its elements and, for each element j, the
    bitset ``down[j]`` of the indices of the elements below it, j included;
    the order is validated on construction.  "pi" at n=6 below (2, 2, 1),
    1,760 elements, is ordered and validated in about 0.6 s."""

    def __init__(self, elements, down):
        self.elements = list(elements)
        self.down = list(down)
        self._validate()

    def _validate(self) -> None:
        down = self.down
        for j, below in enumerate(down):
            if not below >> j & 1:
                raise AssertionError("order is not reflexive")
            for i in _bits(below ^ 1 << j):
                if down[i] >> j & 1:
                    raise AssertionError("order is not antisymmetric")
                if down[i] & ~below:
                    raise AssertionError("order is not transitive")
        everything = (1 << len(down)) - 1
        bottoms = [j for j, below in enumerate(down) if below == 1 << j]
        tops = [j for j, below in enumerate(down) if below == everything]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("interval lacks a unique bottom or top")
        self.bottom = bottoms[0]
        self.top = tops[0]

    def mobius_invariant(self) -> int:
        """mu(bottom, top) by the standard alternating recursion; asserts that
        the Mobius values over a nontrivial interval sum to zero."""
        down = self.down
        value = [0] * len(down)
        # an element strictly below j has a smaller down-set
        for j in sorted(range(len(down)), key=lambda j: down[j].bit_count()):
            value[j] = 1 if j == self.bottom else -sum(
                value[i] for i in _bits(down[j] ^ 1 << j))
        if len(down) > 1 and sum(value) != 0:
            raise AssertionError("Mobius values do not sum to zero")
        return value[self.top]


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _down_sets(elements) -> list:
    """The down-set bitset of each element, an element being a tuple of
    (block, weight) pairs: x <= y when every block of x lies inside one block
    of y and, for each block of y, the weights of the x-blocks inside it sum
    componentwise to at most its weight.  Elements come grouped by blocks, so
    containment is decided once per pair of groups."""
    groups, start = [], 0
    for blocks, members in groupby(elements, key=lambda e: tuple(b for b, _ in e)):
        weights = [tuple(w for _, w in e) for e in members]
        masks = [sum(1 << v for v in block) for block in blocks]
        groups.append((masks, start, weights))
        start += len(weights)
    down = [0] * start
    for ymasks, ystart, yweights in groups:
        for xmasks, xstart, xweights in groups:
            if sum(xmasks) & ~sum(ymasks):  # x covers a point y does not
                continue
            # the block of y that holds each block of x, if every one has one
            home = [next((k for k, y in enumerate(ymasks) if not x & ~y), None)
                    for x in xmasks]
            if None in home:
                continue
            for i, xw in enumerate(xweights, xstart):
                total = [()] * len(ymasks)
                for k, w in zip(home, xw):
                    total[k] = wcomp_add(total[k], w)
                for j, yw in enumerate(yweights, ystart):
                    if all(map(wcomp_leq, total, yw)):
                        down[j] |= 1 << i
    return down


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


def _elements(kind: str, n: int, mu):
    """Stream the elements of the interval below mu."""
    return (_partition_elements if kind == "pi" else _subset_elements)(n, mu)


def interval(kind: str, n: int, mu) -> Interval:
    """Materialize the maximal interval below the one-block/full-set top.

    Refuses an interval of more than ``INTERVAL_MAX_ELEMENTS`` elements as
    soon as listing passes that count, before the order is built.
    """
    negative = [x for x in mu if x < 0]
    if negative:
        raise ValueError(f"mu={tuple(mu)} has a negative part {negative[0]}")
    if kind not in ("pi", "b"):
        raise ValueError("kind must be 'pi' or 'b'")
    mu = trim(mu)
    elements = interval_elements(kind, n, mu, _elements(kind, n, mu))
    # a weighted subset orders as a weighted partition of one block
    blocked = elements if kind == "pi" else [(e,) for e in elements]
    return Interval(elements, _down_sets(blocked))


def mobius_invariant(kind: str, n: int, mu) -> int:
    return interval(kind, n, mu).mobius_invariant()


def _signed_type_coefficient(kind: str, n: int, shape) -> Fraction:
    """The coefficient of x^mu predicted by the signed type-sum functions."""
    degree, r = (n - 1, 2) if kind == "pi" else (n, 1)
    return (-1) ** degree * convert(stirling_symfunc(degree, r), "m").coefficient(shape)


def _check_poset(identity: str, kind: str, nmax: int) -> VerificationReport:
    # one sorted top weight per shape, and for the first shape of two or
    # more parts two rearrangements, whose invariant must not change
    tops = []
    for n in range(1, nmax + 1):
        shapes = partitions_of(n if kind == "b" else n - 1)
        probes = [lam for lam in shapes if len(lam) >= 2][:1]
        tops += [(n, lam, None) for lam in shapes]
        tops += [(n, mu, lam) for lam in probes
                 for mu in ((lam[-1],) + lam[1:-1] + (lam[0],), (0,) + lam)]
    # list every interval before any is built, so an n with an interval
    # over the limit is refused before the smaller n run
    for n, mu, _ in tops:
        refuse(identity, kind, n, mu, _elements(kind, n, mu))

    def cases():
        for n, mu, lam in tops:
            if lam is None:
                yield (f"n={n} mu={mu}", mobius_invariant(kind, n, mu),
                       _signed_type_coefficient(kind, n, mu))
            else:
                yield (f"n={n} rearrangement {mu} of {lam}",
                       mobius_invariant(kind, n, mu), mobius_invariant(kind, n, lam))

    return first_mismatch(identity, {"n": nmax}, cases())


def check_thm62(n: int = 4) -> VerificationReport:
    """Mobius invariants of the weighted partition tops match the signed
    doubled-letter type sums, one sorted weight per shape, up to n."""
    return _check_poset("thm62", "pi", n)


def check_thm64(n: int = 3) -> VerificationReport:
    """Mobius invariants of the weighted subset tops match the signed
    permutation type sums, one sorted weight per shape, up to n."""
    return _check_poset("thm64", "b", n)
