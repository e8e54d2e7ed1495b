"""Integer partitions, compositions and weak compositions.

All index combinatorics used by the rest of the package lives here.  A
partition is a plain tuple of nonincreasing positive integers, a composition a
tuple of positive integers, and a weak composition a tuple of nonnegative
integers (trailing zeros allowed but trimmed by :func:`trim`).  Coefficients
everywhere in the package are exact ``fractions.Fraction`` values; no floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

Partition = tuple[int, ...]
Composition = tuple[int, ...]
WeakComposition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any iterable."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive: {lam}")
        if i > 0 and lam[i - 1] < p:
            raise ValueError(f"partition parts must be nonincreasing: {lam}")
    return lam


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order.

    Reverse-lexicographic means plain descending tuple order, e.g. for n=4:
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  This order is the canonical one
    used for rendering and for transition-matrix indexing.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return list(gen(n, n))


def compositions_of(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n >= 1, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")

    def gen(rest: int):
        if rest == 0:
            yield ()
            return
        for first in range(1, rest + 1):
            for tail in gen(rest - first):
                yield (first,) + tail

    return list(gen(n))


def weak_compositions(n: int, k: int) -> list[WeakComposition]:
    """All weak compositions of n supported on positions 1..k.

    Returned as tuples of length exactly k; there are C(n+k-1, k-1) of them.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")

    def gen(rest: int, slots: int):
        if slots == 1:
            yield (rest,)
            return
        for first in range(rest, -1, -1):
            for tail in gen(rest - first, slots - 1):
                yield (first,) + tail

    return list(gen(n, k))


def sort_to_partition(seq) -> Partition:
    """Nonincreasing rearrangement of a weak composition, zeros dropped."""
    return tuple(sorted((x for x in seq if x != 0), reverse=True))


def chain_type(succ: dict, elements) -> Partition:
    """Partition from the chain decomposition of a successor map.

    ``succ`` sends an element to the next one in its chain; it must be
    injective and acyclic on ``elements``, so the chains partition them.
    """
    has_pred = set(succ.values())
    parts = []
    for start in elements:
        if start in has_pred:
            continue
        length = 1
        x = start
        while x in succ:
            x = succ[x]
            length += 1
        parts.append(length)
    return sort_to_partition(parts)


def conjugate(lam: Partition) -> Partition:
    """Conjugate (transposed diagram) partition."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part size -> multiplicity m_i."""
    m: dict[int, int] = {}
    for p in lam:
        m[p] = m.get(p, 0) + 1
    return m


def z_of(lam: Partition) -> int:
    """The centralizer size prod_i i^(m_i) * m_i! of a cycle type."""
    z = 1
    for i, m in multiplicities(lam).items():
        z *= i**m * factorial(m)
    return z


def trim(mu) -> WeakComposition:
    """Drop trailing zeros; canonical form of a weak composition."""
    mu = tuple(mu)
    end = len(mu)
    while end > 0 and mu[end - 1] == 0:
        end -= 1
    return mu[:end]


def wcomp_leq(nu, mu) -> bool:
    """Componentwise order on weak compositions (shorter padded with zeros)."""
    nu, mu = tuple(nu), tuple(mu)
    width = max(len(nu), len(mu))
    nu += (0,) * (width - len(nu))
    mu += (0,) * (width - len(mu))
    return all(a <= b for a, b in zip(nu, mu))


def wcomp_add(nu, mu) -> WeakComposition:
    nu, mu = tuple(nu), tuple(mu)
    width = max(len(nu), len(mu))
    nu += (0,) * (width - len(nu))
    mu += (0,) * (width - len(mu))
    return trim(a + b for a, b in zip(nu, mu))


def binomial(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def rational_str(q: Fraction | int) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (also accepts a denominator of 1, e.g. "4/1")."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None
