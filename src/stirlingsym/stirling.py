"""Multiset permutations with the nesting property, their statistics and types.

A word over [n] in which every letter occurs exactly r times is *nested* when
every letter other than m that lies between two occurrences of m exceeds m.
For r = 1 these are ordinary permutations; r = 2 is the classical case.  The
family is denoted Q(n, r) here; inserting the block k...k (r copies) of each
new largest letter into every gap of a word of Q(k-1, r) shows that it holds
prod_{k=1}^{n} ((k-1)r + 1) words.

Statistics use the boundary convention that a zero sentinel sits on both ends
of the word, so the final position always counts as a descent and position 0
as an ascent (for nonempty words).

The four type partitions (:func:`type_of`) are the chain lengths of links
a -> b, a < b, read off the block structure: the block B(a) of a letter a is
the segment spanning all its occurrences, and its j-th gap is the segment
between its j-th and (j+1)-th occurrences.  Ascending adjacent (AA) links
a to b when B(b) starts right after B(a) ends, descending adjacent (DA)
when B(b) ends right before B(a) starts; j-terminally nested (TN_j) links a
to the last letter of its nonempty j-th gap, j-initially nested (IN_j) to
the first.  Their chain counts are the descents, ascents and j-th plateaux.
Reversing the word swaps AA with DA and TN_j with IN_(r-j), a property
that the tests check against these definitions.

The type sums (:func:`stirling_symfunc`) and descent polynomials
(:func:`eulerian_polynomial`) are computed by block-insertion recurrences
that build no word: a tally over partitions of n and a row of descent
counts.  Enumeration is the oracle that the tests and ``verify`` compare
them with: one lexicographic walk (:func:`enumerate_stirling_backtrack`)
streams the words of Q(n, r) in O(nr) memory, and
:func:`enumerate_stirling` validates each word it yields.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import prod

from .partitions import Partition, chain_type, sort_to_partition
from .symfunc import SymFunc, TPoly

TYPE_KINDS = ("AA", "DA", "TN", "IN")

#: Largest n for which :func:`stirling_symfunc` builds F(n, r).  The type
#: recurrence visits every partition of every m <= n, about x4 work per five
#: steps of n: for r = 2 it took 1.35 s at n = 30 and 12.6 s at n = 40, and
#: n = 60 would run for hours.  Larger n is refused before any work.
TYPE_SUM_MAX_N = 30

#: Largest |Q(n, r)| that a ``verify`` check enumerates for a user-given size.
#: Q(8, 2) has 2,027,025 words: ``verify --identity eulerian_oracle --n 8``
#: walks it and every smaller Q(k, 1) and Q(k, 2) in 16.3 s on a 2-vCPU VM.
#: Q(9, 2) has 34,459,425 words and is refused before any word is built.
ENUMERATION_MAX_WORDS = 2_500_000

#: Largest |Q(n, r)| * 2r * nr that ``verify --identity equidist`` types for a
#: user-given size: each word is typed for 2r kinds at O(nr) each.  Among the
#: accepted sizes Q(9, 1) (6,531,840) took 15.8 s and Q(7, 2) (7,567,560)
#: 12.4 s on a 2-vCPU VM; Q(2, 200) (32,160,000) took 11.1 s, and Q(2, 1000)
#: would run for about 17 minutes.
TYPING_MAX_WORK = 8_000_000


class StirlingPerm:
    """A nested multiset permutation: each of 1..n occurs exactly r times.

    Immutable, and equal (and equally hashed) exactly when word, n and r are.
    A plain slots class: the tally verbs never build one, and a dataclass
    would make every start-up import ``dataclasses`` and ``inspect``.
    """

    __slots__ = ("word", "n", "r")

    def __init__(self, word, n: int, r: int):
        if n < 0 or r < 1:
            raise ValueError("need n >= 0 and r >= 1")
        word = tuple(word)
        if len(word) != n * r:
            raise ValueError(f"word length {len(word)} != n*r = {n * r}")
        counts = [0] * (n + 1)
        for x in word:
            if not 1 <= x <= n:
                raise ValueError(f"letter {x} out of range 1..{n}")
            counts[x] += 1
        if any(c != r for c in counts[1:]):
            raise ValueError("every letter must occur exactly r times")
        # nesting: other letters between two occurrences of m exceed m;
        # open letters form an increasing stack while scanning
        stack: list[int] = []
        remaining = [r] * (n + 1)
        for x in word:
            if stack and x < stack[-1]:
                raise ValueError(f"nesting condition violated in {word}")
            remaining[x] -= 1
            if stack and stack[-1] == x:
                if remaining[x] == 0:
                    stack.pop()
            elif remaining[x] > 0:
                stack.append(x)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: pickle and copy would otherwise restore
        # the slots through the refused __setattr__
        return StirlingPerm, (self.word, self.n, self.r)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.word, self.n, self.r) == (other.word, other.n, other.r)

    def __hash__(self):
        return hash((self.word, self.n, self.r))

    def __repr__(self):
        return f"StirlingPerm(word={self.word!r}, n={self.n!r}, r={self.r!r})"

    def __str__(self):
        if self.n <= 9:
            return "".join(str(x) for x in self.word)
        return " ".join(str(x) for x in self.word)

    def to_json(self):
        return list(self.word)


def _check_size(n: int, r: int) -> None:
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")


def _word_count(n: int, r: int) -> int:
    return prod((k - 1) * r + 1 for k in range(1, n + 1))


def check_word_budget(n: int, r: int) -> None:
    """Refuse, before any word is built, a Q(n, r) above the enumeration limit."""
    _check_size(n, r)
    count = _word_count(n, r)
    if count > ENUMERATION_MAX_WORDS:
        raise ValueError(f"Q({n},{r}) has {count} words, over the enumeration "
                         f"limit {ENUMERATION_MAX_WORDS}")


def check_typing_budget(n: int, r: int) -> None:
    """Refuse, before any word is built, typing Q(n, r) for all 2r kinds when
    that costs more than ``TYPING_MAX_WORK`` or the word budget."""
    check_word_budget(n, r)
    work = _word_count(n, r) * 2 * r * n * r
    if work > TYPING_MAX_WORK:
        raise ValueError(f"typing Q({n},{r}) for {2 * r} kinds costs {work} steps, "
                         f"over the typing limit {TYPING_MAX_WORK}")


def check_type_sum_limit(n: int) -> None:
    """Refuse, before any work, a type sum F(n, r) above ``TYPE_SUM_MAX_N``."""
    if n > TYPE_SUM_MAX_N:
        raise ValueError(f"n={n} exceeds the type-sum limit {TYPE_SUM_MAX_N}")


def enumerate_stirling(n: int, r: int) -> Iterator[StirlingPerm]:
    """Q(n, r) in lexicographic order, each word validated by StirlingPerm.

    A lazy wrapper over :func:`enumerate_stirling_backtrack`: (n, r) is checked
    when called, and no word is built before the first ``next()``.
    """
    words = enumerate_stirling_backtrack(n, r)
    return (StirlingPerm(word, n, r) for word in words)


def enumerate_stirling_backtrack(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Q(n, r) as word tuples in lexicographic order, streamed in O(nr) memory.

    Builds no list and sorts nothing; (n, r) is checked when called.
    """
    _check_size(n, r)
    return _walk(n, r)


def _walk(n: int, r: int) -> Iterator[tuple[int, ...]]:
    # After a prefix, the open letters (placed, not yet r times) form an
    # increasing stack, and the next letter is either its top or an unused
    # letter above the top (any unused letter when the stack is empty).
    # Every prefix completes, and its least completion
    # closes the stack from the top down, then writes each unused letter r
    # times in increasing order.  The successor of a word therefore undoes
    # letters from the right until one can be raised to the least unused
    # letter above it, places that letter, and appends the least completion.
    word = [x for x in range(1, n + 1) for _ in range(r)]
    remaining = [0] * (n + 1)  # copies of each letter not yet placed
    stack: list[int] = []
    while True:
        yield tuple(word)
        i = n * r - 1
        while i >= 0:
            c = word[i]
            remaining[c] += 1
            if remaining[c] == 1:  # c was closed here (for r = 1 also opened)
                stack.append(c)
            if remaining[c] == r:  # c was opened here
                stack.pop()
            x = c + 1
            while x <= n and remaining[x] != r:
                x += 1
            if x <= n:
                break
            i -= 1
        if i < 0:
            return
        word[i] = x
        remaining[x] -= 1
        i += 1
        stack.append(x)
        for s in reversed(stack):
            k = remaining[s]
            word[i:i + k] = (s,) * k
            i += k
            remaining[s] = 0
        stack.clear()
        for u in range(1, n + 1):
            if remaining[u]:
                word[i:i + r] = (u,) * r
                i += r
                remaining[u] = 0


def reverse(sp: StirlingPerm) -> StirlingPerm:
    """The reversed word; reversal preserves the nesting condition."""
    return StirlingPerm(tuple(reversed(sp.word)), sp.n, sp.r)


def stats(sp: StirlingPerm) -> dict:
    """Descents, ascents and per-gap plateau counts, with zero sentinels.

    Returns {"des": int, "asc": int, "pla": (pla_1, ..., pla_{r-1})}.  A
    plateau between equal adjacent letters belongs to gap j when the left
    letter is the j-th occurrence of its value.
    """
    word = sp.word
    padded = (0,) + word + (0,)
    des = asc = 0
    pla = [0] * (sp.r - 1) if sp.r > 1 else []
    seen = [0] * (sp.n + 1)
    for i in range(len(padded) - 1):
        a, b = padded[i], padded[i + 1]
        if 1 <= i <= len(word):
            seen[word[i - 1]] += 1
        if a > b:
            des += 1
        elif a < b:
            asc += 1
        elif a != 0:
            pla[seen[a] - 1] += 1
    return {"des": des, "asc": asc, "pla": tuple(pla)}


def _occurrences(sp: StirlingPerm) -> dict[int, list[int]]:
    occ: dict[int, list[int]] = {a: [] for a in range(1, sp.n + 1)}
    for i, x in enumerate(sp.word):
        occ[x].append(i)
    return occ


def block(sp: StirlingPerm, a: int) -> tuple[int, int]:
    """Index range [start, end] of the block of letter a (inclusive)."""
    if not 1 <= a <= sp.n:
        raise ValueError(f"letter {a} out of range 1..{sp.n}")
    occ = _occurrences(sp)[a]
    return occ[0], occ[-1]


def ring_segments(sp: StirlingPerm, a: int) -> list[tuple[int, ...]]:
    """The r-1 (possibly empty) subwords between consecutive occurrences of a."""
    if not 1 <= a <= sp.n:
        raise ValueError(f"letter {a} out of range 1..{sp.n}")
    occ = _occurrences(sp)[a]
    return [tuple(sp.word[occ[j] + 1 : occ[j + 1]]) for j in range(sp.r - 1)]


def type_of(sp: StirlingPerm, kind: str = "AA", j: int = 1) -> Partition:
    """The chain lengths of the links a -> b, a < b, of one kind of type.

    The link of a is the letter b beside one occurrence of a, kept when
    b > a: by nesting, a larger letter beside B(a) is an end of B(b), and a
    gap's end letter exceeds a exactly when the gap is nonempty.
    """
    _validate_kind(kind, j, sp.r)
    # b sits beside occurrence k of a (0-based), on this side of it
    k, side = {"AA": (-1, 1), "DA": (0, -1), "TN": (j, -1), "IN": (j - 1, 1)}[kind]
    padded = (0,) + sp.word + (0,)  # sp.word[i] is padded[i + 1]
    beside = {a: padded[pos[k] + 1 + side] for a, pos in _occurrences(sp).items()}
    links = {a: b for a, b in beside.items() if b > a}
    return chain_type(links, range(1, sp.n + 1))


def _validate_kind(kind: str, j: int, r: int) -> None:
    if kind not in TYPE_KINDS:
        raise ValueError(f"unknown type kind {kind!r}")
    if kind in ("TN", "IN") and not 1 <= j <= r - 1:
        raise ValueError(f"j must be in 1..{r - 1}")


@lru_cache(maxsize=None)
def _type_tally(n: int, r: int) -> tuple:
    # Q(m+1, r) arises by inserting the block (m+1)^r into one of the mr+1
    # slots of a word of Q(m, r).  Letter a owns one slot (right after B(a)
    # for AA, the end of its j-th gap for TN_j): inserting there sends a's
    # chain link to m+1, so a chain of length k with a at position i splits
    # into parts i+1 and k-i (or becomes k+1 when i = k).  The other
    # m(r-1)+1 slots add the singleton chain (m+1).  DA and IN_j are the
    # images of AA and TN_{r-j} under reversal, so every kind tallies alike.
    _check_size(n, r)
    tally: dict[Partition, int] = {(): 1}
    for m in range(n):
        step: dict[Partition, int] = {}
        for lam, count in tally.items():
            key = lam + (1,)
            step[key] = step.get(key, 0) + (m * (r - 1) + 1) * count
            for k in set(lam):
                rest = list(lam)
                rest.remove(k)
                weight = lam.count(k) * count
                for i in range(1, k):
                    key = sort_to_partition(rest + [i + 1, k - i])
                    step[key] = step.get(key, 0) + weight
                key = sort_to_partition(rest + [k + 1])
                step[key] = step.get(key, 0) + weight
        tally = step
    return tuple(sorted(tally.items()))


def stirling_symfunc(n: int, r: int, kind: str = "AA", j: int = 1) -> SymFunc:
    """Sum of e_(type) over all of Q(n, r), in the elementary basis.

    Computed by the block-insertion recurrence over partitions of n (Gessel
    and Stanley, "Stirling polynomials", JCTA 1978), which no word is built
    for.  The four type statistics give the same recurrence, so ``kind`` and
    ``j`` are only validated; the tests compare the result with the tally of
    ``type_of`` over ``enumerate_stirling`` for every kind.  n above
    ``TYPE_SUM_MAX_N`` raises ValueError.
    """
    _validate_kind(kind, j, r)
    check_type_sum_limit(n)
    return SymFunc("e", {lam: Fraction(c) for lam, c in _type_tally(n, r)})


@lru_cache(maxsize=None)
def _descent_tally(n: int, r: int) -> tuple:
    # the block (m+1)^r goes into one of the mr+1 slots of a word of Q(m, r),
    # each between two adjacent letters (sentinels included).  Inserting at
    # one of the d descents keeps d; the other mr+1-d slots raise it by one:
    # C(m+1, d) = d C(m, d) + (mr+2-d) C(m, d-1)  (Park, "The
    # r-multipermutations", JCTA 1994)
    _check_size(n, r)
    row = [1]
    for m in range(n):
        row = [
            (d * row[d] if d < len(row) else 0)
            + ((m * r + 2 - d) * row[d - 1] if d else 0)
            for d in range(len(row) + 1)
        ]
    return tuple((d, c) for d, c in enumerate(row) if c)


def eulerian_polynomial(n: int, r: int) -> TPoly:
    """Descent generating polynomial over Q(n, r), sentinels included.

    Computed by the descent-slot recurrence, which builds no word;
    :func:`eulerian_brute_force` is the oracle that tallies the enumeration.
    """
    return TPoly({d: Fraction(c) for d, c in _descent_tally(n, r)})


def eulerian_brute_force(n: int, r: int) -> TPoly:
    """Descent tally over the streamed words of Q(n, r); the oracle for
    :func:`eulerian_polynomial`."""
    tally: dict[int, int] = {}
    for word in enumerate_stirling_backtrack(n, r):
        padded = (0,) + word + (0,)
        d = sum(1 for i in range(len(padded) - 1) if padded[i] > padded[i + 1])
        tally[d] = tally.get(d, 0) + 1
    return TPoly({d: Fraction(c) for d, c in tally.items()})
