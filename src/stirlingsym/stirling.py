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
that build no word: a tally over partitions of n, each one step from the
cached tally of n - 1, and a row of descent counts.  Enumeration is the
oracle that the tests and ``verify`` compare them with: one lexicographic
walk (:func:`enumerate_stirling_backtrack`) streams the words of Q(n, r) in
O(nr) memory, and :func:`enumerate_stirling` validates each word it yields.

:func:`invert_egf_numeric`, the route of the ``invert`` verb, inverts an EGF
by evaluating these type sums.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .limits import (  # the limits keep their names here
    ENUMERATION_MAX_WORDS,
    TYPE_SUM_MAX_N,
    TYPING_MAX_WORK,
    _check_size,
    check_type_sum_limit,
    refuse,
)
from .partitions import Partition, chain_type, sort_to_partition
from .symfunc import SymFunc, TPoly, evaluate_h

TYPE_KINDS = ("AA", "DA", "TN", "IN")


class StirlingPerm:
    """A nested multiset permutation: each of 1..n occurs exactly r times.

    Immutable, and equal (and equally hashed) exactly when word, n and r are.
    A plain slots class: the tally verbs never build one, and a dataclass
    would make every start-up import ``dataclasses`` and what it imports.
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


def _occurrences(sp: StirlingPerm) -> dict[int, list[int]]:
    occ: dict[int, list[int]] = {a: [] for a in range(1, sp.n + 1)}
    for i, x in enumerate(sp.word):
        occ[x].append(i)
    return occ


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
    if kind in ("TN", "IN") and r < 2:
        raise ValueError(f"kind {kind} needs r >= 2; the words of Q(n, {r}) have no gaps")
    if kind in ("TN", "IN") and not 1 <= j <= r - 1:
        raise ValueError(f"j must be in 1..{r - 1}")
    if kind in ("AA", "DA") and j != 1:
        raise ValueError(f"kind {kind} takes no j; j must be 1, got {j}")


@lru_cache(maxsize=None)
def _type_tally(n: int, r: int) -> tuple:
    # Q(m+1, r) arises by inserting the block (m+1)^r into one of the mr+1
    # slots of a word of Q(m, r).  Letter a owns one slot (right after B(a)
    # for AA, the end of its j-th gap for TN_j): inserting there sends a's
    # chain link to m+1, so a chain of length k with a at position i splits
    # into parts i+1 and k-i (or becomes k+1 when i = k).  The other
    # m(r-1)+1 slots add the singleton chain (m+1).  DA and IN_j are the
    # images of AA and TN_{r-j} under reversal, so every kind tallies alike.
    # Row n is one step (m = n-1) from the cached row n-1; each runs once.
    _check_size(n, r)
    if n == 0:
        return (((), 1),)
    step: dict[Partition, int] = {}
    for lam, count in _type_tally(n - 1, r):
        key = lam + (1,)
        step[key] = step.get(key, 0) + ((n - 1) * (r - 1) + 1) * count
        for k in set(lam):
            rest = list(lam)
            rest.remove(k)
            weight = lam.count(k) * count
            for i in range(1, k):
                key = sort_to_partition(rest + [i + 1, k - i])
                step[key] = step.get(key, 0) + weight
            key = sort_to_partition(rest + [k + 1])
            step[key] = step.get(key, 0) + weight
    return tuple(sorted(step.items()))


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
    return SymFunc("e", _type_tally(n, r))


@lru_cache(maxsize=None)
def _descent_tally(n: int, r: int) -> tuple:
    # the block (m+1)^r goes into one of the mr+1 slots of a word of Q(m, r),
    # each between two adjacent letters (sentinels included).  Inserting at
    # one of the d descents keeps d; the other mr+1-d slots raise it by one:
    # C(m+1, d) = d C(m, d) + (mr+2-d) C(m, d-1)  (Park, "The
    # r-multipermutations", JCTA 1994); a loop, as n reaches 1423 (past the
    # recursion limit) and its rows would hold 10^6 ints of up to 4,300 digits
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
    return TPoly(_descent_tally(n, r))


def eulerian_brute_force(n: int, r: int) -> TPoly:
    """Descent tally over the streamed words of Q(n, r); the oracle for
    :func:`eulerian_polynomial`."""
    tally: dict[int, int] = {}
    for word in enumerate_stirling_backtrack(n, r):
        padded = (0,) + word + (0,)
        d = sum(1 for i in range(len(padded) - 1) if padded[i] > padded[i + 1])
        tally[d] = tally.get(d, 0) + 1
    return TPoly(tally)


# ---------------------------------------------------------------------------
# generic series inversion through the type sums
# ---------------------------------------------------------------------------


def _type_sum(r: int, n: int) -> SymFunc:
    """F(n-s, r) with s = r - 1, the inverse's coefficient of y^n/n!; 0 for n < s."""
    s = r - 1
    return SymFunc.zero("e") if n < s else stirling_symfunc(n - s, r)


#: The family r whose inversion each ``invert_egf_numeric`` kind performs.
_FAMILY = {"mult": 1, "comp": 2}


def invert_egf_numeric(kind: str, f, order: int) -> list[Fraction]:
    """Coefficients of the inverse EGF via the h-expansion evaluations.

    ``f`` lists the semantic coefficients f_n of y^n/n!.  Kind "mult" inverts
    family r = 1, kind "comp" family r = 2; with s = r - 1 and the lead
    coefficient f_s, the n-th semantic output coefficient is
    (-1)^(n-s) c_n F(n-s, r) evaluated at h_i = f_(i+s)/f_s, where
    c_n = f_0^(-1) for "mult" and f_1^(-n) for "comp" (and 0 for n < s).
    The type sums stay in the e basis: :func:`evaluate_h` derives the images
    of e_k from the values of h_k, so no basis conversion (and no degree
    cap) is involved.  Must agree with the direct triangular inversions.
    """
    f = [Fraction(x) for x in f]
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(f) < order + 1:
        raise ValueError("need coefficients up to the requested order")
    if kind == "mult" and f[0] == 0:
        raise ValueError("multiplicative inverse needs f_0 != 0")
    if kind == "comp" and (len(f) < 2 or f[0] != 0 or f[1] == 0):
        raise ValueError("compositional inverse needs f_0 = 0 and f_1 != 0")
    if kind not in _FAMILY:
        raise ValueError("kind must be 'mult' or 'comp'")
    refuse("invert", kind, order)
    r = _FAMILY[kind]
    s = r - 1
    lead = f[s]
    values = {i: f[i + s] / lead for i in range(1, order + 1 - s)}
    out = [Fraction(0)] * s
    for n in range(s, order + 1):
        scale = 1 / lead if r == 1 else lead ** -n
        out.append((-1) ** (n - s) * scale * evaluate_h(_type_sum(r, n), values))
    return out
