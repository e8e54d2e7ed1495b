"""Every size limit of the package, and the refusal each check and verb runs.

The paper's type sums, Stirling-word walks, tree colourings and intervals
grow far faster than their size options, so each check of ``verify`` and
each sized verb refuses, before any work, a size that would run for minutes
or exhaust memory.  The limits are the eight constants below; the layers
re-export each one under its historic name (``stirling.TYPE_SUM_MAX_N``,
``moduli.WP_MAX_N`` ...), which the error messages cite.

:data:`ROWS` holds one row per check and per sized verb: the size options it
takes and the refusal it runs, through :func:`refuse`, before any work.  The
CLI reads a check's ``verify`` options from its row.  The library functions
that meet a limit on their own (``stirling_symfunc``, ``normalized_trees``,
``colored_generating_function``, ``convert``, ``posets.interval``) call the
same refusals.  This module imports nothing from the package.
"""

from __future__ import annotations

import sys
from math import prod

#: Largest homogeneous degree the package will convert or multiply by default.
#: Operations that would exceed the cap raise DegreeCapError instead of
#: silently truncating.  The type sums have their own size limit,
#: ``TYPE_SUM_MAX_N``, since the default basis ``e`` converts nothing and so
#: meets no degree cap.
DEFAULT_DEGREE_CAP = 8

#: Largest n for which ``stirling_symfunc`` builds F(n, r).  Row m of the
#: type recurrence visits every partition of m - 1, and from scratch F(n, 2)
#: took 0.8 s at n = 30 and 8.5 s at n = 40, about x3 work per five steps.
TYPE_SUM_MAX_N = 30

#: Largest |Q(n, r)| that a ``verify`` check enumerates for a user-given size.
#: Q(8, 2) has 2,027,025 words: ``verify --identity eulerian_oracle --n 8``
#: walks it and every smaller Q(k, 1) and Q(k, 2) in 16.3 s on a 2-vCPU VM.
#: Q(9, 2) has 34,459,425 words.
ENUMERATION_MAX_WORDS = 2_500_000

#: Largest |Q(n, r)| * 2r * nr that ``verify --identity equidist`` types for a
#: user-given size: each word is typed for 2r kinds at O(nr) each.  Among the
#: accepted sizes Q(9, 1) (6,531,840) took 15.8 s and Q(7, 2) (7,567,560)
#: 12.4 s on a 2-vCPU VM; Q(2, 200) (32,160,000) took 11.1 s, and Q(2, 1000)
#: would run for about 17 minutes.
TYPING_MAX_WORK = 8_000_000

#: Largest n for which ``normalized_trees`` walks the trees: ``enumerate --what
#: trees --n 9`` streams 2,027,025 trees in about 34 s at a 17 MB peak, and
#: n = 10 would take 17 times as long.
NORMALIZED_MAX_N = 9

#: Largest n for which ``colored_generating_function`` walks the colorings:
#: n = 6 takes about 1.5 s per kind and n = 7 several minutes.
COLORED_MAX_N = 6

#: Largest interval that ``posets.interval`` materializes.  Its order, one
#: down-set bitset per element, is built one pair of set-partition (or
#: subset) groups at a time: each interval accepted is ordered, validated and
#: inverted in at most about 1.1 s, and "pi" at n=6 below (1, 1, 1, 1, 1),
#: 4,657 elements, would take about 3 s (2-vCPU Xeon VM, Python 3.11).
INTERVAL_MAX_ELEMENTS = 2_000

#: Largest |lam| that ``moduli.wp_volume`` evaluates.  On a 2-vCPU Xeon VM
#: with Python 3.11 the slowest partition of 30, (5,4,3,3,2,2,2,1^9), takes
#: about 2 s and the slowest of 31 about 2.6 s.
WP_MAX_N = 30


class DegreeCapError(ValueError):
    """Raised when an operation would exceed the configured degree cap."""


def _check_cap(degree: int, cap: int) -> None:
    if degree > cap:
        raise DegreeCapError(
            f"degree {degree} exceeds the cap {cap}; pass a larger cap explicitly"
        )


def check_degree(degree: int) -> None:
    """Refuse a symmetric function of degree above ``DEFAULT_DEGREE_CAP``."""
    _check_cap(degree, DEFAULT_DEGREE_CAP)


def check_type_sum_limit(n: int) -> None:
    """Refuse, before any work, a type sum F(n, r) above ``TYPE_SUM_MAX_N``."""
    if n > TYPE_SUM_MAX_N:
        raise ValueError(f"n={n} exceeds the type-sum limit {TYPE_SUM_MAX_N}")


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


def check_normalized_limit(n: int) -> None:
    """Refuse, before any tree is built, the normalized trees on [n] above
    ``NORMALIZED_MAX_N``."""
    if n > NORMALIZED_MAX_N:
        raise ValueError(f"n={n} exceeds the normalized-tree limit {NORMALIZED_MAX_N}")


def check_colored_limit(n: int, name: str = "n") -> None:
    """Refuse, before the walk, the colorings of trees on [n] above
    ``COLORED_MAX_N``; ``name`` is the size's name in the message."""
    if n > COLORED_MAX_N:
        raise ValueError(f"{name}={n} exceeds the colored-tree limit {COLORED_MAX_N}")


def interval_elements(kind: str, n: int, mu, elements) -> list:
    """The streamed ``elements`` of the kind's interval at n below mu, as a
    list; refused as soon as listing passes ``INTERVAL_MAX_ELEMENTS``, before
    any order is built."""
    listed = []
    for element in elements:
        if len(listed) == INTERVAL_MAX_ELEMENTS:
            raise ValueError(
                f"the {kind} interval at n={n} below mu={mu} has more than "
                f"{INTERVAL_MAX_ELEMENTS} elements, the interval limit "
                "(posets.INTERVAL_MAX_ELEMENTS)")
        listed.append(element)
    return listed


def _check_volume(lam) -> None:
    n = sum(lam)
    if n > WP_MAX_N:
        raise ValueError(f"|lambda| = {n} exceeds the volume limit {WP_MAX_N} "
                         "(moduli.WP_MAX_N)")


def _check_printable(n: int, r: int) -> None:
    # no coefficient exceeds |Q(n, r)|: refuse, before the recurrence, a
    # count with more digits than Python converts to text (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and r >= 1:
        count, bound = 1, 10 ** limit
        for k in range(1, n + 1):
            count *= (k - 1) * r + 1
            if count >= bound:
                raise ValueError(
                    f"|Q({n},{r})| has more than {limit} digits, the limit of "
                    "integer string conversion (sys.get_int_max_str_digits())")


def _check_expand(n: int, basis: str) -> None:
    # F(n, r) has degree n, and only basis e converts nothing
    if basis == "e":
        check_type_sum_limit(n)
    else:
        check_degree(n)


def _check_enumerate(what: str, n: int) -> None:
    # the words of Q(n, r) stream, and need no limit
    if what == "trees":
        check_normalized_limit(n)


def _check_mobius(kind: str, n: int, verify: bool) -> None:
    # the predicted coefficient converts a type sum of degree n-1 (pi) or n
    # (b); the interval itself is refused by interval_elements as it is listed
    if verify:
        check_degree(n - 1 if kind == "pi" else n)


def _check_tables(nmax: int) -> None:
    if nmax < 0:
        raise ValueError(f"--nmax must be nonnegative, got {nmax}")
    check_degree(nmax)


class Row:
    """One check or sized verb: the size options it takes, and the refusal
    that its work runs first.  A check's options are the ``verify`` options
    it accepts; ``refuse`` is None for a check that takes none."""

    __slots__ = ("options", "refuse")

    def __init__(self, options: tuple[str, ...], refuse=None):
        self.options = options
        self.refuse = refuse


#: Check or verb name -> its row.  The series checks convert coefficients of
#: degree up to the order (r = 1) or the order - 1 (r = 2); the descent checks
#: and ``invert`` sum types up to the same degree.  The poset checks pass each
#: interval they will build, streamed, to ``interval_elements`` before
#: building any.
ROWS = {
    "prop11": Row(("order",), check_degree),
    "prop12": Row(("order",), lambda order: check_degree(order - 1)),
    "thm13": Row(("order",), check_degree),
    "thm14": Row(("order",), lambda order: check_degree(order - 1)),
    "riordan": Row(("order",), check_type_sum_limit),
    "thm17": Row(("order",), lambda order: check_type_sum_limit(order - 1)),
    "eulerian_oracle": Row(("n",), lambda n: check_word_budget(n, 2)),
    "htoe": Row(("n",), check_degree),
    "lemma52": Row(("n",), check_type_sum_limit),
    "equidist": Row(("n", "r"), check_typing_budget),
    # Q(n-1, 2) is typed for two kinds, and the trees on [n] beside it
    "treeperm": Row(("n",), lambda n: check_typing_budget(max(n - 1, 0), 2)),
    "equicard": Row(()),
    "forbidden": Row(("order",), lambda order: check_degree(order - 1)),
    "drake": Row(("order",), lambda order: check_colored_limit(order, "order")),
    "inversion": Row(("order",), check_type_sum_limit),
    "thm62": Row(("n",), interval_elements),
    "thm64": Row(("n",), interval_elements),
    "thm65": Row(("n",), check_degree),
    "expand": Row(("n",), _check_expand),
    "enumerate": Row(("n",), _check_enumerate),
    "eulerian": Row(("n", "r"), _check_printable),
    "invert": Row(("coeffs", "order"), lambda kind, order: check_type_sum_limit(
        order - 1 if kind == "comp" else order)),
    "wp": Row(("lambda",), _check_volume),
    "mobius": Row(("n", "mu"), _check_mobius),
    "tables": Row(("nmax",), _check_tables),
}


def refuse(name: str, *args, **kwargs) -> None:
    """Run the refusal of row ``name``: ValueError when a size passes its limit."""
    ROWS[name].refuse(*args, **kwargs)
