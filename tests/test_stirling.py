import copy
import itertools
import pickle
from functools import lru_cache

import pytest

from stirlingsym import cli, stirling
from stirlingsym.partitions import chain_type
from stirlingsym.stirling import (
    StirlingPerm,
    enumerate_stirling,
    enumerate_stirling_backtrack,
    eulerian_brute_force,
    eulerian_polynomial,
    stirling_symfunc,
    type_of,
)
from stirlingsym.symfunc import SymFunc, TPoly, convert, specialize_E

from expansion_tables import STATS_TABLE_N3, stats


def reverse(sp):
    """The reversed word; reversal preserves the nesting condition."""
    return StirlingPerm(tuple(reversed(sp.word)), sp.n, sp.r)


def occurrences(sp, a):
    if not 1 <= a <= sp.n:
        raise ValueError(f"letter {a} out of range 1..{sp.n}")
    return [i for i, x in enumerate(sp.word) if x == a]


def block(sp, a):
    """Index range [start, end] of the block of letter a (inclusive)."""
    occ = occurrences(sp, a)
    return occ[0], occ[-1]


def ring_segments(sp, a):
    """The r-1 (possibly empty) subwords between consecutive occurrences of a."""
    occ = occurrences(sp, a)
    return [tuple(sp.word[occ[j] + 1 : occ[j + 1]]) for j in range(sp.r - 1)]


def is_nested(word):
    """Oracle: direct check of the between-occurrences condition."""
    for i, j in itertools.combinations(range(len(word)), 2):
        if word[i] == word[j]:
            if any(word[k] < word[i] for k in range(i + 1, j)):
                return False
    return True


def multiset_filter_oracle(n, r):
    """Oracle: filter all distinct multiset permutations (n <= 4 only)."""
    letters = tuple(sorted(list(range(1, n + 1)) * r))
    return sorted(set(p for p in itertools.permutations(letters) if is_nested(p)))


def insertion_oracle(n, r):
    """Oracle: insert the block k^r of each new letter k into every gap of
    every word of Q(k-1, r), then sort."""
    words = [()]
    for k in range(1, n + 1):
        block = (k,) * r
        words = [w[:i] + block + w[i:] for w in words for i in range(len(w) + 1)]
    return sorted(words)


@pytest.mark.parametrize("n,r", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (4, 1)])
def test_enumeration_against_multiset_filter(n, r):
    got = [sp.word for sp in enumerate_stirling(n, r)]
    assert got == multiset_filter_oracle(n, r)


def test_enumeration_counts():
    # prod over k of ((k-1) r + 1)
    for r in (1, 2, 3):
        for n in range(6):
            expected = 1
            for k in range(1, n + 1):
                expected *= (k - 1) * r + 1
            assert sum(1 for _ in enumerate_stirling(n, r)) == expected
    assert len(list(enumerate_stirling(3, 2))) == 15
    assert len(list(enumerate_stirling(3, 3))) == 28
    assert len(list(enumerate_stirling(3, 1))) == 6


def test_bad_sizes_are_rejected_at_call_time():
    # before the first next(), so a caller fails where it asks
    with pytest.raises(ValueError):
        enumerate_stirling(-1, 2)
    with pytest.raises(ValueError):
        enumerate_stirling_backtrack(2, 0)


def test_validation_rejects_bad_words():
    with pytest.raises(ValueError):
        StirlingPerm((1, 2, 1, 2), 2, 2)  # crossing occurrences
    with pytest.raises(ValueError):
        StirlingPerm((1, 1, 3, 2, 2, 3), 3, 2)  # 2 inside the 3-block
    with pytest.raises(ValueError):
        StirlingPerm((1, 1, 2), 2, 2)  # wrong length
    with pytest.raises(ValueError):
        StirlingPerm((1, 1, 1, 1), 2, 2)  # wrong multiplicities


def test_stirling_perm_contract():
    sp = StirlingPerm([1, 1, 2, 2], 2, 2)
    assert sp.word == (1, 1, 2, 2) and (sp.n, sp.r) == (2, 2)
    same = StirlingPerm(word=(1, 1, 2, 2), n=2, r=2)
    assert sp == same and hash(sp) == hash(same) and len({sp, same}) == 1
    assert sp != StirlingPerm((1, 2, 2, 1), 2, 2)
    assert sp != ((1, 1, 2, 2), 2, 2)
    assert repr(sp) == "StirlingPerm(word=(1, 1, 2, 2), n=2, r=2)"
    assert eval(repr(sp), {"StirlingPerm": StirlingPerm}) == sp
    for name in ("word", "n", "r", "other"):
        with pytest.raises(AttributeError):
            setattr(sp, name, 1)
    with pytest.raises(AttributeError):
        del sp.word
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(sp, protocol)) == sp
    assert copy.deepcopy(sp) == sp and copy.copy(sp) == sp
    for args, message in [
        (((), -1, 2), "need n >= 0 and r >= 1"),
        (((), 2, 0), "need n >= 0 and r >= 1"),
        (((1, 1, 2), 2, 2), "word length 3 != n*r = 4"),
        (((1, 1, 3, 3), 2, 2), "letter 3 out of range 1..2"),
        (((1, 1, 1, 1), 2, 2), "every letter must occur exactly r times"),
        (((1, 2, 1, 2), 2, 2), "nesting condition violated in (1, 2, 1, 2)"),
    ]:
        with pytest.raises(ValueError) as info:
            StirlingPerm(*args)
        assert str(info.value) == message


def test_stats_table_rows():
    for text, (des, asc, pla, *_types) in STATS_TABLE_N3.items():
        word = tuple(int(ch) for ch in text)
        st = stats(StirlingPerm(word, 3, 2))
        assert (st["des"], st["asc"], st["pla"]) == (des, asc, (pla,)), text


def test_identity_permutation_stats():
    for n in range(1, 7):
        sp = StirlingPerm(tuple(range(1, n + 1)), n, 1)
        st = stats(sp)
        assert st["des"] == 1 and st["asc"] == n and st["pla"] == ()


def test_blocks_and_segments():
    theta = StirlingPerm((1, 2, 2, 2, 1, 4, 5, 5, 5, 4, 4, 1, 3, 3, 3), 5, 3)
    assert ring_segments(theta, 1) == [(2, 2, 2), (4, 5, 5, 5, 4, 4)]
    theta2 = StirlingPerm((1, 2, 2, 4, 5, 5, 7, 7, 4, 1, 3, 3, 6, 6), 7, 2)
    assert ring_segments(theta2, 1) == [(2, 2, 4, 5, 5, 7, 7, 4)]
    assert block(theta2, 1) == (0, 9)
    for a in range(1, 4):
        assert ring_segments(StirlingPerm((3, 2, 1), 3, 1), a) == []
    with pytest.raises(ValueError):
        block(theta2, 8)


def test_types_on_the_worked_example():
    theta = StirlingPerm((1, 5, 8, 8, 5, 1, 2, 4, 4, 6, 6, 7, 7, 2, 9, 9, 3, 3), 9, 2)
    assert type_of(theta, "AA") == (3, 3, 1, 1, 1)
    assert type_of(theta, "DA") == (2, 1, 1, 1, 1, 1, 1, 1)
    assert type_of(theta, "TN", 1) == (3, 2, 1, 1, 1, 1)
    assert type_of(theta, "IN", 1) == (3, 2, 1, 1, 1, 1)


def test_types_table_rows():
    for text, (_d, _a, _p, aa, da, tn, inn) in STATS_TABLE_N3.items():
        sp = StirlingPerm(tuple(int(ch) for ch in text), 3, 2)
        assert type_of(sp, "AA") == aa, text
        assert type_of(sp, "DA") == da, text
        assert type_of(sp, "TN", 1) == tn, text
        assert type_of(sp, "IN", 1) == inn, text


def test_reverse():
    sp = StirlingPerm((1, 1, 2, 2, 3, 3), 3, 2)
    assert reverse(sp).word == (3, 3, 2, 2, 1, 1)
    for theta in enumerate_stirling(3, 2):
        assert reverse(reverse(theta)) == theta
        assert stats(reverse(theta))["des"] == stats(theta)["asc"]
        assert type_of(reverse(theta), "AA") == type_of(theta, "DA")


@pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (3, 3)])
def test_type_lengths_refine_statistics(n, r):
    for sp in enumerate_stirling(n, r):
        st = stats(sp)
        assert len(type_of(sp, "AA")) == st["des"]
        assert len(type_of(sp, "DA")) == st["asc"]
        for j in range(1, r):
            assert len(type_of(sp, "TN", j)) == st["pla"][j - 1]
            assert len(type_of(sp, "IN", j)) == st["pla"][j - 1]


def test_types_partition_the_letter_count():
    for n, r in [(4, 2), (3, 3), (5, 1)]:
        for sp in enumerate_stirling(n, r):
            assert sum(type_of(sp, "AA")) == n
            assert sum(type_of(sp, "DA")) == n
            for j in range(1, r):
                assert sum(type_of(sp, "TN", j)) == n


def test_terminally_vs_initially_nested_differ_somewhere():
    # equality holds on all of Q(3, 2) but not in general; the earliest
    # counterexamples live among the 105 doubled-letter words on four values
    assert all(
        type_of(sp, "TN", 1) == type_of(sp, "IN", 1)
        for sp in enumerate_stirling(3, 2)
    )
    witnesses = [
        sp.word
        for sp in enumerate_stirling(4, 2)
        if type_of(sp, "TN", 1) != type_of(sp, "IN", 1)
    ]
    assert witnesses, "expected a TN/IN discrepancy on four values"
    # regression pin: the lexicographically first witness, checked by hand
    # (nested chains 1->3->4 vs 1->2 and 3->4)
    first = StirlingPerm(witnesses[0], 4, 2)
    assert first.word == (1, 2, 2, 3, 4, 4, 3, 1)
    assert type_of(first, "TN", 1) == (3, 1)
    assert type_of(first, "IN", 1) == (2, 2)


def test_type_sum_examples():
    assert convert(stirling_symfunc(2, 2), "m") == SymFunc("m", {(2,): 2, (1, 1): 5})
    assert stirling_symfunc(0, 3) == SymFunc.one("e")
    assert stirling_symfunc(3, 1) == SymFunc(
        "e", {(3,): 1, (2, 1): 4, (1, 1, 1): 1}
    )


def _size(n, r):
    size = 1
    for k in range(1, n + 1):
        size *= (k - 1) * r + 1
    return size


KIND_CASES = [
    (n, r, kind, j)
    for r in range(1, 5)
    for n in itertools.takewhile(lambda n: _size(n, r) <= 10**5, itertools.count())
    for kind, js in (("AA", [1]), ("DA", [1]), ("TN", range(1, r)), ("IN", range(1, r)))
    for j in js
]


SIZE_CASES = sorted({(n, r) for n, r, _kind, _j in KIND_CASES})


@pytest.mark.parametrize("n,r", SIZE_CASES)
def test_walk_matches_insertion_oracle(n, r):
    # same words in the same order; StirlingPerm validates every one
    streamed = [sp.word for sp in enumerate_stirling(n, r)]
    assert streamed == insertion_oracle(n, r)


@lru_cache(maxsize=1)
def _oracle_words(n, r):
    # a tuple, not the generator: the cache hands it to several tests
    return tuple(enumerate_stirling(n, r))


def _tally(values):
    tally = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    return tally


@pytest.mark.parametrize("n,r,kind,j", KIND_CASES)
def test_recurrences_match_enumeration(n, r, kind, j):
    # the recurrences build no word; enumeration is the oracle
    words = _oracle_words(n, r)
    types = _tally(type_of(sp, kind, j) for sp in words)
    assert stirling_symfunc(n, r, kind, j) == SymFunc("e", types)
    descents = _tally(stats(sp)["des"] for sp in words)
    assert eulerian_polynomial(n, r) == TPoly(descents)


def _ascending_adjacent_oracle(sp):
    """Oracle: a -> b when a < b and B(b) starts right after B(a) ends."""
    first, last = {}, {}
    for i, x in enumerate(sp.word):
        first.setdefault(x, i)
        last[x] = i
    starts = {i: a for a, i in first.items()}
    succ = {}
    for a in range(1, sp.n + 1):
        b = starts.get(last[a] + 1)
        if b is not None and a < b:
            succ[a] = b
    return chain_type(succ, range(1, sp.n + 1))


def _terminally_nested_oracle(sp, j):
    """Oracle: a -> the last letter of the j-th gap of B(a), when nonempty."""
    positions = {a: [] for a in range(1, sp.n + 1)}
    for i, x in enumerate(sp.word):
        positions[x].append(i)
    succ = {}
    for a, pos in positions.items():
        if pos[j] - pos[j - 1] > 1:
            succ[a] = sp.word[pos[j] - 1]
    return chain_type(succ, range(1, sp.n + 1))


@pytest.mark.parametrize("n,r", SIZE_CASES)
def test_types_match_the_reversal_definitions(n, r):
    # the reversal route: DA and IN_j are AA and TN_(r-j) of the reversed word
    for sp in _oracle_words(n, r):
        rev = reverse(sp)
        assert type_of(sp, "AA") == _ascending_adjacent_oracle(sp), sp.word
        assert type_of(sp, "DA") == _ascending_adjacent_oracle(rev), sp.word
        for j in range(1, r):
            assert type_of(sp, "TN", j) == _terminally_nested_oracle(sp, j), sp.word
            assert type_of(sp, "IN", j) == _terminally_nested_oracle(rev, r - j), sp.word


def test_bad_kind_is_rejected():
    with pytest.raises(ValueError):
        stirling_symfunc(3, 1, "TN", 1)
    with pytest.raises(ValueError):
        stirling_symfunc(3, 2, "TN", 2)
    with pytest.raises(ValueError):
        stirling_symfunc(3, 2, "XX")
    # j is an argument of TN and IN only
    for kind in ("AA", "DA"):
        with pytest.raises(ValueError, match=f"kind {kind} takes no j"):
            stirling_symfunc(4, 2, kind, 5)


def test_production_route_builds_no_word(monkeypatch, capsys):
    def refuse(n, r):
        raise AssertionError(f"enumerated Q({n}, {r})")

    monkeypatch.setattr(stirling, "_walk", refuse)
    stirling._type_tally.cache_clear()
    stirling._descent_tally.cache_clear()
    f = stirling_symfunc(9, 2)
    assert sum(f.terms.values()) == _size(9, 2) == 34_459_425
    poly = eulerian_polynomial(40, 2)
    assert sum(poly.coeffs.values()) == _size(40, 2)
    # the degree cap refuses F(9, 2) in m at once, not after 34M words
    assert cli.main(["expand", "--n", "9", "--r", "2", "--basis", "m"]) == 2
    assert "degree 9 exceeds the cap 8" in capsys.readouterr().err


def test_each_type_row_steps_from_the_cached_row_below():
    stirling._type_tally.cache_clear()
    stirling_symfunc(12, 2)
    info = stirling._type_tally.cache_info()
    assert (info.misses, info.currsize) == (13, 13)  # rows 0..12
    stirling_symfunc(13, 2)
    assert stirling._type_tally.cache_info().misses == 14


def test_a_row_stepped_from_a_partly_filled_cache_matches_enumeration():
    stirling._type_tally.cache_clear()
    stirling_symfunc(3, 2)
    words = _oracle_words(6, 2)
    assert len(words) == 10_395
    for kind in ("AA", "DA", "TN", "IN"):
        types = _tally(type_of(sp, kind) for sp in words)
        assert stirling_symfunc(6, 2, kind) == SymFunc("e", types), kind


def test_the_descent_row_keeps_its_loop():
    # eulerian --n 1423 is accepted: a recursive row would pass the default
    # recursion limit and keep every row below it
    stirling._descent_tally.cache_clear()
    eulerian_polynomial(40, 2)
    assert stirling._descent_tally.cache_info().currsize == 1


def test_eulerian_polynomials():
    assert str(eulerian_polynomial(3, 2)) == "t + 8*t^2 + 6*t^3"
    assert eulerian_polynomial(1, 5) == TPoly({1: 1})
    assert eulerian_polynomial(0, 2) == TPoly.const(1)
    assert str(eulerian_polynomial(4, 1)) == "t + 11*t^2 + 11*t^3 + t^4"
    for n, r in [(3, 2), (4, 2), (4, 1), (3, 3)]:
        assert eulerian_polynomial(n, r) == eulerian_brute_force(n, r)


def test_eulerian_is_the_specialized_type_sum():
    for n, r in [(0, 2), (2, 2), (4, 2), (3, 3), (4, 1)]:
        assert specialize_E(stirling_symfunc(n, r)) == eulerian_polynomial(n, r)


def test_serialization():
    sp = StirlingPerm((1, 2, 2, 1), 2, 2)
    assert sp.to_json() == [1, 2, 2, 1]
    assert str(sp) == "1221"
