import functools
import itertools
import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import stirlingsym.symfunc as symfunc
from stirlingsym.partitions import conjugate, parse_rational, partitions_of, z_of
from stirlingsym.symfunc import (
    BASES,
    DegreeCapError,
    SymFunc,
    TPoly,
    basis_element,
    character,
    convert,
    evaluate_h,
    multiply,
    omega,
    specialize_E,
)

T = TPoly.t()
ONE = TPoly.const(1)


def symfunc_from_json(data) -> SymFunc:
    """Read back the form of :meth:`SymFunc.to_json`."""
    return SymFunc(data["basis"],
                   {tuple(t["partition"]): parse_rational(t["coeff"]) for t in data["terms"]})


def tpoly_from_json(data) -> TPoly:
    """Read back the form of :meth:`TPoly.to_json`."""
    return TPoly({int(e): parse_rational(c) for e, c in data})


def two_variable_expansion(terms, basis):
    """Oracle: expand an e/h combination in two variables x1, x2."""

    def gen(k):
        # monomial dict (i, j) -> coeff for e_k or h_k in two variables
        if basis == "e":
            pool = itertools.combinations(range(2), k)
        else:
            pool = itertools.combinations_with_replacement(range(2), k)
        out = {}
        for pick in pool:
            key = (pick.count(0), pick.count(1))
            out[key] = out.get(key, 0) + 1
        return out

    total = {}
    for lam, c in terms.items():
        poly = {(0, 0): 1}
        for part in lam:
            g = gen(part)
            nxt = {}
            for (a, b), u in poly.items():
                for (i, j), v in g.items():
                    key = (a + i, b + j)
                    nxt[key] = nxt.get(key, 0) + u * v
            poly = nxt
        for key, v in poly.items():
            total[key] = total.get(key, 0) + c * v
    return {k: v for k, v in total.items() if v}


def test_h2_in_e_basis_matches_two_variable_oracle():
    # degree two lives faithfully in two variables
    lhs = two_variable_expansion({(2,): 1}, "h")
    rhs = two_variable_expansion({(1, 1): 1, (2,): -1}, "e")
    assert lhs == rhs
    assert convert(basis_element("h", (2,)), "e") == SymFunc(
        "e", {(1, 1): 1, (2,): -1}
    )


def test_monomial_expansions():
    f = basis_element("e", (2,)) + basis_element("e", (1, 1))
    assert convert(f, "m") == SymFunc("m", {(2,): 1, (1, 1): 3})
    g = (
        basis_element("e", (3,))
        + 4 * basis_element("e", (2, 1))
        + basis_element("e", (1, 1, 1))
    )
    assert convert(g, "s") == SymFunc("s", {(3,): 1, (2, 1): 6, (1, 1, 1): 6})


@pytest.mark.parametrize("d", range(9))
def test_roundtrip_all_basis_pairs(d):
    for b1 in BASES:
        for lam in partitions_of(d):
            x = basis_element(b1, lam)
            for b2 in BASES:
                assert convert(convert(x, b2), b1) == x


def test_newton_identity():
    # n e_n = sum_{i=1}^{n} (-1)^(i-1) e_(n-i) p_i
    for n in range(1, 9):
        total = SymFunc.zero("e")
        for i in range(1, n + 1):
            term = multiply(
                basis_element("e", (n - i,) if n - i else ()),
                basis_element("p", (i,)),
            )
            total = total + (-1) ** (i - 1) * term
        assert total == n * basis_element("e", (n,))


def power_sum_poly(k, d):
    """p_k expanded in exactly d variables."""
    return {tuple(k if j == i else 0 for j in range(d)): 1 for i in range(d)}


def row_fillings(k, caps, binary):
    """Every row of entries at most ``caps`` (and at most 1 when ``binary``)
    that sums to k."""
    if not caps:
        if not k:
            yield ()
        return
    for x in range(min(k, caps[0], 1 if binary else k) + 1):
        for rest in row_fillings(k - x, caps[1:], binary):
            yield (x,) + rest


@functools.lru_cache(maxsize=None)
def margin_count(rows, cols, binary):
    """Oracle: the number of matrices with row sums ``rows`` and column sums
    ``cols`` whose entries are 0 or 1 (``binary``) or any natural number.

    [m_mu] e_lam counts the 0-1 matrices with margins (lam, mu), and
    [m_mu] h_lam the N-matrices (Stanley, EC2 7.4.1 and 7.5.1).  Rows are
    filled one at a time; columns are interchangeable, so the column sums
    left over are kept as a partition.
    """
    if not rows:
        return int(not cols)
    total = 0
    for fill in row_fillings(rows[0], cols, binary):
        rest = sorted((c - f for c, f in zip(cols, fill) if c > f), reverse=True)
        total += margin_count(rows[1:], tuple(rest), binary)
    return total


@functools.lru_cache(maxsize=None)
def monomial_expansion(basis, lam):
    """Oracle: the m-expansion of one basis element of degree d = |lam|.

    p_lam is expanded in d variables, which is faithful at degree d, and read
    at partition exponents; s_lam goes to p by characters; e_lam and h_lam
    count matrices with margins (lam, mu).
    """
    d = sum(lam)
    if basis == "m":
        return {lam: Fraction(1)}
    if basis in ("e", "h"):
        counts = {mu: margin_count(lam, mu, basis == "e") for mu in partitions_of(d)}
        return {mu: Fraction(c) for mu, c in counts.items() if c}
    out = {}
    if basis == "s":
        for mu in partitions_of(d):
            weight = Fraction(character(lam, mu), z_of(mu))
            for nu, c in monomial_expansion("p", mu).items():
                out[nu] = out.get(nu, 0) + weight * c
    else:
        poly = {(0,) * d: 1}
        for part in lam:
            poly = symfunc._poly_mul(poly, power_sum_poly(part, d))
        for mu in partitions_of(d):
            out[mu] = Fraction(poly.get(mu + (0,) * (d - len(mu)), 0))
    return {mu: c for mu, c in out.items() if c}


@pytest.mark.parametrize("basis", ["e", "h"])
def test_e_and_h_in_m_count_matrices_with_given_margins(basis):
    for d in range(9):
        for lam in partitions_of(d):
            got = convert(basis_element(basis, lam), "m")
            assert got.terms == monomial_expansion(basis, lam), lam


def m_pivot(f):
    """Oracle: f in the monomial basis, term by term."""
    out = {}
    for lam, c in f.terms.items():
        for mu, entry in monomial_expansion(f.basis, lam).items():
            out[mu] = out.get(mu, 0) + c * entry
    return {mu: c for mu, c in out.items() if c}


@pytest.mark.parametrize("d", range(9))
def test_conversions_with_p_or_s_at_one_end_match_the_m_pivot(d):
    # every basis has an invertible transition to m at degree d, so two
    # elements agree exactly when their m-expansions do
    pairs = [(a, b) for a in BASES for b in BASES if a != b and {a, b} & {"p", "s"}]
    assert len(pairs) == 14
    for source, target in pairs:
        for lam in partitions_of(d):
            x = basis_element(source, lam)
            y = convert(x, target)
            assert y.basis == target
            assert m_pivot(y) == m_pivot(x), (source, target, lam)


def test_cross_basis_equality_compares_in_p(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("no d-variable transition matrix may be built")

    monkeypatch.setattr(symfunc, "_to_m_matrix", no_matrix)
    monkeypatch.setattr(symfunc, "_from_m_matrix", no_matrix)
    h2 = basis_element("h", (2,))
    assert h2 == SymFunc("e", {(1, 1): 1, (2,): -1})
    assert h2 != basis_element("e", (2,))
    assert h2 == SymFunc("m", {(2,): 1, (1, 1): 1})
    assert basis_element("s", (2, 1)) == SymFunc("m", {(2, 1): 1, (1, 1, 1): 2})
    assert basis_element("e", (8,)) == SymFunc("m", {(1,) * 8: 1})


def random_symfunc(rng, max_degree, basis=None):
    basis = basis or rng.choice(BASES)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, max_degree)
        lam = rng.choice(partitions_of(d))
        terms[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return SymFunc(basis, terms)


def test_omega_is_an_involution_on_random_elements():
    rng = random.Random(424242)
    for _ in range(500):
        f = random_symfunc(rng, 6)
        assert omega(omega(f)) == f


def test_omega_examples():
    assert omega(basis_element("h", (3,))) == basis_element("e", (3,))
    assert omega(basis_element("s", (2, 1))) == basis_element("s", (2, 1))
    assert omega(basis_element("s", (3,))) == basis_element("s", (1, 1, 1))
    # power sums pick up the sign (-1)^(|lam| - len(lam))
    assert omega(basis_element("p", (2, 1))) == -1 * basis_element("p", (2, 1))


def hook_length_dimension(lam):
    """Oracle: number of standard tableaux via the hook length formula."""
    if not lam:
        return 1
    conj = conjugate(lam)
    n = sum(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return factorial(n) // denom


def test_character_dimensions_match_hook_lengths():
    for n in range(8):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert character(lam, ones) == hook_length_dimension(lam)


def test_character_orthogonality():
    # sum_mu chi^a(mu) chi^b(mu) / z_mu = delta_(a,b)
    for n in range(1, 7):
        for a in partitions_of(n):
            for b in partitions_of(n):
                total = sum(
                    Fraction(character(a, mu) * character(b, mu), z_of(mu))
                    for mu in partitions_of(n)
                )
                assert total == (1 if a == b else 0)


def test_character_examples_and_errors():
    for mu in partitions_of(4):
        assert character((4,), mu) == 1
    assert character((1, 1, 1), (3,)) == 1
    assert character((2, 1), (1, 1, 1)) == 2
    with pytest.raises(ValueError):
        character((2, 1), (2,))


def test_schur_power_sum_transition():
    # p_mu = sum_lam chi^lam(mu) s_lam and its inverse, degrees up to 7
    for n in range(8):
        for mu in partitions_of(n):
            p = basis_element("p", mu)
            s = convert(p, "s")
            assert s.terms == {
                lam: Fraction(character(lam, mu))
                for lam in partitions_of(n)
                if character(lam, mu)
            }
            assert convert(s, "p") == p


def test_specialize_E_examples():
    assert specialize_E(basis_element("e", (2, 2, 1))) == TPoly({3: 1})
    assert specialize_E(basis_element("h", (3,))) == T * (T - ONE) ** 2
    assert specialize_E(SymFunc.one()) == ONE


def test_specialize_E_is_multiplicative():
    rng = random.Random(99)
    for _ in range(60):
        f = random_symfunc(rng, 5)
        g = random_symfunc(rng, 3)
        assert specialize_E(multiply(f, g)) == specialize_E(f) * specialize_E(g)


def test_evaluate_h():
    assert evaluate_h(basis_element("h", (2, 1)), {1: 2, 2: 3}) == 6
    f = 2 * basis_element("h", (1, 1)) - basis_element("h", (2,))
    assert evaluate_h(f, {1: 1, 2: 1}) == 1
    assert evaluate_h(SymFunc.one(), {}) == 1
    with pytest.raises(ValueError):
        evaluate_h(basis_element("h", (3,)), {1: 1})


def convert_then_specialize_E(f):
    """Oracle: the route through the e basis, t^(l(lam)) on each e_lam."""
    out = {}
    for lam, c in convert(f, "e").terms.items():
        out[len(lam)] = out.get(len(lam), 0) + c
    return TPoly(out)


def convert_then_evaluate_h(f, values):
    """Oracle: the route through the h basis, values multiplied over parts."""
    total = Fraction(0)
    for lam, c in convert(f, "h").terms.items():
        prod = Fraction(1)
        for part in lam:
            prod *= values[part]
        total += c * prod
    return total


small_partitions = st.integers(0, 7).flatmap(lambda d: st.sampled_from(partitions_of(d)))
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(BASES),
    st.dictionaries(small_partitions, small_fractions, max_size=5),
    st.lists(small_fractions, min_size=7, max_size=7),
)
def test_algebra_maps_match_the_conversion_route(basis, terms, images):
    f = SymFunc(basis, terms)
    values = {k: images[k - 1] for k in range(1, 8)}
    assert specialize_E(f) == convert_then_specialize_E(f)
    assert evaluate_h(f, values) == convert_then_evaluate_h(f, values)


def test_algebra_maps_need_no_conversion_for_multiplicative_bases(monkeypatch):
    def refuse(*args):
        raise AssertionError("no transition matrix may be built")

    monkeypatch.setattr(symfunc, "_to_m_matrix", refuse)
    monkeypatch.setattr(symfunc, "_from_m_matrix", refuse)
    # beyond the degree cap, since e, h and p inputs are mapped term by term
    assert specialize_E(basis_element("e", (9, 3))) == T * T
    assert specialize_E(basis_element("h", (9,))) == T * (T - ONE) ** 8
    assert specialize_E(basis_element("p", (2,))) == T * T - 2 * T
    values = {k: Fraction(1) for k in range(1, 10)}
    # with every h_k = 1, sum h_k y^k = 1/(1-y), so sum e_k y^k = 1+y and
    # sum p_k y^k / k = -log(1-y)
    assert evaluate_h(basis_element("e", (9,)), values) == 0
    assert evaluate_h(basis_element("e", (1, 1)), values) == 1
    assert evaluate_h(basis_element("p", (9,)), values) == 1
    with pytest.raises(ValueError, match="no value provided for h_3"):
        evaluate_h(basis_element("e", (3,)), {1: 1, 2: 1})


def test_algebra_maps_cap_the_conversions_they_still_make():
    with pytest.raises(DegreeCapError, match="exceeds the cap 8"):
        specialize_E(basis_element("m", (9,)))
    with pytest.raises(DegreeCapError, match="exceeds the cap 8"):
        evaluate_h(basis_element("s", (5, 4)), {k: 1 for k in range(1, 10)})


def test_multiplication():
    one = SymFunc.one("h")
    f = basis_element("h", (2, 1))
    assert multiply(one, f) == f
    assert multiply(
        basis_element("p", (2,)), basis_element("p", (1,))
    ) == basis_element("p", (2, 1))
    assert multiply(
        basis_element("e", (1,)), basis_element("e", (1,))
    ) == basis_element("e", (1, 1))
    # product carries the basis of the left factor
    g = multiply(basis_element("m", (1,)), basis_element("m", (1,)))
    assert g.basis == "m"
    assert g == SymFunc("m", {(2,): 1, (1, 1): 2})


def test_degree_cap_fails_loudly():
    f = basis_element("e", (5,))
    with pytest.raises(DegreeCapError):
        multiply(f, basis_element("e", (4,)))
    with pytest.raises(DegreeCapError):
        convert(basis_element("e", (9,)), "m")
    # explicit cap unlocks the computation
    assert multiply(f, basis_element("e", (4,)), cap=9) == basis_element(
        "e", (5, 4)
    )
    e9 = basis_element("e", (9,))
    assert convert(convert(e9, "p", cap=9), "e", cap=9) == e9


def test_mixed_degree_elements():
    f = basis_element("e", (2,)) + basis_element("e", (1,)) + SymFunc.one("e")
    m = convert(f, "m")
    assert m == SymFunc("m", {(1, 1): 1, (1,): 1, (): 1})
    assert convert(m, "e") == f


def test_symfunc_json_roundtrip():
    f = SymFunc("e", {(2, 1): Fraction(4), (1, 1): Fraction(-1, 2)})
    data = f.to_json()
    assert data["basis"] == "e"
    assert symfunc_from_json(data) == f
    # a denominator of 1 is also accepted on input
    g = symfunc_from_json(
        {"basis": "e", "terms": [{"partition": [2, 1], "coeff": "4/1"}]}
    )
    assert g == basis_element("e", (2, 1)) * 4


def test_rendering():
    f = SymFunc("m", {(2,): Fraction(2), (1, 1): Fraction(5)})
    assert str(f) == "2*m(2) + 5*m(1,1)"
    assert str(SymFunc.one("e")) == "1"
    assert str(SymFunc.zero()) == "0"
    g = SymFunc("h", {(3,): 1, (2, 1): -6, (1, 1, 1): 6})
    assert str(g) == "h(3) - 6*h(2,1) + 6*h(1,1,1)"


def test_concurrent_conversions_share_the_matrix_cache():
    # transition matrices live in lru_caches; hammer one degree from several
    # threads and check every result agrees with a serial conversion
    from concurrent.futures import ThreadPoolExecutor

    elements = [basis_element("h", lam) for lam in partitions_of(7)]
    expected = [convert(f, "m") for f in elements]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda f: convert(f, "m"), elements * 4))
    assert results == (expected * 4)


def test_tpoly_basics():
    p = (T + 1) * (T - 1)
    assert p == TPoly({2: 1, 0: -1})
    assert str(TPoly({1: 1, 2: 8, 3: 6})) == "t + 8*t^2 + 6*t^3"
    assert str(TPoly()) == "0"
    assert tpoly_from_json(p.to_json()) == p


def test_tpoly_power_takes_only_nonnegative_integer_exponents():
    assert (T + 1) ** 0 == ONE
    assert (T + 1) ** 3 == TPoly({0: 1, 1: 3, 2: 3, 3: 1})
    for base, n in ((TPoly.const(2), -1), (T + 1, -2), (T + 1, 1.5), (T, Fraction(2))):
        with pytest.raises(ValueError, match="nonnegative integer"):
            base ** n


def test_constants_hash_like_their_rationals():
    # equal objects must hash alike, or sets and dicts keep both
    for c in (0, 1, -3, Fraction(1, 2)):
        assert TPoly.const(c) == c
        assert hash(TPoly.const(c)) == hash(c)
        assert len({TPoly.const(c), c}) == 1
    assert len({T, TPoly.t(), ONE}) == 2


def naive_tpoly_product(a, b):
    """Oracle: Fraction convolution of the stored coefficients."""
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


tpolys = st.dictionaries(
    st.integers(0, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    max_size=5,
).map(TPoly)


@settings(max_examples=100, deadline=None)
@given(tpolys, tpolys, st.fractions(min_value=-9, max_value=9, max_denominator=12))
@example(TPoly(), T + 1, Fraction(0))
@example(TPoly.const(Fraction(-2, 3)), TPoly.const(Fraction(3, 4)), Fraction(1))
@example(T + 1, T - 1, Fraction(-1))  # the t terms cancel
@example(TPoly({0: Fraction(1, 2), 1: Fraction(1, 3)}),
         TPoly({0: Fraction(1, 2), 1: Fraction(-1, 3)}), Fraction(5, 6))
@example(TPoly({1: Fraction(1, 6), 2: Fraction(-1, 4)}),
         TPoly({0: Fraction(3, 2), 1: Fraction(1, 1)}), Fraction(2))
def test_tpoly_product_matches_fraction_convolution(a, b, q):
    prod = a * b
    assert prod.coeffs == naive_tpoly_product(a, b)
    for c in prod.coeffs.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    # scalar products keep their own path
    scaled = {e: c * q for e, c in a.coeffs.items() if c * q}
    assert (a * q).coeffs == scaled and (q * a).coeffs == scaled
    assert (a * 3).coeffs == {e: 3 * c for e, c in a.coeffs.items()}
