import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from stirlingsym.partitions import partitions_of
from stirlingsym.series import QQ, QT, SymFuncRing, TruncatedSeries, symfunc_egf
from stirlingsym.stirling import eulerian_polynomial
from stirlingsym.symfunc import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    SymFunc,
    TPoly,
    basis_element,
    convert,
    specialize_E,
)

ORDER = 6


def random_element(ring, rng, max_degree=3):
    # rationals over Q and Q[t] draw their denominators independently, so
    # sums of products meet unequal denominators
    if ring is QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    if ring is QT:
        return TPoly({e: Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                      for e in range(rng.randint(0, 3))})
    terms = {}
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(0, max_degree)
        terms[rng.choice(partitions_of(d))] = Fraction(rng.randint(-5, 5))
    return SymFunc(ring.one().basis, terms)


def random_series_coeffs(ring, rng, order):
    # over the symmetric functions keep deg(a_n) <= max(0, n-1) so that
    # composition and inversion stay inside the default degree cap, the same
    # shape the generating-function identities have
    return [
        random_element(ring, rng, max_degree=max(0, n - 1))
        for n in range(order + 1)
    ]


def random_unit(ring, rng):
    return ring.from_rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))


def series_from(ring, flavor, order, coeffs):
    # EGF coefficients are semantic, of y^n/n!
    if flavor == "egf":
        return TruncatedSeries.from_egf_coefficients(ring, order, coeffs)
    return TruncatedSeries.from_coefficients(ring, flavor, order, coeffs)


RINGS = [QQ, QT, SymFuncRing(basis="h")]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("flavor", ["ogf", "egf"])
def test_generic_ring_roundtrips(ring, flavor):
    # the identical suite runs over Q, Q[t] and the symmetric functions
    rng = random.Random(len(ring.name) * 1000 + len(flavor))
    one = TruncatedSeries.one(ring, flavor, ORDER)
    ident = TruncatedSeries.identity(ring, flavor, ORDER)
    for _ in range(50):
        coeffs = random_series_coeffs(ring, rng, ORDER)
        coeffs[0] = random_unit(ring, rng)
        f = TruncatedSeries(ring, flavor, ORDER, coeffs)
        assert f.mul(one) == f
        assert f.mul(f.inv()) == one
        assert f.inv().inv() == f
    for _ in range(8):
        coeffs = random_series_coeffs(ring, rng, ORDER)
        coeffs[0] = ring.zero()
        coeffs[1] = random_unit(ring, rng)
        g = TruncatedSeries(ring, flavor, ORDER, coeffs)
        assert g.compose(ident) == g
        assert g.compose(g.comp_inverse()) == ident
        assert g.comp_inverse().compose(g) == ident


def test_geometric_series_inverse():
    ones = TruncatedSeries.from_coefficients(
        QQ, "ogf", ORDER, [Fraction(1)] * (ORDER + 1)
    )
    one_minus_y = TruncatedSeries.from_coefficients(
        QQ, "ogf", ORDER, [Fraction(1), Fraction(-1)]
    )
    assert one_minus_y.mul(ones) == TruncatedSeries.one(QQ, "ogf", ORDER)


def test_egf_exponential_product():
    # e^y * e^y = e^(2y): semantic coefficients 2^n
    e = TruncatedSeries.from_egf_coefficients(QQ, ORDER, [Fraction(1)] * (ORDER + 1))
    sq = e.mul(e)
    for n in range(ORDER + 1):
        assert sq.egf_coefficient(n) == 2**n


def test_alternating_e_series_inverts_to_h():
    ring = SymFuncRing(basis="e")
    N = 6
    alt_e = TruncatedSeries.from_coefficients(
        ring,
        "ogf",
        N,
        [(-1) ** n * basis_element("e", (n,) if n else ()) for n in range(N + 1)],
    )
    h = TruncatedSeries.from_coefficients(
        ring,
        "ogf",
        N,
        [convert(basis_element("h", (n,) if n else ()), "e") for n in range(N + 1)],
    )
    assert alt_e.inv() == h


def test_egf_inverse_second_coefficient():
    F = symfunc_egf(4, lambda n: (-1) ** n * basis_element("h", (n,) if n else ()))
    inv = F.inv()
    expected = 2 * basis_element("h", (1, 1)) - basis_element("h", (2,))
    assert inv.egf_coefficient(2) == expected


def test_comp_inverse_doubled_letter_coefficients():
    def lhs(n):
        if n == 0:
            return SymFunc.zero("h")
        return (-1) ** (n - 1) * basis_element("h", (n - 1,) if n > 1 else ())

    inv = symfunc_egf(5, lhs).comp_inverse()
    assert inv.egf_coefficient(2) == basis_element("h", (1,))
    assert convert(inv.egf_coefficient(4), "h") == SymFunc(
        "h", {(3,): 1, (2, 1): -10, (1, 1, 1): 15}
    )


def test_classical_ogf_compositional_pair():
    # y/(1-y) and y/(1+y)
    N = 8
    a = TruncatedSeries.from_coefficients(
        QQ, "ogf", N, [Fraction(0)] + [Fraction(1)] * N
    )
    b = TruncatedSeries.from_coefficients(
        QQ, "ogf", N, [Fraction(0)] + [Fraction((-1) ** (n - 1)) for n in range(1, N + 1)]
    )
    ident = TruncatedSeries.identity(QQ, "ogf", N)
    assert a.compose(b) == ident
    assert a.comp_inverse() == b


def specialize_series(series):
    """Apply the e_i -> t map to every coefficient of a series over Lambda."""
    return TruncatedSeries(
        QT,
        series.flavor,
        series.order,
        [specialize_E(c) for c in series.coeffs],
    )


def test_specialization_commutes_with_composition():
    # 20 random symmetric-function series of order 5, both routes
    ring = SymFuncRing(basis="e")
    rng = random.Random(314159)
    N = 5
    for _ in range(20):
        outer = random_series_coeffs(ring, rng, N)
        inner = random_series_coeffs(ring, rng, N)
        inner[0] = ring.zero()
        f = TruncatedSeries(ring, "egf", N, outer)
        g = TruncatedSeries(ring, "egf", N, inner)
        assert specialize_series(f.compose(g)) == specialize_series(f).compose(
            specialize_series(g)
        )


def test_symfunc_ring_cap_bounds_products():
    h5 = SymFunc("h", {(5,): 1})

    def square(cap):
        ring = SymFuncRing(basis="h", cap=cap)
        f = TruncatedSeries.from_coefficients(ring, "ogf", 2, [ring.one(), h5])
        return f.mul(f)

    assert square(12).coefficient(2) == SymFunc("h", {(5, 5): 1})
    with pytest.raises(DegreeCapError, match="cap 9"):
        square(9)
    with pytest.raises(DegreeCapError, match="cap 8"):
        square(DEFAULT_DEGREE_CAP)


def naive_product(ring, a, b):
    """Oracle: one product by definition, the Fraction product over Q and
    the Fraction convolution over Q[t]; over Lambda the ring's own capped
    product."""
    if ring is QQ:
        return a * b
    if ring is QT:
        out = {}
        for ea, ca in a.coeffs.items():
            for eb, cb in b.coeffs.items():
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
        return TPoly(out)
    return ring.mul(a, b)


def pairwise_mul(f, g):
    """Oracle: the Cauchy product added up one ring product at a time."""
    ring = f.ring
    out = [ring.zero()] * (f.order + 1)
    for i, a in enumerate(f.coeffs):
        for j in range(f.order + 1 - i):
            out[i + j] = out[i + j] + naive_product(ring, a, g.coeffs[j])
    return TruncatedSeries(ring, f.flavor, f.order, out)


def pairwise_inv(f):
    """Oracle: the triangular Cauchy recurrence, one ring product at a time."""
    ring = f.ring
    inv0 = ring.invert(f.coeffs[0])
    out = [inv0]
    for n in range(1, f.order + 1):
        acc = ring.zero()
        for k in range(1, n + 1):
            acc = acc + naive_product(ring, f.coeffs[k], out[n - k])
        out.append(-naive_product(ring, inv0, acc))
    return TruncatedSeries(ring, f.flavor, f.order, out)


def pairwise_compose(f, g):
    """Oracle: f(g) as the sum of f_k g^k, the powers by ``pairwise_mul``."""
    ring = f.ring
    out = [f.coeffs[0]] + [ring.zero()] * f.order
    power = TruncatedSeries.one(ring, f.flavor, f.order)
    for k in range(1, f.order + 1):
        power = pairwise_mul(power, g)
        for n in range(f.order + 1):
            out[n] = out[n] + naive_product(ring, f.coeffs[k], power.coeffs[n])
    return TruncatedSeries(ring, f.flavor, f.order, out)


# with deg(a_n) <= n-1 every product of an order-10 mul, inv or compose stays
# within degree 9; the h basis multiplies by joining partitions
PRODUCT_RINGS = [QQ, QT, SymFuncRing(basis="h", cap=10)]


def sparse_series_coeffs(ring, rng, order):
    """Random coefficients of which about a third are zero."""
    return [ring.zero() if rng.random() < 0.35 else c
            for c in random_series_coeffs(ring, rng, order)]


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("order", range(11))
def test_series_products_match_pairwise_oracle(ring, order):
    rng = random.Random(1000 * order + len(ring.name))
    for _ in range(3):
        f = TruncatedSeries(ring, "ogf", order, sparse_series_coeffs(ring, rng, order))
        g = TruncatedSeries(ring, "egf", order, sparse_series_coeffs(ring, rng, order))
        assert f.mul(f) == pairwise_mul(f, f)
        assert g.mul(g) == pairwise_mul(g, g)
        unit_led = TruncatedSeries(ring, "ogf", order,
                                   (random_unit(ring, rng),) + f.coeffs[1:])
        assert unit_led.inv() == pairwise_inv(unit_led)
        assert unit_led.mul(f) == pairwise_mul(unit_led, f)
        inner = TruncatedSeries(ring, "ogf", order, (ring.zero(),) + f.coeffs[1:])
        assert unit_led.compose(inner) == pairwise_compose(unit_led, inner)


@pytest.mark.parametrize("ring", PRODUCT_RINGS + [SymFuncRing(basis="m")],
                         ids=lambda r: r.name)
def test_ring_dot_is_the_sum_of_pairwise_products(ring):
    zero = ring.zero()
    rng = random.Random(len(ring.name))
    assert same(ring.dot((), ()), zero)
    others = [random_element(ring, rng) for _ in range(4)]
    assert same(ring.dot([zero] * 4, others), zero)
    assert same(ring.dot(others, [zero] * 4), zero)
    for length in range(1, 8):
        xs = [random_element(ring, rng) for _ in range(length)]
        ys = [random_element(ring, rng) for _ in range(length)]
        expected = zero
        for x, y in zip(xs, ys):
            expected = expected + naive_product(ring, x, y)
        assert same(ring.dot(xs, ys), expected)
        assert same(ring.mul(xs[0], ys[0]), zero + naive_product(ring, xs[0], ys[0]))


def test_series_products_accumulate_in_the_kernel(monkeypatch):
    # the thm17 closed form and the riordan denominator 1 - tG at order 12,
    # built before additions of t-polynomials are forbidden
    order = 12
    t, one = TPoly.t(), TPoly.const(1)
    thm17 = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly(), one] + [-t * (one - t) ** (n - 2) for n in range(2, order + 1)]
    )
    riordan = TruncatedSeries.from_egf_coefficients(
        QT, order, [one] + [-t * (one - t) ** (n - 1) for n in range(1, order + 1)]
    )
    second_order = [TPoly()] + [eulerian_polynomial(n, 2) for n in range(order)]
    first_order = [eulerian_polynomial(n, 1) for n in range(order + 1)]
    assert second_order[3] == TPoly({1: 1, 2: 2})

    def no_add(self, other):
        raise AssertionError("a series product added t-polynomials pair by pair")

    monkeypatch.setattr(TPoly, "__add__", no_add)
    monkeypatch.setattr(TPoly, "__radd__", no_add)
    inverse = thm17.comp_inverse()
    assert [inverse.egf_coefficient(n) for n in range(order + 1)] == second_order
    reciprocal = riordan.inv()
    assert [reciprocal.egf_coefficient(n) for n in range(order + 1)] == first_order


def recomposition_inverse(f):
    """Oracle: the compositional inverse solved coefficient by coefficient.

    Only the linear term of f contributes g_n to the y^n coefficient of
    f(g), so each g_n is read off one full recomposition, O(N^4) products.
    """
    ring = f.ring
    inv1 = ring.invert(f.coeffs[1])
    g = [ring.zero(), inv1] + [ring.zero()] * (f.order - 1)
    for n in range(2, f.order + 1):
        candidate = TruncatedSeries(ring, f.flavor, f.order, g)
        g[n] = -ring.mul(inv1, f.compose(candidate).coeffs[n])
    return TruncatedSeries(ring, f.flavor, f.order, g)


def assert_comp_inverse_matches_oracle(f):
    g = f.comp_inverse()
    assert g == recomposition_inverse(f)
    ident = TruncatedSeries.identity(f.ring, f.flavor, f.order)
    assert f.compose(g) == ident
    assert g.compose(f) == ident


# each ring with the largest order its random series are inverted at
ORACLE_RINGS = [(QQ, 12), (QT, 10), (SymFuncRing(basis="h"), 8), (SymFuncRing(basis="m"), 8)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ORACLE_RINGS),
    st.integers(0, 2**32),
    st.sampled_from(["ogf", "egf"]),
    st.data(),
)
def test_comp_inverse_matches_recomposition(ring_and_order, seed, flavor, data):
    ring, max_order = ring_and_order
    order = data.draw(st.integers(1, max_order), label="order")
    rng = random.Random(seed)
    coeffs = random_series_coeffs(ring, rng, order)
    coeffs[0] = ring.zero()
    coeffs[1] = random_unit(ring, rng)
    f = series_from(ring, flavor, order, coeffs)
    assert_comp_inverse_matches_oracle(f)


@pytest.mark.parametrize("order", [1, 2, 5, 10])
def test_comp_inverse_of_thm17_closed_form(order):
    # y + sum_{n>=2} -t(1-t)^(n-2) y^n/n!, whose inverse has the second-order
    # Eulerian polynomials as coefficients
    t, one = TPoly.t(), TPoly.const(1)
    closed = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly(), one] + [-t * (one - t) ** (n - 2) for n in range(2, order + 1)]
    )
    assert_comp_inverse_matches_oracle(closed)


@pytest.mark.parametrize("basis", ["h", "m"])
@pytest.mark.parametrize("flavor", ["ogf", "egf"])
def test_comp_inverse_of_shifted_h_series(basis, flavor):
    # sum_{n>=1} (-1)^(n-1) h_(n-1) y^n at order 8: as an OGF this is the prop12
    # series, as an EGF the thm14 series
    ring = SymFuncRing(basis=basis)
    order = 8
    coeffs = [ring.zero()] + [
        convert((-1) ** (n - 1) * basis_element("h", (n - 1,) if n > 1 else ()), basis)
        for n in range(1, order + 1)
    ]
    f = series_from(ring, flavor, order, coeffs)
    assert_comp_inverse_matches_oracle(f)


def test_flavor_and_order_mismatch_rejected():
    a = TruncatedSeries.one(QQ, "ogf", 4)
    b = TruncatedSeries.one(QQ, "egf", 4)
    c = TruncatedSeries.one(QQ, "ogf", 5)
    with pytest.raises(ValueError):
        a.mul(b)
    with pytest.raises(ValueError):
        a.mul(c)


def test_inverse_preconditions():
    zero_const = TruncatedSeries.from_coefficients(QQ, "ogf", 3, [Fraction(0)])
    with pytest.raises(ValueError):
        zero_const.inv()
    with pytest.raises(ValueError):
        TruncatedSeries.identity(QQ, "ogf", 3).compose(
            TruncatedSeries.one(QQ, "ogf", 3)
        )
    with pytest.raises(ValueError):
        TruncatedSeries.one(QQ, "ogf", 3).comp_inverse()
    # at order 0 there is no linear coefficient to invert
    for f in (TruncatedSeries.identity(QQ, "ogf", 0), TruncatedSeries.one(QQ, "egf", 0)):
        with pytest.raises(ValueError, match="order must be at least 1"):
            f.comp_inverse()
    # over Lambda, a non-constant leading coefficient is not a unit
    ring = SymFuncRing(basis="e")
    f = TruncatedSeries.from_coefficients(ring, "ogf", 3, [basis_element("e", (1,))])
    with pytest.raises(ValueError):
        f.inv()


def test_egf_presentation_boundary():
    s = TruncatedSeries.from_egf_coefficients(QQ, 5, [Fraction(n) for n in range(6)])
    for n in range(6):
        assert s.coefficient(n) == Fraction(n, factorial(n))
        assert s.egf_coefficient(n) == n
    with pytest.raises(ValueError):
        TruncatedSeries.one(QQ, "ogf", 3).egf_coefficient(1)


def old_definitions(ring):
    """zero, one, rational embedding and unit test as each ring had them
    before the three rings shared one type."""
    if ring is QQ:
        return Fraction(0), Fraction(1), Fraction, lambda a: a != 0
    if ring is QT:
        return TPoly(), TPoly.const(1), TPoly.const, lambda a: set(a.coeffs) == {0}
    basis = ring.one().basis
    return (SymFunc.zero(basis), SymFunc.one(basis),
            lambda q: SymFunc(basis, {(): Fraction(q)}),
            lambda a: set(a.terms) == {()})


def same(a, b):
    """Equal, of one type and, for symmetric functions, in one basis."""
    return (type(a) is type(b) and a == b
            and getattr(a, "basis", None) == getattr(b, "basis", None))


@pytest.mark.parametrize("ring", [QQ, QT, SymFuncRing("h"), SymFuncRing("m")],
                         ids=lambda r: r.name)
def test_rings_behave_as_their_old_definitions(ring):
    zero, one, from_rational, is_unit = old_definitions(ring)
    assert same(ring.zero(), zero)
    assert same(ring.one(), one)
    for q in (Fraction(0), Fraction(1), Fraction(-3, 2), 7):
        assert same(ring.from_rational(q), from_rational(q))
    rng = random.Random(7)
    elements = [zero, one, from_rational(Fraction(-3, 2))]
    elements += [random_element(ring, rng) for _ in range(40)]
    if ring is QT:
        elements += [TPoly.t(), one + TPoly.t()]
    elif ring is not QQ:
        x = basis_element(one.basis, (1,))
        elements += [x, one + x, x * x - one]
    for a in elements:
        assert ring.is_zero(a) == (a == zero)
        assert ring.is_unit(a) == is_unit(a)
        if is_unit(a):
            assert same(ring.mul(ring.invert(a), a), one)
        else:
            with pytest.raises(ValueError, match=re.escape(ring.name)):
                ring.invert(a)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9),
        min_size=7,
        max_size=7,
    ),
    st.fractions(min_value=Fraction(1, 9), max_value=Fraction(9), max_denominator=9),
)
def test_inverse_roundtrip_property(coeffs, unit):
    coeffs = [unit] + coeffs[1:]
    f = TruncatedSeries(QQ, "ogf", 6, coeffs)
    assert f.mul(f.inv()) == TruncatedSeries.one(QQ, "ogf", 6)
