"""Truncated power series over a commutative coefficient ring.

A :class:`TruncatedSeries` stores coefficients a_0..a_N of sum a_n y^n.  The
flavor tag distinguishes ordinary from exponential generating functions, but
coefficients are always stored plain: for an EGF the semantic coefficient of
y^n/n! is n! * a_n, and the factorial bookkeeping happens only at the
presentation boundary (:meth:`TruncatedSeries.egf_coefficient` and the
``from_egf_coefficients`` constructor).  With that convention multiplication
and composition are the same Cauchy/substitution formulas for both flavors.

The coefficient ring is one :class:`Ring`: a name, its one, a map to an
element's constant term and a product kernel.  Ring elements support ``+``,
``-``, ``==``, truth testing (false exactly at zero) and multiplication by a
rational; every product of elements goes through ``Ring.dot``, the sum
x_1 y_1 + ... + x_k y_k of pairwise products, so a ring can bound each product
and accumulate the sum in its own representation: over Q and Q[t] in
integers, reduced once per result; over the symmetric functions as one join
of partitions in the work basis, converted once (``symfunc.dot``, whose
one-pair case is ``symfunc.multiply``).  Each coefficient of a series product
or multiplicative inverse is one ``dot``.  The paper's inversion identities
are read over Q (:data:`QQ`), Q[t] (:data:`QT`) and the symmetric functions
(:func:`SymFuncRing`), in each of which the units are the nonzero rational
constants; :func:`symfunc_ogf` and :func:`symfunc_egf` hold series over the
symmetric functions in p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial, lcm

from .symfunc import DEFAULT_DEGREE_CAP, SymFunc, TPoly, convert, dot

FLAVORS = ("ogf", "egf")


class Ring:
    """A coefficient ring whose units are the nonzero rational constants.

    ``one`` is the ring's one, ``constant(a)`` the rational constant term of
    an element and ``dot(xs, ys)`` the sum of the pairwise products of two
    equally long sequences of elements (zero when they are empty).
    """

    __slots__ = ("name", "_one", "_zero", "constant", "dot")

    def __init__(self, name: str, one, constant, dot):
        self.name = name
        self._one = one
        self._zero = one * 0
        self.constant = constant
        self.dot = dot

    def mul(self, a, b):
        """The product of two elements, the one-pair ``dot``."""
        return self.dot((a,), (b,))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_rational(self, q):
        return self._one * q

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        c = self.constant(a)
        return c != 0 and a == self._one * c

    def invert(self, a):
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit in {self.name}")
        return self._one * (Fraction(1) / self.constant(a))


def _rational_dot(xs, ys) -> Fraction:
    """sum x_i * y_i over Q: the integer numerators are summed over one
    running lcm of the denominators, and one Fraction is built at the end."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        n = x.numerator * y.numerator
        if not n:
            continue
        d = x.denominator * y.denominator
        if den % d:
            grown = lcm(den, d)
            num *= grown // den
            den = grown
        num += n * (den // d)
    return Fraction(num, den)


QQ = Ring("Q", Fraction(1), lambda a: a, _rational_dot)
QT = Ring("Q[t]", TPoly.const(1), lambda a: a.coeffs.get(0, 0), TPoly.dot)


def SymFuncRing(basis: str = "h", cap: int = DEFAULT_DEGREE_CAP) -> Ring:
    """The symmetric functions over Q, elements tagged with ``basis``.

    Products formed through the ring are capped at degree ``cap``.
    """
    return Ring(f"Lambda[{basis}]", SymFunc.one(basis), SymFunc.constant_term,
                partial(dot, basis=basis, cap=cap))


class TruncatedSeries:
    """Degree-capped power series with coefficients in an abstract ring."""

    __slots__ = ("ring", "flavor", "order", "coeffs")

    def __init__(self, ring, flavor: str, order: int, coeffs):
        if flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.ring = ring
        self.flavor = flavor
        self.order = order
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coefficients(cls, ring, flavor, order, coeffs) -> "TruncatedSeries":
        """Build from plain y^n coefficients (padded with zeros up to order)."""
        coeffs = list(coeffs)[: order + 1]
        coeffs += [ring.zero()] * (order + 1 - len(coeffs))
        return cls(ring, flavor, order, coeffs)

    @classmethod
    def from_egf_coefficients(cls, ring, order, coeffs) -> "TruncatedSeries":
        """Build an EGF from semantic coefficients c_n of y^n/n!."""
        plain = [
            c * Fraction(1, factorial(n))
            for n, c in enumerate(list(coeffs)[: order + 1])
        ]
        return cls.from_coefficients(ring, "egf", order, plain)

    @classmethod
    def one(cls, ring, flavor, order) -> "TruncatedSeries":
        return cls.from_coefficients(ring, flavor, order, [ring.one()])

    @classmethod
    def identity(cls, ring, flavor, order) -> "TruncatedSeries":
        """The series y."""
        return cls.from_coefficients(ring, flavor, order, [ring.zero(), ring.one()])

    # -- access ---------------------------------------------------------------

    def coefficient(self, n: int):
        """Plain coefficient of y^n."""
        return self.coeffs[n]

    def egf_coefficient(self, n: int):
        """Semantic coefficient of y^n/n!; only meaningful for EGF flavor."""
        if self.flavor != "egf":
            raise ValueError("egf_coefficient is only defined for EGF series")
        return self.coeffs[n] * Fraction(factorial(n))

    def _compatible(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch: {self.flavor} vs {other.flavor}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._compatible(other)
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries({self.ring.name}, {self.flavor}, N={self.order})"

    # -- arithmetic -------------------------------------------------------------

    def _with(self, coeffs) -> "TruncatedSeries":
        """A series of this ring, flavor and order."""
        return TruncatedSeries(self.ring, self.flavor, self.order, coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        return self._with([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        return self._with([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "TruncatedSeries":
        return self._with([self.ring.mul(c, a) for a in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.mul(other)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the common order, one ``Ring.dot``
        per output coefficient."""
        self._compatible(other)
        a, b, dot = self.coeffs, other.coeffs, self.ring.dot
        return self._with([dot(a[: n + 1], b[n::-1]) for n in range(self.order + 1)])

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse via the triangular Cauchy recurrence, one
        ``Ring.dot`` per coefficient."""
        ring, a = self.ring, self.coeffs
        if not ring.is_unit(a[0]):
            raise ValueError("constant term is not a unit; no multiplicative inverse")
        inv0 = ring.invert(a[0])
        out = [inv0]
        for n in range(1, self.order + 1):
            out.append(-ring.mul(inv0, ring.dot(a[1 : n + 1], out[::-1])))
        return self._with(out)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitution self(inner(y)), truncated; inner must kill constants."""
        self._compatible(inner)
        if not self.ring.is_zero(inner.coeffs[0]):
            raise ValueError("inner series must have zero constant term")
        result = TruncatedSeries.from_coefficients(
            self.ring, self.flavor, self.order, [self.coeffs[0]]
        )
        power = TruncatedSeries.one(self.ring, self.flavor, self.order)
        for k in range(1, self.order + 1):
            power = power.mul(inner)
            result = result + power.scale(self.coeffs[k])
        return result

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse by Lagrange inversion.

        Requires order at least 1, a zero constant term and a unit linear
        coefficient.  Write self = y q(y) and h = 1/q; the inverse g has
        [y^n] g = [y^(n-1)] h^n / n (Brent and Kung, "Fast algorithms for
        manipulating formal power series", JACM 1978).  That is one
        multiplicative inverse and N truncated products: O(N^2) ``Ring.dot``
        calls over O(N^3) pairwise products in all, and over Q and Q[t] each
        dot sums in integers and reduces once.  h is taken at order N-1,
        never N: over the symmetric functions its y^k coefficient can have
        degree k, and a degree-N coefficient could exceed the ring's cap
        although every coefficient of g stays within it.
        """
        ring = self.ring
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if not ring.is_zero(self.coeffs[0]):
            raise ValueError("compositional inverse needs zero constant term")
        if not ring.is_unit(self.coeffs[1]):
            raise ValueError("compositional inverse needs a unit linear term")
        h = TruncatedSeries(ring, self.flavor, self.order - 1, self.coeffs[1:]).inv()
        power = TruncatedSeries.one(ring, self.flavor, self.order - 1)
        g = [ring.zero()]
        for n in range(1, self.order + 1):
            power = power.mul(h)
            g.append(ring.mul(ring.from_rational(Fraction(1, n)), power.coeffs[n - 1]))
        return self._with(g)


def _in_p(order: int, fn) -> list:
    """fn(0), ..., fn(order) in p, where every series over the symmetric
    functions is held: e and h reach p by their closed forms, and products in
    p join partitions, so no series product or inverse builds a matrix."""
    return [convert(fn(n), "p") for n in range(order + 1)]


def symfunc_ogf(order: int, fn) -> TruncatedSeries:
    """OGF over the symmetric functions with coefficients fn(n), held in p."""
    return TruncatedSeries.from_coefficients(SymFuncRing("p"), "ogf", order,
                                             _in_p(order, fn))


def symfunc_egf(order: int, fn) -> TruncatedSeries:
    """EGF over the symmetric functions with semantic coefficients fn(n), in p."""
    return TruncatedSeries.from_egf_coefficients(SymFuncRing("p"), order,
                                                 _in_p(order, fn))
