"""Symmetric functions with exact rational coefficients.

A :class:`SymFunc` is a finite linear combination of basis elements indexed by
integer partitions, tagged with one of the five classical bases:

* ``m`` monomial, ``e`` elementary, ``h`` complete homogeneous, ``p`` power
  sum, ``s`` Schur.

p is the hub: every conversion outside e, h and m goes into p and out of it,
as an algebra map or through the Hall pairing.  e_lam and h_lam map to p as
products of the closed forms e_k = sum_mu (-1)^(k - l(mu)) p_mu / z_mu and
h_k = sum_mu p_mu / z_mu; p_lam maps to e or h through the images of p_k by
Newton's identity.  m and s cross to p by per-degree rows read off the
pairing <p_lam, p_nu> = z_lam delta, under which m is dual to h and s to
itself: the m rows come from the h/p maps, the s rows from symmetric-group
characters (Murnaghan-Nakayama).  Only e <-> h and e/h <-> m still go
through explicit expansions in d variables (d = the degree of the
homogeneous component, which is faithful for that degree), reading the
monomial coefficients at partition exponents.  Everything stays in exact
integer/rational arithmetic.

The algebra maps :func:`specialize_E` (e_i -> t) and :func:`evaluate_h`
(h_i -> values) are fixed by the images of one generator family: the images
of e_k, h_k and p_k follow from the e-h relation and Newton's identity, and
an e-, h- or p-basis input maps term by term without any conversion.

Elements are immutable after construction and all operations are pure, so
values can be shared freely across threads.  Generator images, p rows and
the d-variable matrices of the e/h/m pairs are computed once and kept in
``functools.lru_cache``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement
from math import lcm

from .limits import DEFAULT_DEGREE_CAP, DegreeCapError, _check_cap
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    partitions_of,
    rational_str,
    z_of,
)

BASES = ("m", "e", "h", "p", "s")

# ---------------------------------------------------------------------------
# polynomials in d variables, used to build the e <-> h and e/h <-> m matrices
# ---------------------------------------------------------------------------
# These pairs wait for the algebra maps below until ROADMAP items 1 and 2.


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _generator_poly(basis: str, k: int, d: int) -> dict:
    """e_k or h_k expanded in exactly d variables."""
    if basis == "e":
        idxsets = combinations(range(d), k)
    elif basis == "h":
        idxsets = combinations_with_replacement(range(d), k)
    else:
        raise ValueError(f"no variable expansion for basis {basis!r}")
    out: dict = {}
    for idx in idxsets:
        expo = [0] * d
        for i in idx:
            expo[i] += 1
        out[tuple(expo)] = out.get(tuple(expo), 0) + 1
    return out


@lru_cache(maxsize=None)
def _to_m_matrix(basis: str, d: int) -> dict:
    """C[lam][mu] = coefficient of m_mu in basis_lam, for lam, mu |- d."""
    parts = partitions_of(d)
    if d == 0:
        matrix = {(): {(): Fraction(1)}}
    else:
        gens = {k: _generator_poly(basis, k, d) for k in range(1, d + 1)}
        matrix = {}
        for lam in parts:
            poly = {(0,) * d: 1}
            for part in lam:
                poly = _poly_mul(poly, gens[part])
            row = {}
            for mu in parts:
                expo = mu + (0,) * (d - len(mu))
                c = poly.get(expo, 0)
                if c:
                    row[mu] = Fraction(c)
            matrix[lam] = row
    return matrix


@lru_cache(maxsize=None)
def _from_m_matrix(basis: str, d: int) -> dict:
    """D[mu][lam] with m_mu = sum_lam D[mu][lam] basis_lam (inverse of C)."""
    parts = partitions_of(d)
    c = _to_m_matrix(basis, d)
    size = len(parts)
    # Gauss-Jordan inversion of C over the rationals.
    aug = [
        [c[parts[i]].get(parts[j], Fraction(0)) for j in range(size)]
        + [Fraction(int(i == j)) for j in range(size)]
        for i in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return {
        parts[i]: {
            parts[j]: aug[i][size + j]
            for j in range(size)
            if aug[i][size + j] != 0
        }
        for i in range(size)
    }


# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _character_beta(beta: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    bset = set(beta)
    total = 0
    for b in beta:
        if b >= k and (b - k) not in bset:
            height = sum(1 for x in beta if b - k < x < b)
            newbeta = tuple(sorted(bset - {b} | {b - k}, reverse=True))
            total += (-1) ** height * _character_beta(newbeta, rest)
    return total


def character(lam, mu) -> int:
    """Irreducible symmetric-group character value chi^lam(mu)."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    length = len(lam)
    beta = tuple(lam[i] + (length - 1 - i) for i in range(length))
    return _character_beta(beta, mu)


# ---------------------------------------------------------------------------
# univariate polynomials over Q (the target of the e_i -> t specialization)
# ---------------------------------------------------------------------------


class TPoly:
    """Polynomial in one variable t with exact rational coefficients."""

    __slots__ = ("coeffs", "_integer_form")

    def __init__(self, coeffs=None):
        data: dict[int, Fraction] = {}
        if coeffs:
            for expo, c in dict(coeffs).items():
                c = Fraction(c)
                if c:
                    data[int(expo)] = c
        self.coeffs = data

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def t(cls, power: int = 1) -> "TPoly":
        return cls({power: Fraction(1)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its rational, so it must hash like it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return TPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, TPoly):
            return NotImplemented
        return TPoly.dot((self,), (other,))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys) -> "TPoly":
        """sum x_i * y_i over the pairs of ``xs`` and ``ys``.

        The integer numerators are convolved over one running common
        denominator, rescaled whenever a pair's denominator does not divide
        it, and reduced once per output term instead of once per partial
        product.
        """
        den, acc = 1, {}
        for x, y in zip(xs, ys):
            if not (x.coeffs and y.coeffs):
                continue
            dx, a = x._integer_terms()
            dy, b = y._integer_terms()
            d = dx * dy
            if den % d:
                grown = lcm(den, d)
                acc = {e: c * (grown // den) for e, c in acc.items()}
                den = grown
            k = den // d
            for ea, ca in a:
                ca *= k
                for eb, cb in b:
                    acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
        out = TPoly()
        out.coeffs = {e: Fraction(c, den) for e, c in acc.items() if c}
        return out

    def _integer_terms(self) -> tuple[int, list[tuple[int, int]]]:
        """(L, [(e, L*c)]) with L the lcm of the denominators, computed once
        per polynomial (elements are immutable)."""
        try:
            return self._integer_form
        except AttributeError:
            den = lcm(*(c.denominator for c in self.coeffs.values()))
            self._integer_form = den, [(e, c.numerator * (den // c.denominator))
                                       for e, c in self.coeffs.items()]
            return self._integer_form

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
        out = TPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = rational_str(c)
            else:
                var = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{rational_str(c)}*{var}"
            pieces.append(body)
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self):
        return [[e, rational_str(c)] for e, c in sorted(self.coeffs.items())]


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------


def _term_order_key(lam: Partition):
    # degree first, then reverse-lexicographic within a degree
    return (sum(lam), tuple(-p for p in lam))


class SymFunc:
    """Basis-tagged finite linear combination of partition-indexed terms.

    ``terms`` maps partitions to nonzero Fractions.  Equality is mathematical
    (independent of the basis tag; two bases are compared in p).  Mixed-degree
    elements are allowed.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        data: dict[Partition, Fraction] = {}
        if terms:
            for lam, c in dict(terms).items():
                c = Fraction(c)
                if c:
                    data[check_partition(lam)] = c
        self.terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: str = "e") -> "SymFunc":
        return cls(basis, {})

    @classmethod
    def one(cls, basis: str = "e") -> "SymFunc":
        return cls(basis, {(): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(check_partition(lam), Fraction(0))

    def constant_term(self) -> Fraction:
        # the empty partition indexes the constant in every basis
        return self.terms.get((), Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis != self.basis:
            other = convert(other, self.basis)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFunc(self.basis, out)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "SymFunc":
        c = Fraction(c)
        if not c:
            return SymFunc(self.basis, {})
        return SymFunc(self.basis, {lam: c * v for lam, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymFunc(self.basis, {(): other})
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.terms == other.terms
        return convert(self, "p").terms == convert(other, "p").terms

    __hash__ = None

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _term_order_key(kv[0]))

    def __str__(self):
        return render_symfunc(self)

    def __repr__(self):
        return f"SymFunc({self.basis!r}, {render_symfunc(self)!r})"

    def to_json(self):
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam), "coeff": rational_str(c)}
                for lam, c in self.sorted_terms()
            ],
        }


def basis_element(basis: str, lam) -> SymFunc:
    """The single basis element with coefficient 1."""
    return SymFunc(basis, {check_partition(lam): Fraction(1)})


def render_symfunc(f: SymFunc, latex: bool = False) -> str:
    """Render like ``2*m(2) + 5*m(1,1)`` (or ``2m_{(2)} + ...`` with latex)."""
    if not f.terms:
        return "0"
    pieces = []
    for lam, c in f.sorted_terms():
        if not lam:
            pieces.append(rational_str(c))
            continue
        body = ",".join(str(p) for p in lam)
        sym = f"{f.basis}_{{({body})}}" if latex else f"{f.basis}({body})"
        if c == 1:
            pieces.append(sym)
        elif c == -1:
            pieces.append(f"-{sym}")
        elif latex:
            pieces.append(f"{rational_str(c)}{sym}")
        else:
            pieces.append(f"{rational_str(c)}*{sym}")
    return " + ".join(pieces).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------


class _Terms(dict):
    """A combination of e_lam, h_lam or p_lam; products join the partitions.

    The ring in which the algebra maps below compute and :func:`multiply`
    multiplies.  Inside a conversion no product exceeds the degree of the
    element converted, which :func:`convert` has checked against the cap.
    """

    __slots__ = ()

    def __add__(self, other):
        out = _Terms(self)
        for lam, c in other.items():
            out[lam] = out.get(lam, 0) + c
        return _Terms({lam: c for lam, c in out.items() if c})

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, _Terms):
            return _Terms({lam: c * other for lam, c in self.items()} if other else {})
        out = _Terms()
        for lam, a in self.items():
            for mu, b in other.items():
                key = tuple(sorted(lam + mu, reverse=True))
                out[key] = out.get(key, 0) + a * b
        return _Terms({lam: c for lam, c in out.items() if c})


@lru_cache(maxsize=None)
def _power_sum_image(family: str, k: int) -> _Terms:
    """e_k = sum_mu (-1)^(k - l(mu)) p_mu / z_mu, or h_k = sum_mu p_mu / z_mu."""
    return _Terms({
        mu: Fraction((-1) ** (k - len(mu)) if family == "e" else 1, z_of(mu))
        for mu in partitions_of(k)
    })


def _map_terms(terms: dict, source: str, target: str, d: int) -> dict:
    """e/h -> p and p -> e/h as algebra maps fixed by the generators' images:
    the closed forms of e_k and h_k in p, or the target's own generators, from
    which :func:`_generator_images` derives p_k by Newton's identity."""
    if target == "p":
        family, image = source, partial(_power_sum_image, source)
    else:
        family, image = target, lambda k: _Terms({(k,): 1})
    return _apply_algebra_map(SymFunc(source, terms), family, image, _Terms({(): 1}), d)


@lru_cache(maxsize=None)
def _hall_rows(source: str, target: str, d: int) -> dict:
    """Rows of the degree-d conversion between p and m or s, from source to
    target, read off the Hall pairing <p_lam, p_nu> = z_lam delta, under
    which m is dual to h and s to itself:
    [m_mu] p_lam = z_lam [p_lam] h_mu, [p_lam] m_mu = [h_mu] p_lam / z_lam and
    [s_mu] p_lam = chi^mu(lam) = z_lam [p_lam] s_mu."""
    parts = partitions_of(d)
    rows: dict = {lam: {} for lam in parts}
    if "s" in (source, target):
        for lam in parts:
            for mu in parts:
                chi = character(mu, lam)
                if chi and target == "s":
                    rows[lam][mu] = Fraction(chi)
                elif chi:
                    rows[mu][lam] = Fraction(chi, z_of(lam))
    elif target == "m":
        for mu in parts:
            for lam, c in _map_terms({mu: 1}, "h", "p", d).items():
                rows[lam][mu] = c * z_of(lam)
    else:
        for lam in parts:
            for mu, c in _map_terms({lam: 1}, "p", "h", d).items():
                rows[mu][lam] = c / z_of(lam)
    return rows


def _apply_matrix(terms: dict, matrix: dict) -> dict:
    out: dict[Partition, Fraction] = {}
    for lam, c in terms.items():
        for mu, entry in matrix[lam].items():
            out[mu] = out.get(mu, Fraction(0)) + c * entry
    return {mu: c for mu, c in out.items() if c}


def _convert_homogeneous(terms: dict, source: str, target: str, d: int) -> dict:
    """Convert a degree-d homogeneous term dict between bases.

    e <-> h and e/h <-> m pivot through m by the d-variable expansion; every
    other pair goes into p and out of p, e and h by the algebra maps, m and s
    by the Hall rows."""
    if source == target:
        return dict(terms)
    if {source, target} <= {"e", "h", "m"}:
        if source != "m":
            terms = _apply_matrix(terms, _to_m_matrix(source, d))
            if target == "m":
                return terms
        return _apply_matrix(terms, _from_m_matrix(target, d))
    for a, b in ((source, "p"), ("p", target)):
        if a == b:
            continue
        if {a, b} & {"m", "s"}:
            terms = _apply_matrix(terms, _hall_rows(a, b, d))
        else:
            terms = _map_terms(terms, a, b, d)
    return terms


def convert(f: SymFunc, target: str, cap: int = DEFAULT_DEGREE_CAP) -> SymFunc:
    """Express the same element of the ring in the target basis, exactly."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return SymFunc(target, f.terms)
    _check_cap(f.degree(), cap)
    by_degree: dict[int, dict] = {}
    for lam, c in f.terms.items():
        by_degree.setdefault(sum(lam), {})[lam] = c
    out: dict[Partition, Fraction] = {}
    for d, terms in by_degree.items():
        for lam, c in _convert_homogeneous(terms, f.basis, target, d).items():
            out[lam] = out.get(lam, Fraction(0)) + c
    return SymFunc(target, out)


def multiply(f: SymFunc, g: SymFunc, cap: int = DEFAULT_DEGREE_CAP) -> SymFunc:
    """Product in the ring, returned in the basis of f.

    The multiplicative bases e, h and p join partitions; an m or s product
    is formed in p and converted back."""
    if not f or not g:
        return SymFunc(f.basis, {})
    _check_cap(f.degree() + g.degree(), cap)
    work = f.basis if f.basis in ("e", "h", "p") else "p"
    product = _Terms(convert(f, work, cap).terms) * _Terms(convert(g, work, cap).terms)
    return convert(SymFunc(work, product), f.basis, cap)


def omega(f: SymFunc, cap: int = DEFAULT_DEGREE_CAP) -> SymFunc:
    """The involution exchanging e_n and h_n.

    On the power-sum basis it scales p_lam by (-1)^(|lam|-l(lam)); on the
    Schur basis it conjugates partitions.  An m input is mapped in p.
    """
    if f.basis == "e":
        return SymFunc("h", f.terms)
    if f.basis == "h":
        return SymFunc("e", f.terms)
    if f.basis == "p":
        return SymFunc(
            "p",
            {lam: c * (-1) ** (sum(lam) - len(lam)) for lam, c in f.terms.items()},
        )
    if f.basis == "s":
        return SymFunc("s", {conjugate(lam): c for lam, c in f.terms.items()})
    return convert(omega(convert(f, "p", cap), cap), "m", cap)


# ---------------------------------------------------------------------------
# algebra maps out of the ring, fixed by the images of one generator family
# ---------------------------------------------------------------------------


def _generator_images(family: str, image, basis: str, top: int, one) -> list:
    """[1, b_1, ..., b_top]: images of the generators b_k of ``basis`` under
    the algebra map sending family_k to image(k), for family "e" or "h" and
    basis another of e, h, p.

    The other of e and h follows from sum_i (-1)^i e_i h_(k-i) = 0, which is
    symmetric in e and h; p follows from Newton's k h_k = sum_i p_i h_(k-i).
    """
    zero = one * 0
    given = [one] + [image(k) for k in range(1, top + 1)]
    other = [one]
    for k in range(1, top + 1):
        other.append(sum(
            (given[i] * other[k - i] * (-1) ** (i - 1) for i in range(1, k + 1)), zero
        ))
    if basis != "p":
        return other
    h = given if family == "h" else other
    p = [one]
    for k in range(1, top + 1):
        p.append(h[k] * k - sum((p[i] * h[k - i] for i in range(1, k)), zero))
    return p


def _apply_algebra_map(f: SymFunc, family: str, image, one, cap: int):
    """The image of f under the algebra map sending family_k to image(k).

    e, h and p inputs map term by term: b_lam goes to the product of its
    parts' images, in the ring of ``one``.  Inputs of the map's own family
    ask image(k) only for the parts that occur.  An m or s input is first
    converted to p by the Hall rows; that conversion is bounded by cap.
    """
    if f.basis in ("m", "s"):
        f = convert(f, "p", cap)
    if f.basis == family:
        gen = image
    else:
        top = max((lam[0] for lam in f.terms if lam), default=0)
        gen = _generator_images(family, image, f.basis, top, one).__getitem__
    total = one * 0
    for lam, c in f.terms.items():
        prod = one
        for part in lam:
            prod = prod * gen(part)
        total = total + prod * c
    return total


def specialize_E(f: SymFunc, cap: int = DEFAULT_DEGREE_CAP) -> TPoly:
    """The algebra map sending every e_i (i >= 1) to t.

    e_lam maps to t^(l(lam)); h and p (and m and s, through p) are mapped
    through the images of h_k and p_k derived from e_k -> t, so only an m or
    s input is converted and meets the degree cap.
    """
    t = TPoly.t()
    return _apply_algebra_map(f, "e", lambda k: t, TPoly.const(1), cap)


def evaluate_h(f: SymFunc, values: dict, cap: int = DEFAULT_DEGREE_CAP) -> Fraction:
    """Substitute values[i] for the generator h_i, multiplicatively on h_lam.

    An h input needs values only for the parts that occur; e and p inputs
    (and m and s, through p) need h_1..h_k for their largest part k.  Only an
    m or s input is converted and meets the degree cap.
    """

    def image(k: int) -> Fraction:
        if k not in values:
            raise ValueError(f"no value provided for h_{k}")
        return Fraction(values[k])

    return _apply_algebra_map(f, "h", image, Fraction(1), cap)
