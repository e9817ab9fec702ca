"""Exact arithmetic in the p-th cyclotomic field and its cubic-index subfield.

For a prime p = 3k + 1 the field L = Q(zeta_p) is represented in the power
basis {1, zeta, ..., zeta^(p-2)}, kept in the unique reduced form where
zeta^(p-1) has been rewritten as -(1 + zeta + ... + zeta^(p-2)).  An element
is a length-(p-1) vector of integers over one positive denominator, reduced
so that the denominator shares no factor with all the integers (Cohen, A
Course in Computational Algebraic Number Theory, 4.2): multiplication is an
integer convolution, a fold by Phi_p and one gcd, and every automorphism is
a permutation of the vector.  The exact rational coordinates are derived
from that form when asked for.  The Galois group acts by
zeta^i -> zeta^(t*i mod p).  The residue d of multiplicative order 3 picks
out the automorphism s = (zeta -> zeta^d) whose fixed field K has index 3
in L; Gaussian periods over the cosets of {1, d, d^2} give a Q-basis of K,
and {1, zeta, zeta^2} is a K-basis of L used to split elements into their
three K-coordinates.  The periods are even an integral basis of O_K
(Hilbert-Speiser), and {1, zeta, zeta^2} is an O_K-basis of
Z[zeta] = O_K[zeta], so the products eta_i * zeta^j form a Z-basis of
Z[zeta]: K-coordinates of num / den are integers over the same den, and
the whole K-layer runs on integers.

All values are immutable and every operation is pure, so everything here
is safe to share between threads.
"""

import functools
from math import gcd, isqrt
from operator import add, itemgetter

from . import linalg
from .errors import (
    BadResidue,
    DivisionByZero,
    NotInvertible,
    NotPrime,
    SingularBasis,
    WrongResidue,
)
from .rationals import Rat, as_rat, ints_over_den


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale, p <= ~10^4)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    top = isqrt(n)
    while f <= top:
        if n % f == 0:
            return False
        f += 2
    return True


class CycloField:
    """The field Q(zeta_p) for a prime p = 3k + 1, with its order-3 twist d.

    Use make_field() to construct; it validates p and selects d
    deterministically as the smallest residue of multiplicative order 3.
    """

    __slots__ = ("p", "d", "k")

    def __init__(self, p: int, d: int, k: int):
        self.p = p
        self.d = d
        self.k = k

    def __eq__(self, other):
        return isinstance(other, CycloField) and self.p == other.p

    def __hash__(self):
        return hash(("CycloField", self.p))

    def __repr__(self):
        return f"CycloField(p={self.p}, d={self.d}, k={self.k})"

    @property
    def degree(self) -> int:
        return self.p - 1

    # -- element constructors -------------------------------------------

    def element(self, coords) -> "FieldElem":
        num, den = ints_over_den(coords)
        if len(num) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(num)}")
        return _reduced(self, num, den)

    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.degree)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def from_rational(self, q) -> "FieldElem":
        q = as_rat(q)
        num = (q.numerator,) + (0,) * (self.degree - 1)
        return FieldElem(self, num, q.denominator)

    def zeta(self, e: int = 1) -> "FieldElem":
        """The root of unity zeta^e, reduced."""
        e %= self.p
        if e == self.p - 1:
            # forced by the minimal polynomial 1 + zeta + ... + zeta^(p-1) = 0
            return FieldElem(self, (-1,) * self.degree)
        return FieldElem(self, tuple(int(i == e) for i in range(self.degree)))

    def xi(self) -> "FieldElem":
        """The distinguished primitive root zeta itself."""
        return self.zeta(1)


def make_field(p: int) -> CycloField:
    """Validate p and build the field; d is the smallest order-3 residue."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p % 3 != 1:
        raise WrongResidue(f"p = {p} has p mod 3 = {p % 3}, need p = 1 (mod 3)")
    d = next(t for t in range(2, p) if pow(t, 3, p) == 1)
    return CycloField(p, d, (p - 1) // 3)


def _pack(vec, width: int) -> int:
    """sum(vec[i] * 2^(width*i)) for signed integers vec."""
    z = 0
    for c in reversed(vec):
        z = (z << width) + c
    return z


def _unpack(z: int, width: int, count: int) -> list:
    """The first count signed slots of z, each in [-2^(width-1), 2^(width-1))."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    for _ in range(count):
        c = z & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        z = (z - c) >> width
    return out


def _reduced(field: CycloField, num, den: int) -> "FieldElem":
    """The element num / den in lowest terms; den must be positive."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return FieldElem(field, tuple(c // g for c in num), den // g)
    return FieldElem(field, tuple(num), den)


class FieldElem:
    """An element num / den of Q(zeta_p) in the reduced power basis.

    num is a tuple of p - 1 integers and den a positive integer with
    gcd(den, *num) = 1, so equal elements have equal (num, den).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as exact rationals."""
        den = self.den
        return tuple(Rat(c, den) for c in self.num)

    # -- ring structure ---------------------------------------------------

    def _check(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ValueError("elements belong to different fields")
            return other
        return self.field.from_rational(other)

    def _plus(self, other, sign: int) -> "FieldElem":
        other = self._check(other)
        dx, dy = self.den, other.den
        g = gcd(dx, dy)
        fx, fy = dy // g, dx // g
        num = [a * fx + sign * b * fy for a, b in zip(self.num, other.num)]
        return _reduced(self.field, num, dx * fx)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FieldElem(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self.field, [c * other for c in self.num], self.den)
        other = self._check(other)
        n = self.field.degree
        xs, ys = self.num, other.num
        bound = max(map(abs, xs)) * max(map(abs, ys))
        if not bound:
            return self.field.zero()
        # Kronecker substitution: one integer product of the packed vectors,
        # with slots wide enough for any convolution coefficient and its sign
        width = (bound * n).bit_length() + 2
        conv = _unpack(_pack(xs, width) * _pack(ys, width), width, 2 * n - 1)
        # exponents >= p wrap (zeta^p = 1); exponent p-1 folds via Phi_p
        out = conv[:n]
        out[: n - 2] = map(add, out[: n - 2], conv[n + 1 :])
        top = conv[n]
        if top:
            out = [c - top for c in out]
        return _reduced(self.field, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}; use inv()")
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        # field elements only: a rational never equals one, as their hashes differ
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        return hash((self.field.p, self.num, self.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*z")
                else:
                    terms.append(f"{c}*z^{i}")
        return " + ".join(terms) if terms else "0"

    # -- field-specific operations -----------------------------------------

    def _conjugate_product(self):
        """(rest, N(y)) for the integral y = den * x.

        rest is the product of the p - 2 conjugates of y other than y itself,
        so y * rest is the integer N(y).
        """
        y = FieldElem(self.field, self.num)
        rest = self.field.one()
        for t in range(2, self.field.p):
            rest = rest * y.apply_aut(t)
        return rest, (y * rest).num[0]

    def norm(self) -> Rat:
        """The absolute norm N_{L/Q}(x), the product of all p - 1 conjugates."""
        return Rat(self._conjugate_product()[1], self.den**self.field.degree)

    def inv(self) -> "FieldElem":
        """Multiplicative inverse via the norm: x^-1 = den * rest / N(den * x)."""
        if not self:
            raise DivisionByZero("inverse of zero")
        rest, norm_y = self._conjugate_product()
        return rest * Rat(self.den, norm_y)

    def apply_aut(self, t: int) -> "FieldElem":
        """The ring automorphism zeta^i -> zeta^(t*i mod p).

        It permutes the exponents 0 .. p-1, so it maps the integer vector to
        an integer vector with the same content and the denominator stays.
        """
        p = self.field.p
        t %= p
        if gcd(t, p) != 1:
            raise BadResidue(f"t = {t} is not a unit modulo {p}")
        if t == 1:
            return self
        acc = _aut_gather(p, t)(self.num + (0,))
        top = acc[p - 1]
        num = tuple(c - top for c in acc[: p - 1]) if top else acc[: p - 1]
        return FieldElem(self.field, num, self.den)

    def sigma(self, power: int = 1) -> "FieldElem":
        """The distinguished order-3 automorphism s = apply_aut(d), iterated."""
        return self.apply_aut(pow(self.field.d, power % 3, self.field.p))

    def relative_norm(self) -> "FieldElem":
        """x * s(x) * s^2(x); always lands in the fixed field K."""
        s1 = self.sigma(1)
        s2 = s1.sigma(1)
        return self * s1 * s2

    def is_in_K(self) -> bool:
        """True iff the element is fixed by s, i.e. lies in the index-3 subfield."""
        return self.sigma(1) == self


@functools.lru_cache(maxsize=None)
def _aut_gather(p: int, t: int):
    # exponent e of the image comes from exponent e / t (mod p); the source
    # exponent p - 1 is the zero the caller appends to the vector
    t_inv = pow(t, -1, p)
    return itemgetter(*[(e * t_inv) % p for e in range(p)])


@functools.lru_cache(maxsize=None)
def cosets(field: CycloField):
    """Cosets of the subgroup {1, d, d^2} of (Z/p)*, smallest-rep first."""
    p, d = field.p, field.d
    orbits = {tuple(sorted({r, (r * d) % p, (r * d * d) % p})) for r in range(1, p)}
    return tuple(sorted(orbits))


@functools.lru_cache(maxsize=None)
def gaussian_periods(field: CycloField):
    """The k period sums over the cosets of {1, d, d^2}; a Q-basis of K."""
    return tuple(sum(map(field.zeta, coset), field.zero()) for coset in cosets(field))


def _lincomb(coeffs, vectors, size: int) -> list:
    """sum(c * v) over paired integer coefficients and integer vectors."""
    acc = [0] * size
    for c, vec in zip(coeffs, vectors):
        if c:
            acc = list(map(add, acc, map(c.__mul__, vec)))
    return acc


@functools.lru_cache(maxsize=None)
def _k_basis_inverse(field: CycloField):
    """Inverse of the basis matrix {eta_i * zeta^j}, as integer rows.

    The matrix is unimodular because {eta_i * zeta^j} is a Z-basis of
    Z[zeta] (module docstring); anything else raises SingularBasis.
    Returned transposed (index [input coordinate][unknown]) so decomposition
    is a sparse row accumulation.  Unknown order is (j, i): block j holds
    the period coordinates of the K-component multiplying zeta^j.
    """
    n = field.degree
    periods = gaussian_periods(field)
    cols = [(eta * field.zeta(j)).num for j in range(3) for eta in periods]
    inv, den = linalg.invert([[cols[c][r] for c in range(n)] for r in range(n)])
    if den != 1:
        raise SingularBasis(f"the K-basis matrix is not unimodular: its inverse has den {den}")
    return tuple(zip(*inv))


def k_coordinate_vector(field: CycloField, coords) -> tuple:
    """Integer K-coordinates in the basis {eta_i * zeta^j}, blocks by j.

    coords is an element, and the numerators are over its den, or a tuple
    of power-basis coordinates, and they are over its common denominator.
    """
    num = coords.num if isinstance(coords, FieldElem) else ints_over_den(coords)[0]
    return tuple(_lincomb(num, _k_basis_inverse(field), field.degree))


def _from_period_ints(field: CycloField, vec, den: int) -> FieldElem:
    """The fixed-field element sum(vec[i] * eta_i) / den, for integers vec."""
    periods = [eta.num for eta in gaussian_periods(field)]
    return _reduced(field, _lincomb(vec, periods, field.degree), den)


@functools.lru_cache(maxsize=None)
def _period_mult_matrices(field: CycloField):
    """Per-period multiplication matrices in the period basis, flattened by rows.

    M_i[l * k + j] = coefficient of eta_l in eta_i * eta_j, an integer, so
    multiplication by sum(c_i eta_i) acts on period coordinates as sum(c_i M_i).
    """
    k = field.k
    periods = gaussian_periods(field)
    mats = []
    for eta_i in periods:
        cols = [k_coordinate_vector(field, eta_i * eta_j) for eta_j in periods]
        mats.append(tuple(cols[j][l] for l in range(k) for j in range(k)))
    return tuple(mats)


def k_inverse_from_period_coords(field: CycloField, vec, den: int = 1) -> FieldElem:
    """Inverse of the fixed-field element sum(vec[i] * eta_i) / den, for integers vec.

    Solves the k x k integer system (mult-by-vec) y = 1 by fraction-free
    elimination instead of inverting in L.  The solve is most of a
    canonicalization, so the subgroup expansion solves each distinct
    leading block once.
    """
    if not any(vec):
        raise DivisionByZero("inverse of zero in the fixed field")
    k = field.k
    flat = _lincomb(vec, _period_mult_matrices(field), k * k)
    mc = [flat[l * k : (l + 1) * k] for l in range(k)]
    # the periods sum to zeta + ... + zeta^(p-1) = -1
    sol, sol_den = linalg.solve(mc, [-1] * k)
    # c = vec / den, so 1/c = den * (the inverse of vec)
    return _from_period_ints(field, [den * y for y in sol], sol_den)


def k_inverse(x: FieldElem) -> FieldElem:
    """Inverse of an element of the fixed field K, by the period-basis solve.

    An element outside K raises NotInvertible: no caller should hold one.
    """
    if not x.is_in_K():
        raise NotInvertible("k_inverse needs an element of the fixed field K")
    coords = k_coordinate_vector(x.field, x)
    return k_inverse_from_period_coords(x.field, coords[: x.field.k], x.den)
