"""Exact arithmetic in the p-th cyclotomic field and its cubic-index subfield.

For a prime p = 3k + 1 the field L = Q(zeta_p) is represented in the power
basis {1, zeta, ..., zeta^(p-2)}.  An element is a length-(p-1) vector of
integers over one positive denominator, reduced so that the denominator
shares no factor with all the integers (Cohen, A Course in Computational
Algebraic Number Theory, 4.2).  Products and automorphisms work on p
exponent slots, the coefficients of zeta^0 .. zeta^(p-1), and _fold turns
p slots into the reduced vector by subtracting the top slot from the rest,
as zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  Multiplication is one
product of Kronecker-packed integers, wrapped at zeta^p = 1 while still
packed so that only p slots are unpacked, a fold and one gcd (a zero factor
returns at once); an automorphism permutes the p slots of the vector with a
zero appended.  The Galois group acts by zeta^i -> zeta^(t*i mod p).  The
residue d of multiplicative order 3 picks out the automorphism
s = (zeta -> zeta^d) whose fixed field K has index 3 in L; Gaussian periods
over the cosets of {1, d, d^2} give a Q-basis of K, and {1, zeta, zeta^2}
is a K-basis of L used to split elements into their three K-coordinates.
The periods are even an integral basis of O_K (Hilbert-Speiser), and
{1, zeta, zeta^2} is an O_K-basis of Z[zeta] = O_K[zeta], so the products
eta_i * zeta^j form a Z-basis of Z[zeta]: K-coordinates of num / den are
integers over the same den, and the whole K-layer runs on integers.

All values are immutable and every operation is pure, so everything here
is safe to share between threads.
"""

import functools
from math import gcd, isqrt
from operator import add, itemgetter, sub

from . import linalg
from .errors import (
    BadResidue,
    DivisionByZero,
    NotInvertible,
    NotPrime,
    SingularBasis,
    WrongResidue,
)
from .rationals import Rat, ints_over_den


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

    Use make_field(), never this constructor: it validates p, selects d
    deterministically as the smallest residue of multiplicative order 3, and
    returns the one field for p, so fields compare and hash by identity.
    """

    __slots__ = ("p", "d", "k")

    def __init__(self, p: int, d: int, k: int):
        self.p = p
        self.d = d
        self.k = k

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
        return self.element((q,) + (0,) * (self.degree - 1))

    def zeta(self, e: int = 1) -> "FieldElem":
        """The root of unity zeta^e, reduced."""
        e %= self.p
        return FieldElem(self, _fold([int(i == e) for i in range(self.p)]))


# one field per prime; setdefault is atomic, so concurrent first calls share one
_FIELDS = {}


def make_field(p: int) -> CycloField:
    """Validate p and return its one field; d is the smallest order-3 residue."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p % 3 != 1:
        raise WrongResidue(f"p = {p} has p mod 3 = {p % 3}, need p = 1 (mod 3)")
    d = next(t for t in range(2, p) if pow(t, 3, p) == 1)
    return _FIELDS.setdefault(p, CycloField(p, d, (p - 1) // 3))


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


def _fold(slots) -> tuple:
    """The reduced coordinates of sum(slots[e] * zeta^e) over the p exponents e < p."""
    top = slots[-1]
    return tuple(c - top for c in slots[:-1]) if top else tuple(slots[:-1])


def _power(base, e: int, one):
    """base ** e for e >= 0 by square-and-multiply over the bits of e, top bit first."""
    result = base if e else one
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


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
            if other.field is not self.field:
                raise ValueError("elements belong to different fields")
            return other
        return self.field.from_rational(other)

    def _plus(self, other, sign: int) -> "FieldElem":
        """self + sign * other for sign in {1, -1}; a zero operand costs no arithmetic."""
        other = self._check(other)
        if not any(other.num):
            return self
        if not any(self.num):
            return other if sign > 0 else -other
        dx, dy = self.den, other.den
        if dx == dy:
            num = list(map(add if sign > 0 else sub, self.num, other.num))
        else:
            g = gcd(dx, dy)
            fx, fy = dy // g, sign * (dx // g)
            num = [a * fx + b * fy for a, b in zip(self.num, other.num)]
            dx *= fx
        return _reduced(self.field, num, dx)

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
        xs, ys = self.num, other.num
        if not any(xs):
            return self
        if not any(ys):
            return other
        p = self.field.p
        # Kronecker substitution: one integer product of the packed vectors, with
        # slots wide enough for any coefficient (p - 1 products at most) and its sign
        width = (max(map(abs, xs)) * max(map(abs, ys)) * (p - 1)).bit_length() + 2
        prod = _pack(xs, width) * _pack(ys, width)
        # zeta^p = 1: the slots from p up add onto the low p slots, split off as a
        # signed integer, before unpacking; then exponent p - 1 folds via Phi_p
        split = width * p
        low = prod & ((1 << split) - 1)
        if low >> (split - 1):
            low -= 1 << split
        out = _unpack(low + ((prod - low) >> split), width, p)
        return _reduced(self.field, _fold(out), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}; use inv()")
        return _power(self, e, self.field.one())

    def __eq__(self, other):
        # field elements only: a rational never equals one, as their hashes differ
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field is other.field and self.num == other.num and self.den == other.den

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
        return self._permuted(_aut_gather(p, t))

    def sigma(self, power: int = 1) -> "FieldElem":
        """The distinguished order-3 automorphism s = apply_aut(d), iterated."""
        return self._permuted(_aut_gather(self.field.p, self.field.d, power % 3))

    def _permuted(self, gather) -> "FieldElem":
        return FieldElem(self.field, _fold(gather(self.num + (0,))), self.den)

    def relative_norm(self) -> "FieldElem":
        """x * s(x) * s^2(x); always lands in the fixed field K."""
        return self * self.sigma(1) * self.sigma(2)

    def is_in_K(self) -> bool:
        """True iff the element is fixed by s, i.e. lies in the index-3 subfield."""
        return self.sigma(1) == self


@functools.lru_cache(maxsize=None)
def _aut_gather(p: int, t: int, power: int = 1):
    # for zeta -> zeta^(t^power), exponent e of the image comes from exponent
    # e / t^power (mod p); the source exponent p - 1 is the appended zero
    t_inv = pow(t, -power, p)
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
