"""The 9-dimensional cyclic algebra over the fixed field K.

CyclicAlgebra.element is the one constructor of an element: it coerces
rationals and rejects a component of another field.  The element's
components are one tuple (x0, x1, x2) of elements of L, meaning
x0 + x1*alpha + x2*alpha^2, where alpha^3 = a and lambda*alpha =
alpha*s(lambda) for the order-3 automorphism s.  Moving alpha left past a
coefficient therefore applies s^-1 = s^2, so row i of the splitting
matrix M(y), the components of alpha^i * y, is

    row 0 = (y0,         y1,       y2)
    row 1 = (a*s^2(y2),  s^2(y0),  s^2(y1))
    row 2 = (a*s(y1),    a*s(y2),  s(y0))

and the product is the row vector x * y = (x0, x1, x2) M(y).  The
transposed s/s^2 twist is still associative but fails lambda*alpha =
alpha*s(lambda), which the defining relation tests check.

M is right multiplication on the left-L basis {1, alpha, alpha^2}: it is
multiplicative, its determinant is the reduced norm Nrd(x), and the first
row of its adjugate over Nrd(x) is x^-1.  Left multiplication on A as a
Q-space of dimension 3(p-1) has determinant N_{K/Q}(Nrd x)^3, an exact
identity the pipeline checks against the norm of L.  Its matrix is built
by index shifts: the image of zeta^e alpha^c is each x_i rotated by a
power of zeta (times a where alpha wraps), so it takes no algebra product.
"""

from math import lcm
from operator import add, neg, sub

from . import linalg
from .cyclotomic import CycloField, FieldElem, _fold, _power, k_inverse
from .errors import DivisionByZero, NotInvertible, ParamMismatch
from .rationals import Rat


class CyclicAlgebra:
    """Parameters (field, a) of the algebra; a is a nonzero int."""

    __slots__ = ("field", "a")

    def __init__(self, field: CycloField, a: int):
        # type() is int, not isinstance: a bool is an int, but not a parameter
        if type(a) is not int:
            raise TypeError(f"a = {a!r} is a {type(a).__name__}; the parameter must be an int")
        if not a:
            raise ValueError("parameter a must be nonzero")
        self.field = field
        self.a = a

    def __eq__(self, other):
        return (
            isinstance(other, CyclicAlgebra)
            and self.field is other.field
            and self.a == other.a
        )

    def __hash__(self):
        return hash(("CyclicAlgebra", self.field.p, self.a))

    def __repr__(self):
        return f"CyclicAlgebra(p={self.field.p}, a={self.a})"

    def element(self, x0, x1, x2) -> "AlgebraElem":
        """The one constructor; a component of another field raises ParamMismatch."""
        comps = []
        for c in (x0, x1, x2):
            if not isinstance(c, FieldElem):
                c = self.field.from_rational(c)
            elif c.field is not self.field:
                raise ParamMismatch("component from a different field")
            comps.append(c)
        return AlgebraElem(self, *comps)

    def zero(self) -> "AlgebraElem":
        return self.element(0, 0, 0)

    def one(self) -> "AlgebraElem":
        return self.element(1, 0, 0)

    def alpha(self) -> "AlgebraElem":
        return self.element(0, 1, 0)

    def embed(self, lam) -> "AlgebraElem":
        """The subring embedding of L at the alpha^0 slot."""
        return self.element(lam, 0, 0)


class AlgebraElem:
    """x0 + x1*alpha + x2*alpha^2; components is the tuple (x0, x1, x2) in L."""

    __slots__ = ("algebra", "components")

    def __init__(self, algebra: CyclicAlgebra, x0: FieldElem, x1: FieldElem, x2: FieldElem):
        self.algebra = algebra
        self.components = (x0, x1, x2)

    def _check(self, other) -> "AlgebraElem":
        if not isinstance(other, AlgebraElem):
            raise TypeError(f"expected AlgebraElem, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ParamMismatch("elements from different algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        return AlgebraElem(self.algebra, *map(add, self.components, other.components))

    def __sub__(self, other):
        other = self._check(other)
        return AlgebraElem(self.algebra, *map(sub, self.components, other.components))

    def __neg__(self):
        return AlgebraElem(self.algebra, *map(neg, self.components))

    def __mul__(self, other):
        other = self._check(other)
        x0, x1, x2 = self.components
        # x0 * row 0 even when x0 is zero: a zero factor makes those products free
        m0, m1, m2 = other._row(0)
        z0, z1, z2 = x0 * m0, x0 * m1, x0 * m2
        for i, x in ((1, x1), (2, x2)):
            if x:
                m0, m1, m2 = other._row(i)
                z0, z1, z2 = z0 + x * m0, z1 + x * m1, z2 + x * m2
        return AlgebraElem(self.algebra, z0, z1, z2)

    def _row(self, i: int) -> tuple:
        """Row i of the splitting matrix: the components of alpha^i * self."""
        if not i:
            return self.components
        x0, x1, x2 = self.components
        a, k = self.algebra.a, 3 - i
        t0, t1, t2 = x0.sigma(k), x1.sigma(k), x2.sigma(k)
        return (t2 * a, t0, t1) if i == 1 else (t1 * a, t2 * a, t0)

    def scale(self, factor) -> "AlgebraElem":
        """Multiply every component by a scalar from L (or a rational)."""
        return AlgebraElem(self.algebra, *[c * factor for c in self.components])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}; use inverse()")
        return _power(self, e, self.algebra.one())

    def __eq__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        return self.algebra == other.algebra and self.components == other.components

    def __bool__(self):
        return any(self.components)

    def __hash__(self):
        return hash((self.algebra.field.p, self.algebra.a) + self.components)

    def __repr__(self):
        return "({!r}) + ({!r})*al + ({!r})*al^2".format(*self.components)

    # -- norm forms and inversion -----------------------------------------

    def splitting_matrix(self):
        """3x3 matrix over L representing right multiplication by this element.

        Multiplicative: M(x*y) = M(x)*M(y), M(1) = I (checked exhaustively
        by the randomized suite, which is what fixes the row convention).
        """
        return self._row(0), self._row(1), self._row(2)

    def _cofactors(self):
        """First-column cofactors of the splitting matrix, and its determinant."""
        m = self.splitting_matrix()
        c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
        c10 = m[2][1] * m[0][2] - m[0][1] * m[2][2]
        c20 = m[0][1] * m[1][2] - m[1][1] * m[0][2]
        return (c00, c10, c20), m[0][0] * c00 + m[1][0] * c10 + m[2][0] * c20

    def reduced_norm(self) -> FieldElem:
        """det of the splitting matrix; lands in K and is multiplicative."""
        return self._cofactors()[1]

    def inverse(self) -> "AlgebraElem":
        """Two-sided inverse; both identities are verified before returning.

        Cofactor route: the components of x^-1 are the first row of
        adj(M(x)) divided by the reduced norm, so only one field inversion
        (of the norm, an element of K) is ever performed.  The suite checks
        it against an independent 3x3 elimination over L, which is slower
        because every pivot division is a field inversion on grown
        intermediates.
        """
        if not self:
            raise DivisionByZero("inverse of the zero element")
        cofactors, det = self._cofactors()
        if not det:
            raise NotInvertible(
                "reduced norm is zero: the element is a zero divisor "
                "(the algebra is split for this parameter)"
            )
        det_inv = k_inverse(det)
        inv = AlgebraElem(self.algebra, *(c * det_inv for c in cofactors))
        one = self.algebra.one()
        if inv * self != one or self * inv != one:
            raise NotInvertible("cofactor route produced a one-sided inverse")
        return inv

    def regular_rep_rows(self):
        """Integer rows of left multiplication by x on A over Q, and their denominator.

        Row (c, e) holds the coordinates of x * zeta^e alpha^c (component
        index times the power basis of L).  Moving alpha^i past zeta^e
        applies s^-i, so the image is sum_i x_i * zeta^(e * d^-i) * alpha^(i+c),
        with alpha^(i+c) = a * alpha^(i+c-3) when i + c >= 3: each block is
        the p slots of num + (0,) rotated by m and folded by _fold, and no
        algebra product is formed.
        """
        field, a = self.algebra.field, self.algebra.a
        p, n = field.p, field.degree
        dx = lcm(*[z.den for z in self.components])
        # over the denominator dx, a block that wraps past alpha^2 carries a
        blocks = [
            [[c * (dx // z.den) * s for c in z.num + (0,)] for s in (1, a)]
            for z in self.components
        ]
        d_inv = pow(field.d, -1, p)
        rows = []
        for c in range(3):
            for e in range(n):
                row = []
                for j in range(3):
                    i = (j - c) % 3
                    v = blocks[i][i + c >= 3]
                    m = e * pow(d_inv, i, p) % p
                    # times zeta^m: slot k takes v[k - m] (indices wrap mod p)
                    row.extend(_fold(v[p - m :] + v[: p - m]))
                rows.append(row)
        return rows, dx

    def regular_rep_det(self) -> Rat:
        """Exact determinant of left multiplication by x on A as a Q-space.

        The space has dimension 3(p-1); the matrix is regular_rep_rows()
        (its rows are the images of the basis, and a matrix and its
        transpose share the determinant).  An independent witness for the
        reduced norm through the exact identity
        det_Q(L_x) = N_{L/Q}(Nrd x) = N_{K/Q}(Nrd x)^3.
        """
        rows, den = self.regular_rep_rows()
        return Rat(linalg.det_rational(rows), den ** len(rows))
