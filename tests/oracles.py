"""Test-only oracles: slow, direct routes that the package's fast ones must agree with."""

from sbcert.algebra import AlgebraElem
from sbcert.cyclotomic import k_coordinate_vector
from sbcert.errors import DivisionByZero, NotInvertible, ParamMismatch, ZeroElement
from sbcert.projective import canonicalize
from sbcert.rationals import Rat


def schoolbook_mul(field, x, y):
    """x * y by plain convolution, then long division by Phi_p = 1 + t + ... + t^(p-1).

    A different reduction route than the package's zeta^p folding, on
    exact rationals instead of packed integers.
    """
    p = field.p
    n = p - 1
    prod = [Rat(0)] * (2 * n - 1)
    for i, ca in enumerate(x.coords):
        for j, cb in enumerate(y.coords):
            prod[i + j] += ca * cb
    while len(prod) > n:
        lead = prod[-1]
        if lead:
            shift = len(prod) - 1 - n
            for idx in range(p):
                prod[shift + idx] -= lead
        prod.pop()
    prod += [Rat(0)] * (n - len(prod))
    return field.element(prod)


def mat_mul(field, lhs, rhs):
    """The product of two 3x3 matrices over L, entry by entry."""
    return tuple(
        tuple(sum((lhs[i][k] * rhs[k][j] for k in range(3)), field.zero()) for j in range(3))
        for i in range(3)
    )


def decompose_over_K(x):
    """Split x = k0 + k1*zeta + k2*zeta^2 with each ki in K.

    Each ki is rebuilt from its block of integer K-coordinates as a
    combination of the Gaussian periods over x.den.
    """
    field = x.field
    k = field.k
    vec = k_coordinate_vector(field, x)
    periods = field.gaussian_periods()
    return tuple(
        sum((eta * c for c, eta in zip(vec[j * k : (j + 1) * k], periods)), field.zero())
        * Rat(1, x.den)
        for j in range(3)
    )


def generate_subgroup_by_class_products(gens) -> list:
    """Breadth-first closure that multiplies canonical elements, g * s.

    The package's generate_subgroup multiplies the product that found each
    class instead; both must list the same classes and edges in the same
    order.  No cap: call it only on generators of a finite group.
    """
    e = gens[0].algebra.one()
    index = {e: 0}
    classes = [e]
    edges = []
    for g in classes:  # grows while it is walked: a BFS queue
        successors = []
        for s in gens:
            h = canonicalize(g * s)
            i = index.get(h)
            if i is None:
                i = index[h] = len(classes)
                classes.append(h)
            successors.append(i)
        edges.append(tuple(successors))
    return list(zip(classes, edges))


def regular_rep_rows_by_products(x: AlgebraElem) -> list:
    """Rational rows of left multiplication by x on A over Q, one product per row.

    Row (c, e) holds the coordinates of x * zeta^e alpha^c, formed as an
    algebra product; AlgebraElem.regular_rep_rows() builds the same rows by
    index shifts.
    """
    field = x.algebra.field
    rows = []
    for comp in range(3):
        for e in range(field.degree):
            basis_vec = [field.zero()] * 3
            basis_vec[comp] = field.zeta(e)
            prod = x * AlgebraElem(x.algebra, *basis_vec)
            rows.append([c for z in prod.components for c in z.coords])
    return rows


def inverse_via_solve(x: AlgebraElem) -> AlgebraElem:
    """Two-sided inverse by 3x3 Gauss-Jordan elimination over L.

    Independent of the cofactor route of AlgebraElem.inverse(); right
    multiplication by the unknown is L-linear, i.e. the system is
    M(x)^T y = e0.
    """
    if not x:
        raise DivisionByZero("inverse of the zero element")
    m = x.splitting_matrix()
    field = x.algebra.field
    rows = [[m[r][c] for r in range(3)] + [field.from_rational(int(c == 0))] for c in range(3)]
    for k in range(3):
        pivot = next((r for r in range(k, 3) if rows[r][k]), None)
        if pivot is None:
            raise NotInvertible(
                "singular right-multiplication matrix: the element has reduced "
                "norm zero (the algebra is split for this parameter)"
            )
        rows[k], rows[pivot] = rows[pivot], rows[k]
        pivot_inv = rows[k][k].inv()
        rows[k] = [e * pivot_inv for e in rows[k]]
        for i in range(3):
            factor = rows[i][k]
            if i != k and factor:
                rows[i] = [e - factor * f for e, f in zip(rows[i], rows[k])]
    inv = AlgebraElem(x.algebra, *(row[3] for row in rows))
    one = x.algebra.one()
    if inv * x != one or x * inv != one:
        raise NotInvertible("solver produced a one-sided inverse")
    return inv


def rank(matrix) -> int:
    """Rank of a rational matrix by exact forward elimination with division."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        prow = rows[rk]
        for r in range(rk + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / prow[col]
                rows[r] = [rows[r][c] - factor * prow[c] for c in range(ncols)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def class_eq(x: AlgebraElem, y: AlgebraElem) -> bool:
    """Direct test for x = c*y with c in K*; independent of canonicalize()."""
    if not x or not y:
        raise ZeroElement("projective comparison of the zero element")
    if x.algebra != y.algebra:
        raise ParamMismatch("elements from different algebras")
    pivot = next(i for i, yc in enumerate(y.components) if yc)
    xc = x.components[pivot]
    if not xc:
        return False
    ratio = xc * y.components[pivot].inv()
    if not ratio.is_in_K():
        return False
    return x == y.scale(ratio)
