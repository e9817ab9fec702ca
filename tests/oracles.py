"""Test-only oracles: slow, direct routes that the package's fast ones must agree with."""

from sbcert.algebra import AlgebraElem
from sbcert.errors import DivisionByZero, NotInvertible, ParamMismatch, ZeroElement


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
