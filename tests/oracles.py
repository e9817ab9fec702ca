"""Test-only oracles: slow, direct routes that the package's fast ones must agree with."""

from collections import Counter
from itertools import count
from math import isqrt, lcm

from sbcert import linalg
from sbcert.algebra import AlgebraElem
from sbcert.cyclotomic import gaussian_periods, k_coordinate_vector
from sbcert.errors import DivisionByZero, NotInvertible
from sbcert.projective import ISO_CONVENTION, canonicalize
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


def int_columns(x):
    """Columns x * zeta^e of multiplication by x, as integers over their common den.

    The den is the lcm of the columns' own dens, not taken from x.
    """
    field = x.field
    cols = [x * field.zeta(e) for e in range(field.degree)]
    den = lcm(*(c.den for c in cols))
    return [[v * (den // c.den) for v in c.num] for c in cols], den


def inv_linear_solve(x):
    """x^-1 by solving the multiplication-by-x system over Q, in L; no route through K."""
    cols, den = int_columns(x)
    n = len(cols)
    sol, sol_den = linalg.solve([list(row) for row in zip(*cols)], [den] + [0] * (n - 1))
    return x.field.element([Rat(y, sol_den) for y in sol])


def norm_by_conjugates(x) -> Rat:
    """N_{L/Q}(x) as the product of its p - 1 conjugates zeta -> zeta^t.

    FieldElem.norm() goes through the fixed field K instead: a k x k
    determinant of multiplication by the relative norm.
    """
    prod = x.field.one()
    for t in range(1, x.field.p):
        prod = prod * x.apply_aut(t)
    if any(prod.num[1:]):
        raise AssertionError("the product of all conjugates is not rational")
    return prod.coords[0]


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
    periods = gaussian_periods(field)
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

    Independent of the cofactor route of AlgebraElem.inverse(), and its
    pivots are inverted by inv_linear_solve, not through K; right
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
        pivot_inv = inv_linear_solve(rows[k][k])
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
    """Direct test for x = c*y with c in K*; independent of canonicalize() and k_inverse."""
    if not x or not y:
        raise DivisionByZero("projective comparison of the zero element")
    if x.algebra != y.algebra:
        raise ValueError("elements from different algebras")
    pivot = next(i for i, yc in enumerate(y.components) if yc)
    xc = x.components[pivot]
    if not xc:
        return False
    ratio = xc * inv_linear_solve(y.components[pivot])
    if not ratio.is_in_K():
        return False
    return x == y.scale(ratio)


def table_orders_by_bounded_walk(table) -> list:
    """The order of every element, by at most n steps down its column.

    A walk that has not reached the identity 0 after n steps gives 0; the
    package's _orders stops at a repeat instead, and must agree on every
    square table with entries in range, a group or not.
    """
    n = len(table)
    orders = []
    for i in range(n):
        x, m = i, 1
        while x and m < n:
            x = table[x][i]
            m += 1
        orders.append(0 if x else m)
    return orders


def is_group_by_entries(table, gens) -> bool:
    """is_group with Light's test entry by entry: (x s) y == x (s y) for all s, x, y.

    The package's is_group compares whole rows instead, after a range check
    that this oracle leaves out: it is only called on tables over range(n).
    """
    n = len(table)
    if any(table[0][j] != j or table[j][0] != j or 0 not in table[j] for j in range(n)):
        return False
    reached = [0]
    seen = {0}
    for x in reached:
        for s in gens:
            y = table[x][s]
            if y not in seen:
                seen.add(y)
                reached.append(y)
    if len(reached) != n:
        return False
    return all(
        table[table[x][s]][y] == table[x][table[s][y]]
        for s in gens
        for x in range(n)
        for y in range(n)
    )


def iso_images(table, xi: int, al: int, n: int) -> list:
    """phi(u, v) = xi^u * (al^2)^v at index 3u + v, by walking the table from 0."""
    phi = []
    x = 0
    for _ in range(n // 3):
        for v in range(3):
            y = x
            for _ in range(2 * v):
                y = table[y][al]
            phi.append(y)
        x = table[x][xi]
    return phi


def check_isomorphism_by_entries(table, xi: int, al: int, abstract) -> dict:
    """check_isomorphism with phi's homomorphism test pair by pair, in scan order.

    The package compares one row per abstract element and scans a row only
    once it has found it broken; the verdict, pairs_checked and the
    counterexample must agree.  Tables over range(n) only, as above.
    """
    n = len(abstract)
    result = {"ok": False, "pairs_checked": 0, "convention": ISO_CONVENTION,
              "counterexample": None}
    if len(table) != n:
        return result
    phi = iso_images(table, xi, al, n)
    if sorted(phi) != list(range(n)):
        return result
    for gi in range(n):
        for hi in range(n):
            result["pairs_checked"] += 1
            if table[phi[gi]][phi[hi]] != phi[abstract[gi][hi]]:
                result["counterexample"] = (divmod(gi, 3), divmod(hi, 3))
                return result
    result["ok"] = True
    return result


def split_model_group(p: int, a: int, d=None) -> tuple:
    """Order and order histogram of <zeta, alpha> in PGL_3(F_q), from p and a alone.

    A split model that shares no code with sbcert: over the least prime
    q = 1 (mod p) that does not divide a, L splits, zeta maps to
    diag(w, w^d, w^(d^2)) for a primitive p-th root w in F_q, and alpha to
    the matrix with ones below the diagonal and a in the corner, so
    alpha^3 = a.  d defaults to the least residue of order 3 mod p; d = 1
    maps zeta to a scalar.  A class is its matrix scaled so that its first
    nonzero entry is 1.
    """
    if d is None:
        d = next(t for t in range(2, p) if pow(t, 3, p) == 1)
    q = next(q for q in count(p + 1, p) if all(q % f for f in range(2, isqrt(q) + 1)) and a % q)
    w = next(x for x in (pow(g, (q - 1) // p, q) for g in range(2, q)) if x != 1)

    def cls(m):  # m is a 3 x 3 matrix over F_q, flattened by rows
        c = pow(next(filter(None, m)), -1, q)
        return tuple(e * c % q for e in m)

    def mul(x, y):
        return cls([sum(x[3 * i + l] * y[3 * l + j] for l in range(3)) % q
                    for i in range(3) for j in range(3)])

    one = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    zeta = cls((w, 0, 0, 0, pow(w, d, q), 0, 0, 0, pow(w, d * d, q)))
    alpha = cls((0, 0, a % q, 1, 0, 0, 0, 1, 0))
    elements, seen = [one], {one}
    for x in elements:
        for s in (zeta, alpha):
            y = mul(x, s)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    histogram = Counter()
    for x in elements:
        y, m = x, 1
        while y != one:
            y, m = mul(y, x), m + 1
        histogram[m] += 1
    return len(elements), dict(histogram)
