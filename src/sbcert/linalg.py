"""Exact dense linear algebra on integer matrices; other entries raise TypeError.

A copy of the rows runs through one forward fraction-free elimination
(Bareiss, Math. Comp. 22, 1968; Cohen, A Course in Computational Algebraic
Number Theory, 2.2), so every intermediate entry is an exact integer
minor.  The determinant is that elimination alone; solve() and invert()
add exact integer back-substitution and answer in the num / den form
field elements use: integer numerators over one positive denominator, in
lowest terms.  Pivoting always takes the first nonzero candidate, so
every result is deterministic.
"""

from math import gcd

from .errors import SbcertError


def _int_rows(rows) -> list:
    """List copies of the rows, for _bareiss to work in; TypeError on a non-int entry.

    The type must be exactly int: floor division gives a Fraction entry a
    wrong answer, and a bool is not a matrix entry.
    """
    copies = [list(row) for row in rows]
    if any(type(e) is not int for row in copies for e in row):
        raise TypeError("linalg takes matrices of int entries only")
    return copies


def _bareiss(rows, n):
    """Eliminate the integer rows [A | B] in place, A the leading n columns.

    After step k every entry right of column k below row k is an exact
    (k+1)-minor of the input, so each division by the previous pivot is
    exact.  Returns det(A); when it is nonzero, A ends upper triangular and
    [A | B] has the solutions of the input system.
    """
    sign = prev = 1
    for k in range(n):
        if not rows[k][k]:
            pivot = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        row_k = rows[k]
        pkk = row_k[k]
        width = len(row_k)
        for i in range(k + 1, n):
            row_i = rows[i]
            mik = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * prev


def _solve_ints(rows, n):
    """Solve A X = B for the integer rows [A | B]; (rows of Y, d) with X = Y / d.

    det(A) * X is integral by Cramer's rule, so the back-substitution
    D_i = (det * b_i - sum_{j>i} a_ij D_j) // a_ii of D = det(A) * X
    divides exactly.  Y / d is D / det in lowest terms with d > 0.
    """
    det = _bareiss(rows, n)
    if not det:
        raise SbcertError(f"singular {n} x {n} matrix")
    scaled = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        scaled[i] = [
            (det * row[n + c] - sum(row[j] * scaled[j][c] for j in range(i + 1, n))) // row[i]
            for c in range(len(row) - n)
        ]
    g = gcd(det, *(e for row in scaled for e in row))
    if det < 0:
        g = -g
    return [[e // g for e in row] for row in scaled], det // g


def solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly: (y, d) with x = y / d; raises SbcertError."""
    rows = _int_rows([*row, b] for row, b in zip(matrix, rhs))
    sol, den = _solve_ints(rows, len(rows))
    return [y for (y,) in sol], den


def invert(matrix):
    """Exact inverse of an integer matrix: (Y, d) for Y / d; raises SbcertError."""
    rows = _int_rows(matrix)
    n = len(rows)
    for i, row in enumerate(rows):
        row.extend(int(j == i) for j in range(n))
    return _solve_ints(rows, n)


def det_rational(matrix) -> int:
    """Exact determinant of a square integer matrix; 1 for the empty one."""
    rows = _int_rows(matrix)
    return _bareiss(rows, len(rows))
