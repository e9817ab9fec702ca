"""Exact linear algebra helpers."""

import random

import pytest
from oracles import rank

from sbcert import linalg
from sbcert.errors import SingularMatrix
from sbcert.rationals import Rat


def _rand_matrix(rng, n, lo=-9, hi=9):
    return [[Rat(rng.randint(lo, hi), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Rat(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _over(ints, den):
    """The rationals ints / den, for checking an integer answer."""
    return [Rat(y, den) for y in ints]


def test_solve_known_system():
    m = [[Rat(2), Rat(1)], [Rat(1), Rat(3)]]
    sol = linalg.solve(m, [Rat(5), Rat(10)])
    assert sol == ([1, 3], 1)


def test_solve_random_systems():
    rng = random.Random(5)
    for n in (1, 3, 6):
        for _ in range(20):
            m = _rand_matrix(rng, n, -2, 2)  # small entries: singular and pivoting cases occur
            b = [Rat(rng.randint(-5, 5)) for _ in range(n)]
            if linalg.det_rational(m) == 0:
                with pytest.raises(SingularMatrix):
                    linalg.solve(m, b)
                continue
            x = _over(*linalg.solve(m, b))
            assert [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)] == b


def test_solve_singular():
    m = [[Rat(1), Rat(2)], [Rat(2), Rat(4)]]
    with pytest.raises(SingularMatrix):
        linalg.solve(m, [Rat(1), Rat(1)])


def test_invert_roundtrip():
    rng = random.Random(7)
    m = _rand_matrix(rng, 5)
    while linalg.det_rational(m) == 0:
        m = _rand_matrix(rng, 5)
    rows, den = linalg.invert(m)
    inv = [_over(row, den) for row in rows]
    n = len(m)
    prod = [
        [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]
    assert prod == [[Rat(int(i == j)) for j in range(n)] for i in range(n)]


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(20):
        m = _rand_matrix(rng, 4)
        assert linalg.det_rational(m) == _det_cofactor(m)


def test_det_singular_and_identity():
    assert linalg.det_rational([[Rat(1), Rat(2)], [Rat(2), Rat(4)]]) == 0
    ident = [[Rat(int(i == j)) for j in range(6)] for i in range(6)]
    assert linalg.det_rational(ident) == 1


def test_rank():
    assert rank([[Rat(1), Rat(2)], [Rat(2), Rat(4)]]) == 1
    assert rank([[Rat(1), Rat(0)], [Rat(0), Rat(1)]]) == 2
    assert rank([[Rat(0), Rat(0)]]) == 0


def test_zero_leading_pivot_swaps_rows():
    assert linalg.det_rational([[0, 1], [1, 0]]) == -1
    m = [[0, 2, 1], [3, 1, 0], [1, 0, 1]]
    assert linalg.det_rational(m) == _det_cofactor([[Rat(e) for e in row] for row in m])
    assert linalg.solve(m, [3, 4, 2]) == ([1, 1, 1], 1)


def test_singular_only_at_last_pivot():
    # pivots 1 and -3 are nonzero; the third column is the second doubled minus the first
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert linalg.det_rational(m) == 0
    with pytest.raises(SingularMatrix):
        linalg.solve(m, [1, 0, 0])
    with pytest.raises(SingularMatrix):
        linalg.invert(m)


def test_solve_int_input_matches_rat_input():
    rng = random.Random(13)
    for n in (1, 2, 4, 7):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        while linalg.det_rational(m) == 0:
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        y, den = linalg.solve(m, b)
        assert all(type(v) is int for v in y) and type(den) is int
        assert (y, den) == linalg.solve([[Rat(e) for e in row] for row in m], [Rat(e) for e in b])


def test_invert_with_row_swaps():
    m = [[0, 1, 2], [0, 3, 4], [Rat(1, 2), 5, 6]]
    rows, den = linalg.invert(m)
    inv = [_over(row, den) for row in rows]
    n = len(m)
    assert [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [int(i == j) for j in range(n)] for i in range(n)
    ]


def test_det_of_empty_matrix():
    assert linalg.det_rational([]) == 1


def test_answers_are_ints_over_a_positive_den():
    m = [[1, 2], [3, 4]]  # det = -2
    assert linalg.det_rational(m) == -2
    y, den = linalg.solve(m, [1, 0])
    assert (y, den) == ([-4, 3], 2)
    rows, den = linalg.invert(m)
    assert (rows, den) == ([[-4, 2], [3, -1]], 2)
    assert all(type(v) is int for v in [den, *y, *rows[0], *rows[1]])
    # lowest terms: the answer to 2 m x = 2 b is the same pair
    assert linalg.solve([[2, 4], [6, 8]], [2, 0]) == ([-4, 3], 2)
    assert linalg.solve([[0, 1], [1, 0]], [3, 4]) == ([4, 3], 1)
