"""Exact linear algebra helpers."""

import random
from copy import deepcopy

import pytest
from oracles import rank

from sbcert import linalg
from sbcert.errors import SbcertError
from sbcert.rationals import Rat


def _rand_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _over(ints, den):
    """The rationals ints / den, for checking an integer answer."""
    return [Rat(y, den) for y in ints]


def test_solve_known_system():
    m = [[2, 1], [1, 3]]
    sol = linalg.solve(m, [5, 10])
    assert sol == ([1, 3], 1)


def test_solve_random_systems():
    rng = random.Random(5)
    for n in (1, 3, 6):
        for _ in range(20):
            m = _rand_matrix(rng, n, -2, 2)  # small entries: singular and pivoting cases occur
            b = [rng.randint(-5, 5) for _ in range(n)]
            if linalg.det_rational(m) == 0:
                with pytest.raises(SbcertError, match=f"singular {n} x {n} matrix"):
                    linalg.solve(m, b)
                continue
            x = _over(*linalg.solve(m, b))
            assert [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)] == b


def test_solve_singular():
    m = [[1, 2], [2, 4]]
    with pytest.raises(SbcertError, match="singular 2 x 2 matrix"):
        linalg.solve(m, [1, 1])


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
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(20):
        m = _rand_matrix(rng, 4)
        assert linalg.det_rational(m) == _det_cofactor(m)


def test_det_singular_and_identity():
    assert linalg.det_rational([[1, 2], [2, 4]]) == 0
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    assert linalg.det_rational(ident) == 1


def test_rank():
    assert rank([[Rat(1), Rat(2)], [Rat(2), Rat(4)]]) == 1
    assert rank([[Rat(1), Rat(0)], [Rat(0), Rat(1)]]) == 2
    assert rank([[Rat(0), Rat(0)]]) == 0


def test_zero_leading_pivot_swaps_rows():
    assert linalg.det_rational([[0, 1], [1, 0]]) == -1
    m = [[0, 2, 1], [3, 1, 0], [1, 0, 1]]
    assert linalg.det_rational(m) == _det_cofactor(m)
    assert linalg.solve(m, [3, 4, 2]) == ([1, 1, 1], 1)


def test_singular_only_at_last_pivot():
    # pivots 1 and -3 are nonzero; the third column is the second doubled minus the first
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert linalg.det_rational(m) == 0
    with pytest.raises(SbcertError, match="singular 3 x 3 matrix"):
        linalg.solve(m, [1, 0, 0])
    with pytest.raises(SbcertError, match="singular 3 x 3 matrix"):
        linalg.invert(m)


def test_invert_with_row_swaps():
    m = [[0, 1, 2], [0, 3, 4], [1, 5, 6]]  # det = -2
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
    assert all(type(v) is int for v in [linalg.det_rational(m), den, *y, *rows[0], *rows[1]])
    # lowest terms: the answer to 2 m x = 2 b is the same pair
    assert linalg.solve([[2, 4], [6, 8]], [2, 0]) == ([-4, 3], 2)
    assert linalg.solve([[0, 1], [1, 0]], [3, 4]) == ([4, 3], 1)


def test_int_entries_only_and_caller_rows_unchanged():
    m = [[0, 2, 1], [3, 1, 0], [1, 0, 1]]  # det = -7; the zero pivot swaps rows
    b = [3, 4, 2]
    before = deepcopy((m, b))
    assert linalg.solve(m, b) == ([1, 1, 1], 1)
    assert linalg.invert(m)[1] == 7
    assert linalg.det_rational(m) == -7
    assert (m, b) == before
    # the exact divisions would floor a Fraction; a bool is not an entry
    for bad in (Rat(1, 2), Rat(2), True):
        bad_m = [[bad, 2, 1], *m[1:]]
        calls = [
            lambda: linalg.solve(bad_m, b),
            lambda: linalg.solve(m, [3, bad, 2]),
            lambda: linalg.invert(bad_m),
            lambda: linalg.det_rational(bad_m),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
