"""Cyclotomic field arithmetic against independent schoolbook oracles."""

import operator
from math import lcm

import pytest
from draws import random_k_star_elem, random_nonzero_field_elem
from oracles import decompose_over_K, rank, schoolbook_mul

import sbcert.cyclotomic as cyclotomic
from sbcert import linalg
from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import (
    CycloField,
    cosets,
    gaussian_periods,
    is_prime,
    k_coordinate_vector,
    k_inverse,
    make_field,
)
from sbcert.errors import (
    BadResidue,
    DivisionByZero,
    NotInvertible,
    NotPrime,
    SingularBasis,
    WrongResidue,
)
from sbcert.projective import canonicalize
from sbcert.rationals import Rat
from sbcert.sampling import random_field_elem, random_nonzero_algebra_elem


def _int_columns(x):
    """Columns x * zeta^e of multiplication by x, as integers over their common den.

    The den is the lcm of the columns' own dens, not taken from x.
    """
    field = x.field
    cols = [x * field.zeta(e) for e in range(field.degree)]
    den = lcm(*(c.den for c in cols))
    return [[v * (den // c.den) for v in c.num] for c in cols], den


def _inv_linear_solve(x):
    # invert by solving the multiplication-by-x linear system over Q
    cols, den = _int_columns(x)
    n = len(cols)
    sol, sol_den = linalg.solve([list(row) for row in zip(*cols)], [den] + [0] * (n - 1))
    return x.field.element([Rat(y, sol_den) for y in sol])


def test_make_field_examples():
    f7 = make_field(7)
    assert (f7.d, f7.k) == (2, 2)
    f13 = make_field(13)
    assert (f13.d, f13.k) == (3, 4)


def test_make_field_d_is_smallest_order_three_residue():
    for p in (7, 13, 19, 31, 37, 43):
        f = make_field(p)
        candidates = [t for t in range(2, p) if pow(t, 3, p) == 1]
        assert f.d == min(candidates)
        assert f.d != 1 and pow(f.d, 3, p) == 1
        assert 3 * f.k == p - 1


def test_make_field_rejections():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(WrongResidue):
        make_field(11)
    with pytest.raises(WrongResidue):
        make_field(5)


def test_one_field_per_prime_compared_by_identity(field7, field13, rng):
    assert make_field(7) is make_field(7) is field7
    x7, x13 = random_nonzero_field_elem(field7, rng), random_nonzero_field_elem(field13, rng)
    # a field built directly is not make_field's, even with the same p and d
    y7 = CycloField(7, field7.d, field7.k).one()
    for x, y in ((x7, x13), (field7.one(), y7)):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError, match="different fields"):
                op(x, y)
        assert x != y
    assert field7.one() != field13.one()


@pytest.mark.parametrize("p", [7.0, [7], True], ids=["float", "list", "bool"])
def test_make_field_validates_a_prime_it_already_holds(field7, p):
    # 7.0 == 7 and True == 1 as dict keys: the lookup must not come before the checks
    with pytest.raises(NotPrime):
        make_field(p)


def test_additive_structure(field7, rng):
    z = field7.zeta()
    x = random_field_elem(field7, rng)
    assert x + field7.zero() == x
    assert z + (-z) == field7.zero()
    combined = field7.one() + z
    assert combined.coords == (Rat(1), Rat(1), Rat(0), Rat(0), Rat(0), Rat(0))
    assert x - x == field7.zero()


def test_mul_reduction_cases(field7):
    z = field7.zeta()
    # zeta * zeta^(p-2) hits the Phi_p fold
    assert z * field7.zeta(5) == field7.zeta(6)
    assert field7.zeta(6).coords == (Rat(-1),) * 6
    # zeta^3 * zeta^4 = zeta^7 = 1: wraps clean around the root of unity
    lhs = field7.zeta(3) * field7.zeta(4)
    assert lhs == field7.one()
    assert lhs == schoolbook_mul(field7, field7.zeta(3), field7.zeta(4))
    assert field7.zeta(2) * field7.zeta(4) == field7.zeta(6)


def test_mul_matches_schoolbook_oracle(field7, field13, rng):
    for field in (field7, field13):
        for _ in range(40):
            x = random_field_elem(field, rng)
            y = random_field_elem(field, rng)
            assert x * y == schoolbook_mul(field, x, y)


def test_mul_extreme_coefficients_match_schoolbook_oracle():
    # every convolution coefficient at the largest size its bound allows, with
    # both signs, and large numerators and denominators
    field = make_field(31)
    n = field.degree
    big = 2**70 + 1
    for x, y in (
        ([big] * n, [big] * n),
        ([-big] * n, [big] * n),
        ([big, -big] * (n // 2), [-big, big] * (n // 2)),
        ([Rat(big, 3)] * n, [Rat(-1, big)] + [0] * (n - 1)),
    ):
        x, y = field.element(x), field.element(y)
        assert x * y == schoolbook_mul(field, x, y)


def test_mul_by_zero_is_the_reduced_zero(field7, field13, rng):
    # a zero factor returns before the Kronecker pack; the product must still
    # be the one zero, over den 1
    for field in (field7, field13):
        zero = field.zero()
        for _ in range(20):
            x = random_nonzero_field_elem(field, rng)
            y = random_nonzero_field_elem(field, rng)
            for product in (x * zero, zero * x, zero * zero, x * (y - y)):
                assert product == zero
                assert product.den == 1
            # no zero factor: still the oracle's product, dense or a monomial
            assert x * y == schoolbook_mul(field, x, y)
            monomial = field.zeta(rng.randrange(field.p)) * rng.choice([-2, 3, Rat(1, 5)])
            assert x * monomial == schoolbook_mul(field, x, monomial)
            assert monomial * monomial == schoolbook_mul(field, monomial, monomial)


def _low_block_sign(x, y):
    """Sign of the unwrapped convolution's exponents 0 .. p - 1 as one packed integer.

    Slot bounds make that integer take the sign of its top nonzero slot.
    """
    p = x.field.p
    conv = [0] * p
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            if i + j < p:
                conv[i + j] += a * b
    top = next((c for c in reversed(conv) if c), 0)
    return (top > 0) - (top < 0)


def test_mul_with_a_negative_low_block_matches_schoolbook_oracle(field7, field13, rng):
    # the packed product is split at slot p with a signed low part; each of
    # these has a negative low part, with and without slots above p - 1
    cases = []
    for field in (field7, field13):
        n = field.degree
        z = field.zeta()
        cases += [
            (field.from_rational(-1), z),
            (-z, field.zeta(n - 1)),
            (field.element([0] * (n - 1) + [3]), field.element([-2] + [0] * (n - 3) + [5, 0])),
            (field.element([Rat(-7, 2)] * n), field.element([Rat(1, 3)] * n)),
        ]
        for _ in range(10):
            x, y = random_nonzero_field_elem(field, rng), random_nonzero_field_elem(field, rng)
            cases.append((x, -y if _low_block_sign(x, y) > 0 else y))
    for x, y in cases:
        assert _low_block_sign(x, y) < 0
        assert x * y == schoolbook_mul(x.field, x, y)


def test_plus_with_zero_and_equal_denominators(field7, field13, rng):
    for field in (field7, field13):
        zero = field.zero()
        for _ in range(10):
            x = random_nonzero_field_elem(field, rng)
            assert x + zero == x
            assert zero + x == x
            assert x - zero == x
            assert zero - x == -x
            assert x - x == zero and (x - x).den == 1
        half = field.from_rational(Rat(1, 2))
        assert half + half == field.one() and (half + half).den == 1
        # equal denominators, and a sum whose content cancels part of it
        u = field.element([Rat(1, 4), Rat(1, 4)] + [0] * (field.degree - 2))
        v = field.element([Rat(3, 4), Rat(-5, 4)] + [0] * (field.degree - 2))
        assert u.den == v.den == 4
        assert (u + v).coords == (Rat(1), Rat(-1)) + (Rat(0),) * (field.degree - 2)
        assert (u + v).den == 1
        assert (u - v).coords == (Rat(-1, 2), Rat(3, 2)) + (Rat(0),) * (field.degree - 2)
        assert (u - v).den == 2


def test_mul_identity(field7, rng):
    x = random_field_elem(field7, rng)
    assert x * field7.one() == x
    assert field7.one() * x == x


def test_inv_basics(field7):
    assert field7.one().inv() == field7.one()
    z = field7.zeta()
    zi = z.inv()
    assert z * zi == field7.one()
    assert zi == field7.zeta(6)  # zeta^(p-1), reduced
    with pytest.raises(DivisionByZero):
        field7.zero().inv()


def test_inv_agrees_with_linear_solve_oracle(field7, field13, rng):
    for field in (field7, field13):
        for _ in range(25):
            x = random_nonzero_field_elem(field, rng)
            assert x.inv() == _inv_linear_solve(x)
            assert x * x.inv() == field.one()


def test_norm_values(field7, field13, rng):
    assert field7.from_rational(Rat(-2, 3)).norm() == Rat(-2, 3) ** 6
    assert field7.zeta().norm() == 1
    assert (field13.one() - field13.zeta()).norm() == 13  # Phi_p(1) = p
    assert field7.zero().norm() == 0
    for field in (field7, field13):
        for _ in range(5):
            x = random_field_elem(field, rng)
            y = random_field_elem(field, rng)
            assert (x * y).norm() == x.norm() * y.norm()
            # N(x) is the determinant of multiplication by x over Q
            cols, den = _int_columns(x)
            assert x.norm() == Rat(linalg.det_rational(cols), den ** len(cols))


def test_apply_aut_identity_and_generator(field7, rng):
    x = random_field_elem(field7, rng)
    assert x.apply_aut(1) == x
    z = field7.zeta()
    assert z.apply_aut(field7.d) == field7.zeta(field7.d)


def test_apply_aut_is_ring_homomorphism(field7, rng):
    for t in range(1, 7):
        x = random_field_elem(field7, rng)
        y = random_field_elem(field7, rng)
        assert (x + y).apply_aut(t) == x.apply_aut(t) + y.apply_aut(t)
        assert (x * y).apply_aut(t) == x.apply_aut(t) * y.apply_aut(t)


def test_apply_aut_bad_residue(field7, rng):
    x = random_field_elem(field7, rng)
    with pytest.raises(BadResidue):
        x.apply_aut(0)
    with pytest.raises(BadResidue):
        x.apply_aut(7)


def test_sigma_has_order_three(field7, rng):
    x = random_nonzero_field_elem(field7, rng)
    assert x.sigma(1).sigma(1).sigma(1) == x
    assert field7.zeta().sigma(1) != field7.zeta()


def test_relative_norm_values(field7, rng):
    assert field7.one().relative_norm() == field7.one()
    # 1 + d + d^2 = 0 (mod p), so the norm of zeta collapses to 1
    d = field7.d
    assert (1 + d + d * d) % field7.p == 0
    assert field7.zeta().relative_norm() == field7.one()
    c = Rat(-5, 3)
    assert field7.from_rational(c).relative_norm() == field7.from_rational(c**3)


def test_is_in_K(field7):
    assert field7.from_rational(Rat(3, 2)).is_in_K()
    assert not field7.zeta().is_in_K()
    eta0 = gaussian_periods(field7)[0]
    assert eta0.is_in_K()


def test_gaussian_periods_p7(field7):
    assert cosets(field7) == ((1, 2, 4), (3, 5, 6))
    eta0, eta1 = gaussian_periods(field7)
    assert eta0 == field7.zeta(1) + field7.zeta(2) + field7.zeta(4)
    assert eta1 == field7.zeta(3) + field7.zeta(5) + field7.zeta(6)
    assert eta0 + eta1 == field7.from_rational(-1)


def test_gaussian_periods_structure(field13):
    periods = gaussian_periods(field13)
    assert len(periods) == field13.k
    assert all(eta.is_in_K() for eta in periods)
    matrix = [list(eta.coords) for eta in periods]
    assert rank(matrix) == field13.k


def test_decompose_trivial_cases(field7):
    eta0 = gaussian_periods(field7)[0]
    k0, k1, k2 = decompose_over_K(eta0)
    assert (k0, k1, k2) == (eta0, field7.zero(), field7.zero())
    k0, k1, k2 = decompose_over_K(field7.zeta())
    assert (k0, k1, k2) == (field7.zero(), field7.one(), field7.zero())


def test_decompose_roundtrip(field7, field13, rng):
    xi3 = field7.zeta(3)
    k0, k1, k2 = decompose_over_K(xi3)
    z = field7.zeta()
    assert k0 + k1 * z + k2 * z * z == xi3
    for field in (field7, field13):
        z = field.zeta()
        for _ in range(100):
            x = random_field_elem(field, rng)
            k0, k1, k2 = decompose_over_K(x)
            assert all(part.is_in_K() for part in (k0, k1, k2))
            assert k0 + k1 * z + k2 * z * z == x


def test_k_coordinates_are_integers_over_the_den(field7, field13, rng):
    for field in (field7, field13):
        k = field.k
        periods = gaussian_periods(field)
        z = field.zeta()
        for _ in range(25):
            x = random_field_elem(field, rng)
            vec = k_coordinate_vector(field, x)
            assert all(type(c) is int for c in vec)
            assert k_coordinate_vector(field, x.coords) == vec
            parts = [
                sum((eta * c for eta, c in zip(periods, vec[j * k : (j + 1) * k])), field.zero())
                for j in range(3)
            ]
            assert (parts[0] + parts[1] * z + parts[2] * z * z) * Rat(1, x.den) == x


def test_k_basis_is_unimodular_up_to_103():
    # {eta_i * zeta^j} is a Z-basis of Z[zeta]: the inverse is integral
    for p in (p for p in range(7, 104) if p % 3 == 1 and is_prime(p)):
        field = make_field(p)
        inv = cyclotomic._k_basis_inverse(field)
        assert all(type(c) is int for row in inv for c in row)
        # each basis vector has a unit coordinate vector
        basis = [eta * field.zeta(j) for j in range(3) for eta in gaussian_periods(field)]
        for c, b in enumerate(basis):
            assert k_coordinate_vector(field, b) == tuple(int(i == c) for i in range(p - 1))


def test_k_basis_inverse_rejects_a_non_unimodular_basis(field7, monkeypatch):
    doubled = tuple(2 * eta for eta in gaussian_periods(field7))
    monkeypatch.setattr(cyclotomic, "gaussian_periods", lambda field: doubled)
    with pytest.raises(SingularBasis):
        cyclotomic._k_basis_inverse.__wrapped__(field7)


def test_k_inverse_of_fixed_field_elements(field7, field13, rng):
    for field in (field7, field13):
        for _ in range(25):
            c = random_k_star_elem(field, rng)
            assert k_inverse(c) * c == field.one()


def test_k_inverse_rejects_elements_outside_K(field7):
    # the one inverse route left; outside K there is no fallback to FieldElem.inv
    for x in (field7.zeta(), field7.zeta() + 1, field7.element([1, 2, 0, 0, 0, 0])):
        with pytest.raises(NotInvertible):
            k_inverse(x)


def test_floats_rejected_at_the_rational_boundary(field7, alg7):
    # a float would enter as its binary expansion, 0.1 with a denominator of 2^55
    for build in (
        lambda: field7.from_rational(0.1),
        lambda: field7.element([0.5, 0, 0, 0, 0, 0]),
        lambda: CyclicAlgebra(field7, 0.5),
        lambda: field7.one() * 0.5,
        lambda: alg7.one().scale(0.5),
    ):
        with pytest.raises(TypeError):
            build()


def test_negative_exponent_rejected(field7, alg7):
    with pytest.raises(ValueError):
        field7.zeta() ** -1
    with pytest.raises(ValueError):
        alg7.alpha() ** -1


def test_element_equality_and_hash(field7, alg7, rng):
    a = field7.element([1, 2, 3, 4, 5, 6])
    b = field7.element([Rat(2, 2), 2, 3, 4, 5, 6])
    assert a == b and hash(a) == hash(b)
    assert a != field7.one()
    # an element never equals a rational, so equal objects keep equal hashes
    three = field7.from_rational(3)
    assert three != 3 and 3 not in {three} and three not in {3}
    assert three == field7.element([3, 0, 0, 0, 0, 0])
    # algebra elements, the projective group's class keys: the same value
    # built by different routes is one key
    zeta, al = field7.zeta(), alg7.alpha()
    same = [
        (alg7.element(0, zeta, 0), alg7.embed(zeta) * al),
        (alg7.element(0, zeta, 0), al * alg7.embed(zeta.sigma(1))),
        (alg7.element(2, 0, 0), al**3),
        (alg7.element(Rat(1, 2), 0, Rat(3, 6)), (alg7.one() + al * al).scale(Rat(1, 2))),
    ]
    for x, y in same:
        assert x == y and hash(x) == hash(y)
        assert {x: 0}[y] == 0
    assert alg7.element(0, zeta, 0) != alg7.element(0, 0, zeta)
    assert CyclicAlgebra(field7, 3).one() != alg7.one()
    for _ in range(20):
        x = random_nonzero_algebra_elem(alg7, rng)
        c = random_k_star_elem(field7, rng)
        h, g = canonicalize(x), canonicalize(x.scale(c))
        assert h == g and hash(h) == hash(g)
        assert {h: 0}[g] == 0
