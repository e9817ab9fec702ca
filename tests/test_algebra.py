"""Cyclic algebra: defining relations, norm forms, division evidence."""

from fractions import Fraction

import pytest
from oracles import inverse_via_solve, mat_mul

from sbcert.algebra import AlgebraElem, CyclicAlgebra
from sbcert.cyclotomic import FieldElem, gaussian_periods, make_field
from sbcert.errors import DivisionByZero, NotInvertible, ParamMismatch
from sbcert.obstruction import certifies_division
from sbcert.pipeline import run_algebra_checks
from sbcert.rationals import Rat
from sbcert.sampling import (
    random_algebra_elem,
    random_field_elem,
    random_nonzero_algebra_elem,
)


def _identity_matrix(field):
    one, zero = field.one(), field.zero()
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def test_alpha_cubed_is_a(alg7, field7):
    al = alg7.alpha()
    assert al * al * al == alg7.embed(2)
    assert al**3 == alg7.embed(2)


def test_lambda_alpha_relation(alg7, field7, rng):
    al = alg7.alpha()
    for _ in range(100):
        lam = random_field_elem(field7, rng)
        assert alg7.embed(lam) * al == al * alg7.embed(lam.sigma(1))


def test_xi_alpha_specialization(alg7, field7):
    al = alg7.alpha()
    xi = field7.zeta()
    lhs = alg7.embed(xi) * al
    assert lhs == al * alg7.embed(xi**field7.d)
    # in left-coefficient components both sides read (0, xi, 0):
    # moving alpha out front turns xi^d back into sigma^2(xi^d) = xi
    assert lhs == alg7.element(0, xi, 0)


def test_embed_is_a_ring_map(alg7, field7, rng):
    assert alg7.embed(field7.one()) == alg7.one()
    lam = random_field_elem(field7, rng)
    mu = random_field_elem(field7, rng)
    assert alg7.embed(lam * mu) == alg7.embed(lam) * alg7.embed(mu)
    assert alg7.embed(lam + mu) == alg7.embed(lam) + alg7.embed(mu)


def test_mul_identity_and_associativity(alg7, rng):
    one = alg7.one()
    for _ in range(100):
        x = random_algebra_elem(alg7, rng)
        y = random_algebra_elem(alg7, rng)
        z = random_algebra_elem(alg7, rng)
        assert x * one == x and one * x == x
        assert (x * y) * z == x * (y * z)


def test_product_work_at_p7(alg7, field7, rng, monkeypatch):
    # x * y = (x0, x1, x2) M(y): three products per nonzero x_i, one a-scaling
    # in row 1 and two in row 2, and each twisted row of y costs three sigmas
    x, y = random_algebra_elem(alg7, rng), random_algebra_elem(alg7, rng)
    lam = alg7.embed(random_field_elem(field7, rng))
    assert all(x.components) and all(y.components) and lam.components[0]
    counts = dict.fromkeys(("__mul__", "sigma", "__add__"), 0)
    for name in counts:
        real = getattr(FieldElem, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(FieldElem, name, counting)
    x * y
    assert counts == {"__mul__": 12, "sigma": 6, "__add__": 6}
    counts.update(dict.fromkeys(counts, 0))
    lam * y
    assert counts == {"__mul__": 3, "sigma": 0, "__add__": 0}


def test_additive_structure_and_distributivity(alg7, rng):
    zero = alg7.zero()
    for _ in range(30):
        x, y, z = [random_algebra_elem(alg7, rng) for _ in range(3)]
        assert (x - y) + y == x
        assert x + (-x) == zero
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x


def test_power_is_the_repeated_product(alg7, field7, rng):
    elems = [
        (random_field_elem(field7, rng), field7.one()),
        (random_algebra_elem(alg7, rng), alg7.one()),
    ]
    for x, expected in elems:
        for e in range(9):
            assert x**e == expected
            expected = expected * x


def test_alpha_cubed_takes_two_products(alg7, monkeypatch):
    calls = []
    real = AlgebraElem.__mul__

    def counting(x, y):
        calls.append(y)
        return real(x, y)

    monkeypatch.setattr(AlgebraElem, "__mul__", counting)
    assert alg7.alpha() ** 3 == alg7.embed(2)
    assert len(calls) == 2


def test_param_mismatch(field7, field13):
    a2 = CyclicAlgebra(field7, 2)
    a3 = CyclicAlgebra(field7, 3)
    with pytest.raises(ParamMismatch):
        a2.one() * a3.one()
    a13 = CyclicAlgebra(field13, 2)
    with pytest.raises(ParamMismatch):
        a2.one() * a13.one()


def test_components_from_another_field_rejected(alg7, field13):
    # element is the one constructor, so embed inherits its field guard
    for build in (
        lambda: alg7.element(field13.zeta(), 0, 0),
        lambda: alg7.embed(field13.zeta()),
    ):
        with pytest.raises(ParamMismatch):
            build()


def test_splitting_matrix_special_values(alg7, field7, rng):
    assert alg7.one().splitting_matrix() == _identity_matrix(field7)
    m_alpha = alg7.alpha().splitting_matrix()
    zero, one = field7.zero(), field7.one()
    a_elem = field7.from_rational(2)
    assert m_alpha == ((zero, one, zero), (zero, zero, one), (a_elem, zero, zero))
    assert alg7.alpha().reduced_norm() == a_elem
    lam = random_field_elem(field7, rng)
    m_lam = alg7.embed(lam).splitting_matrix()
    # diagonal with the three conjugates; determinant is the relative norm
    assert m_lam[0][0] == lam
    assert {m_lam[1][1], m_lam[2][2]} == {lam.sigma(1), lam.sigma(2)}
    assert all(not m_lam[i][j] for i in range(3) for j in range(3) if i != j)


def test_splitting_matrix_multiplicative(alg7, field7, rng):
    for _ in range(100):
        x = random_algebra_elem(alg7, rng)
        y = random_algebra_elem(alg7, rng)
        assert mat_mul(field7, x.splitting_matrix(), y.splitting_matrix()) == (
            x * y
        ).splitting_matrix()


def test_reduced_norm_values(alg7, field7, rng):
    assert alg7.one().reduced_norm() == field7.one()
    assert alg7.alpha().reduced_norm() == field7.from_rational(2)
    lam = random_field_elem(field7, rng)
    assert alg7.embed(lam).reduced_norm() == lam.relative_norm()


def test_reduced_norm_in_K_and_multiplicative(alg7, rng):
    for _ in range(100):
        x = random_algebra_elem(alg7, rng)
        y = random_algebra_elem(alg7, rng)
        assert x.reduced_norm().is_in_K()
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()


def test_division_property(alg7, rng):
    # conditional on the certified non-cube parameter: no nonzero norms vanish
    one = alg7.one()
    for _ in range(200):
        x = random_nonzero_algebra_elem(alg7, rng)
        assert x.reduced_norm()
        y = x.inverse()
        assert x * y == one and y * x == one


def test_inverse_special_values(alg7, field7):
    assert alg7.one().inverse() == alg7.one()
    assert alg7.alpha().inverse() == alg7.element(0, 0, Rat(1, 2))
    xi = field7.zeta()
    assert alg7.embed(xi).inverse() == alg7.embed(xi.inv())
    with pytest.raises(DivisionByZero):
        alg7.zero().inverse()


def test_inverse_routes_agree(alg7, rng):
    for _ in range(100):
        x = random_nonzero_algebra_elem(alg7, rng)
        assert x.inverse() == inverse_via_solve(x)


def test_split_parameter_has_zero_divisors(field7):
    # a = 1 is a cube, the algebra splits, and alpha - 1 kills the norm form
    split = CyclicAlgebra(field7, 1)
    assert not certifies_division(split.a, 7)
    zd = split.element(-1, 1, 0)
    assert zd.reduced_norm() == field7.zero()
    assert zd.regular_rep_det() == 0
    with pytest.raises(NotInvertible):
        zd.inverse()
    with pytest.raises(NotInvertible):
        inverse_via_solve(zd)


def test_trial_blocks_pass_on_the_split_algebra(field7):
    # the trial blocks check only that the arithmetic is consistent: on the split
    # algebra a = 1 every block passes, and only division_certified reads false
    checks = run_algebra_checks(CyclicAlgebra(field7, 1), seed=0, trials=20)
    assert checks.pop("division_certified") is False
    checks.pop("seed")
    assert checks["division_property"]["trials"] == 40
    assert all(v["ok"] if isinstance(v, dict) else v for v in checks.values())


def test_division_certified_flag(field7):
    assert certifies_division(2, 7) and certifies_division(-5, 7)
    assert not certifies_division(6, 7)  # cube residue
    assert not certifies_division(7, 7)  # not a unit mod p
    assert not certifies_division(1, 7)
    # the parameter is a nonzero int: no Fraction (even an integral one), float or bool
    for a in (Rat(1, 2), Rat(2), 2.0, True):
        with pytest.raises(TypeError):
            CyclicAlgebra(field7, a)
    with pytest.raises(ValueError):
        CyclicAlgebra(field7, 0)


def test_regular_rep_det_values(alg7):
    assert alg7.one().regular_rep_det() == 1
    doubled = alg7.embed(2)
    assert doubled.regular_rep_det() == Rat(2) ** 18  # scalar on a 3(p-1)-dim space


def test_regular_rep_det_is_norm_of_reduced_norm(alg7, field13, rng):
    # det_Q(L_x) = N_{L/Q}(Nrd x) = N_{K/Q}(Nrd x)^3
    alg13 = CyclicAlgebra(field13, 2)
    for algebra, trials in ((alg7, 20), (alg13, 5)):
        for _ in range(trials):
            x = random_algebra_elem(algebra, rng)
            assert x.regular_rep_det() == x.reduced_norm().norm()


def test_cross_oracle_vanishing(alg7, field7, rng):
    split = CyclicAlgebra(field7, 1)
    hits = 0
    for _ in range(100):
        x = random_algebra_elem(alg7, rng)
        assert (x.regular_rep_det() == 0) == (not x.reduced_norm())
        y = random_algebra_elem(split, rng)
        vanished = not y.reduced_norm()
        hits += vanished
        assert (y.regular_rep_det() == 0) == vanished


def test_center_spot_checks(alg7, field7, rng):
    al = alg7.alpha()
    eta0 = gaussian_periods(field7)[0]
    assert alg7.embed(eta0) * al == al * alg7.embed(eta0)  # sigma-invariant: central
    assert alg7.embed(field7.zeta()) * al != al * alg7.embed(field7.zeta())
    xi_emb = alg7.embed(field7.zeta())
    for _ in range(50):
        x = random_algebra_elem(alg7, rng)
        if x * al == al * x and x * xi_emb == xi_emb * x:
            x0, x1, x2 = x.components
            assert not x1 and not x2 and x0.is_in_K()


def test_random_algebra_elem_builds_no_fraction(monkeypatch, rng):
    # coordinates are drawn as integer numerators over one common denominator
    algebra = CyclicAlgebra(make_field(13), 2)
    count = 0
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    xs = [random_algebra_elem(algebra, rng) for _ in range(20)]
    monkeypatch.undo()
    assert count == 0
    assert any(c.den != 1 for x in xs for c in x.components)


def test_regular_rep_det_makes_no_algebra_product(alg7, rng, monkeypatch):
    x = random_algebra_elem(alg7, rng)
    calls = []
    real = AlgebraElem.__mul__
    monkeypatch.setattr(AlgebraElem, "__mul__", lambda s, o: calls.append(o) or real(s, o))
    det = x.regular_rep_det()
    assert calls == []
    assert det == x.reduced_norm().norm()
