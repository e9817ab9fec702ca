"""The algebra's bilinear laws, checked exactly on the basis zeta^e alpha^c.

The product, sigma, the splitting matrix M and the shift-built rows of left
multiplication are Q-linear in each argument, so a law that holds on every
tuple of basis elements holds on all of A.  At p = 7 the basis has
3(p - 1) = 18 elements; the randomized suite and the certificate's trial
blocks sample the same laws.
"""

from itertools import product

import pytest
from oracles import mat_mul

from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import make_field
from sbcert.rationals import Rat


def _monomial(algebra, e, c):
    """zeta^e alpha^c as an algebra element."""
    field = algebra.field
    comps = [field.zero()] * 3
    comps[c] = field.zeta(e)
    return algebra.element(*comps)


@pytest.fixture(scope="module", params=[2, -5], ids=["a=2", "a=-5"])
def basis7(request):
    """The Q-basis zeta^e alpha^c (e < p - 1, c < 3) of the algebra at p = 7."""
    algebra = CyclicAlgebra(make_field(7), request.param)
    return algebra, [_monomial(algebra, e, c) for c in range(3) for e in range(6)]


def _coords(x):
    return [c for z in x.components for c in z.coords]


def test_left_L_linearity_on_basis(basis7):
    # (lambda x) y = lambda (x y); with it, associativity reduces to alpha^c x y
    algebra, basis = basis7
    lambdas = [algebra.embed(algebra.field.zeta(e)) for e in range(6)]
    for lam, x, y in product(lambdas, basis, basis):
        assert (lam * x) * y == lam * (x * y)


def test_associativity_on_basis(basis7):
    algebra, basis = basis7
    powers = [algebra.one(), algebra.alpha(), algebra.alpha() * algebra.alpha()]
    for x, y, z in product(powers, basis, basis):
        assert (x * y) * z == x * (y * z)


def test_lambda_alpha_on_basis(basis7):
    algebra, _ = basis7
    field, al = algebra.field, algebra.alpha()
    for e in range(6):
        lam = field.zeta(e)
        assert algebra.embed(lam) * al == al * algebra.embed(lam.sigma(1))


def test_splitting_matrix_multiplicative_on_basis(basis7):
    algebra, basis = basis7
    field = algebra.field
    split = {x: x.splitting_matrix() for x in basis}
    for x, y in product(basis, basis):
        assert (x * y).splitting_matrix() == mat_mul(field, split[x], split[y])


def test_regular_rep_rows_on_basis(basis7):
    # row (c, e) of left multiplication by x is x * zeta^e alpha^c, built by
    # index shifts without a product
    _, basis = basis7
    for x in basis:
        rows, den = x.regular_rep_rows()
        for row, y in zip(rows, basis):
            assert [Rat(v, den) for v in row] == _coords(x * y)
