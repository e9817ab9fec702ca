"""The algebra's bilinear laws, checked exactly on the basis zeta^e alpha^c.

The product, sigma, the splitting matrix M and the shift-built rows of left
multiplication are Q-linear in each argument, so a law that holds on every
tuple of basis elements holds on all of A.  At p = 7 the basis has
3(p - 1) = 18 elements.  Light's test of associativity and the closure
proof that the splitting matrix is multiplicative also run at p = 13, 31
and 43, and the defining relation on the powers of zeta at every
p = 1 (mod 3) up to the cap of 103.  The randomized suite
and the certificate's trial blocks sample the same laws, and they also
reach dense operands, where a product that is not bilinear would show.
"""

from itertools import product

import pytest
from oracles import mat_mul

from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import make_field
from sbcert.obstruction import choose_a
from sbcert.rationals import Rat

PRIMES = [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103]  # every p = 1 (mod 3) up to the cap
# Light's test takes 3.1 s at p = 43 on one CPU and 8.4 s at 61, so it stops at 43
LIGHTS_PRIMES = [7, 13, 31, 43]


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


@pytest.mark.parametrize("p", LIGHTS_PRIMES)
def test_associativity_by_lights_test(p):
    # the s with (x s) y = x (s y) for all x, y form a subspace closed under
    # products: (x (s t)) y = ((x s) t) y = (x s) (t y) = x (s (t y)) = x ((s t) y).
    # So zeta and alpha passing against every pair of basis monomials, which
    # their products reach, proves the product associative (Light's test)
    algebra = CyclicAlgebra(make_field(p), choose_a(p))
    zeta, al = algebra.embed(algebra.field.zeta()), algebra.alpha()
    basis = [_monomial(algebra, e, c) for c in range(3) for e in range(p - 1)]
    assert basis == [zeta**e * al**c for c in range(3) for e in range(p - 1)]
    for s, x, y in product((zeta, al), basis, basis):
        assert (x * s) * y == x * (s * y)


@pytest.mark.parametrize(
    "p, a", [(7, 2), (7, -5), *((p, choose_a(p)) for p in PRIMES[1:])],
    ids=["a=2", "a=-5", *(f"p={p}" for p in PRIMES[1:])],
)
def test_lambda_alpha_on_basis(p, a):
    # lambda alpha = alpha s(lambda) is Q-linear in lambda, so the p - 1 powers
    # of zeta, a Q-basis of L, prove it on all of L
    algebra = CyclicAlgebra(make_field(p), a)
    field, al = algebra.field, algebra.alpha()
    for e in range(p - 1):
        lam = field.zeta(e)
        assert algebra.embed(lam) * al == al * algebra.embed(lam.sigma(1))


def test_splitting_matrix_multiplicative_on_basis(basis7):
    algebra, basis = basis7
    field = algebra.field
    split = {x: x.splitting_matrix() for x in basis}
    for x, y in product(basis, basis):
        assert (x * y).splitting_matrix() == mat_mul(field, split[x], split[y])


# at the primes of Light's test, which the closure argument needs
@pytest.mark.parametrize("p", LIGHTS_PRIMES)
def test_splitting_matrix_multiplicative_by_closure(p):
    # the y with M(x y) = M(x) M(y) for all x form a subspace, and, as the
    # product is associative (Light's test above), one closed under products:
    # M(x (y z)) = M((x y) z) = M(x y) M(z) = M(x) M(y) M(z) = M(x) M(y z).
    # So zeta and alpha passing against every basis monomial x, with zeta and
    # alpha generating A, proves M multiplicative on all of A
    algebra = CyclicAlgebra(make_field(p), choose_a(p))
    field = algebra.field
    basis = [_monomial(algebra, e, c) for c in range(3) for e in range(p - 1)]
    for s in (algebra.embed(field.zeta()), algebra.alpha()):
        split_s = s.splitting_matrix()
        for x in basis:
            assert (x * s).splitting_matrix() == mat_mul(field, x.splitting_matrix(), split_s)


def test_regular_rep_rows_on_basis(basis7):
    # row (c, e) of left multiplication by x is x * zeta^e alpha^c, built by
    # index shifts without a product
    _, basis = basis7
    for x in basis:
        rows, den = x.regular_rep_rows()
        for row, y in zip(rows, basis):
            assert [Rat(v, den) for v in row] == _coords(x * y)
