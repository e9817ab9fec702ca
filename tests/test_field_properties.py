"""Property tests of the field laws and the product in Q(zeta_p), p = 7 to 31."""

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import schoolbook_mul

from sbcert.cyclotomic import make_field
from sbcert.rationals import Rat

# derandomized: the suite draws the same examples on every run
PROPERTY = settings(deadline=None, derandomize=True)


def _coords(numerators, denominators):
    return [Rat(n, d) for n, d in zip(numerators, denominators)]


@st.composite
def _elements(draw, count):
    """A field Q(zeta_p), p in {7, 13, 19}, and count of its elements.

    Each coordinate has its own denominator, so elements mix denominators;
    zero numerators, and so zero slots and zero itself, are drawn early.
    """
    field = make_field(draw(st.sampled_from((7, 13, 19))))
    n = field.degree
    dense = st.builds(
        _coords,
        st.lists(st.integers(-60, 60), min_size=n, max_size=n),
        st.lists(st.integers(1, 12), min_size=n, max_size=n),
    ).map(field.element)
    return field, [draw(dense) for _ in range(count)]


@PROPERTY
@given(_elements(3))
def test_field_axioms_random_triples(drawn):
    _, (x, y, z) = drawn
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@PROPERTY
@given(st.data())
def test_apply_aut_composition_law(data):
    field, (x,) = data.draw(_elements(1))
    p = field.p
    s, t = data.draw(st.tuples(st.integers(1, p - 1), st.integers(1, p - 1)))
    assert x.apply_aut(s).apply_aut(t) == x.apply_aut((t * s) % p)


@PROPERTY
@given(_elements(2))
def test_relative_norm_multiplicative_and_in_K(drawn):
    _, (x, y) = drawn
    assert (x * y).relative_norm() == x.relative_norm() * y.relative_norm()
    assert x.relative_norm().is_in_K()


@st.composite
def _factor_pairs(draw):
    """A field Q(zeta_p), p in {7, 13, 19, 31}, and two factors of its product.

    Coefficients run from 0 up to +-2^70 over mixed denominators; zero
    slots and whole zero factors are drawn often.
    """
    field = make_field(draw(st.sampled_from((7, 13, 19, 31))))
    n = field.degree
    coeff = st.one_of(st.just(0), st.integers(-(2**70), 2**70))
    dense = st.builds(
        _coords,
        st.lists(coeff, min_size=n, max_size=n),
        st.lists(st.integers(1, 12), min_size=n, max_size=n),
    ).map(field.element)
    factor = st.one_of(st.just(field.zero()), dense)
    return field, draw(factor), draw(factor)


@PROPERTY
@given(_factor_pairs())
def test_mul_matches_schoolbook_oracle(drawn):
    field, x, y = drawn
    assert x * y == schoolbook_mul(field, x, y)
