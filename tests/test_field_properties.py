"""Property tests of the field laws in Q(zeta_p) for p = 7, 13 and 19."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
