"""Test-only random draws that the package itself does not need."""

from sbcert.cyclotomic import CycloField, FieldElem, gaussian_periods
from sbcert.pipeline import DENOMINATORS, NUMERATOR_RANGE, random_field_elem
from sbcert.rationals import Rat


def random_rational(rng) -> Rat:
    return Rat(rng.randint(*NUMERATOR_RANGE), rng.choice(DENOMINATORS))


def random_nonzero_field_elem(field: CycloField, rng) -> FieldElem:
    while True:
        x = random_field_elem(field, rng)
        if x:
            return x


def random_k_star_elem(field: CycloField, rng) -> FieldElem:
    """Nonzero element of the fixed field: a random rational period combination."""
    periods = gaussian_periods(field)
    while True:
        acc = field.zero()
        for eta in periods:
            q = random_rational(rng)
            if q:
                acc = acc + eta * q
        if acc:
            return acc
