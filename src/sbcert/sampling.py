"""Deterministic random element generators shared by the pipeline and tests.

Coordinates are rationals with numerators in [-9, 9] and denominators in
{1, 2, 3}; small enough to keep exact arithmetic fast, varied enough to
exercise every reduction path.  All draws come from a caller-supplied
random.Random so runs are reproducible from a seed.
"""

from .algebra import AlgebraElem, CyclicAlgebra
from .cyclotomic import CycloField, FieldElem
from .rationals import Rat

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)


def random_rational(rng) -> Rat:
    return Rat(rng.randint(*NUMERATOR_RANGE), rng.choice(DENOMINATORS))


def random_field_elem(field: CycloField, rng) -> FieldElem:
    return field.element([random_rational(rng) for _ in range(field.degree)])


def random_algebra_elem(algebra: CyclicAlgebra, rng) -> AlgebraElem:
    f = algebra.field
    return AlgebraElem(
        algebra,
        random_field_elem(f, rng),
        random_field_elem(f, rng),
        random_field_elem(f, rng),
    )


def random_nonzero_algebra_elem(algebra: CyclicAlgebra, rng) -> AlgebraElem:
    while True:
        x = random_algebra_elem(algebra, rng)
        if x:
            return x
