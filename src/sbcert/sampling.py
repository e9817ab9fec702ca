"""Deterministic random element generators shared by the pipeline and tests.

Coordinates are rationals with numerators in [-9, 9] and denominators in
{1, 2, 3}; small enough to keep exact arithmetic fast, varied enough to
exercise every reduction path.  Each coordinate is drawn as an integer
numerator over COMMON_DEN = lcm(1, 2, 3) and the element is reduced once,
so no Fraction is built.  All draws come from a caller-supplied
random.Random so runs are reproducible from a seed.
"""

from math import lcm

from .algebra import AlgebraElem, CyclicAlgebra
from .cyclotomic import CycloField, FieldElem, _reduced

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)
COMMON_DEN = lcm(*DENOMINATORS)


def random_field_elem(field: CycloField, rng) -> FieldElem:
    # randint before choice, the order the seeded sample streams were pinned in;
    # n / q is n * (COMMON_DEN // q) over COMMON_DEN
    num = [
        rng.randint(*NUMERATOR_RANGE) * (COMMON_DEN // rng.choice(DENOMINATORS))
        for _ in range(field.degree)
    ]
    return _reduced(field, num, COMMON_DEN)


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
