"""Cube-residue obstruction certifying that the algebra parameter is not a norm.

A rational integer a with gcd(a, p) = 1 is a norm from L = Q(zeta_p) down
to the cubic-index subfield K only if its residue mod p is a cube in F_p:
the prime above p is totally and tamely ramified in L/K with residue field
F_p, so unit norms reduce to cubes there.  Choosing a non-cube therefore
blocks the norm globally. The congruence test is the load-bearing check; a
bounded brute-force search over small-height field elements provides
independent (inherently incomplete) negative evidence.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from .cyclotomic import CycloField, FieldElem
from .errors import BadResidue, BoundTooLarge

DEFAULT_ENUMERATION_CAP = 2_000_000


def cubes_mod_p(p: int) -> frozenset:
    """The set {t^3 mod p : t in (Z/p)*}; has exactly (p-1)/3 members."""
    return frozenset(pow(t, 3, p) for t in range(1, p))


def is_cube_mod_p(a: int, p: int) -> bool:
    """Euler-style criterion: a is a cube mod p iff a^((p-1)/3) = 1 (mod p)."""
    if a % p == 0:
        raise BadResidue(f"{a} is divisible by {p}")
    return pow(a, (p - 1) // 3, p) == 1


def certifies_division(a: int, p: int) -> bool:
    """Whether the integer a is a unit mod p with a non-cube residue.

    Then the cyclic algebra built from a is division (the imported lemma).
    """
    return a % p != 0 and not is_cube_mod_p(a, p)


def choose_a(p: int) -> int:
    """Smallest integer a >= 2 that certifies division at p."""
    return next(a for a in itertools.count(2) if certifies_division(a, p))


def search_candidate_count(field: CycloField, bound: int) -> int:
    return (2 * bound + 1) ** field.degree


def brute_force_norm_search(field: CycloField, a, bound: int) -> Optional[FieldElem]:
    """First element of bounded height whose relative norm equals a, if any.

    Enumeration order (fixed so runs are reproducible): coordinate vectors
    (c0, ..., c_{p-2}) with c0 varying fastest, each coordinate running
    through 0, 1, -1, 2, -2, ..., bound, -bound.  Scalars are therefore
    visited before anything else of the same height, so a = c^3 is always
    witnessed by c itself.
    """
    total = search_candidate_count(field, bound)
    if total > DEFAULT_ENUMERATION_CAP:
        raise BoundTooLarge(
            f"bound {bound} means {total} candidates, above the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    target = field.from_rational(a)
    values = [0]
    for h in range(1, bound + 1):
        values += [h, -h]
    for vec in itertools.product(values, repeat=field.degree):
        x = field.element(vec[::-1])
        if x.relative_norm() == target:
            return x
    return None


@dataclass(frozen=True)
class ObstructionReport:
    """Everything the certificate records about the choice of a, in key order."""

    p: int
    a: int
    cubes_mod_p: tuple
    is_cube: bool
    search_bound: int
    search_performed: bool
    search_candidates: int
    witness_found: Optional[FieldElem]

    @property
    def certificate_grade(self) -> bool:
        # a cube by the power criterion or by the enumerated set fails the grade
        cube = self.is_cube or self.a % self.p in self.cubes_mod_p
        return not cube and self.witness_found is None


def obstruction_report(field: CycloField, a: int, bound: int) -> ObstructionReport:
    """Run the congruence test and (for bound >= 1) the brute-force search."""
    performed = bound >= 1
    return ObstructionReport(
        p=field.p,
        a=a,
        cubes_mod_p=tuple(sorted(cubes_mod_p(field.p))),
        is_cube=is_cube_mod_p(a, field.p),
        search_bound=bound,
        search_performed=performed,
        search_candidates=search_candidate_count(field, bound) if performed else 0,
        witness_found=brute_force_norm_search(field, a, bound) if performed else None,
    )
