"""Cube-residue obstruction and brute-force norm search."""

import random

import pytest

import sbcert.obstruction as obstruction
from sbcert.cyclotomic import FieldElem, is_prime, make_field
from sbcert.errors import BadInput
from sbcert.obstruction import (
    brute_force_norm_search,
    choose_a,
    cubes_mod_p,
    is_cube_mod_p,
    obstruction_report,
    search_candidate_count,
)
from sbcert.pipeline import random_field_elem

# every prime p = 1 (mod 3) that make_field accepts
PRIMES_TO_THE_CAP = [p for p in range(7, 104) if p % 3 == 1 and is_prime(p)]


def test_cubes_mod_p_examples():
    assert cubes_mod_p(7) == frozenset({1, 6})
    assert cubes_mod_p(13) == frozenset({1, 5, 8, 12})


def test_cubes_cardinality():
    for p in (7, 13, 19, 31, 37):
        assert len(cubes_mod_p(p)) == (p - 1) // 3


def test_is_cube_examples():
    assert is_cube_mod_p(1, 7)
    assert not is_cube_mod_p(2, 7)
    assert is_cube_mod_p(6, 7)
    with pytest.raises(ValueError, match="14 is divisible by 7"):
        is_cube_mod_p(14, 7)


def test_power_criterion_agrees_with_enumeration():
    for p in (7, 13, 31):
        cubes = cubes_mod_p(p)
        for a in range(1, p):
            assert is_cube_mod_p(a, p) == (a in cubes)


def test_choose_a_values():
    assert choose_a(7) == 2
    assert choose_a(13) == 2
    # 2^10 = 1024 = 1 (mod 31): 2 is a cube there, so the chooser moves on
    assert is_cube_mod_p(2, 31)
    assert choose_a(31) == 3


def test_choose_a_deterministic():
    assert choose_a(7) == choose_a(7) == 2


def test_search_finds_trivial_norms(field7):
    assert brute_force_norm_search(field7, 1, 1) == field7.one()
    # rational scalars are norms of themselves: N(2) = 8
    assert brute_force_norm_search(field7, 8, 2) == field7.from_rational(2)


def test_search_certifies_non_norm(field7):
    assert search_candidate_count(field7, 1) == 729
    assert brute_force_norm_search(field7, 2, 1) is None


def test_search_respects_cap(field13):
    with pytest.raises(BadInput, match="bound 2 means 244140625 candidates, above the cap"):
        brute_force_norm_search(field13, 2, 2)  # 5^12 candidates


def test_search_cap_admits_exactly_its_own_size(field7, monkeypatch):
    # a search of exactly the cap's 729 candidates runs; one fewer allowed refuses it
    monkeypatch.setattr(obstruction, "DEFAULT_ENUMERATION_CAP", 729)
    assert brute_force_norm_search(field7, 2, 1) is None
    monkeypatch.setattr(obstruction, "DEFAULT_ENUMERATION_CAP", 728)
    with pytest.raises(BadInput, match="bound 1 means 729 candidates, above the cap of 728"):
        brute_force_norm_search(field7, 2, 1)


def test_search_visits_exactly_the_candidates_the_report_claims(field7, monkeypatch):
    # search_candidates is a claim about the search: each element of height
    # at most the bound is tried once, and nothing else
    seen = []
    real = FieldElem.relative_norm
    monkeypatch.setattr(FieldElem, "relative_norm", lambda x: seen.append(x) or real(x))
    rep = obstruction_report(field7, 2, 1)
    assert rep.witness_found is None
    assert len(seen) == len(set(seen)) == rep.search_candidates == 729
    assert all(c in (-1, 0, 1) for x in seen for c in x.coords)


def test_search_witness_has_right_norm(field7):
    witness = brute_force_norm_search(field7, -1, 1)
    assert witness is not None
    assert witness.relative_norm() == field7.from_rational(-1)


def test_search_deterministic(field7):
    first = brute_force_norm_search(field7, -1, 1)
    second = brute_force_norm_search(field7, -1, 1)
    assert first == second


def test_obstruction_report(field7):
    rep = obstruction_report(field7, 2, 1)
    assert rep.certificate_grade
    assert rep.cubes_mod_p == (1, 6)
    assert not rep.is_cube
    assert rep.search_performed and rep.search_candidates == 729
    assert rep.witness_found is None

    skipped = obstruction_report(field7, 2, 0)
    assert skipped.certificate_grade
    assert not skipped.search_performed and skipped.search_candidates == 0

    cube = obstruction_report(field7, 6, 0)
    assert cube.is_cube and not cube.certificate_grade

    witnessed = obstruction_report(field7, 8, 2)
    assert witnessed.witness_found == field7.from_rational(2)
    assert not witnessed.certificate_grade


def test_grade_checks_the_enumerated_cube_set(field7, monkeypatch):
    # a power criterion that calls every residue a non-cube is caught by the set
    monkeypatch.setattr("sbcert.obstruction.is_cube_mod_p", lambda a, p: False)
    rep = obstruction_report(field7, 6, 0)
    assert not rep.is_cube and 6 in rep.cubes_mod_p
    assert not rep.certificate_grade


def _mod_p(q, p: int) -> int:
    """The residue mod p of a rational whose denominator is prime to p."""
    return q.numerator * pow(q.denominator, -1, p) % p


@pytest.mark.parametrize("p", PRIMES_TO_THE_CAP)
def test_local_step_of_the_imported_lemma(p):
    # the two facts the imported lemma's local step rests on, as identities of
    # the package's own arithmetic: 1 - zeta has norm p, so it generates the
    # prime above p, with residue field F_p; and reduction mod (1 - zeta), which
    # sends zeta to 1 and so reads the coordinate sum mod p, sends N_{L/K}(y)
    # to y(1)^3.  sigma fixes that prime: sigma(1 - zeta) / (1 - zeta) is a unit
    # of Z[zeta], integral with norm 1, and sigma(zeta) - zeta lies in it; den 1
    # is a real test, since 1 / (1 - zeta) itself has den p
    field = make_field(p)
    zeta = field.zeta()
    pi = field.one() - zeta
    assert pi.norm() == p and pi.inv().den == p
    unit = pi.sigma(1) * pi.inv()
    assert unit.den == 1 and unit.norm() == 1
    assert ((zeta.sigma(1) - zeta) * pi.inv()).den == 1
    rng = random.Random(p)
    for _ in range(20):
        y = random_field_elem(field, rng)
        assert _mod_p(sum(y.relative_norm().coords), p) == pow(_mod_p(sum(y.coords), p), 3, p)
