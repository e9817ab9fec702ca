"""Cube-residue obstruction and brute-force norm search."""

import pytest

from sbcert.errors import BadResidue, BoundTooLarge
from sbcert.obstruction import (
    brute_force_norm_search,
    choose_a,
    cubes_mod_p,
    is_cube_mod_p,
    obstruction_report,
    search_candidate_count,
)


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
    with pytest.raises(BadResidue):
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
    with pytest.raises(BoundTooLarge):
        brute_force_norm_search(field13, 2, 2)  # 5^12 candidates


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
