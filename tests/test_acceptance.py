"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  The pipelines below use the default
options (seed 0, 100 trials, bound-1 norm search for p = 7).
"""

import random
import time

import pytest
from draws import random_k_star_elem
from oracles import class_eq

from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import gaussian_periods, make_field
from sbcert.errors import RejectedOverride, WrongResidue
from sbcert.obstruction import brute_force_norm_search, cubes_mod_p, is_cube_mod_p
from sbcert.pipeline import PipelineOptions, run_pipeline
from sbcert.projective import canonicalize
from sbcert.sampling import (
    random_algebra_elem,
    random_field_elem,
    random_nonzero_algebra_elem,
)


def _emit(number, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {verdict}")
    assert not failures, f"criterion {number} failed: {failures}"


def _check(failures, ok, what):
    if not ok:
        failures.append(what)


@pytest.fixture(scope="module")
def timed_cert7():
    start = time.monotonic()
    cert = run_pipeline(7)
    return cert, time.monotonic() - start


@pytest.fixture(scope="module")
def alg7_acc():
    return CyclicAlgebra(make_field(7), 2)


def test_criterion_1_full_realization_p7(timed_cert7):
    cert, elapsed = timed_cert7
    failures = []
    _check(failures, cert.overall == "PASS", "pipeline PASS")
    _check(failures, cert.d == 2, f"d = {cert.d}")
    _check(failures, cert.a == 2, f"a = {cert.a}")
    group = cert.group
    _check(failures, group.order == 21, f"order = {group.order}")
    _check(
        failures,
        group.order_histogram == {1: 1, 3: 14, 7: 6},
        f"histogram = {group.order_histogram}",
    )
    _check(failures, all(group.relations.values()), f"relations = {group.relations}")
    iso = group.isomorphism
    _check(failures, iso["ok"], "isomorphism verified")
    _check(failures, iso["pairs_checked"] == 441, f"pairs = {iso['pairs_checked']}")
    _check(failures, group.jordan_index == 3, f"jordan = {group.jordan_index}")
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s")
    _emit(1, "full group realization, p=7", failures)


def test_criterion_2_realizations_p13_p31(timed_cert31):
    failures = []
    start = time.monotonic()
    cert13 = run_pipeline(13)
    runs = [(13, 39, cert13, time.monotonic() - start), (31, 93, *timed_cert31)]
    for p, order, cert, elapsed in runs:
        group = cert.group
        expected_hist = {1: 1, 3: 2 * p, p: p - 1}
        _check(failures, cert.overall == "PASS", f"p={p} PASS")
        _check(failures, group.order == order, f"p={p} order {group.order}")
        _check(
            failures,
            group.order_histogram == expected_hist,
            f"p={p} histogram {group.order_histogram}",
        )
        _check(failures, group.jordan_index == 3, f"p={p} jordan {group.jordan_index}")
        _check(failures, elapsed < 120.0, f"p={p} runtime {elapsed:.1f}s >= 120s")
    _emit(2, "full group realization, p=13 and p=31", failures)


def test_criterion_3_defining_relations(alg7_acc):
    algebra = alg7_acc
    field = algebra.field
    al = algebra.alpha()
    rng = random.Random(0)
    failures = []
    bad = sum(
        algebra.embed(lam) * al != al * algebra.embed(lam.sigma(1))
        for lam in (random_field_elem(field, rng) for _ in range(100))
    )
    _check(failures, bad == 0, f"{bad}/100 lambda relations failed")
    _check(failures, al**3 == algebra.embed(2), "alpha cubed is a")
    _emit(3, "defining relations as identities", failures)


def test_criterion_4_division_evidence(alg7_acc):
    algebra = alg7_acc
    one = algebra.one()
    rng = random.Random(0)
    failures = []
    bad = 0
    for _ in range(200):
        x = random_nonzero_algebra_elem(algebra, rng)
        if not x.reduced_norm():
            bad += 1
            continue
        y = x.inverse()
        if x * y != one or y * x != one:
            bad += 1
    _check(failures, bad == 0, f"{bad}/200 division checks failed")
    _emit(4, "division-algebra evidence", failures)


def test_criterion_5_norm_oracle_agreement(alg7_acc):
    algebra = alg7_acc
    rng = random.Random(0)
    failures = []
    # the exact identity det_Q(L_x) = N_{L/Q}(Nrd x) the pipeline certifies
    disagreements = sum(
        x.regular_rep_det() != x.reduced_norm().norm()
        for x in (random_algebra_elem(algebra, rng) for _ in range(100))
    )
    _check(failures, disagreements == 0, f"{disagreements}/100 oracle disagreements")
    bad_mult = 0
    for _ in range(100):
        x = random_algebra_elem(algebra, rng)
        y = random_algebra_elem(algebra, rng)
        if (x * y).reduced_norm() != x.reduced_norm() * y.reduced_norm():
            bad_mult += 1
    _check(failures, bad_mult == 0, f"{bad_mult}/100 multiplicativity failures")
    _emit(5, "reduced-norm oracle agreement", failures)


def test_criterion_6_norm_obstruction():
    failures = []
    _check(failures, cubes_mod_p(7) == frozenset({1, 6}), "cubes mod 7")
    _check(failures, cubes_mod_p(13) == frozenset({1, 5, 8, 12}), "cubes mod 13")
    _check(failures, not is_cube_mod_p(2, 7), "a=2 non-cube mod 7")
    _check(failures, not is_cube_mod_p(2, 13), "a=2 non-cube mod 13")
    field = make_field(7)
    _check(
        failures,
        brute_force_norm_search(field, 2, 1) is None,
        "729-candidate search found a spurious preimage of 2",
    )
    witness = brute_force_norm_search(field, 8, 2)
    _check(failures, witness == field.from_rational(2), f"witness for 8: {witness!r}")
    _emit(6, "norm obstruction", failures)


def test_criterion_7_projective_canonicalization(alg7_acc):
    algebra = alg7_acc
    field = algebra.field
    rng = random.Random(0)
    failures = []
    bad_canon = 0
    bad_agree = 0
    for _ in range(50):
        x = random_nonzero_algebra_elem(algebra, rng)
        c = random_k_star_elem(field, rng)
        scaled = x.scale(c)
        if canonicalize(scaled) != canonicalize(x):
            bad_canon += 1
        if not class_eq(scaled, x):
            bad_agree += 1
        y = random_nonzero_algebra_elem(algebra, rng)
        if (canonicalize(x) == canonicalize(y)) != class_eq(x, y):
            bad_agree += 1
    _check(failures, bad_canon == 0, f"{bad_canon}/50 canonicalization failures")
    _check(failures, bad_agree == 0, f"{bad_agree} class_eq disagreements")
    _emit(7, "projective canonicalization", failures)


def test_criterion_8_galois_layer():
    field = make_field(7)
    rng = random.Random(0)
    failures = []
    bad = 0
    for t in range(1, 7):
        for s in range(1, 7):
            x = random_field_elem(field, rng)
            if x.apply_aut(s).apply_aut(t) != x.apply_aut((t * s) % 7):
                bad += 1
    _check(failures, bad == 0, f"{bad}/36 composition-law failures")
    x = random_field_elem(field, rng)
    _check(failures, x.sigma(1).sigma(1).sigma(1) == x, "sigma order divides 3")
    _check(failures, field.zeta().sigma(1) != field.zeta(), "sigma is nontrivial")
    periods = gaussian_periods(field)
    _check(failures, all(eta.sigma(1) == eta for eta in periods), "periods invariant")
    from oracles import rank

    matrix = [list(eta.coords) for eta in periods]
    _check(failures, rank(matrix) == field.k, "period rank (p-1)/3")
    _emit(8, "Galois layer", failures)


def test_criterion_9_negative_controls():
    failures = []
    try:
        run_pipeline(11)
        failures.append("p=11 was not rejected")
    except WrongResidue:
        pass
    try:
        run_pipeline(7, PipelineOptions(a=6))
        failures.append("cube override a=6 was not rejected")
    except RejectedOverride:
        pass
    _emit(9, "negative controls", failures)
