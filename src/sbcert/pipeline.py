"""End-to-end certification pipeline for a single prime.

Stages: validate p and build the field; choose or validate the parameter
a; run the cube-residue obstruction (plus optional brute-force search);
exercise the algebra's defining relations, norm forms and division
property on seeded random samples; generate the projective group and
verify order, relations, isomorphism and the Jordan index.  Any failed
check yields a complete FAIL certificate naming the stage; invalid inputs
raise instead (BadTrialCount, BadSearchBound, NotPrime, WrongResidue,
RejectedOverride, BoundTooLarge).
"""

import random
import time
from dataclasses import dataclass
from typing import Optional

from .algebra import CyclicAlgebra
from .certificate import SCHEMA_VERSION, Certificate
from .cyclotomic import make_field
from .errors import BadSearchBound, BadTrialCount, NotInvertible, RejectedOverride
from .obstruction import choose_a, is_cube_mod_p, obstruction_report
from .projective import group_report
from .sampling import random_algebra_elem, random_field_elem, random_nonzero_algebra_elem


@dataclass
class PipelineOptions:
    a: Optional[int] = None
    seed: int = 0
    trials: int = 100
    norm_search_bound: Optional[int] = None  # None: 1 for p = 7, else skip


def _validate_override(p: int, a: int) -> int:
    a = int(a)
    if a == 0:
        raise RejectedOverride("a = 0 is not a unit; the algebra needs a nonzero parameter")
    if a % p == 0:
        raise RejectedOverride(
            f"a = {a} is divisible by p = {p}; the cube-residue obstruction "
            "needs a unit modulo p"
        )
    if is_cube_mod_p(a, p):
        raise RejectedOverride(
            f"a = {a} is a cube modulo p = {p}, so it may be a norm and the "
            "division property cannot be certified; pick a non-cube residue"
        )
    return a


def _trial_block(trials: int, failures: int) -> dict:
    return {"trials": trials, "failures": failures, "ok": failures == 0}


def _mat_mul(field, lhs, rhs):
    return tuple(
        tuple(
            sum((lhs[i][k] * rhs[k][j] for k in range(3)), field.zero())
            for j in range(3)
        )
        for i in range(3)
    )


def run_algebra_checks(algebra: CyclicAlgebra, seed: int, trials: int) -> dict:
    """Seeded randomized verification of the algebra's contracts."""
    rng = random.Random(seed)
    f = algebra.field
    al = algebra.alpha()
    out = {"seed": seed, "division_certified": algebra.division_certified}

    failures = 0
    for _ in range(trials):
        lam = random_field_elem(f, rng)
        if algebra.embed(lam) * al != al * algebra.embed(lam.sigma(1)):
            failures += 1
    out["relation_lambda_alpha"] = _trial_block(trials, failures)

    out["alpha_cubed_equals_a"] = al**3 == algebra.embed(algebra.a)
    xi = f.xi()
    out["xi_alpha_twist"] = algebra.embed(xi) * al == al * algebra.embed(xi**f.d)

    failures = 0
    for _ in range(trials):
        x = random_algebra_elem(algebra, rng)
        y = random_algebra_elem(algebra, rng)
        z = random_algebra_elem(algebra, rng)
        if (x * y) * z != x * (y * z):
            failures += 1
    out["associativity"] = _trial_block(trials, failures)

    failures = 0
    for _ in range(trials):
        x = random_algebra_elem(algebra, rng)
        y = random_algebra_elem(algebra, rng)
        if _mat_mul(f, x.splitting_matrix(), y.splitting_matrix()) != (
            x * y
        ).splitting_matrix():
            failures += 1
    out["splitting_multiplicativity"] = _trial_block(trials, failures)

    failures = 0
    for _ in range(trials):
        x = random_algebra_elem(algebra, rng)
        if not x.reduced_norm().is_in_K():
            failures += 1
    out["reduced_norm_in_fixed_field"] = _trial_block(trials, failures)

    failures = 0
    for _ in range(trials):
        x = random_algebra_elem(algebra, rng)
        y = random_algebra_elem(algebra, rng)
        if (x * y).reduced_norm() != x.reduced_norm() * y.reduced_norm():
            failures += 1
    out["reduced_norm_multiplicativity"] = _trial_block(trials, failures)

    # the division property gets double sampling: it is the Wedderburn step;
    # inverse() raises unless Nrd(x) != 0 and both products with x are one
    division_trials = 2 * trials
    failures = 0
    for _ in range(division_trials):
        x = random_nonzero_algebra_elem(algebra, rng)
        try:
            x.inverse()
        except NotInvertible:
            failures += 1
    out["division_property"] = _trial_block(division_trials, failures)

    # exact identity det_Q(L_x) = N_{L/Q}(Nrd x) = N_{K/Q}(Nrd x)^3
    failures = 0
    for _ in range(trials):
        x = random_algebra_elem(algebra, rng)
        if x.regular_rep_det() != x.reduced_norm().norm():
            failures += 1
    out["norm_oracle_agreement"] = _trial_block(trials, failures)
    return out


def _algebra_checks_ok(checks: dict) -> bool:
    for value in checks.values():
        if isinstance(value, dict):
            if not value.get("ok", True):
                return False
        elif isinstance(value, bool) and not value:
            return False
    return True


def run_pipeline(p: int, options: Optional[PipelineOptions] = None) -> Certificate:
    """Execute every stage for the prime p; deterministic given options."""
    opts = options or PipelineOptions()
    if opts.trials < 1:
        raise BadTrialCount(
            f"trials = {opts.trials}; the randomized checks need at least one sample"
        )
    if opts.norm_search_bound is not None and opts.norm_search_bound < 0:
        raise BadSearchBound(
            f"norm search bound = {opts.norm_search_bound}; use 0 to skip the search"
        )
    timings = {}
    t_start = time.perf_counter()

    t = time.perf_counter()
    field = make_field(p)
    timings["field"] = (time.perf_counter() - t) * 1000

    if opts.a is None:
        a = choose_a(p)
    else:
        a = _validate_override(p, opts.a)

    bound = opts.norm_search_bound
    if bound is None:
        bound = 1 if p == 7 else 0
    t = time.perf_counter()
    obstruction = obstruction_report(field, a, bound)
    timings["obstruction"] = (time.perf_counter() - t) * 1000
    obstruction_ok = obstruction.certificate_grade

    algebra = CyclicAlgebra(field, a)
    t = time.perf_counter()
    algebra_checks = run_algebra_checks(algebra, opts.seed, opts.trials)
    timings["algebra"] = (time.perf_counter() - t) * 1000
    algebra_ok = _algebra_checks_ok(algebra_checks)

    t = time.perf_counter()
    greport = group_report(algebra)
    timings["group"] = (time.perf_counter() - t) * 1000

    timings["total"] = (time.perf_counter() - t_start) * 1000

    if not obstruction_ok:
        failed_stage = "obstruction"
    elif not algebra_ok:
        failed_stage = "algebra"
    else:
        failed_stage = greport.failed_substage

    return Certificate(
        schema_version=SCHEMA_VERSION,
        p=p,
        d=field.d,
        k=field.k,
        a=a,
        seed=opts.seed,
        trials=opts.trials,
        overall="PASS" if failed_stage is None else "FAIL",
        failed_stage=failed_stage,
        obstruction=obstruction,
        algebra_checks=algebra_checks,
        group=greport,
        timings_ms=timings,
    )
