"""End-to-end certification pipeline for a single prime.

Stages: validate p and build the field; choose or validate the parameter
a; run the cube-residue obstruction (plus optional brute-force search);
exercise the algebra's defining relations, norm forms and division
property on seeded random samples, every trial block through one runner;
generate the projective group and verify order, relations, isomorphism
and the Jordan index.  Any failed check yields a complete FAIL certificate
naming the stage; invalid inputs raise a BadInput error instead.
"""

import random
import time
from dataclasses import dataclass
from operator import methodcaller
from typing import Optional

from .algebra import CyclicAlgebra
from .certificate import Certificate
from .cyclotomic import make_field
from .errors import BadSearchBound, BadSeed, BadTrialCount, NotInvertible, RejectedOverride
from .obstruction import certifies_division, choose_a, obstruction_report
from .projective import group_report
from .sampling import random_algebra_elem, random_field_elem, random_nonzero_algebra_elem


@dataclass
class PipelineOptions:
    a: Optional[int] = None
    seed: int = 0
    trials: int = 100
    norm_search_bound: Optional[int] = None  # None: 1 for p = 7, else skip


def _validate_counts(opts: PipelineOptions) -> None:
    # type() is int, not isinstance: a bool is an int, but JSON writes it as true
    trials, bound = opts.trials, opts.norm_search_bound
    if type(opts.seed) is not int:
        raise BadSeed(f"seed = {opts.seed!r}; the seed must be an int")
    if type(trials) is not int or trials < 1:
        raise BadTrialCount(f"trials = {trials!r}; the checks need a whole number, at least 1")
    if bound is not None and (type(bound) is not int or bound < 0):
        raise BadSearchBound(f"norm search bound = {bound!r}; use a whole number, 0 to skip")


def _validate_override(p: int, a: int) -> int:
    if type(a) is not int:  # a bool is an int to isinstance, not a parameter
        raise RejectedOverride(f"a = {a!r} is not an int; the parameter must be an integer")
    if not certifies_division(a, p):
        why = "is not a unit" if a % p == 0 else "is a cube"
        raise RejectedOverride(
            f"a = {a} {why} modulo p = {p}; certifying the division property "
            "needs a unit with a non-cube residue"
        )
    return a


def _mat_mul(lhs, rhs):
    return tuple(
        tuple(l0 * r0 + l1 * r1 + l2 * r2 for r0, r1, r2 in zip(*rhs))
        for l0, l1, l2 in lhs
    )


def _trials(n: int, draw, arity: int, holds) -> dict:
    """Run holds on n fresh tuples of arity draws; each sample it refuses is a failure."""
    failures = sum(not holds(*[draw() for _ in range(arity)]) for _ in range(n))
    return {"trials": n, "failures": failures, "ok": failures == 0}


def _invertible(x) -> bool:
    """inverse() raises unless Nrd(x) != 0 and both products with x are one."""
    try:
        x.inverse()
    except NotInvertible:
        return False
    return True


def run_algebra_checks(algebra: CyclicAlgebra, seed: int, trials: int) -> dict:
    """Seeded randomized verification of the algebra's contracts; bad counts raise BadInput."""
    _validate_counts(PipelineOptions(seed=seed, trials=trials))
    rng = random.Random(seed)
    f, al, embed = algebra.field, algebra.alpha(), algebra.embed
    xi = f.zeta()
    split, nrd = methodcaller("splitting_matrix"), methodcaller("reduced_norm")

    # the blocks draw in key order; each closure looks its sampler up at the draw
    def lam():
        return random_field_elem(f, rng)

    def elem():
        return random_algebra_elem(algebra, rng)

    def nonzero():
        return random_nonzero_algebra_elem(algebra, rng)

    return {
        "seed": seed,
        "division_certified": certifies_division(algebra.a, f.p),
        "relation_lambda_alpha": _trials(
            trials, lam, 1, lambda y: embed(y) * al == al * embed(y.sigma(1))
        ),
        "alpha_cubed_equals_a": al**3 == embed(algebra.a),
        "xi_alpha_twist": embed(xi) * al == al * embed(xi**f.d),
        "associativity": _trials(trials, elem, 3, lambda x, y, z: (x * y) * z == x * (y * z)),
        "splitting_multiplicativity": _trials(
            trials, elem, 2, lambda x, y: _mat_mul(split(x), split(y)) == split(x * y)
        ),
        "reduced_norm_in_fixed_field": _trials(trials, elem, 1, lambda x: nrd(x).is_in_K()),
        "reduced_norm_multiplicativity": _trials(
            trials, elem, 2, lambda x, y: nrd(x * y) == nrd(x) * nrd(y)
        ),
        # double sampling: the division property is the Wedderburn step
        "division_property": _trials(2 * trials, nonzero, 1, _invertible),
        # exact identity det_Q(L_x) = N_{L/Q}(Nrd x) = N_{K/Q}(Nrd x)^3
        "norm_oracle_agreement": _trials(
            trials, elem, 1, lambda x: x.regular_rep_det() == nrd(x).norm()
        ),
    }


def _algebra_checks_ok(checks: dict) -> bool:
    # a trial block fails on ok = False, a flag on False; the seed never fails
    return all(v["ok"] if isinstance(v, dict) else v is not False for v in checks.values())


def run_pipeline(p: int, options: Optional[PipelineOptions] = None) -> Certificate:
    """Execute every stage for the prime p; deterministic given options."""
    opts = options or PipelineOptions()
    _validate_counts(opts)
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
