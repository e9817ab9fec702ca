"""End-to-end certification pipeline for a single prime.

Stages: validate p and build the field; choose or validate the parameter
a; run the cube-residue obstruction (plus optional brute-force search);
exercise the algebra's defining relations, norm forms and division
property on seeded random samples, each half of every trial block drawn
from its own stream, the second half in a forked child when the process
has one thread and two CPUs (the bytes do not change); generate the
projective group and verify order, relations, isomorphism and the Jordan
index.  Any failed check yields a complete FAIL certificate naming the
stage; invalid inputs raise a BadInput error instead.
The module also holds the sample distribution, which the tests draw from too,
and the canonical JSON: keys in the field order of the report dataclasses,
rationals as decimal strings in lowest terms and integers wider than 64 bits
as decimal strings, so certificates for equal (p, options, seed) are
byte-identical apart from the wall-clock timings_ms, which diffs must ignore.
"""

import contextlib
import functools
import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, fields, is_dataclass
from math import lcm
from operator import add, methodcaller
from typing import Optional

from .algebra import AlgebraElem, CyclicAlgebra
from .cyclotomic import CycloField, FieldElem, _reduced, make_field
from .errors import BadInput, NotInvertible
from .obstruction import ObstructionReport, certifies_division, choose_a, obstruction_report
from .projective import GroupReport, group_report

# Coordinates are n / q, n in [-9, 9] and q in {1, 2, 3}: small enough to keep
# exact arithmetic fast, varied enough to exercise every reduction path.  Each
# is drawn as an integer numerator over COMMON_DEN = lcm(1, 2, 3) and the element
# is reduced once, so no Fraction is built.  All draws come from a caller-supplied
# random.Random, so runs are reproducible from a seed.
NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)
COMMON_DEN = lcm(*DENOMINATORS)


def random_field_elem(field: CycloField, rng) -> FieldElem:
    # randint before choice, the order the golden draws of the seeded streams pin;
    # n / q is n * (COMMON_DEN // q) over COMMON_DEN
    num = [
        rng.randint(*NUMERATOR_RANGE) * (COMMON_DEN // rng.choice(DENOMINATORS))
        for _ in range(field.degree)
    ]
    return _reduced(field, num, COMMON_DEN)


def random_algebra_elem(algebra: CyclicAlgebra, rng) -> AlgebraElem:
    f = algebra.field
    return algebra.element(
        random_field_elem(f, rng),
        random_field_elem(f, rng),
        random_field_elem(f, rng),
    )


def random_nonzero_algebra_elem(algebra: CyclicAlgebra, rng) -> AlgebraElem:
    while True:
        x = random_algebra_elem(algebra, rng)
        if x:
            return x


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
        raise BadInput(f"seed = {opts.seed!r}; the seed must be an int")
    if type(trials) is not int or trials < 1:
        raise BadInput(f"trials = {trials!r}; the checks need a whole number, at least 1")
    if bound is not None and (type(bound) is not int or bound < 0):
        raise BadInput(f"norm search bound = {bound!r}; use a whole number, 0 to skip")


def _validate_override(p: int, a: int) -> int:
    if type(a) is not int:  # a bool is an int to isinstance, not a parameter
        raise BadInput(f"a = {a!r} is not an int; the parameter must be an integer")
    if not certifies_division(a, p):
        why = "is not a unit" if a % p == 0 else "is a cube"
        raise BadInput(
            f"a = {a} {why} modulo p = {p}; certifying the division property "
            "needs a unit with a non-cube residue"
        )
    return a


def _mat_mul(lhs, rhs):
    return tuple(
        tuple(l0 * r0 + l1 * r1 + l2 * r2 for r0, r1, r2 in zip(*rhs))
        for l0, l1, l2 in lhs
    )


def _failures(seed, blocks, half) -> list:
    """Failures per (n, draw, arity, holds) block in one half of its trials.

    Half 0 is the first (n + 1) // 2 trials of each block, half 1 the last n // 2;
    each draws only those, from its own stream seeded by the str f"{seed}/{half}"
    (an int seed is taken by its absolute value, so s and -s would draw alike).
    """
    rng = random.Random(f"{seed}/{half}")
    return [
        sum(not holds(*[draw(rng) for _ in range(arity)]) for _ in range((n + 1 - half) // 2))
        for n, draw, arity, holds in blocks
    ]


def _trial_blocks(seed, blocks) -> list:
    """Failures per block, as one process counts them: half 0, then half 1.

    With two CPUs and no other thread, a forked child checks half 1 while the
    parent checks half 0, the larger; the child exits 0 only when its half had
    no failure.  With no child, or one that did not exit 0 or left no status,
    the parent checks half 1 itself, so counts and the first error are those
    of one process.  An error or interrupt before the reap kills and reaps it.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pid = None
    if cpus > 1 and threading.active_count() == 1:
        with contextlib.suppress(OSError):  # no process to spare
            pid = os.fork()
    if pid == 0:
        try:
            os._exit(int(any(_failures(seed, blocks, 1))))
        finally:  # half 1 raised
            os._exit(1)
    status = 1  # no child, or no status to read, counts as a failed child
    try:
        counts = _failures(seed, blocks, 0)
        if pid:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored, or reaped elsewhere
                status = os.waitpid(pid, 0)[1]
    except BaseException:
        if pid:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # already gone
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    if status:
        counts = list(map(add, counts, _failures(seed, blocks, 1)))
    return counts


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
    f, al, embed = algebra.field, algebra.alpha(), algebra.embed
    xi = f.zeta()
    split, nrd = methodcaller("splitting_matrix"), methodcaller("reduced_norm")

    # each half draws its blocks in key order, from the samplers bound at this
    # call; draw(rng) gives each its half's stream
    lam = functools.partial(random_field_elem, f)
    elem = functools.partial(random_algebra_elem, algebra)
    nonzero = functools.partial(random_nonzero_algebra_elem, algebra)
    blocks = {
        "relation_lambda_alpha": (
            trials, lam, 1, lambda y: embed(y) * al == al * embed(y.sigma(1))
        ),
        "associativity": (trials, elem, 3, lambda x, y, z: (x * y) * z == x * (y * z)),
        "splitting_multiplicativity": (
            trials, elem, 2, lambda x, y: _mat_mul(split(x), split(y)) == split(x * y)
        ),
        "reduced_norm_in_fixed_field": (trials, elem, 1, lambda x: nrd(x).is_in_K()),
        "reduced_norm_multiplicativity": (
            trials, elem, 2, lambda x, y: nrd(x * y) == nrd(x) * nrd(y)
        ),
        # double sampling: the division property is the Wedderburn step
        "division_property": (2 * trials, nonzero, 1, _invertible),
        # exact identity det_Q(L_x) = N_{L/Q}(Nrd x) = N_{K/Q}(Nrd x)^3
        "norm_oracle_agreement": (
            trials, elem, 1, lambda x: x.regular_rep_det() == nrd(x).norm()
        ),
    }
    counts = _trial_blocks(seed, list(blocks.values()))
    results = {name: {"trials": block[0], "failures": c, "ok": c == 0}
               for (name, block), c in zip(blocks.items(), counts)}
    # the flags draw nothing; the keys keep the certificate's order
    return {
        "seed": seed,
        "division_certified": certifies_division(algebra.a, f.p),
        "relation_lambda_alpha": results.pop("relation_lambda_alpha"),
        "alpha_cubed_equals_a": al**3 == embed(algebra.a),
        "xi_alpha_twist": embed(xi) * al == al * embed(xi**f.d),
        **results,
    }


def _algebra_checks_ok(checks: dict) -> bool:
    # a trial block fails on ok = False, a flag on False; the seed never fails
    return all(v["ok"] if isinstance(v, dict) else v is not False for v in checks.values())


@dataclass
class Certificate:
    """The machine-checkable record of one full pipeline run.

    The fields, and those of the reports they hold, are the certificate's
    keys in order; certificate_to_dict adds the two constants,
    schema_version first and imported_lemma_note before timings_ms.
    """

    p: int
    d: int
    k: int
    a: int
    seed: int
    trials: int
    overall: str
    failed_stage: Optional[str]
    obstruction: ObstructionReport
    algebra_checks: dict
    group: GroupReport
    timings_ms: dict

    @property
    def passed(self) -> bool:
        return self.overall == "PASS"


def run_pipeline(p: int, options: Optional[PipelineOptions] = None) -> Certificate:
    """Execute every stage for the prime p; deterministic given options."""
    opts = options or PipelineOptions()
    _validate_counts(opts)
    timings = {}
    t_start = time.perf_counter()

    def timed(stage, run, *args):
        t = time.perf_counter()
        out = run(*args)
        timings[stage] = (time.perf_counter() - t) * 1000
        return out

    field = timed("field", make_field, p)

    if opts.a is None:
        a = choose_a(p)
    else:
        a = _validate_override(p, opts.a)

    bound = opts.norm_search_bound
    if bound is None:
        bound = 1 if p == 7 else 0
    obstruction = timed("obstruction", obstruction_report, field, a, bound)
    obstruction_ok = obstruction.certificate_grade

    algebra = CyclicAlgebra(field, a)
    algebra_checks = timed("algebra", run_algebra_checks, algebra, opts.seed, opts.trials)
    algebra_ok = _algebra_checks_ok(algebra_checks)

    greport = timed("group", group_report, algebra)

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


SCHEMA_VERSION = "1.0"

IMPORTED_LEMMA_NOTE = (
    "One mathematical step is imported rather than verified by computation: "
    "in the degree-3 cyclic extension L/K (L the p-th cyclotomic field, K its "
    "index-3 subfield), the unique prime above p is totally and tamely "
    "ramified with residue field F_p, so a unit of K can be a norm from the "
    "completion of L only if its residue modulo p is a cube in F_p. A "
    "rational integer a coprime to p whose residue is a non-cube therefore "
    "fails to be a local norm at that prime, hence is not a global norm from "
    "L, and the cyclic algebra of degree 3 built from it is a division "
    "algebra. The program verifies the congruence a^((p-1)/3) != 1 (mod p) "
    "against the exhaustively enumerated cube set; the ramification lemma "
    "itself is taken from standard local field theory."
)

_INT64_MAX = 2**63 - 1


def _int_field(n: int):
    n = int(n)
    return n if -_INT64_MAX <= n <= _INT64_MAX else str(n)


def _encode(value):
    """The JSON value of a report field, by one rule per type, at every depth."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, FieldElem):
        return [str(c) for c in value.coords]  # a Fraction prints as "n" or "n/d"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value  # a str, a bool or None
    return _int_field(value)  # an int, or a float of wall-clock ms, truncated


def certificate_to_dict(cert: Certificate) -> dict:
    out = {"schema_version": SCHEMA_VERSION, **_encode(cert)}
    out["imported_lemma_note"] = IMPORTED_LEMMA_NOTE
    out["timings_ms"] = out.pop("timings_ms")  # the one wall-clock block goes last
    return out


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2)
