"""The benchmark's workloads, their inputs and their output gates.

Each workload turns a seed into inputs, then offers one op (a call into
the package's public API) and a gate that checks the op's output against
mathematical invariants only.  Schema details that a faster design may
change, such as how many isomorphism pairs were checked, are not gated.

Why these three:
  certify-p7   what ``sbcert --p 7`` runs; the only workload that runs the
               obstruction brute-force search; loads the algebra checks.
  group-p19    loads the projective layer (BFS, 57 x 57 Cayley table,
               canonicalize through k-coordinates and a k x k solve) on
               sparse small-integer algebra elements; no random dense
               elements and no Bareiss determinant.
  algebra-p31  dense random degree-30 field elements: convolution, sigma,
               cofactor inverse and the 90 x 90 Bareiss determinant; never
               touches the projective layer.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

# validated non-cube residues mod 19 that group-p19 chooses from
GROUP_P19_PARAMS = (2, 3, 4, 5, 6, 9, 10)
# trials per check block for algebra-p31: about one to two seconds per op
ALGEBRA_P31_TRIALS = 1


@dataclass
class Workload:
    name: str
    p: int
    build: Callable  # (sbcert module, seed) -> Instance


@dataclass
class Instance:
    describe: str  # the generated input, for the log
    op: Callable[[], object]
    gate: Callable[[object], list]  # output -> list of problems, empty if good
    certificate: Callable[[object], object] = lambda out: None


def group_problems(p, order, histogram, jordan_index, non_abelian):
    """Invariants of Z/p x| Z/3 realized projectively."""
    problems = []
    if order != 3 * p:
        problems.append(f"group order {order}, expected {3 * p}")
    expected = {1: 1, 3: 2 * p, p: p - 1}
    if histogram != expected:
        problems.append(f"order histogram {histogram}, expected {expected}")
    if jordan_index != 3:
        problems.append(f"jordan index {jordan_index}, expected 3")
    if non_abelian is not True:
        problems.append("group is abelian")
    return problems


def algebra_check_problems(checks, trials):
    """Every trial block ok with at least the requested trials, every flag true."""
    problems = []
    if checks.get("division_certified") is not True:
        problems.append("division_certified is not true")
    blocks = {k: v for k, v in checks.items() if isinstance(v, dict)}
    if not blocks:
        problems.append("no trial blocks")
    for name, block in blocks.items():
        if block.get("ok") is not True or block.get("failures") != 0:
            problems.append(f"trial block {name} failed: {block}")
        if not isinstance(block.get("trials"), int) or block["trials"] < trials:
            problems.append(f"trial block {name} ran {block.get('trials')} of {trials} trials")
    for name, value in checks.items():
        if name != "division_certified" and value is False:
            problems.append(f"check {name} is false")
    return problems


def _certify_p7(sb, seed):
    p = 7
    opts = sb.PipelineOptions(seed=seed)
    first = []

    def op():
        cert = sb.run_pipeline(p, opts)
        return cert, sb.certificate_to_json(cert)

    def gate(out):
        _, text = out
        doc = json.loads(text)
        problems = []
        if doc.get("overall") != "PASS":
            problems.append(f"overall {doc.get('overall')}, failed stage {doc.get('failed_stage')}")
        g = doc.get("group") or {}
        hist = {int(k): v for k, v in (g.get("order_histogram") or {}).items()}
        problems += group_problems(p, g.get("order"), hist, g.get("jordan_index"),
                                   g.get("non_abelian"))
        ob = doc.get("obstruction") or {}
        if ob.get("is_cube") is not False:
            problems.append("parameter reported as a cube")
        if ob.get("witness_found") is not None:
            problems.append("norm search found a witness")
        problems += algebra_check_problems(doc.get("algebra_checks") or {}, opts.trials)
        doc.pop("timings_ms", None)
        stripped = json.dumps(doc, indent=2)
        if not first:
            first.append(stripped)
        elif stripped != first[0]:
            problems.append("timings-stripped certificate differs from the run's first")
        return problems

    return Instance(f"run_pipeline({p}, seed={seed}, trials={opts.trials})", op, gate,
                    certificate=lambda out: out[0])


def _group_p19(sb, seed):
    p = 19
    a = random.Random(seed).choice(GROUP_P19_PARAMS)
    if sb.is_cube_mod_p(a, p):
        raise ValueError(f"a = {a} is a cube mod {p}")

    def op():
        return sb.group_report(sb.CyclicAlgebra(sb.make_field(p), a))

    def gate(rep):
        return group_problems(p, rep.order, rep.order_histogram, rep.jordan_index,
                              rep.non_abelian)

    return Instance(f"group_report(p={p}, a={a})", op, gate)


def _algebra_p31(sb, seed):
    p = 31
    trials = ALGEBRA_P31_TRIALS
    algebra = sb.CyclicAlgebra(sb.make_field(p), sb.choose_a(p))
    # each op draws fresh elements, so the run's median spans many inputs
    rng = random.Random(seed)

    def op():
        return sb.run_algebra_checks(algebra, rng.randrange(2**32), trials)

    def gate(checks):
        return algebra_check_problems(checks, trials)

    return Instance(f"run_algebra_checks(p={p}, a={algebra.a}, trials={trials}, "
                    f"op seeds drawn from seed {seed})", op, gate)


def negative_control_problems(sb, seed):
    """Gate output for algebra checks on a cube parameter, which must be flagged.

    a = 1 is a cube mod 7, so the algebra is not certified division; a gate
    that passes this output would also pass a bad run.
    """
    algebra = sb.CyclicAlgebra(sb.make_field(7), 1)
    return algebra_check_problems(sb.run_algebra_checks(algebra, seed, 1), 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-p7", 7, _certify_p7),
        Workload("group-p19", 19, _group_p19),
        Workload("algebra-p31", 31, _algebra_p31),
    )
}
