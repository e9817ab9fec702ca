"""Benchmark of the sbcert pipeline: one workload, one seed, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload certify-p7 --seed 1 --seconds 40 --trace 0

One process, one closed-loop caller, no threads: each op starts when the
previous one has returned and its output has passed the gate.  Ops run
until --seconds have passed (at least one op).  The program is imported
from ./src of the checkout, never from an installed copy.

--trace 0 prints the end-to-end metrics: setup_s (median of several
fresh set-ups: import, make_field, cache warm-up), op_s.p50, ops_per_min
and peak_rss_mb; fail_ratio is printed on its own line and carried by the
result's "failed" and "attempted".

--trace 1 prints the per-layer metrics.  It sets up once with spans on
(for linalg.invert), runs untraced ops for half of --seconds as the base,
then traced ops for the other half.  Calls are those of the first traced
op, whose inputs depend only on the seed; self times are medians over the
traced ops.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; it carries the metrics declared in
BENCHMARK.json for the mode, with their units.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import typing
from pathlib import Path

import tracer as tr
from workloads import WORKLOADS, negative_control_problems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups per run: at least SETUP_MIN_REPS and SETUP_MIN_S seconds of them
SETUP_MIN_REPS = 7
SETUP_MIN_S = 1.5

# spans each workload must reach; a zero here means a binding was missed
REQUIRED_SPANS = {
    "certify-p7": sorted(set(tr.SPANS) - {"cyclotomic.inv", "linalg.invert"}),
    "group-p19": [
        "cyclotomic.mul", "cyclotomic.addsub", "cyclotomic.aut", "cyclotomic.k_coords",
        "cyclotomic.k_inverse", "linalg.solve", "algebra.mul", "projective.canonicalize",
        "projective.generate", "projective.cayley_table", "projective.isomorphism",
        "projective.relations", "projective.jordan", "projective.report",
    ],
    "algebra-p31": [
        "cyclotomic.mul", "cyclotomic.addsub", "cyclotomic.aut", "cyclotomic.k_coords",
        "cyclotomic.k_inverse", "linalg.solve", "linalg.det", "algebra.mul",
        "algebra.splitting_matrix", "algebra.reduced_norm", "algebra.inverse",
        "algebra.regular_rep_det", "pipeline.algebra_checks", "sampling",
    ],
}
STAGES = ("field", "obstruction", "algebra", "group")


def set_up(p, tracer=None):
    """Import sbcert afresh, build the field, warm its caches; (seconds, module)."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "sbcert" or m.startswith("sbcert.")]:
        del sys.modules[name]
    sb = importlib.import_module("sbcert")
    if tracer is not None:
        tracer.install()
    field = sb.make_field(p)
    coords = sb.cyclotomic.k_coordinate_vector(field, field.one().coords)
    sb.cyclotomic.k_inverse_from_period_coords(field, coords[: field.k])
    return time.perf_counter() - t0, sb


def closed_loop(inst, seconds, tracer=None):
    """Run ops back to back for `seconds`; gate each output outside the timing."""
    out = {"op_s": [], "failed": 0, "deltas": [], "stage_ms": []}
    start = time.perf_counter()
    while not out["op_s"] or time.perf_counter() - start < seconds:
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            result, problems = inst.op(), None
        except Exception:
            result, problems = None, ["op raised:\n" + traceback.format_exc()]
        out["op_s"].append(time.perf_counter() - t0)
        if tracer:
            out["deltas"].append(tr.delta(tracer.snapshot(), before))
        if problems is None:
            try:
                problems = inst.gate(result)
            except Exception:
                problems = ["gate raised:\n" + traceback.format_exc()]
            cert = inst.certificate(result)
            if cert is not None:
                out["stage_ms"].append(cert.timings_ms)
        if problems:
            out["failed"] += 1
            print(f"op {len(out['op_s'])} failed: " + "; ".join(problems), file=sys.stderr)
    out["wall_s"] = time.perf_counter() - start
    return out


def source_identity():
    """Commit if the checkout is a git work tree, and a digest of the sources."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("sbcert/*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()[:16]


def environment(sb):
    commit, src_digest = source_identity()
    return {
        "python": platform.python_version(),
        "have_gmpy2": sb.rationals.HAVE_GMPY2,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src_digest,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workload, seed, seconds):
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        elapsed, sb = set_up(workload.p)
        setup_times.append(elapsed)
        # free the replaced modules, so that they do not count in peak_rss_mb;
        # typing's caches would keep each one alive through its annotations
        for clear in getattr(typing, "_cleanups", ()):
            clear()
        gc.collect()
    ok = check_negative_control(sb, seed)
    inst = workload.build(sb, seed)
    print(f"input {inst.describe}")
    loop = closed_loop(inst, seconds)
    n = len(loop["op_s"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(loop["op_s"]), "s"),
        "ops_per_min": (60 * n / loop["wall_s"], "1/min"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_s.p50": f"median of {n} ops: " + " ".join(f"{t:.3f}" for t in loop["op_s"]),
        "ops_per_min": f"{n} ops in {loop['wall_s']:.2f} s, one closed-loop caller",
    }
    print(f"fail_ratio {loop['failed'] / n} ratio ({loop['failed']} of {n} ops)")
    return sb, metrics, notes, n, loop["failed"], ok


def traced(workload, seed, seconds):
    tracer = tr.Tracer()
    _, sb = set_up(workload.p, tracer)
    setup_delta = tr.delta(tracer.snapshot())
    tracer.remove()
    ok = check_negative_control(sb, seed)

    base_inst = workload.build(sb, seed)
    print(f"input {base_inst.describe}")
    base = closed_loop(base_inst, seconds / 2)
    tracer = tr.Tracer()
    tracer.install()
    try:
        # a fresh instance restarts the input sequence, so counts repeat per seed
        run = closed_loop(workload.build(sb, seed), seconds / 2, tracer)
    finally:
        tracer.remove()

    first = run["deltas"][0]
    missed = [s for s in REQUIRED_SPANS[workload.name] if not first["calls"][s]]
    if not setup_delta["calls"]["linalg.invert"]:
        missed.append("linalg.invert (set-up)")
    if missed:
        ok = False
        print("spans with zero calls: " + ", ".join(missed), file=sys.stderr)

    metrics = {}
    for name in tr.SPANS:
        calls_key = "sampling.draws" if name == "sampling" else f"{name}.calls"
        source = [setup_delta] if name == "linalg.invert" else run["deltas"]
        metrics[calls_key] = (source[0]["calls"][name], "count")
        if name != "cyclotomic.inv":  # never called by the pipeline: no time to report
            metrics[f"{name}.self_s"] = (
                statistics.median(d["self_s"][name] for d in source), "s")
    products = first["edges"][("projective.generate", "projective.canonicalize")]
    new = first["results"]["projective.generate"]
    metrics["projective.generate.new_per_product"] = (new / products if products else 0.0,
                                                      "ratio")
    metrics["obstruction.search.candidates"] = (
        first["edges"][("obstruction.search", "cyclotomic.relative_norm")], "count")
    for stage in STAGES:
        values = [t[stage] / 1000 for t in base["stage_ms"]]
        metrics[f"pipeline.stage.{stage}_s"] = (
            statistics.median(values) if values else 0.0, "s")
    base_p50 = statistics.median(base["op_s"])
    traced_p50 = statistics.median(run["op_s"])
    metrics["trace.base_op_s"] = (base_p50, "s")
    metrics["trace.op_s.p50"] = (traced_p50, "s")
    metrics["trace.overhead"] = (traced_p50 / base_p50, "ratio")
    notes = {
        "trace.overhead": f"traced op_s.p50 over untraced op_s.p50; base "
                          f"{base_p50:.4f} s from {len(base['op_s'])} untraced ops, "
                          f"{len(run['op_s'])} traced ops",
        "linalg.invert.calls": "during one traced set-up",
    }
    attempted = len(base["op_s"]) + len(run["op_s"])
    failed = base["failed"] + run["failed"]
    print(f"fail_ratio {failed / attempted} ratio ({failed} of {attempted} ops)")
    return sb, metrics, notes, attempted, failed, ok


def check_negative_control(sb, seed):
    """The gate must count algebra checks on a cube parameter as a failure."""
    problems = negative_control_problems(sb, seed)
    if problems:
        print("negative control flagged: " + "; ".join(problems))
        return True
    print("negative control NOT flagged: the gate passes a bad output", file=sys.stderr)
    return False


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sbcert" / "__init__.py").is_file():
        print(f"no sbcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared(args.trace)

    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    sb, metrics, notes, attempted, failed, ok = run(workload, args.seed, args.seconds)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    wrong = [name for name, unit in units.items() if produced.get(name) != unit]
    if wrong:
        print(f"metrics missing or with other units than in BENCHMARK.json: {wrong}",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(sb)))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {unit}{note}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
