"""Pipeline orchestration, certificate serialization, CLI behavior."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbcert
import sbcert.algebra as algebra_module
import sbcert.cli as cli
import sbcert.cyclotomic as cyclotomic
import sbcert.obstruction as obstruction
import sbcert.pipeline as pipeline
import sbcert.projective as projective
from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import make_field
from sbcert.errors import BadInput, DivisionByZero, NotInvertible, SbcertError
from sbcert.obstruction import obstruction_report
from sbcert.pipeline import (
    PipelineOptions,
    _encode,
    _int_field,
    certificate_to_dict,
    certificate_to_json,
    run_pipeline,
)
from sbcert.rationals import Rat

FAST = PipelineOptions(trials=10, norm_search_bound=0)
GOLDEN = Path(__file__).parent / "golden"
# a CLI subprocess imports the package this suite imports, a mutated copy included
_PACKAGE_ROOT = str(Path(sbcert.__file__).resolve().parent.parent)
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
))


@pytest.fixture(scope="module")
def cert7_fast():
    return run_pipeline(7, FAST)


def test_pipeline_p7(cert7_fast):
    cert = cert7_fast
    assert cert.overall == "PASS"
    assert cert.passed
    assert (cert.p, cert.d, cert.k, cert.a) == (7, 2, 2, 2)
    assert cert.failed_stage is None
    assert cert.group.order == 21
    assert cert.obstruction.certificate_grade


def test_pipeline_rejects_bad_primes():
    with pytest.raises(BadInput, match=r"need p = 1 \(mod 3\)"):
        run_pipeline(11)
    with pytest.raises(BadInput, match="6 is not prime"):
        run_pipeline(6)


def test_pipeline_rejects_cube_override():
    with pytest.raises(BadInput, match="a = 6 is a cube modulo p = 7"):
        run_pipeline(7, PipelineOptions(a=6))
    with pytest.raises(BadInput, match="a = 0 is not a unit modulo p = 7"):
        run_pipeline(7, PipelineOptions(a=0))
    with pytest.raises(BadInput, match="a = 14 is not a unit modulo p = 7"):
        run_pipeline(7, PipelineOptions(a=14))
    # not integers: truncating them would quietly certify a = 3 instead
    with pytest.raises(BadInput, match="a = 3.9 is not an int"):
        run_pipeline(7, PipelineOptions(a=3.9))
    with pytest.raises(BadInput, match=r"a = Fraction\(7, 2\) is not an int"):
        run_pipeline(7, PipelineOptions(a=Fraction(7, 2)))
    # a bool passes isinstance(a, int), but it is not graded as a cube or a non-unit
    for a in (True, False):
        with pytest.raises(BadInput, match="not an int"):
            run_pipeline(7, PipelineOptions(a=a))


@pytest.mark.parametrize("trials", [0, -3])
def test_pipeline_rejects_trials_below_one(trials):
    with pytest.raises(BadInput, match=f"trials = {trials}; the checks need a whole number"):
        run_pipeline(7, PipelineOptions(trials=trials, norm_search_bound=0))


@pytest.mark.parametrize("bound", [-1, -2])
def test_pipeline_rejects_negative_search_bound(bound):
    with pytest.raises(BadInput, match=f"norm search bound = {bound}; use a whole number"):
        run_pipeline(7, PipelineOptions(trials=1, norm_search_bound=bound))


def test_pipeline_accepts_non_cube_override():
    cert = run_pipeline(7, PipelineOptions(a=9, trials=5, norm_search_bound=0))
    assert cert.passed and cert.a == 9
    negative = run_pipeline(7, PipelineOptions(a=-5, trials=5, norm_search_bound=0))
    assert negative.passed and negative.a == -5


# the message of each count guard in _validate_counts, so a test shows which one fired
_SEED = "the seed must be an int"
_TRIALS = "the checks need a whole number, at least 1"
_BOUND = "use a whole number, 0 to skip"


@pytest.mark.parametrize(
    "options, message",
    [
        (PipelineOptions(trials=2.5, norm_search_bound=0), _TRIALS),
        (PipelineOptions(trials=Fraction(5, 2), norm_search_bound=0), _TRIALS),
        (PipelineOptions(trials=2, norm_search_bound=1.5), _BOUND),
        (PipelineOptions(trials=2, norm_search_bound=Fraction(1, 2)), _BOUND),
        (PipelineOptions(trials=True, norm_search_bound=0), _TRIALS),
        (PipelineOptions(trials=2, norm_search_bound=True), _BOUND),
        (PipelineOptions(seed=1.5, trials=2, norm_search_bound=0), _SEED),
        (PipelineOptions(seed="1", trials=2, norm_search_bound=0), _SEED),
        (PipelineOptions(seed=None, trials=2, norm_search_bound=0), _SEED),
        (PipelineOptions(seed=False, trials=2, norm_search_bound=0), _SEED),
    ],
    ids=[
        "float-trials",
        "fraction-trials",
        "float-bound",
        "fraction-bound",
        "bool-trials",
        "bool-bound",
        "float-seed",
        "str-seed",
        "none-seed",
        "bool-seed",
    ],
)
def test_pipeline_rejects_non_integer_counts(options, message):
    # argparse hands the CLI ints, so only a library caller can pass these
    with pytest.raises(BadInput, match=message):
        run_pipeline(7, options)


@pytest.mark.parametrize(
    "seed, trials, message",
    [
        (0, 0, _TRIALS),
        (0, -1, _TRIALS),
        (0, True, _TRIALS),
        (True, 1, _SEED),
        (1.5, 1, _SEED),
        ("0", 1, _SEED),
    ],
    ids=["zero-trials", "negative-trials", "bool-trials", "bool-seed", "float-seed", "str-seed"],
)
def test_run_algebra_checks_rejects_bad_counts(seed, trials, message):
    # a root export: zero trials would give ten vacuous ok blocks that read as a PASS
    with pytest.raises(BadInput, match=message):
        pipeline.run_algebra_checks(CyclicAlgebra(make_field(7), 2), seed, trials)


PASSING_CHECKS = {
    "seed": 0,
    "division_certified": True,
    "alpha_cubed_equals_a": True,
    "associativity": {"trials": 2, "failures": 0, "ok": True},
}


@pytest.mark.parametrize(
    "make_checks, ok",
    [
        (lambda: PASSING_CHECKS, True),
        (
            lambda: {**PASSING_CHECKS, "associativity": {"trials": 2, "failures": 1, "ok": False}},
            False,
        ),
        # the cube parameter a = 1: division_certified is False, as in perfbench's control
        (lambda: pipeline.run_algebra_checks(CyclicAlgebra(make_field(7), 1), 0, 1), False),
    ],
    ids=["seed-zero-passes", "failed-block", "cube-parameter"],
)
def test_algebra_checks_verdict(make_checks, ok):
    assert pipeline._algebra_checks_ok(make_checks()) is ok


def test_cli_oversized_search_bound_rejected(capsys):
    # 5^12 candidates at p=13 blows the enumeration cap
    assert cli.main(["--p", "13", "--norm-search-bound", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_certificate_deterministic_modulo_timings():
    first = run_pipeline(7, PipelineOptions(trials=5, norm_search_bound=1))
    second = run_pipeline(7, PipelineOptions(trials=5, norm_search_bound=1))
    first_doc, second_doc = certificate_to_dict(first), certificate_to_dict(second)
    del first_doc["timings_ms"], second_doc["timings_ms"]
    assert first_doc == second_doc


def test_certificate_structure(cert7_fast):
    payload = certificate_to_dict(cert7_fast)
    expected_keys = [
        "schema_version", "p", "d", "k", "a", "seed", "trials", "overall",
        "failed_stage", "obstruction", "algebra_checks", "group",
        "imported_lemma_note", "timings_ms",
    ]
    assert list(payload.keys()) == expected_keys
    assert payload["group"]["order_histogram"] == {"1": 1, "3": 14, "7": 6}
    assert payload["obstruction"]["cubes_mod_p"] == [1, 6]
    parsed = json.loads(certificate_to_json(cert7_fast))
    assert parsed == payload


def test_large_int_serialization_rule():
    assert _int_field(7) == 7
    assert _int_field(2**62) == 2**62
    assert _int_field(2**70) == str(2**70)
    assert _int_field(-(2**70)) == str(-(2**70))


def test_wide_ints_are_strings_in_every_block():
    # 2^64 = 2 (mod 7) is a non-cube unit; a and seed each appear in two blocks
    a, seed = 2**64, 2**70
    cert = run_pipeline(7, PipelineOptions(a=a, seed=seed, trials=1, norm_search_bound=0))
    payload = json.loads(certificate_to_json(cert))
    assert cert.passed
    assert (payload["a"], payload["obstruction"]["a"]) == (str(a), str(a))
    assert (payload["seed"], payload["algebra_checks"]["seed"]) == (str(seed), str(seed))


def test_encoder_writes_a_group_counterexample(monkeypatch):
    # the reference table of twist d^2 = 4 at p = 7: the fixed pairing breaks on it
    real = projective.semidirect_table
    monkeypatch.setattr(projective, "semidirect_table", lambda p, d: real(p, d * d % p))
    cert = run_pipeline(7, FAST)
    assert cert.failed_stage == "group:isomorphism"
    (u, v), (u2, v2) = cert.group.isomorphism["counterexample"]
    block = json.loads(certificate_to_json(cert))["group"]["isomorphism"]
    assert block["ok"] is False and 0 < block["pairs_checked"] < 441
    assert block["convention"] == "phi(u, v) = xi_hat^u * (alpha_hat^2)^v"
    assert block["counterexample"] == [[u, v], [u2, v2]]


def test_encoder_writes_a_witness_as_rational_strings(field7):
    # 8 = 2^3 is a norm, found at height 2
    block = _encode(obstruction_report(field7, 8, 2))
    assert block["witness_found"] == ["2", "0", "0", "0", "0", "0"]
    assert block["cubes_mod_p"] == [1, 6] and block["is_cube"] is True
    assert _encode(field7.element([Rat(1, 2), -3, 0, 0, 0, Rat(4, 6)])) == [
        "1/2", "-3", "0", "0", "0", "2/3"
    ]


def test_failed_algebra_stage_serializes(monkeypatch):
    real = pipeline.run_algebra_checks

    def sabotaged(algebra, seed, trials):
        out = real(algebra, seed, trials)
        out["alpha_cubed_equals_a"] = False
        return out

    monkeypatch.setattr(pipeline, "run_algebra_checks", sabotaged)
    cert = run_pipeline(7, FAST)
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "algebra"
    payload = json.loads(certificate_to_json(cert))
    assert payload["overall"] == "FAIL"
    assert payload["group"]["order"] == 21  # later stages still serialized


def _key_paths(value, path=()):
    """The path of every key at any depth of a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield path + (k,)
            yield from _key_paths(v, path + (k,))


def test_norm_witness_fails_the_obstruction_stage(monkeypatch, capsys):
    # a witness means a is a norm: the run FAILs at the first stage, and the
    # certificate still carries every key, later stages included
    def witness(field, a, bound):
        return field.one()

    monkeypatch.setattr(obstruction, "brute_force_norm_search", witness)
    cert = run_pipeline(7, PipelineOptions(trials=2))
    assert cert.overall == "FAIL" and cert.failed_stage == "obstruction"
    payload = json.loads(certificate_to_json(cert))
    assert payload["obstruction"]["witness_found"] == ["1", "0", "0", "0", "0", "0"]
    golden = json.loads((GOLDEN / "cert_p7.json").read_text(encoding="utf-8"))
    golden["timings_ms"] = payload["timings_ms"]
    assert list(_key_paths(payload)) == list(_key_paths(golden))
    assert cli.main(["--p", "7", "--trials", "2", "--quiet"]) == 1
    assert json.loads(capsys.readouterr().out)["failed_stage"] == "obstruction"


def test_failed_group_substage_named(monkeypatch):
    real = pipeline.group_report

    def sabotaged(algebra):
        report = real(algebra)
        report.jordan_index = 21
        return report

    monkeypatch.setattr(pipeline, "group_report", sabotaged)
    cert = run_pipeline(7, FAST)
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "group:jordan_index"


def test_broken_reference_table_fails_abstract_axioms(monkeypatch):
    # two swapped entries of one row; the powers of element 2 never return
    # to the identity, so every walk over the table has to be bounded
    real = projective.semidirect_table

    def broken(p, d):
        table = real(p, d)
        table[1][1], table[1][2] = table[1][2], table[1][1]
        return table

    monkeypatch.setattr(projective, "semidirect_table", broken)
    cert = run_pipeline(7, FAST)
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "group:abstract_axioms"
    assert not cert.group.abstract_axioms_ok


def test_concrete_table_without_an_identity_fails_the_group_stage(monkeypatch):
    # row 1 loses its identity entry: a FAIL certificate, not a traceback
    real = projective.cayley_table

    def broken(elements):
        table = real(elements)
        table[1] = [1 if j == 0 else j for j in table[1]]
        return table

    monkeypatch.setattr(projective, "cayley_table", broken)
    cert = run_pipeline(7, FAST)
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "group:isomorphism"
    assert cert.group.jordan_index == 0
    assert json.loads(certificate_to_json(cert))["group"]["jordan_index"] == 0


def test_division_failure_fails_algebra_stage(monkeypatch):
    # a wrong inverse scale makes inverse()'s own two-sided check refuse
    # every sample; the division loop relies on that check alone
    real = algebra_module.k_inverse
    monkeypatch.setattr(algebra_module, "k_inverse", lambda det: real(det) * 2)
    cert = run_pipeline(7, FAST)
    block = cert.algebra_checks["division_property"]
    assert block == {"trials": 20, "failures": 20, "ok": False}
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "algebra"


def test_norm_oracle_sign_error_fails_algebra_stage(monkeypatch):
    # vanishing agreement alone would miss a sign error; the exact identity does not
    real = algebra_module.AlgebraElem.regular_rep_det
    monkeypatch.setattr(algebra_module.AlgebraElem, "regular_rep_det", lambda x: -real(x))
    cert = run_pipeline(7, FAST)
    block = cert.algebra_checks["norm_oracle_agreement"]
    assert block == {"trials": 10, "failures": 10, "ok": False}
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "algebra"


def test_reduced_norm_outside_K_fails_algebra_stage(monkeypatch):
    # Nrd and the cofactors both times zeta: the cofactor quotient is still
    # x^-1, but k_inverse refuses the norm, so no sample counts as invertible
    real = algebra_module.AlgebraElem._cofactors

    def off_k(x):
        cofactors, det = real(x)
        zeta = x.algebra.field.zeta()
        return tuple(c * zeta for c in cofactors), det * zeta

    monkeypatch.setattr(algebra_module.AlgebraElem, "_cofactors", off_k)
    cert = run_pipeline(7, FAST)
    assert cert.algebra_checks["division_property"] == {"trials": 20, "failures": 20, "ok": False}
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "algebra"


def test_a_scaled_alpha_fails_only_alpha_cubed_equals_a(monkeypatch):
    # 2 * alpha still twists by sigma and has the same class, but cubes to 8a:
    # the flag is the one check that sees it
    real = CyclicAlgebra.alpha
    monkeypatch.setattr(CyclicAlgebra, "alpha", lambda self: real(self).scale(2))
    cert = run_pipeline(7, FAST)
    checks = cert.algebra_checks
    failed = [k for k, v in checks.items() if v is False or isinstance(v, dict) and not v["ok"]]
    assert failed == ["alpha_cubed_equals_a"]
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "algebra"


def test_a_transposed_splitting_matrix_fails_splitting_multiplicativity(monkeypatch):
    # M(x)^T keeps Nrd but reverses products: M(xy)^T = M(y)^T M(x)^T
    real = algebra_module.AlgebraElem.splitting_matrix
    monkeypatch.setattr(algebra_module.AlgebraElem, "splitting_matrix",
                        lambda x: tuple(zip(*real(x))))
    cert = run_pipeline(7, FAST)
    block = cert.algebra_checks["splitting_multiplicativity"]
    assert block == {"trials": 10, "failures": 10, "ok": False}
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "algebra"


def test_a_group_of_the_wrong_order_fails_the_group_stage(monkeypatch):
    # zeta given for both generators: the cyclic group of order p, and group_report
    # still reads two generator indices
    real = projective.generate_subgroup
    monkeypatch.setattr(projective, "generate_subgroup", lambda gens: real(gens[:1] * 2))
    cert = run_pipeline(7, FAST)
    assert cert.group.order == 7
    assert cert.group.isomorphism["pairs_checked"] == 0 and not cert.group.isomorphism["ok"]
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "group:relations"


def test_a_direct_product_reference_fails_order_histograms_match(monkeypatch):
    # Z/7 x Z/3 passes the group axioms, but it has elements of order 21
    def direct(p, d):
        pairs = [(u, v) for u in range(p) for v in range(3)]
        return [[3 * ((u1 + u2) % p) + (v1 + v2) % 3 for u2, v2 in pairs] for u1, v1 in pairs]

    monkeypatch.setattr(projective, "semidirect_table", direct)
    cert = run_pipeline(7, FAST)
    assert cert.group.abstract_axioms_ok
    assert not cert.group.order_histograms_match
    assert cert.overall == "FAIL"
    assert cert.failed_stage == "group:isomorphism"


def test_cli_pass(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = cli.main(["--p", "7", "--trials", "5", "--norm-search-bound", "0",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["overall"] == "PASS"
    assert out.read_text().endswith("\n")
    captured = capsys.readouterr()
    assert "PASS" in captured.err
    assert captured.out == ""


def _sbcert(*args, **popen) -> subprocess.Popen:
    """The CLI in a subprocess, its stderr piped as text."""
    return subprocess.Popen([sys.executable, "-m", "sbcert.cli", *args], env=_ENV,
                            stderr=subprocess.PIPE, text=True, **popen)


def _exit_and_stderr(stdout) -> tuple:
    with _sbcert("--p", "7", "--trials", "1", stdout=stdout) as proc:
        err = proc.communicate(timeout=120)[1]
    return proc.returncode, err


def _missing_directory(tmp_path, capsys) -> tuple:
    out = tmp_path / "missing" / "c.json"
    code = cli.main(["--p", "7", "--trials", "1", "--out", str(out)])
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def _closed_pipe(tmp_path, capsys) -> tuple:
    read, write = os.pipe()
    os.close(read)
    try:
        return _exit_and_stderr(write)
    finally:
        os.close(write)


def _dev_full(tmp_path, capsys) -> tuple:
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        return _exit_and_stderr(full)


@pytest.mark.parametrize(
    "target", [_missing_directory, _closed_pipe, _dev_full],
    ids=["missing-directory", "closed-pipe", "dev-full"],
)
def test_cli_unwritable_out_path(target, tmp_path, capsys):
    # an --out path or a stdout that refuses the certificate: exit 2 and one line
    code, err = target(tmp_path, capsys)
    assert code == 2
    assert err.startswith("sbcert: error: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_interrupted_exits_130_and_leaves_no_process():
    # its own session, so the process group is the run and any child it forked
    with _sbcert("--p", "31", stdout=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            time.sleep(1.5)
            os.kill(proc.pid, signal.SIGINT)
            err = proc.communicate(timeout=60)[1]
            assert (proc.returncode, err) == (130, "sbcert: error: interrupted\n")
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


def test_cli_with_sigchld_ignored_writes_the_golden_certificate():
    # the kernel reaps a forked child itself, and its status is lost
    def ignore_sigchld():
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)

    with _sbcert("--p", "7", "--quiet", stdout=subprocess.PIPE, preexec_fn=ignore_sigchld) as proc:
        out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, "")
    doc = json.loads(out)
    doc.pop("timings_ms")
    assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / "cert_p7.json").read_text()


def test_cli_stdout_and_quiet(capsys):
    code = cli.main(["--p", "7", "--trials", "5", "--norm-search-bound", "0", "--quiet"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["p"] == 7
    assert captured.err == ""


def test_cli_rejections(capsys):
    assert cli.main(["--p", "11"]) == 2
    assert cli.main(["--p", "6"]) == 2
    assert cli.main(["--p", "7", "--a", "6"]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err


def test_cli_rejects_a_prime_above_the_cap_without_testing_it(monkeypatch, capsys):
    # 2^61 - 1 is prime; is_prime's trial division on it would not end in a test
    def refuse(n):
        raise AssertionError(f"is_prime({n}) reached")

    monkeypatch.setattr(cyclotomic, "is_prime", refuse)
    assert cli.main(["--p", "2305843009213693951", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sbcert: error: p = 2305843009213693951 is above 103")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_rejects_trials_below_one(trials, capsys):
    assert cli.main(["--p", "7", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sbcert: error: trials = ")


@pytest.mark.parametrize("bound", ["-1", "-2"])
def test_cli_rejects_negative_search_bound(bound, capsys):
    assert cli.main(["--p", "7", "--norm-search-bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sbcert: error: norm search bound = ")


def test_cli_defaults_are_the_pipeline_defaults(monkeypatch):
    seen = []

    def record(p, options):
        seen.append(options)
        raise BadInput("recorded")

    monkeypatch.setattr(cli, "run_pipeline", record)
    assert cli.main(["--p", "7"]) == 2
    assert seen == [PipelineOptions()]


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--p", "notanint"])
    assert exc.value.code == 2


def test_cli_fail_exit_code(monkeypatch, capsys):
    real = pipeline.run_algebra_checks

    def sabotaged(algebra, seed, trials):
        out = real(algebra, seed, trials)
        out["xi_alpha_twist"] = False
        return out

    monkeypatch.setattr(pipeline, "run_algebra_checks", sabotaged)
    code = cli.main(["--p", "7", "--trials", "5", "--norm-search-bound", "0", "--quiet"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "FAIL" and payload["failed_stage"] == "algebra"


def test_cli_stage_error_exits_3(monkeypatch, capsys):
    # an internal error raised inside a stage is neither a FAIL (1) nor a usage error (2);
    # a stage raises only these three, and each must reach the CLI as an SbcertError
    for error in (SbcertError, DivisionByZero, NotInvertible):

        def raising(algebra, error=error):
            raise error("closure exceeded its cap")

        monkeypatch.setattr(pipeline, "group_report", raising)
        code = cli.main(["--p", "7", "--trials", "1", "--quiet"])
        assert code == 3, error
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"sbcert: error: internal check raised {error.__name__}: closure exceeded its cap\n"
        )



_JUNK = st.sampled_from(["", "x", "1.5", "0x7", "7e0"])
_ANY_INT = st.integers(-(10**30), 10**30)


# derandomized: the suite draws the same examples on every run
@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.data())
def test_cli_exits_0_1_or_2_without_a_traceback(data):
    # at most one option takes a bad value; the rest are drawn so that a run
    # ends within a second: p is 7 or 13 and trials at most 2, and a search
    # bound of 1 only at p = 7 (at p = 13 that search takes 16 s), otherwise
    # 0, omitted, or large enough that the cap refuses it before the search
    draw = data.draw
    p = draw(st.sampled_from([7, 13]))
    values = {
        "--p": st.just(p),
        "--a": st.none() | _ANY_INT,
        "--seed": st.none() | _ANY_INT,
        "--trials": st.sampled_from([1, 2]),
        "--norm-search-bound": st.sampled_from([None, 0, int(p == 7), 6 if p == 7 else 2, 10**6]),
    }
    bad = draw(st.none() | st.sampled_from(list(values)))
    if bad is not None:
        # make_field rejects every p outside 14 .. 103 but 7 and 13; every int
        # is a well-formed --a and --seed, so only junk is bad there
        out_of_range = {
            "--p": _ANY_INT.filter(lambda n: n not in (7, 13) and not 14 <= n <= 103),
            "--a": st.nothing(),
            "--seed": st.nothing(),
            "--trials": st.integers(max_value=0),
            "--norm-search-bound": st.integers(max_value=-1),
        }
        values[bad] = out_of_range[bad] | _JUNK
    argv = []
    for name, strategy in values.items():
        value = draw(strategy)
        if value is not None:
            argv.append(f"{name}={value}")
    argv += draw(st.sampled_from([[], ["--quiet"]]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("sbcert: error: ")
    else:
        assert json.loads(out.getvalue())["overall"] == ("PASS", "FAIL")[code]
