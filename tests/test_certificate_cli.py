"""Pipeline orchestration, certificate serialization, CLI behavior."""

import json
from fractions import Fraction

import pytest

import sbcert.algebra as algebra_module
import sbcert.cli as cli
import sbcert.pipeline as pipeline
import sbcert.projective as projective
from sbcert.algebra import CyclicAlgebra
from sbcert.certificate import certificate_to_dict, certificate_to_json, _int_field
from sbcert.cyclotomic import make_field
from sbcert.errors import (
    BadInput,
    BadSearchBound,
    BadSeed,
    BadTrialCount,
    BoundTooLarge,
    CapExceeded,
    NotPrime,
    RejectedOverride,
    WrongResidue,
)
from sbcert.pipeline import PipelineOptions, run_pipeline

FAST = PipelineOptions(trials=10, norm_search_bound=0)


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
    with pytest.raises(WrongResidue):
        run_pipeline(11)
    with pytest.raises(NotPrime):
        run_pipeline(6)


def test_pipeline_rejects_cube_override():
    with pytest.raises(RejectedOverride):
        run_pipeline(7, PipelineOptions(a=6))
    with pytest.raises(RejectedOverride):
        run_pipeline(7, PipelineOptions(a=0))
    with pytest.raises(RejectedOverride):
        run_pipeline(7, PipelineOptions(a=14))
    # not integers: truncating them would quietly certify a = 3 instead
    with pytest.raises(RejectedOverride):
        run_pipeline(7, PipelineOptions(a=3.9))
    with pytest.raises(RejectedOverride):
        run_pipeline(7, PipelineOptions(a=Fraction(7, 2)))


@pytest.mark.parametrize("trials", [0, -3])
def test_pipeline_rejects_trials_below_one(trials):
    with pytest.raises(BadTrialCount):
        run_pipeline(7, PipelineOptions(trials=trials, norm_search_bound=0))


@pytest.mark.parametrize("bound", [-1, -2])
def test_pipeline_rejects_negative_search_bound(bound):
    with pytest.raises(BadSearchBound):
        run_pipeline(7, PipelineOptions(trials=1, norm_search_bound=bound))


def test_pipeline_accepts_non_cube_override():
    cert = run_pipeline(7, PipelineOptions(a=9, trials=5, norm_search_bound=0))
    assert cert.passed and cert.a == 9
    negative = run_pipeline(7, PipelineOptions(a=-5, trials=5, norm_search_bound=0))
    assert negative.passed and negative.a == -5


@pytest.mark.parametrize(
    "error",
    [
        BadTrialCount,
        BadSearchBound,
        BadSeed,
        NotPrime,
        WrongResidue,
        RejectedOverride,
        BoundTooLarge,
    ],
)
def test_input_errors_share_one_base(error):
    # the CLI maps BadInput to exit 2, so every input error has to be one
    assert issubclass(error, BadInput)


@pytest.mark.parametrize(
    "options, error",
    [
        (PipelineOptions(trials=2.5, norm_search_bound=0), BadTrialCount),
        (PipelineOptions(trials=Fraction(5, 2), norm_search_bound=0), BadTrialCount),
        (PipelineOptions(trials=2, norm_search_bound=1.5), BadSearchBound),
        (PipelineOptions(trials=2, norm_search_bound=Fraction(1, 2)), BadSearchBound),
        (PipelineOptions(trials=True, norm_search_bound=0), BadTrialCount),
        (PipelineOptions(trials=2, norm_search_bound=True), BadSearchBound),
        (PipelineOptions(seed=1.5, trials=2, norm_search_bound=0), BadSeed),
        (PipelineOptions(seed="1", trials=2, norm_search_bound=0), BadSeed),
        (PipelineOptions(seed=None, trials=2, norm_search_bound=0), BadSeed),
        (PipelineOptions(seed=False, trials=2, norm_search_bound=0), BadSeed),
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
def test_pipeline_rejects_non_integer_counts(options, error):
    # argparse hands the CLI ints, so only a library caller can pass these
    with pytest.raises(error):
        run_pipeline(7, options)


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
    assert certificate_to_json(first, include_timings=False) == certificate_to_json(
        second, include_timings=False
    )


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


def test_cli_unwritable_out_path(tmp_path, capsys):
    out = tmp_path / "missing" / "c.json"
    code = cli.main(["--p", "7", "--trials", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sbcert: error: cannot write ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


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
    # an internal error raised inside a stage is neither a FAIL (1) nor a usage error (2)
    def raising(algebra):
        raise CapExceeded("closure exceeded its cap")

    monkeypatch.setattr(pipeline, "group_report", raising)
    code = cli.main(["--p", "7", "--trials", "1", "--quiet"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "sbcert: error: internal check raised CapExceeded: closure exceeded its cap\n"
    )
