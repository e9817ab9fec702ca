"""The algebra trial blocks split across a forked child: the serial result, no child left."""

import errno
import json
import os
import threading
from pathlib import Path

import pytest

import sbcert.cli as cli
import sbcert.pipeline as pipeline
from sbcert.algebra import AlgebraElem, CyclicAlgebra
from sbcert.cyclotomic import make_field
from sbcert.pipeline import run_algebra_checks

GOLDEN = Path(__file__).parent / "golden"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The process's open descriptors, or None where /proc is absent."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _refuse(code):
    def refuse(*args):
        raise OSError(code, os.strerror(code))

    return refuse


def _serial(monkeypatch, *args):
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        return run_algebra_checks(*args)


@pytest.mark.parametrize("p", [7, 13])
def test_two_cpus_fork_once_and_match_one_cpu(p, two_cpus, monkeypatch):
    algebra = CyclicAlgebra(make_field(p), 2)
    for seed in range(3):
        forked = run_algebra_checks(algebra, seed, 5)
        _no_child_left()
        assert forked == _serial(monkeypatch, algebra, seed, 5)
        assert len(two_cpus) == seed + 1


def _oracle_samples(monkeypatch, algebra):
    """regular_rep_det and the oracle's samples in a serial run at seed 0 with 4 trials.

    A serial run checks the parent's half first, so the first two samples are
    the parent's half of the block, the last two the child's.
    """
    real = AlgebraElem.regular_rep_det
    seen = []
    monkeypatch.setattr(AlgebraElem, "regular_rep_det", lambda x: seen.append(x) or real(x))
    _serial(monkeypatch, algebra, 0, 4)
    return real, seen


def _raises_as_the_serial_run(algebra, two_cpus, monkeypatch, pick):
    """A forked run whose oracle raises on the picked sample raises the serial run's error."""
    real, seen = _oracle_samples(monkeypatch, algebra)
    refused = pick(seen)

    def refuse(x):
        if x == refused:
            raise ValueError(f"refused {x!r}")
        return real(x)

    monkeypatch.setattr(AlgebraElem, "regular_rep_det", refuse)
    with pytest.raises(ValueError) as forked:
        run_algebra_checks(algebra, 0, 4)
    _no_child_left()
    with pytest.raises(ValueError) as serial:
        _serial(monkeypatch, algebra, 0, 4)
    assert two_cpus == [None]
    assert str(forked.value) == str(serial.value) == f"refused {refused!r}"


def test_a_check_raising_in_the_childs_half_raises_as_the_serial_run(alg7, two_cpus, monkeypatch):
    # the child exits 1, and the parent's own run of the child's half raises
    _raises_as_the_serial_run(alg7, two_cpus, monkeypatch, lambda seen: seen[-1])


def test_a_check_raising_in_the_parents_half_raises_as_the_serial_run(alg7, two_cpus, monkeypatch):
    # the parent kills and reaps the child, and re-raises
    _raises_as_the_serial_run(alg7, two_cpus, monkeypatch, lambda seen: seen[0])


def test_a_live_thread_means_no_fork(alg7, two_cpus):
    # forking with another thread alive is unsafe, and warns from Python 3.12
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        checks = run_algebra_checks(alg7, 0, 4)
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert two_cpus == []
    assert checks["associativity"] == {"trials": 4, "failures": 0, "ok": True}


@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_check_refusing_one_sample_in_either_half_counts_as_the_serial_run(
    side, alg7, two_cpus, monkeypatch
):
    # a failing child exits 1 and the parent checks the child's half itself,
    # while a failure in the parent's half adds to the child's zeros
    real, seen = _oracle_samples(monkeypatch, alg7)
    refused = seen[-1] if side == "child" else seen[0]
    monkeypatch.setattr(AlgebraElem, "regular_rep_det", lambda x: real(x) + (x == refused))
    forked = run_algebra_checks(alg7, 0, 4)
    _no_child_left()
    assert two_cpus == [None]
    assert forked == _serial(monkeypatch, alg7, 0, 4)
    assert forked["norm_oracle_agreement"] == {"trials": 4, "failures": 1, "ok": False}


def test_every_trial_refused_counts_every_trial_of_an_odd_block(alg7, two_cpus, monkeypatch):
    # 5 trials split 3 and 2: the parent's half holds the odd one
    real = pipeline._trial_blocks

    def refusing(seed, blocks):
        return real(seed, [(n, draw, k, lambda *x: False) for n, draw, k, _ in blocks])

    monkeypatch.setattr(pipeline, "_trial_blocks", refusing)
    forked = run_algebra_checks(alg7, 0, 5)
    _no_child_left()
    assert two_cpus == [None]
    assert forked == _serial(monkeypatch, alg7, 0, 5)
    blocks = {k: v for k, v in forked.items() if isinstance(v, dict)}
    assert len(blocks) == 7
    assert all(v["failures"] == v["trials"] for v in blocks.values())
    assert blocks["division_property"] == {"trials": 10, "failures": 10, "ok": False}


def test_no_child_to_spare_runs_in_process(alg7, two_cpus, monkeypatch):
    serial = _serial(monkeypatch, alg7, 0, 4)
    fds = _open_fds()
    monkeypatch.setattr(os, "fork", _refuse(errno.EAGAIN))
    assert run_algebra_checks(alg7, 0, 4) == serial
    assert _open_fds() == fds  # no descriptor left open
    _no_child_left()
    assert two_cpus == []


def test_cli_without_a_child_to_spare_writes_the_golden_certificate(
    tmp_path, two_cpus, monkeypatch, capsys
):
    # with no child to spare, the trial blocks run in-process
    monkeypatch.setattr(os, "fork", _refuse(errno.EAGAIN))
    out = tmp_path / "cert_p7.json"
    assert cli.main(["--p", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc.pop("timings_ms")
    assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / "cert_p7.json").read_text()
    assert capsys.readouterr().err.endswith("-> PASS\n")
