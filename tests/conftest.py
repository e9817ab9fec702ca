import os
import random
import time

import pytest

from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import make_field
from sbcert.pipeline import run_pipeline


@pytest.fixture(scope="session")
def field7():
    return make_field(7)


@pytest.fixture(scope="session")
def field13():
    return make_field(13)


@pytest.fixture(scope="session")
def alg7(field7):
    return CyclicAlgebra(field7, 2)


@pytest.fixture(scope="session")
def timed_cert31():
    """The default p = 31 certificate and its run time; one run serves every test."""
    start = time.monotonic()
    cert = run_pipeline(31)
    return cert, time.monotonic() - start


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def two_cpus(monkeypatch):
    """The process reports two CPUs; the list gains one entry per os.fork."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
    return forks
